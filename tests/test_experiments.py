import contextlib
import errno
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rolemodel import experiments
from rolemodel.cli import main
from rolemodel import (
    ConditionalTable,
    Joint3,
    Scenario,
    Simplex,
    TraceFile,
    TrainerConfig,
    bec,
    brute_force_minimizer,
    build_joint,
    conditional_mutual_information,
    direct_solution,
    expected_divergence_given_z,
    general_channel,
    random_joint,
    role_model_exact,
    run_figure_traces,
    scenario_a,
    scenario_b,
    to_matrix,
    z_channel,
)
from rolemodel.errors import (
    DimensionError,
    DistributionError,
    SpecFormatError,
    UnsupportedAlphabetError,
)


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestScenarios:
    def test_cascade_scenario_values(self):
        sc = scenario_a()
        got = direct_solution(sc.joint())
        np.testing.assert_allclose(got.row(0).probs, [4 / 7, 3 / 7], atol=1e-15)
        np.testing.assert_allclose(got.row(1).probs, [0.0, 1.0], atol=1e-15)
        same = role_model_exact(sc.joint())
        assert got.tv_distance(same) <= 1e-12

    def test_cascade_closed_form_objective(self):
        # ED(q; z=0) = -(6/7) h(1/3) - (4/7) log2 q - (3/7) log2 (1-q)
        joint = scenario_a().joint()
        for q0 in np.linspace(0.02, 0.98, 49):
            want = (
                -(6 / 7) * binary_entropy(1 / 3)
                - (4 / 7) * math.log2(q0)
                - (3 / 7) * math.log2(1 - q0)
            )
            got = expected_divergence_given_z(joint, Simplex([q0, 1 - q0]), 0)
            assert got == pytest.approx(want, abs=1e-12)

    def test_erasure_scenario_values(self):
        sc = scenario_b()
        got = direct_solution(sc.joint())
        np.testing.assert_allclose(
            got.row(0).probs, [0.425 / 0.5875, 1 - 0.425 / 0.5875], atol=1e-12
        )
        np.testing.assert_allclose(
            got.row(1).probs, [1 - 0.3375 / 0.4125, 0.3375 / 0.4125], atol=1e-12
        )
        assert round(float(got.row(0).probs[0]), 4) == 0.7234
        assert round(float(got.row(1).probs[1]), 4) == 0.8182

    def test_erasure_scenario_is_markov(self):
        assert conditional_mutual_information(scenario_b().joint()) <= 1e-12

    def test_inconsistent_expected_posterior_rejected(self):
        with pytest.raises(DistributionError):
            Scenario(
                name="broken",
                prior=Simplex([0.5, 0.5]),
                xy_channel=z_channel(0.5),
                yz_channel=z_channel(0.5),
                expected_posterior=ConditionalTable(
                    (Simplex([0.5, 0.5]), Simplex([0.0, 1.0]))
                ),
            )

    def test_wrong_shape_expected_posterior_rejected(self):
        with pytest.raises(DimensionError):
            Scenario(
                name="broken",
                prior=Simplex([0.5, 0.5]),
                xy_channel=z_channel(0.5),
                yz_channel=z_channel(0.5),
                expected_posterior=ConditionalTable.uniform(3, 2),
            )


class TestTraceFile:
    def make_trace(self, tmp_path, seed=1, n=300):
        cfg = TrainerConfig(n_samples=n, seed=seed)
        path = tmp_path / f"trace_{seed}_{n}.csv"
        return run_figure_traces(scenario_b(), cfg, path), path, cfg

    def test_row_shape_and_monotone_steps(self, tmp_path):
        trace, _, cfg = self.make_trace(tmp_path)
        assert trace.columns == ("step", "divergence_bits", "q_0", "q_1")
        assert len(trace.rows) == cfg.n_samples - cfg.window + 1
        steps = [r[0] for r in trace.rows]
        assert steps == sorted(set(steps))
        assert steps[0] == cfg.window

    def test_round_trip_is_exact(self, tmp_path):
        trace, path, _ = self.make_trace(tmp_path, seed=2)
        back = TraceFile.read(path)
        assert back.columns == trace.columns
        assert back.rows == trace.rows
        assert back.header == trace.header

    def test_header_carries_config(self, tmp_path):
        trace, _, cfg = self.make_trace(tmp_path, seed=3)
        h = trace.header
        assert h["scenario"] == "example-b"
        assert h["seed"] == 3
        assert h["window"] == cfg.window
        assert h["start_step"] == cfg.start_step
        assert h["step_size_initial"] == cfg.step_size_initial
        assert h["clamp_epsilon"] == cfg.clamp_epsilon
        assert h["n_samples"] == cfg.n_samples
        assert "version" in h and "timestamp" in h

    def test_same_seed_files_identical_but_for_timestamp(self, tmp_path):
        _, path_a, _ = self.make_trace(tmp_path, seed=4)
        cfg = TrainerConfig(n_samples=300, seed=4)
        path_b = tmp_path / "again.csv"
        run_figure_traces(scenario_b(), cfg, path_b)
        strip = lambda p: [
            ln for ln in p.read_text().splitlines() if not ln.startswith("# timestamp")
        ]
        assert strip(path_a) == strip(path_b)

    def test_trained_parameters_near_posterior(self, tmp_path):
        cfg = TrainerConfig(n_samples=200_000, seed=1)
        trace = run_figure_traces(scenario_b(), cfg, tmp_path / "long.csv")
        last = trace.rows[-1]
        assert last[2] == pytest.approx(34 / 47, abs=0.02)
        assert last[3] == pytest.approx(9 / 11, abs=0.02)

    def test_shortest_run_row_count(self, tmp_path):
        cfg = TrainerConfig(n_samples=101, seed=0)
        trace = run_figure_traces(scenario_b(), cfg, tmp_path / "short.csv")
        assert len(trace.rows) == 101 - 100 + 1

    def test_decreasing_steps_rejected(self):
        with pytest.raises(SpecFormatError):
            TraceFile({}, ("step", "divergence_bits", "q_0"), ((5, 0.1, 0.5), (5, 0.1, 0.5)))

    def test_ragged_row_rejected(self):
        with pytest.raises(SpecFormatError):
            TraceFile({}, ("step", "divergence_bits", "q_0"), ((5, 0.1),))

    def test_read_rejects_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,divergence_bits,q_0\n1,0.5,oops\n")
        with pytest.raises(SpecFormatError, match="bad.csv:2"):
            TraceFile.read(path)

    def test_read_rejects_bad_metadata_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# window = 100\n# seed = abc\nstep,divergence_bits,q_0\n")
        with pytest.raises(SpecFormatError, match="bad.csv:2"):
            TraceFile.read(path)

    def test_read_rejects_short_row_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,divergence_bits,q_0,q_1\n1,0.5,0.1,0.2\n2,0.5,0.1\n")
        with pytest.raises(SpecFormatError, match="bad.csv:3: row of width 3 under 4"):
            TraceFile.read(path)

    def test_read_rejects_decreasing_steps_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# seed = 1\nstep,divergence_bits,q_0\n3,0.5,0.1\n2,0.5,0.1\n")
        with pytest.raises(SpecFormatError, match="bad.csv:4: steps must be strictly"):
            TraceFile.read(path)

    def test_read_rejects_bad_columns_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# seed = 1\nstep,foo,q_0\n1,0.5,0.1\n")
        with pytest.raises(SpecFormatError, match="bad.csv:2: columns must start"):
            TraceFile.read(path)

    def test_header_written_in_its_own_order(self, tmp_path):
        header = {"note": "hand-built", "n_samples": 3, "scenario": "x", "seed": 7}
        t = TraceFile(header, ("step", "divergence_bits", "q_0"), ((1, 0.5, 0.25),))
        path = tmp_path / "t.csv"
        t.write(path)
        back = TraceFile.read(path)
        assert list(back.header.items()) == list(t.header.items())
        assert path.read_text().splitlines()[0] == "# note = hand-built"

    @pytest.mark.parametrize(
        "key, value",
        [("a=b", 1), ("", 1), ("a\nb", 1), (" a", 1), ("a", "x\ny"), ("a", "x\r"),
         ("a", " padded "), ("a", "tail\t")],
        ids=["key-with-eq", "empty-key", "key-with-newline", "padded-key",
             "value-with-newline", "value-with-cr", "padded-value", "value-with-tab"],
    )
    def test_header_it_cannot_carry_rejected(self, key, value):
        with pytest.raises(SpecFormatError, match="header entry"):
            TraceFile({"seed": 1, key: value}, ("step", "divergence_bits", "q_0"), ())

    def test_typed_header_value_it_cannot_read_rejected(self):
        with pytest.raises(SpecFormatError, match="bad value 'abc' for seed"):
            TraceFile({"seed": "abc"}, ("step", "divergence_bits", "q_0"), ())

    def test_typed_header_values_stored_as_read(self, tmp_path):
        t = TraceFile({"seed": "7", "clamp_epsilon": 1}, ("step", "divergence_bits", "q_0"),
                      ((1, 0.5, 0.25),))
        assert t.header == {"seed": 7, "clamp_epsilon": 1.0}
        path = tmp_path / "t.csv"
        t.write(path)
        assert TraceFile.read(path).header == t.header

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        # the disk fills once the header is out: the partial file goes
        written = []
        create_text = experiments.create_text

        class DiskFullAfterHeader:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                if text[:1].isdigit():
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(text)
                return self.fh.write(text)

        @contextlib.contextmanager
        def filling(path):
            with create_text(path) as fh:
                yield DiskFullAfterHeader(fh)

        monkeypatch.setattr(experiments, "create_text", filling)
        t = TraceFile({"seed": 1}, ("step", "divergence_bits", "q_0"),
                      ((1, 0.5, 0.25), (2, 0.5, 0.75)))
        path = tmp_path / "t.csv"
        with pytest.raises(OSError, match="No space left"):
            t.write(path)
        assert written == ["# seed = 1\n", "step,divergence_bits,q_0\n"]
        assert not path.exists()

    @pytest.mark.parametrize(
        "row",
        [(2, 0.5, "not a number"), (2, None, 0.25), (2.5, 0.5, 0.25), (2.0, 0.5, 0.25),
         ("2", 0.5, 0.25)],
        ids=["text-value", "none-value", "fractional-step", "float-step", "text-step"],
    )
    def test_construction_rejects_non_numbers(self, row):
        with pytest.raises(SpecFormatError, match="a step must be an integer"):
            TraceFile({}, ("step", "divergence_bits", "q_0"), ((1, 0.5, 0.25), row))

    @pytest.mark.parametrize("steps", [(-1, 2), (1, 2**63)], ids=["negative", "above-int64"])
    def test_construction_rejects_steps_it_cannot_write(self, steps):
        with pytest.raises(SpecFormatError, match="step"):
            TraceFile({}, ("step", "divergence_bits", "q_0"), [(s, 0.5, 0.25) for s in steps])

    def test_columns_are_read_only(self, tmp_path):
        trace, path, _ = self.make_trace(tmp_path, seed=5)
        back = TraceFile.read(path)
        for t in (trace, back):
            assert t.steps.dtype == np.int64 and t.values.dtype == np.float64
            assert t.values.shape == (len(t.steps), len(t.columns) - 1)
            with pytest.raises(ValueError):
                t.values[0, 0] = 1.0
            with pytest.raises(ValueError):
                t.steps[0] = 1

    def test_cli_trace_is_read_in_one_parse(self, tmp_path, monkeypatch, capsys):
        assert main(["example-b", "--seed", "3", "--samples", "2000", "--out",
                     str(tmp_path), "--tolerance", "1"]) == 0
        capsys.readouterr()
        path = tmp_path / "example_b_seed3_trace.csv"
        want = experiments._read_lines(path)

        def refuse(path):
            raise AssertionError("the trace fell back to the line reader")

        monkeypatch.setattr(experiments, "_read_lines", refuse)
        back = TraceFile.read(path)
        assert back.rows == want.rows and len(back.rows) == 2000 - 100 + 1
        assert back.header == want.header

    @pytest.mark.parametrize(
        "key, value",
        [("seed", "1_0"), ("seed", "\uff11"), ("seed", "+1"), ("seed", "\u00b9"),
         ("clamp_epsilon", "0.0_1"), ("step_size_tau", "\uff11000.0")],
        ids=["underscore", "fullwidth", "sign", "superscript", "float-underscore",
             "float-fullwidth"],
    )
    def test_typed_header_values_are_ascii(self, tmp_path, key, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"# {key} = {value}\nstep,divergence_bits,q_0\n1,0.5,0.25\n",
                        encoding="utf-8")
        with pytest.raises(SpecFormatError, match="bad.csv:1: bad value"):
            TraceFile.read(path)
        with pytest.raises(SpecFormatError, match="bad value"):
            TraceFile({key: value}, ("step", "divergence_bits", "q_0"))

    def test_read_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# scenario = \xff\nstep,divergence_bits,q_0\n")
        with pytest.raises(SpecFormatError, match="bad.csv: not UTF-8"):
            TraceFile.read(path)

    def test_read_requires_header_row(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# seed = 1\n")
        with pytest.raises(SpecFormatError):
            TraceFile.read(path)


_COLUMNS = {k: ("step", "divergence_bits", *(f"q_{i}" for i in range(k - 2)))
            for k in range(3, 7)}
# floats as repr writes them back exactly: every finite one, both zeros,
# subnormals, the infinities, and the one nan that repr and float() keep
_FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.225073858507201e-308, math.inf, -math.inf, math.nan]
)


@st.composite
def _traces(draw):
    width = draw(st.integers(3, 6))
    steps = sorted(draw(st.sets(st.integers(0, 2**63 - 1), max_size=12)))
    rows = [(s, *draw(st.lists(_FLOATS, min_size=width - 1, max_size=width - 1)))
            for s in steps]
    return TraceFile({"seed": draw(st.integers(0, 10**6)), "note": "x"}, _COLUMNS[width], rows)


def _bits(trace):
    return trace.steps.tolist(), trace.values.view(np.int64).tolist()


class TestTraceColumns:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(trace=_traces())
    def test_round_trip_is_bit_identical(self, tmp_path_factory, trace):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        trace.write(path)
        back = TraceFile.read(path)
        assert back.columns == trace.columns and back.header == trace.header
        assert _bits(back) == _bits(trace)
        assert _bits(experiments._read_lines(path)) == _bits(trace)
        again = path.with_name("again.csv")
        back.write(again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "body",
        [
            "1,0.5,0.25\n\n2,0.5,0.25\n",
            "1,0.5,0.25\n   \n2,0.5,0.25\n",
            "1,0.5,0.25\n# note = late\n2,0.5,0.25\n",
            "1,0.5,0.25\n# c\n",
            "1_0,0.5,0.25\n",
            "\uff11,0.5,0.25\n",
            "5.0,0.5,0.25\n",
            "1e2,0.5,0.25\n",
            "+2,0.5,0.25\n",
            "1,0.5,0.25\n -2,0.5,0.25\n",
            "1,0.5\n",
            "3,0.5,0.25\n2,0.5,0.25\n",
            "1,0.5,0.25 # c\n",
            '1,"0.5",0.25\n',
            "9223372036854775808,0.5,0.25\n",
            "1,0.5,2_5.0\n",
            "1,0.5,\uff10.5\n",
            "1,0.5,\u00a00.25\n",
            "\t1 , 0.5 ,-inf\n2,nan,-0.0\n",
            "",
        ],
        ids=["blank-line", "whitespace-line", "late-metadata", "late-comment",
             "underscore-step", "fullwidth-step", "float-step", "exponent-step",
             "signed-step", "negative-step", "ragged-row", "decreasing-step",
             "trailing-comment", "quoted-value", "step-above-int64",
             "underscore-value", "fullwidth-value", "nbsp-padded-value", "padded-fields", "no-rows"],
    )
    def test_read_agrees_with_the_line_reader(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_text("# seed = 1\nstep,divergence_bits,q_0\n" + body, encoding="utf-8")
        try:
            want = experiments._read_lines(path)
        except SpecFormatError as exc:
            with pytest.raises(SpecFormatError) as got:
                TraceFile.read(path)
            assert str(got.value) == str(exc)
            assert str(exc).startswith(f"{path}:")
        else:
            got = TraceFile.read(path)
            assert got.header == want.header and got.columns == want.columns
            assert _bits(got) == _bits(want)


class TestBruteForce:
    def test_cascade_scenario_grid(self):
        est = brute_force_minimizer(scenario_a().joint(), 10_000)
        assert abs(float(est.row(0).probs[0]) - 4 / 7) <= 1e-4
        np.testing.assert_allclose(est.row(1).probs, [0.0, 1.0], atol=1e-12)

    def test_erasure_scenario_grid(self):
        est = brute_force_minimizer(scenario_b().joint(), 10_000)
        assert abs(float(est.row(0).probs[0]) - 34 / 47) <= 1e-4
        assert abs(float(est.row(1).probs[1]) - 9 / 11) <= 1e-4

    def test_zero_probability_symbol_left_undefined(self):
        # second z-symbol unreachable
        yz = to_matrix(general_channel([[1.0, 0.0], [1.0, 0.0]]))
        joint = build_joint(Simplex([0.5, 0.5]), to_matrix(z_channel(0.3)), yz)
        est = brute_force_minimizer(joint, 100)
        assert est.rows[1] is None
        assert est.rows[0] is not None

    def test_matches_direct_solution_on_random_chains(self):
        for seed in range(15):
            joint = random_joint(seed, nx=2, ny=3, nz=2, markov=True)
            grid = brute_force_minimizer(joint, 2000)
            exact = direct_solution(joint)
            assert grid.tv_distance(exact) <= 1.0 / 2000

    def test_ternary_source_grid(self):
        joint = random_joint(99, nx=3, ny=3, nz=2, markov=True)
        grid = brute_force_minimizer(joint, 400)
        exact = role_model_exact(joint)
        assert grid.tv_distance(exact) <= 1.5 / 400

    def test_unsupported_alphabet(self):
        joint = random_joint(1, nx=4, ny=2, nz=2, markov=False)
        with pytest.raises(UnsupportedAlphabetError):
            brute_force_minimizer(joint, 100)

    def test_bad_resolution(self):
        with pytest.raises(DimensionError):
            brute_force_minimizer(scenario_a().joint(), 0)


class TestRandomJoint:
    def test_markov_by_construction(self):
        for seed in range(25):
            joint = random_joint(seed, nx=3, ny=2, nz=4, markov=True)
            assert conditional_mutual_information(joint) <= 1e-12

    def test_unconstrained_rarely_markov(self):
        hits = sum(
            conditional_mutual_information(random_joint(s, markov=False)) > 1e-6
            for s in range(400)
        )
        assert hits / 400 > 0.99

    def test_seed_reproducible(self):
        a = random_joint(7, nx=2, ny=3, nz=2, markov=False)
        b = random_joint(7, nx=2, ny=3, nz=2, markov=False)
        np.testing.assert_array_equal(a.p, b.p)

    def test_small_alphabet_rejected(self):
        with pytest.raises(DimensionError):
            random_joint(0, nx=1, ny=2, nz=2)
