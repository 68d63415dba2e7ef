import math

import numpy as np
import pytest

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

    def test_failed_write_leaves_no_file(self, tmp_path):
        t = TraceFile({"seed": 1}, ("step", "divergence_bits", "q_0"),
                      ((1, 0.5, 0.25), (2, 0.5, "not a number")))
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            t.write(path)
        assert not path.exists()

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
