import numpy as np
import pytest

from rolemodel import (
    ConditionalTable,
    Simplex,
    direct_solution,
    sample_arrays,
    scenario_b,
)
from rolemodel.errors import DimensionError, DistributionError, SpecFormatError
from rolemodel.specfiles import (
    read_estimator,
    read_samples,
    read_scenario,
    write_estimator,
    write_samples,
    write_scenario,
)

ERASURE_SPEC = """\
# an erasure chain with a noisy binary readout
name = erasure-demo
prior = 0.5, 0.5
xy_kind = bec
xy_delta = 0.25

yz_kind = general
yz_row_0 = 0.9, 0.1   # matrix rows in y order
yz_row_1 = 0.7, 0.3
yz_row_2 = 0.2, 0.8
"""


def write(tmp_path, text, name="case.spec"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestScenarioFiles:
    def test_read_handwritten_spec(self, tmp_path):
        sc = read_scenario(write(tmp_path, ERASURE_SPEC))
        assert sc.name == "erasure-demo"
        assert sc.xy_channel.kind == "bec"
        assert sc.xy_channel.delta == 0.25
        np.testing.assert_allclose(
            sc.yz_channel.matrix.p, [[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]]
        )
        builtin = scenario_b()
        assert sc.expected_posterior.tv_distance(builtin.expected_posterior) <= 1e-12

    def test_name_defaults_to_file_stem(self, tmp_path):
        text = "\n".join(
            ln for ln in ERASURE_SPEC.splitlines() if not ln.startswith("name")
        )
        sc = read_scenario(write(tmp_path, text, name="my_chain.spec"))
        assert sc.name == "my_chain"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.spec"
        write_scenario(path, scenario_b())
        back = read_scenario(path)
        assert back.name == "example-b"
        assert back.xy_channel.delta == 0.25
        np.testing.assert_array_equal(
            back.yz_channel.matrix.p, scenario_b().yz_channel.matrix.p
        )

    def test_z_channel_round_trip(self, tmp_path):
        from rolemodel import scenario_a

        path = tmp_path / "a.spec"
        write_scenario(path, scenario_a())
        back = read_scenario(path)
        assert back.xy_channel.kind == "z_channel"
        assert back.xy_channel.crossover == 0.5

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda t: t.replace("prior = 0.5, 0.5\n", ""), "prior"),
            (lambda t: t.replace("xy_kind = bec\n", ""), "xy_kind"),
            (lambda t: t.replace("xy_delta = 0.25\n", ""), "xy_delta"),
            (lambda t: t.replace("xy_kind = bec", "xy_kind = fancy"), "fancy"),
            (lambda t: t + "mystery = 3\n", "mystery"),
            (lambda t: t + "prior = 0.4, 0.6\n", "duplicate"),
            (lambda t: t.replace("0.9, 0.1", "0.9, oops"), "reals"),
            (lambda t: t.replace("yz_row_1", "yz_row_5"), "contiguous"),
            (lambda t: t + "just words\n", "key = value"),
            (lambda t: t + "orphan =\n", "no value"),
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, mutate, fragment):
        path = write(tmp_path, mutate(ERASURE_SPEC))
        with pytest.raises(SpecFormatError, match=fragment):
            read_scenario(path)

    def test_error_carries_line_number(self, tmp_path):
        path = write(tmp_path, ERASURE_SPEC + "mystery = 3\n")
        with pytest.raises(SpecFormatError, match=r"case\.spec:11"):
            read_scenario(path)

    def test_distribution_errors_are_not_format_errors(self, tmp_path):
        path = write(tmp_path, ERASURE_SPEC.replace("prior = 0.5, 0.5", "prior = 0.5, 0.6"))
        with pytest.raises(DistributionError):
            read_scenario(path)

    def test_general_channel_needs_rows(self, tmp_path):
        text = ERASURE_SPEC
        for row in ("yz_row_0 = 0.9, 0.1   # matrix rows in y order\n",
                    "yz_row_1 = 0.7, 0.3\n", "yz_row_2 = 0.2, 0.8\n"):
            text = text.replace(row, "")
        with pytest.raises(SpecFormatError, match="yz_row_0"):
            read_scenario(write(tmp_path, text))


class TestEstimatorFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        est = direct_solution(scenario_b().joint())
        path = tmp_path / "est.txt"
        write_estimator(path, est)
        back = read_estimator(path)
        for a, b in zip(est.rows, back.rows):
            assert tuple(a.probs) == tuple(b.probs)

    def test_undefined_rows_survive(self, tmp_path):
        est = ConditionalTable((Simplex([0.25, 0.75]), None))
        path = tmp_path / "est.txt"
        write_estimator(path, est)
        back = read_estimator(path)
        assert back.rows[1] is None
        assert tuple(back.rows[0].probs) == (0.25, 0.75)

    def test_rejects_unknown_keys(self, tmp_path):
        path = write(tmp_path, "row_0 = 0.5, 0.5\nseed = 3\n")
        with pytest.raises(SpecFormatError, match="seed"):
            read_estimator(path)

    def test_rejects_gap_in_rows(self, tmp_path):
        path = write(tmp_path, "row_0 = 0.5, 0.5\nrow_2 = 0.5, 0.5\n")
        with pytest.raises(SpecFormatError, match="contiguous"):
            read_estimator(path)

    def test_rejects_empty_file(self, tmp_path):
        path = write(tmp_path, "# nothing here\n")
        with pytest.raises(SpecFormatError, match="row_"):
            read_estimator(path)


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        _, ys, zs = sample_arrays(scenario_b().joint(), 0, 500)
        pairs = list(zip(ys.tolist(), zs.tolist()))
        path = tmp_path / "samples.csv"
        write_samples(path, pairs)
        assert read_samples(path) == pairs

    def test_write_takes_numpy_integers(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples(path, zip(np.array([1, 0]), np.array([0, 2])))
        assert path.read_text() == "y,z\n1,0\n0,2\n"

    @pytest.mark.parametrize("bad", [(0.9, 1.7), ("1", "0"), (1, 2, 0)])
    def test_failed_write_leaves_no_file(self, tmp_path, bad):
        # a pair that is not two integers is refused, not truncated, after
        # earlier rows were already written
        path = tmp_path / "samples.csv"
        with pytest.raises(DimensionError, match="pair of integers"):
            write_samples(path, [(0, 1), (1, 0), bad])
        assert not path.exists()

    def test_header_required(self, tmp_path):
        path = write(tmp_path, "z,y\n0,1\n", name="s.csv")
        with pytest.raises(SpecFormatError, match="s.csv:1"):
            read_samples(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = write(tmp_path, "y,z\n1,0\n\n2,1\n", name="s.csv")
        assert read_samples(path) == [(1, 0), (2, 1)]

    @pytest.mark.parametrize(
        "body", ["y,z\n1\n", "y,z\n1,2,3\n", "y,z\none,0\n", "y,z\n-1,0\n"]
    )
    def test_bad_rows_rejected(self, tmp_path, body):
        path = write(tmp_path, body, name="s.csv")
        with pytest.raises(SpecFormatError, match="s.csv:2"):
            read_samples(path)

    def test_empty_log_rejected(self, tmp_path):
        path = write(tmp_path, "y,z\n", name="s.csv")
        with pytest.raises(SpecFormatError, match="no samples"):
            read_samples(path)
