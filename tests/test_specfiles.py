import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rolemodel import (
    ConditionalTable,
    Scenario,
    Simplex,
    bec,
    build_joint,
    direct_solution,
    general_channel,
    sample_arrays,
    scenario_b,
    to_matrix,
    z_channel,
)
from rolemodel import specfiles
from rolemodel.cli import main
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

    @pytest.mark.parametrize("name", ["a b", "x = y", "\u00a0nbsp\u2003", "tab\tinside"])
    def test_names_read_back_unchanged(self, tmp_path, name):
        path = tmp_path / "out.spec"
        write_scenario(path, dataclasses.replace(scenario_b(), name=name))
        assert read_scenario(path).name == name

    @pytest.mark.parametrize("name", ["", "a#b", " x", "x\t", "two\nlines", "cr\rhere", "\x0c"])
    def test_name_that_would_not_read_back_is_refused(self, tmp_path, name):
        path = tmp_path / "out.spec"
        with pytest.raises(SpecFormatError, match="cannot be written as a spec line"):
            write_scenario(path, dataclasses.replace(scenario_b(), name=name))
        assert not path.exists()

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


class TestFailedWrites:
    @pytest.mark.parametrize(
        "write_file, data",
        [(write_scenario, scenario_b()),
         (write_estimator, ConditionalTable((Simplex([0.25, 0.75]), None)))],
        ids=["scenario", "estimator"],
    )
    def test_failed_write_leaves_no_file(self, tmp_path, disk_full, write_file, data):
        disk_full(specfiles)
        path = tmp_path / "out.txt"
        with pytest.raises(OSError, match="No space left"):
            write_file(path, data)
        assert not path.exists()


# probabilities k / 2**20 summing to exactly 1, so that the constructors'
# renormalisation leaves them bit for bit as drawn
_GRID = 2**20


@st.composite
def _dyadic(draw, n):
    cuts = sorted(draw(st.lists(st.integers(0, _GRID), min_size=n - 1, max_size=n - 1)))
    return [(b - a) / _GRID for a, b in zip([0, *cuts], [*cuts, _GRID])]


@st.composite
def _channels(draw, n_in):
    """A channel spec from an alphabet of n_in symbols."""
    kinds = ["general"] + (["z_channel", "bec"] if n_in == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "z_channel":
        return z_channel(draw(_dyadic(2))[0])
    if kind == "bec":
        return bec(draw(_dyadic(2))[0])
    n_out = draw(st.integers(2, 4))
    return general_channel([draw(_dyadic(n_out)) for _ in range(n_in)])


# names without '#' or line breaks whose ends are not whitespace
_NAMES = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cc", "Zs", "Zl", "Zp"),
                  exclude_characters="#"),
    min_size=1, max_size=12,
).filter(lambda name: name == name.strip())


@st.composite
def _scenarios(draw):
    prior = Simplex(draw(_dyadic(draw(st.integers(2, 3)))))
    xy = draw(_channels(len(prior)))
    yz = draw(_channels(to_matrix(xy).n_target))
    joint = build_joint(prior, to_matrix(xy), to_matrix(yz))
    return Scenario(name=draw(_NAMES), prior=prior, xy_channel=xy, yz_channel=yz,
                    expected_posterior=direct_solution(joint))


@st.composite
def _estimators(draw):
    n_target = draw(st.integers(2, 4))
    rows = draw(st.lists(st.none() | _dyadic(n_target), min_size=1, max_size=5))
    rows[draw(st.integers(0, len(rows) - 1))] = draw(_dyadic(n_target))
    return ConditionalTable(rows)


def _write_drawn(path, which, data):
    """Write a drawn scenario or estimator; return the reader of the file."""
    if which == "scenario":
        write_scenario(path, data.draw(_scenarios(), label="scenario"))
        return read_scenario
    write_estimator(path, data.draw(_estimators(), label="estimator"))
    return read_estimator


def _rows(est):
    return [None if row is None else row.probs.tolist() for row in est.rows]


def _channel_bits(spec):
    return spec.kind, spec.crossover, spec.delta, to_matrix(spec).p.tolist()


# a line of either file corrupted as its writer never would: each makes
# the reader name the corrupted line
_CORRUPT = {
    "nbsp-padded": (lambda line: line + "\u00a0", "expected comma-separated reals"),
    "emsp-led": (lambda line: line.replace("= ", "= \u2003", 1), "expected comma-separated reals"),
    "underscore": (lambda line: line.replace("= ", "= 0_", 1), "expected comma-separated reals"),
    "missing-eq": (lambda line: line.replace("=", " ", 1), "expected key = value"),
}


class TestSpecFileProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sc=_scenarios())
    def test_scenario_round_trip(self, tmp_path_factory, sc):
        path = tmp_path_factory.mktemp("spec") / "s.spec"
        write_scenario(path, sc)
        back = read_scenario(path)
        assert back.name == sc.name
        assert back.prior.probs.tolist() == sc.prior.probs.tolist()
        for got, want in ((back.xy_channel, sc.xy_channel), (back.yz_channel, sc.yz_channel)):
            assert _channel_bits(got) == _channel_bits(want)
        assert back.expected_posterior.defined.tolist() == sc.expected_posterior.defined.tolist()
        again = path.with_name("again.spec")
        write_scenario(again, back)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(est=_estimators())
    def test_estimator_round_trip(self, tmp_path_factory, est):
        path = tmp_path_factory.mktemp("est") / "e.txt"
        write_estimator(path, est)
        back = read_estimator(path)
        assert _rows(back) == _rows(est)
        again = path.with_name("again.txt")
        write_estimator(again, back)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        which=st.sampled_from(["scenario", "estimator"]),
        corrupt=st.sampled_from(sorted(_CORRUPT)),
        data=st.data(),
    )
    def test_malformed_line_names_its_line(self, tmp_path_factory, which, corrupt, data):
        path = tmp_path_factory.mktemp("bad") / "f.txt"
        read = _write_drawn(path, which, data)
        lines = path.read_text(encoding="utf-8").splitlines()
        # a line of numbers: not the name, not a kind
        numeric = [i for i, line in enumerate(lines) if not line.startswith("name")
                   and "_kind" not in line and "undefined" not in line]
        at = data.draw(st.sampled_from(numeric), label="corrupted line")
        bad, message = _CORRUPT[corrupt]
        lines[at] = bad(lines[at])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SpecFormatError, match=f"^{re.escape(str(path))}:{at + 1}: {message}"):
            read(path)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(which=st.sampled_from(["scenario", "estimator"]), data=st.data())
    def test_repeated_key_names_the_later_line(self, tmp_path_factory, which, data):
        path = tmp_path_factory.mktemp("bad") / "f.txt"
        read = _write_drawn(path, which, data)
        lines = path.read_text(encoding="utf-8").splitlines()
        at = data.draw(st.integers(1, len(lines)), label="repeat at")
        key = lines[0].partition("=")[0].strip()
        lines.insert(at, data.draw(st.sampled_from([lines[0], f"{key} = 0.5"])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SpecFormatError,
                           match=f"^{re.escape(str(path))}:{at + 1}: duplicate key {key!r}"):
            read(path)


ESTIMATOR = "row_0 = 0.75, 0.25\nrow_1 = 0.25, 0.75\n"


class TestAsciiNumbers:
    @pytest.mark.parametrize(
        "old, new, which, lineno",
        [
            ("yz_row_2", "yz_row_\u00b2", "spec", 10),
            ("prior = 0.5, 0.5", "prior = 0.5, 0_0.5", "spec", 3),
            ("xy_delta = 0.25", "xy_delta = \uff10.25", "spec", 5),
            ("xy_delta = 0.25", "xy_delta = 0.25\u00a0", "spec", 5),
            ("row_1", "row_\u0661", "estimator", 2),
        ],
        ids=["superscript-row-key", "underscore-real", "fullwidth-real", "nbsp-padded-real",
             "arabic-indic-row-key"],
    )
    def test_evaluate_exits_2_naming_the_line(self, tmp_path, capsys, old, new, which, lineno):
        texts = {"spec": ERASURE_SPEC, "estimator": ESTIMATOR}
        assert old in texts[which]
        texts[which] = texts[which].replace(old, new)
        paths = {name: tmp_path / f"{name}.txt" for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text, encoding="utf-8")
        assert main(["evaluate", str(paths["spec"]), str(paths["estimator"])]) == 2
        assert capsys.readouterr().err.startswith(f"format error: {paths[which]}:{lineno}: ")


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
        # the header is line 1, stripped of ASCII whitespace only
        path = tmp_path / "s.csv"
        for head in ["z,y", "\u00a0y,z", "y,z\u2003", "y,\u00a0z", "\ny,z"]:
            path.write_text(f"{head}\n1,0\n", encoding="utf-8")
            with pytest.raises(SpecFormatError, match="s.csv:1: expected the header"):
                read_samples(path)

    def test_header_takes_ascii_spaces(self, tmp_path):
        path = write(tmp_path, " y , z\t\n1,0\n", name="s.csv")
        assert read_samples(path) == [(1, 0)]

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

    @pytest.mark.parametrize(
        "row", ["1_0,2", "\uff11, 0", "+1,0", "\u00b2,0", "1,0x1"],
        ids=["underscore", "fullwidth", "sign", "superscript", "hex"],
    )
    def test_symbols_are_ascii_digits(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"y,z\n{row}\n", encoding="utf-8")
        with pytest.raises(SpecFormatError, match="s.csv:2: symbol indices"):
            read_samples(path)

    def test_padded_symbols_accepted(self, tmp_path):
        path = write(tmp_path, "y,z\n 1 ,\t0\n", name="s.csv")
        assert read_samples(path) == [(1, 0)]

    def test_empty_log_rejected(self, tmp_path):
        path = write(tmp_path, "y,z\n", name="s.csv")
        with pytest.raises(SpecFormatError, match="no samples"):
            read_samples(path)


# rows read_samples refuses; the writer produces none of them
BAD_SAMPLE_ROWS = [
    "1", "1,2,3", ",", "1,", "one,0", "-1,0", "+1,0", "1.0,0", "1e3,0",
    "1_0,2", "\uff11,0", "\u00b2,0", "1,0x1", '"1",0', "1;0", "\u00a01,0", "1,0\u2003",
]

_PAIRS = st.lists(
    st.tuples(st.integers(0, 2**70), st.integers(0, 2**70)), min_size=1, max_size=40
)


class TestSampleFileProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pairs=_PAIRS)
    def test_round_trip(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("samples") / "s.csv"
        write_samples(path, pairs)
        back = read_samples(path)
        assert back == pairs
        assert all(type(v) is int for pair in back for v in pair)
        again = path.with_name("again.csv")
        write_samples(again, back)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        pairs=_PAIRS,
        pads=st.lists(st.sampled_from(["", " ", "\t", "  "]), min_size=4, max_size=4),
        blanks=st.lists(st.sampled_from(["", " ", "\t"]), max_size=5),
        data=st.data(),
    )
    def test_padding_and_blank_lines_read_alike(self, tmp_path_factory, pairs, pads, blanks, data):
        a, b, c, d = pads
        lines = [f"{a}{y}{b},{c}{z}{d}" for y, z in pairs]
        for blank in blanks:
            lines.insert(data.draw(st.integers(0, len(lines)), label="blank at"), blank)
        path = tmp_path_factory.mktemp("samples") / "s.csv"
        path.write_text("y,z\n" + "\n".join(lines) + "\n", encoding="utf-8")
        assert read_samples(path) == pairs

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pairs=_PAIRS, bad=st.sampled_from(BAD_SAMPLE_ROWS), data=st.data())
    def test_malformed_row_names_its_line(self, tmp_path_factory, pairs, bad, data):
        lines = [f"{y},{z}" for y, z in pairs]
        at = data.draw(st.integers(0, len(lines)), label="bad row at")
        lines.insert(at, bad)
        path = tmp_path_factory.mktemp("samples") / "s.csv"
        path.write_text("y,z\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SpecFormatError, match=f"^{re.escape(str(path))}:{at + 2}: "):
            read_samples(path)

    @pytest.mark.parametrize("bad", BAD_SAMPLE_ROWS)
    def test_train_exits_2_naming_the_line(self, tmp_path, capsys, bad):
        spec, samples = tmp_path / "erasure.spec", tmp_path / "log.csv"
        write_scenario(spec, scenario_b())
        write_samples(samples, [(0, 0), (1, 1), (2, 0)] * 100)
        lines = samples.read_text().splitlines()
        lines.insert(150, bad)  # line 151 of the file
        samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
        est = tmp_path / "est.txt"
        code = main(["train", str(spec), "--samples", str(samples), "--out", str(est)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"format error: {samples}:151: ")
        assert not est.exists()
