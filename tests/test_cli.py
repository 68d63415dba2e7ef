import json

import pytest

from rolemodel import TraceFile, bec, build_joint, cli, general_channel, scenario_b, to_matrix
from rolemodel.cli import _trainer_config, build_parser, main
from rolemodel.specfiles import write_estimator, write_samples, write_scenario
from rolemodel.estimators import direct_solution
from rolemodel.channels import sample_arrays
from rolemodel.training import TrainerConfig


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "erasure.spec"
    write_scenario(path, scenario_b())
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr()


class TestExampleA:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        code, captured = run(capsys, "example-a", "--out", tmp_path)
        assert code == 0
        assert "PASS direct posterior q_0 = 4/7" in captured.out
        report = (tmp_path / "example_a_report.txt").read_text()
        assert report.strip() == captured.out.strip()

    def test_json_report_carries_the_numbers(self, tmp_path, capsys):
        code, captured = run(capsys, "example-a", "--out", tmp_path, "--json")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["passed"] is True
        assert payload["direct_posterior"][0][0] == pytest.approx(4 / 7, abs=1e-15)
        assert payload["direct_posterior"][1] == [0.0, 1.0]
        assert payload["compound_matrix"] == [[1.0, 0.0], [0.75, 0.25]]
        assert abs(payload["identity"]["gap"]) <= 1e-9
        on_disk = json.loads((tmp_path / "example_a_report.json").read_text())
        assert on_disk == payload

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_failed_report_write_leaves_no_file(self, tmp_path, capsys, disk_full, json_flag):
        disk_full(cli)
        code, captured = run(capsys, "example-a", "--out", tmp_path, *json_flag)
        assert code == 1
        assert "i/o failure" in captured.err and "No space left" in captured.err
        assert not list(tmp_path.iterdir())

    def test_unwritable_out_dir_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, captured = run(capsys, "example-a", "--out", blocker / "nested")
        assert code == 1
        assert "i/o failure" in captured.err


class TestExampleB:
    def test_short_run_plumbing(self, tmp_path, capsys):
        code, captured = run(
            capsys, "example-b", "--out", tmp_path, "--seed", 5,
            "--samples", 3000, "--tolerance", 0.5,
        )
        assert code == 0
        trace_path = tmp_path / "example_b_seed5_trace.csv"
        assert trace_path.exists()
        trace = TraceFile.read(trace_path)
        assert len(trace.rows) == 3000 - 100 + 1
        assert "final q_0" in captured.out
        assert (tmp_path / "example_b_seed5_summary.txt").exists()

    def test_tolerance_miss_prints_both_values(self, tmp_path, capsys):
        code, captured = run(
            capsys, "example-b", "--out", tmp_path, "--samples", 3000,
            "--tolerance", 1e-6,
        )
        assert code == 1
        assert "FAIL" in captured.out
        assert "exact 0.723404" in captured.out
        assert "exact 0.818182" in captured.out

    def test_sample_budget_below_start_step_is_usage_error(self, tmp_path, capsys):
        code, captured = run(capsys, "example-b", "--out", tmp_path, "--samples", 50)
        assert code == 2
        assert "usage error" in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [("--eta0", "nan"), ("--tau", "inf"), ("--epsilon", "nan"),
         ("--tolerance", "nan"), ("--tolerance", "inf"), ("--tolerance", "-0.1")],
    )
    def test_non_finite_or_negative_numbers_are_usage_errors(
        self, tmp_path, capsys, flag, value
    ):
        code, _ = run(
            capsys, "example-b", "--out", tmp_path, "--samples", 300, flag, value
        )
        assert code == 2
        assert not list(tmp_path.iterdir())

    def test_channel_override(self, tmp_path, capsys):
        code, captured = run(
            capsys, "example-b", "--out", tmp_path, "--samples", 3000,
            "--tolerance", 0.5, "--delta", 0.4,
            "--channel", "0.8,0.2;0.5,0.5;0.1,0.9", "--json",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["scenario"] == "example-b-custom"

    def test_three_output_channel_checks_every_row(self, tmp_path, capsys):
        # three z-symbols give trace columns q_<z>_0, one per estimator row
        rows = [[0.5, 0.4, 0.1], [0.3, 0.4, 0.3], [0.1, 0.1, 0.8]]
        code, captured = run(
            capsys, "example-b", "--out", tmp_path, "--samples", 60000,
            "--seed", 1, "--tolerance", 0.05, "--json",
            "--channel", ";".join(",".join(map(str, r)) for r in rows),
        )
        payload = json.loads(captured.out)
        joint = build_joint(
            scenario_b().prior, to_matrix(bec(0.25)), to_matrix(general_channel(rows))
        )
        posterior = direct_solution(joint).p
        assert payload["exact"] == {f"q_{z}_0": posterior[z, 0] for z in range(3)}
        assert list(payload["final"]) == ["q_0_0", "q_1_0", "q_2_0", "divergence_bits"]
        assert payload["passed"] and code == 0

    def test_channel_that_never_emits_a_z_symbol_is_invalid(self, tmp_path, capsys):
        # every y maps to z = 0, so the exact posterior given z = 1 is undefined
        code, captured = run(
            capsys, "example-b", "--out", tmp_path, "--samples", 2000,
            "--channel", "1,0;1,0;1,0", "--json",
        )
        assert code == 2
        assert "invalid input" in captured.err
        assert "z-symbol 1" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_bad_channel_override(self, tmp_path, capsys):
        # the numbers of a spec's yz_row_<i> line: float() alone reads the
        # first row of the last two as 0.9, 0.1
        for channel in ["0.8,zz", "0_0.9,0.1;0.7,0.3;0.2,0.8",
                        "\u0660.\u0669,0.1;0.7,0.3;0.2,0.8"]:
            code, captured = run(
                capsys, "example-b", "--out", tmp_path, "--samples", 2000, "--channel", channel
            )
            assert code == 2, channel
            assert "format error: bad --channel value" in captured.err
            assert not list(tmp_path.iterdir())

    def test_empty_channel_is_format_error_not_the_default(self, tmp_path, capsys):
        code, captured = run(capsys, "example-b", "--out", tmp_path, "--channel", "")
        assert code == 2
        assert "format error" in captured.err
        assert captured.out == ""


class TestVerifyTheorems:
    def test_sweep_passes(self, capsys):
        code, captured = run(capsys, "verify-theorems", "--trials", 25)
        assert code == 0
        assert "25/25" in captured.out
        assert "PASS all checks" in captured.out

    def test_json_sweep(self, capsys):
        code, captured = run(
            capsys, "verify-theorems", "--trials", 10, "--sizes", "2-3", "--json"
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["passed"] is True
        assert payload["worst_identity_gap"] <= 1e-9

    def test_replay_is_verbose(self, capsys):
        code, captured = run(capsys, "verify-theorems", "--replay", 7)
        assert code == 0
        assert "identity gap" in captured.out
        assert "joint cells" in captured.out

    def test_zero_trials_usage_error(self, capsys):
        code, captured = run(capsys, "verify-theorems", "--trials", 0)
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [("--seed", -1, "--trials", 2), ("--replay", -3)]
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        code, captured = run(capsys, "verify-theorems", *argv)
        assert code == 2
        assert "must be nonnegative" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["--seed", "--replay"])
    def test_non_integer_seed_names_the_flag(self, capsys, flag):
        code, captured = run(capsys, "verify-theorems", flag, "x")
        assert code == 2
        assert f"argument {flag}: must be nonnegative and an integer, got 'x'" in captured.err
        assert "_nonnegative_int" not in captured.err

    def test_bad_sizes(self, capsys):
        code, captured = run(capsys, "verify-theorems", "--sizes", "five")
        assert code == 2
        assert "format error" in captured.err

    # Arabic-Indic and fullwidth digits, and a digit group
    @pytest.mark.parametrize("sizes", ["\u0662-\u0663", "2-\uff13", "2-1_0"])
    def test_sizes_are_ascii_digits(self, capsys, sizes):
        code, captured = run(capsys, "verify-theorems", "--trials", 3, "--sizes", sizes)
        assert code == 2
        assert f"bad --sizes value {sizes!r}" in captured.err


class TestTrainEvaluate:
    def test_train_simulated_then_evaluate(self, tmp_path, spec_path, capsys):
        est_path = tmp_path / "est.txt"
        code, captured = run(
            capsys, "train", spec_path, "--samples", 50_000, "--seed", 3,
            "--out", est_path,
        )
        assert code == 0
        assert est_path.exists()
        code, captured = run(capsys, "evaluate", spec_path, est_path, "--json")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["gap_bits"] >= 0.0
        assert payload["gap_bits"] <= 0.01

    def test_train_from_sample_file(self, tmp_path, spec_path, capsys):
        _, ys, zs = sample_arrays(scenario_b().joint(), 9, 5000)
        samples = tmp_path / "log.csv"
        write_samples(samples, list(zip(ys.tolist(), zs.tolist())))
        est_path = tmp_path / "est.txt"
        code, captured = run(
            capsys, "train", spec_path, "--samples", samples, "--out", est_path
        )
        assert code == 0
        assert f"from {samples}" in captured.out
        assert est_path.exists()

    @pytest.mark.parametrize("samples", ["1_000", "\u0661\u0660\u0660\u0660", "+1000"])
    def test_train_count_is_ascii_digits(self, tmp_path, spec_path, capsys, monkeypatch, samples):
        # any other text names a sample file, and a missing one is an i/o failure
        monkeypatch.chdir(tmp_path)
        est_path = tmp_path / "est.txt"
        code, captured = run(capsys, "train", spec_path, "--samples", samples, "--out", est_path)
        assert code == 1
        assert "i/o failure" in captured.err and samples in captured.err
        assert not est_path.exists()
        write_samples(tmp_path / samples, [(0, 0), (1, 1), (2, 1)] * 200)
        code, captured = run(capsys, "train", spec_path, "--samples", samples, "--out", est_path)
        assert code == 0
        assert f"trained on 600 samples from {samples}" in captured.out

    def test_train_alphabet_mismatch(self, tmp_path, spec_path, capsys):
        samples = tmp_path / "log.csv"
        write_samples(samples, [(0, 0), (1, 1), (2, 9)] * 200)
        code, captured = run(capsys, "train", spec_path, "--samples", samples)
        assert code == 2
        assert "invalid input" in captured.err

    def test_train_empty_sample_file(self, tmp_path, spec_path, capsys):
        samples = tmp_path / "log.csv"
        samples.write_text("y,z\n")
        est_path = tmp_path / "est.txt"
        code, captured = run(
            capsys, "train", spec_path, "--samples", samples, "--out", est_path
        )
        assert code == 2
        assert not est_path.exists()

    def test_evaluate_direct_solution_attains_bound(self, tmp_path, spec_path, capsys):
        est_path = tmp_path / "direct.txt"
        write_estimator(est_path, direct_solution(scenario_b().joint()))
        code, captured = run(capsys, "evaluate", spec_path, est_path, "--json")
        assert code == 0
        payload = json.loads(captured.out)
        assert abs(payload["gap_bits"]) <= 1e-9

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_evaluate_bad_tolerance_is_usage_error(
        self, tmp_path, spec_path, capsys, value
    ):
        est_path = tmp_path / "direct.txt"
        write_estimator(est_path, direct_solution(scenario_b().joint()))
        code, _ = run(capsys, "evaluate", spec_path, est_path, "--tolerance", value)
        assert code == 2

    def test_unparsable_tolerance_names_the_flag(self, tmp_path, spec_path, capsys):
        code, captured = run(
            capsys, "evaluate", spec_path, tmp_path / "e.txt", "--tolerance", "abc"
        )
        assert code == 2
        assert "argument --tolerance: tolerance must be finite and nonnegative" in captured.err
        assert "_tolerance" not in captured.err

    def test_evaluate_json_is_strict_when_divergence_is_infinite(
        self, tmp_path, spec_path, capsys
    ):
        # row 0 starves x = 1, which the erasure posterior needs: divergence +inf
        est_path = tmp_path / "z.txt"
        est_path.write_text("row_0 = 1.0, 0.0\nrow_1 = 0.5, 0.5\n")
        code, captured = run(capsys, "evaluate", spec_path, est_path, "--json")

        def no_constants(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        payload = json.loads(captured.out, parse_constant=no_constants)
        assert payload["expected_divergence_bits"] is None
        assert payload["gap_bits"] is None
        assert payload["bound_bits"] > 0.0
        assert code == 0
        code, captured = run(capsys, "evaluate", spec_path, est_path)
        assert "expected divergence: inf bits" in captured.out

    def test_evaluate_missing_file(self, tmp_path, spec_path, capsys):
        code, captured = run(capsys, "evaluate", spec_path, tmp_path / "nope.txt")
        assert code == 1
        assert "i/o failure" in captured.err

    def test_non_utf8_spec_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_bytes(b"name = caf\xe9\nprior = 0.5, 0.5\n")
        code, captured = run(capsys, "train", bad)
        assert code == 2
        assert "format error" in captured.err
        assert "bad.spec: not UTF-8" in captured.err

    def test_non_ascii_digit_samples_are_format_error(self, tmp_path, spec_path, capsys):
        samples = tmp_path / "log.csv"
        samples.write_text("y,z\n0,1\n1_0,0\n", encoding="utf-8")
        est_path = tmp_path / "est.txt"
        code, captured = run(
            capsys, "train", spec_path, "--samples", samples, "--out", est_path
        )
        assert code == 2
        assert "log.csv:3: symbol indices" in captured.err
        assert not est_path.exists()

    def test_non_utf8_samples_are_format_error(self, tmp_path, spec_path, capsys):
        samples = tmp_path / "log.csv"
        samples.write_bytes(b"y,z\n0,1\n\xff,0\n")
        est_path = tmp_path / "est.txt"
        code, captured = run(
            capsys, "train", spec_path, "--samples", samples, "--out", est_path
        )
        assert code == 2
        assert "log.csv: not UTF-8" in captured.err
        assert not est_path.exists()

    def test_malformed_spec_gives_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("prior = 0.5, 0.5\nnot a key value line\n")
        code, captured = run(capsys, "train", bad)
        assert code == 2
        assert "bad.spec:2" in captured.err


class TestParser:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    # example-b's --samples is an int; train's may also be a sample-file path
    @pytest.mark.parametrize(
        "argv, samples", [(["example-b"], 200_000), (["train", "some.spec"], "200000")]
    )
    def test_trainer_defaults_are_trainer_configs(self, argv, samples):
        args = build_parser().parse_args(argv)
        assert args.samples == samples
        want = TrainerConfig(n_samples=200_000)
        for name in ("seed", "window", "start_step", "step_size_initial",
                     "step_size_tau", "clamp_epsilon"):
            assert getattr(args, name) == getattr(want, name)
        assert _trainer_config(args, int(args.samples)) == want
