"""Command-line interface.

Five subcommands: ``example-a`` reproduces the cascade scenario's exact
solution and its internal consistency checks; ``example-b`` runs the
blind trainer on the erasure scenario and writes the trace;
``verify-theorems`` sweeps randomized joints through the two core
identities; ``train`` fits an estimator for a user-supplied scenario
spec from a sample file or a simulated stream; ``evaluate`` scores a
stored estimator against a scenario.

Exit codes: 0 when every advertised check passed, 1 when a check or
tolerance failed (the failing quantity is named in the output), 2 for
usage, format, or validation problems. All commands are deterministic
given their flags; the only timestamp lives in the trace-file header.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .channels import bec, build_joint, cascade, general_channel, to_matrix
from .errors import (
    ConvergenceError,
    RoleModelError,
    SpecFormatError,
    UndefinedConditionalError,
)
from .estimators import (
    check_theorem1,
    check_theorem2,
    direct_solution,
    expected_divergence_given_z,
    role_model_exact,
    role_model_numeric,
)
from .experiments import (
    Scenario,
    _free_param_index,
    random_joint,
    run_figure_traces,
    scenario_a,
    scenario_b,
)
from .probability import ConditionalTable, Simplex, entropy
from .specfiles import read_estimator, read_samples, read_scenario, write_estimator
from .training import RoleModelOracle, TrainerConfig, train_run


def _fmt_matrix(m) -> str:
    return "\n".join("  [" + "  ".join(f"{v:.6f}" for v in row) + "]" for row in m)


def _json_safe(value):
    """The payload with every non-finite float replaced by None (null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(args, text: str, payload: dict, out_path) -> None:
    """Print the report and write it; the file content is ready before
    the file is opened, so a failed open leaves nothing behind. JSON is
    strict (RFC 8259): inf and NaN are written as null."""
    body = json.dumps(_json_safe(payload), indent=2, allow_nan=False) if args.json else text
    print(body)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")


def _rows_list(est: ConditionalTable) -> list:
    return [row.tolist() if ok else None for row, ok in zip(est.p, est.defined)]


# -- example-a -------------------------------------------------------------


def cmd_example_a(args) -> int:
    sc = scenario_a()
    joint = sc.joint()
    compound = cascade(to_matrix(sc.xy_channel), to_matrix(sc.yz_channel))
    direct = direct_solution(joint)
    exact = role_model_exact(joint)
    try:
        numeric = role_model_numeric(joint)
    except ConvergenceError as exc:
        print(f"FAIL iterative solver did not converge: {exc}")
        return 1

    closed_form_err = 0.0
    h_third = entropy(Simplex([1 / 3, 2 / 3]))
    for q0 in np.linspace(0.02, 0.98, 50):
        want = (
            -(6 / 7) * h_third
            - (4 / 7) * math.log2(q0)
            - (3 / 7) * math.log2(1 - q0)
        )
        got = expected_divergence_given_z(joint, Simplex([q0, 1 - q0]), 0)
        closed_form_err = max(closed_form_err, abs(got - want))
    identity = check_theorem1(joint, exact)

    checks = [
        ("direct posterior q_0 = 4/7", abs(float(direct.row(0).probs[0]) - 4 / 7) <= 1e-12),
        ("direct posterior q_1 = 1", abs(float(direct.row(1).probs[1]) - 1.0) <= 1e-12),
        ("divergence minimizer equals direct posterior", exact.tv_distance(direct) <= 1e-12),
        ("iterative solver agrees", numeric.tv_distance(exact) <= 1e-6),
        ("closed-form objective matches (50 grid points)", closed_form_err <= 1e-12),
        ("divergence decomposition identity", identity.passed),
    ]
    all_pass = all(ok for _, ok in checks)

    lines = ["cascade scenario, exact solution", ""]
    lines.append("compound channel P(z|x):")
    lines.append(_fmt_matrix(compound.p))
    lines.append("")
    lines.append(f"posterior given z=0: {direct.row(0).probs[0]:.12f}, {direct.row(0).probs[1]:.12f}")
    lines.append(f"posterior given z=1: {direct.row(1).probs[0]:.12f}, {direct.row(1).probs[1]:.12f}")
    lines.append(f"minimizer rows (closed form): {_rows_list(exact)}")
    lines.append(f"minimizer rows (iterative):   {_rows_list(numeric)}")
    lines.append(f"closed-form objective max abs error: {closed_form_err:.3e}")
    lines.append(
        f"decomposition identity: lhs {identity.lhs:.12f}, rhs {identity.rhs:.12f}"
    )
    lines.append("")
    for name, ok in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
    text = "\n".join(lines)

    payload = {
        "scenario": sc.name,
        "compound_matrix": [[float(v) for v in row] for row in compound.p],
        "direct_posterior": _rows_list(direct),
        "exact_minimizer": _rows_list(exact),
        "numeric_minimizer": _rows_list(numeric),
        "closed_form_max_abs_error": closed_form_err,
        "identity": {"lhs": identity.lhs, "rhs": identity.rhs, "gap": identity.gap},
        "checks": [{"name": n, "passed": ok} for n, ok in checks],
        "passed": all_pass,
    }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = "example_a_report.json" if args.json else "example_a_report.txt"
    _emit(args, text, payload, out_dir / name)
    return 0 if all_pass else 1


# -- example-b -------------------------------------------------------------


def _scenario_b_with(delta, channel_rows) -> Scenario:
    if delta is None and channel_rows is None:
        return scenario_b()
    base = scenario_b()
    xy = bec(0.25 if delta is None else delta)
    yz = base.yz_channel if channel_rows is None else general_channel(channel_rows)
    joint = build_joint(base.prior, to_matrix(xy), to_matrix(yz))
    posterior = direct_solution(joint)
    if not posterior.defined.all():
        z = int(np.flatnonzero(~posterior.defined)[0])
        raise UndefinedConditionalError(
            f"z-symbol {z} has zero probability under this channel, so its "
            "exact posterior row is undefined"
        )
    return Scenario(
        name="example-b-custom",
        prior=base.prior,
        xy_channel=xy,
        yz_channel=yz,
        expected_posterior=posterior,
    )


def _parse_channel_rows(text: str):
    try:
        return [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise SpecFormatError(
            "bad --channel value; expected rows like '0.9,0.1;0.7,0.3;0.2,0.8'"
        ) from None


def cmd_example_b(args) -> int:
    if args.samples < args.start_step:
        print(
            f"usage error: --samples {args.samples} is below "
            f"--start-step {args.start_step}; nothing would be trained",
            file=sys.stderr,
        )
        return 2
    channel = None if args.channel is None else _parse_channel_rows(args.channel)
    sc = _scenario_b_with(args.delta, channel)
    config = _trainer_config(args, args.samples)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"example_b_seed{args.seed}_trace.csv"
    trace = run_figure_traces(sc, config, trace_path)

    # every free-parameter column of the trace against the same entry of
    # the exact posterior
    expected = sc.expected_posterior
    layout = _free_param_index(expected.n_given, expected.n_target)
    final_divergence, *final_params = trace.values[-1].tolist()
    got = dict(zip(layout, final_params))
    want = {name: float(expected.p.flat[i]) for name, i in layout.items()}
    err = {name: abs(got[name] - want[name]) for name in layout}
    ok = all(e <= args.tolerance for e in err.values())

    lines = [
        f"blind training on {sc.name}: seed {args.seed}, {args.samples} samples",
        f"trace written to {trace_path}",
        "",
        *(
            f"final {name} = {got[name]:.6f}   exact {want[name]:.6f}   error {err[name]:.6f}"
            for name in layout
        ),
        f"final windowed divergence = {final_divergence:.6f} bits",
        "",
        f"{'PASS' if ok else 'FAIL'} trained parameters within {args.tolerance} of the exact posterior",
    ]
    payload = {
        "scenario": sc.name,
        "seed": args.seed,
        "n_samples": args.samples,
        "trace_path": str(trace_path),
        "final": {**got, "divergence_bits": final_divergence},
        "exact": want,
        "errors": err,
        "tolerance": args.tolerance,
        "passed": ok,
    }
    name = f"example_b_seed{args.seed}_summary." + ("json" if args.json else "txt")
    _emit(args, "\n".join(lines), payload, out_dir / name)
    return 0 if ok else 1


# -- verify-theorems --------------------------------------------------------


def _parse_sizes(text: str) -> tuple:
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise SpecFormatError(f"bad --sizes value {text!r}; expected e.g. 2-5") from None
    if lo < 2 or hi < lo:
        raise SpecFormatError("--sizes must be an increasing range starting at 2 or more")
    return lo, hi


def _one_theorem_case(case_seed: int, lo: int, hi: int):
    """One randomized check of both identities: returns (ok, detail dict)."""
    size_rng = np.random.default_rng([case_seed, 0])
    nx, ny, nz = (int(size_rng.integers(lo, hi + 1)) for _ in range(3))
    est_rng = np.random.default_rng([case_seed, 1])
    cells = est_rng.uniform(0.05, 1.0, size=(nz, nx))
    est = ConditionalTable(cells / cells.sum(axis=1, keepdims=True))

    markov = random_joint(case_seed, nx, ny, nz, markov=True)
    ident = check_theorem1(markov, est)
    gap1 = abs(ident.gap)

    free = random_joint(case_seed, nx, ny, nz, markov=False)
    bound = check_theorem2(free, est)
    equality = check_theorem2(free, direct_solution(free))
    gap_eq = abs(equality.gap)

    ok = ident.passed and bound.passed and equality.passed and gap_eq <= 1e-9
    detail = {
        "seed": case_seed,
        "sizes": [nx, ny, nz],
        "identity_gap": ident.gap,
        "bound_lhs": bound.lhs,
        "bound_rhs": bound.rhs,
        "bound_margin": (
            bound.lhs - bound.rhs
            if math.isfinite(bound.lhs)
            else math.inf
        ),
        "equality_gap": equality.gap,
        "passed": ok,
    }
    return ok, gap1, detail


def cmd_verify_theorems(args) -> int:
    if args.replay is not None:
        ok, _, detail = _one_theorem_case(args.replay, *_parse_sizes(args.sizes))
        joint = random_joint(args.replay, *detail["sizes"], markov=True)
        lines = [
            f"replay of case seed {args.replay}",
            f"alphabet sizes (x, y, z): {detail['sizes']}",
            "markov joint cells:",
            _fmt_matrix(joint.p.reshape(joint.nx, -1)),
            f"identity gap:  {detail['identity_gap']:.3e}",
            f"bound lhs:     {detail['bound_lhs']:.12f}",
            f"bound rhs:     {detail['bound_rhs']:.12f}",
            f"equality gap:  {detail['equality_gap']:.3e}",
            f"{'PASS' if ok else 'FAIL'}",
        ]
        _emit(args, "\n".join(lines), detail, None)
        return 0 if ok else 1

    if args.trials < 1:
        print("usage error: --trials must be at least 1", file=sys.stderr)
        return 2
    lo, hi = _parse_sizes(args.sizes)
    failures = []
    worst_identity = 0.0
    worst_margin = math.inf
    for t in range(args.trials):
        case_seed = args.seed + t
        ok, gap1, detail = _one_theorem_case(case_seed, lo, hi)
        if math.isfinite(gap1):
            worst_identity = max(worst_identity, gap1)
        if math.isfinite(detail["bound_margin"]):
            worst_margin = min(worst_margin, detail["bound_margin"])
        if not ok:
            failures.append(detail)

    lines = [
        f"theorem sweeps: {args.trials} randomized cases, alphabets {lo}-{hi}",
        f"identity checks passed:  {args.trials - len(failures)}/{args.trials}",
        f"worst |identity gap|: {worst_identity:.3e}",
        f"smallest bound margin: {worst_margin:.3e}",
    ]
    for d in failures[:10]:
        lines.append(f"FAIL case seed {d['seed']} (replay with --replay {d['seed']})")
    lines.append("PASS all checks" if not failures else f"FAIL {len(failures)} cases")
    payload = {
        "trials": args.trials,
        "sizes": [lo, hi],
        "failures": failures,
        "worst_identity_gap": worst_identity,
        "smallest_bound_margin": worst_margin,
        "passed": not failures,
    }
    _emit(args, "\n".join(lines), payload, None)
    return 0 if not failures else 1


# -- train / evaluate --------------------------------------------------------


def cmd_train(args) -> int:
    sc = read_scenario(args.spec)
    joint = sc.joint()
    oracle = RoleModelOracle.from_joint(joint)
    try:
        n = int(args.samples)
        samples_path, source = None, joint
    except ValueError:
        samples_path = args.samples
        source = read_samples(samples_path)
        n = len(source)
    config = _trainer_config(args, n, init=ConditionalTable.uniform(joint.nz, joint.nx))
    state = train_run(source, config, oracle)
    est = state.est
    write_estimator(args.out, est)

    lines = [
        f"trained on {n} samples "
        + (f"from {samples_path}" if samples_path else f"simulated with seed {args.seed}"),
        f"estimator written to {args.out}",
    ]
    for z, row in enumerate(est.rows):
        lines.append(f"row_{z} = " + ", ".join(f"{v:.6f}" for v in row.probs))
    payload = {
        "n_samples": n,
        "source": samples_path or f"simulated(seed={args.seed})",
        "out": str(args.out),
        "estimator": _rows_list(est),
    }
    _emit(args, "\n".join(lines), payload, None)
    return 0


def cmd_evaluate(args) -> int:
    sc = read_scenario(args.spec)
    est = read_estimator(args.estimator)
    joint = sc.joint()
    report = check_theorem2(joint, est, tolerance=args.tolerance)
    gap = report.lhs - report.rhs if math.isfinite(report.lhs) else math.inf

    lines = [
        f"evaluating {args.estimator} against {sc.name}",
        f"expected divergence: {report.lhs:.12f} bits",
        f"lower bound:         {report.rhs:.12f} bits",
        f"gap:                 {gap:.12f} bits",
        f"{'PASS' if report.passed else 'FAIL'} divergence respects the bound",
    ]
    payload = {
        "scenario": sc.name,
        "estimator": str(args.estimator),
        "expected_divergence_bits": report.lhs,
        "bound_bits": report.rhs,
        "gap_bits": gap,
        "passed": report.passed,
    }
    _emit(args, "\n".join(lines), payload, None)
    return 0 if report.passed else 1


# -- parser -------------------------------------------------------------------


# argparse names a type function in its "invalid <name> value" message, so
# the two below raise ArgumentTypeError with a plain message on any bad text
def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below, like a typed-in nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and nonnegative, got {text!r}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1  # rejected below
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative and an integer, got {text!r}")
    return value


def _add_trainer_flags(sub, samples_help, samples_type):
    """The trainer flags, each defaulting to TrainerConfig's value and
    stored under its TrainerConfig field name (see _trainer_config)."""
    d = TrainerConfig(n_samples=1)
    sub.add_argument("--seed", type=int, default=d.seed, help="sampling seed")
    # a string default goes through samples_type like a typed-in value
    sub.add_argument("--samples", type=samples_type, default="200000", help=samples_help)
    sub.add_argument("--window", type=int, default=d.window, help="moving-average window")
    sub.add_argument("--start-step", type=int, default=d.start_step,
                     help="first sample index that triggers an update")
    sub.add_argument("--eta0", type=float, default=d.step_size_initial,
                     dest="step_size_initial", metavar="ETA0", help="initial step size")
    sub.add_argument("--tau", type=float, default=d.step_size_tau,
                     dest="step_size_tau", metavar="TAU",
                     help="step-size decay time constant, in updates")
    sub.add_argument("--epsilon", type=float, default=d.clamp_epsilon,
                     dest="clamp_epsilon", metavar="EPSILON",
                     help="clamp width keeping parameters off the simplex boundary")


def _trainer_config(args, n_samples: int, **extra) -> TrainerConfig:
    """TrainerConfig from the flags whose dests are its field names."""
    flags = {f.name: getattr(args, f.name) for f in fields(TrainerConfig) if hasattr(args, f.name)}
    return TrainerConfig(n_samples=n_samples, **flags, **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolemodel",
        description="Estimators that mimic a better-informed posterior: "
        "exact solutions, theorem sweeps, and blind online training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ea = sub.add_parser("example-a", help="exact solution of the cascade scenario")
    ea.add_argument("--out", default=".", help="directory for the report")
    ea.add_argument("--json", action="store_true", help="machine-readable output")
    ea.set_defaults(func=cmd_example_a)

    eb = sub.add_parser("example-b", help="blind training on the erasure scenario")
    _add_trainer_flags(eb, "number of samples to draw", int)
    eb.add_argument("--tolerance", type=_tolerance, default=0.02,
                    help="allowed distance from the exact posterior")
    eb.add_argument("--delta", type=float, default=None,
                    help="override the erasure rate")
    eb.add_argument("--channel", default=None,
                    help="override the y-to-z stage, rows like '0.9,0.1;0.7,0.3;0.2,0.8'")
    eb.add_argument("--out", default=".", help="directory for trace and summary")
    eb.add_argument("--json", action="store_true", help="machine-readable output")
    eb.set_defaults(func=cmd_example_b)

    vt = sub.add_parser("verify-theorems", help="randomized sweeps of the core identities")
    vt.add_argument("--trials", type=int, default=1000, help="number of random cases")
    vt.add_argument("--seed", type=_nonnegative_int, default=0,
                    help="base seed; case t uses seed+t")
    vt.add_argument("--sizes", default="2-5", help="alphabet size range, e.g. 2-5")
    vt.add_argument("--replay", type=_nonnegative_int, default=None,
                    help="rerun one case seed verbosely")
    vt.add_argument("--json", action="store_true", help="machine-readable output")
    vt.set_defaults(func=cmd_verify_theorems)

    tr = sub.add_parser("train", help="fit an estimator for a scenario spec")
    tr.add_argument("spec", help="scenario spec file")
    _add_trainer_flags(
        tr,
        "sample CSV with header y,z, or an integer count to simulate "
        "(default: simulate 200000)",
        str,
    )
    tr.add_argument("--out", default="trained_estimator.txt",
                    help="where to write the estimator table")
    tr.add_argument("--json", action="store_true", help="machine-readable output")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score a stored estimator against a scenario")
    ev.add_argument("spec", help="scenario spec file")
    ev.add_argument("estimator", help="estimator table file")
    ev.add_argument("--tolerance", type=_tolerance, default=1e-9,
                    help="slack allowed when checking the bound")
    ev.add_argument("--json", action="store_true", help="machine-readable output")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SpecFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 1
    except RoleModelError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
