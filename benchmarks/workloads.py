"""The benchmark's four workloads.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned. A workload has four parts:

* ``prepare`` runs in the driving process before anything is timed. It
  writes the generated inputs (spec text, sample CSV) from the workload
  seed and returns their paths, so their digests can be recorded.
* ``setup`` runs in a fresh process and is timed as ``setup_s``: import
  ``rolemodel`` and build the fixed inputs through public functions.
* ``op`` is the timed unit of work. It reaches the package through
  module attributes at call time, so the traced run's wrappers see it.
* ``check`` verifies one op's output and returns failure messages.

``rolemodel`` is imported inside the functions, never at module level,
so that ``setup`` pays for the import.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

# blind-b: exactly the per-seed body of the blind-training acceptance gate
BLIND_B_SAMPLES = 200_000
BLIND_B_WINDOW = 100  # the CLI default, which the op does not override
BLIND_B_TOLERANCE = 0.05  # the gate's per-seed budget
SETTLE_BAND = 0.02  # samples_to_tol: both parameters within this of exact
SETTLE_SEEDS = 9  # samples_to_tol is the median over the first 9 op seeds

THEOREM_TRIALS = 400  # verify-theorems cases per op, at the CLI default sizes 2-5

EXACT_SIZE = 32  # nx = ny = nz for exact-wide
# joint pairs per exact-wide op: one pair takes ~32 ms, short enough that
# bursts of machine noise lasting a few ops set the tail; four average them
EXACT_PAIRS = 4
EXACT_TOLERANCE = 1e-9

SPEC_SAMPLES = 50_000  # y,z rows in the spec-nary sample CSV
SPEC_ROW_TV = 0.05  # every trained row within this TV distance of the direct solution


def _quiet(fn, *args):
    """Call fn with the CLI's report sent to a buffer, not the terminal."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Workload:
    name = ""
    work_unit = ""

    def prepare(self, seed, inputs: Path) -> dict:
        return {}


class BlindB(Workload):
    name = "blind-b"
    work_unit = "samples"

    def setup(self, inputs: Path):
        import rolemodel
        import rolemodel.cli

        scenario = rolemodel.scenario_b()
        scenario.oracle()
        exact = scenario.expected_posterior
        return {"q0": float(exact.row(0).probs[0]), "q1": float(exact.row(1).probs[1])}

    def work_per_op(self, ctx) -> int:
        return BLIND_B_SAMPLES

    def op(self, ctx, op_seed: int, scratch: Path):
        import rolemodel

        code = _quiet(
            rolemodel.cli.main,
            ["example-b", "--samples", str(BLIND_B_SAMPLES), "--seed", str(op_seed),
             "--tolerance", str(BLIND_B_TOLERANCE), "--out", str(scratch)],
        )
        trace = rolemodel.TraceFile.read(scratch / f"example_b_seed{op_seed}_trace.csv")
        return code, trace

    def check(self, ctx, op_seed: int, result):
        code, trace = result
        failures = []
        if code != 0:
            failures.append(f"example-b exited {code}")
        want_rows = BLIND_B_SAMPLES - BLIND_B_WINDOW + 1
        if len(trace.rows) != want_rows:
            failures.append(f"trace has {len(trace.rows)} rows, expected {want_rows}")
        _, _, q0, q1 = trace.rows[-1]
        err = max(abs(q0 - ctx["q0"]), abs(q1 - ctx["q1"]))
        if not err <= BLIND_B_TOLERANCE:
            failures.append(f"final q is {err:.4f} from the exact posterior (budget {BLIND_B_TOLERANCE})")
        settled = samples_to_tolerance(trace.rows, ctx["q0"], ctx["q1"], SETTLE_BAND, BLIND_B_SAMPLES)
        return failures, {"samples_to_tol": settled}


def samples_to_tolerance(rows, q0: float, q1: float, band: float, n_samples: int) -> int:
    """First trace step from which q_0 and q_1 stay within ``band`` of
    (q0, q1) to the end of the run; n_samples + 1 if the last step is
    outside the band."""
    settled = n_samples + 1
    for row in reversed(rows):
        if abs(row[2] - q0) > band or abs(row[3] - q1) > band:
            break
        settled = row[0]
    return settled


class TheoremSweep(Workload):
    name = "theorem-sweep"
    work_unit = "cases"

    def setup(self, inputs: Path):
        import rolemodel.cli  # noqa: F401

        return {}

    def work_per_op(self, ctx) -> int:
        return THEOREM_TRIALS

    def op(self, ctx, op_seed: int, scratch: Path):
        import rolemodel

        return _quiet(
            rolemodel.cli.main,
            ["verify-theorems", "--trials", str(THEOREM_TRIALS), "--seed", str(op_seed)],
        )

    def check(self, ctx, op_seed: int, code):
        return ([] if code == 0 else [f"verify-theorems exited {code}"]), {}


class ExactWide(Workload):
    name = "exact-wide"
    work_unit = "joint pairs"

    def setup(self, inputs: Path):
        import rolemodel  # noqa: F401

        return {}

    def work_per_op(self, ctx) -> int:
        return EXACT_PAIRS

    def op(self, ctx, op_seed: int, scratch: Path):
        import rolemodel as rm

        n = EXACT_SIZE
        results = []
        for seed in range(op_seed, op_seed + EXACT_PAIRS):
            markov = rm.random_joint(seed, n, n, n, markov=True)
            free = rm.random_joint(seed, n, n, n, markov=False)
            exact = rm.role_model_exact(markov)
            direct = rm.direct_solution(markov)
            report = rm.expected_divergence(markov, exact)
            identity = rm.check_theorem1(markov, exact)
            bound = rm.check_theorem2(free, rm.direct_solution(free))
            results.append((seed, exact, direct, report, identity, bound))
        return results

    def check(self, ctx, op_seed: int, results):
        failures = []
        for seed, exact, direct, report, identity, bound in results:
            tv = exact.tv_distance(direct)
            if not tv <= EXACT_TOLERANCE:
                failures.append(f"pair seed {seed}: TV(exact, direct) = {tv:.3e}")
            if not math.isfinite(report.total):
                failures.append(f"pair seed {seed}: expected divergence is {report.total}")
            for label, check in (("theorem 1", identity), ("theorem 2", bound)):
                if not (check.passed and abs(check.gap) <= EXACT_TOLERANCE):
                    failures.append(f"pair seed {seed}: {label} gap {check.gap:.3e}")
        return failures, {}


class SpecNary(Workload):
    name = "spec-nary"
    work_unit = "samples"

    def scenario(self):
        """A fixed ternary-source 3x4x3 scenario whose optimum keeps every
        entry well inside the trainer's clamp."""
        import rolemodel as rm
        from rolemodel.experiments import Scenario

        prior = rm.Simplex([0.5, 0.3, 0.2])
        xy = rm.general_channel(
            [[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1], [0.1, 0.1, 0.4, 0.4]]
        )
        yz = rm.general_channel(
            [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.3, 0.3, 0.4]]
        )
        joint = rm.build_joint(prior, rm.to_matrix(xy), rm.to_matrix(yz))
        return Scenario("bench-ternary", prior, xy, yz, rm.direct_solution(joint))

    def prepare(self, seed, inputs: Path) -> dict:
        import rolemodel as rm
        from rolemodel.specfiles import write_samples, write_scenario

        scenario = self.scenario()
        spec = inputs / "ternary.spec"
        samples = inputs / "samples.csv"
        write_scenario(spec, scenario)
        _, ys, zs = rm.sample_arrays(scenario.joint(), seed, SPEC_SAMPLES)
        write_samples(samples, zip(ys.tolist(), zs.tolist()))
        return {"spec": spec, "samples": samples}

    def setup(self, inputs: Path):
        import rolemodel
        import rolemodel.cli  # noqa: F401
        from rolemodel.specfiles import read_scenario

        spec = inputs / "ternary.spec"
        scenario = read_scenario(spec)
        rolemodel.RoleModelOracle.from_joint(scenario.joint())
        return {
            "spec": str(spec),
            "samples": str(inputs / "samples.csv"),
            "direct": scenario.expected_posterior,
        }

    def work_per_op(self, ctx) -> int:
        return SPEC_SAMPLES

    def op(self, ctx, op_seed: int, scratch: Path):
        import rolemodel

        est = str(scratch / "trained_estimator.txt")
        trained = _quiet(
            rolemodel.cli.main, ["train", ctx["spec"], "--samples", ctx["samples"], "--out", est]
        )
        evaluated = _quiet(rolemodel.cli.main, ["evaluate", ctx["spec"], est])
        return trained, evaluated, est

    def check(self, ctx, op_seed: int, result):
        from rolemodel.specfiles import read_estimator

        trained, evaluated, est = result
        if trained != 0:
            return [f"train exited {trained}"], {}
        failures = [] if evaluated == 0 else [f"evaluate exited {evaluated}"]
        table = read_estimator(est)
        for z, (got, want) in enumerate(zip(table.rows, ctx["direct"].rows)):
            tv = got.tv_distance(want)
            if not tv <= SPEC_ROW_TV:
                failures.append(f"trained row {z} is {tv:.4f} TV from the direct solution")
        return failures, {}


WORKLOADS = {w.name: w for w in (BlindB(), TheoremSweep(), ExactWide(), SpecNary())}
