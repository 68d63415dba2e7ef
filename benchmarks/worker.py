"""Run one workload in a fresh process and write the measurements as JSON.

Started by run.py, never by hand. With ``--setup-only`` it times the
workload's set-up (the import of ``rolemodel`` included) and exits.
Otherwise it sets up, runs untimed warm-up ops for WARMUP_S, then a
closed loop of ops for ``--seconds``. With ``--trace 1`` the loop
alternates an untraced op and a traced op on the same op seed, so the
tracing overhead is the difference of their medians under the same
conditions.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import layers
from tracer import Tracer, calibrate, self_time_total
from workloads import SETTLE_SEEDS, WORKLOADS

WARMUP_S = 2.0  # untimed ops before the measured loop, at least one


def _timed(workload, ctx, op_seed, scratch, tracer, index):
    """One op: (wall seconds, result, (stats, counters) or None)."""
    if tracer is None:
        t0 = time.perf_counter()
        result = workload.op(ctx, op_seed, scratch)
        return time.perf_counter() - t0, result, None
    layers.install(tracer)
    try:
        t0 = time.perf_counter()
        frame = tracer.begin_op(index)
        try:
            result = workload.op(ctx, op_seed, scratch)
        finally:
            tracer.end_op(frame)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return wall, result, (tracer.stats, tracer.counters)


def _run_op(workload, ctx, op_seed, scratch, failures, index, tracer=None):
    """Run and check one op. Returns (wall, check extras, per-layer
    metrics); wall is None when the op raised."""
    scratch.mkdir(parents=True, exist_ok=True)
    wall, extras, metrics = None, {}, None
    try:
        wall, result, traced = _timed(workload, ctx, op_seed, scratch, tracer, index)
        problems, extras = workload.check(ctx, op_seed, result)
        del result
        if traced is not None:
            covered = self_time_total(traced[0])
            if covered > wall + 1e-9:
                problems.append(f"self times sum to {covered:.6f} s, above the op wall {wall:.6f} s")
            metrics = layers.op_metrics(*traced)
    except Exception as exc:  # an op that raises counts as failed, and the loop goes on
        problems = [f"raised {type(exc).__name__}: {exc}"]
    shutil.rmtree(scratch, ignore_errors=True)
    label = "traced op" if tracer is not None else "op"
    if problems:  # one entry per failed op
        failures.append(f"{label} {index} seed {op_seed}: " + "; ".join(problems))
    return wall, extras, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    ctx = workload.setup(args.inputs)
    setup_s = time.perf_counter() - t0

    import numpy
    import rolemodel

    origin = Path(rolemodel.__file__).resolve()
    if args.src.resolve() not in origin.parents:
        print(f"error: rolemodel was imported from {origin}, not {args.src}", file=sys.stderr)
        return 2
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    seeds = [int(s) for s in (args.inputs / "op_seeds.txt").read_text().split()]
    scratch = args.inputs.parent / "ops"
    tracer = Tracer() if args.trace else None
    calibration_ns = calibrate() if args.trace else None
    failures = []
    op_s, traced_op_s, layer_rows, extras_rows = [], [], [], []

    # warm-up: the first ops after set-up run slow while caches fill and
    # lazy set-up finishes; they are checked, not timed
    index = 0
    start = time.perf_counter()
    while index == 0 or time.perf_counter() - start < WARMUP_S:
        _, extras, _ = _run_op(workload, ctx, seeds[index], scratch, failures, index)
        extras_rows.append(extras)
        index += 1
    attempted = index

    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds and index < len(seeds):
        op_seed = seeds[index]
        wall, extras, _ = _run_op(workload, ctx, op_seed, scratch, failures, index)
        attempted += 1
        extras_rows.append(extras)
        if wall is not None:
            op_s.append(wall)
        if tracer is not None:
            wall, _, metrics = _run_op(workload, ctx, op_seed, scratch, failures, index, tracer)
            attempted += 1
            if metrics is not None:
                traced_op_s.append(wall)
                layer_rows.append(metrics)
        index += 1

    out = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failures": failures,
        "op_s": op_s,
        "work_per_op": workload.work_per_op(ctx),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    settled = [e["samples_to_tol"] for e in extras_rows[:SETTLE_SEEDS] if "samples_to_tol" in e]
    if settled:
        out["samples_to_tol"] = median(settled)
        out["samples_to_tol_seeds"] = len(settled)
    if tracer is not None and layer_rows and op_s:
        layer = {name: median([row[name] for row in layer_rows]) for name in layer_rows[0]}
        layer["trace.overhead_s"] = median(traced_op_s) - median(op_s)
        layer["trace.wrapper_ns_per_call"] = calibration_ns
        out["per_layer"] = layer
        out["traced_op_s_p50"] = median(traced_op_s)
        out["traced_ops"] = len(traced_op_s)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                for op, span_id, name, start, end, parent in tracer.spans:
                    fh.write(json.dumps({"op": op, "id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
