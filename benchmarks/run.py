"""rolemodel benchmark: one workload per call, or all four with ``--workload all``.

    python3 benchmarks/run.py --workload blind-b --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from
``src/``, with no install. It makes the workload's inputs from
``--seed``, times set-up in fresh processes, then runs the workload in
a worker process of its own for ``--seconds``. It prints the
environment, the sha256 of every generated input, one line per failed
check and one line per metric, and as its last line one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. It exits 1 when any check failed, 2 on a usage problem.
Scratch files live under ``.bench_run/`` and are removed at exit; the
traced run's spans are written to ``.bench_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

from layers import PER_LAYER
from summary import op_seeds, sha256_file, sha256_seeds, tail
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9  # fresh processes whose median set-up time is setup_s
MAX_OPS = 20_000  # op seeds generated per run; no workload gets near this
WORKER_TIMEOUT_S = 150

# end-to-end metrics as BENCHMARK.json lists them: (name, unit). op_s_tail
# is printed but not listed: on a shared machine the slowest ops are set by
# bursts of outside load, not by the program, so it is too noisy to gate on.
END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(src)
    return env


def _worker(args_list, env, timeout):
    cmd = [sys.executable, str(HERE / "worker.py")] + args_list
    # the worker's stdout goes to our stderr, so our last stdout line stays the result
    return subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout).returncode


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    src = root / "src"
    sys.path.insert(0, str(src))
    base = root / ".bench_run"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        inputs.mkdir(parents=True)
        seeds = op_seeds(args.seed, MAX_OPS)
        (inputs / "op_seeds.txt").write_text("\n".join(map(str, seeds)) + "\n")
        digests = {"op_seeds": sha256_seeds(seeds)}
        for key, path in workload.prepare(args.seed, inputs).items():
            digests[key] = sha256_file(path)

        env = _child_env(src)
        common = ["--workload", args.workload, "--inputs", str(inputs), "--src", str(src)]
        load_before = os.getloadavg()
        probes = []
        for k in range(SETUP_PROBES):
            out = work / f"setup{k}.json"
            code = _worker(common + ["--setup-only", "--out", str(out)], env, 60)
            if code != 0:
                print(f"error: set-up probe exited {code}", file=sys.stderr)
                return 1
            probes.append(json.loads(out.read_text())["setup_s"])

        out = work / "result.json"
        run_args = common + ["--out", str(out), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]
        spans = None
        if args.trace:
            spans = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            run_args += ["--spans", str(spans)]
        code = _worker(run_args, env, args.seconds + WORKER_TIMEOUT_S)
        load_after = os.getloadavg()
        if code != 0 or not out.is_file():
            print(f"error: worker exited {code}", file=sys.stderr)
            return 1
        res = json.loads(out.read_text())
        if not res["op_s"] or (args.trace and "per_layer" not in res):
            print("error: no op completed; " + "; ".join(res["failures"][:3]), file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: worker timed out after {exc.timeout} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()

    env_info = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "loadavg_before": [round(v, 2) for v in load_before],
        "loadavg_after": [round(v, 2) for v in load_after],
        "pinned": {v: os.environ[v] for v in
                   ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "PYTHONHASHSEED": "0",
    }
    print(f"rolemodel benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("env " + json.dumps(env_info))
    print("inputs sha256 " + json.dumps(digests))
    for line in res["failures"]:
        print(f"FAIL {args.workload} {line}")

    failed = len(res["failures"])
    attempted = res["attempted"]
    op_s = res["op_s"]
    if args.trace:
        layer = res["per_layer"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
        print(f"traced ops {res['traced_ops']}, traced op_s_p50 {_fmt(res['traced_op_s_p50'])} s, "
              f"untraced op_s_p50 {_fmt(median(op_s))} s; spans in {spans}")
        for name, unit, _ in PER_LAYER:
            print(f"metric {name:<46} {_fmt(layer[name]):>12} {unit}")
    else:
        pct, tail_s, beyond = tail(op_s)
        per_s = res["work_per_op"] * len(op_s) / sum(op_s)
        values = {
            "setup_s": median(probes),
            "op_s_p50": median(op_s),
            "work_per_s": per_s,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        unit = workload.work_unit
        report = [
            ("setup_s", values["setup_s"], "s", f"median of {len(probes)} fresh processes"),
            ("op_s_p50", values["op_s_p50"], "s", f"{len(op_s)} ops"),
            ("op_s_tail", tail_s, "s", f"p{pct} of {len(op_s)} ops, {beyond} beyond"),
            ("samples_per_s", per_s if unit == "samples" else "n/a", "samples/s", ""),
            ("cases_per_s", per_s if unit != "samples" else "n/a", f"{unit}/s", ""),
            ("peak_rss_mb", values["peak_rss_mb"], "MB", "worker process"),
            ("samples_to_tol", res.get("samples_to_tol", "n/a"), "samples",
             f"median over {res.get('samples_to_tol_seeds', 0)} op seeds"),
            ("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted} ops"),
        ]
        for name, value, unit_name, note in report:
            print(f"metric {name:<14} {_fmt(value):>12} {unit_name:<12} {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a process of its own, then one summary."""
    results = {}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    if set(results) != set(WORKLOADS):
        return max(worst, 1)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the rolemodel CLI and library.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=int, default=25, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    root = Path.cwd()
    if not (root / "src" / "rolemodel" / "__init__.py").is_file():
        print("error: no src/rolemodel here; run from the root of a rolemodel checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
