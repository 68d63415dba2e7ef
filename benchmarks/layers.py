"""What the traced run wraps, and how per-layer metrics are derived.

The layers are the package's modules. ``install`` wraps their public
functions on a Tracer; ``op_metrics`` turns one op's aggregates and
counters into the per-layer metrics of PER_LAYER. Metrics of a layer
an op never entered are 0. Run-level metrics (the tracing overhead)
are filled in by the worker.
"""

from __future__ import annotations

import os
import sys

from tracer import BOOKKEEPING

# (name, unit, better); the order is the report order
PER_LAYER = (
    ("channels.sample_arrays.s", "s", "lower"),
    ("training.train_run.self_s", "s", "lower"),
    ("training.train_step.self_us_per_call", "us", "lower"),
    ("training.trace_record.us_per_step", "us", "lower"),
    ("training.steps", "count", "higher"),
    ("training.updates", "count", "higher"),
    ("training.clamp_contact_ratio", "ratio", "lower"),
    ("training.trace_rows_written_ratio", "ratio", "lower"),
    ("training.trace_mem_mb", "MB", "lower"),
    ("experiments.run_figure_traces.self_s", "s", "lower"),
    ("experiments.TraceFile.write.s", "s", "lower"),
    ("experiments.TraceFile.read.s", "s", "lower"),
    ("experiments.trace_bytes", "bytes", "lower"),
    ("experiments.random_joint.ms_per_call", "ms", "lower"),
    ("estimators.role_model_exact.ms_per_call", "ms", "lower"),
    ("estimators.direct_solution.ms_per_call", "ms", "lower"),
    ("estimators.expected_divergence.ms_per_call", "ms", "lower"),
    ("estimators.check_theorem1.self_ms_per_call", "ms", "lower"),
    ("estimators.check_theorem2.self_ms_per_call", "ms", "lower"),
    ("estimators.expected_divergence_given_z.calls", "count", "lower"),
    ("probability.conditional.calls", "count", "lower"),
    ("probability.marginal_yz.calls", "count", "lower"),
    ("probability.conditional.self_ms", "ms", "lower"),
    ("specfiles.read_scenario.s", "s", "lower"),
    ("specfiles.read_samples.s", "s", "lower"),
    ("specfiles.read_samples.us_per_row", "us", "lower"),
    ("specfiles.write_estimator.s", "s", "lower"),
    ("specfiles.read_estimator.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
    ("trace.wrapper_ns_per_call", "ns", "lower"),
)

def _deep_size(roots) -> int:
    """Bytes held by nested lists and tuples of numbers, each object
    counted once (sys.getsizeof, without allocator overhead)."""
    seen = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return total


def _after_train_run(tracer, args, state):
    config, oracle = args[1], args[2]
    tracer.count("updates", state.updates)
    tracer.count("rows_recorded", len(state.divergence_trace))
    lo, hi = config.clamp_epsilon, 1.0 - config.clamp_epsilon
    binary = oracle.n_x == 2
    hits = entries = 0
    for step, flat in state.param_trace:
        if step < config.start_step:
            continue  # no update was made at this step
        free = flat[0::2] if binary else flat
        entries += len(free)
        hits += sum(1 for v in free if v == lo or v == hi)
    tracer.count("clamp_hits", hits)
    tracer.count("clamp_entries", entries)
    tracer.count("trace_mem_bytes", _deep_size([state.divergence_trace, state.param_trace]))


def _after_trace_write(tracer, args, result):
    trace, path = args[0], args[1]
    tracer.count("rows_written", len(trace.rows))
    tracer.count("trace_bytes", os.path.getsize(path))


def _after_read_samples(tracer, args, pairs):
    tracer.count("rows_read", len(pairs))


def install(tracer) -> None:
    """Wrap every traced function of the package on ``tracer``."""
    from rolemodel import channels, cli, estimators, experiments, probability, specfiles, training

    spans = (
        (channels, "sample_arrays", None),
        (training, "train_run", _after_train_run),
        (experiments, "run_figure_traces", None),
        (specfiles, "read_scenario", None),
        (specfiles, "read_samples", _after_read_samples),
        (specfiles, "write_estimator", None),
        (specfiles, "read_estimator", None),
        (cli, "main", None),
        (cli, "cmd_example_b", None),
        (cli, "cmd_verify_theorems", None),
        (cli, "cmd_train", None),
        (cli, "cmd_evaluate", None),
    )
    # called per sample or many times per op: counts and totals only
    aggregates = (
        (training, "train_step"),
        (training, "windowed_divergence"),
        (experiments, "random_joint"),
        (estimators, "role_model_exact"),
        (estimators, "direct_solution"),
        (estimators, "expected_divergence"),
        (estimators, "expected_divergence_given_z"),
        (estimators, "check_theorem1"),
        (estimators, "check_theorem2"),
        (probability, "conditional"),
        (probability, "marginal_yz"),
    )
    for module, attr, after in spans:
        tracer.patch_function(module, attr, f"{module.__name__.split('.')[-1]}.{attr}", True, after)
    for module, attr in aggregates:
        tracer.patch_function(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")
    tracer.patch_method(experiments.TraceFile, "write", "experiments.TraceFile.write", True,
                        _after_trace_write)
    tracer.patch_method(experiments.TraceFile, "read", "experiments.TraceFile.read", True)
    tracer.patch_method(training.TrainerState, "params", "training.TrainerState.params")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def op_metrics(stats, counters) -> dict:
    """Per-layer metrics of one traced op (without the run-level ones)."""

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    record_s = total("training.windowed_divergence") + total("training.TrainerState.params")
    return {
        "channels.sample_arrays.s": total("channels.sample_arrays"),
        "training.train_run.self_s": self_s("training.train_run"),
        "training.train_step.self_us_per_call":
            1e6 * _ratio(self_s("training.train_step"), calls("training.train_step")),
        "training.trace_record.us_per_step":
            1e6 * _ratio(record_s, calls("training.TrainerState.params")),
        "training.steps": calls("training.train_step"),
        "training.updates": counters.get("updates", 0),
        "training.clamp_contact_ratio":
            _ratio(counters.get("clamp_hits", 0), counters.get("clamp_entries", 0)),
        "training.trace_rows_written_ratio":
            _ratio(counters.get("rows_written", 0), counters.get("rows_recorded", 0)),
        "training.trace_mem_mb": counters.get("trace_mem_bytes", 0) / 2**20,
        "experiments.run_figure_traces.self_s": self_s("experiments.run_figure_traces"),
        "experiments.TraceFile.write.s": total("experiments.TraceFile.write"),
        "experiments.TraceFile.read.s": total("experiments.TraceFile.read"),
        "experiments.trace_bytes": counters.get("trace_bytes", 0),
        "experiments.random_joint.ms_per_call":
            1e3 * _ratio(total("experiments.random_joint"), calls("experiments.random_joint")),
        "estimators.role_model_exact.ms_per_call":
            1e3 * _ratio(total("estimators.role_model_exact"), calls("estimators.role_model_exact")),
        "estimators.direct_solution.ms_per_call":
            1e3 * _ratio(total("estimators.direct_solution"), calls("estimators.direct_solution")),
        "estimators.expected_divergence.ms_per_call":
            1e3 * _ratio(total("estimators.expected_divergence"),
                         calls("estimators.expected_divergence")),
        "estimators.check_theorem1.self_ms_per_call":
            1e3 * _ratio(self_s("estimators.check_theorem1"), calls("estimators.check_theorem1")),
        "estimators.check_theorem2.self_ms_per_call":
            1e3 * _ratio(self_s("estimators.check_theorem2"), calls("estimators.check_theorem2")),
        "estimators.expected_divergence_given_z.calls":
            calls("estimators.expected_divergence_given_z"),
        "probability.conditional.calls": calls("probability.conditional"),
        "probability.marginal_yz.calls": calls("probability.marginal_yz"),
        "probability.conditional.self_ms": 1e3 * self_s("probability.conditional"),
        "specfiles.read_scenario.s": total("specfiles.read_scenario"),
        "specfiles.read_samples.s": total("specfiles.read_samples"),
        "specfiles.read_samples.us_per_row":
            1e6 * _ratio(total("specfiles.read_samples"), counters.get("rows_read", 0)),
        "specfiles.write_estimator.s": total("specfiles.write_estimator"),
        "specfiles.read_estimator.s": total("specfiles.read_estimator"),
        "trace.bookkeeping_s": total(BOOKKEEPING),
        "cli.self_s": sum((e[2] for name, e in stats.items() if name.startswith("cli.")), 0.0),
    }
