"""The benchmark's traced mode, run against the package as it is.

``benchmarks/layers.py`` wraps package functions and reads trainer
internals: ``train_run``'s arguments, the state's two traces and
``TrainerState.params``. A trainer API change that breaks those reads
would otherwise show only under ``benchmarks/run.py --trace 1``. This
runs one short traced op the way ``worker._timed`` does.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

from rolemodel import TrainerConfig, experiments, scenario_b, training  # noqa: E402


def test_traced_figure_run_reports_the_training_layer(tmp_path):
    original = training.train_step
    tracer = Tracer()
    layers.install(tracer)
    try:
        frame = tracer.begin_op(0)
        try:
            # through the module attribute, as the workloads call the package
            experiments.run_figure_traces(
                scenario_b(), TrainerConfig(n_samples=500, seed=1), tmp_path / "t.csv"
            )
        finally:
            tracer.end_op(frame)
    finally:
        tracer.uninstall()
    metrics = layers.op_metrics(tracer.stats, tracer.counters)
    assert metrics["training.steps"] == 500
    assert metrics["training.trace_rows_written_ratio"] == 1.0
    assert metrics["training.trace_mem_mb"] > 0
    assert training.train_step is original
