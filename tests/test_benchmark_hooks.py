"""The benchmark's traced mode, run against the package as it is.

``benchmarks/layers.py`` wraps package functions and reads trainer
internals: ``train_run``'s arguments, the state's two traces and
``TrainerState.params``. A trainer API change that breaks those reads
would otherwise show only under ``benchmarks/run.py --trace 1``. These
run short traced ops the way ``worker._timed`` does.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SpecNary  # noqa: E402

import rolemodel.cli  # noqa: E402
from rolemodel import TrainerConfig, experiments, sample_arrays, scenario_b, training  # noqa: E402
from rolemodel.specfiles import write_samples, write_scenario  # noqa: E402


def traced(op):
    """Run op() as one traced op; return its result and per-layer metrics."""
    tracer = Tracer()
    layers.install(tracer)
    try:
        frame = tracer.begin_op(0)
        try:
            result = op()
        finally:
            tracer.end_op(frame)
    finally:
        tracer.uninstall()
    return result, layers.op_metrics(tracer.stats, tracer.counters)


def test_traced_figure_run_reports_the_training_layer(tmp_path):
    original = training.train_step
    # through the module attribute, as the workloads call the package
    _, metrics = traced(lambda: experiments.run_figure_traces(
        scenario_b(), TrainerConfig(n_samples=500, seed=1), tmp_path / "t.csv"
    ))
    assert metrics["training.steps"] == 500
    assert metrics["training.trace_rows_written_ratio"] == 1.0
    assert metrics["training.trace_mem_mb"] > 0
    assert training.train_step is original


def test_traced_train_records_no_trace_rows(tmp_path):
    # the spec-nary op on a short sample log: train keeps only its estimator
    n = 400
    scenario = SpecNary().scenario()
    spec, samples = tmp_path / "ternary.spec", tmp_path / "samples.csv"
    write_scenario(spec, scenario)
    _, ys, zs = sample_arrays(scenario.joint(), 1, n)
    write_samples(samples, zip(ys.tolist(), zs.tolist()))
    argv = ["train", str(spec), "--samples", str(samples), "--out", str(tmp_path / "est.txt")]
    with contextlib.redirect_stdout(io.StringIO()):
        code, metrics = traced(lambda: rolemodel.cli.main(argv))
    assert code == 0
    assert metrics["training.steps"] == n
    assert metrics["training.updates"] == n - TrainerConfig(n_samples=n).start_step + 1
    assert metrics["training.trace_rows_written_ratio"] == 0
