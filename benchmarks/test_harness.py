"""Tests of the benchmark's own code: order statistics, self time,
wrapper installation and input digests. They run in a few seconds and
sit outside the package's test paths:

    python3 -m pytest -q benchmarks/test_harness.py
"""

import hashlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import worker
from summary import op_seeds, percentile, sha256_file, sha256_seeds, tail
from tracer import BOOKKEEPING, Tracer, calibrate, self_time_total
from workloads import samples_to_tolerance

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- order statistics ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 20) == 1.0
    assert percentile(values, 21) == 2.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 0) == 1.0


@pytest.mark.parametrize("n", [11, 15, 19, 20, 24, 37, 100, 250, 1000, 5000])
def test_tail_leaves_ten_beyond_and_is_the_highest_such(n):
    values = [float(v) for v in range(n, 0, -1)]
    p, value, beyond = tail(values)
    assert beyond >= 10
    assert value == percentile(values, p)
    assert sum(1 for v in values if v > value) == beyond
    if p < 99:
        rank_next = -(-(p + 1) * n // 100)
        assert n - rank_next < 10


def test_tail_examples():
    assert tail([float(v) for v in range(1, 21)]) == (50, 10.0, 10)
    assert tail([float(v) for v in range(1, 1001)])[0] == 99
    assert tail([3.0, 1.0, 2.0]) == (100, 3.0, 0)


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_children_and_sums_to_the_op():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        traced_inner()
        clock.advance(0.5)
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer, span=True)
    frame = tracer.begin_op(7)
    clock.advance(0.25)
    traced_outer()
    tracer.end_op(frame)

    assert tracer.stats["inner"] == [2, 4.0, 4.0]
    assert tracer.stats["outer"] == [1, 5.5, 1.5]
    assert tracer.stats["op"] == [1, 5.75, 0.25]
    assert self_time_total(tracer.stats) == pytest.approx(5.75)
    names = {s[2]: s for s in tracer.spans}
    assert set(names) == {"op", "outer"}  # aggregated calls leave no span
    assert names["outer"][5] == names["op"][1]
    assert names["outer"][0] == 7


def test_bookkeeping_is_not_charged_to_the_caller():
    clock = FakeClock()
    tracer = Tracer(clock)

    def hook(t, args, result):
        clock.advance(3.0)
        t.count("seen", result)

    def work():
        clock.advance(1.0)
        return 4

    traced = tracer.wrap("work", work, after=hook)
    outer = tracer.wrap("outer", lambda: traced(), span=True)
    frame = tracer.begin_op(0)
    outer()
    tracer.end_op(frame)
    assert tracer.stats["work"] == [1, 1.0, 1.0]
    assert tracer.stats["outer"][2] == pytest.approx(0.0)
    assert tracer.stats[BOOKKEEPING] == [1, 3.0, 3.0]
    assert tracer.counters == {"seen": 4}
    assert self_time_total(tracer.stats) == pytest.approx(tracer.stats["op"][1])


def test_frame_closes_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    traced = tracer.wrap("boom", boom)
    frame = tracer.begin_op(0)
    with pytest.raises(ValueError):
        traced()
    tracer.end_op(frame)
    assert tracer.stats["boom"][0] == 1


def test_patch_rebinds_every_alias_and_uninstall_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")
    outside = types.ModuleType("otherpkg")

    def f():
        return 1

    class Box:
        @classmethod
        def make(cls):
            return cls()

        def size(self):
            return 3

    mod_a.f = f
    mod_b.f = f
    pkg.f = f
    outside.f = f
    mod_a.Box = Box
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", mod_a), ("fakepkg.b", mod_b),
                      ("otherpkg", outside)):
        monkeypatch.setitem(sys.modules, name, mod)

    tracer = Tracer(FakeClock())
    tracer.patch_function(mod_a, "f", "a.f")
    tracer.patch_method(Box, "make", "a.Box.make")
    tracer.patch_method(Box, "size", "a.Box.size")
    assert mod_a.f is not f and mod_b.f is mod_a.f and pkg.f is mod_a.f
    assert outside.f is f
    frame = tracer.begin_op(0)
    assert mod_b.f() == 1
    box = Box.make()
    assert isinstance(box, Box) and box.size() == 3
    tracer.end_op(frame)
    assert tracer.stats["a.f"][0] == 1
    assert tracer.stats["a.Box.make"][0] == 1
    assert tracer.stats["a.Box.size"][0] == 1

    tracer.uninstall()
    assert mod_a.f is f and mod_b.f is f and pkg.f is f
    assert isinstance(Box.__dict__["make"], classmethod)
    assert Box.__dict__["size"].__name__ == "size" and not hasattr(Box.size, "__wrapped__")


def test_calibration_is_positive():
    assert calibrate(calls=20_000) > 0.0


# -- op checks ----------------------------------------------------------------


class FakeWorkload:
    def __init__(self, problems=(), raises=False):
        self.problems = list(problems)
        self.raises = raises

    def op(self, ctx, op_seed, scratch):
        if self.raises:
            raise RuntimeError("broken")
        return op_seed

    def check(self, ctx, op_seed, result):
        return list(self.problems), {"seen": result}


def test_failed_checks_and_exceptions_are_named(tmp_path):
    failures = []
    wall, extras, metrics = worker._run_op(FakeWorkload(), None, 5, tmp_path / "a", failures, 1)
    assert wall >= 0.0 and extras == {"seen": 5} and metrics is None and failures == []
    worker._run_op(FakeWorkload(["row 2 off", "exit 1"]), None, 6, tmp_path / "b", failures, 2)
    wall, _, _ = worker._run_op(FakeWorkload(raises=True), None, 7, tmp_path / "c", failures, 3)
    assert wall is None
    assert failures == ["op 2 seed 6: row 2 off; exit 1", "op 3 seed 7: raised RuntimeError: broken"]
    assert not (tmp_path / "b").exists()  # op scratch space is removed


# -- inputs and definitions ---------------------------------------------------


def test_op_seeds_depend_only_on_the_workload_seed():
    assert op_seeds(3, 50) == op_seeds(3, 50)
    assert op_seeds(3, 50) != op_seeds(4, 50)
    assert op_seeds(3, 10) == op_seeds(3, 50)[:10]
    assert all(0 <= s < 2**31 for s in op_seeds(3, 50))


def test_digests(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"y,z\n0,1\n")
    assert sha256_file(path) == hashlib.sha256(b"y,z\n0,1\n").hexdigest()
    assert sha256_seeds([1, 2, 3]) == hashlib.sha256(b"1\n2\n3").hexdigest()
    assert sha256_seeds([1, 2, 3]) != sha256_seeds([3, 2, 1])


def test_samples_to_tolerance():
    rows = [(1, 0.0, 0.5, 0.5), (2, 0.0, 0.71, 0.81), (3, 0.0, 0.9, 0.8),
            (4, 0.0, 0.72, 0.82), (5, 0.0, 0.73, 0.80)]
    assert samples_to_tolerance(rows, 0.72, 0.82, 0.02, 5) == 4
    assert samples_to_tolerance(rows[:3], 0.72, 0.82, 0.02, 3) == 4  # never settled


def test_benchmark_json_matches_the_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "blind-b", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
