"""Order statistics and input digests shared by the benchmark scripts."""

from __future__ import annotations

import hashlib
import math
import random

# a tail percentile needs at least this many ops beyond it
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of
    the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """(percentile, value, ops beyond it) for the highest whole
    percentile that leaves at least TAIL_MIN_BEYOND values above its
    rank. With too few values for any, the maximum, as percentile 100
    with 0 beyond."""
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        return 100, max(values), 0
    p = min(99, (100 * (n - TAIL_MIN_BEYOND)) // n)
    while p > 0 and n - math.ceil(p / 100.0 * n) < TAIL_MIN_BEYOND:
        p -= 1
    return p, percentile(values, p), n - max(1, math.ceil(p / 100.0 * n))


def op_seeds(seed: int, count: int) -> list:
    """The op seeds of a run: a fixed function of the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_seeds(seeds) -> str:
    return hashlib.sha256("\n".join(str(int(s)) for s in seeds).encode()).hexdigest()
