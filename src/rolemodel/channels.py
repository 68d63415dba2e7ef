"""Channel constructors, composition, and seeded stream sampling.

The named channel families are the two used by the worked scenarios: the
Z-channel (binary input, one noiseless symbol) and the binary erasure
channel. Arbitrary row-stochastic matrices are available through
``general_channel``. Channels compose by matrix product, and a prior
plus two channel stages assemble into a Joint3 over (x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, DistributionError
from .probability import ConditionalTable, Joint3, Simplex

Z_CHANNEL = "z_channel"
BEC = "bec"
GENERAL = "general"


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """A declarative channel description that can be rendered to a matrix.

    Exactly the fields for its kind are set: ``crossover`` for a
    Z-channel, ``delta`` for an erasure channel, ``matrix`` for a
    general channel, whose table needs at least 2 rows, all defined.
    """

    kind: str
    crossover: Optional[float] = None
    delta: Optional[float] = None
    matrix: Optional[ConditionalTable] = None

    def __post_init__(self):
        if self.kind == Z_CHANNEL:
            if self.crossover is None or self.delta is not None or self.matrix is not None:
                raise DistributionError("a z_channel takes exactly a crossover")
            if not 0.0 <= self.crossover <= 1.0:
                raise DistributionError("crossover must lie in [0, 1]")
        elif self.kind == BEC:
            if self.delta is None or self.crossover is not None or self.matrix is not None:
                raise DistributionError("a bec takes exactly an erasure rate")
            if not 0.0 <= self.delta <= 1.0:
                raise DistributionError("erasure rate must lie in [0, 1]")
        elif self.kind == GENERAL:
            if self.matrix is None or self.crossover is not None or self.delta is not None:
                raise DistributionError("a general channel takes exactly a matrix")
            if self.matrix.n_given < 2:
                raise DistributionError("a channel needs at least 2 input symbols")
            if not self.matrix.defined.all():
                raise DistributionError("every channel row must be defined")
        else:
            raise DistributionError(f"unknown channel kind {self.kind!r}")

    @property
    def input_size(self) -> int:
        return 2 if self.kind in (Z_CHANNEL, BEC) else self.matrix.n_given

    @property
    def output_size(self) -> int:
        if self.kind == Z_CHANNEL:
            return 2
        if self.kind == BEC:
            return 3
        return self.matrix.n_target


def z_channel(crossover: float) -> ChannelSpec:
    """Binary channel whose input 0 passes noiselessly and whose input 1
    flips to 0 with the given probability."""
    return ChannelSpec(Z_CHANNEL, crossover=crossover)


def bec(delta: float) -> ChannelSpec:
    """Binary erasure channel; outputs are ordered (0, erasure, 1)."""
    return ChannelSpec(BEC, delta=delta)


def general_channel(matrix) -> ChannelSpec:
    if not isinstance(matrix, ConditionalTable):
        matrix = ConditionalTable(matrix)
    return ChannelSpec(GENERAL, matrix=matrix)


def to_matrix(spec: ChannelSpec) -> ConditionalTable:
    """Render a ChannelSpec to its row-stochastic matrix."""
    if spec.kind == Z_CHANNEL:
        p = spec.crossover
        return ConditionalTable(((1.0, 0.0), (p, 1.0 - p)))
    if spec.kind == BEC:
        d = spec.delta
        return ConditionalTable(((1.0 - d, d, 0.0), (0.0, d, 1.0 - d)))
    return spec.matrix


def cascade(first: ConditionalTable, second: ConditionalTable) -> ConditionalTable:
    """Compose two channels in series: the matrix product first @ second."""
    if first.n_target != second.n_given:
        raise DimensionError(
            f"cannot cascade: first emits {first.n_target} symbols, "
            f"second expects {second.n_given}"
        )
    return ConditionalTable(first.p @ second.p)


def build_joint(prior: Simplex, xy: ConditionalTable, yz: ConditionalTable) -> Joint3:
    """Joint over (x, y, z) from a prior and two channel stages.

    p(x, y, z) = prior(x) * xy(y|x) * yz(z|y), which makes X - Y - Z a
    Markov chain by construction.
    """
    if len(prior) != xy.n_given:
        raise DimensionError("prior and first channel disagree on the X alphabet")
    if xy.n_target != yz.n_given:
        raise DimensionError("channels disagree on the Y alphabet")
    table = np.einsum("i,ij,jk->ijk", prior.probs, xy.p, yz.p)
    return Joint3(table)


def sample_arrays(joint: Joint3, seed: int, n: int):
    """n i.i.d. draws from the joint as three int64 arrays (x, y, z).

    Reproducibility contract: a PCG64 generator seeded with ``seed``
    produces 53-bit uniforms via Generator.random(), which are mapped
    through the inverse CDF of the joint flattened in C order (x-major,
    then y, then z). Fixed seed means bit-identical output across runs
    and platforms.
    """
    if n < 0:
        raise DimensionError("sample count must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(joint.p.ravel())
    cdf[-1] = 1.0  # guard the top bin against cumulative rounding
    flat = np.searchsorted(cdf, rng.random(n), side="right")
    x, rem = np.divmod(flat, joint.ny * joint.nz)
    y, z = np.divmod(rem, joint.nz)
    return x.astype(np.int64), y.astype(np.int64), z.astype(np.int64)

