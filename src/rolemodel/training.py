"""Blind online training of an estimator table from a (y, z) stream.

The trainer watches pairs of observations: y, what the reference
estimator saw, and z, what we see. It never observes the source symbol
x and knows nothing about the y-to-z channel; its only tool is the
reference posterior P(x|y), queried at each observed y. The running
loss is the windowed average divergence

    (1/m) sum_i D( P(.|y_i) || q(.|z_i) )

over the most recent ``window`` samples, and training follows its exact
gradient in the estimator parameters with a diminishing step size
eta_t = eta0 / (1 + t / tau), where t counts updates already made.
Updates begin at ``start_step`` (by default one sample after the window
first fills) and parameters are clamped to the epsilon-interior of the
simplex so no divergence ever becomes infinite.

The clamp width also sets the stability of the scheme. The gradient of
a KL objective grows like 1/q toward the boundary, so once a parameter
touches the clamp the next step has magnitude about
eta * w / (eps * m * ln 2) with w the windowed posterior mass on the
starved symbol; if that exceeds the interval the parameter bounces from
clamp to clamp and, because eta shrinks only slowly, never re-enters
the interior. Keeping eps large enough that eta * w / (eps * m * ln 2)
stays below 1 makes every boundary contact self-correcting. The
default eps = 1e-2 satisfies this for the default schedule with room to
spare; lower it only together with the step size, and keep it below
every probability the optimum actually uses.

One update rule serves every X alphabet. Row z keeps nx - 1 free
entries q(j|z), j < nx - 1; its last entry is 1 minus their sum. With
w_k the window's posterior mass on x = k among samples with this z,
each free entry moves by -eta * G[z, j], where

    G[z, j] = mean over k != j of (w_k / q_k - w_j / q_j) / (m ln 2)

is the derivative in q(j|z) when the rest of the row pays evenly: the
gradient projected onto sum(q) = 1 and scaled by nx / (nx - 1), so that
at nx = 2 it is the full derivative in q(0|z), not half of it. A row
with an entry below eps is projected exactly onto the epsilon-interior
of the simplex (Duchi et al. 2008), at nx = 2 the clamp to [eps, 1-eps].

A run has one oracle and one TrainerConfig for its whole life, so a
TrainerState is bound to both on construction, which builds the window
sums and checks once that eps * nx < 1. Samples are (y, z) pairs only,
so x has no way in. The state is flat lists of plain floats, kept
incrementally: estimator entries, per z-symbol window sums of posterior
rows and one negative-entropy accumulator, so a window slide costs
O(nx). A z-symbol's sums are reset to exact zeros when its last sample
leaves, so no drift survives an empty group.

An update is one pass over the whole table: the ratios w / q over the
flat table, each free entry's leave-one-out sum read through index
tuples built on construction, then each row's last entry as 1 minus its
free ones, with the projection only for a row that needs it. A row
absent from the window has exact-zero sums, so its ratios and its
gradient are exact zeros and the update leaves it unchanged. At nx = 2
the window and row updates run unrolled, with the same float operations.

The traces are recorded as two flat columns of doubles, the windowed
divergence and the nz * nx estimator entries of each recorded step, so
a long run holds no per-step Python objects. Recorded steps are
contiguous from the window length, so no step column is kept. The
(step, value) lists ``divergence_trace`` and ``param_trace`` are built
from the columns on access; ``trace_columns`` returns them as arrays.
A run that needs only its final estimator passes ``traces=False`` and
records nothing.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .channels import sample_arrays
from .errors import (
    DimensionError,
    DistributionError,
    EmptyWindowError,
    UndefinedConditionalError,
)
from .probability import ConditionalTable, Joint3, X_AXIS, Y_AXIS, conditional

_LN2 = math.log(2.0)
_ON_BOUNDARY = "estimator parameter on the boundary, gradient undefined"


@dataclass(frozen=True, eq=False)
class RoleModelOracle:
    """The reference estimator a training run mimics.

    Holds the posterior table P(x|y), one row per y-symbol, every row
    defined (UndefinedConditionalError otherwise). The trainer queries
    rows by observed y and never needs the joint, the prior, or the
    source symbol itself.
    """

    posterior_xy: ConditionalTable

    def __post_init__(self):
        if not self.posterior_xy.defined.all():
            raise UndefinedConditionalError(
                "some y-symbols have zero probability; drop them from the "
                "alphabet before building an oracle"
            )

    @property
    def n_y(self) -> int:
        return self.posterior_xy.n_given

    @property
    def n_x(self) -> int:
        return self.posterior_xy.n_target

    @classmethod
    def from_joint(cls, joint: Joint3) -> "RoleModelOracle":
        return cls(conditional(joint, X_AXIS, Y_AXIS))


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters of one training run.

    The defaults reproduce the blind-training setup of the erasure
    scenario: window of 100, updates from the 101st sample on, step
    size 0.05 decaying with time constant 1000 updates, and parameters
    kept at least 1e-2 away from the simplex boundary (see the module
    docstring for why the clamp width matters for stability).
    """

    n_samples: int
    seed: int = 0
    window: int = 100
    start_step: int = 101
    init: Optional[ConditionalTable] = None
    step_size_initial: float = 0.05
    step_size_tau: float = 1000.0
    clamp_epsilon: float = 1e-2

    def __post_init__(self):
        for name in ("n_samples", "seed", "window", "start_step"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise DistributionError(f"{name} must be an integer") from None
        if self.n_samples < 1:
            raise DistributionError("n_samples must be positive")
        if self.seed < 0:
            raise DistributionError("seed must be nonnegative")
        if self.window < 1:
            raise DistributionError("window must be positive")
        if self.start_step < self.window + 1:
            raise DistributionError("start_step must exceed the window length")
        for name in ("step_size_initial", "step_size_tau", "clamp_epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise DistributionError(f"{name} must be finite")
        if self.step_size_initial <= 0.0:
            raise DistributionError("step_size_initial must be positive")
        if self.step_size_tau <= 0.0:
            raise DistributionError("step_size_tau must be positive")
        if not 0.0 < self.clamp_epsilon < 0.5:
            raise DistributionError("clamp_epsilon must lie in (0, 0.5)")
        if self.init is not None and not self.init.defined.all():
            raise DistributionError("init must define a row for every z-symbol")


class TrainerState:
    """Mutable state of one training run; train_step mutates and returns it.

    A run mimics one reference estimator under one ``config`` for its
    whole life, so a state is bound to both on construction, which
    checks the oracle's X alphabet against the estimator's
    (DimensionError when they differ) and that clamp_epsilon * nx < 1
    (DistributionError otherwise), and builds the window sums.
    ``buffer`` preseeds the window; only its last config.window (y, z)
    pairs enter it.

    Public surface: ``config``, ``est`` (the current estimator),
    ``step`` (samples consumed), ``window_buffer`` (the (y, z) pairs
    currently in the window), and the traces, recorded from the first
    step at which the window is full unless ``traces=False``, which
    leaves them empty. They are kept as columns of doubles;
    ``trace_columns()`` copies them into arrays, and the lists
    ``divergence_trace`` of (step, windowed divergence) and
    ``param_trace`` of (step, flattened estimator entries) are built
    from them on each access.
    """

    def __init__(
        self, est: ConditionalTable, config: TrainerConfig, oracle: RoleModelOracle,
        buffer: Iterable = (), *, traces: bool = True,
    ):
        if not est.defined.all():
            raise DistributionError("the trained estimator must define every row")
        if oracle.n_x != est.n_target:
            raise DimensionError("oracle and estimator disagree on the X alphabet")
        if config.clamp_epsilon * est.n_target >= 1.0:
            raise DistributionError("clamp_epsilon too large for this X alphabet")
        self.config = config
        self.window = int(config.window)
        # without traces the first recorded step is out of reach
        self._record_from = self.window if traces else math.inf
        self.step = 0
        self.updates = 0
        self.window_buffer = deque()
        # imported on first use, so that importing the package loads no new module
        from array import array

        self._divergences = array("d")
        self._params = array("d")
        self._nz = est.n_given
        self._nx = est.n_target
        self._q = [v for row in est.p.tolist() for v in _complete(row[:-1])]
        unrolled = self._nx == 2
        self._slide = _slide2 if unrolled else _slide
        self._update = _update_rows2 if unrolled else _update_rows
        # each free entry's flat index and the other entries of its row
        self._free = tuple(
            (z * self._nx + j, tuple(z * self._nx + k for k in range(self._nx) if k != j))
            for z in range(self._nz)
            for j in range(self._nx - 1)
        )
        table = oracle.posterior_xy.p
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(table > 0.0, np.log2(np.maximum(table, 1e-300)), 0.0)
        self._ng = (table * logs).sum(axis=1).tolist()
        self._rows = table.ravel().tolist()
        # eviction adds the negated rows: w + (-r) is exactly w - r
        self._minus_rows = [-v for v in self._rows]
        self._w = [0.0] * (self._nz * self._nx)
        self._count = [0] * self._nz
        self._neg = 0.0
        for y, z in deque(map(_coerce_sample, buffer), maxlen=self.window):
            self._add(y, z)

    @property
    def est(self) -> ConditionalTable:
        return ConditionalTable(np.array(self._q).reshape(self._nz, self._nx))

    def params(self) -> tuple:
        """Current estimator entries, flattened row-major."""
        return tuple(self._q)

    def _trace_steps(self) -> range:
        return range(self.window, self.window + len(self._divergences))

    @property
    def divergence_trace(self) -> list:
        """(step, windowed divergence) per recorded step, built on access."""
        return list(zip(self._trace_steps(), self._divergences))

    @property
    def param_trace(self) -> list:
        """(step, flattened estimator entries) per recorded step, built on access."""
        flat = iter(self._params)
        return list(zip(self._trace_steps(), zip(*[flat] * (self._nz * self._nx))))

    def trace_columns(self) -> tuple:
        """The traces as new arrays: steps (int64), windowed divergence
        and the flattened estimator entries, shape (rows, nz * nx)."""
        n = len(self._divergences)
        steps = np.arange(self.window, self.window + n, dtype=np.int64)
        params = np.array(self._params, dtype=np.float64).reshape(n, self._nz * self._nx)
        return steps, np.array(self._divergences, dtype=np.float64), params

    def _add(self, y: int, z: int):
        # the one way into the window: push (y, z), evict past the window
        if not 0 <= z < self._nz:
            raise DimensionError(f"z symbol {z} outside the estimator alphabet")
        if not 0 <= y < len(self._ng):
            raise DimensionError(f"y symbol {y} outside the oracle alphabet")
        buf = self.window_buffer
        buf.append((y, z))
        nx = self._nx
        self._slide(self._w, self._rows, z * nx, y * nx, nx)
        self._neg += self._ng[y]
        self._count[z] += 1
        if len(buf) > self.window:
            oy, oz = buf.popleft()
            self._slide(self._w, self._minus_rows, oz * nx, oy * nx, nx)
            self._neg -= self._ng[oy]
            self._count[oz] -= 1
            if self._count[oz] == 0:
                # reset exact zeros so no rounding residue outlives the group
                self._w[oz * nx:(oz + 1) * nx] = [0.0] * nx


def _slide(w: list, rows: list, wi: int, ri: int, nx: int):
    # add row ri of rows into window sum wi
    for k in range(nx):
        w[wi + k] += rows[ri + k]


def _slide2(w: list, rows: list, wi: int, ri: int, nx: int):
    w[wi] += rows[ri]
    w[wi + 1] += rows[ri + 1]


def _complete(free: list) -> list:
    """A full row from its free entries: the last is 1 minus their sum."""
    return free + [1.0 - math.fsum(free)]


def _coerce_sample(sample) -> tuple:
    """The one rule for a sample: a (y, z) pair of integers. operator.index
    takes numpy integers but refuses floats and strings, never truncating."""
    try:
        y, z = sample
        return operator.index(y), operator.index(z)
    except (TypeError, ValueError):
        raise DimensionError(
            f"a sample is a (y, z) pair of integers, got {sample!r}"
        ) from None


def windowed_divergence(state: TrainerState) -> float:
    """Average divergence from the reference posterior over the window.

    Computed from the incremental aggregates, so it costs O(nz * nx)
    regardless of the window length. Raises EmptyWindowError before the
    first sample. +inf when a parameter sits on the boundary while the
    window holds mass that needs it.
    """
    m = len(state.window_buffer)
    if m == 0:
        raise EmptyWindowError("the window holds no samples yet")
    acc = state._neg
    try:
        for w, q in zip(state._w, state._q):
            if w:
                acc -= w * math.log2(q)
    except ValueError:  # log2 of an entry <= 0 that the window needs
        return math.inf
    return acc / m


def windowed_gradient(state: TrainerState) -> np.ndarray:
    """Exact gradient of the windowed divergence in the free parameters.

    Shape (nz * (nx - 1),): entry z * (nx - 1) + j is G[z, j] of the
    module docstring, the derivative in q(j|z) when the rest of row z
    pays evenly; binary X gives shape (nz,), the derivative in q(0|z).
    A z-symbol absent from the window contributes exact zeros; a row the
    window uses with an entry on the boundary raises DistributionError.
    """
    m = len(state.window_buffer)
    if m == 0:
        raise EmptyWindowError("the window holds no samples yet")
    return np.array(_gradient(state, m * _LN2))


def _gradient(state: TrainerState, scale: float) -> list:
    # G[z, j] over the free entries of the whole table, row-major; scale = m ln 2.
    # Each leave-one-out sum reads the other ratios of its row by index.
    r = _ratios(state)
    ratio = r.__getitem__
    d = state._nx - 1
    return [(math.fsum(map(ratio, others)) / d - r[i]) / scale for i, others in state._free]


def _ratios(state: TrainerState) -> list:
    # w / q over the whole table; a row absent from the window has w == 0.0
    # exactly, so its ratios are exact zeros
    w, q = state._w, state._q
    if min(q) > 0.0:
        return list(map(operator.truediv, w, q))
    # only a user init puts an entry at or below 0: check row by row
    nx = state._nx
    r = []
    for z, used in enumerate(state._count):
        i = z * nx
        if not used:
            r += [0.0] * nx
        elif min(q[i:i + nx]) <= 0.0:
            raise DistributionError(_ON_BOUNDARY)
        else:
            r += map(operator.truediv, w[i:i + nx], q[i:i + nx])
    return r


def _update_rows(state: TrainerState, eta: float, eps: float):
    q, d = state._q, state._nx - 1
    grad = _gradient(state, len(state.window_buffer) * _LN2)
    free = [q[i] - eta * g for (i, _), g in zip(state._free, grad)]
    table = []
    for a in range(0, len(free), d):
        row = free[a:a + d]
        row.append(1.0 - math.fsum(row))  # _complete, inline
        if min(row) < eps:
            row = _complete(_project(row, eps)[:-1])
        table += row
    q[:] = table


def _update_rows2(state: TrainerState, eta: float, eps: float):
    # _update_rows at nx = 2, unrolled into the same float operations
    w, q, count = state._w, state._q, state._count
    scale = len(state.window_buffer) * _LN2
    for z in range(state._nz):
        i = 2 * z
        v = q[i]
        if count[z]:
            if v <= 0.0 or q[i + 1] <= 0.0:
                raise DistributionError(_ON_BOUNDARY)
            v -= eta * ((w[i + 1] / q[i + 1] - w[i] / v) / scale)
        if v < eps:
            v = eps
        elif 1.0 - v < eps:
            v = 1.0 - eps
        q[i], q[i + 1] = v, 1.0 - v


def _project(row: list, eps: float) -> list:
    """Euclidean projection of a row summing to 1 onto {q >= eps, sum(q) = 1}.

    Pins entries at eps pass by pass until the shift theta of the rest
    pins no more (Michelot 1986). The last unpinned entry is 1 minus the
    others, not v - theta, which rounds when v is large.
    """
    n = len(row)
    active = [k for k in range(n) if row[k] >= eps]
    while True:
        excess = math.fsum(row[k] for k in active) - 1.0 + eps * (n - len(active))
        theta = excess / len(active)
        keep = [k for k in active if row[k] - theta > eps]
        if not keep or len(keep) == len(active):
            break
        active = keep
    out = [row[k] - theta if k in active else eps for k in range(n)]
    out[active[-1]] = 0.0
    out[active[-1]] = 1.0 - math.fsum(out)
    return out


def train_step(state: TrainerState, sample) -> TrainerState:
    """Consume one (y, z) pair: slide the window, take one gradient step
    once past the warm-up, and record traces once the window is full
    (never for a state built with traces=False).

    The settings are the state's own config. The step size for the t-th
    update (t = 0, 1, ...) is step_size_initial / (1 + t / step_size_tau).
    A sample that is not a pair of integers raises DimensionError. Returns
    the same state object, mutated.
    """
    config = state.config
    y, z = _coerce_sample(sample)
    symbol = state.step + 1
    state._add(y, z)
    if symbol >= config.start_step:
        eta = config.step_size_initial / (1.0 + state.updates / config.step_size_tau)
        state._update(state, eta, config.clamp_epsilon)
        state.updates += 1
    state.step = symbol
    if symbol >= state._record_from:
        state._divergences.append(windowed_divergence(state))
        state._params.extend(state.params())
    return state


def train_run(
    source: Union[Joint3, Iterable],
    config: TrainerConfig,
    oracle: RoleModelOracle,
    *,
    traces: bool = True,
) -> TrainerState:
    """Run a full training pass and return the final state.

    ``source`` is either a Joint3, in which case config.n_samples
    triples are drawn with config.seed and their (y, z) entries are fed
    to the trainer pair by pair, or an iterable of (y, z) pairs. The run
    must contain at least config.start_step samples. The estimator
    starts at config.init when given, else uniform rows; for a stream
    source without init, the z alphabet is taken to be 0..max(z)
    observed. An init whose row count differs from a Joint3 source's z
    alphabet raises DimensionError. With ``traces=False`` the state
    records no traces, for a caller that needs only the final estimator;
    the trajectory is the same either way.
    """
    if isinstance(source, Joint3):
        if config.init is not None and config.init.n_given != source.nz:
            raise DimensionError(
                f"init has {config.init.n_given} rows, the source {source.nz} z-symbols"
            )
        _, ys, zs = sample_arrays(source, config.seed, config.n_samples)
        pairs, n_pairs = zip(ys.tolist(), zs.tolist()), config.n_samples
        nz = source.nz
    else:
        # train_step coerces each pair; only sizing the table needs z first
        pairs = list(source)
        n_pairs = len(pairs)
        if config.init is None:
            nz = max((_coerce_sample(s)[1] for s in pairs), default=0) + 1
    if n_pairs < config.start_step:
        raise DistributionError(
            f"need at least start_step = {config.start_step} samples, "
            f"got {n_pairs}"
        )
    est = config.init
    if est is None:
        est = ConditionalTable.uniform(nz, oracle.n_x)
    state = TrainerState(est, config, oracle, traces=traces)
    for pair in pairs:
        train_step(state, pair)
    return state
