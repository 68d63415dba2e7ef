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

Binary X is the common case and reduces exactly to one free parameter
per z-symbol, q_z = q(0|z); that path runs in plain Python floats.
Larger X alphabets take an additive step in all coordinates followed by
Euclidean projection onto the epsilon-interior of the simplex.

The windowed statistics are maintained incrementally: per z-symbol sums
of reference-posterior rows plus one negative-entropy accumulator, so a
training step costs O(nx) regardless of the window length. Linearity
of the average in the window's samples makes the incremental and direct
computations agree; when the last sample of a z-symbol leaves the
window its sums are reset to exact zeros, so no drift survives an empty
group.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .channels import SampleTriple, sample_arrays
from .errors import (
    DimensionError,
    DistributionError,
    EmptyWindowError,
    UndefinedConditionalError,
)
from .probability import ConditionalTable, Joint3, X_AXIS, Y_AXIS, conditional

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class RoleModelOracle:
    """The reference estimator a training run mimics.

    Holds the posterior table P(x|y), one row per y-symbol. The trainer
    queries rows by observed y and never needs the joint, the prior, or
    the source symbol itself.
    """

    posterior_xy: ConditionalTable

    @property
    def n_y(self) -> int:
        return self.posterior_xy.n_given

    @property
    def n_x(self) -> int:
        return self.posterior_xy.n_target

    @classmethod
    def from_joint(cls, joint: Joint3) -> "RoleModelOracle":
        posterior = conditional(joint, X_AXIS, Y_AXIS)
        if not posterior.defined.all():
            raise UndefinedConditionalError(
                "some y-symbols have zero probability; drop them from the "
                "alphabet before building an oracle"
            )
        return cls(posterior)


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

    Public surface: ``est`` (the current estimator), ``step`` (samples
    consumed), ``window_buffer`` (the (y, z) pairs currently in the
    window), and the two traces, ``divergence_trace`` holding
    (step, windowed divergence) and ``param_trace`` holding
    (step, flattened estimator entries), both recorded from the first
    step at which the window is full.
    """

    def __init__(self, est: ConditionalTable, window: int, buffer: Iterable = ()):
        if window < 1:
            raise DistributionError("window must be positive")
        if not est.defined.all():
            raise DistributionError("the trained estimator must define every row")
        self.window = int(window)
        self.step = 0
        self.updates = 0
        self.window_buffer = deque()
        self.divergence_trace = []
        self.param_trace = []
        self._nz = est.n_given
        self._nx = est.n_target
        self._binary = self._nx == 2
        if self._binary:
            self._p = est.p[:, 0].tolist()
        else:
            self._q = np.array(est.p)
        # aggregate cache, rebuilt whenever the oracle object changes
        self._oracle_token = None
        for pair in buffer:
            y, z = _coerce_sample(pair)
            self.window_buffer.append((y, z))
            if len(self.window_buffer) > self.window:
                self.window_buffer.popleft()

    @property
    def est(self) -> ConditionalTable:
        if self._binary:
            p = np.array(self._p)
            return ConditionalTable(np.column_stack((p, 1.0 - p)))
        return ConditionalTable(self._q)

    def params(self) -> tuple:
        """Current estimator entries, flattened row-major."""
        if self._binary:
            out = []
            for p in self._p:
                out.append(p)
                out.append(1.0 - p)
            return tuple(out)
        return tuple(float(v) for v in self._q.ravel())

    # -- window aggregates ------------------------------------------------

    def _ensure(self, oracle: RoleModelOracle):
        if self._oracle_token is oracle:
            return
        if oracle.n_x != self._nx:
            raise DimensionError("oracle and estimator disagree on the X alphabet")
        table = oracle.posterior_xy.p
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(table > 0.0, np.log2(np.maximum(table, 1e-300)), 0.0)
        negent = (table * logs).sum(axis=1)
        if self._binary:
            self._r0 = [float(v) for v in table[:, 0]]
            self._r1 = [float(v) for v in table[:, 1]]
            self._ng = [float(v) for v in negent]
            self._w0 = [0.0] * self._nz
            self._w1 = [0.0] * self._nz
        else:
            self._rows = table
            self._ng = negent
            self._w = np.zeros((self._nz, self._nx))
        self._count = [0] * self._nz
        self._neg = 0.0
        self._oracle_token = oracle
        pairs = list(self.window_buffer)
        self.window_buffer.clear()
        for y, z in pairs:
            self._add(y, z, evict=False)

    def _add(self, y: int, z: int, evict: bool = True):
        if not 0 <= z < self._nz:
            raise DimensionError(f"z symbol {z} outside the estimator alphabet")
        if not 0 <= y < len(self._ng):
            raise DimensionError(f"y symbol {y} outside the oracle alphabet")
        buf = self.window_buffer
        buf.append((y, z))
        if self._binary:
            self._w0[z] += self._r0[y]
            self._w1[z] += self._r1[y]
        else:
            self._w[z] += self._rows[y]
        self._neg += self._ng[y]
        self._count[z] += 1
        if evict and len(buf) > self.window:
            oy, oz = buf.popleft()
            if self._binary:
                self._w0[oz] -= self._r0[oy]
                self._w1[oz] -= self._r1[oy]
            else:
                self._w[oz] -= self._rows[oy]
            self._neg -= self._ng[oy]
            self._count[oz] -= 1
            if self._count[oz] == 0:
                # reset exact zeros so no rounding residue outlives the group
                if self._binary:
                    self._w0[oz] = 0.0
                    self._w1[oz] = 0.0
                else:
                    self._w[oz].fill(0.0)


def _coerce_sample(sample) -> tuple:
    if isinstance(sample, SampleTriple):
        return int(sample.y), int(sample.z)
    if len(sample) == 3:  # a triple: x is deliberately ignored
        return int(sample[1]), int(sample[2])
    y, z = sample
    return int(y), int(z)


def windowed_divergence(state: TrainerState, oracle: RoleModelOracle) -> float:
    """Average divergence from the reference posterior over the window.

    Computed from the incremental aggregates, so it costs O(nz * nx)
    regardless of the window length. Raises EmptyWindowError before the
    first sample. +inf when a parameter sits on the boundary while the
    window holds mass that needs it.
    """
    state._ensure(oracle)
    m = len(state.window_buffer)
    if m == 0:
        raise EmptyWindowError("the window holds no samples yet")
    acc = state._neg
    if state._binary:
        for z in range(state._nz):
            w0 = state._w0[z]
            w1 = state._w1[z]
            p = state._p[z]
            if w0 != 0.0:
                if p <= 0.0:
                    return math.inf
                acc -= w0 * math.log2(p)
            if w1 != 0.0:
                if p >= 1.0:
                    return math.inf
                acc -= w1 * math.log2(1.0 - p)
    else:
        w = state._w
        q = state._q
        if np.any((w > 0.0) & (q <= 0.0)):
            return math.inf
        mask = (w != 0.0) & (q > 0.0)
        acc -= float((w[mask] * np.log2(q[mask])).sum())
    return acc / m


def windowed_gradient(state: TrainerState, oracle: RoleModelOracle) -> np.ndarray:
    """Exact gradient of the windowed divergence in the free parameters.

    Binary X: shape (nz,), the derivative in q_z = q(0|z). Larger X:
    shape (nz, nx), the raw partials in every entry. A z-symbol absent
    from the window contributes an exactly zero component.
    """
    state._ensure(oracle)
    if not state.window_buffer:
        raise EmptyWindowError("the window holds no samples yet")
    if state._binary:
        return np.array(_gradient_binary(state), dtype=float)
    m = len(state.window_buffer)
    q = state._q
    if np.any((state._w > 0.0) & (q <= 0.0)):
        raise DistributionError("estimator parameter on the boundary, gradient undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.where(state._w != 0.0, -state._w / np.maximum(q, 1e-300), 0.0)
    return grad / (m * _LN2)


def _gradient_binary(state: TrainerState) -> list:
    m = len(state.window_buffer)
    scale = m * _LN2
    out = []
    for z in range(state._nz):
        w0 = state._w0[z]
        w1 = state._w1[z]
        if w0 == 0.0 and w1 == 0.0:
            out.append(0.0)
            continue
        p = state._p[z]
        if p <= 0.0 or p >= 1.0:
            raise DistributionError(
                "estimator parameter on the boundary, gradient undefined"
            )
        out.append((w1 / (1.0 - p) - w0 / p) / scale)
    return out


def _project_interior(v: np.ndarray, eps: float) -> np.ndarray:
    # Euclidean projection onto {q : q >= eps, sum(q) = 1}
    radius = 1.0 - eps * v.size
    u = v - eps
    s = np.sort(u)[::-1]
    css = np.cumsum(s) - radius
    idx = np.arange(1, u.size + 1)
    rho = idx[(s * idx) > css][-1]
    theta = css[rho - 1] / rho
    return eps + np.maximum(u - theta, 0.0)


def train_step(
    state: TrainerState,
    sample,
    config: TrainerConfig,
    oracle: RoleModelOracle,
) -> TrainerState:
    """Consume one observation: slide the window, take one gradient step
    once past the warm-up, and record traces once the window is full.

    The sample may be a (y, z) pair or a full triple, whose x entry is
    deliberately ignored: training is blind to the source symbol. The
    step size for the t-th update (t = 0, 1, ...) is
    step_size_initial / (1 + t / step_size_tau). Returns the same state
    object, mutated.
    """
    if config.window != state.window:
        raise DimensionError("config and state disagree on the window length")
    y, z = _coerce_sample(sample)
    state._ensure(oracle)
    symbol = state.step + 1
    state._add(y, z)
    if symbol >= config.start_step:
        eta = config.step_size_initial / (1.0 + state.updates / config.step_size_tau)
        eps = config.clamp_epsilon
        if state._binary:
            grads = _gradient_binary(state)
            p = state._p
            hi = 1.0 - eps
            for i, g in enumerate(grads):
                v = p[i] - eta * g
                if v < eps:
                    v = eps
                elif v > hi:
                    v = hi
                p[i] = v
        else:
            if eps * state._nx >= 1.0:
                raise DistributionError(
                    "clamp_epsilon too large for this X alphabet"
                )
            grad = windowed_gradient(state, oracle)
            raw = state._q - eta * grad
            for i in range(state._nz):
                state._q[i] = _project_interior(raw[i], eps)
        state.updates += 1
    state.step = symbol
    if symbol >= state.window:
        state.divergence_trace.append((symbol, windowed_divergence(state, oracle)))
        state.param_trace.append((symbol, state.params()))
    return state


def train_run(
    source: Union[Joint3, Iterable],
    config: TrainerConfig,
    oracle: RoleModelOracle,
) -> TrainerState:
    """Run a full training pass and return the final state.

    ``source`` is either a Joint3, in which case config.n_samples
    triples are drawn with config.seed and their x entries are discarded
    unseen, or an iterable of observations ((y, z) pairs or triples).
    The run must contain at least config.start_step samples. The
    estimator starts at config.init when given, else uniform rows; for
    a stream source without init, the z alphabet is taken to be
    0..max(z) observed.
    """
    if isinstance(source, Joint3):
        _, ys, zs = sample_arrays(source, config.seed, config.n_samples)
        pairs = list(zip(ys.tolist(), zs.tolist()))
        nz = source.nz
    else:
        pairs = [_coerce_sample(s) for s in source]
        nz = max((z for _, z in pairs), default=0) + 1
    if len(pairs) < config.start_step:
        raise DistributionError(
            f"need at least start_step = {config.start_step} samples, "
            f"got {len(pairs)}"
        )
    if config.init is not None:
        est = config.init
    else:
        est = ConditionalTable.uniform(nz, oracle.n_x)
    state = TrainerState(est, config.window)
    for pair in pairs:
        train_step(state, pair, config, oracle)
    return state
