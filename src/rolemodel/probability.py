"""Exact probability primitives over finite alphabets.

Distributions, three-way joint tables, marginals, conditionals,
entropies and Kullback-Leibler divergence, all in double precision
with base-2 logarithms (every information quantity is in bits).
Conventions used throughout:

* 0 * log2(0) = 0 in every entropy-like sum;
* D(p||q) = +inf when p puts mass on a symbol where q has none;
* conditioning on a zero-probability symbol is undefined and is
  represented explicitly (a NaN row, flagged in the table's ``defined``
  mask), never silently replaced by a uniform or zero row.

One validity rule covers every distribution: a Simplex, a Joint3 table
and each defined row of a ConditionalTable. Its entries must be finite
and nonnegative and its mass within SUM_TOLERANCE of 1; it is then
divided by that mass and its array marked read-only. Anything further
off raises DistributionError as a construction bug, not papered over.
All types are immutable and all operations are pure functions. The
tables a Joint3 derives (marginals, pair tables, conditionals and
conditional entropies) are computed on first use and kept with the
joint, so each is built once however many callers ask for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DimensionError, DistributionError, UndefinedConditionalError

# Axis indices of a Joint3 table, in storage order.
X_AXIS, Y_AXIS, Z_AXIS = 0, 1, 2

# The validity rule's mass window: wide enough for the rounding of chained
# products, too narrow to mask a construction bug.
SUM_TOLERANCE = 1e-9


def _table_entropy(table: np.ndarray) -> float:
    """-sum c*log2(c) over the positive cells of a nonnegative table."""
    cells = table[table > 0.0]
    if cells.size == 0:
        return 0.0
    return float(-np.dot(cells, np.log2(cells)))


def _kl_from_arrays(p: np.ndarray, q: np.ndarray) -> float:
    # Shared kernel for kl_divergence and the estimator objectives.
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    pm = p[mask]
    val = float(np.dot(pm, np.log2(pm) - np.log2(q[mask])))
    # Gibbs' inequality guarantees the exact value is nonnegative; tiny
    # negative results are pure rounding.
    return val if val > 0.0 else 0.0


def _probabilities(arr: np.ndarray, rows=None) -> np.ndarray:
    """Enforce the validity rule on a float array the caller owns, in
    place, and return it read-only. The whole array is one distribution,
    or, given a mask ``rows`` over the first axis, each selected row is."""
    body = arr if rows is None else arr[rows]
    if not np.isfinite(body).all():
        raise DistributionError("probabilities must be finite")
    if (body < 0.0).any():
        raise DistributionError("probabilities must be nonnegative")
    if rows is None:
        # a scalar total keeps the common whole-array case cheap per call
        total = float(body.sum())
        off = [total] if abs(total - 1.0) > SUM_TOLERANCE else []
    else:
        total = body.sum(axis=1, keepdims=True)
        off = total[abs(total - 1.0) > SUM_TOLERANCE]
    if len(off):
        raise DistributionError(f"probabilities sum to {float(off[0])!r}, not 1")
    body /= total
    if rows is not None:
        arr[rows] = body
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Simplex:
    """A probability distribution over a finite alphabet of >= 2 symbols."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1:
            raise DistributionError(f"expected a 1-d vector, got shape {arr.shape}")
        if arr.size < 2:
            raise DistributionError("alphabet must have at least 2 symbols")
        object.__setattr__(self, "probs", _probabilities(arr))

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def tv_distance(self, other: "Simplex") -> float:
        """Total-variation distance, half the L1 difference."""
        if len(self) != len(other):
            raise DimensionError("alphabet sizes differ")
        return float(0.5 * np.abs(self.probs - other.probs).sum())

    @staticmethod
    def uniform(n: int) -> "Simplex":
        return Simplex(np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class Joint3:
    """A joint distribution over (x, y, z): a read-only (nx, ny, nz) table."""

    p: np.ndarray
    # tables derived from p, filled on first use by the functions below
    _derived: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        arr = np.array(self.p, dtype=float)
        if arr.ndim != 3:
            raise DistributionError(f"expected a 3-d table, got shape {arr.shape}")
        if any(n < 2 for n in arr.shape):
            raise DistributionError("every alphabet must have at least 2 symbols")
        object.__setattr__(self, "p", _probabilities(arr))

    @property
    def nx(self) -> int:
        return self.p.shape[X_AXIS]

    @property
    def ny(self) -> int:
        return self.p.shape[Y_AXIS]

    @property
    def nz(self) -> int:
        return self.p.shape[Z_AXIS]


def _kept(fn):
    """fn(joint, *args), computed once per joint and argument tuple and
    then kept in the joint's cache. Sharing one result between callers
    is safe because every result fn returns is read-only, as the joint is."""

    @functools.wraps(fn)
    def kept(joint: Joint3, *args):
        key = (fn.__name__, *args)
        cache = joint._derived
        if key not in cache:
            cache[key] = fn(joint, *args)
        return cache[key]

    return kept


def _simplex_view(probs: np.ndarray) -> Simplex:
    # A Simplex over an already validated, read-only row, not renormalized.
    view = object.__new__(Simplex)
    object.__setattr__(view, "probs", probs)
    return view


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """A family of conditional distributions, one row per conditioning symbol.

    ``p`` is a read-only (n_given, n_target) array; rows whose
    conditioning symbol has zero probability are undefined, hold NaN,
    and are False in the read-only ``defined`` mask. The same type
    serves as a channel (every row defined), a posterior table and an
    estimator. The constructor takes a 2-d array or a sequence of rows,
    where a row is a Simplex, a vector, None or all NaN (undefined).
    Every defined row is one distribution under the validity rule, and
    at least one row must be defined.
    """

    p: np.ndarray
    defined: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = self.p
        if not isinstance(rows, np.ndarray):
            rows = [
                None if r is None else np.asarray(getattr(r, "probs", r), dtype=float)
                for r in rows
            ]
            shapes = {r.shape for r in rows if r is not None}
            if len(shapes) > 1:
                raise DimensionError("all defined rows must share one alphabet")
            blank = np.full(shapes.pop() if shapes else 0, math.nan)
            rows = [blank if r is None else r for r in rows]
        arr = np.array(rows, dtype=float, order="C")
        if arr.ndim != 2:
            raise DistributionError(f"expected a 2-d table, got shape {arr.shape}")
        defined = ~np.all(np.isnan(arr), axis=1)
        if not defined.any():
            raise DistributionError("a conditional table needs a defined row")
        if arr.shape[1] < 2:
            raise DistributionError("alphabet must have at least 2 symbols")
        defined.setflags(write=False)
        object.__setattr__(self, "p", _probabilities(arr, defined))
        object.__setattr__(self, "defined", defined)

    @property
    def n_given(self) -> int:
        return self.p.shape[0]

    @property
    def n_target(self) -> int:
        return self.p.shape[1]

    def row(self, i: int) -> Simplex:
        if not self.defined[i]:
            raise UndefinedConditionalError(
                f"conditional is undefined for symbol {i} (zero probability)"
            )
        return _simplex_view(self.p[i])

    @property
    def rows(self) -> tuple:
        """One Simplex per conditioning symbol, None for undefined rows."""
        return tuple(
            _simplex_view(r) if d else None for r, d in zip(self.p, self.defined)
        )

    def tv_distance(self, other: "ConditionalTable") -> float:
        """Largest row-wise TV distance.

        Rows undefined in both tables are skipped; a row defined in only
        one of them counts as +inf.
        """
        if self.n_given != other.n_given:
            raise DimensionError("conditioning alphabets differ")
        if self.n_target != other.n_target:
            raise DimensionError("alphabet sizes differ")
        if np.any(self.defined != other.defined):
            return math.inf
        both = self.defined
        return float(0.5 * np.abs(self.p[both] - other.p[both]).sum(axis=1).max())

    @staticmethod
    def uniform(n_given: int, n_target: int) -> "ConditionalTable":
        return ConditionalTable(np.full((n_given, n_target), 1.0 / n_target))


def entropy(p: Simplex) -> float:
    """Shannon entropy of p in bits."""
    return _table_entropy(p.probs)


def kl_divergence(p: Simplex, q: Simplex) -> float:
    """D(p||q) in bits; +inf when p puts mass where q has none."""
    if len(p) != len(q):
        raise DimensionError("alphabet sizes differ")
    return _kl_from_arrays(p.probs, q.probs)


@_kept
def marginal_x(joint: Joint3) -> Simplex:
    return Simplex(joint.p.sum(axis=(Y_AXIS, Z_AXIS)))


@_kept
def marginal_y(joint: Joint3) -> Simplex:
    return Simplex(joint.p.sum(axis=(X_AXIS, Z_AXIS)))


@_kept
def marginal_z(joint: Joint3) -> Simplex:
    return Simplex(joint.p.sum(axis=(X_AXIS, Y_AXIS)))


@_kept
def _pair_table(joint: Joint3, drop_axis: int) -> np.ndarray:
    out = joint.p.sum(axis=drop_axis)
    out.setflags(write=False)
    return out


def marginal_xy(joint: Joint3) -> np.ndarray:
    """Pairwise joint table over (x, y), read-only."""
    return _pair_table(joint, Z_AXIS)


def marginal_xz(joint: Joint3) -> np.ndarray:
    """Pairwise joint table over (x, z), read-only."""
    return _pair_table(joint, Y_AXIS)


def marginal_yz(joint: Joint3) -> np.ndarray:
    """Pairwise joint table over (y, z), read-only."""
    return _pair_table(joint, X_AXIS)


_AXIS_NAMES = {X_AXIS: "x", Y_AXIS: "y", Z_AXIS: "z"}


@_kept
def conditional(joint: Joint3, target_axis: int, given_axis: int) -> ConditionalTable:
    """P(target | given), one row per conditioning symbol.

    Zero-probability conditioning symbols yield undefined rows.
    """
    if target_axis not in _AXIS_NAMES or given_axis not in _AXIS_NAMES:
        raise DimensionError("axes must be X_AXIS, Y_AXIS or Z_AXIS")
    if target_axis == given_axis:
        raise DimensionError("target and conditioning axes must differ")
    drop = 3 - target_axis - given_axis
    table = joint.p.sum(axis=drop)
    if target_axis < given_axis:
        table = table.T  # reorient to (given, target)
    mass = table.sum(axis=1)[:, None]
    rows = np.divide(table, mass, out=np.full(table.shape, math.nan), where=mass > 0.0)
    return ConditionalTable(rows)


def conditional_entropy(
    joint: Joint3, target_axis: int, given_axes: Union[int, tuple]
) -> float:
    """H(target | given) in bits, the P(given)-weighted average of row
    entropies. Zero-probability conditioning symbols contribute zero.

    ``given_axes`` may be one axis or a tuple of axes, so both H(X|Z)
    and H(X|YZ) are available.
    """
    given = (given_axes,) if isinstance(given_axes, int) else tuple(given_axes)
    return _conditional_entropy(joint, target_axis, given)


@_kept
def _conditional_entropy(joint: Joint3, target_axis: int, given: tuple) -> float:
    if not given:
        raise DimensionError("need at least one conditioning axis")
    axes = {target_axis, *given}
    if len(axes) != 1 + len(given) or not axes <= set(_AXIS_NAMES):
        raise DimensionError("axes must be distinct members of {X,Y,Z}_AXIS")
    # H(T|G) = H(T,G) - H(G); identical to the weighted-row-entropy
    # definition, including its zero-mass convention.
    drop_tg = tuple(a for a in _AXIS_NAMES if a not in axes)
    drop_g = tuple(a for a in _AXIS_NAMES if a not in set(given))
    h_tg = _table_entropy(joint.p.sum(axis=drop_tg) if drop_tg else joint.p)
    h_g = _table_entropy(joint.p.sum(axis=drop_g))
    return h_tg - h_g


def mutual_information(pair_table: np.ndarray) -> float:
    """I between the two axes of a pairwise joint table, in bits."""
    table = np.asarray(pair_table, dtype=float)
    if table.ndim != 2:
        raise DimensionError(f"expected a 2-d table, got shape {table.shape}")
    return (
        _table_entropy(table.sum(axis=1))
        + _table_entropy(table.sum(axis=0))
        - _table_entropy(table)
    )


def conditional_mutual_information(joint: Joint3) -> float:
    """I(X;Z|Y) in bits; zero iff X - Y - Z is a Markov chain."""
    return conditional_entropy(joint, X_AXIS, Y_AXIS) - conditional_entropy(
        joint, X_AXIS, (Y_AXIS, Z_AXIS)
    )
