"""The role-model objective and its solvers, plus the theorem checks.

Setting: a source x is observed twice, as y (rich) and as z (degraded).
A reference estimator publishes the posterior P(x|y); we must publish a
distribution q(x) for every z. The figure of merit for a candidate row
q at a given z is the expected divergence

    ED(q; z) = sum_y P(y|z) D( P(.|y) || q ),

the average KL distance from the reference's output, taken over what the
reference is likely to have seen given our own observation. Averaging
over z with weights P(z) gives the overall score. ``role_model_exact``
returns the closed-form minimizer; ``role_model_numeric`` reaches the
same point by multiplicative-weights descent and exists to corroborate
the formula; the theorem checks validate the two decompositions that
make the objective interpretable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    MarkovViolationError,
    UndefinedConditionalError,
)
from .probability import (
    ConditionalTable,
    Joint3,
    Simplex,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    _kl_from_arrays,
    conditional,
    conditional_entropy,
    conditional_mutual_information,
    marginal_xz,
    marginal_yz,
    marginal_z,
    mutual_information,
)

_LN2 = math.log(2.0)

# A joint is treated as Markov when I(X;Z|Y) does not exceed this.
MARKOV_TOLERANCE = 1e-9

# Posterior rows closer than this in TV distance count as identical
# when grouping z-symbols by the information they carry.
MERGE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class DivergenceReport:
    """Expected divergence of an estimator, overall and per z-symbol.

    ``per_z`` holds (z, weight, divergence) triples for the z-symbols
    with positive probability; ``total`` is exactly the weighted sum of
    the per-symbol divergences.
    """

    total: float
    per_z: tuple

    def divergence_at(self, z: int) -> float:
        for symbol, _, value in self.per_z:
            if symbol == z:
                return value
        raise UndefinedConditionalError(f"symbol {z} has zero probability")


@dataclass(frozen=True, eq=False)
class TheoremCheck:
    """Outcome of one identity or bound check.

    ``gap`` is always lhs - rhs (nan when both sides are infinite).
    ``equality_holds_iff_direct`` is set only by the bound check: it
    records whether equality within tolerance coincided with the
    estimator being the direct posterior.
    """

    lhs: float
    rhs: float
    gap: float
    passed: bool
    tolerance: float
    equality_holds_iff_direct: Optional[bool] = None


def direct_solution(joint: Joint3) -> ConditionalTable:
    """The Bayesian answer to "estimate x from z": one posterior per z.

    Rows for zero-probability z are undefined.
    """
    return conditional(joint, X_AXIS, Z_AXIS)


def _weighted_divergence(weight: np.ndarray, ref: np.ndarray, q: np.ndarray) -> np.ndarray:
    """weight * D(ref || q) in bits, one entry per row pair.

    ``ref`` and ``q`` broadcast against each other and against
    ``weight`` with the x axis last. Conventions are those of
    kl_divergence: 0 * log2(0) = 0, D = +inf where ref has mass and q
    has none, and each divergence is floored at 0 (Gibbs' inequality;
    smaller values are rounding). Entries of zero weight are exactly 0
    whatever ref and q hold there, so undefined (NaN) rows may sit
    under them.

    Each pair is sum_x ref log2 ref - sum_x ref log2 q, with the logs
    taken over each operand's own rows rather than over the broadcast
    (pair, x) table; only the two row sums run over the broadcast.
    """
    pairs = "...x,...x->..."
    neg_entropy = np.einsum(pairs, ref, np.log2(ref, out=np.zeros(ref.shape), where=ref > 0.0))
    # log2 q is left 0 where q has no mass: the term is 0 where ref has
    # none either, and any other pair with such a gap is set to +inf below
    gap = q <= 0.0
    log_q = np.log2(q, out=np.zeros(q.shape), where=~gap)
    divergence = np.maximum(neg_entropy - np.einsum(pairs, ref, log_q), 0.0)
    if gap.any():
        divergence[np.einsum(pairs, ref > 0.0, gap)] = math.inf
    live = weight > 0.0
    out = np.zeros(np.broadcast_shapes(live.shape, divergence.shape))
    return np.multiply(weight, divergence, out=out, where=live)


def _check_estimator(joint: Joint3, estimator: ConditionalTable, live: np.ndarray) -> None:
    # one row over the X alphabet per z, defined wherever P(z) > 0 (live)
    if estimator.n_given != joint.nz:
        raise DimensionError("estimator does not match the Z alphabet")
    if estimator.n_target != joint.nx:
        raise DimensionError("estimator does not match the X alphabet")
    missing = np.flatnonzero(live & ~estimator.defined)
    if missing.size:
        raise UndefinedConditionalError(
            f"estimator row {missing[0]} undefined but P(z) > 0"
        )


def expected_divergence_given_z(joint: Joint3, q: Simplex, z: int) -> float:
    """ED(q; z): the P(y|z)-weighted KL distance from the reference
    posteriors P(.|y) to the single row q. Requires P(z) > 0."""
    if len(q) != joint.nx:
        raise DimensionError("estimator row does not match the X alphabet")
    if not 0 <= z < joint.nz:
        raise DimensionError(f"z symbol {z} out of range")
    weights = conditional(joint, Y_AXIS, Z_AXIS)
    if not weights.defined[z]:
        raise UndefinedConditionalError(f"symbol {z} has zero probability")
    posteriors = conditional(joint, X_AXIS, Y_AXIS).p
    return float(_weighted_divergence(weights.p[z], posteriors, q.probs).sum())


def expected_divergence(joint: Joint3, estimator: ConditionalTable) -> DivergenceReport:
    """Overall expected divergence of an estimator table.

    Every z with positive probability must have a defined row; rows for
    zero-probability z are ignored.
    """
    pz = marginal_z(joint).probs
    _check_estimator(joint, estimator, pz > 0.0)
    weights = conditional(joint, Y_AXIS, Z_AXIS).p  # (z, y), NaN where P(z) = 0
    posteriors = conditional(joint, X_AXIS, Y_AXIS).p  # (y, x)
    per_z = _weighted_divergence(
        weights, posteriors[None, :, :], estimator.p[:, None, :]
    ).sum(axis=1)
    live = np.flatnonzero(pz > 0.0)
    return DivergenceReport(
        total=float(pz[live] @ per_z[live]),
        per_z=tuple(zip(live.tolist(), pz[live].tolist(), per_z[live].tolist())),
    )


def role_model_exact(joint: Joint3) -> ConditionalTable:
    """Closed-form minimizer of the expected divergence, all rows at once.

    Derivation: expanding each KL term splits ED(q; z) into a constant
    (the weighted entropies of the reference posteriors) plus the cross
    entropy -sum_x m_z(x) log2 q(x), where by linearity of the y-average

        m_z(x) = sum_y P(y|z) P(x|y)

    is itself a distribution over x. Gibbs' inequality says a cross
    entropy against m_z is minimized uniquely at q = m_z, so the mixture
    of reference posteriors is the exact argmin; no search is involved.
    In matrix form the table of all m_z is the product P(y|z) @ P(x|y).
    When X - Y - Z is Markov, m_z collapses to the direct posterior
    P(x|z), which is the content of the first decomposition theorem.
    """
    weights = conditional(joint, Y_AXIS, Z_AXIS)
    posteriors = conditional(joint, X_AXIS, Y_AXIS)
    # undefined rows carry zero weight; zero-fill them so 0 * NaN cannot leak
    mix = np.nan_to_num(weights.p, nan=0.0) @ np.nan_to_num(posteriors.p, nan=0.0)
    mix[~weights.defined] = math.nan
    return ConditionalTable(mix)


def _row_objective(weights: np.ndarray, posterior_rows: list, q: np.ndarray) -> float:
    # ED(q; z) evaluated literally as the weighted sum of KL terms.
    total = 0.0
    for w, row in zip(weights, posterior_rows):
        if w > 0.0:
            total += w * _kl_from_arrays(row, q)
    return total


def _descend_row(
    weights: np.ndarray,
    posterior_rows: list,
    nx: int,
    tol: float,
    max_iters: int,
    init: Optional[np.ndarray],
):
    """Multiplicative-weights descent of ED(q; z) over the open simplex.

    Returns (q, objective trace, converged flag). Each iteration takes
    the exact gradient, applies q <- q * exp(-step * g) / norm, and
    backtracks the step until the objective decreases, so the trace is
    nonincreasing by construction. Iterates stay strictly positive;
    coordinates the optimum sends to zero decay geometrically instead,
    which is where the tolerance stops the loop.
    """
    mix = np.zeros(nx)
    for w, row in zip(weights, posterior_rows):
        if w > 0.0:
            mix += w * row

    q = np.full(nx, 1.0 / nx) if init is None else np.array(init, dtype=float)
    f = _row_objective(weights, posterior_rows, q)
    if not math.isfinite(f):
        # init lacks support the objective needs; restart from uniform
        q = np.full(nx, 1.0 / nx)
        f = _row_objective(weights, posterior_rows, q)
    trace = [f]

    converged = False
    for _ in range(max_iters):
        with np.errstate(divide="ignore"):
            grad = np.where(q > 0.0, -mix / np.maximum(q, 1e-300) / _LN2, 0.0)
        step = 1.0
        improved = False
        for _ in range(60):
            expo = -step * grad
            expo -= expo.max()  # overflow guard; shift cancels on normalize
            cand = q * np.exp(expo)
            cand /= cand.sum()
            f_cand = _row_objective(weights, posterior_rows, cand)
            if f_cand < f:
                improved = True
                break
            step *= 0.5
        if not improved:
            # no descent direction left at float precision: stationary
            converged = True
            break
        drop = f - f_cand
        q, f = cand, f_cand
        trace.append(f)
        if drop <= tol:
            converged = True
            break
    return q, trace, converged


def role_model_numeric(
    joint: Joint3,
    tol: float = 1e-12,
    max_iters: int = 10_000,
    init: Optional[ConditionalTable] = None,
) -> ConditionalTable:
    """Iterative minimizer of the expected divergence, row by row.

    Exists to corroborate ``role_model_exact`` through an independent
    mechanism: the objective is evaluated as the literal weighted sum of
    KL terms and minimized by descent, with no use of the closed form.
    Stops a row when one step improves the objective by at most ``tol``.
    A warm ``init`` already at the optimum returns after a single
    no-improvement probe. Raises ConvergenceError, carrying the full
    last iterate, if any row exhausts ``max_iters``.
    """
    if init is not None and init.n_given != joint.nz:
        raise DimensionError("init does not match the Z alphabet")
    pyz = marginal_yz(joint)
    post_rows = list(conditional(joint, X_AXIS, Y_AXIS).p)
    rows = []
    failed = []
    for z in range(joint.nz):
        pz = pyz[:, z].sum()
        if pz <= 0.0:
            rows.append(None)
            continue
        weights = pyz[:, z] / pz
        live_rows = [r if w > 0.0 else np.zeros(joint.nx) for w, r in zip(weights, post_rows)]
        init_row = None
        if init is not None and init.defined[z]:
            init_row = init.p[z]
        q, _, converged = _descend_row(
            weights, live_rows, joint.nx, tol, max_iters, init_row
        )
        rows.append(q)
        if not converged:
            failed.append(z)
    table = ConditionalTable(rows)
    if failed:
        raise ConvergenceError(
            f"descent exhausted {max_iters} iterations for z in {failed}",
            last_estimate=table,
        )
    return table


def check_theorem1(
    joint: Joint3, estimator: ConditionalTable, tolerance: float = 1e-9
) -> TheoremCheck:
    """Check the Markov decomposition of the expected divergence.

    For Markov X - Y - Z the objective splits into an estimator-free
    penalty plus the divergence from the direct posterior:

        ED(P(.|Y) || Q) = H(X|Z) - H(X|Y) + ED(P(.|Z) || Q).

    Raises MarkovViolationError when I(X;Z|Y) exceeds MARKOV_TOLERANCE.
    When both sides are infinite they agree; the gap is recorded as nan.
    """
    cmi = conditional_mutual_information(joint)
    if cmi > MARKOV_TOLERANCE:
        raise MarkovViolationError(
            f"I(X;Z|Y) = {cmi:.3e} exceeds {MARKOV_TOLERANCE:.1e}"
        )
    lhs = expected_divergence(joint, estimator).total

    pz = marginal_z(joint).probs
    residual = _weighted_divergence(pz, direct_solution(joint).p, estimator.p).sum()
    rhs = (
        conditional_entropy(joint, X_AXIS, Z_AXIS)
        - conditional_entropy(joint, X_AXIS, Y_AXIS)
        + residual
    )

    lhs, rhs = float(lhs), float(rhs)
    if math.isinf(lhs) and math.isinf(rhs):
        return TheoremCheck(lhs, rhs, math.nan, True, tolerance)
    gap = lhs - rhs
    return TheoremCheck(lhs, rhs, gap, bool(abs(gap) <= tolerance), tolerance)


def check_theorem2(
    joint: Joint3, estimator: ConditionalTable, tolerance: float = 1e-9
) -> TheoremCheck:
    """Check the general lower bound on divergence from the full posterior.

    Without any Markov assumption,

        ED( P(.|Y,Z) || Q ) >= H(X|Z) - H(X|Y,Z),

    with equality exactly when Q is the direct posterior P(.|Z). The
    check evaluates both sides, passes when lhs >= rhs - tolerance, and
    additionally reports whether observed equality coincided with the
    estimator being the direct solution.
    """
    direct = direct_solution(joint)
    _check_estimator(joint, estimator, direct.defined)
    pyz = marginal_yz(joint)
    cells = np.moveaxis(joint.p, X_AXIS, -1)  # (y, z, x)
    mass = pyz[:, :, None]
    posteriors = np.divide(
        cells, mass, out=np.full(cells.shape, math.nan), where=mass > 0.0
    )
    lhs = _weighted_divergence(pyz, posteriors, estimator.p[None, :, :]).sum()

    rhs = conditional_entropy(joint, X_AXIS, Z_AXIS) - conditional_entropy(
        joint, X_AXIS, (Y_AXIS, Z_AXIS)
    )

    lhs, rhs = float(lhs), float(rhs)
    gap = math.nan if (math.isinf(lhs) and math.isinf(rhs)) else lhs - rhs
    passed = True if math.isinf(lhs) else bool(gap >= -tolerance)

    equality = (not math.isinf(lhs)) and abs(gap) <= tolerance
    live = direct.defined
    worst = 0.5 * np.abs(direct.p[live] - estimator.p[live]).sum(axis=1).max()
    return TheoremCheck(
        lhs, rhs, gap, passed, tolerance, bool(equality == (worst <= tolerance))
    )


def sufficiency_check(joint: Joint3, tolerance: float = 1e-9) -> TheoremCheck:
    """Verify that grouping z-symbols by their posterior loses nothing.

    Symbols whose posteriors P(.|z) agree within MERGE_TOLERANCE in TV
    distance are merged into one class; the check compares I(X; class)
    against I(X; Z). The two agree because the class variable is a
    function of z that preserves the posterior, so it is a sufficient
    statistic for x.
    """
    rows = direct_solution(joint).rows
    pxz = marginal_xz(joint)
    reps = []  # (representative Simplex, class column)
    for z, row in enumerate(rows):
        if row is None:
            continue
        for rep, column in reps:
            if rep.tv_distance(row) <= MERGE_TOLERANCE:
                column += pxz[:, z]
                break
        else:
            reps.append((row, pxz[:, z].copy()))
    if len(reps) < 2:
        # a single class carries no information; compare against I(X;Z) anyway
        class_table = np.column_stack([c for _, c in reps] + [np.zeros(joint.nx)])
    else:
        class_table = np.column_stack([c for _, c in reps])
    lhs = mutual_information(class_table)
    rhs = mutual_information(pxz)
    gap = lhs - rhs
    return TheoremCheck(lhs, rhs, gap, abs(gap) <= tolerance, tolerance)
