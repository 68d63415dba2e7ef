import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rolemodel import (
    ConditionalTable,
    Joint3,
    Simplex,
    X_AXIS,
    Z_AXIS,
    build_joint,
    check_theorem1,
    check_theorem2,
    conditional,
    direct_solution,
    expected_divergence,
    expected_divergence_given_z,
    kl_divergence,
    marginal_z,
    role_model_exact,
    role_model_numeric,
    sufficiency_check,
)
from rolemodel.estimators import _descend_row, _weighted_divergence
from rolemodel.probability import _kl_from_arrays
from rolemodel.errors import (
    ConvergenceError,
    DimensionError,
    MarkovViolationError,
    UndefinedConditionalError,
)

# Cascaded-Z-channel scenario constants, from exact fractions.
H_ONE_THIRD = 0.9182958340544896
ED_OPT_A = 0.1733527434891029          # H(X|Z) - H(X|Y)
ED_Z0_AT_OPT_A = 0.1981174211304033    # ED(q; z=0) at q = (4/7, 3/7)
ED_OPT_B = 0.5319936433323948          # erasure scenario optimum


def random_joint_table(rng, shape):
    cells = rng.standard_exponential(shape)
    return Joint3(cells / cells.sum())


def random_markov_joint(rng, nx, ny, nz):
    prior = rng.standard_exponential(nx)
    xy = rng.standard_exponential((nx, ny))
    yz = rng.standard_exponential((ny, nz))
    return build_joint(
        Simplex(prior / prior.sum()),
        ConditionalTable(tuple(r / r.sum() for r in xy)),
        ConditionalTable(tuple(r / r.sum() for r in yz)),
    )


def random_estimator(rng, nz, nx):
    cells = rng.standard_exponential((nz, nx))
    return ConditionalTable(tuple(Simplex(r / r.sum()) for r in cells))


def closed_form_ed_z0(q0):
    # cascade scenario, z = 0: the objective as an explicit function of q(0)
    return -(6 / 7) * H_ONE_THIRD - (4 / 7) * math.log2(q0) - (3 / 7) * math.log2(1 - q0)


class TestDirectSolution:
    def test_cascade_scenario(self, joint_a):
        direct = direct_solution(joint_a)
        np.testing.assert_allclose(direct.row(0).probs, [4 / 7, 3 / 7], atol=1e-15)
        np.testing.assert_allclose(direct.row(1).probs, [0.0, 1.0], atol=1e-15)

    def test_erasure_scenario(self, joint_b):
        direct = direct_solution(joint_b)
        np.testing.assert_allclose(
            direct.row(0).probs, [0.723404255319149, 0.2765957446808511], atol=1e-15
        )
        np.testing.assert_allclose(
            direct.row(1).probs, [0.18181818181818182, 0.8181818181818182], atol=1e-15
        )

    def test_zero_probability_symbol_undefined(self):
        table = np.zeros((2, 2, 3))
        table[0, 0, 0] = 0.5
        table[1, 1, 1] = 0.5
        direct = direct_solution(Joint3(table))
        assert direct.rows[2] is None


class TestExpectedDivergence:
    def test_value_at_optimum_cascade(self, joint_a):
        q = Simplex([4 / 7, 3 / 7])
        assert expected_divergence_given_z(joint_a, q, 0) == pytest.approx(
            ED_Z0_AT_OPT_A, abs=1e-12
        )
        # at the deterministic symbol the optimum is exact
        assert expected_divergence_given_z(joint_a, Simplex([0.0, 1.0]), 1) == 0.0

    def test_closed_form_agreement(self, joint_a):
        for q0 in np.linspace(0.02, 0.98, 49):
            got = expected_divergence_given_z(joint_a, Simplex([q0, 1 - q0]), 0)
            assert got == pytest.approx(closed_form_ed_z0(q0), abs=1e-12)

    def test_total_at_optimum(self, joint_a, joint_b):
        report_a = expected_divergence(joint_a, direct_solution(joint_a))
        assert report_a.total == pytest.approx(ED_OPT_A, abs=1e-12)
        report_b = expected_divergence(joint_b, direct_solution(joint_b))
        assert report_b.total == pytest.approx(ED_OPT_B, abs=1e-12)

    def test_report_weights_and_total_consistent(self, joint_b):
        rng = np.random.default_rng(61)
        est = random_estimator(rng, joint_b.nz, joint_b.nx)
        report = expected_divergence(joint_b, est)
        weights = [w for _, w, _ in report.per_z]
        np.testing.assert_allclose(weights, marginal_z(joint_b).probs, atol=1e-15)
        recomputed = sum(w * d for _, w, d in report.per_z)
        assert report.total == pytest.approx(recomputed, abs=1e-15)
        assert report.divergence_at(0) == report.per_z[0][2]

    def test_matches_triple_sum(self):
        # dual route: sum_{y,z} P(y,z) D(P(.|y) || q_z) expanded cell by cell
        rng = np.random.default_rng(67)
        for _ in range(10):
            j = random_joint_table(rng, (2, 3, 2))
            est = random_estimator(rng, j.nz, j.nx)
            p = j.p
            pyz = p.sum(axis=0)
            py = p.sum(axis=(0, 2))
            acc = 0.0
            for y in range(j.ny):
                post = p[:, y, :].sum(axis=1) / py[y]
                for z in range(j.nz):
                    for x in range(j.nx):
                        if post[x] > 0:
                            acc += pyz[y, z] * post[x] * math.log2(
                                post[x] / est.row(z)[x]
                            )
            assert expected_divergence(j, est).total == pytest.approx(acc, abs=1e-10)

    def test_zero_mass_symbols_match_term_by_term(self):
        # a y and a z that never occur, plus scattered zero cells: undefined
        # rows must contribute nothing and 0 * NaN must not leak into sums
        rng = np.random.default_rng(113)
        for _ in range(20):
            cells = rng.standard_exponential((3, 4, 3)) * (rng.random((3, 4, 3)) < 0.7)
            cells[:, 1, :] = 0.0
            cells[:, :, 2] = 0.0
            cells[0, 0, 0] = cells[1, 2, 1] = 1.0
            j = Joint3(cells / cells.sum())
            rows = rng.uniform(0.05, 1.0, size=(2, 3))
            est = ConditionalTable([r / r.sum() for r in rows] + [None])
            p = j.p
            pyz = p.sum(axis=0)
            post = conditional(j, X_AXIS, 1)
            live = [(y, z) for y in range(4) for z in range(3) if pyz[y, z] > 0]
            want = sum(pyz[y, z] * kl_divergence(post.row(y), est.row(z)) for y, z in live)
            assert expected_divergence(j, est).total == pytest.approx(want, abs=1e-12)
            want = sum(
                pyz[y, z] * kl_divergence(Simplex(p[:, y, z] / pyz[y, z]), est.row(z))
                for y, z in live
            )
            assert check_theorem2(j, est).lhs == pytest.approx(want, abs=1e-12)
            exact = role_model_exact(j)
            assert exact.rows[2] is None
            for z in range(2):
                w = pyz[:, z] / pyz[:, z].sum()
                mix = sum(w[y] * post.row(y).probs for y in range(4) if w[y] > 0)
                np.testing.assert_allclose(exact.row(z).probs, mix, atol=1e-14)

    def test_infinite_when_estimator_lacks_support(self, joint_a):
        est = ConditionalTable((Simplex([1.0, 0.0]), Simplex([1.0, 0.0])))
        assert expected_divergence(joint_a, est).total == math.inf

    def test_errors(self, joint_a):
        with pytest.raises(DimensionError):
            expected_divergence_given_z(joint_a, Simplex.uniform(3), 0)
        with pytest.raises(DimensionError):
            expected_divergence_given_z(joint_a, Simplex.uniform(2), 5)
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 0.5
        table[1, 1, 0] = 0.5
        j = Joint3(table)
        with pytest.raises(UndefinedConditionalError):
            expected_divergence_given_z(j, Simplex.uniform(2), 1)
        with pytest.raises(UndefinedConditionalError):
            expected_divergence(j, ConditionalTable((None, Simplex.uniform(2))))


# (weight, ref, q) shapes of _weighted_divergence's callers, from the
# sizes (x, y, z): expected_divergence_given_z, expected_divergence,
# check_theorem1's residual and check_theorem2's left side
KERNEL_SHAPES = {
    "given_z": lambda x, y, z: ((y,), (y, x), (x,)),
    "per_z": lambda x, y, z: ((z, y), (1, y, x), (z, 1, x)),
    "residual": lambda x, y, z: ((z,), (z, x), (z, x)),
    "posterior": lambda x, y, z: ((y, z), (y, z, x), (1, z, x)),
}


def _draw_cells(data, shape, label):
    size = int(np.prod(shape))
    cells = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=size, max_size=size)
    return np.array(data.draw(cells, label=label)).reshape(shape)


def _draw_rows(data, shape, label):
    """Distribution rows along the last axis, with zero cells and some
    rows left NaN (undefined)."""
    rows = _draw_cells(data, shape, label).reshape(-1, shape[-1])
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    nan = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)),
                    label=f"{label} undefined")
    rows[np.array(nan)] = math.nan
    return rows.reshape(shape)


class TestWeightedDivergence:
    """The vectorised kernel against a literal loop of kl_divergence terms."""

    @pytest.mark.parametrize("caller", sorted(KERNEL_SHAPES))
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_per_pair_loop(self, caller, data):
        sizes = [data.draw(st.integers(2, 6), label=axis) for axis in "xyz"]
        w_shape, ref_shape, q_shape = KERNEL_SHAPES[caller](*sizes)
        ref = _draw_rows(data, ref_shape, "ref")
        # for the residual, q may be the direct estimator itself, or one
        # computed another way and an ulp off: every pair is 0 up to rounding
        q_kind = "drawn" if caller != "residual" else data.draw(
            st.sampled_from(["drawn", "ref", "ref + 1 ulp"]), label="q")
        if q_kind == "drawn":
            q = _draw_rows(data, q_shape, "q")
        else:
            q = ref.copy() if q_kind == "ref" else np.nextafter(ref, 2.0)
        weight = _draw_cells(data, w_shape, "weight")
        # an undefined row may only sit under zero weight
        weight[np.isnan(ref).any(axis=-1) | np.isnan(q).any(axis=-1)] = 0.0

        got = _weighted_divergence(weight, ref, q)
        assert got.shape == w_shape and (got >= 0.0).all()  # no NaN, no negative pair
        refs, qs = np.broadcast_arrays(ref, q)
        for pair in np.ndindex(w_shape):
            w = weight[pair]
            want = w * _kl_from_arrays(refs[pair], qs[pair]) if w > 0.0 else 0.0
            if math.isinf(want):
                assert got[pair] == math.inf, pair
            else:
                assert abs(got[pair] - want) <= max(1e-12 * want, 1e-15), (pair, got[pair], want)


class TestRoleModelExact:
    def test_equals_direct_posterior_on_markov_chains(self, joint_a, joint_b):
        for j in (joint_a, joint_b):
            assert role_model_exact(j).tv_distance(direct_solution(j)) <= 1e-12

    def test_random_markov_sweep(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            j = random_markov_joint(rng, 2, 3, 2)
            assert role_model_exact(j).tv_distance(direct_solution(j)) <= 1e-12

    def test_is_mixture_of_reference_posteriors(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            j = random_joint_table(rng, (3, 2, 2))
            table = role_model_exact(j)
            pyz = j.p.sum(axis=0)
            post_xy = conditional(j, X_AXIS, 1)
            for z in range(j.nz):
                w = pyz[:, z] / pyz[:, z].sum()
                mix = sum(w[y] * post_xy.row(y).probs for y in range(j.ny) if w[y] > 0)
                np.testing.assert_allclose(table.row(z).probs, mix, atol=1e-14)

    def test_beats_perturbations(self):
        # argmin property, checked against the objective itself
        rng = np.random.default_rng(79)
        for _ in range(10):
            j = random_joint_table(rng, (2, 2, 2))
            best = role_model_exact(j)
            base = expected_divergence(j, best).total
            for _ in range(10):
                direction = rng.normal(size=2) * 0.05
                rows = []
                for z in range(2):
                    q = np.clip(best.row(z).probs + direction, 1e-9, None)
                    rows.append(Simplex(q / q.sum()))
                assert expected_divergence(j, ConditionalTable(tuple(rows))).total >= base - 1e-12

    def test_zero_probability_symbol_undefined(self):
        table = np.zeros((2, 2, 3))
        table[0, 0, 0] = 0.5
        table[1, 1, 1] = 0.5
        assert role_model_exact(Joint3(table)).rows[2] is None


class TestRoleModelNumeric:
    def test_matches_exact_on_scenarios(self, joint_a, joint_b):
        for j in (joint_a, joint_b):
            numeric = role_model_numeric(j)
            assert numeric.tv_distance(role_model_exact(j)) <= 1e-6

    def test_matches_exact_on_random_joints(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            j = random_joint_table(rng, (2, 3, 2))
            assert role_model_numeric(j).tv_distance(role_model_exact(j)) <= 1e-6

    def test_objective_trace_is_monotone(self):
        rng = np.random.default_rng(89)
        j = random_joint_table(rng, (3, 3, 2))
        pyz = j.p.sum(axis=0)
        post = conditional(j, X_AXIS, 1)
        for z in range(j.nz):
            w = pyz[:, z] / pyz[:, z].sum()
            rows = [post.row(y).probs if w[y] > 0 else np.zeros(3) for y in range(j.ny)]
            _, trace, converged = _descend_row(w, rows, 3, 1e-12, 10_000, None)
            assert converged
            assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_warm_start_at_optimum_returns_immediately(self, joint_b):
        exact = role_model_exact(joint_b)
        warm = role_model_numeric(joint_b, init=exact)
        assert warm.tv_distance(exact) <= 1e-9
        pyz = joint_b.p.sum(axis=0)
        post = conditional(joint_b, X_AXIS, 1)
        w = pyz[:, 0] / pyz[:, 0].sum()
        rows = [post.row(y).probs for y in range(joint_b.ny)]
        _, trace, converged = _descend_row(
            w, rows, 2, 1e-12, 10_000, exact.row(0).probs
        )
        assert converged
        assert len(trace) <= 2

    def test_init_without_needed_support_recovers(self, joint_a):
        # a zero where the optimum needs mass would pin the objective at +inf
        bad = ConditionalTable((Simplex([0.0, 1.0]), Simplex([0.0, 1.0])))
        numeric = role_model_numeric(joint_a, init=bad)
        assert numeric.tv_distance(role_model_exact(joint_a)) <= 1e-6

    def test_budget_exhaustion_carries_last_iterate(self, joint_b):
        with pytest.raises(ConvergenceError) as err:
            role_model_numeric(joint_b, tol=0.0, max_iters=1)
        last = err.value.last_estimate
        assert isinstance(last, ConditionalTable)
        assert last.n_given == joint_b.nz

    def test_init_shape_checked(self, joint_b):
        with pytest.raises(DimensionError):
            role_model_numeric(joint_b, init=ConditionalTable.uniform(3, 2))


class TestTheorem1:
    def test_identity_on_random_markov_chains(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            j = random_markov_joint(rng, 2, 3, 2)
            est = random_estimator(rng, j.nz, j.nx)
            check = check_theorem1(j, est)
            assert check.passed
            assert abs(check.gap) <= 1e-9

    def test_direct_estimator_recovers_entropy_penalty(self, joint_a):
        check = check_theorem1(joint_a, direct_solution(joint_a))
        assert check.passed
        assert check.lhs == pytest.approx(ED_OPT_A, abs=1e-12)
        assert check.rhs == pytest.approx(ED_OPT_A, abs=1e-12)

    def test_rejects_non_markov_joint(self):
        rng = np.random.default_rng(101)
        j = random_joint_table(rng, (2, 2, 2))
        est = random_estimator(rng, 2, 2)
        with pytest.raises(MarkovViolationError):
            check_theorem1(j, est)

    def test_both_sides_infinite_agree(self, joint_a):
        est = ConditionalTable((Simplex([1.0, 0.0]), Simplex([1.0, 0.0])))
        check = check_theorem1(joint_a, est)
        assert check.passed
        assert math.isinf(check.lhs) and math.isinf(check.rhs)
        assert math.isnan(check.gap)


class TestTheorem2:
    def test_direct_estimator_achieves_bound(self, joint_b):
        check = check_theorem2(joint_b, direct_solution(joint_b))
        assert check.passed
        assert abs(check.gap) <= 1e-9
        assert check.equality_holds_iff_direct

    def test_bound_on_random_joints(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            j = random_joint_table(rng, (2, 2, 3))
            est = random_estimator(rng, j.nz, j.nx)
            check = check_theorem2(j, est)
            assert check.passed
            assert check.gap >= -1e-9
            assert check.equality_holds_iff_direct

    def test_perturbation_opens_strict_gap(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            j = random_joint_table(rng, (2, 2, 2))
            direct = direct_solution(j)
            rows = []
            for z in range(j.nz):
                q = np.clip(direct.row(z).probs + np.array([0.02, -0.02]), 1e-6, None)
                rows.append(Simplex(q / q.sum()))
            check = check_theorem2(j, ConditionalTable(tuple(rows)))
            assert check.passed
            assert check.gap > 1e-7
            assert check.equality_holds_iff_direct

    def test_infinite_lhs_still_passes(self, joint_b):
        est = ConditionalTable((Simplex([1.0, 0.0]), Simplex([1.0, 0.0])))
        check = check_theorem2(joint_b, est)
        assert check.passed
        assert math.isinf(check.lhs)

    def test_undefined_row_with_mass_rejected(self, joint_b):
        est = ConditionalTable((Simplex.uniform(2), None))
        with pytest.raises(UndefinedConditionalError):
            check_theorem2(joint_b, est)


class TestSufficiencyCheck:
    def test_engineered_duplicate_symbols(self, joint_a):
        # split z = 1 into two half-mass copies: identical posteriors, bit for bit
        p = joint_a.p
        table = np.zeros((2, 2, 3))
        table[:, :, 0] = p[:, :, 0]
        table[:, :, 1] = p[:, :, 1] / 2
        table[:, :, 2] = p[:, :, 1] / 2
        check = sufficiency_check(Joint3(table))
        assert check.passed
        assert abs(check.gap) <= 1e-12
        # merging must reproduce the unsplit information
        assert check.lhs == pytest.approx(check.rhs, abs=1e-12)

    def test_random_joints(self):
        rng = np.random.default_rng(109)
        for _ in range(30):
            j = random_joint_table(rng, (2, 2, 4))
            check = sufficiency_check(j)
            assert check.passed

    def test_constant_posterior_collapses_to_single_class(self):
        # X independent of Z: every posterior equals the prior
        prior = np.array([0.3, 0.7])
        pz = np.array([0.25, 0.75])
        table = np.einsum("x,z->xz", prior, pz)[:, None, :] * np.array([1.0])[None, :, None]
        j = Joint3(np.concatenate([table / 2, table / 2], axis=1))
        check = sufficiency_check(j)
        assert check.passed
        assert abs(check.lhs) <= 1e-12
        assert abs(check.rhs) <= 1e-12
