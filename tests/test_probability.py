import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rolemodel import (
    ConditionalTable,
    Joint3,
    Simplex,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    conditional,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    kl_divergence,
    marginal_x,
    marginal_xy,
    marginal_xz,
    marginal_y,
    marginal_yz,
    marginal_z,
    mutual_information,
)
from rolemodel.errors import (
    DimensionError,
    DistributionError,
    UndefinedConditionalError,
)

# Binary entropy of 1/3 and the divergence between the two posteriors of
# the cascaded-Z-channel scenario, both computed once from exact fractions.
H_ONE_THIRD = 0.9182958340544896
KL_23_47 = 0.027404921096062504


def random_joint_table(rng, shape):
    cells = rng.standard_exponential(shape)
    return Joint3(cells / cells.sum())


class TestSimplex:
    def test_values_and_access(self):
        p = Simplex([0.25, 0.75])
        assert len(p) == 2
        assert p[1] == 0.75
        np.testing.assert_allclose(p.probs, [0.25, 0.75])

    def test_normalizes_tiny_deviation(self):
        p = Simplex([0.5, 0.5 + 5e-10])
        assert p.probs.sum() == 1.0

    def test_rejects_large_deviation(self):
        with pytest.raises(DistributionError):
            Simplex([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            Simplex([1.2, -0.2])

    def test_rejects_single_symbol(self):
        with pytest.raises(DistributionError):
            Simplex([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DistributionError):
            Simplex([np.inf, 0.0])
        with pytest.raises(DistributionError):
            Simplex([np.nan, 1.0])

    def test_rejects_matrix_input(self):
        with pytest.raises(DistributionError):
            Simplex([[0.5, 0.5]])

    def test_immutable(self):
        p = Simplex([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_uniform(self):
        np.testing.assert_allclose(Simplex.uniform(4).probs, np.full(4, 0.25))

    def test_tv_distance(self):
        a = Simplex([0.5, 0.5])
        b = Simplex([0.8, 0.2])
        assert a.tv_distance(b) == pytest.approx(0.3)
        assert a.tv_distance(a) == 0.0
        with pytest.raises(DimensionError):
            a.tv_distance(Simplex.uniform(3))


class TestJoint3:
    def test_shape_properties(self):
        j = random_joint_table(np.random.default_rng(0), (2, 3, 4))
        assert (j.nx, j.ny, j.nz) == (2, 3, 4)

    def test_rejects_bad_mass(self):
        with pytest.raises(DistributionError):
            Joint3(np.full((2, 2, 2), 0.25))

    def test_rejects_wrong_rank(self):
        with pytest.raises(DistributionError):
            Joint3(np.full((2, 2), 0.25))

    def test_rejects_degenerate_axis(self):
        with pytest.raises(DistributionError):
            Joint3(np.full((1, 2, 2), 0.25))

    def test_immutable(self):
        j = random_joint_table(np.random.default_rng(1), (2, 2, 2))
        with pytest.raises(ValueError):
            j.p[0, 0, 0] = 1.0

    def test_derived_tables_built_once_per_joint(self):
        j = random_joint_table(np.random.default_rng(2), (2, 3, 4))
        post = conditional(j, X_AXIS, Y_AXIS)
        assert conditional(j, X_AXIS, Y_AXIS) is post
        assert marginal_z(j) is marginal_z(j)
        assert marginal_yz(j) is marginal_yz(j)
        for kept in (post.p, post.defined, marginal_z(j).probs, marginal_yz(j)):
            with pytest.raises(ValueError):
                kept.flat[0] = 0.5
        twin = Joint3(j.p)  # equal cells, its own tables
        twin_post = conditional(twin, X_AXIS, Y_AXIS)
        assert twin_post is not post
        assert twin_post.p.tobytes() == post.p.tobytes()
        assert marginal_z(twin) is not marginal_z(j)


class TestConditionalTable:
    def test_from_raw_rows(self):
        m = ConditionalTable(((0.75, 0.25), (0.0, 1.0)))
        assert m.n_given == 2
        assert m.n_target == 2
        assert isinstance(m.row(0), Simplex)
        np.testing.assert_allclose(m.p, [[0.75, 0.25], [0.0, 1.0]])
        assert m.defined.tolist() == [True, True]

    def test_rows_are_validated(self):
        with pytest.raises(DistributionError):
            ConditionalTable(((0.5, 0.2), (0.5, 0.5)))
        with pytest.raises(DistributionError):
            ConditionalTable(((0.5, 0.5), (1.2, -0.2)))
        with pytest.raises(DistributionError):
            ConditionalTable(((0.5, 0.5), (np.nan, 1.0)))
        with pytest.raises(DistributionError):
            ConditionalTable(((1.0,), (1.0,)))

    def test_rows_normalized_like_simplex(self):
        rng = np.random.default_rng(3)
        cells = rng.standard_exponential((20, 9))
        raw = cells / cells.sum(axis=1, keepdims=True)
        table = ConditionalTable(raw)
        for i in range(raw.shape[0]):
            np.testing.assert_array_equal(table.p[i], Simplex(raw[i]).probs)

    def test_rejects_ragged_rows(self):
        with pytest.raises(DimensionError):
            ConditionalTable(((0.5, 0.5), (0.2, 0.3, 0.5)))

    def test_table_immutable(self):
        m = ConditionalTable(((0.5, 0.5), (1.0, 0.0)))
        with pytest.raises(ValueError):
            m.p[0, 0] = 0.0
        with pytest.raises(ValueError):
            m.defined[0] = False
        with pytest.raises(ValueError):
            m.row(0).probs[0] = 0.0

    def test_undefined_row_access(self):
        t = ConditionalTable((Simplex([0.5, 0.5]), None))
        assert t.n_given == 2
        assert t.n_target == 2
        with pytest.raises(UndefinedConditionalError):
            t.row(1)

    def test_undefined_rows_hold_nan(self):
        t = ConditionalTable((None, Simplex([0.25, 0.75])))
        assert t.defined.tolist() == [False, True]
        assert t.rows[0] is None
        np.testing.assert_array_equal(t.p, [[np.nan, np.nan], [0.25, 0.75]])
        # an all-NaN row of an array reads as undefined, so tables round-trip
        again = ConditionalTable(t.p)
        assert again.defined.tolist() == [False, True]
        np.testing.assert_array_equal(again.p, t.p)

    def test_requires_a_defined_row(self):
        with pytest.raises(DistributionError):
            ConditionalTable((None, None))

    def test_defined_rows_share_alphabet(self):
        with pytest.raises(DimensionError):
            ConditionalTable((Simplex([0.5, 0.5]), Simplex([0.2, 0.3, 0.5])))

    def test_tv_distance_skips_shared_undefined(self):
        a = ConditionalTable((Simplex([0.5, 0.5]), None))
        b = ConditionalTable((Simplex([0.4, 0.6]), None))
        assert a.tv_distance(b) == pytest.approx(0.1)

    def test_tv_distance_definedness_mismatch_is_inf(self):
        a = ConditionalTable((Simplex([0.5, 0.5]), None))
        b = ConditionalTable((Simplex([0.5, 0.5]), Simplex([0.5, 0.5])))
        assert a.tv_distance(b) == math.inf

    def test_estimator_uniform(self):
        est = ConditionalTable.uniform(3, 2)
        assert est.n_given == 3
        assert est.defined.all()
        np.testing.assert_allclose(est.p, np.full((3, 2), 0.5))


def stored(kind, table):
    obj = kind(table)
    return obj.probs if kind is Simplex else obj.p


class TestValidityRule:
    """Simplex, Joint3 and each defined ConditionalTable row obey one rule."""

    @pytest.mark.parametrize("kind", [Simplex, Joint3, ConditionalTable])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_normalises_bit_for_bit_and_rejects_invalid(self, kind, data):
        if kind is Simplex:
            shape = (data.draw(st.integers(2, 6), label="n"),)
        elif kind is Joint3:
            shape = tuple(data.draw(st.integers(2, 3), label="n") for _ in range(3))
        else:
            shape = (data.draw(st.integers(1, 4), label="rows"),
                     data.draw(st.integers(2, 5), label="n"))
        size = int(np.prod(shape))
        raw = np.array(
            data.draw(st.lists(st.floats(0.0, 10.0), min_size=size, max_size=size),
                      label="cells")
        ).reshape(shape)
        if kind is ConditionalTable:
            mass = raw.sum(axis=1, keepdims=True)
            undefined = np.array(data.draw(
                st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]),
                label="undefined"))
            undefined[data.draw(st.integers(0, shape[0] - 1), label="kept")] = False
            undefined |= mass[:, 0] == 0.0
            assume(not undefined.all())
            v = np.where(undefined[:, None], np.nan, raw / np.where(mass > 0.0, mass, 1.0))
            ref = v.copy()
            for i in np.flatnonzero(~undefined):
                ref[i] = v[i] / v[i].sum()
        else:
            assume(raw.sum() > 0.0)
            v = raw / raw.sum()
            ref = v / v.sum()
        got = stored(kind, v)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

        at = data.draw(st.sampled_from(np.flatnonzero(~np.isnan(v)).tolist()), label="at")
        negative = -data.draw(st.floats(1e-300, 1.0), label="negative")
        for value in (math.nan, math.inf, -math.inf, negative):
            bad = v.copy()
            bad.flat[at] = value
            with pytest.raises(DistributionError):
                kind(bad)
        factor = data.draw(
            st.one_of(st.floats(0.0, 1.0 - 1e-8), st.floats(1.0 + 1e-8, 10.0)),
            label="factor",
        )
        bad = v.copy()
        if kind is ConditionalTable:
            bad[at // shape[1]] *= factor  # the defined row holding that cell
        else:
            bad *= factor
        with pytest.raises(DistributionError, match="sum to"):
            kind(bad)

        small = list(shape)
        small[data.draw(st.integers(0, 2), label="axis") if kind is Joint3 else -1] = 1
        ones = np.ones(small)  # every distribution in it has mass 1
        with pytest.raises(DistributionError, match="at least 2 symbols"):
            kind(ones if kind is ConditionalTable else ones / ones.size)


class TestEntropy:
    def test_uniform_is_log2_n(self):
        for n in range(2, 7):
            assert entropy(Simplex.uniform(n)) == pytest.approx(math.log2(n), abs=1e-12)

    def test_degenerate_is_zero(self):
        # relies on the 0*log2(0) = 0 convention
        assert entropy(Simplex([1.0, 0.0])) == 0.0

    def test_binary_entropy_of_one_third(self):
        assert entropy(Simplex([2 / 3, 1 / 3])) == pytest.approx(H_ONE_THIRD, abs=1e-13)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 6)
            cells = rng.standard_exponential(n)
            p = Simplex(cells / cells.sum())
            q = Simplex(p.probs[rng.permutation(n)])
            assert entropy(p) == pytest.approx(entropy(q), abs=1e-12)


class TestKLDivergence:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cells = rng.standard_exponential(4)
            p = Simplex(cells / cells.sum())
            assert kl_divergence(p, p) == 0.0

    def test_cascade_posterior_value(self):
        p = Simplex([2 / 3, 1 / 3])
        q = Simplex([4 / 7, 3 / 7])
        assert kl_divergence(p, q) == pytest.approx(KL_23_47, abs=1e-12)

    def test_infinite_off_support(self):
        assert kl_divergence(Simplex([0.5, 0.5]), Simplex([1.0, 0.0])) == math.inf

    def test_zero_mass_in_p_is_ignored(self):
        # q may vanish where p does; only p's support matters
        p = Simplex([1.0, 0.0])
        q = Simplex([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            a = rng.standard_exponential(n)
            b = rng.standard_exponential(n)
            val = kl_divergence(Simplex(a / a.sum()), Simplex(b / b.sum()))
            assert val >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kl_divergence(Simplex.uniform(2), Simplex.uniform(3))


class TestMarginals:
    def test_scenario_a(self, joint_a):
        np.testing.assert_allclose(marginal_z(joint_a).probs, [7 / 8, 1 / 8], atol=1e-15)
        np.testing.assert_allclose(marginal_y(joint_a).probs, [3 / 4, 1 / 4], atol=1e-15)
        np.testing.assert_allclose(marginal_x(joint_a).probs, [0.5, 0.5], atol=1e-15)

    def test_scenario_b(self, joint_b):
        np.testing.assert_allclose(marginal_z(joint_b).probs, [0.5875, 0.4125], atol=1e-15)
        np.testing.assert_allclose(marginal_y(joint_b).probs, [3 / 8, 1 / 4, 3 / 8], atol=1e-15)

    def test_pairwise_tables_reduce_to_single_marginals(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            j = random_joint_table(rng, (3, 2, 4))
            np.testing.assert_allclose(marginal_xy(j).sum(axis=1), marginal_x(j).probs, atol=1e-14)
            np.testing.assert_allclose(marginal_xz(j).sum(axis=0), marginal_z(j).probs, atol=1e-14)
            np.testing.assert_allclose(marginal_yz(j).sum(axis=1), marginal_y(j).probs, atol=1e-14)

    def test_pairwise_tables_immutable(self, joint_a):
        with pytest.raises(ValueError):
            marginal_yz(joint_a)[0, 0] = 1.0


class TestConditional:
    def test_posterior_given_z_cascade(self, joint_a):
        post = conditional(joint_a, X_AXIS, Z_AXIS)
        np.testing.assert_allclose(post.row(0).probs, [4 / 7, 3 / 7], atol=1e-15)
        np.testing.assert_allclose(post.row(1).probs, [0.0, 1.0], atol=1e-15)

    def test_posterior_given_y_cascade(self, joint_a):
        post = conditional(joint_a, X_AXIS, Y_AXIS)
        np.testing.assert_allclose(post.row(0).probs, [2 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(post.row(1).probs, [0.0, 1.0], atol=1e-15)

    def test_posterior_given_z_erasure_scenario(self, joint_b):
        post = conditional(joint_b, X_AXIS, Z_AXIS)
        np.testing.assert_allclose(
            post.row(0).probs, [0.723404255319149, 0.2765957446808511], atol=1e-15
        )
        np.testing.assert_allclose(
            post.row(1).probs, [0.18181818181818182, 0.8181818181818182], atol=1e-15
        )

    def test_zero_probability_symbol_is_undefined(self):
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 0.5
        table[1, 1, 0] = 0.5
        post = conditional(Joint3(table), X_AXIS, Z_AXIS)
        assert post.rows[1] is None
        with pytest.raises(UndefinedConditionalError):
            post.row(1)

    def test_bayes_reconstruction(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            j = random_joint_table(rng, (2, 3, 2))
            post = conditional(j, X_AXIS, Z_AXIS)
            pz = marginal_z(j).probs
            rebuilt = np.vstack([post.row(z).probs * pz[z] for z in range(j.nz)]).T
            np.testing.assert_allclose(rebuilt, marginal_xz(j), atol=1e-14)

    def test_axis_orientation(self):
        rng = np.random.default_rng(17)
        j = random_joint_table(rng, (2, 2, 3))
        fwd = conditional(j, Z_AXIS, X_AXIS)
        assert fwd.n_given == j.nx
        assert fwd.n_target == j.nz
        pxz = marginal_xz(j)
        np.testing.assert_allclose(fwd.row(1).probs, pxz[1] / pxz[1].sum(), atol=1e-14)

    def test_invalid_axes(self, joint_a):
        with pytest.raises(DimensionError):
            conditional(joint_a, X_AXIS, X_AXIS)
        with pytest.raises(DimensionError):
            conditional(joint_a, 3, X_AXIS)


class TestConditionalEntropy:
    def test_cascade_scenario_values(self, joint_a):
        assert conditional_entropy(joint_a, X_AXIS, Y_AXIS) == pytest.approx(
            0.6887218755408672, abs=1e-12
        )
        assert conditional_entropy(joint_a, X_AXIS, Z_AXIS) == pytest.approx(
            0.8620746190299701, abs=1e-12
        )

    def test_erasure_scenario_values(self, joint_b):
        assert conditional_entropy(joint_b, X_AXIS, Y_AXIS) == pytest.approx(0.25, abs=1e-12)
        assert conditional_entropy(joint_b, X_AXIS, Z_AXIS) == pytest.approx(
            0.7819936433323948, abs=1e-12
        )

    def test_matches_weighted_row_entropies(self):
        # dual route: weight each conditioning symbol by its probability
        rng = np.random.default_rng(19)
        for _ in range(20):
            j = random_joint_table(rng, (3, 2, 2))
            post = conditional(j, X_AXIS, Y_AXIS)
            py = marginal_y(j).probs
            direct = sum(
                py[y] * entropy(post.row(y)) for y in range(j.ny) if py[y] > 0
            )
            assert conditional_entropy(j, X_AXIS, Y_AXIS) == pytest.approx(direct, abs=1e-12)

    def test_joint_conditioning_axes(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            j = random_joint_table(rng, (2, 3, 2))
            h_xyz = conditional_entropy(j, X_AXIS, (Y_AXIS, Z_AXIS))
            h_xy = conditional_entropy(j, X_AXIS, Y_AXIS)
            h_x = entropy(marginal_x(j))
            # conditioning never increases entropy
            assert h_xyz <= h_xy + 1e-12
            assert h_xy <= h_x + 1e-12

    def test_invalid_axes(self, joint_a):
        with pytest.raises(DimensionError):
            conditional_entropy(joint_a, X_AXIS, (X_AXIS, Y_AXIS))
        with pytest.raises(DimensionError):
            conditional_entropy(joint_a, X_AXIS, ())


class TestMutualInformation:
    def test_independent_axes_give_zero(self):
        rng = np.random.default_rng(29)
        a = rng.standard_exponential(3)
        b = rng.standard_exponential(4)
        table = np.outer(a / a.sum(), b / b.sum())
        assert mutual_information(table) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            cells = rng.standard_exponential((3, 4))
            table = cells / cells.sum()
            assert mutual_information(table) == pytest.approx(
                mutual_information(table.T), abs=1e-12
            )

    def test_rejects_non_table(self):
        with pytest.raises(DimensionError):
            mutual_information(np.ones(3) / 3)


class TestConditionalMutualInformation:
    def test_zero_on_markov_chains(self, joint_a, joint_b):
        assert abs(conditional_mutual_information(joint_a)) <= 1e-12
        assert abs(conditional_mutual_information(joint_b)) <= 1e-12

    def test_matches_triple_sum(self):
        # dual route: I(X;Z|Y) = sum p(xyz) log2( p(xyz) p(y) / (p(xy) p(yz)) )
        rng = np.random.default_rng(37)
        for _ in range(20):
            j = random_joint_table(rng, (2, 2, 3))
            p = j.p
            py = marginal_y(j).probs
            pxy = marginal_xy(j)
            pyz = marginal_yz(j)
            acc = 0.0
            for x in range(j.nx):
                for y in range(j.ny):
                    for z in range(j.nz):
                        if p[x, y, z] > 0:
                            acc += p[x, y, z] * math.log2(
                                p[x, y, z] * py[y] / (pxy[x, y] * pyz[y, z])
                            )
            assert conditional_mutual_information(j) == pytest.approx(acc, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            j = random_joint_table(rng, (2, 3, 2))
            assert conditional_mutual_information(j) >= -1e-12
