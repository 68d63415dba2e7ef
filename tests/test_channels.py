import numpy as np
import pytest

from rolemodel import (
    ChannelSpec,
    ConditionalTable,
    Joint3,
    Simplex,
    X_AXIS,
    Z_AXIS,
    bec,
    build_joint,
    cascade,
    conditional,
    conditional_mutual_information,
    general_channel,
    marginal_z,
    sample_arrays,
    to_matrix,
    z_channel,
)
from rolemodel.errors import DimensionError, DistributionError


def random_matrix(rng, n_in, n_out):
    cells = rng.standard_exponential((n_in, n_out))
    return ConditionalTable(tuple(row / row.sum() for row in cells))


class TestChannelSpecs:
    def test_z_channel_matrix(self):
        m = to_matrix(z_channel(0.5))
        np.testing.assert_allclose(m.p, [[1.0, 0.0], [0.5, 0.5]])

    def test_z_channel_extremes(self):
        np.testing.assert_allclose(to_matrix(z_channel(0.0)).p, np.eye(2))
        np.testing.assert_allclose(to_matrix(z_channel(1.0)).p, [[1.0, 0.0], [1.0, 0.0]])

    def test_bec_matrix(self):
        m = to_matrix(bec(0.25))
        np.testing.assert_allclose(m.p, [[0.75, 0.25, 0.0], [0.0, 0.25, 0.75]])
        assert m.n_target == 3  # erasure symbol sits between the two outputs

    def test_general_channel_accepts_raw_rows(self):
        spec = general_channel([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]])
        assert spec.input_size == 3
        assert spec.output_size == 2

    def test_general_channel_rejects_single_row(self):
        with pytest.raises(DistributionError):
            general_channel([[0.5, 0.5]])
        with pytest.raises(DistributionError):
            general_channel([[0.5, 0.5], None])

    def test_parameter_range_validation(self):
        with pytest.raises(DistributionError):
            z_channel(1.5)
        with pytest.raises(DistributionError):
            bec(-0.1)

    def test_exactly_one_parameterization(self):
        with pytest.raises(DistributionError):
            ChannelSpec("z_channel")
        with pytest.raises(DistributionError):
            ChannelSpec("z_channel", crossover=0.5, delta=0.1)
        with pytest.raises(DistributionError):
            ChannelSpec("squeeze", crossover=0.5)

    def test_sizes(self):
        assert z_channel(0.3).input_size == 2
        assert bec(0.3).output_size == 3


class TestCascade:
    def test_two_z_channels(self):
        stage = to_matrix(z_channel(0.5))
        np.testing.assert_allclose(cascade(stage, stage).p, [[1.0, 0.0], [0.75, 0.25]])

    def test_erasure_then_ternary_merge(self):
        first = to_matrix(bec(0.25))
        second = to_matrix(general_channel([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]]))
        np.testing.assert_allclose(
            cascade(first, second).p, [[0.85, 0.15], [0.325, 0.675]], atol=1e-15
        )

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(43)
        m = random_matrix(rng, 3, 3)
        eye = ConditionalTable(tuple(np.eye(3)))
        np.testing.assert_allclose(cascade(eye, m).p, m.p, atol=1e-15)
        np.testing.assert_allclose(cascade(m, eye).p, m.p, atol=1e-15)

    def test_associative(self):
        rng = np.random.default_rng(47)
        a, b, c = random_matrix(rng, 2, 3), random_matrix(rng, 3, 4), random_matrix(rng, 4, 2)
        left = cascade(cascade(a, b), c)
        right = cascade(a, cascade(b, c))
        np.testing.assert_allclose(left.p, right.p, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cascade(to_matrix(bec(0.25)), to_matrix(z_channel(0.5)))


class TestBuildJoint:
    def test_cascade_scenario_cells(self, joint_a):
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 0.5
        expected[1, 0, 0] = 0.25
        expected[1, 1, 0] = 0.125
        expected[1, 1, 1] = 0.125
        np.testing.assert_allclose(joint_a.p, expected, atol=1e-15)

    def test_erasure_scenario_posterior(self, joint_b):
        post = conditional(joint_b, X_AXIS, Z_AXIS)
        np.testing.assert_allclose(
            post.row(0).probs, [0.723404255319149, 0.2765957446808511], atol=1e-15
        )
        np.testing.assert_allclose(
            post.row(1).probs, [0.18181818181818182, 0.8181818181818182], atol=1e-15
        )
        np.testing.assert_allclose(marginal_z(joint_b).probs, [0.5875, 0.4125], atol=1e-15)

    def test_markov_by_construction(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            prior_cells = rng.standard_exponential(2)
            prior = Simplex(prior_cells / prior_cells.sum())
            j = build_joint(prior, random_matrix(rng, 2, 3), random_matrix(rng, 3, 2))
            assert abs(conditional_mutual_information(j)) <= 1e-12

    def test_dimension_mismatches(self):
        prior = Simplex([0.5, 0.5])
        m23 = ConditionalTable(((0.5, 0.3, 0.2), (0.1, 0.1, 0.8)))
        with pytest.raises(DimensionError):
            build_joint(Simplex.uniform(3), m23, m23)
        with pytest.raises(DimensionError):
            build_joint(prior, m23, to_matrix(z_channel(0.5)))


class TestSampling:
    def test_deterministic_for_fixed_seed(self, joint_b):
        a = sample_arrays(joint_b, seed=123, n=500)
        b = sample_arrays(joint_b, seed=123, n=500)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)

    def test_seeds_differ(self, joint_b):
        a = sample_arrays(joint_b, seed=1, n=500)
        b = sample_arrays(joint_b, seed=2, n=500)
        assert any(not np.array_equal(u, v) for u, v in zip(a, b))

    def test_empirical_frequencies(self, joint_b):
        n = 1_000_000
        xs, ys, zs = sample_arrays(joint_b, seed=7, n=n)
        counts = np.zeros_like(joint_b.p)
        np.add.at(counts, (xs, ys, zs), 1.0)
        np.testing.assert_allclose(counts / n, joint_b.p, atol=0.005)

    def test_support_respected(self, joint_a):
        # cells with zero probability must never be drawn
        xs, ys, zs = sample_arrays(joint_a, seed=21, n=200_000)
        drawn = set(zip(xs.tolist(), ys.tolist(), zs.tolist()))
        support = {tuple(idx) for idx in np.argwhere(joint_a.p > 0)}
        assert drawn <= support

    def test_mean_error_across_seeds(self, joint_b):
        n = 100_000
        errs = []
        for seed in range(100):
            xs, ys, zs = sample_arrays(joint_b, seed=seed, n=n)
            counts = np.zeros_like(joint_b.p)
            np.add.at(counts, (xs, ys, zs), 1.0)
            errs.append(np.abs(counts / n - joint_b.p).mean())
        assert float(np.mean(errs)) < 0.01

    def test_zero_draws(self, joint_a):
        xs, ys, zs = sample_arrays(joint_a, seed=0, n=0)
        assert len(xs) == len(ys) == len(zs) == 0

    def test_negative_count_rejected(self, joint_a):
        with pytest.raises(DimensionError):
            sample_arrays(joint_a, seed=0, n=-1)
