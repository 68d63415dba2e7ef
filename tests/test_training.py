import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rolemodel import training
from rolemodel import (
    ConditionalTable,
    RoleModelOracle,
    Simplex,
    TrainerConfig,
    TrainerState,
    X_AXIS,
    Y_AXIS,
    build_joint,
    conditional,
    kl_divergence,
    role_model_exact,
    sample_arrays,
    train_run,
    train_step,
    windowed_divergence,
    windowed_gradient,
)
from rolemodel.errors import (
    DimensionError,
    DistributionError,
    EmptyWindowError,
    UndefinedConditionalError,
)

LN2 = math.log(2.0)

# Erasure-scenario optimum, from exact fractions: 34/47 and 9/11.
Q0_B = 0.7234042553191489
Q1_B = 0.8181818181818182
ED_OPT_B = 0.5319936433323948


@pytest.fixture(scope="module")
def oracle_b(joint_b):
    return RoleModelOracle.from_joint(joint_b)


@pytest.fixture(scope="module")
def joint_ternary():
    """3-symbol source, so training exercises the projection path."""
    xy = ConditionalTable([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    yz = ConditionalTable([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    return build_joint(Simplex.uniform(3), xy, yz)


def window_config(m):
    return TrainerConfig(window=m, start_step=m + 1, n_samples=1)


def binary_state(p_rows, window, oracle, buffer=()):
    est = ConditionalTable(tuple(Simplex((p, 1.0 - p)) for p in p_rows))
    return TrainerState(est, window_config(window), oracle, buffer)


def stochastic_rows(n, nx):
    """n random interior rows over nx symbols, each entry at least 0.05 / nx."""
    cells = st.lists(st.floats(0.05, 1.0), min_size=nx, max_size=nx)
    return st.lists(cells, min_size=n, max_size=n).map(
        lambda rows: np.array(rows) / np.sum(rows, axis=1, keepdims=True)
    )


def direct_divergence(state, oracle):
    # the definition, term by term over the raw buffer
    est = state.est
    total = 0.0
    for y, z in state.window_buffer:
        total += kl_divergence(oracle.posterior_xy.row(y), est.row(z))
    return total / len(state.window_buffer)


class TestOracle:
    def test_rows_match_posterior(self, joint_b):
        oracle = RoleModelOracle.from_joint(joint_b)
        table = conditional(joint_b, X_AXIS, Y_AXIS)
        for y in range(joint_b.ny):
            np.testing.assert_allclose(
                oracle.posterior_xy.row(y).probs, table.row(y).probs, atol=1e-15
            )
        assert oracle.n_y == 3
        assert oracle.n_x == 2

    def test_zero_mass_y_rejected(self):
        # middle y never occurs
        xy = ConditionalTable([[0.5, 0.0, 0.5], [0.5, 0.0, 0.5]])
        yz = ConditionalTable([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        joint = build_joint(Simplex.uniform(2), xy, yz)
        with pytest.raises(UndefinedConditionalError):
            RoleModelOracle.from_joint(joint)

    def test_direct_construction_rejects_undefined_row(self):
        table = ConditionalTable([[0.5, 0.5], [math.nan, math.nan], [0.2, 0.8]])
        with pytest.raises(UndefinedConditionalError):
            RoleModelOracle(table)


class TestConfig:
    def test_defaults(self):
        cfg = TrainerConfig(n_samples=1000)
        assert cfg.window == 100
        assert cfg.start_step == 101
        assert cfg.step_size_initial == 0.05
        assert cfg.step_size_tau == 1000.0
        assert cfg.clamp_epsilon == 1e-2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0},
            {"n_samples": 10, "seed": -1},
            {"n_samples": 10, "window": 0},
            {"n_samples": 10, "window": 100, "start_step": 100},
            {"n_samples": 10, "step_size_initial": 0.0},
            {"n_samples": 10, "step_size_tau": 0.0},
            {"n_samples": 10, "clamp_epsilon": 0.0},
            {"n_samples": 10, "clamp_epsilon": 0.5},
            {"n_samples": 10, "step_size_initial": math.nan},
            {"n_samples": 10, "step_size_initial": math.inf},
            {"n_samples": 10, "step_size_tau": math.nan},
            {"n_samples": 10, "step_size_tau": math.inf},
            {"n_samples": 10, "clamp_epsilon": math.nan},
            {"n_samples": 300.5},
            {"n_samples": 300, "seed": 1.5},
            {"n_samples": 300, "window": 2.5},
            {"n_samples": 300, "start_step": 101.5},
            {"n_samples": 300, "seed": None},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DistributionError):
            TrainerConfig(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        cfg = TrainerConfig(n_samples=np.int64(300), seed=np.int32(2), window=np.int64(5),
                            start_step=np.uint8(6))
        assert (cfg.n_samples, cfg.seed, cfg.window, cfg.start_step) == (300, 2, 5, 6)

    def test_start_step_may_equal_window_plus_one(self):
        cfg = TrainerConfig(n_samples=10, window=5, start_step=6)
        assert cfg.start_step == 6

    def test_init_rows_must_be_defined(self):
        est = ConditionalTable((Simplex([0.5, 0.5]), None))
        with pytest.raises(DistributionError):
            TrainerConfig(n_samples=10, init=est)


class TestState:
    def test_rejects_undefined_rows(self, oracle_b):
        est = ConditionalTable((None, Simplex([0.5, 0.5])))
        with pytest.raises(DistributionError):
            TrainerState(est, window_config(10), oracle_b)

    def test_oracle_alphabet_mismatch_rejected(self, joint_ternary):
        # checked once, on construction, before any sample arrives
        ternary = RoleModelOracle.from_joint(joint_ternary)
        with pytest.raises(DimensionError):
            TrainerState(ConditionalTable.uniform(2, 2), window_config(10), ternary)

    def test_epsilon_infeasible_rejected_on_construction(self, joint_ternary):
        # 0.4 * 3 >= 1: no row fits the clamp; refused before any sample arrives
        ternary = RoleModelOracle.from_joint(joint_ternary)
        cfg = TrainerConfig(n_samples=200, clamp_epsilon=0.4)
        with pytest.raises(DistributionError, match="clamp_epsilon"):
            TrainerState(ConditionalTable.uniform(2, 3), cfg, ternary)

    def test_buffer_preseed_keeps_last_window(self, oracle_b):
        pairs = [(0, 0), (1, 1), (2, 0), (0, 1), (1, 0)]
        state = binary_state([0.6, 0.4], 3, oracle_b, buffer=pairs)
        assert list(state.window_buffer) == pairs[-3:]
        ref = binary_state([0.6, 0.4], 3, oracle_b, buffer=pairs[-3:])
        assert windowed_divergence(state) == pytest.approx(
            windowed_divergence(ref), rel=1e-12
        )

    def test_est_round_trips_params(self, oracle_b):
        state = binary_state([0.3, 0.8], 5, oracle_b)
        assert state.params() == (0.3, 0.7, 0.8, 1.0 - 0.8)
        assert [r.probs[0] for r in state.est.rows] == [0.3, 0.8]


class TestWindowedDivergence:
    def test_empty_window_raises(self, oracle_b):
        state = binary_state([0.5, 0.5], 10, oracle_b)
        with pytest.raises(EmptyWindowError):
            windowed_divergence(state)

    def test_single_sample_is_plain_divergence(self, oracle_b):
        state = binary_state([0.6, 0.4], 1, oracle_b, buffer=[(0, 1)])
        want = kl_divergence(oracle_b.posterior_xy.row(0), Simplex([0.4, 0.6]))
        assert windowed_divergence(state) == pytest.approx(want, rel=1e-12)

    def test_zero_when_estimator_matches_lone_posterior(self, oracle_b):
        row = oracle_b.posterior_xy.row(1)
        state = binary_state([float(row.probs[0])], 4, oracle_b, buffer=[(1, 0)] * 4)
        assert abs(windowed_divergence(state)) < 1e-12

    def test_boundary_gives_infinity(self, oracle_b):
        # the erasure posterior needs both x-symbols; q starves x=1
        state = binary_state([1.0], 2, oracle_b, buffer=[(1, 0), (1, 0)])
        assert windowed_divergence(state) == math.inf

    def test_matches_direct_recompute_binary(self, joint_b, oracle_b):
        cfg = TrainerConfig(n_samples=2500, seed=11, window=60, start_step=61)
        state = binary_state([0.5, 0.5], 60, oracle_b)
        _, ys, zs = sample_arrays(joint_b, cfg.seed, cfg.n_samples)
        for k, pair in enumerate(zip(ys.tolist(), zs.tolist())):
            train_step(state, pair)
            if k >= 59 and k % 17 == 0:
                assert windowed_divergence(state) == pytest.approx(
                    direct_divergence(state, oracle_b), abs=1e-9
                )

    def test_matches_direct_recompute_ternary(self, joint_ternary):
        oracle = RoleModelOracle.from_joint(joint_ternary)
        cfg = TrainerConfig(n_samples=1500, seed=5, window=40, start_step=41)
        state = TrainerState(ConditionalTable.uniform(2, 3), cfg, oracle)
        _, ys, zs = sample_arrays(joint_ternary, cfg.seed, cfg.n_samples)
        for k, pair in enumerate(zip(ys.tolist(), zs.tolist())):
            train_step(state, pair)
            if k >= 39 and k % 13 == 0:
                assert windowed_divergence(state) == pytest.approx(
                    direct_divergence(state, oracle), abs=1e-9
                )


class TestWindowedGradient:
    def test_absent_group_component_is_exact_zero(self, oracle_b):
        state = binary_state([0.5, 0.5], 8, oracle_b, buffer=[(0, 0), (1, 0), (2, 0)])
        grad = windowed_gradient(state)
        assert grad[1] == 0.0

    def test_zero_at_window_average_posterior(self, oracle_b):
        pairs = [(0, 0), (1, 0), (2, 0), (0, 0)]
        w0 = sum(float(oracle_b.posterior_xy.row(y).probs[0]) for y, _ in pairs)
        state = binary_state([w0 / len(pairs), 0.5], 10, oracle_b, buffer=pairs)
        grad = windowed_gradient(state)
        assert abs(grad[0]) < 1e-12

    def test_boundary_raises(self, oracle_b):
        state = binary_state([0.0, 0.5], 4, oracle_b, buffer=[(0, 0)])
        with pytest.raises(DistributionError):
            windowed_gradient(state)

    def test_finite_differences_binary(self, oracle_b):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(20):
            m = int(rng.integers(3, 40))
            pairs = [
                (int(rng.integers(0, 3)), int(rng.integers(0, 2))) for _ in range(m)
            ]
            p = rng.uniform(0.05, 0.95, size=2)
            state = binary_state(p, m, oracle_b, buffer=pairs)
            grad = windowed_gradient(state)
            for z in range(2):
                if all(pz != z for _, pz in pairs):
                    continue
                up = binary_state(p + h * (np.arange(2) == z), m, oracle_b, buffer=pairs)
                dn = binary_state(p - h * (np.arange(2) == z), m, oracle_b, buffer=pairs)
                fd = (
                    windowed_divergence(up)
                    - windowed_divergence(dn)
                ) / (2 * h)
                assert grad[z] == pytest.approx(fd, rel=1e-4)

    def test_matches_manual_sum_ternary(self, joint_ternary):
        oracle = RoleModelOracle.from_joint(joint_ternary)
        rng = np.random.default_rng(7)
        pairs = [
            (int(rng.integers(0, 3)), int(rng.integers(0, 2))) for _ in range(25)
        ]
        cells = rng.uniform(0.1, 1.0, size=(2, 3))
        est = ConditionalTable(tuple(Simplex(r / r.sum()) for r in cells))
        state = TrainerState(est, window_config(25), oracle, buffer=pairs)
        grad = windowed_gradient(state)
        q = est.p
        ratio = np.zeros((2, 3))  # window sum of P(x|y_i) / q(x|z_i) per z
        for y, z in pairs:
            ratio[z] += oracle.posterior_xy.row(y).probs / q[z]
        want = [
            np.mean([ratio[z, k] - ratio[z, j] for k in range(3) if k != j])
            / (len(pairs) * LN2)
            for z in range(2)
            for j in range(2)
        ]
        np.testing.assert_allclose(grad, want, rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), nx=st.sampled_from([2, 3, 4]))
    def test_finite_differences_any_alphabet(self, data, nx):
        ny = data.draw(st.integers(1, 4), label="ny")
        nz = data.draw(st.integers(1, 3), label="nz")
        oracle = RoleModelOracle(ConditionalTable(data.draw(stochastic_rows(ny, nx))))
        q = data.draw(stochastic_rows(nz, nx))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, ny - 1), st.integers(0, nz - 1)),
                min_size=1,
                max_size=40,
            ),
            label="window",
        )

        def divergence(table):
            state = TrainerState(ConditionalTable(table), cfg, oracle, buffer=pairs)
            return windowed_divergence(state)

        cfg = window_config(len(pairs))
        state = TrainerState(ConditionalTable(q), cfg, oracle, buffer=pairs)
        grad = windowed_gradient(state)
        assert grad.shape == (nz * (nx - 1),)
        grad = grad.reshape(nz, nx - 1)
        h = 1e-6
        for z in range(nz):
            for j in range(nx - 1):
                # q(j|z) moves by +h, every other entry of row z by -h/(nx-1)
                bump = np.zeros((nz, nx))
                bump[z] = -h / (nx - 1)
                bump[z, j] = h
                fd = (divergence(q + bump) - divergence(q - bump)) / (2 * h)
                assert grad[z, j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestProjection:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), nx=st.integers(2, 6))
    def test_is_the_euclidean_projection(self, data, nx):
        eps = data.draw(st.floats(1e-3, 0.9 / nx), label="eps")
        free = data.draw(
            st.lists(st.floats(-3.0, 3.0), min_size=nx - 1, max_size=nx - 1),
            label="free",
        )
        row = free + [1.0 - math.fsum(free)]
        out = training._project(row, eps)
        assert math.fsum(out) == pytest.approx(1.0, abs=1e-12)
        assert min(out) >= eps - 1e-12
        # optimality: one shift theta carries every entry left above eps,
        # and every entry pinned at eps would fall to eps or below
        shifts = [v - o for v, o in zip(row, out) if o != eps]
        theta = shifts[0]
        assert all(s == pytest.approx(theta, abs=1e-9) for s in shifts)
        assert all(v - theta <= eps + 1e-9 for v, o in zip(row, out) if o == eps)


def per_row_update(state, eta, eps) -> bool:
    """The per-row update that the whole-table kernel replaced, kept as its
    reference: row by row, the gradient from the row's own ratios, then
    the row completed and projected if it left the interior. Returns
    whether any row was projected."""
    nx, q = state._nx, state._q
    scale = len(state.window_buffer) * LN2
    projected = False
    for z in range(state._nz):
        i = z * nx
        if not state._count[z]:
            grad = [0.0] * (nx - 1)
        else:
            row = q[i:i + nx]
            if min(row) <= 0.0:
                raise DistributionError("estimator parameter on the boundary")
            r = [w / v for w, v in zip(state._w[i:i + nx], row)]
            d = nx - 1
            grad = [(math.fsum(r[:j] + r[j + 1:]) / d - r[j]) / scale for j in range(d)]
        row = training._complete([q[i + j] - eta * g for j, g in enumerate(grad)])
        if min(row) < eps:
            row = training._complete(training._project(row, eps)[:-1])
            projected = True
        q[i:i + nx] = row
    return projected


class TestWholeTableKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        nx=st.sampled_from([3, 4, 5]),
        case=st.sampled_from(["absent rows", "projection", "zeros in unused rows", "boundary"]),
    )
    def test_matches_the_per_row_update(self, data, nx, case):
        ny = data.draw(st.integers(1, 4), label="ny")
        nz = data.draw(st.integers(2, 4), label="nz")
        oracle = RoleModelOracle(ConditionalTable(data.draw(stochastic_rows(ny, nx))))
        q = data.draw(stochastic_rows(nz, nx))
        # every case but "projection" leaves at least one row out of the window
        n_used = nz if case == "projection" else data.draw(st.integers(1, nz - 1), label="used")
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, ny - 1), st.integers(0, n_used - 1)),
                min_size=1,
                max_size=30,
            ),
            label="window",
        )
        if case == "zeros in unused rows":
            q[nz - 1, data.draw(st.integers(0, nx - 1), label="zero at")] = 0.0
            q[nz - 1] /= q[nz - 1].sum()
        if case == "boundary":
            _, z = pairs[0]
            q[z, data.draw(st.integers(0, nx - 1), label="zero at")] = 0.0
            q[z] /= q[z].sum()
        big = case == "projection"
        eta = data.draw(st.floats(1.0, 50.0) if big else st.floats(1e-4, 0.5), label="eta")
        eps = data.draw(st.floats(1e-3, 0.9 / nx), label="eps")

        cfg = window_config(len(pairs))
        want = TrainerState(ConditionalTable(q), cfg, oracle, buffer=pairs)
        got = TrainerState(ConditionalTable(q), cfg, oracle, buffer=pairs)
        if case == "boundary":
            with pytest.raises(DistributionError):
                per_row_update(want, eta, eps)
            with pytest.raises(DistributionError):
                training._update_rows(got, eta, eps)
            return
        projected = per_row_update(want, eta, eps)
        training._update_rows(got, eta, eps)
        assert got._q == want._q
        # bit for bit, signed zeros included
        assert [math.copysign(1.0, v) for v in got._q] == [
            math.copysign(1.0, v) for v in want._q
        ]
        assume(projected or not big)


class TestTrainStep:
    def test_no_update_before_start_step(self, oracle_b, joint_b):
        cfg = TrainerConfig(n_samples=10, window=5, start_step=8)
        state = TrainerState(ConditionalTable([[0.42, 0.58]] * 2), cfg, oracle_b)
        _, ys, zs = sample_arrays(joint_b, 1, 10)
        for pair in list(zip(ys.tolist(), zs.tolist()))[:7]:
            train_step(state, pair)
        assert state.updates == 0
        assert state.params()[::2] == (0.42, 0.42)
        train_step(state, (ys[7], zs[7]))
        assert state.updates == 1

    def test_first_update_uses_initial_step_size(self, oracle_b, joint_b):
        cfg = TrainerConfig(
            n_samples=6, window=5, start_step=6, step_size_initial=0.03
        )
        _, ys, zs = sample_arrays(joint_b, 2, 6)
        pairs = list(zip(ys.tolist(), zs.tolist()))
        state = TrainerState(ConditionalTable([[0.42, 0.58]] * 2), cfg, oracle_b)
        for pair in pairs:
            train_step(state, pair)
        # the update sees the window as it stands after the sixth push
        ref = binary_state([0.42, 0.42], 5, oracle_b, buffer=pairs[1:])
        grad = windowed_gradient(ref)
        for z in range(2):
            want = min(max(0.42 - 0.03 * grad[z], 1e-2), 1.0 - 1e-2)
            assert state.params()[2 * z] == pytest.approx(want, rel=1e-12)

    def test_trace_starts_when_window_fills(self, oracle_b, joint_b):
        cfg = TrainerConfig(n_samples=137, window=25, start_step=26)
        state = train_run(joint_b, cfg, oracle_b)
        assert len(state.divergence_trace) == 137 - 25 + 1
        assert state.divergence_trace[0][0] == 25
        assert state.divergence_trace[-1][0] == 137
        assert [s for s, _ in state.param_trace] == [s for s, _ in state.divergence_trace]

    def test_trace_lists_are_built_from_the_columns(self, joint_ternary):
        oracle = RoleModelOracle.from_joint(joint_ternary)
        cfg = TrainerConfig(n_samples=300, window=25, start_step=26, seed=4)
        state = train_run(joint_ternary, cfg, oracle)
        steps, divergence, params = state.trace_columns()
        assert steps.dtype == np.int64 and steps.tolist() == list(range(25, 301))
        assert params.shape == (276, joint_ternary.nz * joint_ternary.nx)
        assert state.divergence_trace == list(zip(steps.tolist(), divergence.tolist()))
        assert state.param_trace == [
            (s, tuple(row)) for s, row in zip(steps.tolist(), params.tolist())
        ]
        step, flat = state.param_trace[-1]
        assert type(step) is int and type(flat) is tuple and flat == state.params()
        # the columns are copies: the run can go on while they are held
        train_step(state, (0, 0))
        assert len(state.divergence_trace) == 277 and len(steps) == 276

    def test_traces_off_records_nothing_and_keeps_the_trajectory(self, joint_ternary):
        oracle = RoleModelOracle.from_joint(joint_ternary)
        cfg = TrainerConfig(n_samples=500, seed=2, step_size_initial=2.0)
        traced = train_run(joint_ternary, cfg, oracle)
        bare = train_run(joint_ternary, cfg, oracle, traces=False)
        assert bare.params() == traced.params() and bare.updates == traced.updates
        assert bare.divergence_trace == [] and bare.param_trace == []
        steps, divergence, params = bare.trace_columns()
        assert len(steps) == len(divergence) == 0 and params.shape == (0, 6)

    def test_shortest_legal_run_updates_once(self, oracle_b, joint_b):
        cfg = TrainerConfig(n_samples=6, window=5, start_step=6)
        state = train_run(joint_b, cfg, oracle_b)
        assert state.updates == 1
        assert len(state.divergence_trace) == 2

    def test_clamp_keeps_every_trace_entry_interior(self, oracle_b, joint_b):
        # an aggressive step size slams the boundary; the clamp must hold
        cfg = TrainerConfig(n_samples=3000, seed=9, step_size_initial=2.0)
        state = train_run(joint_b, cfg, oracle_b)
        eps = cfg.clamp_epsilon
        for _, params in state.param_trace:
            for v in params:
                assert eps - 1e-15 <= v <= 1.0 - eps + 1e-15

    def test_generic_kernel_matches_unrolled_at_nx2(self, joint_b, oracle_b):
        # the nx = 2 kernels must repeat the generic kernels' float operations
        cfg = TrainerConfig(n_samples=20_000, seed=9, step_size_initial=2.0)
        unrolled = train_run(joint_b, cfg, oracle_b)
        assert any(
            v == cfg.clamp_epsilon for _, flat in unrolled.param_trace for v in flat
        )
        generic = TrainerState(ConditionalTable.uniform(2, 2), cfg, oracle_b)
        generic._slide, generic._update = training._slide, training._update_rows
        _, ys, zs = sample_arrays(joint_b, cfg.seed, cfg.n_samples)
        for pair in zip(ys.tolist(), zs.tolist()):
            train_step(generic, pair)
        assert generic.divergence_trace == unrolled.divergence_trace
        assert generic.param_trace == unrolled.param_trace

    def test_epsilon_infeasible_for_alphabet_rejected(self, joint_ternary):
        oracle = RoleModelOracle.from_joint(joint_ternary)
        cfg = TrainerConfig(n_samples=200, clamp_epsilon=0.4)
        with pytest.raises(DistributionError):
            train_run(joint_ternary, cfg, oracle)


class TestTrainRun:
    def test_deterministic(self, joint_b, oracle_b):
        cfg = TrainerConfig(n_samples=2000, seed=13)
        a = train_run(joint_b, cfg, oracle_b)
        b = train_run(joint_b, cfg, oracle_b)
        assert a.divergence_trace == b.divergence_trace
        assert a.param_trace == b.param_trace

    def test_seed_changes_the_run(self, joint_b, oracle_b):
        a = train_run(joint_b, TrainerConfig(n_samples=2000, seed=0), oracle_b)
        b = train_run(joint_b, TrainerConfig(n_samples=2000, seed=1), oracle_b)
        assert a.param_trace != b.param_trace

    def test_stream_pairs_are_coerced_once(self, oracle_b, monkeypatch):
        # train_step coerces every pair; only a table sized from the stream
        # reads each pair's z before training
        calls = []
        coerce = training._coerce_sample
        monkeypatch.setattr(training, "_coerce_sample", lambda s: calls.append(s) or coerce(s))
        pairs = [(0, 0), (1, 1), (2, 0)] * 100
        with_init = TrainerConfig(n_samples=300, init=ConditionalTable.uniform(2, 2))
        train_run(pairs, with_init, oracle_b)
        assert len(calls) == len(pairs)
        calls.clear()
        train_run(pairs, TrainerConfig(n_samples=300), oracle_b)
        assert len(calls) == 2 * len(pairs)

    def test_triples_rejected(self, oracle_b):
        # blind by type: a sample carrying x, or anything else not a pair, is refused,
        # and so is a float or string symbol, never truncated or parsed
        cfg = TrainerConfig(n_samples=300)
        with_init = TrainerConfig(n_samples=300, init=ConditionalTable.uniform(2, 2))
        for bad in [(1, 2, 0), (1,), 7, (0.9, 1.7), ("1", "0")]:
            for config in (cfg, with_init):
                with pytest.raises(DimensionError, match=r"a sample is a \(y, z\) pair"):
                    train_run([(0, 0)] * 299 + [bad], config, oracle_b)
            with pytest.raises(DimensionError, match="pair"):
                train_step(binary_state([0.5, 0.5], 5, oracle_b), bad)
            # the whole preseed is checked, not only the pairs that stay in the window
            with pytest.raises(DimensionError, match="pair"):
                binary_state([0.5, 0.5], 2, oracle_b, buffer=[bad, (0, 0), (1, 1)])
        state = train_step(binary_state([0.5, 0.5], 5, oracle_b), (np.int64(1), np.int64(0)))
        assert state.window_buffer[-1] == (1, 0)

    def test_joint_source_equals_pair_stream(self, joint_b, oracle_b):
        cfg = TrainerConfig(n_samples=1500, seed=4)
        _, ys, zs = sample_arrays(joint_b, cfg.seed, cfg.n_samples)
        a = train_run(joint_b, cfg, oracle_b)
        b = train_run(list(zip(ys.tolist(), zs.tolist())), cfg, oracle_b)
        assert a.param_trace == b.param_trace

    def test_init_with_wrong_row_count_rejected(self, joint_b, oracle_b):
        cfg = TrainerConfig(n_samples=500, init=ConditionalTable.uniform(3, 2))
        with pytest.raises(DimensionError):
            train_run(joint_b, cfg, oracle_b)

    def test_too_short_run_rejected(self, joint_b, oracle_b):
        cfg = TrainerConfig(n_samples=100, window=100, start_step=101)
        with pytest.raises(DistributionError):
            train_run(joint_b, cfg, oracle_b)

    def test_noiseless_pair_pins_to_clamp(self):
        # y = z = x exactly: the best in-clamp estimate is 1 - epsilon
        ident = ConditionalTable([[1.0, 0.0], [0.0, 1.0]])
        joint = build_joint(Simplex([0.5, 0.5]), ident, ident)
        oracle = RoleModelOracle.from_joint(joint)
        state = train_run(joint, TrainerConfig(n_samples=1500, seed=0), oracle)
        p0, _, p1, _ = state.params()
        assert p0 == pytest.approx(0.99, abs=1e-12)
        assert p1 == pytest.approx(0.01, abs=1e-12)

    def test_pure_noise_z_learns_the_prior(self):
        # z carries nothing, so the best guess is the source marginal
        xy = ConditionalTable([[1.0, 0.0], [0.2, 0.8]])
        yz = ConditionalTable([[0.5, 0.5], [0.5, 0.5]])
        joint = build_joint(Simplex([0.3, 0.7]), xy, yz)
        oracle = RoleModelOracle.from_joint(joint)
        state = train_run(joint, TrainerConfig(n_samples=60_000, seed=1), oracle)
        for row in state.est.rows:
            np.testing.assert_allclose(row.probs, [0.3, 0.7], atol=0.04)

    def test_converges_on_erasure_scenario(self, joint_b, oracle_b):
        state = train_run(joint_b, TrainerConfig(n_samples=200_000, seed=0), oracle_b)
        p0, _, p1u, p1 = state.params()
        assert p0 == pytest.approx(Q0_B, abs=0.02)
        assert p1 == pytest.approx(Q1_B, abs=0.02)
        # a single window is noisy; the late-run average is not
        tail = [d for _, d in state.divergence_trace[-5000:]]
        assert sum(tail) / len(tail) == pytest.approx(ED_OPT_B, rel=0.10)

    def test_ternary_run_tracks_exact_solution(self, joint_ternary):
        oracle = RoleModelOracle.from_joint(joint_ternary)
        cfg = TrainerConfig(n_samples=60_000, seed=2)
        state = train_run(joint_ternary, cfg, oracle)
        target = role_model_exact(joint_ternary)
        for z in range(2):
            got = state.est.row(z).probs
            assert float(got.sum()) == pytest.approx(1.0, abs=1e-12)
            assert got.min() >= cfg.clamp_epsilon - 1e-15
            np.testing.assert_allclose(got, target.row(z).probs, atol=0.05)

    def test_window_of_one(self, joint_b, oracle_b):
        cfg = TrainerConfig(n_samples=50, window=1, start_step=2)
        state = train_run(joint_b, cfg, oracle_b)
        assert len(state.divergence_trace) == 50
        assert state.updates == 49
