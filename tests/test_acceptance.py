"""End-to-end acceptance gates.

One test per gate, so a verbose run prints one pass/fail line each.
Numbered to match the order the feature areas build on each other:
exact solutions first, then the identities, solver cross-checks,
training, and reproducibility last.
"""

import hashlib
import math
import time
from statistics import fmean

import numpy as np
import pytest

from rolemodel import (
    ConditionalTable,
    Joint3,
    RoleModelOracle,
    Simplex,
    TraceFile,
    TrainerConfig,
    TrainerState,
    brute_force_minimizer,
    build_joint,
    check_theorem1,
    check_theorem2,
    direct_solution,
    expected_divergence_given_z,
    general_channel,
    random_joint,
    role_model_exact,
    role_model_numeric,
    scenario_a,
    scenario_b,
    sufficiency_check,
    to_matrix,
    train_run,
    windowed_divergence,
    windowed_gradient,
)
from rolemodel.cli import main as cli_main

Q0_A = 4 / 7
Q0_B = 0.425 / 0.5875           # = 34/47
Q1_B = 0.3375 / 0.4125          # = 9/11
ED_OPT_B = 0.5319936433323948   # H(X|Z) - H(X|Y) on the erasure scenario

# Golden sha256 digests of four training trajectories (Python 3.11.7,
# numpy 2.4.6). A changed digest is a behaviour change, not noise.
EXAMPLE_B_TRACE_DIGEST = "72a3e7694d6a68bb473609cc8b97ca3cc32364d698c2320220d9adae6766f0ec"
CLAMPED_TRACE_DIGEST = "a9a05de7aa791d5c13f98d817535d6e5fc5fee2e49f6400d012b06f3fb93b2ec"
TERNARY_RUN_DIGEST = "cd2a70e7452c8639d835af109a0d592cdc548e55d1b2ba18acb24654c30566ba"
QUATERNARY_CLAMPED_DIGEST = "85e36b3d6b8f28c01382e15a2088ce1972083558867dfd443276015f8812c51c"


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def full_support_estimator(seed, nz, nx):
    rng = np.random.default_rng([seed, 1])
    cells = rng.uniform(0.05, 1.0, size=(nz, nx))
    return ConditionalTable(tuple(Simplex(row / row.sum()) for row in cells))


def test_01_cascade_scenario_exact_solution():
    joint = scenario_a().joint()
    for est in (direct_solution(joint), role_model_exact(joint)):
        assert abs(float(est.row(0).probs[0]) - Q0_A) <= 1e-12
        assert abs(float(est.row(1).probs[1]) - 1.0) <= 1e-12


def test_02_cascade_objective_closed_form():
    joint = scenario_a().joint()
    h_third = binary_entropy(1 / 3)
    for q0 in np.linspace(0.02, 0.98, 50):
        want = -(6 / 7) * h_third - (4 / 7) * math.log2(q0) - (3 / 7) * math.log2(1 - q0)
        got = expected_divergence_given_z(joint, Simplex([q0, 1 - q0]), 0)
        assert abs(got - want) <= 1e-12


def test_03_erasure_scenario_exact_posterior():
    est = direct_solution(scenario_b().joint())
    q0 = float(est.row(0).probs[0])
    q1 = float(est.row(1).probs[1])
    assert abs(q0 - Q0_B) <= 1e-12
    assert abs(q1 - Q1_B) <= 1e-12
    assert round(q0, 4) == 0.7234
    assert round(q1, 4) == 0.8182


def test_04_blind_training_statistics(tmp_path):
    t0 = time.perf_counter()
    finals = []
    divergences = []
    for seed in range(20):
        code = cli_main(
            ["example-b", "--out", str(tmp_path), "--seed", str(seed),
             "--samples", "200000", "--tolerance", "0.05"]
        )
        assert code == 0, f"seed {seed} missed the 0.05 per-seed budget"
        trace = TraceFile.read(tmp_path / f"example_b_seed{seed}_trace.csv")
        step, div, q0, q1 = trace.rows[-1]
        finals.append((q0, q1))
        divergences.append(div)
    assert abs(fmean(q0 for q0, _ in finals) - Q0_B) <= 0.01
    assert abs(fmean(q1 for _, q1 in finals) - Q1_B) <= 0.01
    worst = max(
        max(abs(q0 - Q0_B), abs(q1 - Q1_B)) for q0, q1 in finals
    )
    assert worst <= 0.05
    assert abs(fmean(divergences) / ED_OPT_B - 1.0) <= 0.10
    assert time.perf_counter() - t0 < 60.0


def test_05_divergence_decomposition_identity_sweep():
    for t in range(1000):
        seed = 9000 + t
        size_rng = np.random.default_rng([seed, 0])
        nx, ny, nz = (int(v) for v in size_rng.integers(2, 6, size=3))
        joint = random_joint(seed, nx, ny, nz, markov=True)
        check = check_theorem1(joint, full_support_estimator(seed, nz, nx))
        assert abs(check.gap) <= 1e-9, f"identity broke at case seed {seed}"


def test_06_divergence_lower_bound_sweep():
    for t in range(1000):
        seed = 40_000 + t
        size_rng = np.random.default_rng([seed, 0])
        nx, ny, nz = (int(v) for v in size_rng.integers(2, 6, size=3))
        joint = random_joint(seed, nx, ny, nz, markov=False)

        bound = check_theorem2(joint, full_support_estimator(seed, nz, nx))
        assert bound.passed, f"bound broke at case seed {seed}"

        direct = direct_solution(joint)
        equality = check_theorem2(joint, direct)
        assert abs(equality.gap) <= 1e-9, f"equality broke at case seed {seed}"

        rows = []
        for z in range(nz):
            p = direct.row(z).probs.copy()
            top = int(np.argmax(p))
            p[top] -= 0.1
            p[np.arange(nx) != top] += 0.1 / (nx - 1)
            rows.append(Simplex(p))
        shifted = check_theorem2(joint, ConditionalTable(tuple(rows)))
        assert shifted.gap > 1e-6, f"perturbed gap too small at case seed {seed}"


def test_07_three_way_minimizer_agreement():
    cases = [scenario_a().joint(), scenario_b().joint()]
    cases += [
        random_joint(70_000 + t,
                     nx=2,
                     ny=2 + (t % 3),
                     nz=2 + (t % 2),
                     markov=True)
        for t in range(50)
    ]
    for i, joint in enumerate(cases):
        exact = role_model_exact(joint)
        numeric = role_model_numeric(joint, tol=1e-10)
        grid = brute_force_minimizer(joint, 10_000)
        assert exact.tv_distance(numeric) <= 1e-4, f"case {i}"
        assert exact.tv_distance(grid) <= 1e-4, f"case {i}"
        assert numeric.tv_distance(grid) <= 2e-4, f"case {i}"


def test_08_windowed_gradient_matches_finite_differences():
    h = 1e-6
    for t in range(100):
        rng = np.random.default_rng([81_000 + t, 0])
        ny = int(rng.integers(2, 5))
        joint = random_joint(81_000 + t, nx=2, ny=ny, nz=2, markov=True)
        oracle = RoleModelOracle.from_joint(joint)
        m = int(rng.integers(3, 60))
        pairs = [
            (int(rng.integers(0, ny)), int(rng.integers(0, 2))) for _ in range(m)
        ]
        p = rng.uniform(0.05, 0.95, size=2)

        config = TrainerConfig(window=m, start_step=m + 1, n_samples=1)

        def state_at(values):
            est = ConditionalTable(tuple(Simplex((v, 1.0 - v)) for v in values))
            return TrainerState(est, config, oracle, buffer=pairs)

        grad = windowed_gradient(state_at(p))
        for z in range(2):
            if all(sz != z for _, sz in pairs):
                continue
            bump = h * (np.arange(2) == z)
            fd = (
                windowed_divergence(state_at(p + bump))
                - windowed_divergence(state_at(p - bump))
            ) / (2 * h)
            assert grad[z] == pytest.approx(fd, rel=1e-4), f"case seed {81_000 + t}"


def split_last_symbol(joint: Joint3) -> Joint3:
    # two z-symbols with bit-identical posteriors, half the mass each
    cells = joint.p
    extra = cells[:, :, -1:] / 2.0
    return Joint3(np.concatenate([cells[:, :, :-1], extra, extra], axis=2))


def test_09_merging_equal_posteriors_loses_nothing():
    for t in range(150):
        seed = 90_000 + t
        size_rng = np.random.default_rng([seed, 0])
        nx, ny, nz = (int(v) for v in size_rng.integers(2, 5, size=3))
        joint = random_joint(seed, nx, ny, nz, markov=bool(t % 2))
        assert sufficiency_check(joint).passed, f"case seed {seed}"
    for t in range(50):
        seed = 95_000 + t
        joint = split_last_symbol(random_joint(seed, nx=2, ny=3, nz=3, markov=False))
        assert sufficiency_check(joint).passed, f"case seed {seed}"


def test_10_identical_seeds_give_identical_traces(tmp_path):
    def trace_digest(directory, seed=11, samples=2000, *extra):
        code = cli_main(
            ["example-b", "--out", str(directory), "--seed", str(seed),
             "--samples", str(samples), "--tolerance", "1.0", *extra]
        )
        assert code == 0
        payload = (directory / f"example_b_seed{seed}_trace.csv").read_bytes()
        kept = [
            line for line in payload.split(b"\n")
            if not line.startswith(b"# timestamp")
        ]
        return hashlib.sha256(b"\n".join(kept)).hexdigest()

    first = trace_digest(tmp_path / "first")
    second = trace_digest(tmp_path / "second")
    assert first == second
    assert first == EXAMPLE_B_TRACE_DIGEST

    # a large step drives the parameters onto the clamp thousands of
    # times, so this digest guards the clamp and projection path
    clamped = trace_digest(tmp_path / "clamped", 9, 20000, "--eta0", "2.0")
    assert clamped == CLAMPED_TRACE_DIGEST

    # the generic kernels, on the joint_ternary joint of test_training
    xy = to_matrix(general_channel([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
    yz = to_matrix(general_channel([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]))
    joint = build_joint(Simplex.uniform(3), xy, yz)
    state = train_run(
        joint, TrainerConfig(n_samples=3000, seed=5), RoleModelOracle.from_joint(joint)
    )
    run = repr((state.divergence_trace, state.param_trace)).encode()
    assert hashlib.sha256(run).hexdigest() == TERNARY_RUN_DIGEST

    # the generic kernels above nx = 3: four source symbols and a large
    # step, so thousands of rows go through the projection
    xy = to_matrix(general_channel(
        [[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1], [0.1, 0.1, 0.7, 0.1],
         [0.05, 0.05, 0.1, 0.8]]
    ))
    yz = to_matrix(general_channel(
        [[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8], [0.3, 0.3, 0.4]]
    ))
    joint = build_joint(Simplex([0.4, 0.3, 0.2, 0.1]), xy, yz)
    config = TrainerConfig(n_samples=4000, seed=3, step_size_initial=2.0)
    state = train_run(joint, config, RoleModelOracle.from_joint(joint))
    assert sum(v == config.clamp_epsilon for _, flat in state.param_trace for v in flat) > 10_000
    run = repr((state.divergence_trace, state.param_trace)).encode()
    assert hashlib.sha256(run).hexdigest() == QUATERNARY_CLAMPED_DIGEST
