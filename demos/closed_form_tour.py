"""Walk through the exact machinery on the two built-in scenarios.

Shows that four independent routes to the optimal estimator agree:
the direct posterior, the closed-form mixture, exponentiated-gradient
(multiplicative-weights) descent, and a brute-force grid scan. Then checks the divergence
decomposition and the lower bound on a batch of random problems.
"""

import numpy as np

from rolemodel import (
    brute_force_minimizer,
    check_theorem1,
    check_theorem2,
    direct_solution,
    expected_divergence,
    random_joint,
    role_model_exact,
    role_model_numeric,
    scenario_a,
    scenario_b,
)


def show(name, est):
    rows = [np.array2string(row, precision=6) if ok else "undefined"
            for row, ok in zip(est.p, est.defined)]
    print(f"  {name:<12} " + "  ".join(rows))


def tour(scenario):
    print(f"\n=== {scenario.name} ===")
    joint = scenario.joint()
    direct = direct_solution(joint)
    show("direct", direct)
    show("mixture", role_model_exact(joint))
    show("gradient", role_model_numeric(joint, tol=1e-12))
    show("grid", brute_force_minimizer(joint, 20_000))

    report = expected_divergence(joint, direct)
    print(f"  expected divergence at the optimum: {report.total:.6f} bits")

    t1 = check_theorem1(joint, direct)
    print(f"  decomposition identity gap: {t1.gap:+.3e}  (passed: {t1.passed})")


def random_sweep(n=200):
    worst_identity = 0.0
    worst_bound = 0.0
    for t in range(n):
        markov = random_joint(t, nx=2, ny=3, nz=2, markov=True)
        free = random_joint(t, nx=2, ny=3, nz=2, markov=False)
        worst_identity = max(
            worst_identity, abs(check_theorem1(markov, direct_solution(markov)).gap)
        )
        worst_bound = min(worst_bound, check_theorem2(free, direct_solution(free)).gap)
    print(f"\n{n} random problems:")
    print(f"  largest |identity gap|: {worst_identity:.3e}")
    print(f"  most negative bound gap at the optimum: {worst_bound:.3e}")


if __name__ == "__main__":
    tour(scenario_a())
    tour(scenario_b())
    random_sweep()
