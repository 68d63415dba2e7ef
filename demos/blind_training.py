"""Train an estimator that never sees x, then compare it to the answer.

The trainer watches (y, z) pairs only. It still converges to the
posterior P(x | z) because the windowed objective scores each guess
against the better-informed posterior P(x | y), and the minimizer of
that score is the mixture of those posteriors, which here *is*
P(x | z).
"""

from rolemodel import (
    TrainerConfig,
    direct_solution,
    sample_arrays,
    scenario_b,
    train_run,
)

scenario = scenario_b()
joint = scenario.joint()
exact = direct_solution(joint)
oracle = scenario.oracle()

config = TrainerConfig(n_samples=200_000, seed=0)
pairs = zip(*sample_arrays(joint, config.seed, config.n_samples)[1:])
state = train_run(pairs, config, oracle)

print(f"scenario: {scenario.name}, {config.n_samples} blind samples, seed {config.seed}")
print(f"{'step':>8} {'window divergence':>18} {'q(0|0)':>9} {'q(1|1)':>9}")
marks = {100, 1_000, 10_000, 100_000, 200_000}
for (step, div), (_, params) in zip(state.divergence_trace, state.param_trace):
    if step in marks:
        print(f"{step:>8} {div:>18.5f} {params[0]:>9.5f} {params[3]:>9.5f}")

print("\nfinal vs exact posterior:")
for z in range(2):
    got = state.est.p[z, z]
    want = exact.p[z, z]
    print(f"  q({z}|{z}) = {got:.5f}   exact {want:.5f}   off by {abs(got - want):.5f}")
