"""Estimators over finite alphabets that mimic a better-informed posterior.

The package centers on one question: given a degraded observation z of a
source x, and a reference posterior P(x|y) built from a richer
observation y, which estimator q(x|z) minimizes the expected KL
divergence from the reference posterior? The exact answer, numeric
solvers, theorem checks for the supporting identities, and a blind
online trainer for the case where the y-to-z channel is unknown all
live here.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DimensionError,
    DistributionError,
    EmptyWindowError,
    MarkovViolationError,
    RoleModelError,
    SpecFormatError,
    UndefinedConditionalError,
    UnsupportedAlphabetError,
)
from .probability import (
    SUM_TOLERANCE,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    ConditionalTable,
    Joint3,
    Simplex,
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
from .channels import (
    ChannelSpec,
    bec,
    build_joint,
    cascade,
    general_channel,
    sample_arrays,
    to_matrix,
    z_channel,
)
from .estimators import (
    MARKOV_TOLERANCE,
    MERGE_TOLERANCE,
    DivergenceReport,
    TheoremCheck,
    check_theorem1,
    check_theorem2,
    direct_solution,
    expected_divergence,
    expected_divergence_given_z,
    role_model_exact,
    role_model_numeric,
    sufficiency_check,
)
from .training import (
    RoleModelOracle,
    TrainerConfig,
    TrainerState,
    train_run,
    train_step,
    windowed_divergence,
    windowed_gradient,
)
from .experiments import (
    BUILTIN_SCENARIOS,
    POSTERIOR_TOLERANCE,
    Scenario,
    TraceFile,
    brute_force_minimizer,
    random_joint,
    run_figure_traces,
    scenario_a,
    scenario_b,
)
