"""Stochastic optimal control of jump-diffusions with random coefficients.

Building blocks: seeded noise generation (:mod:`jumphjb.drivers`),
coefficient models and assumption validators (:mod:`jumphjb.coefficients`),
forward simulation (:mod:`jumphjb.forward`), regression Monte Carlo BSDE
solving (:mod:`jumphjb.bsde`), lattice dynamic programming
(:mod:`jumphjb.dpp`), HJB integro-PDE machinery (:mod:`jumphjb.pide`),
and Galerkin solvers for backward stochastic evolution equations with
jumps (:mod:`jumphjb.galerkin`).  ``jumphjb.cli`` exposes all of it as
subcommands.
"""

from .coefficients import (
    CoefficientSet,
    ControlSet,
    NoiseState,
    SamplingPlan,
    validate_driver_monotonicity,
    validate_jump_nondegeneracy,
    validate_lipschitz,
)
from .drivers import (
    DriverPath,
    MarkMeasure,
    TimeGrid,
    draw_noise,
    sample_driver_path,
)
from .errors import (
    CflViolationError,
    ConfigError,
    DivergenceError,
    NotConvergedError,
    NumericError,
)
from .forward import (
    ConstantControl,
    FeedbackControl,
    OpenLoopControl,
    simulate,
    simulate_batch,
    simulate_flow_gradient,
)

__version__ = "0.1.0"

# Solver layers imported lazily by most callers; re-exported here for
# the common entry points.
from .bsde import PolynomialBasis, backward_semigroup, price, solve_bsde  # noqa: E402
from .dpp import (  # noqa: E402
    Lattice,
    compute_value_table,
    dpp_residual,
    epsilon_optimal_control,
)
from .galerkin import (  # noqa: E402
    BinomialJumpTree,
    assemble_operators,
    assemble_triple,
    check_coercivity,
    solve_hjb_weak,
    solve_linear_bseej,
    solve_nonlinear_bseej,
)
from .pide import (  # noqa: E402
    SpatialGrid,
    hamiltonian,
    nonlocal_apply,
    solve_pide_deterministic,
    verification_run,
)
from .problems import build_problem  # noqa: E402
