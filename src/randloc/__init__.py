"""Mean-field kinetics of measurement-induced random localization.

The toolkit tracks a fluid of particles that a stream of post-selected
proximity measurements gradually pins down. Its state variables are the
localized fraction g(tau) and the distribution p(u) of dimensionless
squared localization lengths u, which grow at unit rate between events
and contract harmonically (u1 u2/(u1+u2)) when a pair is measured.

Submodules:

    udist       grids, densities, combine rule, collision kernels, drift
    gamma       logistic growth of the localized fraction
    meanfield   steady-state fixed point, transient evolution, residuals
    popmc       event-driven stochastic population realization
    gaussoracle microscopic Gaussian check of the contraction rule
    units       physical <-> dimensionless parameter conversions
    cli         command-line front end emitting reproducible CSV
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    MassLossError,
    QuadratureError,
    RandlocError,
    StepInstabilityError,
)
from .gamma import (
    GammaTrajectory,
    closed_trajectory,
    gamma_closed,
    gamma_ode,
    gamma_residual,
    half_time,
)
from .gaussoracle import (
    GaussPair,
    contraction_limit,
    convergence_study,
    posterior_moments,
)
from .meanfield import (
    SolverConfig,
    TransientSolution,
    evolve_transient,
    residual_resummed,
    residual_steady,
    solve_steady,
)
from .popmc import (
    Population,
    empirical_density,
    ks_distance,
    load_checkpoint,
    resume,
    run_steady,
    run_transient,
    sample_from_density,
    save_checkpoint,
)
from .udist import (
    UDensity,
    UGrid,
    collision_kernel,
    combine,
    default_init_density,
    drift_shift,
    exponential_density,
    mass,
    moment,
    normalize,
    point_mass,
)
from .units import UnitsMap, units_convert, validate_regime

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "MassLossError",
    "QuadratureError",
    "RandlocError",
    "StepInstabilityError",
    "GammaTrajectory",
    "closed_trajectory",
    "gamma_closed",
    "gamma_ode",
    "gamma_residual",
    "half_time",
    "GaussPair",
    "contraction_limit",
    "convergence_study",
    "posterior_moments",
    "SolverConfig",
    "TransientSolution",
    "evolve_transient",
    "residual_resummed",
    "residual_steady",
    "solve_steady",
    "Population",
    "empirical_density",
    "ks_distance",
    "load_checkpoint",
    "resume",
    "run_steady",
    "run_transient",
    "sample_from_density",
    "save_checkpoint",
    "UDensity",
    "UGrid",
    "collision_kernel",
    "combine",
    "default_init_density",
    "drift_shift",
    "exponential_density",
    "mass",
    "moment",
    "normalize",
    "point_mass",
    "UnitsMap",
    "units_convert",
    "validate_regime",
    "__version__",
]
