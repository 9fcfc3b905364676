"""Penalized obstacle-problem solver for shallow ice sheet evolution.

Integrates, on structured triangulations of a rectangle, the implicit time
discretization of a doubly nonlinear diffusion law for the transformed ice
thickness: a power-law time term, a weighted p-Laplacian flux, and a
negative-part penalty enforcing nonnegativity as the penalty parameter
shrinks.  Monitors evaluate discrete a priori bounds, stability checks,
and the residual of the limiting variational inequality; a verification
layer provides manufactured solutions and brute-force oracles.
"""

from .config import (
    ConfigError,
    ConfigSyntaxError,
    MissingField,
    RunConfig,
    ValidationError,
    build_setup,
    initial_thickness_field,
    load_config,
    parse_config,
)
from .forcing import (
    CallableForcing,
    ConstantForcing,
    GriddedForcing,
    LinearForcing,
    MeltForcing,
    SeasonalForcing,
    poly_bump,
)
from .mesh import (
    StructuredMesh,
    build_mesh,
    triangle_gradients,
)
from .monitors import (
    MonitorRecord,
    SweepResult,
    SweepRow,
    check_sc1,
    check_sc1_prime,
    compute_monitors,
    kappa_sweep,
    lq_norm,
    vi_residual,
    w1p_seminorm_pow,
)
from .operators import (
    StepProblem,
    linearize,
    p_laplacian_residual,
    scaled_residual_norm,
    step_energy,
    step_jacobian_action,
    step_residual,
)
from .physics import (
    PhysicalParams,
    PhysicalRangeWarning,
    alpha_of,
    diagnostic_flux,
    glen_mu,
    make_params,
    neg_part,
    signed_power,
    thickness_from_u,
    u_from_thickness,
)
from .snapshots import read_field_csv, write_snapshot
from .solver import (
    NonConvergence,
    NumericalBreakdown,
    SolverConfig,
    SolverError,
    StepResult,
    inner_linear_solve,
    solve_step,
)
from .timestep import (
    MarchError,
    TimeGrid,
    Trajectory,
    average_forcing,
    difference_quotient,
    interpolant_value,
    run,
)
from .verification import (
    LemmaReport,
    MmsCase,
    brute_force_step_oracle,
    lemma_inequality_suite,
    mms_convergence,
    mms_error,
    mms_forcing,
)

__version__ = "0.1.0"
