"""Penalized obstacle-problem solver for shallow ice sheet evolution.

Integrates, on structured triangulations of a rectangle, the implicit time
discretization of a doubly nonlinear diffusion law for the transformed ice
thickness: a power-law time term, a weighted p-Laplacian flux, and a
negative-part penalty enforcing nonnegativity as the penalty parameter
shrinks.  Monitors evaluate discrete a priori bounds, stability checks,
and the residual of the limiting variational inequality; a verification
layer provides manufactured solutions and brute-force oracles.
"""

from .config import ConfigError, build_setup, initial_thickness_field, load_config
from .forcing import ConstantForcing, MeltForcing, poly_bump
from .mesh import StructuredMesh, build_mesh
from .monitors import compute_monitors, kappa_sweep, vi_residual
from .operators import StepProblem, scaled_residual_norm, step_energy, step_residual
from .physics import PhysicalParams, diagnostic_flux, make_params, thickness_from_u
from .snapshots import write_snapshot
from .solver import NonConvergence, SolverConfig, SolverError, solve_step
from .timestep import VERSION as __version__
from .timestep import MarchError, TimeGrid, average_forcing, run
