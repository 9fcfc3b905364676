"""Convergence of the march against a manufactured closed-form solution.

A separable polynomial field that vanishes on the boundary and grows
linearly in time is substituted into the evolution law; the mismatch
becomes a forcing term with an explicit formula, so the exact solution of
the forced problem is known everywhere.  Halving the time step should cut
the error roughly in half (the march is first order in time), and refining
the mesh at a well-resolved time step should shrink the remaining spatial
error.
"""

import shallowice as si
from shallowice.verification import MmsCase, mms_convergence

case = MmsCase(amp=1.0, g0=1.0, g1=1.0, Lx=1.0, Ly=1.0, T=0.5)

# the discretization error dwarfs 1e-10 residuals, so relax the tolerance
cfg = si.SolverConfig(tol_residual=1e-8)

table = mms_convergence(
    case, p=3.0, mu=1.0,
    mesh_list=[17, 33, 65],
    N_list=[10, 20],
    kappa=1e-4,          # inactive: the manufactured field stays positive
    solver_config=cfg,
    spatial_N=80,
)

print(table.format())
print()
print(f"temporal orders {['%.3f' % o for o in table.temporal_orders]} "
      "(a first-order march should sit near 1)")
errs = [e for _, e in table.spatial]
print("spatial errors strictly decreasing:",
      all(b < a for a, b in zip(errs, errs[1:])))
