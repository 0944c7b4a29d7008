"""Pseudo-arclength continuation of a rotational wave branch.

The bordered predictor-corrector walks away from the bifurcation point in
the branch metric, re-verifying admissibility at every iterate and
classifying why the trace stops.  Here: a Gerstner-type vorticity (the
nonpositive monotone class).
"""

import math

from vorstokes import (
    Caps,
    GerstnerVorticity,
    SLProblem,
    StripOperator,
    continue_branch,
    default_grid,
    find_bifurcation_point,
)

G, L = 9.81, math.pi
eps = 0.01
model = GerstnerVorticity(m=0.5)

bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=eps))
grid = default_grid(L, bp.lambda_star, eps, nq=64)
op = StripOperator(model, G, grid, epsilon=eps)

branch = continue_branch(op, bp, steps=12, ds=0.002, s0=0.005,
                         caps=Caps.default(G, L), tol=1e-11)
rows = branch.record_rows()

print(f"branch for {model!r}, epsilon = {eps}")
print(f"{'s':>9s} {'lambda':>11s} {'c':>9s} {'eta_crest':>10s} {'eta_trough':>11s} "
      f"{'min|psi_y|':>11s}")
for row in rows:
    print(f"{row['s']:9.5f} {row['lambda']:11.6f} {row['c']:9.5f} "
          f"{row['eta_crest']:10.5f} {row['eta_trough']:11.5f} "
          f"{row['min_rel_speed']:11.6f}")
print(f"termination: {branch.termination.value}")
print("\nthe crest rises, the trough deepens, the minimum relative flow speed")
print("drops: the branch is heading toward its stagnation alternative.")
