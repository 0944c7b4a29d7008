"""Removing the regularization: the decreasing-epsilon homotopy.

The strip problem is solved for a sequence of regularization strengths at
a fixed branch coordinate, starting from the local-theory seed at the
first one; each later solve starts from the one before.  Consecutive
solutions contract in sup norm, which is the computable face of the limit
construction that produces the unregularized wave.
"""

import math

from vorstokes import (
    SLProblem,
    StripOperator,
    ZeroVorticity,
    default_grid,
    epsilon_homotopy,
    find_bifurcation_point,
    initial_nontrivial_guess,
)

G, L = 9.81, math.pi
schedule = [0.1, 0.05, 0.025, 0.0125, 0.00625]

model = ZeroVorticity()
bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=schedule[0]))
grid = default_grid(L, bp.lambda_star, schedule[0], nq=64)
op = StripOperator(model, G, grid, epsilon=schedule[0])
res = epsilon_homotopy(model, G, initial_nontrivial_guess(bp, op, 0.02), schedule,
                       target_s=0.02, tol=1e-11)

print(f"fixed branch coordinate s = 0.02, grid {grid.nq} x {grid.np}")
print(f"{'epsilon':>9s} {'lambda':>12s} {'sup |w_k+1 - w_k|':>18s}")
for k, (eps, lam) in enumerate(zip(res.epsilons, res.lambdas)):
    diff = f"{res.sup_diffs[k - 1]:18.3e}" if k else f"{'-':>18s}"
    print(f"{eps:9.5f} {lam:12.8f} {diff}")

ratios = [a / b for a, b in zip(res.sup_diffs, res.sup_diffs[1:])]
print(f"\ncontraction ratios between consecutive differences: "
      f"{['%.2f' % r for r in ratios]}")
print("halving epsilon roughly halves the update: the sequence is Cauchy")
print("and the limit is the wave of the unregularized problem.")
