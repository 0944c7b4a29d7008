"""Bifurcation points of the half-line eigenvalue problem.

For each regularization strength the lowest generalized eigenvalue
Lambda(lambda) crosses -(pi/L)^2 at a unique parameter lambda_eps.  In the
irrotational case lambda_0 = g L / pi exactly; with regularization the
root solves eps lam^3 + (pi/L)^2 lam^2 = g^2, giving a closed-form check.
"""

import math


from vorstokes import (
    ExpDecayVorticity,
    GerstnerVorticity,
    SLProblem,
    ZeroVorticity,
    eigenfunction_decay_rate,
    find_bifurcation_point,
)
from vorstokes.sturm_liouville import fitted_tail_rate

G, L = 9.81, math.pi

print("irrotational dispersion check:")
bp0 = find_bifurcation_point(SLProblem(ZeroVorticity(), g=G, L=L, epsilon=0.0))
print(f"  lambda_0 = {bp0.lambda_star:.10f}   (g L / pi = {G * L / math.pi:.10f})")

print("\nregularized points converge at first order in epsilon:")
for eps in (0.1, 0.05, 0.025, 0.0125):
    bp = find_bifurcation_point(SLProblem(ZeroVorticity(), g=G, L=L, epsilon=eps))
    print(f"  eps = {eps:7.4f}: lambda_eps = {bp.lambda_star:.8f}   "
          f"gap to lambda_0 = {bp0.lambda_star - bp.lambda_star:+.6f}")

print("\nrotational models shift the point and its eigenfunction decay:")
for model in (ExpDecayVorticity(1.0, 1.0), ExpDecayVorticity(-0.5, 1.0),
              GerstnerVorticity(m=0.5)):
    bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=0.01))
    bound = eigenfunction_decay_rate(bp, model)
    fitted = fitted_tail_rate(bp.p, bp.phi)
    print(f"  {model!r:34s} Gamma in [{model.gamma_inf_bound():8.5f}, "
          f"{model.gamma_sup_bound():8.5f}]  lambda_eps = {bp.lambda_star:9.5f}  "
          f"decay bound {bound:8.5f}  fitted {fitted:8.5f}")
