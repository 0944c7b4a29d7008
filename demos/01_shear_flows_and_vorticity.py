"""Vorticity models and the laminar flows they support.

Every solver run starts from a vorticity distribution gamma(r) and the
bounds of its primitive Gamma, which the model states itself.  This script
builds the four model kinds, prints Gamma_inf / Gamma_sup / Gamma_total,
evaluates the bifurcation criterion, and tabulates a laminar height profile.
"""

import math

import numpy as np

from vorstokes import (
    ExpDecayVorticity,
    GerstnerVorticity,
    ShearFlow,
    TabulatedVorticity,
    ZeroVorticity,
    check_bifurcation_condition,
)

G, L = 9.81, math.pi

models = [
    ZeroVorticity(),
    ExpDecayVorticity(amplitude=1.0, rate=1.0),
    ExpDecayVorticity(amplitude=-0.6, rate=1.4),
    GerstnerVorticity(m=0.5),
    TabulatedVorticity([[0.0, 0.3], [0.8, 0.12], [2.0, 0.02], [4.0, 0.0]]),
]

print(f"{'model':34s} {'Gamma_inf':>10s} {'Gamma_sup':>10s} {'Gamma_tot':>10s} "
      f"{'criterion':>10s} {'margin':>9s}")
for model in models:
    cond = check_bifurcation_condition(model, G, L)
    print(f"{model!r:34s} {model.gamma_inf_bound():10.5f} {model.gamma_sup_bound():10.5f} "
          f"{model.gamma_total():10.5f} {str(cond.holds):>10s} {cond.margin:9.4f}")

# the criterion is monotone under scaling of gamma: push the amplitude up
# until small-amplitude bifurcation is no longer guaranteed
for amp in (1.0, 50.0, 200.0, 400.0):
    cond = check_bifurcation_condition(ExpDecayVorticity(amp, 1.0), G, L)
    print(f"amplitude {amp:6.1f}: integral {cond.integral:9.4f} "
          f"{'< g' if cond.holds else '>= g  (no guarantee)'}")

# a laminar profile: h_tr is strictly increasing with slope 1/a(p)
flow = ShearFlow(GerstnerVorticity(m=0.5), lam=6.0, g=G)
print(f"\nGerstner shear flow at lambda = 6: wave speed c = {flow.c:.6f}")
print(f"{'p':>8s} {'h_tr':>12s} {'h_tr_p':>10s} {'a(p)':>10s}")
for p in np.linspace(0.0, -12.0, 7):
    print(f"{p:8.2f} {flow.h_tr(p):12.6f} {flow.h_tr_p(p):10.6f} {flow.a(p):10.6f}")
