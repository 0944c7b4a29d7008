"""Exact laminar shear flows under a flat surface.

For every admissible lambda the strip problem has the one-parameter family
of trivial solutions

    h_tr(p; lambda) = int_0^p (lambda + 2*Gamma(p'))^(-1/2) dp' - lambda/(2g),

whose derivative is the reciprocal of the coefficient

    a(p; lambda) = (lambda + 2*Gamma(p))^(1/2).

These flows seed the bifurcation analysis and enter every residual through
``a``.  The wave speed of the corresponding frame is fixed by the bottom
condition grad h -> (0, 1/c), giving c^2 = lambda + 2*Gamma_total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StagnationDomainError
from .vorticity import (ExpDecayVorticity, TabulatedVorticity, VorticityModel, ZeroVorticity,
                        _panel_quadrature)

__all__ = ["ShearFlow", "wave_speed"]


def wave_speed(lam: float, model: VorticityModel) -> float:
    """Wave speed c = (lambda + 2*Gamma_total)^(1/2).

    Raises
    ------
    StagnationDomainError
        If the radicand is not positive, i.e. the flow cannot satisfy the
        infinite-bottom condition.
    """
    c_sq = lam + 2.0 * model.gamma_total()
    if not c_sq > 0.0:
        raise StagnationDomainError(
            f"lambda + 2*Gamma_total = {c_sq:.6g} must be positive for a wave speed"
        )
    return math.sqrt(c_sq)


@dataclass
class ShearFlow:
    """A trivial (flat-surface) solution of the strip problem.

    Parameters
    ----------
    model : VorticityModel
        Vorticity distribution.
    lam : float
        Bifurcation parameter, the square of the relative surface speed of
        the laminar flow.  Must exceed -2*Gamma_inf so the coefficient
        a(p; lambda) stays real and positive on the whole half-line.
    g : float
        Gravitational acceleration.
    """

    model: VorticityModel
    lam: float
    g: float = 9.81

    def __post_init__(self):
        if not self.g > 0:
            raise DomainError("gravity must be positive")
        gamma_inf = self.model.gamma_inf_bound()
        if not self.lam + 2.0 * gamma_inf > 0.0:
            raise StagnationDomainError(
                f"lambda = {self.lam:.6g} is not above the critical floor "
                f"{-2.0 * gamma_inf:.6g}"
            )

    @property
    def c(self) -> float:
        """Wave speed of the flow."""
        return wave_speed(self.lam, self.model)

    # -- coefficient -----------------------------------------------------------

    def a(self, p):
        """a(p; lambda) = (lambda + 2*Gamma(p))^(1/2), positive on p <= 0."""
        sq = self.a_squared(p)
        return np.sqrt(sq) if np.ndim(p) else float(math.sqrt(sq))

    def a_squared(self, p):
        sq = self.lam + 2.0 * np.asarray(self.model.big_gamma(p))
        if np.any(sq <= 0.0):
            raise StagnationDomainError(
                f"lambda + 2*Gamma(p) dropped to {float(np.min(sq)):.6g}"
            )
        return sq if np.ndim(p) else float(sq)

    # -- height function of the trivial flow ------------------------------------

    def h_tr(self, p):
        """Height h_tr(p) of the laminar flow; h_tr(0) = -lambda/(2g)."""
        offset = -self.lam / (2.0 * self.g)
        if isinstance(self.model, ZeroVorticity):
            return np.asarray(p) / math.sqrt(self.lam) + offset if np.ndim(p) else (
                p / math.sqrt(self.lam) + offset
            )
        if isinstance(self.model, ExpDecayVorticity):
            out = self._h_int_expdecay(np.asarray(p, dtype=float)) + offset
            return out if np.ndim(p) else float(out)
        out = self._h_int_gauss(np.asarray(p, dtype=float)) + offset
        return out if np.ndim(p) else float(out)

    def h_tr_p(self, p):
        """First derivative h_tr'(p) = 1/a(p; lambda)."""
        return 1.0 / self.a(p)

    # Closed form for the exponential kind: with C = lambda - 2*A*r0,
    # B = 2*A*r0, s(u) = sqrt(C + B*u), u = e^(p/r0), the antiderivative of
    # 1/sqrt(C + B*e^(p/r0)) evaluates, cancellation-free, to
    #   p/sqrt(C) - (2 r0/sqrt(C)) * ln((s(u) + sqrt(C)) / (s(1) + sqrt(C))).
    def _h_int_expdecay(self, p):
        A, r0 = self.model.amplitude, self.model.rate
        B = 2.0 * A * r0
        C = self.lam - B
        if B == 0.0:
            return p / math.sqrt(self.lam)
        sqC = math.sqrt(C)
        s_u = np.sqrt(C + B * np.exp(p / r0))
        s_1 = math.sqrt(C + B)
        return p / sqC - (2.0 * r0 / sqC) * np.log((s_u + sqC) / (s_1 + sqC))

    def _h_int_gauss(self, p):
        """int_0^p dp'/a(p') at every entry of p (any shape, order or repeats).

        The sorted distinct entries, 0 and the knots of a tabulated model
        cut the range into panels, so that 1/a is smooth on each, and
        `_panel_quadrature` integrates each; the running sum of the panels
        from 0 gives every entry.  The rounding scale of 1/a is kappa/a,
        kappa = (|lambda| + |2 Gamma|) / a^2 the condition number of the sum
        a^2 = lambda + 2 Gamma: 1/a carries a relative rounding error of a
        few ulps times kappa.  Without cancellation kappa = 1.
        """
        if not np.all(np.isfinite(p)):
            raise DomainError("h_tr needs finite p")
        # a kink of 1/a inside a panel, near one end, errs alike in the panel
        # and its halves, so the halving test cannot see it
        knots = self.model.knots[:, 0] if isinstance(self.model, TabulatedVorticity) else ()
        kinks = -np.asarray(knots)
        kinks = kinks[kinks > np.min(p, initial=0.0)]
        nodes, where = np.unique(np.concatenate((np.ravel(p), [0.0], kinks)),
                                 return_inverse=True)
        panels = _panel_quadrature(self._ainv_and_scale, nodes)
        # int_0^{nodes[i]} = -(sum of the panels above node i); 0 at p = 0
        below_zero = -np.cumsum(panels[::-1])[::-1]
        return np.append(below_zero, 0.0)[where[:p.size]].reshape(p.shape)

    def _ainv_and_scale(self, p):
        """1/a at p and its rounding scale kappa/a (`_h_int_gauss`)."""
        a_sq = self.a_squared(p)
        ainv = 1.0 / np.sqrt(a_sq)
        kappa = (abs(self.lam) + np.abs(a_sq - self.lam)) / a_sq
        return ainv, kappa * ainv
