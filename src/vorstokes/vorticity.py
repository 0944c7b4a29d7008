"""Vorticity distributions for rotational deep-water waves.

The vorticity of the flow is prescribed as a function gamma(r) of the
stream function, r >= 0.  This module provides the admissible model kinds:
zero, exponential decay, Gerstner's trochoidal vorticity (fixed by its
parameter m) and a tabulated monotone-cubic interpolant that builds any
decaying gamma from knots; ``model_from_config`` builds one from a config
block.  Each model states every derived scalar the solvers consume:

* ``Gamma(p) = int_0^p gamma(-p') dp'`` for p <= 0, with ``Gamma(0) = 0``,
* its infimum/supremum over p <= 0 and its infinite-depth limit;

and ``check_bifurcation_condition`` evaluates the integral criterion
deciding whether a small-amplitude wave branch bifurcates from the
shear-flow family for given gravity and half-period.

Admissible models decay at depth, ``gamma(r) = O(r^(-2-2*rho))`` for some
rho > 0, so that Gamma stays bounded on the half-line.  A closed-form kind
is also monotone in r, so gamma(0) alone fixes the signs of gamma and
gamma', the supremum of gamma and the bounds of Gamma (see
``VorticityModel``).  All models are immutable and safe to share between
concurrent solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from .errors import DomainError, QuadratureError

__all__ = [
    "VorticityModel",
    "ZeroVorticity",
    "ExpDecayVorticity",
    "GerstnerVorticity",
    "TabulatedVorticity",
    "BifurcationCondition",
    "check_bifurcation_condition",
    "model_from_config",
]

# Tolerance for locating the depth beyond which Gamma is indistinguishable
# from its limit.
TAIL_TOL = 1e-12


def _as_nonneg_array(r, name="r"):
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise DomainError(f"{name} must be nonnegative, got minimum {arr.min()!r}")
    return arr


def _as_nonpos_array(p, name="p"):
    arr = np.asarray(p, dtype=float)
    if np.any(arr > 0):
        raise DomainError(f"{name} must be nonpositive, got maximum {arr.max()!r}")
    return arr


class VorticityModel:
    """Common interface: gamma(r), gamma'(r), and the antiderivative Gamma(p).

    Subclasses implement ``_gamma_impl``, ``_gamma_prime_impl`` and
    ``_primitive_impl`` (G(r) = int_0^r gamma, which must also accept
    r = inf).  ``big_gamma`` then follows from Gamma(p) = -G(-p), and the
    depth limit of Gamma from -G(inf).

    The sign traits and ``gamma_sup_value`` are read off gamma(0), and the
    bounds of Gamma off its depth limit.  That is exact for a kind whose
    gamma is monotone on [0, inf) and decays to 0: gamma keeps the sign of
    gamma(0), gamma' the opposite one, sup gamma = max(gamma(0), 0), and
    Gamma runs monotonically from 0 to Gamma_total, so inf Gamma =
    min(0, Gamma_total) and sup Gamma = max(0, Gamma_total).  A closed-form
    kind must meet this condition, or override the traits and the bounds
    as ``TabulatedVorticity`` does.
    """

    kind = "abstract"

    # -- pointwise evaluation -------------------------------------------------

    def gamma(self, r):
        """Vorticity value gamma(r) for r >= 0; scalar in, scalar out."""
        arr = _as_nonneg_array(r)
        out = self._gamma_impl(arr)
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def gamma_prime(self, r):
        """Derivative gamma'(r) for r >= 0."""
        arr = _as_nonneg_array(r)
        out = self._gamma_prime_impl(arr)
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def big_gamma(self, p):
        """Gamma(p) = int_0^p gamma(-p') dp' for p <= 0; Gamma(0) = 0 exactly."""
        arr = _as_nonpos_array(p)
        out = -self._primitive_impl(-arr)
        return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out

    def gamma_total(self):
        """Limit of Gamma(p) as p -> -infinity (improper integral)."""
        return -float(self._primitive_impl(np.inf))

    def gamma_inf_bound(self) -> float:
        """inf of Gamma over p <= 0; lambda must exceed -2 times it."""
        return min(0.0, self.gamma_total())

    def gamma_sup_bound(self) -> float:
        """sup of Gamma over p <= 0."""
        return max(0.0, self.gamma_total())

    # -- sign traits used to route the maximum-principle checks ---------------

    @property
    def gamma_nonneg(self) -> bool:
        return self.gamma(0.0) >= 0

    @property
    def gamma_nonpos(self) -> bool:
        return self.gamma(0.0) <= 0

    @property
    def gamma_prime_nonneg(self) -> bool:
        return self.gamma_nonpos

    @property
    def gamma_prime_nonpos(self) -> bool:
        return self.gamma_nonneg

    def gamma_sup_value(self) -> float:
        """sup of gamma over [0, infinity), used in the pressure estimate."""
        return max(0.0, self.gamma(0.0))

    # -- numeric helpers -------------------------------------------------------

    def tail_depth(self) -> float:
        """Depth P with |Gamma(-P) - Gamma_total| < TAIL_TOL * scale."""
        scale = max(1.0, abs(self.gamma_total()))
        total = self.gamma_total()
        depth = 8.0
        for _ in range(60):
            if abs(self.big_gamma(-depth) - total) < TAIL_TOL * scale:
                return depth
            depth *= 2.0
        raise QuadratureError(
            "Gamma(p) does not settle to its limit; the decay hypothesis "
            "gamma(r) = O(r^(-2-2*rho)) appears to be violated",
            achieved=abs(self.big_gamma(-depth) - total),
        )

    # subclass hooks

    def _gamma_impl(self, r):
        raise NotImplementedError

    def _gamma_prime_impl(self, r):
        raise NotImplementedError

    def _primitive_impl(self, r):
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroVorticity(VorticityModel):
    """Irrotational flow, gamma identically zero."""

    kind = "zero"

    def _gamma_impl(self, r):
        return np.zeros_like(r)

    def _gamma_prime_impl(self, r):
        return np.zeros_like(r)

    def _primitive_impl(self, r):
        return np.zeros_like(r)


@dataclass(frozen=True)
class ExpDecayVorticity(VorticityModel):
    """gamma(r) = amplitude * exp(-r / rate).

    Positive amplitude gives a nonnegative vorticity that is monotone with
    depth; negative amplitude gives the nonpositive monotone class.  The
    antiderivative is closed-form, Gamma(p) = amplitude*rate*(e^(p/rate)-1),
    which the quadrature-based paths cross-check in the tests.
    """

    amplitude: float = 1.0
    rate: float = 1.0
    kind = "expdecay"

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise DomainError(f"amplitude must be finite, got {self.amplitude!r}")
        if not (0 < self.rate < math.inf):
            raise DomainError(f"decay rate must be positive and finite, got {self.rate!r}")

    def _gamma_impl(self, r):
        return self.amplitude * np.exp(-r / self.rate)

    def _gamma_prime_impl(self, r):
        return -(self.amplitude / self.rate) * np.exp(-r / self.rate)

    def _primitive_impl(self, r):
        return self.amplitude * self.rate * (1.0 - np.exp(-r / self.rate))


@dataclass(frozen=True)
class GerstnerVorticity(VorticityModel):
    """Vorticity of trochoidal-wave type: gamma = -2 m^2 E / (1 - m^2 E).

    Here E = exp(2 b(psi)) with 0 <= m < 1 and the affine map
    b(psi) = -1 - psi: b(0) = -1, slope -1, so b stays in (-inf, 0) and
    gamma decays exponentially at depth, keeping Gamma bounded.  The sign
    pattern is what the downstream estimates rely on: gamma <= 0 and
    gamma' >= 0.  All primitives are closed-form.
    """

    m: float
    kind = "gerstner"

    def __post_init__(self):
        if not 0.0 <= self.m < 1.0:
            raise DomainError(f"Gerstner parameter m must lie in [0, 1), got {self.m!r}")

    def _E(self, r):
        return np.exp(2.0 * (-1.0 - np.asarray(r, dtype=float)))

    def _gamma_impl(self, r):
        E = self._E(r)
        return -2.0 * self.m**2 * E / (1.0 - self.m**2 * E)

    def _gamma_prime_impl(self, r):
        E = self._E(r)
        # d/dr with b' = -1: gamma' = 4 m^2 E / (1 - m^2 E)^2
        return 4.0 * self.m**2 * E / (1.0 - self.m**2 * E) ** 2

    def _primitive_impl(self, r):
        # G(r) = -[ln(1 - m^2 e^(2b(r))) - ln(1 - m^2 e^(2b(0)))]
        m2 = self.m**2
        return -(np.log1p(-m2 * self._E(r)) - math.log1p(-m2 * math.exp(-2.0)))


class TabulatedVorticity(VorticityModel):
    """C1 monotone-cubic interpolant through (r, gamma) knots.

    The knots must start at r = 0 and end with gamma = 0; beyond the last
    knot the model is clamped to zero with zero slope, which preserves the
    decay hypothesis.  The interpolant need not be monotone and gamma may
    change sign, so the sign traits, sup gamma and the bounds of Gamma are
    sampled rather than read off gamma(0) and Gamma_total.
    """

    kind = "tabulated"

    def __init__(self, knots):
        pts = np.asarray(knots, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise DomainError("knots must be an (n, 2) array with n >= 3")
        if not np.all(np.isfinite(pts)):
            raise DomainError("knots must be finite numbers")
        r, g = pts[:, 0], pts[:, 1]
        if r[0] != 0.0 or np.any(np.diff(r) <= 0):
            raise DomainError("knot abscissae must start at 0 and increase strictly")
        if g[-1] != 0.0:
            raise DomainError("last knot value must be 0 so the zero clamp stays C1")
        slopes = PchipInterpolator(r, g).derivative()(r)
        slopes[-1] = 0.0
        self._spline = CubicHermiteSpline(r, g, slopes)
        self._prim = self._spline.antiderivative()
        self.r_last = float(r[-1])
        self.knots = pts

    def _gamma_impl(self, r):
        rr = np.asarray(r, dtype=float)
        return np.where(rr > self.r_last, 0.0, self._spline(np.minimum(rr, self.r_last)))

    def _gamma_prime_impl(self, r):
        rr = np.asarray(r, dtype=float)
        d = self._spline.derivative()
        return np.where(rr > self.r_last, 0.0, d(np.minimum(rr, self.r_last)))

    def _primitive_impl(self, r):
        rr = np.asarray(r, dtype=float)
        return self._prim(np.minimum(rr, self.r_last))

    def _dense_gamma(self):
        rr = np.linspace(0.0, self.r_last, 2049)
        return rr, self._gamma_impl(rr)

    @property
    def gamma_nonneg(self):
        return bool(np.all(self._dense_gamma()[1] >= -1e-14))

    @property
    def gamma_nonpos(self):
        return bool(np.all(self._dense_gamma()[1] <= 1e-14))

    @property
    def gamma_prime_nonneg(self):
        rr = self._dense_gamma()[0]
        return bool(np.all(self._gamma_prime_impl(rr) >= -1e-12))

    @property
    def gamma_prime_nonpos(self):
        rr = self._dense_gamma()[0]
        return bool(np.all(self._gamma_prime_impl(rr) <= 1e-12))

    def gamma_sup_value(self):
        return max(0.0, float(self._dense_gamma()[1].max()))

    def _sampled_bounds(self):
        """(inf Gamma, sup Gamma) over a refining grid of p <= 0 and the depth limit.

        Refinement stops once both bounds settle below 1e-10 absolute change.
        """
        total = self.gamma_total()
        depth = self.tail_depth()
        lo = hi = None
        n = 1025
        for _ in range(6):
            p = -np.linspace(0.0, depth, n)
            g = self.big_gamma(p)
            new_lo = min(float(np.min(g)), total)
            new_hi = max(float(np.max(g)), total)
            if lo is not None and abs(new_lo - lo) < 1e-10 and abs(new_hi - hi) < 1e-10:
                lo, hi = new_lo, new_hi
                break
            lo, hi = new_lo, new_hi
            n = 2 * (n - 1) + 1
        return lo, hi

    def gamma_inf_bound(self):
        return self._sampled_bounds()[0]

    def gamma_sup_bound(self):
        return self._sampled_bounds()[1]

    def __repr__(self):
        return f"TabulatedVorticity({len(self.knots)} knots)"


@dataclass(frozen=True)
class BifurcationCondition:
    """Result of the small-amplitude bifurcation criterion.

    ``holds`` is True when the integral falls strictly below gravity;
    ``margin`` is g minus the integral value.
    """

    holds: bool
    margin: float
    integral: float


def check_bifurcation_condition(
    model: VorticityModel, g: float, L: float
) -> BifurcationCondition:
    """Evaluate the sufficient condition for a bifurcation point to exist.

    The criterion integrates
        2*(2*Gamma - 2*Gamma_inf)^(3/2) + (pi/L)^2 * (2*Gamma - 2*Gamma_inf)^(1/2)
    against e^(2p) over p in (-inf, 0] and compares the value with g.
    """
    if g <= 0 or L <= 0:
        raise DomainError("gravity and half-period must be positive")
    depth = max(model.tail_depth(), 40.0)
    n = 8193
    p = -np.linspace(0.0, depth, n)[::-1]
    q = 2.0 * model.big_gamma(p) - 2.0 * model.gamma_inf_bound()
    q = np.maximum(q, 0.0)
    integrand = (2.0 * q**1.5 + (math.pi / L) ** 2 * np.sqrt(q)) * np.exp(2.0 * p)
    value = float(simpson(integrand, x=p))
    return BifurcationCondition(holds=value < g, margin=g - value, integral=value)


# -- construction from a config block ------------------------------------------


def model_from_config(block: dict) -> VorticityModel:
    """Build a model from a flat key/value block (kind and parameters)."""
    kind = str(block.get("kind", "")).lower()
    if kind == "zero":
        return ZeroVorticity()
    if kind == "expdecay":
        return ExpDecayVorticity(
            amplitude=float(block.get("amplitude", 1.0)),
            rate=float(block.get("rate", 1.0)),
        )
    if kind == "gerstner":
        return GerstnerVorticity(m=float(block.get("m", 0.5)))
    if kind == "tabulated":
        if "knots" not in block:
            raise DomainError("a tabulated model needs knots")
        return TabulatedVorticity(block["knots"])
    raise DomainError(f"unknown vorticity kind {kind!r}")
