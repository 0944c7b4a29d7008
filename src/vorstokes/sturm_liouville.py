"""Singular Sturm-Liouville analysis locating the bifurcation point.

For each regularization strength epsilon in [0, 1) the linearization about
the shear-flow family admits a separated mode Phi(p) cos(pi q / L) exactly
when the half-line eigenvalue problem

    -(a^3(lambda) v')' + eps a^3(lambda) v = mu a(lambda) v   on (-inf, 0),
    lambda^(3/2) v'(0) = g v(0),        v, v' -> 0 at -infinity,

has mu = -(pi/L)^2 as its lowest generalized eigenvalue.  The lowest value
Lambda(lambda) is the infimum of the Rayleigh quotient

    R(v; lambda) = (-g v(0)^2 + int a^3 (v')^2 + eps int a^3 v^2)
                   / int a v^2,

it is a discrete eigenvalue only while it stays below the continuous
spectrum [eps, inf), and it increases monotonically with lambda while
negative.  The unique root of Lambda(lambda) = -(pi/L)^2 is the
bifurcation parameter.

Discretization: the quadratic forms are assembled on a uniform grid with a
Dirichlet cut-off at depth (midpoint stiffness, trapezoid mass), giving a
symmetric tridiagonal pencil whose smallest eigenvalue is second-order
accurate; the root finder, Newton's method with eigenpairs from warm-started
shifted inverse iteration (Parlett 1998), removes the leading grid error by
Richardson extrapolation across a grid doubling.  Every offset, step and
tolerance of the search is a multiple of g L / pi, and the truncation depth
a multiple of the mode's decay length, so lambda* / (g L / pi) does not
depend on the scale of g and L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import BifurcationAbsentError, DomainError, NoDiscreteEigenvalue
from .vorticity import VorticityModel

__all__ = [
    "SLProblem",
    "BifurcationPoint",
    "rayleigh_quotient",
    "lowest_eigenvalue",
    "bracket_root",
    "find_bifurcation_point",
    "eigenfunction_decay_rate",
    "fitted_tail_rate",
]

DEFAULT_NODES = 2000
# first offset above the admissible floor and first step of the bracket walk,
# and the root's tolerance, in units of g L / pi (the zero-vorticity lambda*)
BRACKET_SEED = 1e-3
BISECTION_RTOL = 1e-10


@dataclass
class SLProblem:
    """Half-line eigenvalue problem for one vorticity model and one epsilon.

    The truncation depth defaults to twenty decay lengths of the slowest
    admissible mode, estimated from the largest bracketed lambda.
    """

    model: VorticityModel
    g: float = 9.81
    L: float = math.pi
    epsilon: float = 0.0
    n: int = DEFAULT_NODES
    depth: float = None
    lambda_max: float = None

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError("epsilon must lie in [0, 1)")
        if self.g <= 0 or self.L <= 0:
            raise DomainError("gravity and half-period must be positive")
        if self.n < 8:
            raise DomainError("need at least 8 grid nodes")
        if self.lambda_max is None:
            self.lambda_max = 10.0 * self.g * self.L / math.pi
        if self.depth is None:
            k_est = math.pi / (self.L * math.sqrt(self.lambda_max))
            self.depth = 20.0 / k_est
        self._gamma_cache = {}

    def p_nodes(self, n=None):
        """Uniform grid from -depth up to 0, n interior-plus-boundary nodes."""
        n = self.n if n is None else n
        return np.linspace(-self.depth, 0.0, n + 1)

    def _big_gamma(self, key, p):
        if key not in self._gamma_cache:
            self._gamma_cache[key] = self.model.big_gamma(p)
        return self._gamma_cache[key]

    def forms(self, lam, n=None):
        """The quadratic forms on p_1 .. p_n (p_n = 0), their lambda-derivatives and the nodes.

        A form is (c, r, m): v'Kv = sum c (v_i - v_(i-1))^2 + sum r v^2 with v = 0 at -depth
        (midpoint stiffness), and v'Mv = sum m v^2 (trapezoid mass).
        """
        n = self.n if n is None else n
        p = self.p_nodes(n)
        dp = p[1] - p[0]
        a2_mid = lam + 2.0 * self._big_gamma(("mid", n), 0.5 * (p[:-1] + p[1:]))
        a2_nod = lam + 2.0 * self._big_gamma(("nod", n), p)
        if a2_mid.min() <= 0.0 or a2_nod.min() <= 0.0:
            raise DomainError(f"lambda = {lam:.6g} is below the admissible floor")
        a_mid, a2_nod = np.sqrt(a2_mid), a2_nod[1:]
        a_nod, w = np.sqrt(a2_nod), np.append(np.full(n - 1, dp), 0.5 * dp)
        r = self.epsilon * w * (a2_nod * a_nod)
        r[-1] -= self.g                                   # boundary term -g v(0)^2
        # d(a^3)/dlambda = 3a/2 and d(a)/dlambda = 1/(2a)
        return ((a2_mid**1.5 / dp, r, w * a_nod),
                (1.5 * a_mid / dp, 1.5 * self.epsilon * w * a_nod, 0.5 * w / a_nod), p[1:])


def _quotient(forms, v):
    """Rayleigh quotient of ``v`` in the `SLProblem.forms` ``forms`` and its lambda-derivative.

    The derivative is taken at fixed ``v``; at an eigenvector it is the
    eigenvalue's (Hellmann-Feynman).  Summed over squared differences, the
    stiffness loses no digits to cancellation.
    """
    (c, r, m), (dc, dr, dm), _ = forms
    dv2, v2 = np.diff(v, prepend=0.0) ** 2, v * v
    den = m @ v2
    mu = (c @ dv2 + r @ v2) / den
    return float(mu), float((dc @ dv2 + (dr - mu * dm) @ v2) / den)


def rayleigh_quotient(prob: SLProblem, lam: float, v) -> float:
    """Discrete Rayleigh quotient of a trial function.

    ``v`` may be a callable of p or an array on ``prob.p_nodes()[1:]``.
    Uses the same quadratic forms as the eigensolver, so the quotient of a
    computed eigenfunction reproduces its eigenvalue.
    """
    p = prob.p_nodes()[1:]
    vv = np.asarray(v(p) if callable(v) else v, dtype=float)
    if vv.shape != p.shape:
        raise DomainError(f"trial function must have {p.shape[0]} samples")
    if not vv.any():
        raise DomainError("trial function is identically zero")
    return _quotient(prob.forms(lam), vv)[0]


def _scaled_pencil(forms):
    """(d, e, scale): the pencil of ``forms`` as one symmetric tridiagonal (d, e), and M^-1/2."""
    (c, r, m), _, _ = forms
    scale = 1.0 / np.sqrt(m)
    return (c + np.append(c[1:], 0.0) + r) * scale**2, -c[1:] * scale[:-1] * scale[1:], scale


def _smallest_value(prob, lam, n=None):
    """Lowest eigenvalue of the pencil, without its eigenvector (LAPACK's ``stebz``)."""
    d, e, _ = _scaled_pencil(prob.forms(lam, n))
    return float(eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0])


def _inverse_iteration(d, e, guess, drop, x):
    """Lowest eigenvector of the symmetric tridiagonal T = (d, e) by inverse iteration from ``x``.

    The shift is ``guess - drop``, ``drop`` quadrupled until T - shift has an LDL^T
    factorization, which proves the shift below every eigenvalue.
    """
    while (factors := dpttrf(d - (guess - drop), e))[2] != 0:
        drop *= 4.0
    tol = 8.0 * np.finfo(float).eps * (np.abs(d).max() + 2.0 * np.abs(e).max())
    x, residual = x / np.linalg.norm(x), math.inf
    while residual > tol:
        y = dpttrs(*factors[:2], x)[0]
        size = np.linalg.norm(y)
        y /= size
        x, residual = y, np.linalg.norm(x - (y @ x) * y) / size  # = |T y - (y.T y) y|
    return x


class _Eigenpair(NamedTuple):
    """The lowest eigenpair of a pencil at ``lam``, v(0) > 0, and d mu / d lambda."""

    lam: float
    mu: float
    slope: float
    v: np.ndarray


def _smallest_pair(prob, lam, n, last=None):
    """The `_Eigenpair` at ``lam``: LAPACK's ``stebz`` and ``stein``, or inverse iteration.

    Inverse iteration starts from ``last``, an `_Eigenpair` on any grid,
    shifted below the eigenvalue its slope predicts by the predicted change,
    but by at least 1e-3 (pi/L)^2: near the root the gap to the next is over (pi/L)^2.
    """
    forms = prob.forms(lam, n)
    d, e, scale = _scaled_pencil(forms)
    if last is None:
        x = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[1][:, 0]
    else:
        change = last.slope * (lam - last.lam)
        drop = max(abs(change), 1e-3 * (math.pi / prob.L) ** 2)
        x = _inverse_iteration(d, e, last.mu + change, drop, last.v / scale)
    v = x * scale if x[-1] > 0.0 else -x * scale
    return _Eigenpair(lam, *_quotient(forms, v), v)


def lowest_eigenvalue(prob: SLProblem, lam: float) -> float:
    """Lowest generalized eigenvalue Lambda(lambda).

    Raises
    ------
    NoDiscreteEigenvalue
        When the minimum does not fall below the continuous spectrum
        [epsilon, inf), i.e. no discrete eigenvalue exists.
    """
    mu = _smallest_value(prob, lam)
    if mu >= prob.epsilon:
        raise NoDiscreteEigenvalue(
            f"lowest Rayleigh value {mu:.6g} is not below the continuous "
            f"spectrum threshold {prob.epsilon:.6g}"
        )
    return mu


@dataclass
class BifurcationPoint:
    """Bifurcation parameter and sampled eigenfunction for one epsilon."""

    epsilon: float
    lambda_star: float
    mu: float
    p: np.ndarray
    phi: np.ndarray
    g: float
    L: float

    def __post_init__(self):
        if self.phi[np.argmax(self.p)] != 1.0:
            raise DomainError("eigenfunction must be normalized to 1 at the surface")

    def phi_at(self, p):
        """Eigenfunction sampled at arbitrary p <= 0 (monotone interpolation in -p, exact at 0)."""
        interp = PchipInterpolator(-self.p[::-1], self.phi[::-1])
        pp = np.asarray(p, dtype=float)
        out = np.where(pp < self.p[0], 0.0, interp(np.minimum(-pp, -self.p[0])))
        return out if np.ndim(p) else float(out)


def bracket_root(f, x0, step, lower, upper):
    """Bracket the root of an increasing ``f`` by walking from ``x0``.

    Walks up while f < 0 and down while f >= 0, with steps step, 2 step,
    4 step, ..., never past [lower, upper].  Returns (a, b) with
    f(a) < 0 <= f(b), or None when the walk reaches a bound first.
    """
    x = x0
    up = f(x) < 0.0
    while x < upper if up else x > lower:
        y = min(x + step, upper) if up else max(x - step, lower)
        if (f(y) >= 0.0) == up:
            return (x, y) if up else (y, x)
        x, step = y, 2.0 * step
    return None


def _newton(f, lam, lo, hi, xtol):
    """Root of an increasing ``f``, which returns value and slope, in (lo, hi) from ``lam``.

    Newton's method; each value narrows the bracket, and a step leaving it
    bisects.  Ends on a Newton step, taken, or a bracket at most ``xtol``.
    """
    while hi - lo > xtol:
        value, slope = f(lam)
        lo, hi = (lam, hi) if value < 0.0 else (lo, lam)
        step = -value / slope if slope > 0.0 else math.inf
        if abs(step) <= xtol:
            return lam + step
        lam = lam + step if lo < lam + step < hi else 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def find_bifurcation_point(prob: SLProblem) -> BifurcationPoint:
    """Locate lambda with Lambda(lambda) = -(pi/L)^2 and its eigenfunction.

    `bracket_root` walks from ``BRACKET_SEED`` g L / pi above the
    admissible floor on a coarse grid, on eigenvalues alone; Lambda is
    monotone in lambda, so the root is unique.  Newton's method from the
    bracket's secant point solves to 1e-6 g L / pi, with slopes from the
    eigenvectors (Hellmann-Feynman) and each eigenpair after the first
    from `_inverse_iteration`.  Newton's method on the Richardson extrapolation
    across a grid doubling, the grid cut at twenty-five decay lengths of
    the located mode, polishes the root to ``BISECTION_RTOL`` g L / pi.
    Phi is the finer grid's last eigenvector.

    Raises
    ------
    BifurcationAbsentError
        If Lambda stays above the target down to the floor (the
        bifurcation criterion fails) or below it up to ``prob.lambda_max``.
    """
    target = -((math.pi / prob.L) ** 2)
    floor = -2.0 * prob.model.gamma_inf_bound()
    scale = prob.g * prob.L / math.pi
    lower = floor + 1e-12 * scale

    # coarse bracket on a cheap grid
    n_coarse = max(256, prob.n // 4)
    walked = []

    def f_walk(lam):
        walked.append((lam, _smallest_value(prob, lam, n_coarse) - target))
        return walked[-1][1]

    seed = BRACKET_SEED * scale
    if bracket_root(f_walk, floor + seed, seed, lower, prob.lambda_max) is None:
        if walked[0][1] >= 0.0:
            raise BifurcationAbsentError(
                f"lowest eigenvalue stays above the target {target:.6g} down "
                f"to the admissible floor; the bifurcation criterion fails"
            )
        raise BifurcationAbsentError(
            f"no sign change of Lambda + (pi/L)^2 up to lambda_max = "
            f"{prob.lambda_max:.6g}"
        )
    (lo, f_lo), (hi, f_hi) = sorted(walked[-2:])
    coarse = None

    def f_coarse(lam):
        nonlocal coarse
        coarse = _smallest_pair(prob, lam, n_coarse, coarse)
        return coarse.mu - target, coarse.slope

    lam_rough = _newton(f_coarse, lo - f_lo * (hi - lo) / (f_hi - f_lo), lo, hi, 1e-6 * scale)

    # adapt the depth to the located scale and polish with extrapolation
    k_mode = math.sqrt(
        prob.epsilon + (math.pi / prob.L) ** 2 / (lam_rough + 2.0 * prob.model.gamma_total())
    )
    fine = replace(prob, depth=25.0 / k_mode)
    sizes = (fine.n, 2 * fine.n)
    pairs = [coarse._replace(v=np.interp(fine.p_nodes(n)[1:], prob.p_nodes(n_coarse)[1:],
                                         coarse.v, left=0.0)) for n in sizes]

    def f_fine(lam):
        pairs[:] = [_smallest_pair(fine, lam, n, last) for n, last in zip(sizes, pairs)]
        return ((4.0 * pairs[1].mu - pairs[0].mu) / 3.0 - target,
                (4.0 * pairs[1].slope - pairs[0].slope) / 3.0)

    xtol = BISECTION_RTOL * scale
    lam_star = _newton(f_fine, lam_rough, lower, prob.lambda_max, xtol)
    if not lower + xtol < lam_star < prob.lambda_max - xtol:
        raise BifurcationAbsentError(
            f"the extrapolated root leaves [{lower:.6g}, {prob.lambda_max:.6g}]")
    return BifurcationPoint(
        epsilon=prob.epsilon,
        lambda_star=lam_star,
        mu=target,
        p=fine.p_nodes(2 * fine.n)[1:],
        phi=pairs[1].v / pairs[1].v[-1],
        g=prob.g,
        L=prob.L,
    )


def eigenfunction_decay_rate(bp: BifurcationPoint, model: VorticityModel) -> float:
    """Guaranteed lower bound on the eigenfunction decay rate.

    The comparison argument yields
    (lambda + 2*Gamma_inf)^(1/2) / (lambda + 2*Gamma_sup)^(3/2); the fitted
    tail slope of log|phi| must not fall below it.
    """
    num = bp.lambda_star + 2.0 * model.gamma_inf_bound()
    den = bp.lambda_star + 2.0 * model.gamma_sup_bound()
    if num < 0.0 or den <= 0.0:
        raise DomainError("bifurcation point below the admissible floor")
    return math.sqrt(num) / den**1.5


def fitted_tail_rate(p, values, floor=1e-13):
    """Least-squares slope of log|values| over the usable tail window.

    The window spans depths between 20% and 60% of the deepest sample whose
    magnitude stays above ``floor``; returns the decay rate (positive for
    decaying tails).
    """
    p = np.asarray(p, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    usable = vals > floor
    if usable.sum() < 8:
        raise DomainError("tail too short to fit a decay rate")
    deepest = float(p[usable].min())
    window = (p >= 0.6 * deepest) & (p <= 0.2 * deepest) & usable
    if window.sum() < 4:
        raise DomainError("tail window too short to fit a decay rate")
    slope = np.polyfit(p[window], np.log(vals[window]), 1)[0]
    return float(slope)
