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
accurate; the root finder removes the leading grid error by Richardson
extrapolation across a grid doubling.  Every offset, step and tolerance of
the search is a multiple of g L / pi, and the truncation depth a multiple
of the mode's decay length, so lambda* / (g L / pi) does not depend on the
scale of g and L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.optimize import brentq

from .errors import BifurcationAbsentError, DomainError, NoDiscreteEigenvalue
from .vorticity import VorticityFunctionals, VorticityModel, functionals

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
# and Brent's tolerance, in units of g L / pi (the zero-vorticity lambda*)
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
    fn: VorticityFunctionals = field(default=None, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError("epsilon must lie in [0, 1)")
        if self.g <= 0 or self.L <= 0:
            raise DomainError("gravity and half-period must be positive")
        if self.n < 8:
            raise DomainError("need at least 8 grid nodes")
        if self.fn is None:
            self.fn = functionals(self.model)
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
        """Quadratic-form factors (stiffness diag/offdiag, mass diag) and grid.

        The Dirichlet row at the bottom node is eliminated; arrays refer to
        the remaining nodes p_1 .. p_n with p_n = 0.
        """
        n = self.n if n is None else n
        p = self.p_nodes(n)
        dp = p[1] - p[0]
        pm = 0.5 * (p[:-1] + p[1:])
        gam_mid = self._big_gamma(("mid", n), pm)
        gam_nod = self._big_gamma(("nod", n), p)
        a2_mid = lam + 2.0 * gam_mid
        a2_nod = lam + 2.0 * gam_nod
        if a2_mid.min() <= 0.0 or a2_nod.min() <= 0.0:
            raise DomainError(f"lambda = {lam:.6g} is below the admissible floor")
        a3_mid = a2_mid**1.5
        a1_nod = np.sqrt(a2_nod)
        a3_nod = a2_nod * a1_nod

        w = np.full(n + 1, dp)
        w[0] = w[-1] = 0.5 * dp

        # stiffness: sum a^3_mid (v_{i+1}-v_i)^2 / dp; boundary term -g v(0)^2
        k_off = -a3_mid / dp                      # couples p_i, p_{i+1}
        k_diag = np.zeros(n + 1)
        k_diag[:-1] += a3_mid / dp
        k_diag[1:] += a3_mid / dp
        k_diag += self.epsilon * w * a3_nod
        k_diag[-1] -= self.g
        m_diag = w * a1_nod

        # drop the Dirichlet node at -depth
        return k_diag[1:], k_off[1:], m_diag[1:], p[1:]


def rayleigh_quotient(prob: SLProblem, lam: float, v) -> float:
    """Discrete Rayleigh quotient of a trial function.

    ``v`` may be a callable of p or an array on ``prob.p_nodes()[1:]``.
    Uses the same quadratic forms as the eigensolver, so the quotient of a
    computed eigenfunction reproduces its eigenvalue exactly.
    """
    k_diag, k_off, m_diag, p = prob.forms(lam)
    vv = np.asarray(v(p) if callable(v) else v, dtype=float)
    if vv.shape != p.shape:
        raise DomainError(f"trial function must have {p.shape[0]} samples")
    den = float(vv @ (m_diag * vv))
    if den <= 0.0:
        raise DomainError("trial function is identically zero")
    num = float(vv @ (k_diag * vv) + 2.0 * (vv[:-1] * k_off * vv[1:]).sum())
    return num / den


def _scaled_pencil(prob, lam, n):
    """(d, e, scale, p): the pencil as one symmetric tridiagonal (d, e), M^-1/2 and the nodes."""
    k_diag, k_off, m_diag, p = prob.forms(lam, n)
    scale = 1.0 / np.sqrt(m_diag)
    return k_diag * scale**2, k_off * scale[:-1] * scale[1:], scale, p


def _smallest_value(prob, lam, n=None):
    """Lowest eigenvalue of the pencil, without its eigenvector.

    LAPACK's ``stebz``, the driver `_smallest_pair` uses too, so the value
    is the same bit for bit; solving for the value alone takes about a
    fifth less time.
    """
    d, e, _, _ = _scaled_pencil(prob, lam, n)
    return float(eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0])


def _smallest_pair(prob, lam, n=None):
    d, e, scale, p = _scaled_pencil(prob, lam, n)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    v = vecs[:, 0] * scale
    if v[-1] < 0.0:
        v = -v
    return float(vals[0]), v, p


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
        """Eigenfunction sampled at arbitrary p <= 0 (monotone interpolation)."""
        interp = PchipInterpolator(self.p, self.phi)
        pp = np.asarray(p, dtype=float)
        out = np.where(pp < self.p[0], 0.0, interp(np.maximum(pp, self.p[0])))
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


def find_bifurcation_point(prob: SLProblem) -> BifurcationPoint:
    """Locate lambda with Lambda(lambda) = -(pi/L)^2 and its eigenfunction.

    `bracket_root` walks from ``BRACKET_SEED`` g L / pi above the
    admissible floor on a coarse grid, and Brent's method solves; the
    monotonicity of Lambda in lambda makes the root unique.  The grid is
    then cut at twenty-five decay lengths of the located mode, a second
    walk from the coarse root brackets the Richardson extrapolation across
    a grid doubling, and Brent's method polishes it.  Both solves stop at
    ``BISECTION_RTOL`` g L / pi.  The searches solve for eigenvalues only
    (`_smallest_value`); the eigenfunction is solved for once, at the root.

    Raises
    ------
    BifurcationAbsentError
        If Lambda stays above the target down to the floor (the
        bifurcation criterion fails) or below it up to ``prob.lambda_max``.
    """
    target = -((math.pi / prob.L) ** 2)
    floor = -2.0 * prob.fn.gamma_inf_bound
    scale = prob.g * prob.L / math.pi
    xtol = BISECTION_RTOL * scale
    # brentq evaluates its bracket ends again, so each (problem, lambda, n)
    # is solved once
    values = {}

    def value(problem, lam, n):
        key = (id(problem), lam, n)
        if key not in values:
            values[key] = _smallest_value(problem, lam, n)
        return values[key]

    def walk(f, x0, step):
        bracket = bracket_root(f, x0, step, floor + 1e-12 * scale, prob.lambda_max)
        if bracket is not None:
            return bracket
        if f(x0) >= 0.0:
            raise BifurcationAbsentError(
                f"lowest eigenvalue stays above the target {target:.6g} down "
                f"to the admissible floor; the bifurcation criterion fails"
            )
        raise BifurcationAbsentError(
            f"no sign change of Lambda + (pi/L)^2 up to lambda_max = "
            f"{prob.lambda_max:.6g}"
        )

    # coarse bracket on a cheap grid
    n_coarse = max(256, prob.n // 4)

    def f_coarse(lam):
        return value(prob, lam, n_coarse) - target

    seed = BRACKET_SEED * scale
    lam_rough = brentq(f_coarse, *walk(f_coarse, floor + seed, seed), xtol=xtol)

    # adapt the depth to the located scale and polish with extrapolation
    k_mode = math.sqrt(
        prob.epsilon + (math.pi / prob.L) ** 2 / (lam_rough + 2.0 * prob.fn.gamma_total)
    )
    fine = replace(prob, depth=25.0 / k_mode)

    def f_fine(lam):
        return (4.0 * value(fine, lam, 2 * fine.n) - value(fine, lam, fine.n)) / 3.0 - target

    bracket = walk(f_fine, lam_rough, 0.05 * (lam_rough - floor))
    lam_star = brentq(f_fine, *bracket, xtol=xtol, rtol=BISECTION_RTOL)

    _, v, p = _smallest_pair(fine, lam_star, 2 * fine.n)
    phi = v / v[-1]
    return BifurcationPoint(
        epsilon=prob.epsilon,
        lambda_star=lam_star,
        mu=target,
        p=p,
        phi=phi,
        g=prob.g,
        L=prob.L,
    )


def eigenfunction_decay_rate(bp: BifurcationPoint, fn: VorticityFunctionals) -> float:
    """Guaranteed lower bound on the eigenfunction decay rate.

    The comparison argument yields
    (lambda + 2*Gamma_inf)^(1/2) / (lambda + 2*Gamma_sup)^(3/2); the fitted
    tail slope of log|phi| must not fall below it.
    """
    num = bp.lambda_star + 2.0 * fn.gamma_inf_bound
    den = bp.lambda_star + 2.0 * fn.gamma_sup_bound
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
