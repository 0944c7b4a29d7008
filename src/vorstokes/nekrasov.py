"""Irrotational cross-oracle: the surface-angle integral equation.

In the conformal variables of the irrotational problem, the surface
inclination angle theta(s), s in (0, pi), odd and 2*pi-periodic when
extended, satisfies

    theta(s) = (1/(3*pi)) * int_0^pi log|sin((s+t)/2) / sin((s-t)/2)|
               * sin(theta(t)) / (nu^-1 + int_0^t sin(theta)) dt,

with the single positive parameter nu.  Multiplying by sin(s) and
integrating, the kernel identity int_0^pi K(s,t) sin(t) dt = pi sin(s)
gives, for any nontrivial solution,

    int theta sin = (1/3) int sin(theta) sin(t) / (nu^-1 + C(t)) dt
                  < (nu/3) int theta sin,

so nontrivial solutions require nu > 3, and the slack of the bounding
steps is a computable certificate.

The weakly singular kernel is integrated by product integration: the
log|s - t| part is integrated exactly against a piecewise-linear
interpolant, the smooth remainder by per-cell Gauss rules.  The weights
depend only on the node count and are built once per count.

`solve_nekrasov` takes damped Picard steps until they have chosen a
root, then Newton-Krylov: the Jacobian is I minus a compact operator, so
GMRES without a preconditioner converges in a few iterations at any mesh
size (Kelley 2003).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .continuation import _gmres
from .errors import DomainError, NewtonDivergenceError

__all__ = [
    "kernel",
    "kernel_weights",
    "kernel_integral",
    "NekrasovState",
    "solve_nekrasov",
    "NuBoundReport",
    "nu_bound_check",
    "strip_wave_to_angles",
]

# Picard warm-up steps at most, and the weight of each new map
PICARD_MAX_ITER = 4000
PICARD_DAMPING = 0.5
# Newton updates after the warm-up before the solve gives up, and the
# relative residual each update's GMRES solve reaches
NEWTON_MAX_ITER = 50
KRYLOV_RTOL = 1e-6

_LOG = logging.getLogger("vorstokes")


def kernel(s, t):
    """log|sin((s+t)/2) / sin((s-t)/2)| for s, t in (0, pi), s != t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(np.isclose(s, t, rtol=0.0, atol=1e-15)):
        raise DomainError("kernel is singular on the diagonal s = t")
    val = np.log(np.abs(np.sin(0.5 * (s + t)) / np.sin(0.5 * (s - t))))
    return float(val) if val.ndim == 0 else val


def _log_sinc_half(u):
    # log(2 sin(|u|/2) / |u|), smooth through u = 0
    u = np.abs(u)
    small = u < 1e-6
    safe = np.where(small, 1.0, u)
    out = np.log(2.0 * np.sin(0.5 * safe) / safe)
    return np.where(small, -(u**2) / 24.0, out)


def _primitive_log(u):
    # antiderivative of log|u|, continuous through 0
    out = np.zeros_like(u)
    nz = u != 0.0
    out[nz] = u[nz] * np.log(np.abs(u[nz])) - u[nz]
    return out


def _primitive_ulog(u):
    # antiderivative of u log|u|
    out = np.zeros_like(u)
    nz = u != 0.0
    out[nz] = 0.5 * u[nz] ** 2 * np.log(np.abs(u[nz])) - 0.25 * u[nz] ** 2
    return out


def kernel_weights(s_points, n: int):
    """Product-integration weights on the uniform grid t_j = j*pi/n.

    Returns (t_nodes, W) with W[i, j] such that
    int_0^pi K(s_i, t) f(t) dt ~= sum_j W[i, j] f(t_j) for piecewise-linear
    f.  The kernel splits as a smooth part (per-cell Gauss) plus
    -log|s - t| (exact moments), so the singular cell needs no special
    casing by the caller.
    """
    t = np.linspace(0.0, math.pi, n + 1)
    h = t[1] - t[0]
    s = np.asarray(s_points, dtype=float)[:, None]

    # Gauss-Legendre nodes per cell for the smooth remainder
    xg, wg = np.polynomial.legendre.leggauss(6)
    mid = 0.5 * (t[:-1] + t[1:])
    gauss_t = mid[:, None] + 0.5 * h * xg[None, :]          # (n, 6)
    gauss_w = 0.5 * h * wg[None, :]

    gt = gauss_t.ravel()[None, :]                            # (1, 6n)
    smooth = (
        np.log(2.0 * np.sin(0.5 * (s + gt)))
        - _log_sinc_half(s - gt)
    )                                                        # (m, 6n)
    rise = ((gauss_t - t[:-1][:, None]) / h).ravel()[None, :]
    fall = 1.0 - rise
    wflat = np.broadcast_to(gauss_w, gauss_t.shape).ravel()[None, :]

    m = s.shape[0]
    W = np.zeros((m, n + 1))
    contrib_left = (smooth * wflat * fall).reshape(m, n, 6).sum(axis=2)
    contrib_right = (smooth * wflat * rise).reshape(m, n, 6).sum(axis=2)
    W[:, :n] += contrib_left
    W[:, 1:] += contrib_right

    # exact moments of log|s - t| against the hat functions
    ua = t[:-1][None, :] - s                                 # (m, n)
    ub = t[1:][None, :] - s
    i0 = _primitive_log(ub) - _primitive_log(ua)
    t_mom = _primitive_ulog(ub) - _primitive_ulog(ua) + s * i0
    left = ((t[1:][None, :]) * i0 - t_mom) / h               # weight of t_j
    right = (t_mom - t[:-1][None, :] * i0) / h               # weight of t_{j+1}
    W[:, : n] -= left
    W[:, 1:] -= right
    return t, W


def kernel_integral(s: float, f, n: int = 512) -> float:
    """int_0^pi K(s, t) f(t) dt by the product-integration rule."""
    t, W = kernel_weights([s], n)
    vals = np.asarray(f(t) if callable(f) else f, dtype=float)
    return float(W[0] @ vals)


@dataclass
class NekrasovState:
    """Solution sample of the angle equation on the uniform node set."""

    nu: float
    t: np.ndarray
    theta: np.ndarray
    n_quad: int
    iterations: int
    update: float

    def __post_init__(self):
        if self.theta[0] != 0.0 or self.theta[-1] != 0.0:
            raise DomainError("theta must vanish at s = 0 and s = pi")

    @property
    def trivial(self):
        return float(np.max(np.abs(self.theta))) < 1e-12


def _running_trapezoid(y, x):
    """Trapezoid integral of y over x from x[0] to each node, 0 at x[0]."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


def _picard_map(nu, t, W, theta):
    st = np.sin(theta)
    cum = _running_trapezoid(st, t)
    gvals = st / (1.0 / nu + cum)
    out = np.zeros_like(theta)
    out[1:-1] = (W @ gvals) / (3.0 * math.pi)
    return out


@functools.lru_cache(maxsize=None)
def _interior_weights(n):
    """`kernel_weights` W at the interior nodes t_1 .. t_{n-1}, built once per n, read-only."""
    W = kernel_weights(np.linspace(0.0, math.pi, n + 1)[1:-1], n)[1]
    W.flags.writeable = False
    return W


def _newton_system(nu, t, W, theta):
    """F(theta) = theta - map(theta) at the interior nodes, and v -> J v with J = F'(theta).

    With D = nu^-1 + T(sin theta), T the running trapezoid,
    J v = v - W [(cos theta / D) v - (sin theta / D^2) T(cos theta v)] / (3 pi),
    v padded with zeros at both ends: O(n^2) per product, no matrix.  The
    padded v, the steps of t and T's buffers are built here, once per
    linearization; each product fills them in place, in the operation
    order of `_running_trapezoid`, so it gives the same bits.
    """
    st, ct = np.sin(theta), np.cos(theta)
    denom = 1.0 / nu + _running_trapezoid(st, t)
    a, b = ct / denom, st / denom**2
    dt = np.diff(t)
    full, y, cum = np.zeros_like(t), np.empty_like(t), np.zeros_like(t)
    seg = np.empty_like(dt)

    def jv(v):
        full[1:-1] = v
        np.multiply(ct, full, out=y)
        np.add(y[1:], y[:-1], out=seg)
        np.multiply(seg, 0.5, out=seg)
        np.multiply(seg, dt, out=seg)
        np.cumsum(seg, out=cum[1:])
        return v - (W @ (a * full - b * cum)) / (3.0 * math.pi)

    return (theta - _picard_map(nu, t, W, theta))[1:-1], jv


def _check_angles(theta, it, update):
    if not np.all(np.isfinite(theta)) or np.max(np.abs(theta)) > 0.5 * math.pi:
        raise NewtonDivergenceError(
            f"iterate left the admissible angle range at step {it}",
            residual=update, iterations=it,
        )


def solve_nekrasov(nu: float, n_quad: int = 256, tol: float = 1e-12,
                   theta0=None) -> NekrasovState:
    """Picard warm-up, then Newton-Krylov, for the angle equation.

    Starting from zero returns the trivial solution immediately; a
    perturbed start converges to the nontrivial positive solution once nu
    exceeds the existence threshold, and falls back to zero below it.

    Damped Picard steps (`PICARD_DAMPING`) run until the update shrinks
    from one step to the next and is at most a quarter of max|theta|, or
    raise after `PICARD_MAX_ITER`: they choose the root, since Newton from
    the raw start can reach another one.  Newton on
    F(theta) = theta - map(theta) then finishes, each update solved by
    GMRES (`continuation._gmres`, no preconditioner, relative residual
    `KRYLOV_RTOL`) on matrix-free J v, until the sup norm of an update is
    below ``tol`` or `NEWTON_MAX_ITER` updates raise.  An update whose GMRES
    solve stalled at `continuation.KRYLOV_MAX` iterations does not end the solve, however
    small: it may be small because GMRES stalled.  Every iterate must
    stay finite and inside |theta| <= pi/2.  ``iterations`` counts Picard
    steps plus Newton updates; one DEBUG record on the ``vorstokes``
    logger gives both counts, the GMRES iterations, the stalled GMRES
    solves and the last update.
    """
    if not nu > 0.0:
        raise DomainError("nu must be positive")
    if n_quad < 2:
        raise DomainError(f"n_quad must be at least 2, got {n_quad}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    t = np.linspace(0.0, math.pi, n_quad + 1)
    theta = np.zeros_like(t) if theta0 is None else np.asarray(theta0, float).copy()
    if theta.shape != t.shape:
        raise DomainError(f"theta0 must have {t.shape[0]} samples")
    theta[0] = theta[-1] = 0.0
    if float(np.max(np.abs(theta))) == 0.0:
        return NekrasovState(nu=nu, t=t, theta=theta, n_quad=n_quad,
                             iterations=0, update=0.0)

    W = _interior_weights(n_quad)
    last = update = math.inf
    for picard in range(1, PICARD_MAX_ITER + 1):
        new = (1.0 - PICARD_DAMPING) * theta + PICARD_DAMPING * _picard_map(nu, t, W, theta)
        last, update = update, float(np.max(np.abs(new - theta)))
        theta = new
        _check_angles(theta, picard, update)
        if update < tol or picard > 1 and update < last and update <= 0.25 * np.max(np.abs(theta)):
            break
    else:
        raise NewtonDivergenceError(
            f"Picard warm-up did not settle in {PICARD_MAX_ITER} steps",
            residual=update, iterations=PICARD_MAX_ITER,
        )

    newton = krylov = stalled = 0
    converged = True
    while update >= tol or not converged:
        if newton == NEWTON_MAX_ITER:
            raise NewtonDivergenceError(
                f"Newton did not reach tol {tol:.2g} in {NEWTON_MAX_ITER} updates "
                f"after {picard} Picard steps ({stalled} GMRES solves stalled)",
                residual=update, iterations=picard + newton,
            )
        residual, jv = _newton_system(nu, t, W, theta)
        step, k, converged = _gmres(jv, lambda v: v, -residual, KRYLOV_RTOL)
        theta[1:-1] += step
        newton, krylov, stalled = newton + 1, krylov + k, stalled + (not converged)
        update = float(np.max(np.abs(step)))
        _check_angles(theta, picard + newton, update)
    _LOG.debug("angle equation at nu %.6g: %d Picard steps, %d Newton updates, "
               "%d GMRES iterations (%d solves stalled), last update %.3e",
               nu, picard, newton, krylov, stalled, update)
    return NekrasovState(nu=nu, t=t, theta=theta, n_quad=n_quad,
                         iterations=picard + newton, update=update)


@dataclass
class NuBoundReport:
    """Certificate of the parameter bound for a nontrivial angle profile.

    ``projection`` is int theta sin s ds, ``contracted`` the same integral
    evaluated through the equation; their near-equality checks the solve,
    and contracted < (nu/3) projection certifies nu > 3.
    """

    nu: float
    projection: float
    contracted: float
    ratio: float
    identity_residual: float
    holds: bool
    skipped: bool = False


def nu_bound_check(state: NekrasovState) -> NuBoundReport:
    """Evaluate both sides of the sin-projected inequality."""
    if state.trivial:
        return NuBoundReport(nu=state.nu, projection=0.0, contracted=0.0,
                             ratio=math.nan, identity_residual=0.0,
                             holds=True, skipped=True)
    t, theta, nu = state.t, state.theta, state.nu
    st = np.sin(theta)
    cum = _running_trapezoid(st, t)
    projection = float(np.trapezoid(theta * np.sin(t), t))
    contracted = float(np.trapezoid(np.sin(t) * st / (1.0 / nu + cum), t)) / 3.0
    bound = (nu / 3.0) * projection
    identity_residual = abs(projection - contracted) / max(abs(projection), 1e-30)
    return NuBoundReport(
        nu=nu,
        projection=projection,
        contracted=contracted,
        ratio=bound / contracted if contracted != 0.0 else math.inf,
        identity_residual=identity_residual,
        holds=contracted < bound,
    )


def strip_wave_to_angles(wave, g: float, n_quad: int = 256):
    """Map a reconstructed irrotational wave to (nu_eff, angle profile).

    The surface is re-parameterized by the normalized potential drop from
    the crest; the effective parameter uses the crest speed,
    nu_eff = 3 g L c / (pi |psi_y(0, eta(0))|^3).  Returns a NekrasovState
    carrying the resampled angles for direct comparison with a solve.
    """
    state = wave.source
    grid = state.grid
    # reverse the columns: x = -q runs crest (0) to trough (L)
    hp_top = wave.hp[-1][::-1]
    hq_top = wave.fields["wq"][-1][::-1]
    x = -grid.q_nodes[::-1]
    slope = -hq_top          # eta'(x) for x in (0, L)
    theta = -np.arctan(slope)

    dsdx = (1.0 + hq_top**2) / hp_top
    s_raw = _running_trapezoid(dsdx, x)
    s_of_x = math.pi * s_raw / s_raw[-1]

    crest_speed = 1.0 / hp_top[0]
    nu_eff = 3.0 * g * grid.L * wave.c / (math.pi * crest_speed**3)

    t = np.linspace(0.0, math.pi, n_quad + 1)
    theta_s = np.interp(t, s_of_x, theta)
    theta_s[0] = 0.0
    theta_s[-1] = 0.0
    return NekrasovState(nu=nu_eff, t=t, theta=theta_s, n_quad=n_quad,
                         iterations=0, update=0.0)
