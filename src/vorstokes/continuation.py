"""Branch continuation for the regularized strip problem.

From the bifurcation point (lambda_eps, 0) a branch of nontrivial waves
emerges along s * Phi(p) cos(pi q / L) + O(s^2).  This module traces it by
pseudo-arclength continuation with a bordered corrector that stays
nonsingular across folds, re-converges branches across a decreasing
sequence of regularization strengths at a fixed branch coordinate, and
classifies why a trace stopped.

The corrector factors a preconditioner about once per branch or homotopy:
P, the strip linearization averaged over q, which cosine modes in q split
into one banded system in p per mode (Concus & Golub 1973).  P is factored
without a border; each solve borders it with its own dF/dlambda column and
constraint row by block elimination (Keller 1977; Govaerts 2000), for the
cost of one back-solve.  A solve that builds P takes chord updates on it
while they at least halve the residual; one that starts on a P carried from
an earlier solve, built at another iterate, does not chord on it.
Every other update is Newton-Krylov (Eisenstat & Walker 1996): GMRES (Saad
& Schultz 1986) on the exact bordered system, right-preconditioned by P,
with a matrix-free J v.  It builds P again only
when GMRES stalls, and factors the exact bordered matrix only when GMRES on
a fresh P stalls too.  A one-slot holder, `LUSlot`, owns the factor and
carries it from solve to solve; its `solve` makes those choices for the
corrector and the tangent alike.  Only a branch's
first point solves for its tangent; each later tangent, the next step's
predictor and border row, is the derivative of the quadratic through the
last three accepted points, or of the last two and that first tangent
(Allgower & Georg 1990, ch. 6), which costs no solve.

Every bordered vector, a right side, update, solution, tangent or chord,
is one float array [w.ravel(); lambda] of length n + 1, and a factor is a
function from one such vector to another.

The branch coordinate s is the signed first-cosine coefficient of the
surface trace; it matches the local parameterization near the bifurcation
point and is grid-independent.  The arclength metric weights the field
component by 1/sqrt(node count) for the same reason.
"""

from __future__ import annotations

import ctypes
import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.blas import daxpy, dgemv
from scipy.sparse.linalg import splu

from .errors import (
    AdmissibilityError,
    DomainError,
    NewtonDivergenceError,
    SingularJacobianError,
)
from .shear_flow import wave_speed
from .strip_solver import (DELTA_DEFAULT, StripOperator, WaveState, cosine_matrix, from_modes,
                           to_modes)
from .sturm_liouville import BifurcationPoint

__all__ = [
    "Termination",
    "Caps",
    "Branch",
    "HomotopyResult",
    "LUSlot",
    "surface_mode_amplitude",
    "initial_nontrivial_guess",
    "factor_bordered",
    "factor_modes",
    "solve_bordered",
    "branch_tangent",
    "arclength_step",
    "classify_termination",
    "continue_branch",
    "solve_at_amplitude",
    "newton_solve",
    "epsilon_homotopy",
]

DS_FLOOR = 1e-6
# updates an amplitude solve, an arclength corrector and a fixed-lambda Newton solve may take
AMPLITUDE_MAX_ITER = 20
ARCLENGTH_MAX_ITER = 15
NEWTON_MAX_ITER = 25

_LOG = logging.getLogger("vorstokes")


def _c_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _c_malloc_trim()


def _release_free_heap():
    """Hand the free pages of the C heap back to the operating system (glibc only).

    A branch's transient arrays (fields, GMRES bases, LU workspace) are
    served from the heap once glibc's mmap threshold has risen past them,
    and the free chunks they leave between longer-lived arrays stay
    resident.  Tracing one 401 x 128 branch after another in one process,
    peak RSS crept from 124 MB to 136-152 MB over 16-25 branches, by an
    amount that changed from run to run; with the heap trimmed after each
    branch it stayed at 124-125 MB.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class Termination(enum.Enum):
    RUNNING = "Running"
    MAX_STEPS = "MaxSteps"
    STEP_FLOOR = "StepFloor"
    LAMBDA_BLOWUP = "LambdaBlowup"
    SUP_W_BLOWUP = "SupWBlowup"
    SUP_WP_BLOWUP = "SupWpBlowup"
    LAMBDA_FLOOR = "LambdaFloor"
    STAGNATION_CLAUSE = "StagnationClause"
    SURFACE_CLAUSE = "SurfaceClause"


@dataclass(frozen=True)
class Caps:
    """Desk-scale surrogates for the unbounded-branch alternatives."""

    lambda_cap: float
    w_cap: float = 1e3
    wp_cap: float = 1e3

    @classmethod
    def default(cls, g, L):
        return cls(lambda_cap=100.0 * g * L / math.pi)


def surface_mode_amplitude(state: WaveState) -> float:
    """Signed first-cosine coefficient of the surface trace, a trapezoid sum.

    Summed exactly (`math.fsum`), so an amplitude-constrained solve meets
    its target to about one ulp.
    """
    return math.fsum(-cosine_matrix(state.grid.nq)[1][1] * state.w[-1])


def _mode_weights(grid) -> np.ndarray:
    """Row vector of d(surface_mode_amplitude)/dw on the flattened field."""
    row = np.zeros(grid.np * grid.nq)
    row[(grid.np - 1) * grid.nq:] = -cosine_matrix(grid.nq)[1][1]  # cos(pi q / L) = -V[:, 1]
    return row


def _eigenmode(bp: BifurcationPoint, grid, s: float) -> np.ndarray:
    """The field s * Phi(p) cos(pi q / L) on ``grid``, with a zero bottom row."""
    phi = bp.phi_at(grid.p_nodes)
    w = s * phi[:, None] * -cosine_matrix(grid.nq)[0][1]  # cos(pi q / L) = -V[:, 1]
    w[0] = 0.0
    return w


def initial_nontrivial_guess(bp: BifurcationPoint, op: StripOperator,
                             s: float) -> WaveState:
    """Local-theory seed w = s * Phi(p) cos(pi q / L) at lambda_eps.

    The seed is not evaluated: a solve started from it evaluates it first and
    raises AdmissibilityError when |s| is too large for the admissible set.
    """
    return WaveState(bp.lambda_star, op.epsilon, op.grid, _eigenmode(bp, op.grid, s))


# -- bordered linear algebra -----------------------------------------------------


def factor_bordered(lin, f_lam, c_row, c_lam):
    """The exact bordered solve [[J, f_lam], [c_row, c_lam]]^-1, for `solve_bordered`.

    J, the strip linearization ``lin`` assembled (`StripLinearization.tocsc`),
    may be singular on its own (fold points); the border keeps the extended
    matrix invertible along regular branch arcs.  It is one SuperLU
    factorization of the bordered matrix, border last, in SuperLU's MMD
    order.  J lives only while the bordered matrix is built, so it is freed
    before the LU is.
    """
    n = f_lam.size
    bordered = sp.bmat([[lin.tocsc(), sp.csc_matrix(np.reshape(f_lam, (n, 1)))],
                        [sp.csc_matrix(np.reshape(c_row, (1, n))), [[c_lam]]]], format="csc")
    return _splu(bordered, permc_spec="MMD_AT_PLUS_A").solve


class _BorderedP:
    """[[P, f_lam], [c_row, c_lam]]^-1 by block elimination on P-hat's LU (Keller 1977).

    With Q = `from_modes`, P = Q P-hat Q^-1.  Bordering precomputes z =
    P-hat^-1 Q^-1 f_lam, cq = c_row Q and the Schur complement s = c_lam -
    cq z, one back-solve; a zero or non-finite s raises SingularJacobianError.
    An apply to [r; rho] solves y = P-hat^-1 Q^-1 r and returns [Q (y - z
    x_lam); x_lam] with x_lam = (rho - cq y) / s.
    """

    def __init__(self, grid, lu, f_lam, c_row, c_lam):
        self.grid, self.lu = grid, lu
        self.z = lu.solve(to_modes(grid, f_lam))
        self.cq = to_modes(grid, c_row, transpose=True)
        self.schur = c_lam - self.cq @ self.z
        if not (math.isfinite(self.schur) and self.schur != 0.0):
            raise SingularJacobianError(
                f"bordered factorization failed: Schur complement {self.schur!r}")

    def bordered(self, f_lam, c_row, c_lam):
        """The same P-hat bordered by another column and row."""
        return _BorderedP(self.grid, self.lu, f_lam, c_row, c_lam)

    def __call__(self, rhs):
        n = self.z.size
        out = np.empty(n + 1)
        y = self.lu.solve(to_modes(self.grid, rhs[:n], out=out[:n]))
        out[n] = (rhs[n] - self.cq @ y) / self.schur
        from_modes(self.grid, daxpy(self.z, y, a=-out[n]), out=out[:n])
        return out


def factor_modes(lin, f_lam, c_row, c_lam):
    """The bordered preconditioner solve [[P, f_lam], [c_row, c_lam]]^-1, for `solve_bordered`.

    P-hat = ``lin.modes`` (block-diagonal, mode-major) is factored alone, in
    natural order with partial pivoting, and bordered by block elimination
    (`_BorderedP`), so `LUSlot` can border the same LU again for each later
    system.  Panels of one column cut SuperLU's transient workspace from 19
    MB to 5 MB at 401 x 128, at no cost in time.
    """
    return _BorderedP(lin.grid, _splu(lin.modes, permc_spec="NATURAL", panel_size=1),
                      f_lam, c_row, c_lam)


def _splu(M, **options):
    """`splu` of M with the caller's options, its column order among them."""
    try:  # `splu` is looked up here, where the benchmark's hook replaces it
        return splu(M, **options)
    except RuntimeError as exc:
        raise SingularJacobianError(f"bordered factorization failed: {exc}") from exc


def solve_bordered(factor, rhs):
    """The solution [dw; dlam] of ``factor``'s bordered system for the right side [top; bot].

    ``factor`` is `factor_bordered` or `factor_modes`; both vectors are
    stacked, of length n + 1, and the solution is a new array.
    """
    return factor(rhs)


# GMRES iterations a solve may take on one factor before the slot builds the next
KRYLOV_MAX = 10
# relative bordered residual of a tangent solved by GMRES
TANGENT_RTOL = 1e-4
# forcing term of a corrector's first update on a carried factor, which has no
# contraction rate yet to set one; of 1e-3, 3e-3 and 1e-2, 1e-3 took the fewest
# P applies on a 401 x 128 branch (132, 192 and 186; 0.1 tol / residual took 152)
CARRIED_FORCING = 1e-3


def _gmres(matvec, precond, b, rtol, maxiter=KRYLOV_MAX):
    """Right-preconditioned GMRES from x = 0 for A x = b, with A = ``matvec``, M^-1 = ``precond``.

    Arnoldi on A M^-1 into a preallocated basis, each new vector
    orthogonalized by classical Gram-Schmidt with one reorthogonalization
    (two matrix-vector products against the basis block), and Givens
    rotations on the Hessenberg matrix (Saad & Schultz 1986).  With the
    preconditioner on the right, the rotated residual is the true residual
    |b - A x|, not a preconditioned one; iteration stops when it is at most
    ``rtol * |b|`` (2-norms).  The preconditioned basis is kept, so x
    costs one triangular solve and one product with that basis, and no
    further M^-1.  ``matvec`` must return a new array.  Returns (x,
    iterations, converged).
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0, True
    basis = np.empty((maxiter + 1, b.size))
    pre = np.empty((maxiter, b.size))
    tri = np.zeros((maxiter, maxiter))  # the rotated Hessenberg matrix, upper triangular
    rot = np.empty((maxiter, 2))        # (cos, sin) of each Givens rotation
    g = np.zeros(maxiter + 1)           # the rotated right side beta e_1
    g[0] = beta
    np.divide(b, beta, out=basis[0])
    m, converged = 0, False  # m: columns of the least-squares solve
    for k in range(maxiter):
        pre[k] = precond(basis[k])
        v, block = matvec(pre[k]), basis[:k + 1].T  # n x (k + 1), in place for BLAS
        h = dgemv(1.0, block, v, trans=1)
        v = dgemv(-1.0, block, h, beta=1.0, y=v, overwrite_y=True)
        dh = dgemv(1.0, block, v, trans=1)
        v = dgemv(-1.0, block, dh, beta=1.0, y=v, overwrite_y=True)
        h += dh
        h_next = float(np.linalg.norm(v))
        for i, (c, s) in enumerate(rot[:k]):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        r = math.hypot(h[k], h_next)
        if r == 0.0:  # A M^-1 z_k lies in the span already searched: nothing to gain
            break
        rot[k] = h[k] / r, h_next / r
        tri[:k, k], tri[k, k] = h[:k], r
        g[k], g[k + 1] = rot[k, 0] * g[k], -rot[k, 1] * g[k]
        m, converged = k + 1, abs(g[k + 1]) <= rtol * beta
        if converged or h_next == 0.0:
            break
        np.divide(v, h_next, out=basis[k + 1])
    y = solve_triangular(tri[:m, :m], g[:m])
    return y @ pre[:m], k + 1, bool(converged)


class LUSlot:
    """The one owner of a bordered factor, carried from one solve to the next.

    The caller that traces a branch or a homotopy makes one slot and passes
    it to each solve; a solve given none makes its own.  `solve` is the only
    code that factors for `_bordered_newton` and `branch_tangent`, and
    holds P (`factor_modes`) or, after a fallback, the exact LU
    (`factor_bordered`).  The factor may be from an earlier iterate or
    epsilon: `solve` borders a held P with its own system's column and row
    (the exact LU keeps the border it was built with), uses it as a
    preconditioner and builds another only when GMRES on it stalls, dropping
    the old one first, so one LU is alive at a time; `_bordered_newton`
    chords only on a factor built within its own solve, as the slot's last
    `solve` bordered it.  A solve that raises leaves its last factor in the
    slot; `continue_branch` empties the slot after a failed step, and
    `epsilon_homotopy` stops at its first failure.
    """

    __slots__ = ("factor",)

    def __init__(self):
        self.factor = None

    def solve(self, op: StripOperator, ev, border, rhs, rtol):
        """Solve the bordered system at the evaluation ``ev`` for the stacked right side ``rhs``.

        ``border`` is (c_row, c_lam).  GMRES solves [[J, dF/dlambda],
        [c_row, c_lam]] to the relative residual ``rtol`` in `KRYLOV_MAX`
        iterations, right-preconditioned by the slot's factor; J v and
        dF/dlambda read ``ev``.  J v and its border entry fill one new
        stacked array, and every M^-1 is one `solve_bordered`.  The paths,
        each taken when the one before misses ``rtol``:

        - "Krylov": GMRES on the factor in the slot, if there is one, a P
          bordered first by dF/dlambda at ``ev`` and ``border`` (dropped if
          that border makes it singular);
        - "fresh P": GMRES on P, built at ``ev`` (`factor_modes`);
        - "exact LU": the exact bordered LU at ``ev``, also when P is singular.

        The factor built last stays in the slot.  Returns (x, path,
        iterations): the stacked solution, the path and the GMRES
        iterations taken.
        """
        c_row, c_lam = border
        f_lam, jv, iterations = op.d_residual_d_lambda(ev), op.jacobian_action(ev), 0

        def matvec(x):
            out = np.empty(x.size)
            np.multiply(f_lam, x[-1], out=out[:-1])
            out[:-1] += jv(x[:-1])
            out[-1] = c_row @ x[:-1] + c_lam * x[-1]
            return out

        def precond(x):
            return solve_bordered(self.factor, x)

        if isinstance(self.factor, _BorderedP):  # the exact LU keeps its own border
            try:
                self.factor = self.factor.bordered(f_lam, c_row, c_lam)
            except SingularJacobianError:
                self.factor = None
        if self.factor is not None:
            x, iterations, converged = _gmres(matvec, precond, rhs, rtol)
            if converged:
                return x, "Krylov", iterations
        self.factor = None  # release the old factor before the new one is built
        lin = op.jacobian(ev)
        try:
            self.factor = factor_modes(lin, f_lam, c_row, c_lam)
        except SingularJacobianError:
            pass
        else:
            x, k, converged = _gmres(matvec, precond, rhs, rtol)
            iterations += k
            if converged:
                return x, "fresh P", iterations
            self.factor = None
        self.factor = factor_bordered(lin, f_lam, c_row, c_lam)
        return solve_bordered(self.factor, rhs), "exact LU", iterations


def _bordered_newton(op: StripOperator, state: WaveState, border, tol: float,
                     max_iter: int, label: str, carry: LUSlot = None):
    """Damped chord / Newton-Krylov on {F = 0, one scalar constraint = 0} inside O_delta.

    ``border`` is (c_row, c_lam, constraint): the constraint's derivative in
    w and in lambda, and a function giving its value at an iterate.  M is
    the bordered factor held by ``carry`` (see `LUSlot`), P or, after a
    fallback, the exact LU.  Each update is one of:

    - `LUSlot.solve`, for the first update and whenever the chord is off:
      GMRES on the bordered system at the current iterate,
      right-preconditioned by M, to the forcing term min(1e-2, rate^2)
      clamped to [0.1 tol / residual, 0.5] (Eisenstat & Walker), with
      ``rate`` the last update's contraction.  A first update has no rate:
      on a carried M its term is `CARRIED_FORCING`, on an empty slot 0
      (so 0.1 tol / residual).  When there is no M or GMRES misses the
      term, the same on a fresh P, or the exact LU, after which the chord
      is on;
    - chord: one back-solve of M, only on an M built within this solve and
      while the residual at least halves per update and, at that rate,
      reaches ``tol`` in the updates left.  A carried M was built at
      another iterate; a first chord on it, while it also kept another
      solve's border, raised the residual 1.3-5 times.

    So M is kept across updates, steps and epsilons until a preconditioned
    solve stalls.  Each update is halved (at most thirty times) until the
    iterate is admissible, and logs one DEBUG record on the ``vorstokes``
    logger.  Each iterate is evaluated once (`StripOperator.evaluate`).
    Returns (ev, iterations, residual): ``ev`` is the evaluation of the
    converged iterate, ``ev.state`` the solution; ``iterations`` counts
    updates and ``residual`` is the larger of the sup-norm residual and the
    constraint.
    """
    c_row, c_lam, constraint = border
    carry = carry or LUSlot()
    current = state.copy_with()
    ev = op.evaluate(current)
    op.check_admissible(ev)
    res_prev, chord = math.inf, False
    first_term = CARRIED_FORCING if carry.factor is not None else 0.0
    for it in range(max_iter + 1):
        r = op.residual_vector(ev)
        cons = constraint(current)
        res = max(float(np.max(np.abs(r))), abs(cons))
        if res <= tol:
            return ev, it, res
        if it == max_iter:
            break
        rate = res / res_prev
        res_prev = res
        if rate > 0.5 or res * rate ** (max_iter - it) > tol:
            chord = False
        rhs = -np.append(r, cons)
        if chord:
            dx = solve_bordered(carry.factor, rhs)
            path, krylov = "chord", 0
        else:
            ew = rate**2 if it else first_term  # a first update has no rate
            eta = min(max(min(1e-2, ew), 0.1 * tol / res), 0.5)
            dx, path, krylov = carry.solve(op, ev, (c_row, c_lam), rhs, eta)
            chord = path != "Krylov"
        _LOG.debug("%s update %d: %s, residual %.3e, %d GMRES iterations",
                   label, it + 1, path, res, krylov)
        alpha = 1.0
        for _ in range(30):
            cand = current.copy_with(
                lam=current.lam + alpha * dx[-1],
                w=current.w + alpha * dx[:-1].reshape(current.w.shape),
            )
            ev = op.evaluate(cand)
            if op.is_admissible(ev):
                break
            alpha *= 0.5
        else:
            # raises AdmissibilityError naming the clause and node
            op.check_admissible(ev)
        current = cand
    raise NewtonDivergenceError(
        f"{label} did not reach tol {tol:.2g} in {max_iter} iterations",
        residual=res, iterations=max_iter,
    )


def _branch_ip(a, b):
    """Branch-metric inner product of two stacked [w; lambda] vectors."""
    return a[-1] * b[-1] + float(a[:-1] @ b[:-1]) / (a.size - 1)


def _norm(v):
    return math.sqrt(_branch_ip(v, v))


def _unit(v):
    return v / _norm(v)


def _chord(a, b):
    """The stacked chord [w; lambda] from state ``a`` to state ``b``."""
    return np.append(b.w - a.w, b.lam - a.lam)


def branch_tangent(op: StripOperator, ev, prev, carry: LUSlot = None):
    """Unit tangent [t_w; t_lam] of the solution curve at the evaluated state ``ev``.

    Solves the bordered system with the previous tangent ``prev`` (stacked
    alike) as border row, which both regularizes folds and preserves
    orientation, by one `LUSlot.solve` on ``carry`` to `TANGENT_RTOL`.  J v
    and dF/dlambda read ``ev``, so the tangent differentiates nothing.
    """
    rhs = np.zeros(prev.size)
    rhs[-1] = 1.0
    x, path, krylov = (carry or LUSlot()).solve(
        op, ev, (prev[:-1] / (prev.size - 1), prev[-1]), rhs, TANGENT_RTOL)
    _LOG.debug("branch tangent: %s, %d GMRES iterations", path, krylov)
    return _unit(x)


def seed_tangent(bp: BifurcationPoint, op: StripOperator, sign=1.0):
    """Tangent at the bifurcation point, along the eigenmode, zero in lambda."""
    return _unit(np.append(_eigenmode(bp, op.grid, sign), 0.0))


def newton_solve(op: StripOperator, state: WaveState,
                 tol: float = 1e-10) -> tuple[WaveState, dict]:
    """Solve F(lambda, w) = 0 at the fixed lambda of ``state``.

    The border pins lambda (zero row, unit lambda coefficient).  Returns
    the converged state and an info dict with the iteration count and
    final residual.
    """
    lam0 = state.lam
    border = (np.zeros(state.w.size), 1.0, lambda cur: cur.lam - lam0)
    ev, iterations, res = _bordered_newton(op, state, border, tol, NEWTON_MAX_ITER,
                                           "fixed-lambda Newton")
    return ev.state, {"iterations": iterations, "residual": res}


def arclength_step(op: StripOperator, state: WaveState, tangent, ds: float,
                   tol: float = 1e-10, carry: LUSlot = None):
    """One predictor-corrector step of length ds along the branch.

    Predicts along the unit, stacked ``tangent`` and corrects on the hyperplane
    normal to it at distance ``ds``; returns the corrector's evaluation of
    the corrected state, whose ``.state`` is that state.  ``carry``
    (see `LUSlot`) hands the corrector an earlier solve's factor and
    receives the one it ends with.
    The next tangent is the caller's (`_history_tangent` in
    `continue_branch`).  Raises on corrector failure so the caller can halve
    the step.
    """
    predicted = state.copy_with(lam=state.lam + ds * tangent[-1],
                                w=state.w + ds * tangent[:-1].reshape(state.w.shape))

    def constraint(cur):
        return _branch_ip(_chord(state, cur), tangent) - ds

    return _bordered_newton(op, predicted, (tangent[:-1] / state.w.size, tangent[-1], constraint),
                            tol, ARCLENGTH_MAX_ITER, "arclength corrector", carry=carry)[0]


def _history_tangent(points, first_tangent):
    """Unit tangent at the last of the accepted ``points`` of a branch, without a solve.

    With three or more points, the derivative at x2 of the quadratic through
    the last three, x0, x1, x2, parameterized by branch-norm chord length
    h1 = |x1 - x0|, h2 = |x2 - x1| (unequal after a halved step):
    c0 x0 + c1 x1 + c2 x2 with c0 = h2 / (h1 (h1 + h2)), c1 = -(h1 + h2) /
    (h1 h2), c2 = (h1 + 2 h2) / (h2 (h1 + h2)), accurate to second order in
    the step (Allgower & Georg 1990, ch. 6).  It is evaluated as
    e + h2 / (h1 + h2) (e - d) with the secants d = (x1 - x0) / h1 and
    e = (x2 - x1) / h2, so no large values cancel.  With two points, x1 and
    x2, it is 2 e - t0 (d = t0, h1 -> 0), the slope at x2 of the quadratic
    with slope ``first_tangent`` t0 at x1, while e . t0 > 1/2; a step that
    turns further is too long for t0 to tell the curvature and gets the
    secant e.  Either way it points along the direction of travel.
    """
    chord = _chord(*points[-2:])
    h2 = _norm(chord)
    e = chord / h2
    if len(points) > 2:
        chord = _chord(*points[-3:-1])
        h1 = _norm(chord)
        d, k = chord / h1, h2 / (h1 + h2)
    else:
        d = first_tangent
        k = 1.0 if _branch_ip(e, d) > 0.5 else 0.0
    return _unit(e + k * (e - d))


# the Termination of each clause of O_delta that check_admissible raises
_CLAUSE_TERMINATIONS = dict(zip(StripOperator.CLAUSES, (
    Termination.LAMBDA_FLOOR, Termination.STAGNATION_CLAUSE, Termination.SURFACE_CLAUSE,
)))


def classify_termination(ev, caps: Caps) -> Termination:
    """Map a state's evaluation ``ev`` to the first matching branch-termination clause."""
    if ev.state.lam >= caps.lambda_cap:
        return Termination.LAMBDA_BLOWUP
    if float(np.max(np.abs(ev.state.w))) >= caps.w_cap:
        return Termination.SUP_W_BLOWUP
    if float(np.max(ev.fields["wp"])) >= caps.wp_cap:
        return Termination.SUP_WP_BLOWUP
    try:
        ev.op.check_admissible(ev)
    except AdmissibilityError as exc:
        return _CLAUSE_TERMINATIONS[exc.clause]
    return Termination.RUNNING


@dataclass
class Branch:
    """Accepted states of one epsilon, in order, and their rows, read from each evaluation."""

    epsilon: float
    points: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    termination: Termination = Termination.RUNNING
    diagnostics: str = ""

    def append(self, ev, max_gap=None):
        state, op = ev.state, ev.op
        if self.points and max_gap is not None:
            gap = _norm(_chord(self.points[-1], state))
            if gap > 1.5 * max_gap:
                raise DomainError(f"consecutive branch points are {gap:.3g} apart, "
                                  f"more than 1.5 times the step {max_gap:.3g}")
        self.points.append(state)
        self.rows.append({
            "s": surface_mode_amplitude(state),
            "lambda": state.lam,
            "c": wave_speed(state.lam, op.model),
            "eta_crest": float(state.w[-1, -1]) - state.lam / (2 * op.g),
            "eta_trough": float(state.w[-1, 0]) - state.lam / (2 * op.g),
            "min_rel_speed": 1.0 / float(np.max(ev.hp)),
        })

    def record_rows(self):
        """Summary rows (s, lambda, c, crest, trough, min relative speed, termination)."""
        return [dict(row, termination=self.termination.value) for row in self.rows]


def _append(branch, ev, caps, max_gap=None):
    """Append the point ``ev`` to ``branch`` and return its termination clause."""
    branch.append(ev, max_gap)
    return classify_termination(ev, caps)


def continue_branch(op: StripOperator, bp: BifurcationPoint, steps: int,
                    ds: float, caps: Caps = None, s0: float = None,
                    tol: float = 1e-10) -> Branch:
    """Trace the nontrivial branch from the bifurcation point.

    The first point is produced by an amplitude-constrained solve at
    s0 (default ds), subsequent points by pseudo-arclength steps.  Each
    point is evaluated once (the first here, each later one by its
    corrector) for its termination test and `Branch` row.  The first
    point's tangent is solved (`branch_tangent`, oriented by the seed
    eigenmode); after each accepted step the next tangent is
    `_history_tangent` of the accepted points and that first tangent,
    which costs no solve.  One `LUSlot` carries P from the first solve
    through its tangent and from each accepted step to the next, so a
    smooth branch factors about once; a failed step, including one that
    lands more than 1.5 step lengths away, drops it, so the halved retry
    factors afresh.  The trace stops at ``steps`` accepted points, on a
    termination clause, or when step halving hits its floor; a floor
    reached on an AdmissibilityError reports that error's clause, and
    ``diagnostics`` lists the ds and "Type: message" of every failed
    attempt of that halving cascade.  However the trace ends, the free
    pages of the C heap go back to the operating system
    (`_release_free_heap`).  Raises DomainError for ``steps < 1``, for
    ``ds <= 0`` and for ``s0 == 0``, the trivial solution.
    """
    if steps < 1:
        raise DomainError(f"steps must be at least 1, got {steps}")
    if not ds > 0.0:
        raise DomainError(f"arclength step must be positive, got {ds!r}")
    s_first = ds if s0 is None else s0
    if s_first == 0.0:
        raise DomainError("a branch cannot start on the trivial solution (s0 = 0)")
    caps = Caps.default(op.g, op.grid.L) if caps is None else caps
    try:
        return _trace_branch(op, bp, steps, ds, caps, s_first, tol)
    finally:
        _release_free_heap()


def _trace_branch(op, bp, steps, ds, caps, s_first, tol) -> Branch:
    """`continue_branch` after its argument checks, with the first point at ``s_first``."""
    branch = Branch(epsilon=op.epsilon)
    carry = LUSlot()
    seed = initial_nontrivial_guess(bp, op, s_first)
    ev = op.evaluate(solve_at_amplitude(op, seed, s_first, tol=tol, carry=carry))
    first_tangent = tangent = branch_tangent(
        op, ev, prev=seed_tangent(bp, op, sign=math.copysign(1.0, s_first)), carry=carry)
    term = _append(branch, ev, caps)
    del ev  # holding evaluations across steps raised peak RSS 125 -> 147 MB at 401 x 128

    step = ds
    failures = []  # (ds, error) of each failed attempt since the last accepted step
    while len(branch.points) < steps:
        if term is not Termination.RUNNING:
            branch.termination = term
            return branch
        try:
            term = _append(branch, arclength_step(op, branch.points[-1], tangent, step,
                                                  tol=tol, carry=carry), caps, max_gap=step)
        except (AdmissibilityError, DomainError, NewtonDivergenceError,
                SingularJacobianError) as exc:
            carry.factor = None
            failures.append((step, exc))
            step *= 0.5
            if step < DS_FLOOR:
                # a corrector that keeps leaving O_delta stops at that clause
                branch.termination = (_CLAUSE_TERMINATIONS[exc.clause]
                                      if isinstance(exc, AdmissibilityError)
                                      else Termination.STEP_FLOOR)
                attempts = "; ".join(f"ds={tried:.6g} {type(err).__name__}: {err}"
                                     for tried, err in failures)
                branch.diagnostics = (f"step floor reached: {type(exc).__name__}: {exc}"
                                      f" [failed attempts: {attempts}]")
                return branch
            continue
        failures.clear()
        tangent = _history_tangent(branch.points, first_tangent)
        step = min(ds, 2.0 * step)
    branch.termination = Termination.MAX_STEPS if term is Termination.RUNNING else term
    return branch


def solve_at_amplitude(op: StripOperator, state: WaveState, s_target: float,
                       tol: float = 1e-10, carry: LUSlot = None) -> WaveState:
    """Solve {F = 0, surface mode amplitude = s_target} for (w, lambda).

    Takes at most `AMPLITUDE_MAX_ITER` updates.  ``carry`` (see `LUSlot`)
    hands the solve a factor to start from and receives its last one.
    """
    border = (_mode_weights(op.grid), 0.0,
              lambda cur: surface_mode_amplitude(cur) - s_target)
    return _bordered_newton(op, state, border, tol, AMPLITUDE_MAX_ITER,
                            "amplitude-constrained solve", carry=carry)[0].state


@dataclass
class HomotopyResult:
    """Outcome of the decreasing-epsilon homotopy at fixed amplitude.

    ``states`` and ``lambdas`` hold one solution per converged epsilon,
    ``sup_diffs`` the sup-norm differences of consecutive ones.
    ``diagnostics`` is "Type: message" of the error that stopped the
    homotopy at ``failure_index``, or empty when every entry converged.
    """

    epsilons: list
    states: list
    lambdas: list
    sup_diffs: list
    failure_index: int = -1
    diagnostics: str = ""


def epsilon_homotopy(model, g, start: WaveState, schedule, target_s, delta=DELTA_DEFAULT,
                     tol=1e-10) -> HomotopyResult:
    """Re-converge the wave of amplitude ``target_s`` along decreasing epsilon.

    ``start`` is a seed (`initial_nontrivial_guess`) or a solved wave; its
    grid is the homotopy's grid, and its epsilon is not read.  Each entry is
    one `solve_at_amplitude` at the next epsilon of ``schedule``, seeded from
    the previous entry's solution, the first from ``start``; a start solved
    at the first epsilon converges without an update.  One `LUSlot` carries
    P from entry to entry, so P is factored again only where GMRES on it
    stalls.  Emits the sup-norm differences of consecutive solutions, which
    contract as the regularization is removed.  Raises DomainError for a
    schedule that is not strictly decreasing in [0, 1) and for
    ``target_s == 0``, the trivial solution.
    """
    sched = list(schedule)
    if not sched or any(e2 >= e1 for e1, e2 in zip(sched, sched[1:])):
        raise DomainError("epsilon schedule must be strictly decreasing")
    if not all(0.0 <= e < 1.0 for e in sched):
        raise DomainError("epsilon schedule must lie in [0, 1)")
    if target_s == 0.0:
        raise DomainError("a homotopy cannot follow the trivial solution (target_s = 0)")

    res = HomotopyResult(epsilons=sched, states=[], lambdas=[], sup_diffs=[])
    carry = LUSlot()
    prev_state, grid = start, start.grid
    for idx, eps in enumerate(sched):
        op = StripOperator(model, g, grid, epsilon=eps, delta=delta)
        seed = WaveState(lam=prev_state.lam, epsilon=eps, grid=grid, w=prev_state.w)
        try:
            state = solve_at_amplitude(op, seed, target_s, tol=tol, carry=carry)
        except (AdmissibilityError, NewtonDivergenceError, SingularJacobianError) as exc:
            res.failure_index = idx
            res.diagnostics = f"{type(exc).__name__}: {exc}"
            return res
        res.states.append(state)
        res.lambdas.append(state.lam)
        if idx:
            res.sup_diffs.append(float(np.max(np.abs(state.w - prev_state.w))))
        prev_state = state
    return res
