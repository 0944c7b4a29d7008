"""Quasilinear elliptic solver on the truncated hodograph strip.

The wave problem is posed for the deviation w(q, p) of the height function
from the laminar profile, on the half-period strip q in [-L, 0],
p in [-P, 0].  Evenness in q is built into the stencils by reflecting
across both q-ends, the infinite bottom is truncated with a homogeneous
Dirichlet row (justified by the exponential decay of solutions), and the
free-surface Bernoulli condition occupies the top row with a one-sided
second-order normal derivative.

The interior residual is

    F1 - eps*w = (1 + wq^2) wpp - 2 (a^-1 + wp) wq wpq + (a^-1 + wp)^2 wqq
                 + gamma(-p) (a^-1 + wp)^3 - gamma(-p) a^-3 (1 + wq^2)
                 - eps*w,

which vanishes identically (to rounding) on the laminar branch w = 0, and
the top-row residual is

    F2 = 1 + (2 g w - lambda) (lambda^-1/2 + wp)^2 + wq^2.

The residual, its analytic linearization in w and lambda, and the test for
the admissible set O_delta (parameter above the critical floor, no
stagnation, surface Bernoulli inequality) all read one evaluation of a state,
`StripOperator.evaluate`; J, J v and the q-averaged J read its one table of
J's entries per stencil shift.  The folded q stencils are diagonal in the
DCT-I's cosine modes (`to_modes`), so the q-averaged J is one banded
p-operator per mode (`mode_blocks`): the solves' preconditioner and
`linear_strip_mode`'s mode 1.  The damped Newton solves live in ``continuation``.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.sparse.linalg import spsolve

from .errors import AdmissibilityError, DomainError, StagnationDomainError
from .sturm_liouville import bracket_root
from .vorticity import VorticityModel

__all__ = ["StripGrid", "WaveState", "StripEvaluation", "StripOperator", "StripLinearization",
           "default_grid", "linear_strip_mode", "mode_blocks", "to_modes", "from_modes"]

DELTA_DEFAULT = 1e-3
# product of the expected vertical decay rate and dp in `default_grid`
GRID_RESOLUTION = 0.025


@dataclass(frozen=True)
class StripGrid:
    """Uniform tensor grid on the reduced strip [-L, 0] x [-P, 0]."""

    L: float
    P: float
    nq: int
    np: int

    def __post_init__(self):
        if not (self.L > 0 and self.P > 0 and math.isfinite(self.L) and math.isfinite(self.P)):
            raise DomainError("half-period and truncation depth must be positive and finite")
        if self.nq < 8 or self.np < 8:
            raise DomainError("need at least 8 nodes in each direction")

    @property
    def dq(self):
        return self.L / (self.nq - 1)

    @property
    def dp(self):
        return self.P / (self.np - 1)

    @property
    def q_nodes(self):
        return np.linspace(-self.L, 0.0, self.nq)

    @property
    def p_nodes(self):
        return np.linspace(-self.P, 0.0, self.np)

    def to_dict(self):
        return {"L": self.L, "P": self.P, "nq": self.nq, "np": self.np}

    @classmethod
    def from_dict(cls, d):
        return cls(**_fields(d, {"L": float, "P": float, "nq": int, "np": int}, "grid"))


def _fields(d, converters, what):
    """``{key: convert(d[key])}`` for a JSON object; DomainError names a bad field."""
    if not isinstance(d, dict):
        raise DomainError(f"{what} is not a JSON object")
    out = {}
    for key, convert in converters.items():
        if key not in d:
            raise DomainError(f"{what} has no {key!r} field")
        try:
            out[key] = convert(d[key])
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{what} field {key!r}: {exc}") from exc
    return out


def _base64_bytes(text):
    regenerate = "regenerate the state with this version"
    if not isinstance(text, str):
        raise DomainError(f"not a base64 string (an older list-form file?); {regenerate}")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise DomainError(f"not base64 ({exc}); {regenerate}") from exc


def default_grid(L, lam_hint, epsilon, nq=64):
    """Grid with the truncation at ten decay lengths of the slowest mode.

    `GRID_RESOLUTION` fixes the product of the expected vertical decay rate
    and the spacing dp, which controls the relative discretization error.
    """
    k_est = math.sqrt(max(epsilon, 0.0) + (math.pi / L) ** 2 / lam_hint)
    P = max(4.0 * L, 10.0 / k_est)
    n_p = max(64, int(round(P * k_est / GRID_RESOLUTION)) + 1)
    return StripGrid(L=L, P=P, nq=nq, np=n_p)


@dataclass
class WaveState:
    """One point on a solution branch in hodograph variables."""

    lam: float
    epsilon: float
    grid: StripGrid
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.shape != (self.grid.np, self.grid.nq):
            raise DomainError(
                f"w must have shape {(self.grid.np, self.grid.nq)}, got {self.w.shape}"
            )

    def copy_with(self, lam=None, w=None):
        return WaveState(
            lam=self.lam if lam is None else float(lam),
            epsilon=self.epsilon,
            grid=self.grid,
            w=self.w.copy() if w is None else np.asarray(w, dtype=float),
        )

    def to_dict(self):
        """JSON form: ``w`` is the base64 of its little-endian float64 bytes, row-major."""
        return {
            "lambda": self.lam,
            "epsilon": self.epsilon,
            "grid": self.grid.to_dict(),
            "w": base64.b64encode(self.w.astype("<f8").tobytes()).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``; a malformed field raises DomainError naming it."""
        f = _fields(d, {"lambda": float, "epsilon": float, "grid": StripGrid.from_dict,
                        "w": _base64_bytes}, "wave state")
        grid, raw = f["grid"], f["w"]
        if len(raw) != 8 * grid.np * grid.nq:
            raise DomainError(f"wave state field 'w' holds {len(raw)} bytes; the "
                              f"{grid.np}x{grid.nq} grid needs {8 * grid.np * grid.nq}")
        # frombuffer is read-only; astype copies into a writable native array
        w = np.frombuffer(raw, dtype="<f8").astype(float).reshape(grid.np, grid.nq)
        if not np.all(np.isfinite(w)):
            raise DomainError("wave state field 'w' holds a non-finite value")
        return cls(lam=f["lambda"], epsilon=f["epsilon"], grid=grid, w=w)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:
                raise DomainError(f"{path} is not a JSON wave state: {exc}") from exc
        return cls.from_dict(d)


# The strip's stencil weights, written once.  A stencil (taps, divisor) maps u to
# sum(weight * u[offset]) / divisor along one axis, in tap order.  A field is a
# p stencil per row class (zero rows where it has none) after a q stencil that
# reflects across both q-ends.  ``w`` is read by the -eps w, Bernoulli and
# Dirichlet terms.
_ID = (((0, 1),), 1.0)
_CENTRAL_1, _CENTRAL_2 = ((1, 1), (-1, -1)), ((1, 1), (0, -2), (-1, 1))


def _stencils(grid: StripGrid):
    """field -> (q stencil, {row class: p stencil}, or None for the p identity)."""
    dq, dp = grid.dq, grid.dp
    d_q, d_p = (_CENTRAL_1, 2.0 * dq), (_CENTRAL_1, 2.0 * dp)
    return {
        "w": (_ID, None),
        "wq": (d_q, None),
        "wp": (_ID, {"bottom": (((0, -3), (1, 4), (2, -1)), 2.0 * dp), "interior": d_p,
                     "top": (((0, 3), (-1, -4), (-2, 1)), 2.0 * dp)}),
        "wqq": ((_CENTRAL_2, dq**2), None),
        "wpp": (_ID, {"interior": (_CENTRAL_2, dp**2)}),
        "wpq": (d_q, {"interior": d_p}),
    }


def _row_spans(n_p):
    return {"bottom": (0, 1), "interior": (1, n_p - 1), "top": (n_p - 1, n_p)}


def _fold(j, nq):
    """Column indices -1 .. nq reflected into 0 .. nq-1: evenness at both q-ends."""
    return nq - 1 - np.abs(nq - 1 - np.abs(j))


def _apply(stencil, shifted):
    """sum(k * shifted(offset)) / divisor, accumulated in one new array."""
    (off, k), *rest = stencil[0]
    out = k * shifted(off)
    for off, k in rest:
        term = shifted(off) if abs(k) == 1 else abs(k) * shifted(off)
        (np.add if k > 0 else np.subtract)(out, term, out=out)
    out /= stencil[1]
    return out


def derivative_fields(grid: StripGrid, w: np.ndarray):
    """All finite-difference fields used by the residual and its checks."""
    nq, spans = grid.nq, _row_spans(grid.np)
    wpad = w.take(_fold(np.arange(-1, nq + 1), nq), axis=1)  # C order, unlike w[:, idx]
    along_q, fields = {_ID: w}, {}
    for name, (q_stencil, p_stencils) in _stencils(grid).items():
        if q_stencil not in along_q:
            along_q[q_stencil] = _apply(q_stencil, lambda dj: wpad[:, 1 + dj:1 + dj + nq])
        u = along_q[q_stencil]
        fields[name] = u if p_stencils is None else np.zeros_like(w)
        for row_class, stencil in (p_stencils or {}).items():
            lo, hi = spans[row_class]
            fields[name][lo:hi] = _apply(stencil, lambda di: u[lo + di:hi + di])
    return {name: field for name, field in fields.items() if name != "w"}


@functools.lru_cache(maxsize=None)
def cosine_matrix(nq):
    """(V, V^-1) of the DCT-I, V[j, k] = cos(pi j k / (nq - 1)), which is symmetric.

    Column k of V is the k-th eigenvector of every folded q stencil
    (`_stencils`).  Row k of V^-1 holds the trapezoid weights of mode k's
    coefficient: row 0 those of the q-mean.
    """
    V = np.cos(np.pi * np.outer(np.arange(nq), np.arange(nq)) / (nq - 1))
    d = np.r_[0.5, np.ones(nq - 2), 0.5]
    V_inv = (2.0 / (nq - 1)) * np.outer(d, d) * V
    V.flags.writeable = V_inv.flags.writeable = False
    return V, V_inv


def to_modes(grid: StripGrid, v, transpose=False, out=None):
    """Cosine coefficients of a flattened field, mode-major.

    Entry k * np + i holds mode k of p row i; `from_modes` inverts it.
    ``transpose`` applies the transpose of `from_modes` instead (c -> c Q).
    One GEMM against the transposed view of the field, written into ``out``
    (contiguous, of the field's size), or a new array.
    """
    V, V_inv = cosine_matrix(grid.nq)
    out = np.empty(grid.np * grid.nq) if out is None else out
    np.matmul(V if transpose else V_inv, np.reshape(v, (grid.np, grid.nq)).T,
              out=out.reshape(grid.nq, grid.np))
    return out


def from_modes(grid: StripGrid, x, out=None):
    """The flattened field whose mode-major cosine coefficients are ``x``.

    One GEMM against the transposed view of ``x`` (V is symmetric), written
    into ``out`` (contiguous, of the field's size), or a new array.
    """
    out = np.empty(grid.np * grid.nq) if out is None else out
    np.matmul(np.reshape(x, (grid.nq, grid.np)).T, cosine_matrix(grid.nq)[0],
              out=out.reshape(grid.np, grid.nq))
    return out


def mode_blocks(grid: StripGrid, entries: dict, modes):
    """The q-averaged linearization on the cosine ``modes``, mode-major, as sparse CSC.

    Each of J's entries (`StripEvaluation.jacobian_entries`) is averaged over q
    and weighted by its shift's eigenvalue cos(k pi dj / (nq - 1)) on mode k; the
    odd stencils' (wq, wpq) entries at +dj and -dj cancel.  Per mode that leaves
    a banded p-operator: identity bottom row, three points inside, one-sided top,
    so the whole matrix has the diagonals -2 .. 1, assembled as one DIA matrix.
    """
    theta = np.pi * np.asarray(modes, dtype=float) / (grid.nq - 1)
    weights = cosine_matrix(grid.nq)[1][0]
    bands = np.zeros((4, theta.size, grid.np))  # diagonal di + 2, mode, column's p row
    for (lo, hi), shifts in entries.items():
        for (di, dj), entry in shifts.items():
            mean = np.reshape(entry @ weights if np.ndim(entry) else entry, (-1, 1))
            bands[di + 2, :, lo + di:hi + di] += (mean * np.cos(dj * theta)).T
    return sp.dia_matrix((bands.reshape(4, -1), np.arange(-2, 2)),
                         shape=(grid.np * theta.size,) * 2).tocsc()


class StripEvaluation:
    """One look at a state; read-only.

    ``fields`` are the state's `derivative_fields`, made once by the caller:
    `StripOperator.evaluate`, or `wave_physics.reconstruct` for a verified
    state.  ``lam_margin`` = lambda + 2 inf Gamma, ``hp`` = a^-1 + wp and
    ``cap_margin`` = 2 lambda - 4 g max w(q, 0) are the O_delta margins (all
    above delta inside it).  ``hp``, ``coefficients`` and
    ``jacobian_entries`` are formed on first read; below the lambda floor,
    where a^-1 is not formed, reading them raises that clause.
    """

    def __init__(self, op: StripOperator, state: WaveState, fields: dict):
        self.op, self.state, self.fields = op, state, fields
        self.lam_margin = state.lam + 2.0 * op.gamma_inf
        self.cap_margin = 2.0 * state.lam - 4.0 * op.g * float(np.max(state.w[-1]))

    @cached_property
    def hp(self):
        if not self.lam_margin > self.op.delta:
            raise AdmissibilityError(StripOperator.CLAUSES[0], value=self.state.lam)
        return self.op.ainv_rows(self.state.lam)[:, None] + self.fields["wp"]

    @cached_property
    def coefficients(self):
        """The strip equation's coefficients at the state.

        Interior rows (1 .. np-2) read c_pp wpp + c_pq wpq + c_qq wqq +
        gamma hp^3 - gamma a^-3 c_pp - eps w with hp = a^-1 + wp; c_p is
        the derivative of that row in wp.  The top row
        reads 1 + bern hp_top^2 + wq_top^2 with bern = 2 g w - lambda.
        """
        op, lam, d, sl = self.op, self.state.lam, self.fields, slice(1, -1)
        hp = self.hp[sl]
        ainv, gam = op.ainv_rows(lam)[sl, None], op.gamma_p[sl, None]
        wq, wqq, wpp, wpq = d["wq"][sl], d["wqq"][sl], d["wpp"][sl], d["wpq"][sl]
        a3 = ainv**3
        return SimpleNamespace(
            ainv=ainv, gam=gam, a3=a3, hp=hp,
            wq=wq, wqq=wqq, wpp=wpp, wpq=wpq,
            c_pp=1.0 + wq**2,
            c_pq=-2.0 * hp * wq,
            c_qq=hp**2,
            c_p=-2.0 * wq * wpq + 2.0 * hp * wqq + 3.0 * gam * hp**2,
            hp_top=lam**-0.5 + d["wp"][-1],
            bern=2.0 * op.g * self.state.w[-1] - lam,
            wq_top=d["wq"][-1],
        )

    @cached_property
    def jacobian_entries(self):
        """J's entries, {(lo, hi) of a row class: {(di, dj): coefficient}}, unfolded in q.

        Row partials times their fields' `_stencils` weights, summed per shift in field order.
        Equal weights share one array: wpq's corners (1, 1) and (-1, -1) are one object.
        """
        op, c = self.op, self.coefficients
        partials = {
            "bottom": {"w": 1.0},
            "interior": {"wpp": c.c_pp, "wp": c.c_p, "wqq": c.c_qq,
                         "wq": 2.0 * (c.wq * c.wpp - c.hp * c.wpq - c.gam * c.a3 * c.wq),
                         "wpq": c.c_pq, "w": -op.epsilon},
            "top": {"wp": 2.0 * c.bern * c.hp_top, "wq": 2.0 * c.wq_top,
                    "w": 2.0 * op.g * c.hp_top**2},
        }
        table, spans, entries = _stencils(op.grid), _row_spans(op.grid.np), {}
        for row_class, row_partials in partials.items():
            shifts = entries[spans[row_class]] = {}
            for name, coeff in row_partials.items():
                (q_taps, q_div), p_stencils = table[name]
                p_taps, p_div = _ID if p_stencils is None else p_stencils[row_class]
                terms = {}  # one array per tap product
                for (di, kp), (dj, kq) in itertools.product(p_taps, q_taps):
                    if (k := kp * kq) not in terms:
                        terms[k] = (coeff if k == 1 else coeff * k) / (p_div * q_div)
                    shifts[di, dj] = shifts[di, dj] + terms[k] if (di, dj) in shifts else terms[k]
        return entries


class StripOperator:
    """Residual, linearization and admissibility test for one model and grid.

    Each reads a `StripEvaluation` from `evaluate`.  Holds the cached
    vorticity samples on the grid and ``gamma_inf``, the model's inf Gamma;
    immutable, so threads may share it.
    """

    def __init__(self, model: VorticityModel, g: float, grid: StripGrid,
                 epsilon: float, delta: float = DELTA_DEFAULT):
        if not 0.0 <= epsilon < 1.0:
            raise DomainError("epsilon must lie in [0, 1)")
        if delta <= 0.0:
            raise DomainError("the admissibility margin delta must be positive")
        self.model = model
        self.g = float(g)
        self.grid = grid
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.gamma_inf = model.gamma_inf_bound()
        p = grid.p_nodes
        self.big_gamma_p = np.asarray(model.big_gamma(p))
        self.gamma_p = np.asarray(model.gamma(-p))

    # -- evaluation --------------------------------------------------------------

    def ainv_rows(self, lam):
        """1 / sqrt(lambda + 2 Gamma(p)) at the p nodes, the laminar h_p."""
        a_sq = lam + 2.0 * self.big_gamma_p
        if np.any(a_sq <= 0.0):
            raise StagnationDomainError(
                f"lambda + 2*Gamma(p) reaches {float(a_sq.min()):.6g} on the grid"
            )
        return 1.0 / np.sqrt(a_sq)

    def evaluate(self, state: WaveState) -> StripEvaluation:
        """One look at ``state``: its residual, J v, dF/dlambda, J and O_delta test read it."""
        return StripEvaluation(self, state, derivative_fields(self.grid, state.w))

    # -- admissibility -------------------------------------------------------------

    # the clauses of O_delta, in the order check_admissible tests them
    CLAUSES = (
        "lambda must exceed the critical floor plus delta",
        "no-stagnation clause a^-1 + wp > delta",
        "surface clause w < (2*lambda - delta)/(4g)",
    )

    def check_admissible(self, ev: StripEvaluation):
        """Raise AdmissibilityError naming the clause and node on violation."""
        hp = ev.hp  # raises the lambda clause below the floor
        if np.any(hp <= self.delta):
            i, j = np.unravel_index(int(np.argmin(hp)), hp.shape)
            raise AdmissibilityError(self.CLAUSES[1], node=(i, j), value=float(hp[i, j]))
        if not ev.cap_margin > self.delta:
            j = int(np.argmax(ev.state.w[-1]))
            raise AdmissibilityError(self.CLAUSES[2], node=(self.grid.np - 1, j),
                                     value=float(ev.state.w[-1, j]))

    def is_admissible(self, ev: StripEvaluation) -> bool:
        try:
            self.check_admissible(ev)
        except AdmissibilityError:
            return False
        return True

    # -- residual -------------------------------------------------------------------

    def residual_vector(self, ev: StripEvaluation):
        """Full residual with bottom Dirichlet rows, flattened row-major."""
        c = ev.coefficients
        f1 = (c.c_pp * c.wpp + c.c_pq * c.wpq + c.c_qq * c.wqq + c.gam * c.hp**3
              - c.gam * c.a3 * c.c_pp - self.epsilon * ev.state.w[1:-1])
        f2 = 1.0 + c.bern * c.hp_top**2 + c.wq_top**2
        return np.concatenate([ev.state.w[0], f1.ravel(), f2])

    def residual_norm(self, state: WaveState) -> float:
        return float(np.max(np.abs(self.residual_vector(self.evaluate(state)))))

    # -- linearization ----------------------------------------------------------------

    def jacobian(self, ev: StripEvaluation):
        """The `StripLinearization` at ``ev``: what a factorization is built from."""
        return StripLinearization(self, ev.jacobian_entries)

    def jacobian_action(self, ev: StripEvaluation):
        """The map v -> J v of `jacobian`, without assembling J.

        One multiply-add per entry of ``ev.jacobian_entries`` on v padded
        with its reflections across the q-ends.  ``v`` is a flattened field;
        J v fills ``out``, a contiguous array of v's size, when one is given,
        and a new array otherwise.  The first shift of each row class is
        written straight into J v and each other one is added through a
        scratch array; the padded v and the scratch are allocated once per
        map, so the map must not be shared between threads.
        """
        shape, nq = ev.state.w.shape, self.grid.nq
        entries = ev.jacobian_entries
        padded = _fold(np.arange(-1, nq + 1), nq)
        vpad, scratch = np.empty((shape[0], nq + 2)), np.empty(shape)

        def apply(v, out=None):
            # the indices are in range; "clip" lets take write into vpad unbuffered
            np.take(np.reshape(v, shape), padded, axis=1, out=vpad, mode="clip")
            jv = np.empty(shape) if out is None else np.reshape(out, shape)
            for (lo, hi), shifts in entries.items():
                dst, tmp = jv[lo:hi], scratch[lo:hi]
                for k, ((di, dj), coeff) in enumerate(shifts.items()):
                    view = vpad[lo + di:hi + di, 1 + dj:1 + dj + nq]
                    if k:
                        dst += np.multiply(coeff, view, out=tmp)
                    else:
                        np.multiply(coeff, view, out=dst)
            return jv.ravel()

        return apply

    def d_residual_d_lambda(self, ev: StripEvaluation):
        """Analytic derivative of the residual vector in lambda.

        The interior rows depend on lambda only through a^-1 =
        (lambda + 2 Gamma)^-1/2, with d(a^-1)/dlambda = -a^-3/2; the top row
        through lambda^-1/2 and bern = 2 g w - lambda.
        """
        c, lam = ev.coefficients, ev.state.lam
        interior = -0.5 * c.a3 * c.c_p + 1.5 * c.gam * c.ainv**5 * c.c_pp
        top = -c.hp_top**2 - c.bern * c.hp_top * lam**-1.5
        return np.concatenate([np.zeros(self.grid.nq), interior.ravel(), top])


class StripLinearization:
    """J at one evaluation, in the two forms a factorization is built from.

    ``modes``, formed here, is the preconditioner P in cosine modes
    (`mode_blocks`); `tocsc` assembles J itself.  At w = 0 P is J.
    """

    def __init__(self, op: StripOperator, entries: dict):
        self.grid, self.entries = op.grid, entries
        self.modes = mode_blocks(op.grid, entries, np.arange(op.grid.nq))

    def tocsc(self):
        """Sparse J (CSC): each entry placed at its shift's folded column.

        Folded shifts keep their own triplets, so the entries that cancel at
        the q-ends stay stored: the exact bordered LU in ``continuation``
        takes its fill order from the pattern.
        """
        nq, n_p = self.grid.nq, self.grid.np
        rows, cols, vals = [], [], []
        jj = np.arange(nq, dtype=np.int32)  # the index type scipy would convert to
        for (lo, hi), shifts in self.entries.items():
            ii = np.arange(lo, hi, dtype=np.int32)[:, None]
            eq = (ii * nq + jj).ravel()
            for (di, dj), val in shifts.items():
                rows.append(eq)
                cols.append(((ii + di) * nq + _fold(jj + dj, nq)).ravel())
                vals.append(np.broadcast_to(val, (hi - lo, nq)).ravel())
        rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
        return sp.coo_matrix((vals, (rows, cols)), shape=(n_p * nq, n_p * nq)).tocsc()


def linear_strip_mode(op: StripOperator, lam_hint: float):
    """Discrete bifurcation point of the strip operator itself.

    The linearization about w = 0 separates in cosine modes; its mode-1
    block B (`mode_blocks`) is a banded operator in p.  Phi solves B's
    interior rows with Phi = 0 at the bottom and 1 at the surface, and B's
    top row at Phi vanishes exactly at the discrete bifurcation parameter.
    Returns (lambda, Phi) with Phi sampled on the grid's p nodes and
    normalized to one at the surface; a consistency oracle for the
    half-line eigenvalue solver.
    """
    grid = op.grid

    def solve_phi(lam):
        ev = op.evaluate(WaveState(lam, op.epsilon, grid, np.zeros((grid.np, grid.nq))))
        B = mode_blocks(grid, ev.jacobian_entries, [1]).tocsr()
        phi = np.r_[0.0, spsolve(B[1:-1, 1:-1].tocsc(), -B[1:-1, -1].toarray().ravel()), 1.0]
        return float((B[-1] @ phi)[0]), phi

    def rising(lam):
        # the top row falls as lambda rises
        return -solve_phi(lam)[0]

    scale = op.g * grid.L / math.pi
    bracket = bracket_root(rising, lam_hint, 0.05 * lam_hint,
                           -2.0 * op.gamma_inf + 1e-12 * scale, 1e8 * lam_hint)
    if bracket is None:
        raise DomainError("no sign change for the discrete mode residual")
    lam_d = brentq(rising, *bracket, xtol=1e-13 * scale)
    return lam_d, solve_phi(lam_d)[1]
