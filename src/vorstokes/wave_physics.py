"""Physical-variable reconstruction and the verification suite.

A converged strip state determines a traveling wave in physical variables
through

    c^2 = lambda + 2*Gamma_total,         eta(x) = w(x, 0) - lambda/(2g),
    psi_x = wq / (a^-1 + wp),             psi_y = -1 / (a^-1 + wp),

with the height map y = h(q, p) = h_tr(p) + w(q, p) inverting column-wise
(monotone because h_p stays above the admissibility margin).  The signs
follow from differentiating psi(x, h(x, p)) = -p: psi_x = -psi_y h_q and
psi_y = -1/h_p, which also makes psi_x positive on the upstream half of
the crest as the nodal pattern requires.

The verification functions check every bound the analysis guarantees:
nodal monotonicity of the profile, the exponential decay envelope of wq,
the velocity sandwich between crest and trough values, the crest/trough
relative-speed bounds, the sign of the Bernoulli-type pressure function B,
surface monotonicity of psi_y and its global min-max form for nonpositive
monotone vorticity, and the amplitude-speed chain.  Inequalities that are
strict in the continuum are asserted with an explicit reported slack,
never exactly.  `verify_all` differentiates a state once: every check reads
the `derivative_fields` pass that `reconstruct` keeps as
`PhysicalWave.fields`, the strip-side ones through a `StripEvaluation` built
on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, StagnationDomainError
from .shear_flow import ShearFlow
from .strip_solver import StripEvaluation, StripOperator, WaveState, derivative_fields
from .sturm_liouville import fitted_tail_rate
from .vorticity import VorticityModel

__all__ = [
    "CheckResult",
    "WaveReport",
    "PhysicalWave",
    "PhysicalGrid",
    "reconstruct",
    "physical_grid",
    "verify_nodal",
    "verify_decay",
    "verify_velocity_bounds",
    "verify_pressure",
    "verify_amplitude_speed",
    "verify_all",
]

# max_q |wq| below which a depth row is left out of the tail-rate fit
WQ_TAIL_FLOOR = 1e-12


@dataclass
class CheckResult:
    """One verified inequality: margin is distance from violation."""

    name: str
    passed: bool
    margin: float
    tolerance: float
    formula: str
    skipped: bool = False
    reason: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "margin": float(self.margin),
            "tolerance": float(self.tolerance),
            "formula": self.formula,
            "skipped": self.skipped,
            "reason": self.reason,
        }


@dataclass
class WaveReport:
    checks: list = field(default_factory=list)

    def add(self, *args, **kwargs):
        self.checks.append(CheckResult(*args, **kwargs))

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def passed(self):
        return all(c.passed or c.skipped for c in self.checks)

    @property
    def pass_count(self):
        return sum(1 for c in self.checks if c.passed and not c.skipped)

    def failures(self):
        return [c for c in self.checks if not c.passed and not c.skipped]

    def to_dict(self):
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


@dataclass
class PhysicalWave:
    """Reconstructed traveling wave sampled at the strip nodes.

    The samples (x = q, y = height map) are transform-exact; no
    interpolation is involved.  ``fields`` are the `derivative_fields` of
    ``source.w`` the reconstruction was made from.
    """

    c: float
    x: np.ndarray               # surface abscissae, one per strip column
    eta: np.ndarray             # surface elevation
    height: np.ndarray          # y = h(q, p) at strip nodes
    psi_x: np.ndarray           # at strip nodes
    psi_y: np.ndarray           # at strip nodes
    pressure: np.ndarray        # at strip nodes, relative to the surface value
    big_gamma: np.ndarray       # Gamma(p) per row
    source: WaveState
    hp: np.ndarray              # a^-1 + wp at strip nodes
    fields: dict


@dataclass(frozen=True)
class PhysicalGrid:
    """Fields of a wave on a tensor (x, y) grid under the surface.

    Arrays have shape (nq, n_y); samples above the surface are nan.  They
    are interpolated column-wise and carry that interpolation error.
    """

    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    psi_x: np.ndarray
    psi_y: np.ndarray
    pressure: np.ndarray


def reconstruct(state: WaveState, model: VorticityModel, g: float) -> PhysicalWave:
    """Build the physical fields of a strip state at the strip nodes.

    Velocities follow from the hodograph identities without interpolation.
    """
    grid = state.grid
    flow = ShearFlow(model, lam=state.lam, g=g)
    p = grid.p_nodes

    h = flow.h_tr(p)[:, None] + state.w
    d = derivative_fields(grid, state.w)
    # a^2 = lambda + 2 Gamma, so 1/a and the pressure share one Gamma
    big_gamma = np.asarray(model.big_gamma(p))
    a_sq = flow.lam + 2.0 * big_gamma
    if np.any(a_sq <= 0.0):
        raise StagnationDomainError(f"lambda + 2*Gamma(p) dropped to {float(np.min(a_sq)):.6g}")
    hp = 1.0 / np.sqrt(a_sq)[:, None] + d["wp"]
    if np.any(hp <= 0.0):
        raise StagnationDomainError("height map is not monotone in p")

    psi_x = d["wq"] / hp
    psi_y = -1.0 / hp
    speed_sq = psi_x**2 + psi_y**2
    pressure = -(0.5 * speed_sq + g * h - big_gamma[:, None])

    eta = h[-1].copy()

    return PhysicalWave(
        c=flow.c, x=grid.q_nodes, eta=eta, height=h, psi_x=psi_x, psi_y=psi_y,
        pressure=pressure, big_gamma=big_gamma, source=state, hp=hp, fields=d,
    )


def physical_grid(wave: PhysicalWave, n_y: int = 60) -> PhysicalGrid:
    """Sample a reconstructed wave on a tensor (x, y) grid under the surface.

    The grid spans the surface abscissae and n_y levels from the highest
    bottom-row height to the crest; each column's height map is inverted
    p -> y by monotone cubic interpolation.
    """
    h, eta = wave.height, wave.eta
    p = wave.source.grid.p_nodes
    y_top = float(eta.max())
    y_bot = float(h[0].max())
    ys = np.linspace(y_bot, y_top, n_y)
    gx, gy = np.meshgrid(wave.x, ys, indexing="ij")
    g_psi = np.full(gx.shape, np.nan)
    g_px = np.full(gx.shape, np.nan)
    g_py = np.full(gx.shape, np.nan)
    g_pr = np.full(gx.shape, np.nan)
    for j in range(h.shape[1]):
        col_y = h[:, j]
        inside = ys <= eta[j]
        yy = np.clip(ys[inside], col_y[0], col_y[-1])
        p_of_y = PchipInterpolator(col_y, p)
        pj = p_of_y(yy)
        g_psi[j, inside] = -pj
        g_px[j, inside] = PchipInterpolator(p, wave.psi_x[:, j])(pj)
        g_py[j, inside] = PchipInterpolator(p, wave.psi_y[:, j])(pj)
        g_pr[j, inside] = PchipInterpolator(p, wave.pressure[:, j])(pj)
    return PhysicalGrid(x=gx, y=gy, psi=g_psi, psi_x=g_px, psi_y=g_py, pressure=g_pr)


def _base_tolerance(op: StripOperator, solver_tol: float) -> float:
    grid = op.grid
    return max(10.0 * solver_tol, 10.0 * (grid.dq**2 + grid.dp**2) * 1e-3)


def _is_effectively_trivial(state: WaveState) -> bool:
    return float(np.max(np.abs(state.w))) < 1e-12


# -- nodal pattern ---------------------------------------------------------------


def verify_nodal(ev: StripEvaluation) -> WaveReport:
    """Strict sign pattern of wq and wqq characterizing one crest per period.

    With the crest at q = 0: wq > 0 strictly inside the half strip and on
    the interior of the surface row, wqq > 0 below the trough line and
    < 0 below the crest line, wqq > 0 at the trough corner and < 0 at the
    crest corner.  Rows 0-1, the truncated bottom and a one-node collar
    above it, are excluded.
    """
    report = WaveReport()
    if _is_effectively_trivial(ev.state):
        report.add("nodal_trivial", True, 0.0, 0.0,
                   "w = 0: nodal pattern vacuous", skipped=True,
                   reason="trivial state")
        return report
    wq, wqq = ev.fields["wq"], ev.fields["wqq"]
    lo = 2

    interior = wq[lo:, 1:-1]
    report.add("nodal_wq_interior", bool(np.all(interior > 0.0)),
               float(np.min(interior)), 0.0, "wq > 0 inside the half strip")
    trough_line = wqq[lo:-1, 0]
    report.add("nodal_wqq_trough_line", bool(np.all(trough_line > 0.0)),
               float(np.min(trough_line)), 0.0, "wqq > 0 on the line below the trough")
    crest_line = wqq[lo:-1, -1]
    report.add("nodal_wqq_crest_line", bool(np.all(crest_line < 0.0)),
               float(-np.max(crest_line)), 0.0, "wqq < 0 on the line below the crest")
    report.add("nodal_wqq_trough_corner", bool(wqq[-1, 0] > 0.0),
               float(wqq[-1, 0]), 0.0, "wqq > 0 at the trough corner")
    report.add("nodal_wqq_crest_corner", bool(wqq[-1, -1] < 0.0),
               float(-wqq[-1, -1]), 0.0, "wqq < 0 at the crest corner")
    return report


# -- exponential decay envelope -----------------------------------------------------


def decay_envelope_constants(ev: StripEvaluation):
    """Constants (M, beta, sigma) of the decay envelope for wq.

    M is the largest magnitude of w and its first and second differences.
    K*M^2 is estimated as the largest magnitude over the grid of the two
    lower-order coefficients produced by differentiating the interior
    equation in q; beta = max(1, K M^2 / (2 delta^2)); sigma is the largest
    positive value keeping

        2 sigma^2 (1 + M^2) + 4 beta sigma K M^2 - (1/2) e^(-beta L) K M^2

    negative: the positive root of that quadratic.  The middle term carries
    the plus sign the comparison argument actually produces (its expansion
    yields + 2 beta sigma K M^2 + 2 sigma K M^2 <= + 4 beta sigma K M^2); a
    minus sign would admit rates far above the true decay and falsify the
    envelope.  Returns sigma = 0 when that root is not above 1e-16
    (degenerate envelope, e.g. when e^(-beta L) underflows).
    """
    op, state, d, hp = ev.op, ev.state, ev.fields, ev.hp
    ainv = op.ainv_rows(state.lam)[:, None]
    gam = op.gamma_p[:, None]
    M = max(
        float(np.max(np.abs(state.w))),
        float(np.max(np.abs(d["wq"]))),
        float(np.max(np.abs(d["wp"]))),
        float(np.max(np.abs(d["wqq"]))),
        float(np.max(np.abs(d["wpp"]))),
        float(np.max(np.abs(d["wpq"]))),
    )
    b1 = -2.0 * d["wq"] * d["wpq"] + 3.0 * gam * hp**2
    b2 = 2.0 * d["wq"] * d["wpp"] - 2.0 * gam * ainv**3 * d["wq"]
    km2 = max(float(np.max(np.abs(b1))), float(np.max(np.abs(b2))))
    # the state lies in O_delta for every delta up to its own margins; the
    # largest such delta gives the strongest envelope constants
    delta_env = max(op.delta,
                    0.99 * min(float(np.min(hp)), ev.lam_margin, ev.cap_margin))
    beta = max(1.0, km2 / (2.0 * delta_env**2))

    # a sigma^2 + b sigma - c < 0 up to its positive root, written without
    # cancellation
    a, b = 2.0 * (1.0 + M**2), 4.0 * beta * km2
    c = 0.5 * math.exp(-beta * op.grid.L) * km2
    sigma = 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c)) if c > 0.0 else 0.0
    return M, beta, sigma if sigma > 1e-16 else 0.0


def verify_decay(ev: StripEvaluation) -> WaveReport:
    """Pointwise envelope |wq| <= M (2 - e^(beta q)) e^(sigma p)."""
    report = WaveReport()
    grid = ev.state.grid
    M, beta, sigma = decay_envelope_constants(ev)
    if sigma == 0.0:
        report.add("decay_envelope", True, math.inf, 0.0,
                   "no positive decay rate satisfies the envelope inequality",
                   skipped=True, reason="degenerate envelope (K M^2 vanishes)")
        return report
    wq = ev.fields["wq"]
    qcol = grid.q_nodes[None, :]
    prow = grid.p_nodes[:, None]
    envelope = M * (2.0 - np.exp(beta * qcol)) * np.exp(sigma * prow)
    gap = float(np.min(envelope - np.abs(wq)))
    report.add("decay_envelope", gap >= 0.0, gap, 0.0,
               "|wq| <= M (2 - e^(beta q)) e^(sigma p)")
    return report


def fitted_wq_tail_rate(state: WaveState) -> float:
    """Exponential rate of max_q |wq|, fitted like an eigenfunction tail."""
    wq = derivative_fields(state.grid, state.w)["wq"]
    return fitted_tail_rate(state.grid.p_nodes, np.max(np.abs(wq), axis=1),
                            floor=WQ_TAIL_FLOOR)


# -- velocity bounds -----------------------------------------------------------------


def verify_velocity_bounds(wave: PhysicalWave, tol: float = 1e-9) -> WaveReport:
    """Sandwich |grad psi|^2 - 2 Gamma between crest and trough values,
    plus the strict crest/trough bounds against lambda."""
    report = WaveReport()
    lam = wave.source.lam
    sandwich = wave.psi_x**2 + wave.psi_y**2 - 2.0 * wave.big_gamma[:, None]
    crest_val = wave.psi_y[-1, -1] ** 2
    trough_val = wave.psi_y[-1, 0] ** 2
    report.add(
        "velocity_sandwich_lower",
        bool(np.min(sandwich) >= crest_val - tol),
        float(np.min(sandwich) - crest_val), tol,
        "psi_y^2(crest) <= |grad psi|^2 - 2*Gamma(-psi)",
    )
    report.add(
        "velocity_sandwich_upper",
        bool(np.max(sandwich) <= trough_val + tol),
        float(trough_val - np.max(sandwich)), tol,
        "|grad psi|^2 - 2*Gamma(-psi) <= psi_y^2(trough)",
    )
    trivial = _is_effectively_trivial(wave.source)
    if trivial:
        report.add("crest_speed_bound", True, 0.0, tol,
                   "equality case of the crest bound on the laminar branch",
                   skipped=True, reason="trivial state")
        report.add("trough_speed_bound", True, 0.0, tol,
                   "equality case of the trough bound on the laminar branch",
                   skipped=True, reason="trivial state")
        return report
    report.add("crest_speed_bound", bool(crest_val < lam), float(lam - crest_val),
               tol, "psi_y^2(0, eta(0)) < lambda")
    report.add("trough_speed_bound", bool(trough_val > lam), float(trough_val - lam),
               tol, "psi_y^2(+-L, eta(+-L)) > lambda")
    return report


# -- pressure and monotonicity --------------------------------------------------------


def verify_pressure(wave: PhysicalWave, model: VorticityModel, g: float,
                    tol: float = 1e-9) -> WaveReport:
    """Sign bounds for B = |grad psi|^2/2 + g y - Gamma(-psi).

    The universal estimate subtracts half the positive part of sup gamma
    times psi; the sharper B <= 0 needs g + gamma(psi) psi_y >= 0 nodewise,
    and B + Gamma(-psi) <= 0 needs nonnegative vorticity monotone with
    depth.  Surface monotonicity of psi_y is checked whenever the nodewise
    condition holds.
    """
    report = WaveReport()
    p = wave.source.grid.p_nodes
    B = -wave.pressure
    psi = -p[:, None]

    sup_gamma = max(0.0, model.gamma_sup_value())
    general = B - 0.5 * sup_gamma * psi
    report.add("pressure_general", bool(np.max(general) <= tol),
               float(-np.max(general)), tol,
               "B - (1/2) max(0, sup gamma) psi <= 0")

    gam_vals = np.asarray(model.gamma(-p))[:, None]
    cond_negative = g + gam_vals * wave.psi_y
    if np.all(cond_negative >= 0.0):
        report.add("pressure_nonpositive", bool(np.max(B) <= tol),
                   float(-np.max(B)), tol,
                   "B <= 0 under g + gamma(psi) psi_y >= 0")
        top = wave.psi_y[-1]
        increments = np.diff(top)
        report.add(
            "surface_speed_monotone",
            bool(np.all(increments >= -tol) and top[-1] < 0.0),
            float(np.min(increments)), tol,
            "psi_y(trough) <= psi_y(x, eta(x)) <= psi_y(crest) < 0",
        )
    else:
        report.add("pressure_nonpositive", True, 0.0, tol,
                   "B <= 0 under g + gamma(psi) psi_y >= 0", skipped=True,
                   reason="nodewise condition g + gamma psi_y >= 0 fails")
        report.add("surface_speed_monotone", True, 0.0, tol,
                   "psi_y monotone from trough to crest", skipped=True,
                   reason="nodewise condition g + gamma psi_y >= 0 fails")

    if model.gamma_nonneg and model.gamma_prime_nonpos:
        head = B + wave.big_gamma[:, None]
        report.add("pressure_positive_vorticity", bool(np.max(head) <= tol),
                   float(-np.max(head)), tol,
                   "B + Gamma(-psi) <= 0 for gamma >= 0, gamma' <= 0")
    else:
        report.add("pressure_positive_vorticity", True, 0.0, tol,
                   "B + Gamma(-psi) <= 0 for gamma >= 0, gamma' <= 0",
                   skipped=True, reason="vorticity sign hypotheses unmet")

    if model.gamma_nonpos and model.gamma_prime_nonneg:
        crest = wave.psi_y[-1, -1]
        trough = wave.psi_y[-1, 0]
        upper_gap = crest - float(np.max(wave.psi_y))
        lower_gap = float(np.min(wave.psi_y)) - min(trough, -wave.c)
        report.add("min_max_upper", bool(upper_gap >= -tol), upper_gap, tol,
                   "psi_y(x, y) <= psi_y(0, eta(0)) everywhere")
        # psi_y is merely subharmonic for gamma < 0, so interior minima are
        # not excluded; the lower side is asserted only in the irrotational
        # case (psi_y harmonic) and reported descriptively otherwise
        irrotational = model.gamma_nonneg and model.gamma_nonpos
        report.add("min_max_lower", bool(lower_gap >= -tol) or not irrotational,
                   lower_gap, tol,
                   "psi_y(x, y) >= min(psi_y(trough), -c) everywhere",
                   skipped=not irrotational,
                   reason="" if irrotational else
                   "no minimum principle for psi_y when gamma < 0; margin reported only")
    else:
        report.add("min_max_upper", True, 0.0, tol,
                   "psi_y maximum at the crest", skipped=True,
                   reason="requires gamma <= 0 and gamma' >= 0")
    return report


def verify_amplitude_speed(wave: PhysicalWave, model: VorticityModel, g: float,
                           tol: float = 1e-8) -> WaveReport:
    """Amplitude bounded by propagation speed for nonpositive vorticity:

        0 <= (2g)^(3/2) (|eta(trough)|^(3/2) - |eta(crest)|^(3/2))
           = |psi_y(trough)|^3 - |psi_y(crest)|^3 <= 3 g c L.

    The constant follows from integrating the flux identity over a
    half-period: int eta_x (-2 g eta)^(1/2) dx = (1/3g) [(-2 g eta)^(3/2)]
    evaluated between trough and crest, bounded by c L.
    """
    report = WaveReport()
    if not model.gamma_nonpos:
        report.add("amplitude_speed_chain", True, 0.0, tol,
                   "(2g)^(3/2) amplitude gap <= 3 g c L", skipped=True,
                   reason="requires gamma <= 0")
        return report
    eta_c, eta_t = wave.eta[-1], wave.eta[0]
    if eta_c >= 0.0 or eta_t >= 0.0:
        raise DomainError("surface must stay below the Bernoulli datum")
    lhs = (2.0 * g) ** 1.5 * (abs(eta_t) ** 1.5 - abs(eta_c) ** 1.5)
    mid = abs(wave.psi_y[-1, 0]) ** 3 - abs(wave.psi_y[-1, -1]) ** 3
    bound = 3.0 * g * wave.c * wave.source.grid.L
    report.add("amplitude_speed_bernoulli", bool(abs(lhs - mid) <= tol * (1 + abs(mid))),
               float(abs(lhs - mid)), tol,
               "(2g)^(3/2) (|eta_t|^(3/2) - |eta_c|^(3/2)) = |psi_y_t|^3 - |psi_y_c|^3")
    report.add("amplitude_speed_nonneg", bool(lhs >= -tol), float(lhs), tol,
               "amplitude gap is nonnegative")
    report.add("amplitude_speed_chain", bool(mid <= bound + tol), float(bound - mid),
               tol, "|psi_y_t|^3 - |psi_y_c|^3 <= 3 g c L")
    return report


# -- consistency of the reconstruction ---------------------------------------------


def verify_surface_bernoulli(op: StripOperator, wave: PhysicalWave,
                             solver_tol: float = 1e-10) -> WaveReport:
    """|grad psi|^2 + 2 g eta = 0 along the surface samples."""
    report = WaveReport()
    res = wave.psi_x[-1] ** 2 + wave.psi_y[-1] ** 2 + 2.0 * op.g * wave.eta
    tol = 10.0 * solver_tol * float(np.max(1.0 / wave.hp[-1] ** 2) + 1.0)
    report.add("surface_bernoulli", bool(np.max(np.abs(res)) <= tol),
               float(tol - np.max(np.abs(res))), tol,
               "|grad psi(x, eta)|^2 + 2 g eta = 0")
    return report


def verify_bottom_flux(op: StripOperator, wave: PhysicalWave) -> WaveReport:
    """psi_y approaches -c at the truncated bottom, uniformly in x."""
    report = WaveReport()
    state = wave.source
    a_bot = 1.0 / op.ainv_rows(state.lam)[0]
    trunc = abs(a_bot - wave.c)
    wp_bot = float(np.max(np.abs(wave.fields["wp"][0])))
    tol = 2.0 * (trunc + wp_bot * a_bot**2) + 1e-12
    gap = float(np.max(np.abs(wave.psi_y[0] + wave.c)))
    report.add("bottom_flux", gap <= tol, tol - gap, tol,
               "psi_y -> -c at depth within the truncation tolerance")
    return report


def verify_crest_trough_ordering(wave: PhysicalWave) -> WaveReport:
    """eta is strictly monotone from crest to trough."""
    report = WaveReport()
    if _is_effectively_trivial(wave.source):
        report.add("surface_ordering", True, 0.0, 0.0, "flat surface",
                   skipped=True, reason="trivial state")
        return report
    diffs = np.diff(wave.eta)  # from trough (q=-L) to crest (q=0)
    report.add("surface_ordering", bool(np.all(diffs > 0.0)),
               float(np.min(diffs)), 0.0,
               "eta(trough) < eta(x) < eta(crest), strictly monotone between")
    return report


def smallness_condition_value(wave: PhysicalWave, model: VorticityModel,
                              g: float) -> float:
    """g + gamma(0) * psi_y(trough): logged only, never asserted."""
    return float(g + model.gamma(0.0) * wave.psi_y[-1, 0])


def stagnation_descriptor(wave: PhysicalWave) -> str:
    """Where the minimum relative flow speed sits (descriptive only)."""
    hp = wave.hp
    i, j = np.unravel_index(int(np.argmax(hp)), hp.shape)
    n_p, nq = hp.shape
    if i == n_p - 1 and j == nq - 1:
        return "crest"
    if i == n_p - 1:
        return "surface"
    if i == 0:
        return "bottom"
    return "interior"


def verify_all(op: StripOperator, state: WaveState, model: VorticityModel,
               solver_tol: float = 1e-10) -> WaveReport:
    """Full verification suite for one accepted state, from one pass of its fields."""
    wave = reconstruct(state, model, op.g)
    ev = StripEvaluation(op, state, wave.fields)
    tol = _base_tolerance(op, solver_tol)
    report = WaveReport()
    report.extend(verify_nodal(ev))
    report.extend(verify_decay(ev))
    report.extend(verify_velocity_bounds(wave, tol=tol))
    report.extend(verify_pressure(wave, model, op.g, tol=tol))
    report.extend(verify_amplitude_speed(wave, model, op.g, tol=tol))
    report.extend(verify_surface_bernoulli(op, wave, solver_tol=solver_tol))
    report.extend(verify_bottom_flux(op, wave))
    report.extend(verify_crest_trough_ordering(wave))
    return report
