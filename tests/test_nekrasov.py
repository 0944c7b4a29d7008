import logging
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from vorstokes import nekrasov
from vorstokes.continuation import _gmres
from vorstokes.errors import DomainError, NewtonDivergenceError
from vorstokes.nekrasov import (
    kernel,
    kernel_integral,
    kernel_weights,
    nu_bound_check,
    solve_nekrasov,
    strip_wave_to_angles,
)

PI = math.pi


def test_kernel_closed_form_value():
    # sin(3 pi/8)/sin(pi/8) = 1 + sqrt(2)
    assert kernel(PI / 2, PI / 4) == pytest.approx(math.log(1.0 + math.sqrt(2.0)),
                                                   rel=1e-14)


def test_kernel_symmetry():
    assert kernel(0.3, 1.1) == pytest.approx(kernel(1.1, 0.3), rel=1e-15)


def test_kernel_diagonal_rejected():
    with pytest.raises(DomainError):
        kernel(1.0, 1.0)


def test_kernel_positive_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(200):
        s, t = rng.uniform(1e-3, PI - 1e-3, size=2)
        if abs(s - t) < 1e-9:
            continue
        assert kernel(s, t) > 0.0


def test_kernel_quadrature_matches_adaptive_reference():
    for s in (PI / 6, PI / 2, 5 * PI / 6):
        ref, _ = quad(lambda t: kernel(s, t), 0.0, PI, points=[s], limit=200,
                      epsabs=1e-13)
        mine = kernel_integral(s, lambda t: np.ones_like(t), n=512)
        assert abs(mine - ref) < 1e-8


def test_kernel_quadrature_sine_identity():
    # int K(s, t) sin(t) dt = pi sin(s); piecewise-linear interpolation of
    # the density limits the rule to second order
    for s in (0.4, 1.1, 2.3):
        mine = kernel_integral(s, np.sin, n=1024)
        assert mine == pytest.approx(PI * math.sin(s), abs=5e-6)


def test_trivial_fixed_point():
    state = solve_nekrasov(5.0)
    assert state.trivial
    assert state.iterations == 0


@pytest.mark.parametrize("nu, n_quad, tol", [
    pytest.param(math.nan, 256, 1e-12, id="nan-256"),
    pytest.param(6.0, 1, 1e-12, id="6.0-1"),
    pytest.param(6.0, -3, 1e-12, id="6.0--3"),
    pytest.param(6.0, 256, 0.0, id="tol-0"),
    pytest.param(6.0, 256, -1.0, id="tol--1"),
    pytest.param(6.0, 256, math.nan, id="tol-nan"),
])
def test_solve_rejects_a_nan_nu_or_too_few_nodes(nu, n_quad, tol):
    with pytest.raises(DomainError):
        solve_nekrasov(nu, n_quad=n_quad, tol=tol)


# max theta of damped Picard iteration alone to tol 1e-12 at n_quad = 256:
# the Newton finish must keep the root the warm-up chose
@pytest.mark.parametrize("nu, amplitude, max_theta", [
    (2.0, 0.1, 0.0),
    (4.0, 0.1, 0.086320232864),
    (12.0, 0.1, 0.298678498565),
    (30.0, 0.1, 0.394487024040),
    (6.0, 1e-6, 0.182253208780),
])
def test_solve_keeps_the_picard_root(nu, amplitude, max_theta):
    t = np.linspace(0.0, PI, 257)
    state = solve_nekrasov(nu, n_quad=256, theta0=amplitude * np.sin(t), tol=1e-12)
    assert np.max(np.abs(state.theta)) == pytest.approx(max_theta, abs=1e-9)
    assert state.update < 1e-12


def test_solve_converges_next_to_the_threshold():
    # Picard alone contracts too slowly here to reach tol in its iteration cap
    t = np.linspace(0.0, PI, 257)
    above = solve_nekrasov(3.01, n_quad=256, theta0=0.1 * np.sin(t), tol=1e-12)
    assert np.all(above.theta[1:-1] > 0.0)
    assert np.max(above.theta) == pytest.approx(0.0011037, rel=1e-4)
    below = solve_nekrasov(2.99, n_quad=256, theta0=0.1 * np.sin(t), tol=1e-12)
    assert below.trivial


def test_solve_that_does_not_settle_names_its_stage(monkeypatch):
    t = np.linspace(0.0, PI, 257)
    # from 1e-6 the Picard updates grow for about 30 steps before they shrink
    monkeypatch.setattr(nekrasov, "PICARD_MAX_ITER", 10)
    with pytest.raises(NewtonDivergenceError, match="Picard warm-up did not settle") as exc:
        solve_nekrasov(6.0, n_quad=256, theta0=1e-6 * np.sin(t))
    assert exc.value.iterations == 10
    monkeypatch.undo()
    monkeypatch.setattr(nekrasov, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NewtonDivergenceError, match="Newton did not reach tol") as exc:
        solve_nekrasov(6.0, n_quad=256, theta0=0.1 * np.sin(t))
    assert exc.value.iterations >= 2


def test_a_stalled_gmres_solve_does_not_end_the_solve(monkeypatch):
    # an update from a GMRES solve that stopped at its iteration cap may be
    # small only because GMRES stalled, so it must not stop the iteration
    t = np.linspace(0.0, PI, 257)
    monkeypatch.setattr(nekrasov, "_gmres", lambda *args: (*_gmres(*args)[:2], False))
    monkeypatch.setattr(nekrasov, "NEWTON_MAX_ITER", 20)
    with pytest.raises(NewtonDivergenceError, match=r"\(20 GMRES solves stalled\)"):
        solve_nekrasov(6.0, n_quad=256, theta0=0.1 * np.sin(t))


def test_weights_are_built_once_per_node_count(monkeypatch):
    calls = []

    def counted(s_points, n):
        calls.append(n)
        return kernel_weights(s_points, n)

    nekrasov._interior_weights.cache_clear()
    monkeypatch.setattr(nekrasov, "kernel_weights", counted)
    t = np.linspace(0.0, PI, 97)
    first = solve_nekrasov(6.0, n_quad=96, theta0=0.1 * np.sin(t))
    second = solve_nekrasov(8.0, n_quad=96, theta0=0.1 * np.sin(t))
    assert calls == [96]
    assert not first.trivial and not second.trivial
    W = nekrasov._interior_weights(96)
    assert not W.flags.writeable
    with pytest.raises(ValueError):
        W[0, 0] = 0.0


def test_jacobian_product_fills_its_buffers_to_the_same_bits():
    # J v by the padded-vector formula, written out with np.pad and a
    # concatenating running trapezoid, against the product's in-place buffers
    rng = np.random.default_rng(29)
    for n in (8, 96, 256):
        t = np.linspace(0.0, PI, n + 1)
        W = nekrasov._interior_weights(n)
        for nu in (3.5, 6.0, 40.0):
            theta = np.concatenate([[0.0], rng.uniform(-0.6, 0.6, n - 1), [0.0]])
            st, ct = np.sin(theta), np.cos(theta)
            trap = np.concatenate([[0.0], np.cumsum(0.5 * (st[1:] + st[:-1]) * np.diff(t))])
            denom = 1.0 / nu + trap
            a, b = ct / denom, st / denom**2
            jv = nekrasov._newton_system(nu, t, W, theta)[1]
            for _ in range(4):
                v = rng.standard_normal(n - 1)
                full = np.pad(v, 1)
                y = ct * full
                cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])
                expected = v - (W @ (a * full - b * cum)) / (3.0 * PI)
                assert np.array_equal(jv(v), expected)


def test_each_solve_logs_one_record(caplog):
    assert logging.getLogger("vorstokes").handlers == []
    t = np.linspace(0.0, PI, 257)
    with caplog.at_level(logging.DEBUG, logger="vorstokes"):
        state = solve_nekrasov(6.0, n_quad=256, theta0=0.1 * np.sin(t))
    assert [(rec.name, rec.levelno) for rec in caplog.records] == [("vorstokes", logging.DEBUG)]
    counts = re.fullmatch(
        r"angle equation at nu 6: (\d+) Picard steps, (\d+) Newton updates, "
        r"(\d+) GMRES iterations \(0 solves stalled\), last update (\S+)",
        caplog.records[0].getMessage())
    assert counts is not None
    picard, newton, krylov = (int(counts.group(k)) for k in (1, 2, 3))
    assert picard + newton == state.iterations
    assert newton >= 1 and krylov >= newton
    assert float(counts.group(4)) == pytest.approx(state.update, rel=1e-3)


def test_subcritical_nu_collapses_to_zero():
    t = np.linspace(0.0, PI, 257)
    state = solve_nekrasov(2.0, n_quad=256, theta0=0.1 * np.sin(t), tol=1e-10)
    assert np.max(np.abs(state.theta)) < 1e-8


def test_supercritical_nu_gives_positive_profile():
    t = np.linspace(0.0, PI, 257)
    state = solve_nekrasov(6.0, n_quad=256, theta0=0.1 * np.sin(t), tol=1e-12)
    assert not state.trivial
    assert np.all(state.theta[1:-1] > 0.0)
    assert np.max(state.theta) < 0.5 * PI
    assert state.theta[0] == 0.0 and state.theta[-1] == 0.0
    # amplitude regression snapshot for this discretization
    assert np.max(state.theta) == pytest.approx(0.18225320878, rel=1e-6)


def test_endpoint_pinning_preserved_through_iteration():
    t = np.linspace(0.0, PI, 129)
    state = solve_nekrasov(4.0, n_quad=128, theta0=0.05 * np.sin(t), tol=1e-11)
    assert state.theta[0] == 0.0
    assert state.theta[-1] == 0.0


def test_nu_bound_certificate_on_solve():
    t = np.linspace(0.0, PI, 257)
    state = solve_nekrasov(6.0, n_quad=256, theta0=0.1 * np.sin(t), tol=1e-12)
    rep = nu_bound_check(state)
    assert rep.holds and not rep.skipped
    assert rep.ratio > 1.0
    assert rep.ratio == pytest.approx(state.nu / 3.0, rel=1e-3)
    assert rep.identity_residual < 1e-4


def test_nu_bound_skipped_for_trivial():
    rep = nu_bound_check(solve_nekrasov(5.0))
    assert rep.skipped and rep.holds


def test_mapped_strip_wave_satisfies_bound(zero_setup):
    from vorstokes.continuation import initial_nontrivial_guess, solve_at_amplitude
    from vorstokes.wave_physics import reconstruct
    from vorstokes.vorticity import ZeroVorticity

    _, bp, op = zero_setup
    st = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.05), 0.05,
                            tol=1e-11)
    wave = reconstruct(st, ZeroVorticity(), 9.81)
    mapped = strip_wave_to_angles(wave, 9.81)
    assert mapped.nu > 3.0
    rep = nu_bound_check(mapped)
    assert rep.holds and rep.ratio > 1.0
    # the mapped profile satisfies the equation to discretization accuracy
    assert rep.identity_residual < 0.05


def test_cross_solver_profile_agreement(zero_setup):
    from vorstokes.continuation import initial_nontrivial_guess, solve_at_amplitude
    from vorstokes.wave_physics import reconstruct
    from vorstokes.vorticity import ZeroVorticity

    _, bp, op = zero_setup
    st = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.05), 0.05,
                            tol=1e-11)
    wave = reconstruct(st, ZeroVorticity(), 9.81)
    mapped = strip_wave_to_angles(wave, 9.81)
    nek = solve_nekrasov(mapped.nu, n_quad=256,
                         theta0=np.maximum(mapped.theta, 0.0), tol=1e-12)
    scale = np.max(mapped.theta) / np.max(nek.theta)
    diff = np.max(np.abs(scale * nek.theta - mapped.theta))
    assert diff / np.max(np.abs(mapped.theta)) <= 0.02
    # a few Picard steps and Newton updates, where Picard alone takes hundreds
    assert nek.iterations <= 10
