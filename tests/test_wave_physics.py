import math

import numpy as np
import pytest

from vorstokes.continuation import initial_nontrivial_guess, solve_at_amplitude
from vorstokes.strip_solver import StripGrid, StripOperator, WaveState, default_grid
from vorstokes.vorticity import ExpDecayVorticity, ZeroVorticity
from vorstokes.wave_physics import (
    decay_envelope_constants,
    fitted_wq_tail_rate,
    physical_grid,
    reconstruct,
    smallness_condition_value,
    stagnation_descriptor,
    verify_all,
    verify_amplitude_speed,
    verify_decay,
    verify_nodal,
    verify_pressure,
    verify_surface_bernoulli,
    verify_velocity_bounds,
)

G = 9.81
L = math.pi


def trivial_state(op, lam):
    return WaveState(lam, op.epsilon, op.grid, np.zeros((op.grid.np, op.grid.nq)))


@pytest.fixture(scope="module")
def solved_zero(zero_setup):
    _, bp, op = zero_setup
    st = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.02), 0.02,
                            tol=1e-11)
    return op, st


@pytest.fixture(scope="module")
def solved_gerstner(gerstner_setup):
    model, bp, op = gerstner_setup
    st = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.02), 0.02,
                            tol=1e-11)
    return model, op, st


def test_reconstruct_trivial_flow():
    lam = 4.0
    grid = default_grid(L, lam, 0.0, nq=24)
    op = StripOperator(ZeroVorticity(), G, grid, epsilon=0.0)
    wave = reconstruct(trivial_state(op, lam), ZeroVorticity(), G)
    assert np.allclose(wave.eta, -lam / (2.0 * G), atol=1e-14)
    assert np.allclose(wave.psi_y, -2.0, atol=1e-12)
    assert np.allclose(wave.psi_x, 0.0, atol=1e-14)
    assert wave.c == pytest.approx(2.0, rel=1e-12)


def test_trivial_surface_pressure_is_atmospheric():
    lam = 6.0
    model = ExpDecayVorticity(0.8, 1.1)
    grid = default_grid(L, lam, 0.0, nq=24)
    op = StripOperator(model, G, grid, epsilon=0.0)
    wave = reconstruct(trivial_state(op, lam), model, G)
    assert np.max(np.abs(wave.pressure[-1])) < 1e-11


def test_trivial_pressure_is_hydrostatic_below_surface():
    # for the laminar flow, B = g (y - eta), so pressure = -g (y - eta) >= 0
    lam = 4.0
    grid = default_grid(L, lam, 0.0, nq=24)
    op = StripOperator(ZeroVorticity(), G, grid, epsilon=0.0)
    wave = reconstruct(trivial_state(op, lam), ZeroVorticity(), G)
    expected = -G * (wave.height - wave.eta[None, :])
    assert np.allclose(wave.pressure, expected, atol=1e-11)


def test_surface_bernoulli_identity_on_solved_state(solved_zero):
    op, st = solved_zero
    wave = reconstruct(st, ZeroVorticity(), G)
    rep = verify_surface_bernoulli(op, wave, solver_tol=1e-11)
    assert rep.passed


def test_nodal_passes_for_local_theory_state(zero_setup):
    _, bp, op = zero_setup
    st = initial_nontrivial_guess(bp, op, 0.01)
    rep = verify_nodal(op.evaluate(st))
    assert rep.passed
    assert {c.name for c in rep.checks} >= {
        "nodal_wq_interior",
        "nodal_wqq_trough_corner",
        "nodal_wqq_crest_corner",
    }


def test_nodal_flags_sign_flipped_state(zero_setup):
    _, bp, op = zero_setup
    st = initial_nontrivial_guess(bp, op, -0.01)  # crest at the period ends
    rep = verify_nodal(op.evaluate(st))
    names = {c.name for c in rep.failures()}
    assert "nodal_wqq_crest_corner" in names
    assert "nodal_wq_interior" in names


def test_nodal_trivial_is_vacuous(zero_setup):
    _, bp, op = zero_setup
    rep = verify_nodal(op.evaluate(trivial_state(op, bp.lambda_star)))
    assert rep.checks[0].skipped


def test_decay_degenerate_for_trivial_irrotational(zero_setup):
    _, bp, op = zero_setup
    rep = verify_decay(op.evaluate(trivial_state(op, bp.lambda_star)))
    assert rep.checks[0].skipped


def test_decay_envelope_holds_on_solved_state(solved_zero):
    op, st = solved_zero
    ev = op.evaluate(st)
    rep = verify_decay(ev)
    assert rep.passed and not rep.checks[0].skipped
    _, _, sigma = decay_envelope_constants(ev)
    fitted = fitted_wq_tail_rate(st)
    assert sigma > 0.0
    assert fitted > sigma
    assert fitted == pytest.approx(math.pi / (L * math.sqrt(st.lam)), rel=0.1)


def test_verify_all_differentiates_each_state_once(solved_zero, derivative_passes):
    # every check reads the one pass reconstruct makes
    op, st = solved_zero
    assert verify_all(op, st, ZeroVorticity(), solver_tol=1e-11).passed
    assert derivative_passes == [st.w.tobytes()]


def test_velocity_bounds_trivial_equality_case(zero_setup):
    _, bp, op = zero_setup
    wave = reconstruct(trivial_state(op, bp.lambda_star), ZeroVorticity(), G)
    rep = verify_velocity_bounds(wave, tol=1e-9)
    assert rep.passed
    sandwich = wave.psi_x**2 + wave.psi_y**2 - 2.0 * wave.big_gamma[:, None]
    assert np.allclose(sandwich, bp.lambda_star, atol=1e-10)


def test_velocity_bounds_strict_on_solved_states(solved_zero, solved_gerstner):
    op, st = solved_zero
    repz = verify_velocity_bounds(reconstruct(st, ZeroVorticity(), G), tol=1e-8)
    assert repz.passed
    model, opg, stg = solved_gerstner
    repg = verify_velocity_bounds(reconstruct(stg, model, G), tol=1e-8)
    assert repg.passed
    crest = {c.name: c for c in repg.checks}["crest_speed_bound"]
    trough = {c.name: c for c in repg.checks}["trough_speed_bound"]
    assert crest.margin > 0.0 and trough.margin > 0.0


def test_pressure_checks_engaged_for_zero_vorticity(solved_zero):
    op, st = solved_zero
    wave = reconstruct(st, ZeroVorticity(), G)
    rep = verify_pressure(wave, ZeroVorticity(), G, tol=1e-7)
    by_name = {c.name: c for c in rep.checks}
    assert rep.passed
    assert not by_name["pressure_nonpositive"].skipped
    assert not by_name["pressure_positive_vorticity"].skipped
    assert not by_name["surface_speed_monotone"].skipped
    assert not by_name["min_max_upper"].skipped


def test_pressure_routing_for_gerstner(solved_gerstner):
    model, op, st = solved_gerstner
    wave = reconstruct(st, model, G)
    rep = verify_pressure(wave, model, G, tol=1e-7)
    by_name = {c.name: c for c in rep.checks}
    assert rep.passed
    assert by_name["pressure_positive_vorticity"].skipped  # needs gamma >= 0
    assert not by_name["pressure_nonpositive"].skipped
    assert not by_name["min_max_upper"].skipped
    assert not by_name["surface_speed_monotone"].skipped
    # for gamma < 0 the lower side carries no minimum principle and is
    # reported descriptively
    assert by_name["min_max_lower"].skipped


def test_min_max_lower_asserted_for_irrotational(solved_zero):
    op, st = solved_zero
    wave = reconstruct(st, ZeroVorticity(), G)
    rep = verify_pressure(wave, ZeroVorticity(), G, tol=1e-7)
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["min_max_lower"].skipped
    assert by_name["min_max_lower"].passed


def test_psi_x_positive_left_of_crest(solved_zero):
    # vertical velocity sign: psi_x > 0 on the upstream half-period
    op, st = solved_zero
    wave = reconstruct(st, ZeroVorticity(), G)
    assert np.all(wave.psi_x[1:, 1:-1] > 0.0)


def test_pressure_routing_for_positive_vorticity():
    model = ExpDecayVorticity(0.5, 1.0)
    lam = 8.0
    grid = default_grid(L, lam, 0.0, nq=24)
    op = StripOperator(model, G, grid, epsilon=0.0)
    wave = reconstruct(trivial_state(op, lam), model, G)
    rep = verify_pressure(wave, model, G, tol=1e-7)
    by_name = {c.name: c for c in rep.checks}
    assert rep.passed
    assert not by_name["pressure_positive_vorticity"].skipped
    assert by_name["min_max_upper"].skipped  # needs gamma <= 0


def test_amplitude_speed_chain(solved_zero, solved_gerstner):
    op, st = solved_zero
    rep = verify_amplitude_speed(reconstruct(st, ZeroVorticity(), G),
                                 ZeroVorticity(), G)
    assert rep.passed and not rep.checks[0].skipped
    model, opg, stg = solved_gerstner
    repg = verify_amplitude_speed(reconstruct(stg, model, G), model, G)
    assert repg.passed and not repg.checks[0].skipped


def test_full_suite_on_solved_positive_vorticity_wave():
    # nonnegative monotone vorticity engages the B + Gamma(-psi) <= 0
    # estimate and skips the nonpositive-only checks, on a genuine wave
    from vorstokes.sturm_liouville import SLProblem, find_bifurcation_point

    model = ExpDecayVorticity(0.3, 1.0)
    bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=0.01))
    grid = default_grid(L, bp.lambda_star, 0.01, nq=48)
    op = StripOperator(model, G, grid, epsilon=0.01)
    st = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.02), 0.02,
                            tol=1e-11)
    rep = verify_all(op, st, model, solver_tol=1e-11)
    assert rep.passed, [c.name for c in rep.failures()]
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["pressure_positive_vorticity"].skipped
    assert by_name["min_max_upper"].skipped
    assert by_name["amplitude_speed_chain"].skipped


def test_amplitude_speed_skipped_for_positive_vorticity():
    model = ExpDecayVorticity(0.5, 1.0)
    lam = 8.0
    grid = default_grid(L, lam, 0.0, nq=16)
    op = StripOperator(model, G, grid, epsilon=0.0)
    wave = reconstruct(trivial_state(op, lam), model, G)
    rep = verify_amplitude_speed(wave, model, G)
    assert rep.checks[0].skipped


def test_tensor_grid_fields_consistent_with_direct_transform(solved_zero):
    # finite differences of the interpolated psi reproduce the transform
    # velocities to interpolation accuracy
    op, st = solved_zero
    fields = physical_grid(reconstruct(st, ZeroVorticity(), G), n_y=220)
    gx, gy = fields.x, fields.y
    psi = fields.psi
    hx = gx[1, 0] - gx[0, 0]
    hy = gy[0, 1] - gy[0, 0]
    fd_x = (psi[2:, :] - psi[:-2, :]) / (2.0 * hx)
    fd_y = (psi[:, 2:] - psi[:, :-2]) / (2.0 * hy)
    ok_x = np.isfinite(fd_x) & np.isfinite(fields.psi_x[1:-1, :])
    ok_y = np.isfinite(fd_y) & np.isfinite(fields.psi_y[:, 1:-1])
    err_x = np.nanmax(np.abs((fd_x - fields.psi_x[1:-1, :])[ok_x]))
    err_y = np.nanmax(np.abs((fd_y - fields.psi_y[:, 1:-1])[ok_y]))
    scale = np.nanmax(np.abs(fields.psi_y))
    assert err_x < 5e-3 * scale
    assert err_y < 5e-3 * scale


def test_stream_pde_residual_second_order():
    # Delta psi + gamma(psi) on the tensor grid for a laminar rotational
    # flow: the residual must contract at second order in the strip spacing
    model = ExpDecayVorticity(0.8, 1.2)
    lam = 6.0
    errs = []
    for n_p in (200, 400):
        grid = StripGrid(L=L, P=3 * L, nq=16, np=n_p)
        op = StripOperator(model, G, grid, epsilon=0.0)
        fields = physical_grid(reconstruct(trivial_state(op, lam), model, G), n_y=n_p)
        psi = fields.psi[0]   # x-independent column
        y = fields.y[0]
        hy = y[1] - y[0]
        lap = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / hy**2
        ok = np.isfinite(lap)
        gam = np.asarray(model.gamma(np.maximum(psi[1:-1][ok], 0.0)))
        errs.append(float(np.max(np.abs(lap[ok] + gam))))
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] > 2.0


def test_crest_trough_ordering_on_solved_state(solved_zero):
    op, st = solved_zero
    wave = reconstruct(st, ZeroVorticity(), G)
    assert wave.eta[-1] > wave.eta[0]             # crest above trough
    assert np.all(np.diff(wave.eta) > 0.0)        # monotone between


def test_full_report_passes_on_solved_states(solved_zero, solved_gerstner):
    op, st = solved_zero
    rep = verify_all(op, st, ZeroVorticity(), solver_tol=1e-11)
    assert rep.passed, [c.name for c in rep.failures()]
    model, opg, stg = solved_gerstner
    repg = verify_all(opg, stg, model, solver_tol=1e-11)
    assert repg.passed, [c.name for c in repg.failures()]


def test_stagnation_descriptor_and_smallness_value(solved_zero):
    op, st = solved_zero
    wave = reconstruct(st, ZeroVorticity(), G)
    # slowest relative flow of a gravity wave sits at the crest
    assert stagnation_descriptor(wave) == "crest"
    assert smallness_condition_value(wave, ZeroVorticity(), G) == pytest.approx(G)
