import math

import numpy as np
import pytest
from scipy.integrate import quad

from vorstokes.errors import DomainError
from vorstokes.nekrasov import (
    kernel,
    kernel_integral,
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


@pytest.mark.parametrize("nu, n_quad", [(math.nan, 256), (6.0, 1), (6.0, -3)])
def test_solve_rejects_a_nan_nu_or_too_few_nodes(nu, n_quad):
    with pytest.raises(DomainError):
        solve_nekrasov(nu, n_quad=n_quad)


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

    _, _, bp, op = zero_setup
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

    _, _, bp, op = zero_setup
    st = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.05), 0.05,
                            tol=1e-11)
    wave = reconstruct(st, ZeroVorticity(), 9.81)
    mapped = strip_wave_to_angles(wave, 9.81)
    nek = solve_nekrasov(mapped.nu, n_quad=256,
                         theta0=np.maximum(mapped.theta, 0.0), tol=1e-12)
    scale = np.max(mapped.theta) / np.max(nek.theta)
    diff = np.max(np.abs(scale * nek.theta - mapped.theta))
    assert diff / np.max(np.abs(mapped.theta)) <= 0.02
