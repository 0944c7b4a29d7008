import math

import numpy as np
import pytest
from scipy.integrate import quad

from vorstokes.errors import DomainError, StagnationDomainError
from vorstokes.shear_flow import ShearFlow, wave_speed
from vorstokes.vorticity import (
    ExpDecayVorticity,
    GerstnerVorticity,
    TabulatedVorticity,
    ZeroVorticity,
)

G = 9.81


def test_a_coeff_constant_for_zero_vorticity():
    flow = ShearFlow(ZeroVorticity(), lam=4.0, g=G)
    for p in (0.0, -1.0, -17.3):
        assert flow.a(p) == pytest.approx(2.0, rel=1e-14)


def test_a_coeff_expdecay_plugs_gamma():
    flow = ShearFlow(ExpDecayVorticity(1.0, 1.0), lam=4.0, g=G)
    expected = math.sqrt(4.0 + 2.0 * (math.exp(-1.0) - 1.0))
    assert flow.a(-1.0) == pytest.approx(expected, rel=1e-12)


def test_a_coeff_surface_value_is_sqrt_lambda():
    flow = ShearFlow(ExpDecayVorticity(1.0, 1.0), lam=4.0, g=G)
    assert flow.a(0.0) == pytest.approx(2.0, rel=1e-14)


def test_a_coeff_rejects_positive_p():
    flow = ShearFlow(ZeroVorticity(), lam=4.0, g=G)
    with pytest.raises(DomainError):
        flow.a(0.5)


def test_shear_flow_rejects_stagnation_domain():
    # For amplitude -1 the floor is -2*Gamma_inf = 0... the negative kind has
    # Gamma_inf = 0, so lambda must simply be positive; push it below.
    with pytest.raises(StagnationDomainError):
        ShearFlow(ExpDecayVorticity(1.0, 1.0), lam=1.9, g=G)  # floor is 2.0


def test_a_nan_parameter_is_not_positive():
    with pytest.raises(StagnationDomainError):
        wave_speed(math.nan, ZeroVorticity())
    with pytest.raises(StagnationDomainError):
        ShearFlow(ZeroVorticity(), lam=math.nan, g=G)
    with pytest.raises(DomainError):
        ShearFlow(ZeroVorticity(), lam=4.0, g=math.nan)


def test_h_trivial_zero_vorticity_analytic():
    flow = ShearFlow(ZeroVorticity(), lam=4.0, g=G)
    assert flow.h_tr(0.0) == pytest.approx(-4.0 / (2.0 * G), rel=1e-14)
    assert flow.h_tr(-2.0) == pytest.approx(-1.0 - 4.0 / (2.0 * G), rel=1e-14)


def test_h_trivial_at_surface_is_lambda_over_2g():
    for model in (ZeroVorticity(), ExpDecayVorticity(0.5, 2.0), GerstnerVorticity(m=0.5)):
        flow = ShearFlow(model, lam=6.0, g=G)
        assert flow.h_tr(0.0) == pytest.approx(-6.0 / (2.0 * G), abs=1e-13)


def test_h_trivial_expdecay_against_quadrature():
    flow = ShearFlow(ExpDecayVorticity(1.0, 1.0), lam=4.0, g=G)
    for p in (-0.5, -2.0, -7.0):
        ref, _ = quad(lambda t: 1.0 / flow.a(t), 0.0, p)
        assert flow.h_tr(p) == pytest.approx(ref - 4.0 / (2.0 * G), rel=1e-10)


def test_h_trivial_negative_amplitude_against_quadrature():
    flow = ShearFlow(ExpDecayVorticity(-0.8, 1.3), lam=3.0, g=G)
    for p in (-0.5, -3.0, -11.0):
        ref, _ = quad(lambda t: 1.0 / flow.a(t), 0.0, p)
        assert flow.h_tr(p) == pytest.approx(ref - 3.0 / (2.0 * G), rel=1e-10)


def test_h_trivial_gerstner_against_quadrature():
    flow = ShearFlow(GerstnerVorticity(m=0.6), lam=5.0, g=G)
    for p in (-1.0, -4.0):
        ref, _ = quad(lambda t: 1.0 / flow.a(t), 0.0, p)
        assert flow.h_tr(p) == pytest.approx(ref - 5.0 / (2.0 * G), rel=1e-9)


def test_h_trivial_derivative_matches_inverse_coefficient():
    rng = np.random.default_rng(3)
    flow = ShearFlow(ExpDecayVorticity(0.7, 1.1), lam=4.5, g=G)
    p = -rng.uniform(0.01, 15.0, size=100)
    h = 1e-6
    fd = (flow.h_tr(p + h) - flow.h_tr(p - h)) / (2.0 * h)
    assert np.max(np.abs(fd - flow.h_tr_p(p)) / np.abs(flow.h_tr_p(p))) < 1e-6


def test_h_trivial_strictly_increasing():
    flow = ShearFlow(GerstnerVorticity(m=0.5), lam=4.0, g=G)
    p = -np.linspace(0.0, 30.0, 400)[::-1]
    vals = flow.h_tr(p)
    assert np.all(np.diff(vals) > 0.0)


def test_wave_speed_zero_vorticity():
    assert wave_speed(4.0, ZeroVorticity()) == pytest.approx(2.0, rel=1e-14)


def test_wave_speed_expdecay():
    assert wave_speed(4.0, ExpDecayVorticity(1.0, 1.0)) == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_wave_speed_zero_radicand_rejected():
    model = ExpDecayVorticity(1.0, 1.0)
    with pytest.raises(StagnationDomainError):
        wave_speed(-2.0 * model.gamma_total(), model)


def test_a_flow_holds_only_its_parameters():
    # README: solver state is immutable or owned by one solve, so h_tr
    # builds the spline it needs and leaves the flow as it found it
    models = (ExpDecayVorticity(0.5, 2.0), GerstnerVorticity(m=0.5),
              TabulatedVorticity([[0.0, 0.4], [1.0, 0.1], [2.0, 0.0]]))
    for model in models:
        flow = ShearFlow(model, lam=6.0, g=G)
        for p in (-1.0, -np.linspace(0.0, 40.0, 9), -3.0):
            flow.h_tr(p)
            assert vars(flow) == {"model": model, "lam": 6.0, "g": G}
