import math

import numpy as np
import pytest
from scipy.integrate import quad

from vorstokes.errors import DomainError, StagnationDomainError
from vorstokes.shear_flow import ShearFlow, wave_speed
from vorstokes.strip_solver import default_grid
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
    with pytest.raises(StagnationDomainError):
        ShearFlow(ExpDecayVorticity(1.0, 1.0), lam=2.0, g=G)


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


# every model kind without a closed-form h_tr, and the exponential kind just
# above its floor lambda > 2*amplitude*rate, where its closed form is nearest
# cancellation; lambda = 2*amplitude*rate itself is no flow
# (test_shear_flow_rejects_stagnation_domain)
QUADRATURE_FLOWS = (
    (GerstnerVorticity(m=0.5), 4.0),
    (GerstnerVorticity(m=0.6), 5.0),
    (TabulatedVorticity([[0.0, 0.4], [1.0, -0.3], [2.5, 0.1], [4.0, 0.0]]), 3.0),
    (ExpDecayVorticity(1.0, 1.0), 2.002),
)


@pytest.mark.parametrize("model, lam", QUADRATURE_FLOWS,
                         ids=["gerstner-0.5", "gerstner-0.6", "tabulated", "expdecay"])
def test_h_tr_matches_adaptive_quadrature_on_strip_nodes_and_deep(model, lam):
    flow = ShearFlow(model, lam=lam, g=G)
    knots = -model.knots[:, 0] if isinstance(model, TabulatedVorticity) else []

    def reference(p):
        inside = [k for k in knots if p < k < 0.0]
        val, _ = quad(lambda t: 1.0 / flow.a(t), 0.0, p, epsabs=0.0, epsrel=1e-13,
                      limit=200, points=inside or None)
        return val - lam / (2.0 * G)

    p = default_grid(math.pi, lam, 0.01).p_nodes
    expected = np.array([reference(x) for x in p])
    assert np.max(np.abs(flow.h_tr(p) - expected) / np.abs(expected)) <= 1e-13
    deep = flow.h_tr(-40.0)
    assert isinstance(deep, float)
    assert abs(deep - reference(-40.0)) <= 1e-13 * abs(reference(-40.0))

    rng = np.random.default_rng(41)
    scattered = np.concatenate([rng.choice(p, 30), [-40.0, p[7], p[7], -40.0, 0.0]])
    rng.shuffle(scattered)
    one_by_one = np.array([flow.h_tr(float(x)) for x in scattered])
    assert np.max(np.abs(flow.h_tr(scattered) - one_by_one) / np.abs(one_by_one)) <= 1e-14
    grid_of_them = flow.h_tr(scattered.reshape(5, 7))
    assert grid_of_them.shape == (5, 7)
    assert np.array_equal(grid_of_them.ravel(), flow.h_tr(scattered))


def test_h_tr_quadrature_stops_at_the_rounding_of_a_near_its_floor():
    # next to the floor lambda + 2*Gamma cancels to 1e-9 of lambda, so 1/a
    # carries rounding far above 1e-14 relative; the halving must stop there
    model = TabulatedVorticity([[0.0, 0.4], [1.0, -0.3], [2.5, 0.1], [4.0, 0.0]])
    flow = ShearFlow(model, lam=-2.0 * model.gamma_inf_bound() * (1.0 + 1e-9), g=G)
    vals = flow.h_tr(-np.linspace(0.0, 40.0, 41)[::-1])
    assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, 0.5])
def test_h_tr_quadrature_rejects_p_off_the_half_line(bad):
    flow = ShearFlow(GerstnerVorticity(m=0.5), lam=4.0, g=G)
    with pytest.raises(DomainError):
        flow.h_tr(np.array([-1.0, bad]))


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
    # leaves the flow as it found it
    models = (ExpDecayVorticity(0.5, 2.0), GerstnerVorticity(m=0.5),
              TabulatedVorticity([[0.0, 0.4], [1.0, 0.1], [2.0, 0.0]]))
    for model in models:
        flow = ShearFlow(model, lam=6.0, g=G)
        for p in (-1.0, -np.linspace(0.0, 40.0, 9), -3.0):
            flow.h_tr(p)
            assert vars(flow) == {"model": model, "lam": 6.0, "g": G}
