import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vorstokes.errors import DomainError
from vorstokes.vorticity import (
    ExpDecayVorticity,
    GerstnerVorticity,
    TabulatedVorticity,
    VorticityModel,
    ZeroVorticity,
    check_bifurcation_condition,
    model_from_config,
)

G = 9.81


def test_gamma_zero_kind():
    assert ZeroVorticity().gamma(1.7) == 0.0


def test_gamma_expdecay_analytic():
    model = ExpDecayVorticity(amplitude=1.0, rate=1.0)
    assert model.gamma(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_gamma_gerstner_m_zero_collapses():
    model = GerstnerVorticity(m=0.0)
    for r in (0.0, 0.3, 5.0):
        assert model.gamma(r) == 0.0


def test_gamma_rejects_negative_argument():
    with pytest.raises(DomainError):
        ZeroVorticity().gamma(-0.1)


def test_big_gamma_zero_kind():
    assert ZeroVorticity().big_gamma(-5.0) == 0.0


def test_big_gamma_expdecay_antiderivative_and_quadrature():
    model = ExpDecayVorticity(amplitude=1.0, rate=1.0)
    # closed form Gamma(p) = e^p - 1
    assert model.big_gamma(-1.0) == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-12)
    # independent quadrature oracle
    ref, _ = quad(lambda pp: model.gamma(-pp), 0.0, -1.0)
    assert model.big_gamma(-1.0) == pytest.approx(ref, rel=1e-10)


def test_big_gamma_expdecay_depth_limit():
    model = ExpDecayVorticity(amplitude=1.0, rate=1.0)
    assert model.gamma_total() == pytest.approx(-1.0, abs=1e-14)
    assert model.big_gamma(-60.0) == pytest.approx(-1.0, abs=1e-12)


def test_big_gamma_rejects_positive_argument():
    with pytest.raises(DomainError):
        ExpDecayVorticity().big_gamma(0.5)


def bounds(model):
    return model.gamma_inf_bound(), model.gamma_sup_bound(), model.gamma_total()


def test_gamma_bounds_zero():
    assert bounds(ZeroVorticity()) == (0.0, 0.0, 0.0)


def test_gamma_bounds_expdecay_positive_amplitude():
    inf, sup, total = bounds(ExpDecayVorticity(amplitude=1.0, rate=1.0))
    assert inf == pytest.approx(-1.0, abs=1e-10)
    assert sup == pytest.approx(0.0, abs=1e-10)
    assert total == pytest.approx(-1.0, abs=1e-12)


def test_gamma_bounds_expdecay_negative_amplitude():
    inf, sup, total = bounds(ExpDecayVorticity(amplitude=-1.0, rate=1.0))
    assert inf == pytest.approx(0.0, abs=1e-10)
    assert sup == pytest.approx(1.0, abs=1e-10)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bifurcation_condition_zero_vorticity():
    cond = check_bifurcation_condition(ZeroVorticity(), g=G, L=math.pi)
    assert cond.holds
    assert cond.margin == pytest.approx(G, abs=1e-12)
    assert cond.integral == pytest.approx(0.0, abs=1e-12)


def test_bifurcation_condition_expdecay_closed_form():
    # Gamma - Gamma_inf = e^p, so the integrand is
    # 2*(2 e^p)^(3/2) e^(2p) + (pi/L)^2 (2 e^p)^(1/2) e^(2p) with L = pi,
    # integrating to 2^(5/2)*2/7 + 2^(1/2)*2/5.
    expected = 2.0 ** 2.5 * 2.0 / 7.0 + math.sqrt(2.0) * 2.0 / 5.0
    cond = check_bifurcation_condition(ExpDecayVorticity(1.0, 1.0), g=G, L=math.pi)
    assert cond.holds
    assert cond.integral == pytest.approx(expected, rel=1e-7)
    assert cond.margin == pytest.approx(G - expected, rel=1e-6)


def test_bifurcation_condition_fails_for_large_amplitude():
    # The integral grows monotonically with |amplitude|; bisection on the
    # scale locates the crossing, beyond which the condition must fail.
    lo, hi = 1.0, 400.0
    assert check_bifurcation_condition(ExpDecayVorticity(lo, 1.0), G, math.pi).holds
    assert not check_bifurcation_condition(ExpDecayVorticity(hi, 1.0), G, math.pi).holds
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if check_bifurcation_condition(ExpDecayVorticity(mid, 1.0), G, math.pi).holds:
            lo = mid
        else:
            hi = mid
    assert not check_bifurcation_condition(ExpDecayVorticity(hi * 1.01, 1.0), G, math.pi).holds
    assert check_bifurcation_condition(ExpDecayVorticity(lo * 0.99, 1.0), G, math.pi).holds


def test_bifurcation_condition_monotone_under_scaling():
    # Scaling gamma by t in (0, 1] shrinks Gamma - Gamma_inf pointwise, so a
    # holding condition can never flip to failing as t decreases.
    base = 40.0
    previous_holds = False
    for t in np.linspace(1.0, 0.05, 12):
        holds = check_bifurcation_condition(ExpDecayVorticity(base * t, 1.0), G, math.pi).holds
        assert not (previous_holds and not holds)
        previous_holds = holds


def test_gamma_is_an_antiderivative_of_big_gamma():
    rng = np.random.default_rng(7)
    models = [
        ExpDecayVorticity(0.8, 1.3),
        GerstnerVorticity(m=0.5),
        TabulatedVorticity([[0.0, 0.4], [1.0, 0.1], [2.0, 0.02], [3.0, 0.0]]),
    ]
    h = 1e-5
    for model in models:
        p = -rng.uniform(h, 20.0, size=50)
        dgdp = (model.big_gamma(p + h) - model.big_gamma(p - h)) / (2.0 * h)
        target = model.gamma(-p)
        scale = np.maximum(np.abs(target), 1e-3)
        assert np.max(np.abs(dgdp - target) / scale) < 1e-6


def test_big_gamma_between_bounds_random_p():
    rng = np.random.default_rng(11)
    for model in (
        ExpDecayVorticity(1.0, 1.0),
        ExpDecayVorticity(-0.7, 2.0),
        GerstnerVorticity(m=0.7),
    ):
        p = -rng.uniform(0.0, 80.0, size=1000)
        g = model.big_gamma(p)
        assert np.all(g >= model.gamma_inf_bound() - 1e-10)
        assert np.all(g <= model.gamma_sup_bound() + 1e-10)


def test_gerstner_sign_pattern():
    model = GerstnerVorticity(m=0.5)
    r = np.linspace(0.0, 30.0, 200)
    assert np.all(model.gamma(r) < 0.0)
    assert np.all(model.gamma_prime(r) > 0.0)
    assert model.gamma_nonpos and model.gamma_prime_nonneg


def test_gerstner_gamma_total_closed_form():
    m = 0.5
    model = GerstnerVorticity(m=m)
    ref, _ = quad(model.gamma, 0.0, 60.0)
    assert model.gamma_total() == pytest.approx(-ref, rel=1e-10)
    assert model.gamma_total() == pytest.approx(-math.log1p(-m**2 * math.exp(-2.0)), rel=1e-12)


def test_gerstner_state_is_its_parameter():
    # evaluation leaves no cache behind, so one model serves concurrent solves
    model = GerstnerVorticity(m=0.5)
    model.big_gamma(-np.linspace(0.0, 30.0, 9))
    bounds(model)
    assert vars(model) == {"m": 0.5}


EXPDECAY_AMPLITUDES = (-20.0, -4.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 4.0, 20.0)
EXPDECAY_RATES = (1e-3, 0.3, 1.0, 5.0)
# m = 1e-170 is left out: m^2 underflows, so gamma is exactly zero in double
# precision and the model is irrotational (see the test below)
GERSTNER_MS = (0.0, 1e-160, 1e-8, 0.1, 0.5, 0.9, 0.999)

# parameter sets of every closed-form kind
CLOSED_FORM_PARAMS = {
    ZeroVorticity: [{}],
    ExpDecayVorticity: [{"amplitude": a, "rate": rate}
                        for a in EXPDECAY_AMPLITUDES for rate in EXPDECAY_RATES],
    GerstnerVorticity: [{"m": m} for m in GERSTNER_MS + (1e-170,)],
}


def traits(model):
    return (model.gamma_nonneg, model.gamma_nonpos, model.gamma_prime_nonneg,
            model.gamma_prime_nonpos, model.gamma_sup_value(), model.gamma_total())


def test_derived_traits_match_the_closed_forms():
    # expected values from each kind's own sign pattern and depth limit
    assert traits(ZeroVorticity()) == (True, True, True, True, 0.0, 0.0)
    for a in EXPDECAY_AMPLITUDES:
        for rate in EXPDECAY_RATES:
            expected = (a >= 0, a <= 0, a <= 0, a >= 0, max(0.0, a), -(a * rate))
            assert traits(ExpDecayVorticity(a, rate)) == expected, (a, rate)
    for m in GERSTNER_MS:
        expected = (m == 0, True, True, m == 0, 0.0,
                    -math.log1p(-m**2 * math.exp(-2.0)))
        assert traits(GerstnerVorticity(m)) == expected, m


def test_gerstner_with_an_underflowing_m_is_irrotational():
    model = GerstnerVorticity(1e-170)
    assert model.gamma(0.0) == 0.0
    assert traits(model) == (True, True, True, True, 0.0, 0.0)


def sampled_gamma_bounds(model):
    """inf and sup of Gamma over p <= 0 by search: grids of 1,025 to 32,769
    points out to the depth where Gamma meets its limit, until both settle
    to 1e-10, with the limit itself taken in."""
    total = model.gamma_total()
    depth = model.tail_depth()
    lo = hi = None
    for k in range(6):
        g = model.big_gamma(-np.linspace(0.0, depth, 1024 * 2**k + 1))
        new_lo, new_hi = min(float(np.min(g)), total), max(float(np.max(g)), total)
        settled = lo is not None and abs(new_lo - lo) < 1e-10 and abs(new_hi - hi) < 1e-10
        lo, hi = new_lo, new_hi
        if settled:
            break
    return lo, hi


def test_closed_form_gamma_bounds_equal_a_sampled_search():
    # a monotone gamma makes Gamma monotone from 0 to Gamma_total, so the
    # base class's min(0, Gamma_total) and max(0, Gamma_total) are exact
    for cls, sets in CLOSED_FORM_PARAMS.items():
        for params in sets:
            model = cls(**params)
            total = model.gamma_total()
            assert bounds(model) == (min(0.0, total), max(0.0, total), total), model
            assert bounds(model)[:2] == sampled_gamma_bounds(model), model


def test_tabulated_gamma_bounds_follow_a_sign_change():
    # gamma changes sign, so Gamma dips below both 0 and its depth limit and
    # the closed-form rule would miss the floor lambda > -2 inf Gamma
    model = TabulatedVorticity([[0.0, 0.4], [1.0, -0.3], [2.5, 0.0]])
    inf, sup, total = bounds(model)
    assert (inf, sup) == sampled_gamma_bounds(model)
    assert inf == pytest.approx(-0.0778, abs=5e-5)
    assert inf < min(0.0, total)
    assert sup == max(0.0, total)


def test_every_closed_form_kind_is_monotone_with_one_signed_slope():
    # the base class reads the sign traits and sup gamma off gamma(0), which
    # holds only for a gamma monotone in r; a kind that breaks this must
    # override the traits, as TabulatedVorticity does
    kinds = set(VorticityModel.__subclasses__()) - {TabulatedVorticity}
    assert kinds <= set(CLOSED_FORM_PARAMS), "give every closed-form kind parameter sets"
    for cls in kinds:
        for params in CLOSED_FORM_PARAMS[cls]:
            model = cls(**params)
            r = np.linspace(0.0, model.tail_depth(), 20001)
            g, gp = model.gamma(r), model.gamma_prime(r)
            assert np.all(np.diff(g) >= 0) or np.all(np.diff(g) <= 0), model
            assert np.all(gp >= 0) or np.all(gp <= 0), model
            assert model.gamma_nonneg == bool(np.all(g >= 0)), model
            assert model.gamma_nonpos == bool(np.all(g <= 0)), model
            assert model.gamma_prime_nonneg == bool(np.all(gp >= 0)), model
            assert model.gamma_prime_nonpos == bool(np.all(gp <= 0)), model


def test_gerstner_is_a_frozen_value():
    model = GerstnerVorticity(0.5)
    assert model == GerstnerVorticity(m=0.5)
    assert model != GerstnerVorticity(m=0.4)
    assert repr(model) == "GerstnerVorticity(m=0.5)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.m = 0.4


@pytest.mark.parametrize("m", [1.0, -0.1, math.nan, math.inf])
def test_gerstner_rejects_m_outside_its_range(m):
    with pytest.raises(DomainError, match="parameter m"):
        GerstnerVorticity(m)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["amplitude", "rate"])
def test_expdecay_rejects_a_non_finite_parameter(name, value):
    # used to pass, and the tail-depth search then reported a violated decay hypothesis
    with pytest.raises(DomainError, match=name):
        ExpDecayVorticity(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("index", [(1, 0), (1, 1), (0, 1)])
def test_tabulated_rejects_a_non_finite_knot(index, value):
    # used to raise scipy's bare ValueError
    knots = [[0.0, 0.4], [1.0, 0.1], [2.0, 0.0]]
    knots[index[0]][index[1]] = value
    with pytest.raises(DomainError, match="knots"):
        TabulatedVorticity(knots)
    with pytest.raises(DomainError, match="knots"):
        model_from_config({"kind": "tabulated", "knots": knots})


def test_tabulated_requires_terminal_zero():
    with pytest.raises(DomainError):
        TabulatedVorticity([[0.0, 1.0], [1.0, 0.5], [2.0, 0.3]])


def test_tabulated_clamps_beyond_last_knot():
    model = TabulatedVorticity([[0.0, 0.5], [1.0, 0.2], [2.0, 0.0]])
    assert model.gamma(5.0) == 0.0
    assert model.big_gamma(-10.0) == pytest.approx(model.big_gamma(-2.0), abs=1e-14)


def test_decay_envelope_expdecay():
    # |gamma(r)| r^(2+2*rho) must stay bounded (here rho = 1); exponential
    # decay makes the weighted tail collapse well before r = 60.
    model = ExpDecayVorticity(1.0, 1.0)
    r = np.linspace(15.0, 60.0, 50)
    weighted = np.abs(model.gamma(r)) * r ** 4.0
    assert np.all(weighted < 0.1)
    assert np.all(np.diff(weighted) < 0.0)


def test_config_block_builds_each_kind():
    knots = [[0.0, 0.1], [0.5, 0.05], [1.5, 0.0]]
    cases = [
        ({"kind": "zero"}, ZeroVorticity()),
        ({"kind": "expdecay", "amplitude": -0.3, "rate": 1.5}, ExpDecayVorticity(-0.3, 1.5)),
        ({"kind": "gerstner", "m": 0.4}, GerstnerVorticity(m=0.4)),
        ({"kind": "tabulated", "knots": knots}, TabulatedVorticity(knots)),
    ]
    r = np.linspace(0.0, 3.0, 17)
    for block, model in cases:
        built = model_from_config(block)
        assert type(built) is type(model)
        assert np.array_equal(built.gamma(r), model.gamma(r))


def test_config_rejects_unknown_kind():
    with pytest.raises(DomainError):
        model_from_config({"kind": "mystery"})
