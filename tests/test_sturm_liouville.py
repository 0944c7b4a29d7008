import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from vorstokes import sturm_liouville
from vorstokes.errors import BifurcationAbsentError, DomainError, NoDiscreteEigenvalue
from vorstokes.sturm_liouville import (
    BifurcationPoint,
    SLProblem,
    bracket_root,
    eigenfunction_decay_rate,
    find_bifurcation_point,
    fitted_tail_rate,
    lowest_eigenvalue,
    rayleigh_quotient,
)
from vorstokes.vorticity import (
    ExpDecayVorticity,
    GerstnerVorticity,
    TabulatedVorticity,
    ZeroVorticity,
)

G = 9.81
L = math.pi


def zero_prob(eps=0.0, **kw):
    return SLProblem(ZeroVorticity(), g=G, L=L, epsilon=eps, **kw)


def cubic_root_oracle(eps, g=G, half_period=L):
    """Independent root of eps*lam^3 + (pi/L)^2 lam^2 = g^2."""
    return brentq(
        lambda lam: eps * lam**3 + (math.pi / half_period) ** 2 * lam**2 - g**2,
        1e-6,
        100.0,
        xtol=1e-14,
    )


# -- Rayleigh quotient ---------------------------------------------------------


def test_rayleigh_quotient_exponential_trial():
    # For gamma = 0 and v = e^p the quotient is lam - 2 g / sqrt(lam).
    rq = rayleigh_quotient(zero_prob(), 4.0, lambda p: np.exp(p))
    assert rq == pytest.approx(4.0 - 2.0 * G / 2.0, rel=5e-3)


def test_rayleigh_quotient_epsilon_term():
    rq = rayleigh_quotient(zero_prob(eps=0.5), 4.0, lambda p: np.exp(p))
    assert rq == pytest.approx(4.0 * 1.5 - 2.0 * G / 2.0, rel=1e-2)


def test_rayleigh_quotient_of_eigenfunction_is_mu():
    prob = zero_prob(eps=0.01)
    bp = find_bifurcation_point(prob)
    fine = SLProblem(
        ZeroVorticity(), g=G, L=L, epsilon=0.01, n=2 * prob.n, depth=bp.p[0] * -1.0
    )
    rq = rayleigh_quotient(fine, bp.lambda_star, bp.phi)
    # the eigenvector is the raw-grid one at the extrapolated root, so the
    # self-consistency holds to the raw grid error, not the polished one
    assert rq == pytest.approx(-((math.pi / L) ** 2), rel=1e-4)


def test_rayleigh_quotient_rejects_zero_trial():
    prob = zero_prob()
    with pytest.raises(DomainError):
        rayleigh_quotient(prob, 4.0, np.zeros(prob.n))


def test_rayleigh_quotient_nondecreasing_in_epsilon():
    vals = [
        rayleigh_quotient(zero_prob(eps=e), 5.0, lambda p: np.exp(0.7 * p))
        for e in (0.0, 0.1, 0.3, 0.6, 0.9)
    ]
    assert np.all(np.diff(vals) > 0.0)


# -- lowest eigenvalue ---------------------------------------------------------


def test_lowest_eigenvalue_dispersion_point():
    # v = e^(kp) with lam^(3/2) k = g; at lam = gL/pi this gives mu = -(pi/L)^2.
    mu = lowest_eigenvalue(zero_prob(), G * L / math.pi)
    assert mu == pytest.approx(-((math.pi / L) ** 2), rel=1e-3)


def test_lowest_eigenvalue_closed_form_lambda4():
    # k = g / lam^(3/2) = 1.22625, mu = -lam k^2.
    mu = lowest_eigenvalue(zero_prob(), 4.0)
    assert mu == pytest.approx(-(G**2) / 16.0, rel=1e-2)


def test_lowest_eigenvalue_no_discrete_signal():
    # For large lam and eps near 1 the minimum exceeds the continuum floor.
    with pytest.raises(NoDiscreteEigenvalue):
        lowest_eigenvalue(zero_prob(eps=0.99), 90.0)


def test_lowest_eigenvalue_monotone_in_lambda():
    prob = zero_prob(eps=0.05)
    lams = np.linspace(3.0, 12.0, 20)
    mus = []
    for lam in lams:
        try:
            mus.append(lowest_eigenvalue(prob, lam))
        except NoDiscreteEigenvalue:
            mus.append(np.nan)
    mus = np.asarray(mus)
    neg = mus[~np.isnan(mus) & (mus < 0.0)]
    assert len(neg) > 5
    assert np.all(np.diff(neg) > 0.0)


# -- bifurcation point ---------------------------------------------------------


def test_bifurcation_point_irrotational_dispersion():
    bp = find_bifurcation_point(zero_prob())
    assert bp.lambda_star == pytest.approx(G * L / math.pi, rel=1e-6)


def test_bifurcation_point_shorter_period():
    bp = find_bifurcation_point(SLProblem(ZeroVorticity(), g=G, L=2.0, epsilon=0.0))
    assert bp.lambda_star == pytest.approx(2.0 * G / math.pi, rel=1e-6)


def test_bifurcation_point_regularized_cubic_root():
    bp = find_bifurcation_point(zero_prob(eps=0.01))
    assert bp.lambda_star == pytest.approx(cubic_root_oracle(0.01), rel=1e-6)


@pytest.mark.parametrize("g, half_period", [
    *itertools.product((0.01, 0.1, 1.0, G, 100.0), (0.1, 0.3, 1.0, L, 30.0)), (G, 10.0),
])
def test_bifurcation_point_is_scale_free_for_zero_vorticity(g, half_period):
    # lambda* = g L / pi at eps = 0 for any g and L: every offset, step and
    # tolerance of the search scales with g L / pi and the truncation depth
    # with the mode's decay length (an 8-unit depth floor left lambda* 62%
    # off at g = 0.01, L = 0.1)
    bp = find_bifurcation_point(SLProblem(ZeroVorticity(), g=g, L=half_period, epsilon=0.0))
    assert bp.lambda_star == pytest.approx(g * half_period / math.pi, rel=1e-9)


def similar_model(model, g, half_period):
    """``model`` (posed at g = G, L = pi) mapped to the similar problem at g, L.

    With l = L / pi, lambda scales like g l, gamma like (g / l)^(1/2), the
    stream-function variable like g^(1/2) l^(3/2) and epsilon like 1 / (g l^3).
    """
    ell = half_period / math.pi
    s_gamma = math.sqrt(g / (G * ell))
    s_r = math.sqrt(g / G) * ell**1.5
    if isinstance(model, ExpDecayVorticity):
        return ExpDecayVorticity(model.amplitude * s_gamma, model.rate * s_r)
    return TabulatedVorticity(model.knots * [s_r, s_gamma])


# GerstnerVorticity has no similar family: b(psi) = -1 - psi fixes the scale
# of psi, so m alone cannot follow a change of g or L
@pytest.mark.parametrize("model", [
    ExpDecayVorticity(1.0, 1.0),
    ExpDecayVorticity(-0.6, 1.4),
    TabulatedVorticity([[0.0, 0.4], [1.0, 0.1], [2.0, 0.02], [3.0, 0.0]]),
    TabulatedVorticity([[0.0, 0.4], [1.0, -0.3], [2.5, 0.0]]),
], ids=["expdecay+", "expdecay-", "tabulated", "tabulated-sign-change"])
@pytest.mark.parametrize("g, half_period, eps", [(1.0, 0.3, 0.0), (25.0, 7.0, 0.0),
                                                 (25.0, 7.0, 0.01)])
def test_bifurcation_point_is_scale_free_for_a_similar_model(model, g, half_period, eps):
    # lambda* / (g L / pi) is the same for a model and its image under the
    # similarity map, at the image of epsilon
    ell = half_period / math.pi
    base = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=eps))
    image = find_bifurcation_point(SLProblem(similar_model(model, g, half_period), g=g,
                                             L=half_period, epsilon=eps * G / (g * ell**3)))
    assert image.lambda_star / (g * ell) == pytest.approx(base.lambda_star / G, abs=1e-9)


def refined_lambda_star(model, g, half_period, lam):
    """Richardson root at eps = 0 on a grid resolving the surface layer and tail.

    The depth is sixty decay lengths of the mode near ``lam`` or the
    vorticity's tail depth, whichever is deeper, with sixty nodes per decay
    length or per surface-layer width lam^(3/2) / g, whichever is thinner.
    """
    k = (math.pi / half_period) / math.sqrt(lam + 2.0 * model.gamma_total())
    depth = max(60.0 / k, model.tail_depth())
    n = int(60.0 * depth / min(1.0 / k, lam**1.5 / g))
    coarse = SLProblem(model, g=g, L=half_period, n=n, depth=depth)
    fine = dataclasses.replace(coarse, n=2 * n)
    target = -((math.pi / half_period) ** 2)

    def f(x):
        return (4.0 * lowest_eigenvalue(fine, x) - lowest_eigenvalue(coarse, x)) / 3.0 - target

    return brentq(f, 0.98 * lam, 1.02 * lam, xtol=1e-14 * lam)


@pytest.mark.parametrize("model, g, half_period", [
    (GerstnerVorticity(m=0.5), G, 0.1),
    (ExpDecayVorticity(1.0, 1.0), 100.0, 0.1),
])
def test_bifurcation_point_matches_a_refined_solve_at_a_short_period(model, g, half_period):
    # the mode decays within hundredths of a unit here, far inside the
    # vorticity's tail depth, so the truncation depth must follow the mode
    lam = find_bifurcation_point(SLProblem(model, g=g, L=half_period)).lambda_star
    assert lam == pytest.approx(refined_lambda_star(model, g, half_period, lam), rel=1e-8)


def test_bracket_root_walks_to_a_sign_change():
    def f(x):
        return x - 3.0

    # up from below (steps 1, 2) and down from above (steps 1, 2, 4, 8)
    assert bracket_root(f, 0.0, 1.0, -10.0, 10.0) == (1.0, 3.0)
    assert bracket_root(f, 10.0, 1.0, -10.0, 10.0) == (-5.0, 3.0)
    # a bound cuts the walk short but keeps the bracket
    assert bracket_root(f, 10.0, 1.0, -2.0, 10.0) == (-2.0, 3.0)
    assert bracket_root(f, 0.0, 1.0, -10.0, 2.5) is None
    assert bracket_root(f, 4.0, 1.0, 3.5, 10.0) is None
    # a small first step still reaches a far root in few evaluations
    calls = []

    def steep(x):
        calls.append(x)
        return math.tanh(x - 50.0)

    a, b = bracket_root(steep, 0.0, 1e-3, 0.0, 1e3)
    assert len(calls) == 17  # x0 and 16 doubling steps
    assert steep(a) < 0.0 <= steep(b) and b - a < 50.0


def test_bifurcation_point_interval_membership():
    for model in (ExpDecayVorticity(1.0, 1.0), GerstnerVorticity(m=0.5)):
        bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=0.01))
        lo = -2.0 * model.gamma_inf_bound()
        hi = G * L / math.pi + abs(2.0 * model.gamma_inf_bound()) + 1.0
        assert lo < bp.lambda_star <= hi


def test_bifurcation_point_eigenfunction_positive():
    bp = find_bifurcation_point(zero_prob(eps=0.02))
    assert bp.phi[-1] == 1.0
    assert np.all(bp.phi[:-1] > 0.0)


def test_bifurcation_absent_for_hopeless_caps():
    # Restricting lambda_max below the root leaves no bracket.
    prob = SLProblem(ZeroVorticity(), g=G, L=L, epsilon=0.0, lambda_max=2.0)
    with pytest.raises(BifurcationAbsentError, match="up to lambda_max"):
        find_bifurcation_point(prob)


def test_bifurcation_absent_when_the_extrapolated_root_passes_lambda_max():
    # the coarse walk brackets a root below the cap; the finer grids move it
    # above, where the search stops on its bracket instead of iterating on
    prob = zero_prob(eps=0.01)
    lam = find_bifurcation_point(prob).lambda_star
    with pytest.raises(BifurcationAbsentError, match="extrapolated root"):
        find_bifurcation_point(dataclasses.replace(prob, lambda_max=lam - 1e-3))


def test_epsilon_convergence_first_order():
    lam0 = find_bifurcation_point(zero_prob()).lambda_star
    eps_list = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    errs = []
    for eps in eps_list:
        lam = find_bifurcation_point(zero_prob(eps=eps)).lambda_star
        # each regularized point matches the independent cubic-root oracle
        assert lam == pytest.approx(cubic_root_oracle(eps), rel=1e-6)
        errs.append(abs(lam - lam0))
    errs = np.asarray(errs)
    assert np.all(np.diff(errs) < 0.0)
    # first-order convergence: err <= C * eps with C near |dlam/deps| = lam0^2/2
    assert np.all(errs <= 1.1 * (lam0**2 / 2.0) * np.asarray(eps_list))
    # local order approaches one from below as eps -> 0
    local = np.log2(errs[:-1] / errs[1:])
    assert np.all(np.diff(local) > 0.0)
    assert local[-1] > 0.85


def test_grid_convergence_of_lambda():
    base = zero_prob(eps=0.01)
    refined = SLProblem(
        ZeroVorticity(), g=G, L=L, epsilon=0.01, n=2 * base.n, depth=base.depth * 1.5
    )
    la = find_bifurcation_point(base).lambda_star
    lb = find_bifurcation_point(refined).lambda_star
    assert abs(la - lb) < 1e-6


# -- decay rates ---------------------------------------------------------------


def test_decay_rate_bound_irrotational():
    bp = find_bifurcation_point(zero_prob())
    assert eigenfunction_decay_rate(bp, ZeroVorticity()) == pytest.approx(1.0 / 9.81, rel=1e-6)


def test_fitted_tail_rate_exceeds_bound():
    bp = find_bifurcation_point(zero_prob())
    fitted = fitted_tail_rate(bp.p, bp.phi)
    assert fitted == pytest.approx(math.pi / (L * math.sqrt(bp.lambda_star)), rel=1e-2)
    assert fitted >= eigenfunction_decay_rate(bp, ZeroVorticity()) - 1e-9


def test_decay_rate_degenerate_limit():
    # As lambda + 2*Gamma_inf -> 0+ with Gamma_sup > Gamma_inf the guaranteed
    # rate collapses to zero.
    model = ExpDecayVorticity(1.0, 1.0)  # Gamma_inf = -1, Gamma_sup = 0
    floor = -2.0 * model.gamma_inf_bound()
    rates = []
    for offset in (1e-2, 1e-6, 1e-10):
        bp = BifurcationPoint(
            epsilon=0.0,
            lambda_star=floor + offset,
            mu=-1.0,
            p=np.array([-1.0, 0.0]),
            phi=np.array([0.5, 1.0]),
            g=G,
            L=L,
        )
        rates.append(eigenfunction_decay_rate(bp, model))
    assert np.all(np.diff(rates) < 0.0)
    assert rates[-1] < 1e-4


def test_eigenfunction_decay_for_rotational_model():
    model = ExpDecayVorticity(1.0, 1.0)
    bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=0.01))
    fitted = fitted_tail_rate(bp.p, bp.phi)
    assert fitted >= eigenfunction_decay_rate(bp, model) - 1e-9


# lambda* of the bisection search that Newton's method replaced: Brent's
# method on eigenvalues from LAPACK's stebz, solved to 1e-10 g L / pi
BISECTION_LAMBDA_STAR = [
    (ZeroVorticity(), G, L, 0.1, 7.430444237293827),
    (ZeroVorticity(), G, L, 0.05, 8.253661211909042),
    (ZeroVorticity(), G, L, 0.025, 8.87476124977501),
    (ZeroVorticity(), G, L, 0.0125, 9.285870690816378),
    (ZeroVorticity(), G, L, 0.00625, 9.530273564077914),
    (GerstnerVorticity(m=0.5), G, L, 0.01, 9.32853174671455),
    (ExpDecayVorticity(-4.0, 1.0), G, L, 0.0, 5.493408186547263),
    (ExpDecayVorticity(-4.0, 1.0), 1.0, 0.3, 0.0, 0.0298479296918856),
    (ExpDecayVorticity(-11.5, 1.0), G, L, 0.0, 1.3487192191535822),
    (ExpDecayVorticity(20.0, 1.0), G, L, 0.0, 40.21987493005441),
]
DEFAULT_CASES = [case[:4] for case in BISECTION_LAMBDA_STAR[:6]]


def richardson_pair(prob, bp):
    """The two SLProblems whose extrapolation located ``bp``: n and 2n nodes to its depth."""
    n2 = bp.p.size
    fine = dataclasses.replace(prob, n=n2, depth=-bp.p[0] * n2 / (n2 - 1))
    return dataclasses.replace(fine, n=n2 // 2), fine


@pytest.mark.parametrize("model, g, half_period, eps, lam", BISECTION_LAMBDA_STAR)
def test_bifurcation_point_matches_the_bisection_search(model, g, half_period, eps, lam):
    bp = find_bifurcation_point(SLProblem(model, g=g, L=half_period, epsilon=eps))
    assert bp.lambda_star == pytest.approx(lam, rel=1e-9)


@pytest.mark.parametrize("model, g, half_period, eps", DEFAULT_CASES)
def test_bifurcation_point_is_the_richardson_root(model, g, half_period, eps):
    # a tight Brent root of the same extrapolation on the same grids
    prob = SLProblem(model, g=g, L=half_period, epsilon=eps)
    bp = find_bifurcation_point(prob)
    coarse, fine = richardson_pair(prob, bp)
    target = -((math.pi / half_period) ** 2)

    def f(x):
        return (4.0 * lowest_eigenvalue(fine, x) - lowest_eigenvalue(coarse, x)) / 3.0 - target

    lam = bp.lambda_star
    reference = brentq(f, lam * (1.0 - 1e-6), lam * (1.0 + 1e-6), xtol=1e-14 * lam)
    assert lam == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("model, g, half_period, eps", DEFAULT_CASES[::5])
def test_bifurcation_eigenfunction_is_the_finer_grids_lowest_mode(model, g, half_period, eps):
    # the Rayleigh quotient of Phi at lambda* is the 2n pencil's lowest
    # eigenvalue to the tolerance of LAPACK's bisection, eps |T|_1 of the
    # scaled tridiagonal T (about 4e-11 here)
    prob = SLProblem(model, g=g, L=half_period, epsilon=eps)
    bp = find_bifurcation_point(prob)
    _, fine = richardson_pair(prob, bp)
    d, e, _ = sturm_liouville._scaled_pencil(fine.forms(bp.lambda_star))
    tol = np.finfo(float).eps * (np.abs(d).max() + 2.0 * np.abs(e).max())
    mu = rayleigh_quotient(fine, bp.lambda_star, bp.phi)
    assert abs(mu - lowest_eigenvalue(fine, bp.lambda_star)) <= tol


@pytest.mark.parametrize("model, eps", [(ZeroVorticity(), 0.0),
                                        (GerstnerVorticity(m=0.5), 0.01)])
def test_bifurcation_solves_each_eigenproblem_once(model, eps, monkeypatch):
    real_value, real_pair = sturm_liouville._smallest_value, sturm_liouville._smallest_pair
    solved = []

    def recording_value(prob, lam, n=None):
        solved.append((id(prob), lam, n))
        return real_value(prob, lam, n)

    def recording_pair(prob, lam, n, last=None):
        solved.append((id(prob), lam, n))
        return real_pair(prob, lam, n, last)

    real_forms, formed = SLProblem.forms, []

    def counting_forms(self, lam, n=None):
        formed.append((id(self), lam, n))
        return real_forms(self, lam, n)

    monkeypatch.setattr(sturm_liouville, "_smallest_value", recording_value)
    monkeypatch.setattr(sturm_liouville, "_smallest_pair", recording_pair)
    monkeypatch.setattr(SLProblem, "forms", counting_forms)
    find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=eps))
    assert len(solved) == len(set(solved))
    # an eigenpair's pencil and its quotient read one build of the forms
    assert len(formed) == len(solved)


@pytest.mark.parametrize("model, eps, inverse_solves", [
    pytest.param(ZeroVorticity(), 0.0, 8, id="model0-0.0"),
    pytest.param(GerstnerVorticity(m=0.5), 0.01, 9, id="model1-0.01"),
    pytest.param(ExpDecayVorticity(-1.0, 1.0), 0.05, 12, id="model2-0.05"),
    pytest.param(ZeroVorticity(), 0.01, 9, id="default-0.01"),
])
def test_bifurcation_solves_for_one_eigenvector(model, eps, inverse_solves, monkeypatch):
    # LAPACK's bisection solves for the walk's eigenvalues and one
    # eigenvector; inverse iteration for every other eigenpair.  On the
    # default problem that is three coarse Newton steps and three
    # Richardson steps of two solves each.
    counts = dict.fromkeys(("eigvalsh_tridiagonal", "eigh_tridiagonal", "_inverse_iteration"), 0)

    def counting(name):
        real = getattr(sturm_liouville, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(sturm_liouville, name, counting(name))
    real_walk, walked = sturm_liouville.bracket_root, []

    def recording_walk(f, *args):
        return real_walk(lambda x: walked.append(x) or f(x), *args)

    monkeypatch.setattr(sturm_liouville, "bracket_root", recording_walk)
    find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=eps))
    assert counts["eigvalsh_tridiagonal"] == len(walked)
    assert counts["eigh_tridiagonal"] == 1
    assert counts["_inverse_iteration"] <= inverse_solves
