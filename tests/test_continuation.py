import logging
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from vorstokes import continuation
from vorstokes.continuation import (
    Caps,
    Termination,
    _bordered_newton,
    _branch_ip,
    _history_tangent,
    arclength_step,
    branch_tangent,
    classify_termination,
    continue_branch,
    epsilon_homotopy,
    factor_bordered,
    factor_modes,
    initial_nontrivial_guess,
    seed_tangent,
    solve_at_amplitude,
    solve_bordered,
    surface_mode_amplitude,
)
from vorstokes.errors import (
    AdmissibilityError,
    DomainError,
    NewtonDivergenceError,
    SingularJacobianError,
)
from vorstokes.strip_solver import StripGrid, StripOperator, WaveState, linear_strip_mode
from vorstokes.sturm_liouville import SLProblem, find_bifurcation_point
from vorstokes.vorticity import ZeroVorticity

G = 9.81
L = math.pi


def test_initial_guess_zero_amplitude_is_trivial(zero_setup):
    _, bp, op = zero_setup
    st = initial_nontrivial_guess(bp, op, 0.0)
    assert np.all(st.w == 0.0)
    assert st.lam == bp.lambda_star


@pytest.mark.parametrize("nq, np_", [(8, 8), (17, 9), (64, 40), (128, 401)])
def test_surface_mode_amplitude_is_the_mode_weights_row_sum(nq, np_):
    # it reads the surface row of _mode_weights without building the row
    grid = StripGrid(L=L, P=10.0, nq=nq, np=np_)
    rng = np.random.default_rng(nq)
    for _ in range(5):
        w = rng.standard_normal((np_, nq))
        expected = math.fsum(continuation._mode_weights(grid)[-nq:] * w[-1])
        assert surface_mode_amplitude(WaveState(5.0, 0.1, grid, w)) == expected


def test_initial_guess_matches_local_theory(zero_setup):
    _, bp, op = zero_setup
    s = 0.01
    st = initial_nontrivial_guess(bp, op, s)
    q = op.grid.q_nodes
    # surface trace is s cos(pi q / L) since phi is normalized at the surface
    assert np.allclose(st.w[-1], s * np.cos(math.pi * q / L), atol=1e-12)
    assert surface_mode_amplitude(st) == pytest.approx(s, rel=1e-10)
    # interior profile follows the eigenfunction, e^(k p) with the
    # regularized rate k^2 = eps + (pi/L)^2 / lambda
    k = math.sqrt(op.epsilon + (math.pi / L) ** 2 / bp.lambda_star)
    mid = op.grid.np // 2
    p_mid = op.grid.p_nodes[mid]
    assert st.w[mid, -1] == pytest.approx(s * math.exp(k * p_mid), rel=0.05)


def test_initial_guess_rejects_huge_amplitude(zero_setup):
    # the seed is built unchecked; the solve's first admissibility test rejects it
    _, bp, op = zero_setup
    with pytest.raises(AdmissibilityError):
        solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 50.0), 50.0)


def test_initial_guess_differentiates_nothing(zero_setup, derivative_passes):
    _, bp, op = zero_setup
    initial_nontrivial_guess(bp, op, 0.01)
    assert derivative_passes == []


def test_solve_at_amplitude_pins_coordinate_and_scales_quadratically(zero_setup):
    _, bp, op = zero_setup
    lam_d, phi_d = linear_strip_mode(op, bp.lambda_star)
    mode = phi_d[:, None] * np.cos(math.pi * op.grid.q_nodes / L)[None, :]

    remainders = {}
    for s in (0.01, 0.005):
        st = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, s), s, tol=1e-11)
        assert surface_mode_amplitude(st) == pytest.approx(s, abs=1e-10)
        assert st.lam > lam_d  # amplitude raises the parameter on this branch
        remainders[s] = float(np.max(np.abs(st.w - s * mode)))
    ratio = remainders[0.01] / remainders[0.005]
    assert 3.0 < ratio < 5.0


def test_negative_amplitude_gives_half_period_translate(zero_setup):
    # the sign flip is the half-period translate: reflection through -L/2
    _, bp, op = zero_setup
    for s in (0.01, 0.02, 0.03):
        plus = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, s), s,
                                  tol=1e-11)
        minus = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, -s), -s,
                                   tol=1e-11)
        assert np.allclose(minus.w, plus.w[:, ::-1], atol=1e-9)
        assert minus.lam == pytest.approx(plus.lam, abs=1e-9)


def test_first_arclength_step_follows_tangent(zero_setup):
    _, bp, op = zero_setup
    start = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.01), 0.01,
                               tol=1e-11)
    tangent = branch_tangent(op, op.evaluate(start), prev=seed_tangent(bp, op))
    gaps = {}
    for ds in (0.002, 0.001):
        stepped = arclength_step(op, start, tangent, ds, tol=1e-11).state
        predictor = start.w + ds * tangent[:-1].reshape(start.w.shape)
        gaps[ds] = float(np.max(np.abs(stepped.w - predictor)))
    assert 3.0 < gaps[0.002] / gaps[0.001] < 5.0


def test_toy_fold_traversal_with_bordered_solver():
    # x^2 + lambda = 0 has a fold at (0, 0); the plain derivative 2x is
    # singular there, while the bordered system remains solvable and the
    # trace continues onto the x < 0 side.  A sparse matrix has `tocsc`, so
    # it stands in for a linearization.
    def residual(x, lam):
        return np.array([x[0] ** 2 + lam])

    def jac(x):
        return sp.csc_matrix(np.array([[2.0 * x[0]]]))

    x, lam = np.array([1.0]), -1.0
    t_x, t_lam = np.array([-1.0]), 0.0  # descending x
    norm = math.sqrt(t_x[0] ** 2 + t_lam**2)
    t_x, t_lam = t_x / norm, t_lam / norm
    ds = 0.15
    xs, lams = [x[0]], [lam]
    min_abs_jac = math.inf
    for _ in range(20):
        x_pred, lam_pred = x + ds * t_x, lam + ds * t_lam
        xc, lc = x_pred.copy(), lam_pred
        for _ in range(30):
            r = residual(xc, lc)
            cons = t_x[0] * (xc[0] - x[0]) + t_lam * (lc - lam) - ds
            if max(abs(r[0]), abs(cons)) < 1e-12:
                break
            dx = solve_bordered(factor_bordered(jac(xc), np.array([1.0]), t_x, t_lam),
                                -np.append(r, cons))
            xc = xc + dx[:-1]
            lc = lc + dx[-1]
        min_abs_jac = min(min_abs_jac, abs(2.0 * xc[0]))
        # new tangent through the bordered system
        t = solve_bordered(factor_bordered(jac(xc), np.array([1.0]), t_x, t_lam),
                           np.array([0.0, 1.0]))
        t = t / math.sqrt(t[0] ** 2 + t[1] ** 2)
        t_x, t_lam = t[:-1], t[-1]
        x, lam = xc, lc
        xs.append(x[0])
        lams.append(lam)
    assert min(xs) < -0.3          # crossed the fold onto the lower sheet
    assert max(lams) > -0.01       # passed within a step of the fold apex
    assert min_abs_jac < 0.2       # the plain derivative did degenerate
    assert max(lams) < 1e-9        # never into the solution-free lambda > 0 side


def test_branch_lambda_monotone_before_any_fold(zero_branch):
    lams = [st.lam for st in zero_branch.points]
    assert np.all(np.diff(lams) > 0.0)


def test_branch_amplitudes_increase(zero_branch):
    s_vals = [surface_mode_amplitude(st) for st in zero_branch.points]
    assert np.all(np.diff(s_vals) > 0.0)
    assert s_vals[0] == pytest.approx(0.005, abs=1e-9)


def test_classify_termination_running_for_generous_caps(zero_setup):
    _, bp, op = zero_setup
    st = WaveState(bp.lambda_star, op.epsilon, op.grid,
                   np.zeros((op.grid.np, op.grid.nq)))
    caps = Caps.default(G, L)
    assert classify_termination(op.evaluate(st), caps) is Termination.RUNNING


def test_classify_termination_lambda_blowup(zero_setup):
    _, bp, op = zero_setup
    st = WaveState(bp.lambda_star, op.epsilon, op.grid,
                   np.zeros((op.grid.np, op.grid.nq)))
    caps = Caps(lambda_cap=bp.lambda_star * 0.5)
    assert classify_termination(op.evaluate(st), caps) is Termination.LAMBDA_BLOWUP


def test_classify_termination_stagnation_clause(zero_setup):
    _, bp, op = zero_setup
    grid = op.grid
    w = np.zeros((grid.np, grid.nq))
    # pull wp down to -a^-1 + delta/2 at the crest column
    ainv_top = 1.0 / math.sqrt(bp.lambda_star)
    w[-1, -1] = 0.0
    w[-2, -1] = (ainv_top - 0.5 * op.delta) * (2 * grid.dp) / 4.0 * 4.0
    st = WaveState(bp.lambda_star, op.epsilon, grid, w)
    term = classify_termination(op.evaluate(st), Caps.default(G, L))
    assert term in (Termination.STAGNATION_CLAUSE, Termination.SUP_WP_BLOWUP)
    assert term is Termination.STAGNATION_CLAUSE


def test_classify_termination_surface_clause(zero_setup):
    _, bp, op = zero_setup
    lam = bp.lambda_star
    w = np.zeros((op.grid.np, op.grid.nq))
    w[-1] = (2.0 * lam - op.delta) / (4.0 * G) + 1e-9
    st = WaveState(lam, op.epsilon, op.grid, w)
    assert classify_termination(op.evaluate(st), Caps.default(G, L)) is Termination.SURFACE_CLAUSE


def test_classify_termination_lambda_floor(zero_setup):
    _, _, op = zero_setup
    st = WaveState(0.5 * op.delta, op.epsilon, op.grid,
                   np.zeros((op.grid.np, op.grid.nq)))
    assert classify_termination(op.evaluate(st), Caps.default(G, L)) is Termination.LAMBDA_FLOOR


def test_homotopy_cauchy_differences_decrease(zero_homotopy):
    res = zero_homotopy
    assert res.failure_index == -1
    assert len(res.sup_diffs) == 4
    assert np.all(np.diff(res.sup_diffs) < 0.0)


def test_homotopy_lambda_first_order_in_epsilon(zero_homotopy):
    res = zero_homotopy
    lams = np.asarray(res.lambdas)
    # lambda(eps) at fixed amplitude converges like lambda(0) + c*eps +
    # O(eps^2); along the geometric schedule the increments contract with
    # ratios climbing toward 2 from below (the quadratic term is still
    # visible at eps = 0.1)
    incs = np.abs(np.diff(lams))
    assert np.all(np.diff(incs) < 0.0)
    ratios = incs[:-1] / incs[1:]
    assert np.all(np.diff(ratios) > 0.0)
    assert ratios[-1] > 1.6
    assert np.all(ratios < 2.4)


def test_homotopy_rejects_a_zero_target(zero_setup):
    # like a branch, a homotopy cannot follow the trivial solution
    model, bp, op = zero_setup
    with pytest.raises(DomainError, match="target_s = 0"):
        epsilon_homotopy(model, G, initial_nontrivial_guess(bp, op, 0.0), [0.1, 0.05],
                         target_s=0.0)


def test_homotopy_rejects_bad_schedule(zero_setup):
    model, bp, op = zero_setup
    start = initial_nontrivial_guess(bp, op, 0.01)
    with pytest.raises(DomainError):
        epsilon_homotopy(model, G, start, [0.05, 0.1], target_s=0.01)
    with pytest.raises(DomainError):
        epsilon_homotopy(model, G, start, [1.2, 0.5], target_s=0.01)


def test_homotopy_from_a_solved_state_keeps_its_first_entry(small_zero, caplog):
    # a start already solved at the first epsilon converges without an update
    bp, op = small_zero
    start = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="vorstokes"):
        res = epsilon_homotopy(op.model, G, start, [op.epsilon], target_s=0.004)
    assert res.failure_index == -1
    assert res.lambdas == [start.lam]
    assert not any("amplitude-constrained solve update" in rec.getMessage()
                   for rec in caplog.records)


def test_every_accepted_point_strictly_admissible(zero_branch, zero_setup):
    # all six admissibility/cap clauses hold strictly at accepted points
    _, _, op = zero_setup
    caps = Caps.default(G, L)
    for st in zero_branch.points:
        ev = op.evaluate(st)
        assert op.is_admissible(ev)
        assert classify_termination(ev, caps) is Termination.RUNNING


def test_homotopy_stability_under_epsilon_halving(zero_homotopy, zero_setup, caplog):
    # re-solving a branch point with half the regularization converges in at
    # most ten Newton corrections at the same amplitude
    model, _, op0 = zero_setup
    from vorstokes.strip_solver import StripOperator

    state = zero_homotopy.states[-1]
    eps_half = zero_homotopy.epsilons[-1] / 2.0
    op = StripOperator(model, G, op0.grid, epsilon=eps_half)
    seed = WaveState(lam=state.lam, epsilon=eps_half, grid=op0.grid,
                     w=state.w.copy())
    with caplog.at_level(logging.DEBUG, logger="vorstokes"):
        resolved = solve_at_amplitude(op, seed, 0.02, tol=1e-11)
    updates = [rec for rec in caplog.records
               if rec.getMessage().startswith("amplitude-constrained solve update")]
    assert 0 < len(updates) <= 10
    assert surface_mode_amplitude(resolved) == pytest.approx(0.02, abs=1e-10)


def test_branch_records_have_consistent_wave_speed(zero_branch, zero_setup):
    model = zero_setup[0]
    for row in zero_branch.record_rows():
        assert row["c"] ** 2 == pytest.approx(row["lambda"] + 2.0 * model.gamma_total(),
                                              rel=1e-12)


SMALL_GRID = StripGrid(L=L, P=4 * L, nq=16, np=48)


def test_step_floor_termination_names_the_cause(monkeypatch):
    model = ZeroVorticity()
    bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=0.01))
    op = StripOperator(model, G, SMALL_GRID, epsilon=0.01)
    real_step = continuation.arclength_step

    # the first point converges; every corrector after it chases an
    # unreachable tolerance until the step halving hits its floor
    def unreachable(op, state, tangent, ds, tol, **kwargs):
        return real_step(op, state, tangent, ds, tol=1e-300, **kwargs)

    monkeypatch.setattr(continuation, "arclength_step", unreachable)
    branch = continue_branch(op, bp, steps=3, ds=0.004)
    assert branch.termination is Termination.STEP_FLOOR
    assert branch.termination.value == "StepFloor"
    assert len(branch.points) == 1
    assert "NewtonDivergenceError" in branch.diagnostics
    assert "arclength corrector did not reach tol" in branch.diagnostics


def test_failed_damping_names_the_admissibility_clause():
    # a border that pins lambda far below the critical floor (delta for
    # gamma = 0): every damped candidate, down to alpha = 2^-29, leaves O_delta
    op = StripOperator(ZeroVorticity(), G, SMALL_GRID, epsilon=0.01)
    state = WaveState(op.delta + 1e-12, op.epsilon, op.grid,
                      np.zeros((op.grid.np, op.grid.nq)))
    border = (np.zeros(state.w.size), 1.0, lambda cur: cur.lam + 1.0)
    with pytest.raises(AdmissibilityError) as err:
        _bordered_newton(op, state, border, 1e-10, 5, "pinned solve")
    assert err.value.clause == "lambda must exceed the critical floor plus delta"


@pytest.fixture(scope="module")
def small_zero():
    """(bifurcation point, operator) for gamma = 0 on SMALL_GRID."""
    model = ZeroVorticity()
    bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=0.01))
    return bp, StripOperator(model, G, SMALL_GRID, epsilon=0.01)


def test_step_floor_on_admissibility_reports_the_clause(small_zero, monkeypatch):
    # every corrector after the first point raises the error check_admissible
    # gives for a state above the surface cap
    bp, op = small_zero

    def above_cap(op, state, tangent, ds, tol, **kwargs):
        w = state.w.copy()
        w[-1] = (2.0 * state.lam) / (4.0 * G)
        op.check_admissible(op.evaluate(state.copy_with(w=w)))

    monkeypatch.setattr(continuation, "arclength_step", above_cap)
    branch = continue_branch(op, bp, steps=3, ds=0.004)
    assert branch.termination is Termination.SURFACE_CLAUSE
    assert len(branch.points) == 1
    assert branch.diagnostics.startswith("step floor reached: AdmissibilityError: ")
    assert "surface clause" in branch.diagnostics


def test_branch_at_its_step_budget_reports_max_steps(small_zero):
    bp, op = small_zero
    branch = continue_branch(op, bp, steps=3, ds=0.004)
    assert len(branch.points) == 3
    assert branch.termination is Termination.MAX_STEPS
    assert {row["termination"] for row in branch.record_rows()} == {"MaxSteps"}


def test_step_size_regrows_after_a_halving(small_zero, monkeypatch):
    bp, op = small_zero
    real_step = continuation.arclength_step
    requested = []

    def fail_once(op, state, tangent, ds, tol, **kwargs):
        requested.append(ds)
        if len(requested) == 1:
            raise NewtonDivergenceError("forced failure", iterations=0)
        return real_step(op, state, tangent, ds, tol=tol, **kwargs)

    monkeypatch.setattr(continuation, "arclength_step", fail_once)
    branch = continue_branch(op, bp, steps=4, ds=0.004)
    assert len(branch.points) == 4
    assert requested == [0.004, 0.002, 0.004, 0.004]


def test_each_branch_trims_the_heap_once_however_it_ends(small_zero, monkeypatch):
    bp, op = small_zero
    pads = []
    monkeypatch.setattr(continuation, "_MALLOC_TRIM", pads.append)
    assert len(continue_branch(op, bp, steps=2, ds=0.004).points) == 2
    assert pads == [0]

    def diverge(*args, **kwargs):
        raise NewtonDivergenceError("forced failure", iterations=0)

    monkeypatch.setattr(continuation, "solve_at_amplitude", diverge)
    with pytest.raises(NewtonDivergenceError):
        continue_branch(op, bp, steps=2, ds=0.004)
    assert pads == [0, 0]
    # an argument check raises before any work, and trims nothing
    with pytest.raises(DomainError):
        continue_branch(op, bp, steps=0, ds=0.004)
    assert pads == [0, 0]


def test_heap_trim_without_a_c_trim_is_a_no_op(monkeypatch):
    monkeypatch.setattr(continuation, "_MALLOC_TRIM", None)
    continuation._release_free_heap()


def test_solve_bordered_matches_dense_solve(small_zero):
    # the bordered matrices here have condition numbers 1e5-2e7, so two
    # correct solvers agree to cond * eps, not to 1e-12; the 1e-12 is on the
    # relative residual, which a dense solve meets as well
    bp, op = small_zero
    state = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    state = state.copy_with(w=1.01 * state.w)  # off the solution set: r != 0
    n = state.w.size
    ev = op.evaluate(state)
    r, lin, f_lam = op.residual_vector(ev), op.jacobian(ev), op.d_residual_d_lambda(ev)
    t = branch_tangent(op, ev, prev=seed_tangent(bp, op))
    for name, c_row, c_lam, rhs in _borders(op.grid, t, r):
        M = _dense_bordered(lin.tocsc(), f_lam, c_row, c_lam)
        cond = np.linalg.cond(M)
        assert cond < 1e8, name  # a singular M would meet both bounds below
        dense = np.linalg.solve(M, rhs)
        sol = solve_bordered(factor_bordered(lin, f_lam, c_row, c_lam), rhs)
        assert sol.shape == dense.shape == (n + 1,), name
        for x in (sol, dense):
            assert _backward_error(M, x, rhs) <= 1e-12, name
        forward = np.max(np.abs(sol - dense)) / np.max(np.abs(dense))
        assert forward <= 1e-15 * cond, name


def _borders(grid, t, r):
    """(name, c_row, c_lam, stacked right side) of the tangent, amplitude and lambda-pin rows."""
    n = r.size
    return [("tangent", t[:-1] / n, t[-1], np.append(-r, 0.3)),
            ("tangent", t[:-1] / n, t[-1], np.append(np.zeros(n), 1.0)),
            ("amplitude", continuation._mode_weights(grid), 0.0, np.append(-r, 1e-4)),
            ("lambda pin", np.zeros(n), 1.0, np.append(-r, 0.0))]


def _dense_bordered(J, f_lam, c_row, c_lam):
    n = f_lam.size
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = J.toarray()
    M[:n, n] = f_lam
    M[n, :n] = c_row
    M[n, n] = c_lam
    return M


def _backward_error(M, x, rhs):
    m_norm = np.max(np.sum(np.abs(M), axis=1))
    return np.max(np.abs(M @ x - rhs)) / (m_norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))


def test_p_apply_at_the_trivial_state_is_a_dense_solve(small_zero):
    # at w = 0 P is J, so one P apply (the cosine maps, the transposed border
    # row, the stacked border entry) solves the exact bordered system; GMRES
    # would hide a small error in any of them.  dF/dlambda vanishes at w = 0,
    # so the bordered matrices take it, the tangent and the residual from a
    # branch point (condition numbers 1e5-1e7)
    bp, op = small_zero
    state = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    ev = op.evaluate(state)
    t = branch_tangent(op, ev, prev=seed_tangent(bp, op))
    r = op.residual_vector(op.evaluate(state.copy_with(w=1.01 * state.w)))
    lin = op.jacobian(op.evaluate(state.copy_with(w=np.zeros_like(state.w))))
    f_lam = op.d_residual_d_lambda(ev)
    for name, c_row, c_lam, rhs in _borders(op.grid, t, r):
        M = _dense_bordered(lin.tocsc(), f_lam, c_row, c_lam)
        assert np.linalg.cond(M) < 1e8, name  # a singular M would meet the bound below
        for factor in (factor_modes, factor_bordered):
            sol = solve_bordered(factor(lin, f_lam, c_row, c_lam), rhs)
            assert sol.shape == (state.w.size + 1,), name
            assert _backward_error(M, sol, rhs) <= 1e-12, (name, factor.__name__)


def test_solve_bordered_with_exactly_singular_jacobian():
    # the toy fold x^2 + lambda = 0 at its apex: J = [[0]], the border makes
    # the extended matrix a permutation
    for J in (sp.csc_matrix(np.array([[0.0]])),
              sp.csc_matrix(([0.0], [0], [0, 1]), shape=(1, 1))):
        x = solve_bordered(factor_bordered(J, np.array([1.0]), np.array([1.0]), 0.0),
                           np.array([0.25, -0.5]))
        assert x == pytest.approx([-0.5, 0.25])


def test_a_zero_border_row_raises_singular_jacobian_error(small_zero):
    # a zero border row (c_row = 0, c_lam = 0) makes both bordered matrices
    # singular; SuperLU's own failure surfaces as SingularJacobianError
    bp, op = small_zero
    ev = op.evaluate(initial_nontrivial_guess(bp, op, 0.004))
    lin, f_lam = op.jacobian(ev), op.d_residual_d_lambda(ev)
    zero = np.zeros(f_lam.size)
    for factor in (factor_bordered, factor_modes):
        with pytest.raises(SingularJacobianError) as info:
            factor(lin, f_lam, zero, 0.0)
        assert str(info.value).startswith("bordered factorization failed"), factor.__name__


def _singular_p(monkeypatch):
    """Make every P factorization raise, so each solve takes the exact-LU path."""
    def singular(*args):
        raise SingularJacobianError("bordered factorization failed: P forced singular")

    monkeypatch.setattr(continuation, "factor_modes", singular)


def test_each_exact_fallback_is_one_mmd_factorization(small_zero, monkeypatch):
    # nothing is cached between fallbacks: each factors the bordered J once,
    # in SuperLU's own MMD order, on every grid shape alike
    bp, op = small_zero
    _singular_p(monkeypatch)
    real_splu, real_factor = continuation.splu, continuation.factor_bordered
    specs, fallbacks = [], []

    def counting_splu(A, permc_spec=None, **kwargs):
        # splu sorts the row indices of a non-canonical matrix in place, which
        # once scrambled a later factorization that shared the index arrays
        assert A.has_canonical_format
        specs.append(permc_spec)
        return real_splu(A, permc_spec=permc_spec, **kwargs)

    def counting_factor(*args):
        fallbacks.append(len(specs))
        factor = real_factor(*args)
        assert len(specs) == fallbacks[-1] + 1
        return factor

    monkeypatch.setattr(continuation, "splu", counting_splu)
    monkeypatch.setattr(continuation, "factor_bordered", counting_factor)
    other = StripOperator(ZeroVorticity(), G, StripGrid(L=L, P=4 * L, nq=12, np=40),
                          epsilon=0.01)
    for strip in (op, other, op):
        before = len(specs)
        assert len(continue_branch(strip, bp, steps=3, ds=0.004).points) == 3
        assert len(specs) > before
    assert len(fallbacks) == len(specs)
    assert specs == ["MMD_AT_PLUS_A"] * len(specs)


def test_history_tangent_is_exact_on_a_parabola():
    # x(tau) = a + b tau + c tau^2 with b.c = -2.5 |c|^2 in the branch metric:
    # its chord lengths from tau = 0, 1, 3 are h and 2 h, so chord length is
    # affine in tau, and the quadratic through the three points is x itself
    rng = np.random.default_rng(11)
    n = 64
    a = np.append(rng.standard_normal(n), 9.4)
    c = np.append(rng.standard_normal(n), 0.3)
    c_norm2 = _branch_ip(c, c)
    b = rng.standard_normal(n + 1)
    b = b - (_branch_ip(b, c) + 2.5 * c_norm2) / c_norm2 * c
    grid = StripGrid(L=L, P=4 * L, nq=8, np=8)

    def point(tau):
        x = a + b * tau + c * tau**2
        return WaveState(x[-1], 0.01, grid, x[:-1].reshape(8, 8))

    points = [point(tau) for tau in (0.0, 1.0, 3.0)]
    gaps = [continuation._norm(continuation._chord(x, y)) for x, y in zip(points, points[1:])]
    assert gaps[1] == pytest.approx(2.0 * gaps[0], rel=1e-12)
    t = _history_tangent(points, None)
    assert _branch_ip(t, t) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(t - continuation._unit(b + 6.0 * c))) <= 1e-12
    # two points and the slope at the first, dx/dh = b / h at tau = 0 with
    # chord length h = h1 tau, give the quadratic's derivative at the second
    t = _history_tangent(points[:2], b / gaps[0])
    assert np.max(np.abs(t - continuation._unit(b + 2.0 * c))) <= 1e-12


@pytest.mark.parametrize("ds", [0.004, 0.03])
def test_history_tangent_matches_the_solved_tangent(small_zero, ds):
    # from the second point on, the quadratic through the last three points,
    # or through two with the first point's solved slope, is within 0.99 in
    # branch-norm cosine of the tangent solved there
    bp, op = small_zero
    branch = continue_branch(op, bp, steps=6, ds=ds)
    assert len(branch.points) == 6
    first_tangent = branch_tangent(op, op.evaluate(branch.points[0]), prev=seed_tangent(bp, op))
    for k in range(2, 7):
        history = _history_tangent(branch.points[:k], first_tangent)
        solved = branch_tangent(op, op.evaluate(branch.points[k - 1]), prev=history)
        assert _branch_ip(history, solved) >= 0.99


def test_a_branch_solves_only_its_first_tangent(small_zero, monkeypatch):
    bp, op = small_zero
    real_tangent, real_solve = continuation.branch_tangent, continuation.solve_bordered
    tangents, solves = [], []

    def counting_tangent(*args, **kwargs):
        tangents.append(1)
        return real_tangent(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(continuation, "branch_tangent", counting_tangent)
    monkeypatch.setattr(continuation, "solve_bordered", counting_solve)
    branch = continue_branch(op, bp, steps=6, ds=0.004)
    assert len(branch.points) == 6
    assert len(tangents) == 1
    # the correctors' chords and GMRES iterations on P, and one GMRES tangent;
    # 83 while a carried P kept the border of the solve that built it, 86 while
    # each step's first update was a chord on the factor carried from the step
    # before; on the exact LU it was 87, with a solved tangent per step 115
    assert len(solves) == 71


@pytest.mark.parametrize("ds", [0.004, 0.002, 0.00075, 0.03, 0.08])
def test_step_tangent_is_unit_and_keeps_the_orientation(small_zero, ds):
    # two steps, each predicted along the history tangent of the points so far
    bp, op = small_zero
    first = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    points = [first]
    first_tangent = tangent = branch_tangent(op, op.evaluate(first), prev=seed_tangent(bp, op))
    for _ in range(2):
        state = arclength_step(op, points[-1], tangent, ds).state
        secant = continuation._chord(points[-1], state)
        points.append(state)
        t = _history_tangent(points, first_tangent)
        assert _branch_ip(t, t) == pytest.approx(1.0, rel=1e-12)
        assert _branch_ip(t, tangent) > 0.0
        assert _branch_ip(t, secant) > 0.0
        tangent = t


@pytest.mark.parametrize("ds, s0", [(0.0, 0.004), (-0.004, 0.004), (0.004, 0.0)])
def test_continue_branch_rejects_a_nonpositive_step_or_trivial_start(small_zero, ds, s0):
    bp, op = small_zero
    with pytest.raises(DomainError):
        continue_branch(op, bp, steps=3, ds=ds, s0=s0)


def test_homotopy_failure_names_its_cause(small_zero, monkeypatch):
    bp, op = small_zero
    calls = []

    # the first entry converges at once; the second diverges
    def solve(op, seed, s_target, tol, **kwargs):
        calls.append(op.epsilon)
        if len(calls) == 2:
            raise NewtonDivergenceError("corrector stalled", residual=1.0, iterations=3)
        return seed

    monkeypatch.setattr(continuation, "solve_at_amplitude", solve)
    start = initial_nontrivial_guess(bp, op, 0.004)
    res = epsilon_homotopy(op.model, G, start, [0.1, 0.05, 0.025], target_s=0.004)
    assert res.failure_index == 1
    assert res.diagnostics.startswith("NewtonDivergenceError: corrector stalled")
    assert len(res.states) == 1 and res.lambdas == [bp.lambda_star]
    assert epsilon_homotopy(op.model, G, start, [0.1], target_s=0.004).diagnostics == ""


def test_chord_corrector_refactors_only_when_it_stalls(small_zero, monkeypatch):
    bp, op = small_zero
    first = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    tangent = branch_tangent(op, op.evaluate(first), prev=seed_tangent(bp, op))
    real_splu = continuation.splu
    factored = []

    def counting_splu(A, permc_spec=None, **kwargs):
        factored.append(permc_spec)
        return real_splu(A, permc_spec=permc_spec, **kwargs)

    real_newton = continuation._bordered_newton
    real_solve = continuation.solve_bordered
    updates, solves, jacobians = [], [], []

    def recording_newton(*args, **kwargs):
        result = real_newton(*args, **kwargs)
        updates.append(result[1])
        return result

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    def counting_jacobian(ev):
        jacobians.append(1)
        return StripOperator.jacobian(op, ev)

    monkeypatch.setattr(continuation, "splu", counting_splu)
    monkeypatch.setattr(continuation, "_bordered_newton", recording_newton)
    monkeypatch.setattr(continuation, "solve_bordered", counting_solve)
    monkeypatch.setattr(op, "jacobian", counting_jacobian)
    # a smooth step: one P serves the whole corrector; its chord contracts
    # the residual less than twice, so GMRES on the same P takes over: 4
    # updates, 1 chord apply and 10 GMRES applies (5 + 2 + 3), no tangent
    arclength_step(op, first, tangent, 0.004)
    assert factored.count("NATURAL") == 1
    assert len(jacobians) == 1
    assert updates[0] == 4 and len(solves) == 11
    # long steps: GMRES goes on on the same factor instead of factoring
    # again, and still reaches tol.  At ds = 0.08 GMRES on the fresh P misses
    # the first update's forcing term in KRYLOV_MAX iterations, so that
    # update factors the exact LU, in MMD order, from the same linearization
    for ds, orders in ((0.03, ["NATURAL"]), (0.08, ["NATURAL", "MMD_AT_PLUS_A"])):
        factored.clear()
        jacobians.clear()
        state = arclength_step(op, first, tangent, ds, tol=1e-10).state
        assert factored == orders
        assert len(jacobians) == 1
        assert op.residual_norm(state) <= 1e-10


def test_each_iterate_is_differentiated_once(small_zero, derivative_passes):
    # one evaluation per iterate feeds its residual, its O_delta test, J v,
    # dF/dlambda and J; J v reads that evaluation's table of J's entries and
    # differentiates nothing, so every pass is of a new iterate and no field
    # reaches derivative_fields twice within one solve
    bp, op = small_zero
    carry = continuation.LUSlot()
    first = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004, carry=carry)
    tangent = branch_tangent(op, op.evaluate(first), prev=seed_tangent(bp, op), carry=carry)
    seed = initial_nontrivial_guess(bp, op, 0.006)
    seen = derivative_passes
    solves = [lambda: solve_at_amplitude(op, seed, 0.006)]
    # a chord step on the carried LU, then long steps that go on by GMRES
    solves += [lambda ds=ds: arclength_step(op, first, tangent, ds, carry=carry)
               for ds in (0.004, 0.03, 0.08)]
    for solve in solves:
        seen.clear()
        solve()
        assert len(seen) > 1
        assert len(set(seen)) == len(seen)


def _counting_splu(monkeypatch):
    real_splu = continuation.splu
    specs = []

    def counting_splu(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return real_splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(continuation, "splu", counting_splu)
    return specs


def test_a_step_that_lands_too_far_is_halved(small_zero, monkeypatch):
    bp, op = small_zero
    real_step = continuation.arclength_step
    requested = []

    # the first step lands 10 step lengths away, beyond the gap bound
    def far_once(op, state, tangent, ds, tol, **kwargs):
        requested.append(ds)
        if len(requested) == 1:
            return op.evaluate(state.copy_with(lam=state.lam + 10.0 * ds))
        return real_step(op, state, tangent, ds, tol=tol, **kwargs)

    monkeypatch.setattr(continuation, "arclength_step", far_once)
    branch = continue_branch(op, bp, steps=3, ds=0.004)
    assert branch.termination is Termination.MAX_STEPS
    assert len(branch.points) == 3
    assert requested == [0.004, 0.002, 0.004]

    def always_far(op, state, tangent, ds, tol, **kwargs):
        return op.evaluate(state.copy_with(lam=state.lam + 10.0 * ds))

    monkeypatch.setattr(continuation, "arclength_step", always_far)
    branch = continue_branch(op, bp, steps=3, ds=0.004)
    assert branch.termination is Termination.STEP_FLOOR
    assert len(branch.points) == 1
    assert branch.diagnostics.startswith("step floor reached: DomainError: ")
    assert "consecutive branch points are" in branch.diagnostics


def test_carried_lu_saves_factorizations_along_a_branch(small_zero, monkeypatch):
    bp, op = small_zero
    specs = _counting_splu(monkeypatch)
    ds = 0.004
    branch = continue_branch(op, bp, steps=6, ds=ds)
    assert len(branch.points) == 6
    # one for the first point; its tangent and every step precondition GMRES
    # with that LU
    assert specs.count("NATURAL") == 1
    for prev, state in zip(branch.points, branch.points[1:]):
        assert op.residual_norm(state) <= 1e-10
        assert continuation._norm(continuation._chord(prev, state)) <= 1.5 * ds


def test_a_failed_step_leaves_no_lu_behind(small_zero, monkeypatch):
    bp, op = small_zero
    real_step = continuation.arclength_step
    held, factored = [], []
    specs = _counting_splu(monkeypatch)

    # the second step converges, hands its LU on, then fails
    def fail_second(op, state, tangent, ds, tol, carry):
        held.append(carry.factor is not None)
        before = specs.count("NATURAL")
        result = real_step(op, state, tangent, ds, tol=tol, carry=carry)
        factored.append(specs.count("NATURAL") - before)
        if len(held) == 2:
            assert carry.factor is not None
            raise NewtonDivergenceError("forced failure", iterations=0)
        return result

    monkeypatch.setattr(continuation, "arclength_step", fail_second)
    branch = continue_branch(op, bp, steps=4, ds=0.004)
    assert len(branch.points) == 4
    # the first step gets the LU of the first point; the retry after the
    # failure factors afresh and hands its LU on
    assert held == [True, True, False, True]
    assert factored == [0, 0, 1, 0]


def test_no_jacobian_alive_while_the_lu_is_built(small_zero, monkeypatch):
    # GMRES held to one iteration stalls on P too, so solves fall back to the
    # exact LU mid-branch; each assembled J is freed once its bordered matrix
    # is built, and none is alive while a P or an exact LU is factored
    bp, op = small_zero
    real_gmres, real_splu = continuation._gmres, continuation.splu
    jacobians, alive = [], []

    def one_iteration(matvec, precond, b, rtol, maxiter=None):
        return real_gmres(matvec, precond, b, rtol, maxiter=1)

    def recording_jacobian(ev):
        lin = StripOperator.jacobian(op, ev)
        real_tocsc = lin.tocsc

        def tocsc():
            J = real_tocsc()
            jacobians.append(weakref.ref(J.data))
            return J

        lin.tocsc = tocsc
        return lin

    def checking_splu(A, permc_spec=None, **kwargs):
        alive.append(sum(ref() is not None for ref in jacobians))
        return real_splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(continuation, "_gmres", one_iteration)
    monkeypatch.setattr(op, "jacobian", recording_jacobian)
    monkeypatch.setattr(continuation, "splu", checking_splu)
    branch = continue_branch(op, bp, steps=3, ds=0.004)
    assert len(branch.points) == 3
    assert len(jacobians) > 1
    assert len(alive) > len(jacobians)
    assert alive == [0] * len(alive)


def test_homotopy_hands_its_lu_to_the_next_epsilon(small_zero, monkeypatch):
    # lambda moves about 1e3 times the residual here, so both sides solve to
    # 1e-12 for lambda to agree to 1e-9
    bp, op = small_zero
    sched, s, tol = [0.02, 0.01, 0.005], 0.02, 1e-12
    specs = _counting_splu(monkeypatch)
    res = epsilon_homotopy(op.model, G, initial_nontrivial_guess(bp, op, s), sched,
                           target_s=s, tol=tol)
    assert res.failure_index == -1
    assert specs.count("NATURAL") < len(sched)
    # fresh solves, each factoring for itself, from the homotopy's seeds
    prev = None
    for eps, lam in zip(sched, res.lambdas):
        eps_op = StripOperator(op.model, G, op.grid, epsilon=eps)
        seed = (initial_nontrivial_guess(bp, eps_op, s) if prev is None
                else WaveState(lam=prev.lam, epsilon=eps, grid=op.grid, w=prev.w.copy()))
        prev = solve_at_amplitude(eps_op, seed, s, tol=tol)
        assert prev.lam == pytest.approx(lam, abs=1e-9)


def test_gmres_against_a_dense_solve():
    rng = np.random.default_rng(7)
    n = 12
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    exact = np.linalg.solve(A, b)
    inv = np.linalg.inv(A)

    def matvec(v):
        return A @ v

    # an exact preconditioner: one iteration gives the solution
    x, iterations, converged = continuation._gmres(matvec, lambda v: inv @ v, b, 1e-12)
    assert (iterations, converged) == (1, True)
    assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))
    # no preconditioner: at most n iterations, and the residual is the true one
    x, iterations, converged = continuation._gmres(matvec, lambda v: v, b, 1e-10, maxiter=n)
    assert converged and iterations <= n
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.max(np.abs(x - exact)) <= 1e-8 * np.max(np.abs(exact))
    x, iterations, converged = continuation._gmres(matvec, lambda v: v, np.zeros(n), 1e-10)
    assert (iterations, converged) == (0, True) and not np.any(x)
    # an exhausted budget says so, and x is the best it found
    x, iterations, converged = continuation._gmres(matvec, lambda v: v, b, 1e-10, maxiter=3)
    assert (iterations, converged) == (3, False)
    assert 1e-10 * np.linalg.norm(b) < np.linalg.norm(A @ x - b) < np.linalg.norm(b)


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
def test_gmres_reports_converged_only_at_its_true_residual(rtol):
    # a non-normal system (distinct eigenvalues 1..10 under a random strictly
    # upper triangle) that takes 40+ iterations: the Givens estimate the
    # stopping rule reads must be the true residual |b - A x|, to rounding
    rng = np.random.default_rng(0)
    n = 200
    A = np.diag(np.linspace(1.0, 10.0, n)) + 0.3 * np.triu(rng.standard_normal((n, n)), 1)
    b = rng.standard_normal(n)
    x, iterations, converged = continuation._gmres(lambda v: A @ v, lambda v: v, b, rtol,
                                                   maxiter=n)
    assert converged and iterations >= 40
    assert np.linalg.norm(b - A @ x) <= 1.01 * rtol * np.linalg.norm(b)
    # one iteration short of it, the same system is reported unconverged
    x, short, converged = continuation._gmres(lambda v: A @ v, lambda v: v, b, rtol,
                                              maxiter=iterations - 1)
    assert (short, converged) == (iterations - 1, False)
    assert np.linalg.norm(b - A @ x) > rtol * np.linalg.norm(b)


def _update_paths(caplog, label):
    """The path of each logged ``label`` update, one list per solve."""
    solves = []
    for rec in caplog.records:
        head, _, rest = rec.getMessage().partition(" update ")
        if head == label:
            number, path = rest.split(", residual")[0].split(": ")
            if number == "1":
                solves.append([])
            solves[-1].append(path)
    return solves


def test_a_solve_chords_only_on_a_factor_it_built(small_zero, caplog):
    # a carried factor was built for another iterate or border row: a step or
    # a homotopy entry that starts on one goes to GMRES at once; only a solve
    # that builds its own P (here on an empty slot) chords on it
    bp, op = small_zero
    carry = continuation.LUSlot()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="vorstokes"):
        first = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004,
                                   carry=carry)
        tangent = branch_tangent(op, op.evaluate(first), prev=seed_tangent(bp, op),
                                 carry=carry)
        arclength_step(op, first, tangent, 0.004, carry=carry)
    (amplitude,) = _update_paths(caplog, "amplitude-constrained solve")
    assert amplitude[:2] == ["fresh P", "chord"]
    (step,) = _update_paths(caplog, "arclength corrector")
    assert step[0] == "Krylov" and "chord" not in step
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="vorstokes"):
        res = epsilon_homotopy(op.model, G, initial_nontrivial_guess(bp, op, 0.02),
                               [0.02, 0.01], target_s=0.02)
    assert res.failure_index == -1
    entry, carried = _update_paths(caplog, "amplitude-constrained solve")
    assert entry[:2] == ["fresh P", "chord"]
    assert carried[0] == "Krylov" and "chord" not in carried


def test_a_branch_and_a_homotopy_each_factor_once(small_zero, monkeypatch):
    bp, op = small_zero
    specs = _counting_splu(monkeypatch)
    tol = 1e-10
    branch = continue_branch(op, bp, steps=6, ds=0.004, tol=tol)
    assert len(branch.points) == 6
    assert specs.count("NATURAL") <= 1
    for state in branch.points:
        assert op.residual_norm(state) <= tol
    specs.clear()
    sched, s = [0.02, 0.01, 0.005], 0.02
    res = epsilon_homotopy(op.model, G, initial_nontrivial_guess(bp, op, s), sched,
                           target_s=s, tol=tol)
    assert res.failure_index == -1
    assert specs.count("NATURAL") <= 1
    for eps, state in zip(sched, res.states):
        eps_op = StripOperator(op.model, G, op.grid, epsilon=eps)
        assert eps_op.residual_norm(state) <= tol
        assert abs(surface_mode_amplitude(state) - s) <= tol


@pytest.mark.parametrize("border", ["tangent", "amplitude", "lambda pin"])
def test_a_held_p_solves_to_its_rtol(small_zero, border):
    # GMRES on a P factored at another state meets rtol on the exact bordered
    # system, and agrees with a dense solve to cond(M) * rtol
    bp, op = small_zero
    state = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    n = state.w.size
    t = branch_tangent(op, op.evaluate(state), prev=seed_tangent(bp, op))
    c_row, c_lam = {"tangent": (t[:-1] / n, t[-1]),
                    "amplitude": (continuation._mode_weights(op.grid), 0.0),
                    "lambda pin": (np.zeros(n), 1.0)}[border]
    ev = op.evaluate(state.copy_with(w=1.01 * state.w))
    rhs, rtol = np.append(-op.residual_vector(ev), 1e-4), 1e-8
    M = _dense_bordered(op.jacobian(ev).tocsc(), op.d_residual_d_lambda(ev), c_row, c_lam)
    dense = np.linalg.solve(M, rhs)
    # a P near the state, and one at the seed at lambda*, whose mode-1 block
    # is nearly singular, so block elimination on it is at its weakest
    for held in (op.evaluate(state.copy_with(w=0.98 * state.w)),
                 op.evaluate(initial_nontrivial_guess(bp, op, 0.004))):
        carry = continuation.LUSlot()
        carry.factor = continuation.factor_modes(op.jacobian(held), op.d_residual_d_lambda(held),
                                                 c_row, c_lam)
        x, path, iterations = carry.solve(op, ev, (c_row, c_lam), rhs, rtol)
        assert path == "Krylov" and 0 < iterations <= continuation.KRYLOV_MAX
        assert np.linalg.norm(M @ x - rhs) <= rtol * np.linalg.norm(rhs)
        assert np.linalg.norm(x - dense) <= rtol * np.linalg.cond(M) * np.linalg.norm(dense)


def test_a_carried_p_is_bordered_by_each_solve(small_zero, monkeypatch):
    # at w = 0 P is J, so P bordered by the solve's own dF/dlambda and row is
    # the exact bordered solve, whatever border P was built under, and GMRES
    # on it converges in one iteration; a P that kept its border took three
    bp, op = small_zero
    state = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    ev, n = op.evaluate(state), state.w.size
    t = branch_tangent(op, ev, prev=seed_tangent(bp, op))
    trivial = op.evaluate(state.copy_with(lam=1.2 * bp.lambda_star, w=np.zeros_like(state.w)))
    lin = op.jacobian(trivial)
    carry = continuation.LUSlot()
    carry.factor = factor_modes(lin, op.d_residual_d_lambda(ev),
                                continuation._mode_weights(op.grid), 0.0)
    # dF/dlambda vanishes at w = 0, so the solve reads another state's
    f_lam = op.d_residual_d_lambda(op.evaluate(state.copy_with(w=2.0 * state.w)))
    monkeypatch.setattr(op, "d_residual_d_lambda", lambda _: f_lam)
    c_row, c_lam = t[:-1] / n, t[-1]
    rhs = np.append(-op.residual_vector(op.evaluate(state.copy_with(w=1.01 * state.w))), 0.3)
    x, path, iterations = carry.solve(op, trivial, (c_row, c_lam), rhs, 1e-12)
    assert (path, iterations) == ("Krylov", 1)
    dense = np.linalg.solve(_dense_bordered(lin.tocsc(), f_lam, c_row, c_lam), rhs)
    assert np.max(np.abs(x - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_a_carried_p_singular_under_a_new_border_is_built_again(small_zero):
    # a border whose Schur complement on the carried P-hat is exactly zero
    # drops that P, and the solve builds P afresh at its own state
    bp, op = small_zero
    state = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    ev = op.evaluate(state.copy_with(w=1.01 * state.w))
    f_lam, c_row = op.d_residual_d_lambda(ev), continuation._mode_weights(op.grid)
    held = op.evaluate(state.copy_with(w=0.98 * state.w))
    carry = continuation.LUSlot()
    carry.factor = factor_modes(op.jacobian(held), op.d_residual_d_lambda(held), c_row, 0.0)
    probe = carry.factor.bordered(f_lam, c_row, 1.0)
    c_lam = float(probe.cq @ probe.z)
    with pytest.raises(SingularJacobianError):
        carry.factor.bordered(f_lam, c_row, c_lam)
    rhs = np.append(-op.residual_vector(ev), 1e-4)
    x, path, _ = carry.solve(op, ev, (c_row, c_lam), rhs, 1e-8)
    assert path == "fresh P"
    M = _dense_bordered(op.jacobian(ev).tocsc(), f_lam, c_row, c_lam)
    assert np.linalg.norm(M @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_a_branch_and_a_homotopy_never_take_the_exact_lu(small_zero, monkeypatch, caplog):
    # every factorization is a P, and each holds fewer nonzeros than the
    # exact bordered LU; a silent fallback would fail one or the other
    bp, op = small_zero
    first = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    ev = op.evaluate(first)
    real_splu, nnz = continuation.splu, []

    def recording_splu(A, permc_spec=None, **kwargs):
        lu = real_splu(A, permc_spec=permc_spec, **kwargs)
        nnz.append(lu.nnz)
        return lu

    monkeypatch.setattr(continuation, "splu", recording_splu)
    factor_bordered(op.jacobian(ev), op.d_residual_d_lambda(ev),
                    continuation._mode_weights(op.grid), 0.0)
    exact_nnz = nnz.pop()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="vorstokes"):
        branch = continue_branch(op, bp, steps=6, ds=0.004)
        res = epsilon_homotopy(op.model, G, initial_nontrivial_guess(bp, op, 0.02),
                               [0.02, 0.01, 0.005], target_s=0.02)
    assert len(branch.points) == 6 and res.failure_index == -1
    paths = [rec.getMessage() for rec in caplog.records]
    assert sum(": fresh P, " in m for m in paths) == len(nnz) == 2
    assert not any("exact LU" in m for m in paths)
    assert max(nnz) < exact_nnz


def test_step_floor_diagnostics_list_every_failed_attempt(small_zero, monkeypatch):
    bp, op = small_zero
    requested = []

    def fail_two_ways(op, state, tangent, ds, tol, **kwargs):
        requested.append(ds)
        if len(requested) == 1:
            raise NewtonDivergenceError("corrector stalled", residual=1.0, iterations=15)
        raise SingularJacobianError("bordered factorization failed: singular")

    monkeypatch.setattr(continuation, "arclength_step", fail_two_ways)
    # two attempts, at 3e-6 and 1.5e-6, before the halving passes the floor
    branch = continue_branch(op, bp, steps=3, ds=3e-6, s0=0.004)
    assert requested == [3e-6, 1.5e-6]
    assert branch.termination is Termination.STEP_FLOOR
    assert len(branch.points) == 1
    assert branch.diagnostics == (
        "step floor reached: SingularJacobianError: bordered factorization failed: singular"
        " [failed attempts: ds=3e-06 NewtonDivergenceError: corrector stalled;"
        " ds=1.5e-06 SingularJacobianError: bordered factorization failed: singular]")


def test_each_kernel_update_logs_its_path(small_zero, caplog, monkeypatch):
    bp, op = small_zero
    assert logging.getLogger("vorstokes").handlers == []
    first = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.004), 0.004)
    tangent = branch_tangent(op, op.evaluate(first), prev=seed_tangent(bp, op))

    def corrector_updates():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="vorstokes"):
            state = arclength_step(op, first, tangent, 0.03, tol=1e-10).state
        assert op.residual_norm(state) <= 1e-10
        assert all(rec.name == "vorstokes" and rec.levelno == logging.DEBUG
                   for rec in caplog.records)
        return [rec.getMessage() for rec in caplog.records
                if rec.getMessage().startswith("arclength corrector update")]

    # a fresh P with GMRES on it, a chord update on P, then GMRES on P to tol
    updates = corrector_updates()
    assert updates[0].startswith("arclength corrector update 1: fresh P, residual ")
    assert not updates[0].endswith(" 0 GMRES iterations")
    assert updates[1].startswith("arclength corrector update 2: chord, ")
    assert updates[2].startswith("arclength corrector update 3: Krylov, ")
    assert not updates[2].endswith(" 0 GMRES iterations")
    # a singular P goes to the exact LU, and the next update is a chord on it
    _singular_p(monkeypatch)
    updates = corrector_updates()
    assert updates[0].startswith("arclength corrector update 1: exact LU, residual ")
    assert updates[0].endswith(", 0 GMRES iterations")
    assert updates[1].startswith("arclength corrector update 2: chord, ")
