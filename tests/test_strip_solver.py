import base64
import json
import math

import numpy as np
import pytest

from vorstokes.continuation import newton_solve
from vorstokes.errors import AdmissibilityError, DomainError
from vorstokes.strip_solver import (
    StripGrid,
    StripLinearization,
    StripOperator,
    WaveState,
    cosine_matrix,
    default_grid,
    derivative_fields,
    from_modes,
    linear_strip_mode,
    to_modes,
)
from vorstokes.vorticity import (
    ExpDecayVorticity,
    GerstnerVorticity,
    ZeroVorticity,
)

G = 9.81
L = math.pi


def make_op(model=None, lam_hint=9.81, eps=0.01, nq=32, grid=None, delta=1e-3):
    model = ZeroVorticity() if model is None else model
    if grid is None:
        grid = default_grid(L, lam_hint, eps, nq=nq)
    return StripOperator(model, G, grid, epsilon=eps, delta=delta)


def zero_state(op, lam):
    return WaveState(lam, op.epsilon, op.grid, np.zeros((op.grid.np, op.grid.nq)))


def interior_rows(op, st):
    """F1 - eps w on rows 1 .. np-2 (all columns), from the residual vector."""
    nq = op.grid.nq
    return op.residual_vector(op.evaluate(st))[nq:-nq].reshape(op.grid.np - 2, nq)


def top_row(op, st):
    """The Bernoulli residual F2 along the surface, from the residual vector."""
    return op.residual_vector(op.evaluate(st))[-op.grid.nq:]


def test_trivial_residual_exact_for_random_admissible_pairs():
    rng = np.random.default_rng(42)
    models = [
        ZeroVorticity(),
        ExpDecayVorticity(1.0, 1.0),
        ExpDecayVorticity(-0.6, 1.4),
        GerstnerVorticity(m=0.5),
        GerstnerVorticity(m=0.8),
    ]
    for model in models:
        lam = -2.0 * model.gamma_inf_bound() + rng.uniform(1.0, 8.0)
        op = make_op(model, lam_hint=lam)
        st = zero_state(op, lam)
        assert op.residual_norm(st) <= 1e-13


def test_residual_f2_trivial_is_zero():
    op = make_op()
    f2 = top_row(op, zero_state(op, 4.0))
    assert np.max(np.abs(f2)) <= 1e-14


def test_residual_f2_constant_offset():
    op = make_op()
    lam, kappa = 4.0, 0.01
    st = zero_state(op, lam)
    st.w += kappa
    st.w[0] = kappa  # constant field, wp = 0 by the one-sided stencils too
    f2 = top_row(op, st)
    expected = 1.0 + (2.0 * G * kappa - lam) / lam
    assert np.allclose(f2, expected, rtol=1e-12)


def test_residual_f1_linear_mode_small():
    # e^(p/2) cos(q) solves the linearized interior equation at lambda = 4;
    # the discrete residual is then dominated by the O(h^2) stencil error
    # times the amplitude, plus a quadratic-in-amplitude remainder.
    grid = StripGrid(L=L, P=4 * L, nq=48, np=240)
    op = StripOperator(ZeroVorticity(), G, grid, epsilon=0.0)
    p = grid.p_nodes[:, None]
    q = grid.q_nodes[None, :]
    s = 1e-6
    w = s * np.exp(0.5 * p) * np.cos(q)  # pure mode, no bottom clamp
    st = WaveState(4.0, 0.0, grid, w)
    f1 = interior_rows(op, st)
    assert np.max(np.abs(f1)) < 1e-9


def test_residual_f2_quadratic_amplitude_scaling():
    # seeding with the discrete eigenmode kills the linear part of the
    # Bernoulli residual exactly, leaving the pure quadratic remainder
    op = make_op(eps=0.0, lam_hint=G * L / math.pi, nq=48)
    lam_d, phi_d = linear_strip_mode(op, G * L / math.pi)
    q = op.grid.q_nodes[None, :]
    mode = phi_d[:, None] * np.cos(math.pi * q / L)

    def top_res(s):
        return float(
            np.max(np.abs(top_row(op, WaveState(lam_d, 0.0, op.grid, s * mode))))
        )

    r1, r2 = top_res(1e-4), top_res(5e-5)
    assert 3.5 < r1 / r2 < 4.5


def test_admissibility_error_names_node_and_clause():
    op = make_op()
    st = zero_state(op, 9.0)
    d = derivative_fields(op.grid, st.w)
    # carve a dip deep enough to push a^-1 + wp below delta at one node
    i, j = op.grid.np // 2, op.grid.nq // 2
    st.w[i + 1, j] = -2.0 * op.grid.dp
    with pytest.raises(AdmissibilityError) as err:
        op.check_admissible(op.evaluate(st))
    assert "no-stagnation" in str(err.value)
    assert err.value.node is not None


def test_admissibility_surface_clause():
    op = make_op()
    lam = 9.0
    st = zero_state(op, lam)
    st.w[-1] = (2.0 * lam) / (4.0 * G)  # above the Bernoulli cap
    with pytest.raises(AdmissibilityError) as err:
        op.check_admissible(op.evaluate(st))
    assert "surface" in str(err.value)


def test_admissibility_lambda_floor():
    model = ExpDecayVorticity(1.0, 1.0)  # floor at lambda = 2
    op = make_op(model, lam_hint=5.0)
    ev = op.evaluate(zero_state(op, 2.0 + 0.5 * op.delta))
    assert not op.is_admissible(ev)
    # a^-1 is not formed below the floor, so what reads it raises that clause
    for read in (op.check_admissible, op.residual_vector, op.jacobian):
        with pytest.raises(AdmissibilityError) as err:
            read(ev)
        assert err.value.clause == StripOperator.CLAUSES[0]


def test_manufactured_solution_consistency_order_two():
    # analytic derivative fields plugged into the interior algebra give the
    # exact residual; the stencil version must approach it at second order
    lam, eps = 6.0, 0.02
    alpha, beta, kq = 0.02, 0.7, math.pi / L

    def exact_f1(pp, qq):
        w = alpha * np.exp(beta * pp) * np.cos(kq * qq)
        wp = beta * w
        wpp = beta**2 * w
        wq = -alpha * kq * np.exp(beta * pp) * np.sin(kq * qq)
        wqq = -(kq**2) * w
        wpq = beta * wq
        ainv = lam**-0.5
        hp = ainv + wp
        return ((1 + wq**2) * wpp - 2 * hp * wq * wpq + hp**2 * wqq - eps * w)

    errs = []
    for n in (60, 120):
        grid = StripGrid(L=L, P=2 * L, nq=n, np=2 * n)
        op = StripOperator(ZeroVorticity(), G, grid, epsilon=eps)
        p = grid.p_nodes[:, None]
        q = grid.q_nodes[None, :]
        w = alpha * np.exp(beta * p) * np.cos(kq * q)
        st = WaveState(lam, eps, grid, w)
        f1 = interior_rows(op, st)
        ref = exact_f1(p, q)[1:-1]
        errs.append(float(np.max(np.abs(f1 - ref))))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_derivative_fields_exact_for_quadratic_in_p():
    # every p stencil, the one-sided top and bottom rows included, is exact on
    # quadratics; wpp and wpq are not formed on the end rows
    grid = StripGrid(L=L, P=2.0, nq=12, np=20)
    p = grid.p_nodes[:, None]
    g = np.cos(math.pi * grid.q_nodes / L)[None, :]
    w = (0.3 + p + 0.7 * p**2) * g
    d = derivative_fields(grid, w)
    assert np.allclose(d["wp"], (1.0 + 1.4 * p) * g, rtol=0.0, atol=1e-12)
    assert np.allclose(d["wpp"][1:-1], 1.4 * g, rtol=0.0, atol=1e-11)
    for name in ("wpp", "wpq"):
        assert np.all(d[name][[0, -1]] == 0.0)


def test_derivative_fields_reflect_at_both_q_ends():
    # evenness across q = -L and q = 0: the ghost column mirrors column 1
    # (resp. nq - 2), so wq vanishes there and wqq is the reflected formula
    grid = StripGrid(L=L, P=2.0, nq=12, np=20)
    p = grid.p_nodes[:, None]
    w = np.cos(math.pi * grid.q_nodes / L)[None, :] * np.exp(0.8 * p) * (1.0 + p**2)
    d = derivative_fields(grid, w)
    assert np.all(d["wq"][:, [0, -1]] == 0.0)
    dq2 = grid.dq**2
    scale = np.max(np.abs(d["wqq"]))
    assert np.allclose(d["wqq"][:, 0], 2.0 * (w[:, 1] - w[:, 0]) / dq2,
                       rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(d["wqq"][:, -1], 2.0 * (w[:, -2] - w[:, -1]) / dq2,
                       rtol=0.0, atol=1e-12 * scale)


def test_jacobian_keeps_the_cancelled_reflection_entries():
    # At the q-ends the reflected cross-derivative taps (i +- 1, 1) and
    # (i +- 1, nq - 2), and the top row's wq taps, cancel to 0 but stay stored.
    # The exact bordered LU takes its MMD fill order from the stored pattern;
    # dropping these entries raised the LU fill by 12% at 401 x 128.
    grid = StripGrid(L=L, P=4 * L, nq=16, np=48)
    op = StripOperator(GerstnerVorticity(m=0.5), G, grid, epsilon=0.01)
    p = grid.p_nodes[:, None]
    w = 0.01 * np.exp(0.5 * p) * np.cos(math.pi * grid.q_nodes / L)[None, :]
    w[0] = 0.0
    J = op.jacobian(op.evaluate(WaveState(9.0, 0.01, grid, w))).tocsc().tocoo()
    assert J.nnz == 6442
    zero = J.data == 0.0
    assert int(np.count_nonzero(zero)) == 186
    nq = grid.nq
    assert set(J.row[zero] % nq) == {0, nq - 1}
    assert set(J.col[zero] % nq) == {1, nq - 2}


def test_jacobian_table_holds_one_array_per_corner_product():
    # wpq's corner shifts carry c_pq / (4 dp dq) at (1, 1) and (-1, -1) and its
    # negation at (1, -1) and (-1, 1); each pair is one array, and J assembles
    # as it does from a table of separate copies
    grid = StripGrid(L=L, P=4 * L, nq=16, np=48)
    op = StripOperator(GerstnerVorticity(m=0.5), G, grid, epsilon=0.01)
    p, q = grid.p_nodes[:, None], grid.q_nodes[None, :]
    w = 0.05 * np.exp(0.5 * p) * np.cos(math.pi * q / L)
    w[0] = 0.0
    ev = op.evaluate(WaveState(9.0, 0.01, grid, w))
    interior = ev.jacobian_entries[1, grid.np - 1]
    assert interior[1, 1] is interior[-1, -1]
    assert interior[1, -1] is interior[-1, 1]
    assert interior[1, 1] is not interior[1, -1]
    c_pq, div = ev.coefficients.c_pq, (2.0 * grid.dp) * (2.0 * grid.dq)
    assert np.array_equal(interior[1, 1], c_pq / div)
    assert np.array_equal(interior[1, -1], (c_pq * -1) / div)
    copies = {rows: {shift: np.array(entry) for shift, entry in shifts.items()}
              for rows, shifts in ev.jacobian_entries.items()}
    J, ref = op.jacobian(ev).tocsc(), StripLinearization(op, copies).tocsc()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(J, attr), getattr(ref, attr))


def test_jacobian_trivial_matches_displayed_operator():
    model = ExpDecayVorticity(0.5, 1.2)
    op = make_op(model, lam_hint=7.0, nq=24)
    grid = op.grid
    lam = 7.0
    st = zero_state(op, lam)
    J = op.jacobian(op.evaluate(st)).tocsc()
    rng = np.random.default_rng(5)
    p = grid.p_nodes[:, None]
    q = grid.q_nodes[None, :]
    phi = np.exp(0.6 * p) * np.cos(math.pi * q / L) + 0.3 * np.exp(p) * np.cos(2 * math.pi * q / L)
    out = (J @ phi.ravel()).reshape(grid.np, grid.nq)

    # independent evaluation of phi_pp + a^-2 phi_qq + 3 gamma a^-2 phi_p - eps phi
    dp, dq = grid.dp, grid.dq
    ainv = op.ainv_rows(lam)
    gam = op.gamma_p
    phip = np.pad(phi, ((0, 0), (1, 1)), mode="reflect")
    ref = np.zeros_like(phi)
    for i in range(1, grid.np - 1):
        for j in range(grid.nq):
            phi_pp = (phi[i + 1, j] - 2 * phi[i, j] + phi[i - 1, j]) / dp**2
            phi_qq = (phip[i, j + 2] - 2 * phi[i, j] + phip[i, j]) / dq**2
            phi_p = (phi[i + 1, j] - phi[i - 1, j]) / (2 * dp)
            ref[i, j] = (phi_pp + ainv[i] ** 2 * phi_qq
                         + 3 * gam[i] * ainv[i] ** 2 * phi_p - op.epsilon * phi[i, j])
    assert np.allclose(out[1:-1], ref[1:-1], atol=1e-10)

    # top row: -2 sqrt(lam) phi_p + 2 g / lam phi (gamma enters only deeper)
    phi_p_top = (3 * phi[-1] - 4 * phi[-2] + phi[-3]) / (2 * dp)
    ref_top = -2 * math.sqrt(lam) * phi_p_top + 2 * G / lam * phi[-1]
    assert np.allclose(out[-1], ref_top, atol=1e-10)


def smooth_random_field(grid, rng):
    p = grid.p_nodes[:, None]
    q = grid.q_nodes[None, :]
    phi = np.zeros((grid.np, grid.nq))
    for _ in range(4):
        phi += (rng.standard_normal()
                * np.exp(rng.uniform(0.2, 1.5) * p)
                * np.cos(rng.integers(0, 4) * math.pi * q / grid.L))
    phi[0] = 0.0
    return phi / np.max(np.abs(phi))


@pytest.mark.parametrize("model", [ZeroVorticity(), ExpDecayVorticity(0.4, 1.0),
                                   GerstnerVorticity(m=0.5)],
                         ids=["zero", "expdecay", "gerstner"])
def test_jacobian_directional_derivative(model):
    # a nonzero gamma exercises c_p's 3 gamma hp^2 and c_q's -2 gamma a^-3 wq
    # away from w = 0
    grid = StripGrid(L=L, P=4 * L, nq=32, np=80)
    op = StripOperator(model, G, grid, epsilon=0.01)
    rng = np.random.default_rng(0)
    p = grid.p_nodes[:, None]
    q = grid.q_nodes[None, :]
    w0 = 0.01 * np.exp(0.5 * p) * np.cos(math.pi * q / L)
    w0[0] = 0.0
    st = WaveState(9.0, 0.01, grid, w0)
    J = op.jacobian(op.evaluate(st)).tocsc()
    r0 = op.residual_vector(op.evaluate(st))
    errors = {}
    for t in (1e-4, 1e-5):
        worst = 0.0
        for _ in range(10):
            phi = smooth_random_field(grid, rng)
            fd = (op.residual_vector(op.evaluate(st.copy_with(w=st.w + t * phi))) - r0) / t
            ref = J @ phi.ravel()
            worst = max(worst, float(np.max(np.abs(fd - ref)) / np.max(np.abs(ref))))
        errors[t] = worst
    assert errors[1e-5] < 1e-4
    assert 4.0 < errors[1e-4] / errors[1e-5] < 25.0


@pytest.mark.parametrize("model", [ZeroVorticity(), ExpDecayVorticity(0.4, 1.0),
                                   GerstnerVorticity(m=0.5)],
                         ids=["zero", "expdecay", "gerstner"])
def test_jacobian_action_equals_the_assembled_jacobian(model):
    # J v and J read the same entries; this checks J v's placement and
    # folding on rough vectors that load every shift and both reflections
    grid = StripGrid(L=L, P=4 * L, nq=32, np=80)
    op = StripOperator(model, G, grid, epsilon=0.01)
    p = grid.p_nodes[:, None]
    q = grid.q_nodes[None, :]
    w0 = 0.01 * np.exp(0.5 * p) * np.cos(math.pi * q / L)
    w0[0] = 0.0
    st = WaveState(9.0, 0.01, grid, w0)
    ev = op.evaluate(st)
    J, jv = op.jacobian(ev).tocsc(), op.jacobian_action(ev)
    rng = np.random.default_rng(3)
    for v in [smooth_random_field(grid, rng).ravel()] + [rng.standard_normal(grid.np * grid.nq)
                                                         for _ in range(3)]:
        ref = J @ v
        assert np.max(np.abs(jv(v) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("model", [ZeroVorticity(), ExpDecayVorticity(0.4, 1.0),
                                   GerstnerVorticity(m=0.5)],
                         ids=["zero", "expdecay", "gerstner"])
def test_preconditioner_is_the_jacobian_at_the_trivial_state(model):
    # at w = 0 no coefficient depends on q and the terms P drops (c_q, c_pq,
    # the top row's wq) vanish, so P, applied through the cosine modes, is J
    grid = StripGrid(L=L, P=4 * L, nq=16, np=48)
    op = StripOperator(model, G, grid, epsilon=0.01)
    ev = op.evaluate(zero_state(op, 9.0))
    modes, jv = op.jacobian(ev).modes, op.jacobian_action(ev)
    rng = np.random.default_rng(4)
    for v in [smooth_random_field(grid, rng).ravel()] + [rng.standard_normal(grid.np * grid.nq)
                                                         for _ in range(3)]:
        assert np.max(np.abs(from_modes(grid, to_modes(grid, v)) - v)) <= 1e-13 * np.max(np.abs(v))
        ref = jv(v)
        assert np.max(np.abs(from_modes(grid, modes @ to_modes(grid, v)) - ref)) <= (
            1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("s", [0.0, 0.05, 0.2])
@pytest.mark.parametrize("model", [ZeroVorticity(), GerstnerVorticity(m=0.5)],
                         ids=["zero", "gerstner"])
def test_preconditioner_is_the_q_mean_of_the_even_jacobian(model, s):
    # away from w = 0: P is the J whose entries are each replaced by the
    # q-mean of their even part, 1/2 (entry(di, dj) + entry(di, -dj))
    grid = StripGrid(L=L, P=4 * L, nq=16, np=48)
    op = StripOperator(model, G, grid, epsilon=0.01)
    p, q = grid.p_nodes[:, None], grid.q_nodes[None, :]
    w = s * np.exp(0.5 * p) * np.cos(math.pi * q / L)
    w[0] = 0.0
    ev = op.evaluate(WaveState(9.0, 0.01, grid, w))
    weights = cosine_matrix(grid.nq)[1][0]

    def q_mean(entry):
        entry = np.broadcast_to(entry, np.shape(entry)[:-1] + (grid.nq,))
        return np.broadcast_to((entry @ weights)[..., None], entry.shape)

    averaged = {row_class: {(di, dj): 0.5 * (q_mean(entry) + q_mean(shifts[di, -dj]))
                            for (di, dj), entry in shifts.items()}
                for row_class, shifts in ev.jacobian_entries.items()}
    ref = StripLinearization(op, averaged).tocsc()
    modes = op.jacobian(ev).modes
    rng = np.random.default_rng(5)
    for v in [smooth_random_field(grid, rng).ravel()] + [rng.standard_normal(grid.np * grid.nq)
                                                         for _ in range(3)]:
        expected = ref @ v
        assert np.max(np.abs(from_modes(grid, modes @ to_modes(grid, v)) - expected)) <= (
            1e-13 * np.max(np.abs(expected)))


def test_linear_strip_mode_is_a_null_vector_of_the_trivial_jacobian():
    # Phi(p) cos(pi q / L) at lambda_d is annihilated by the full 2-D J
    op = make_op(eps=0.01, nq=24)
    lam_d, phi = linear_strip_mode(op, G * L / math.pi)
    v = phi[:, None] * np.cos(math.pi * op.grid.q_nodes / L)[None, :]
    jv = op.jacobian_action(op.evaluate(zero_state(op, lam_d)))(v.ravel())
    assert np.max(np.abs(jv)) <= 1e-9 / op.grid.dp**2


def test_d_residual_d_lambda_matches_finite_difference():
    grid = StripGrid(L=L, P=4 * L, nq=24, np=64)
    op = StripOperator(ExpDecayVorticity(0.4, 1.0), G, grid, epsilon=0.02)
    p = grid.p_nodes[:, None]
    q = grid.q_nodes[None, :]
    w = 0.02 * np.exp(0.6 * p) * np.cos(math.pi * q / L)
    w[0] = 0.0
    st = WaveState(8.0, 0.02, grid, w)
    dl = 1e-6
    fd = (op.residual_vector(op.evaluate(st.copy_with(lam=st.lam + dl)))
          - op.residual_vector(op.evaluate(st.copy_with(lam=st.lam - dl)))) / (2 * dl)
    ana = op.d_residual_d_lambda(op.evaluate(st))
    assert np.max(np.abs(fd - ana)) < 1e-7 * max(1.0, np.max(np.abs(ana)))


def test_newton_trivial_returns_immediately():
    op = make_op()
    st, info = newton_solve(op, zero_state(op, 9.0))
    assert info["iterations"] == 0
    assert np.all(st.w == 0.0)


def test_newton_rejects_inadmissible_initial_state():
    op = make_op()
    lam = 9.0
    st = zero_state(op, lam)
    st.w[-1] = (2.0 * lam) / (4.0 * G)
    with pytest.raises(AdmissibilityError):
        newton_solve(op, st)


def test_reflected_solution_satisfies_full_period_equations(zero_setup):
    # evenness built into the reduced stencils must reproduce a genuine
    # 2L-periodic even solution: reflect and evaluate with periodic stencils
    from vorstokes.continuation import initial_nontrivial_guess, solve_at_amplitude

    model, bp, op = zero_setup
    st = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, 0.02), 0.02, tol=1e-11)
    grid = op.grid
    w_full = np.concatenate([st.w, st.w[:, -2:0:-1]], axis=1)  # q in [-L, L)
    dq, dp = grid.dq, grid.dp
    lam = st.lam
    ainv = op.ainv_rows(lam)[:, None]
    gam = op.gamma_p[:, None]

    wq = (np.roll(w_full, -1, axis=1) - np.roll(w_full, 1, axis=1)) / (2 * dq)
    wqq = (np.roll(w_full, -1, axis=1) - 2 * w_full + np.roll(w_full, 1, axis=1)) / dq**2
    wp = np.zeros_like(w_full)
    wp[1:-1] = (w_full[2:] - w_full[:-2]) / (2 * dp)
    wpp = np.zeros_like(w_full)
    wpp[1:-1] = (w_full[2:] - 2 * w_full[1:-1] + w_full[:-2]) / dp**2
    wpq = np.zeros_like(w_full)
    wpq[1:-1] = (wq[2:] - wq[:-2]) / (2 * dp)

    hp = ainv + wp
    f1_full = ((1 + wq**2) * wpp - 2 * hp * wq * wpq + hp**2 * wqq
               + gam * hp**3 - gam * ainv**3 * (1 + wq**2)
               - op.epsilon * w_full)
    assert np.max(np.abs(f1_full[1:-1])) < 1e-9


def test_wave_state_json_roundtrip(tmp_path):
    grid = StripGrid(L=L, P=4 * L, nq=12, np=16)
    rng = np.random.default_rng(9)
    w = rng.standard_normal((grid.np, grid.nq))
    w[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    st = WaveState(5.0, 0.1, grid, w)
    path = tmp_path / "state.json"
    st.save(path)
    back = WaveState.load(path)
    assert back.lam == st.lam and back.epsilon == st.epsilon
    assert back.grid == st.grid
    # bit-exact, so -0.0 keeps its sign and the subnormal survives
    assert back.w.tobytes() == st.w.tobytes()
    assert back.w.dtype == np.float64
    assert back.w.flags.writeable and back.w.flags.c_contiguous

    again = tmp_path / "again.json"
    st.save(again)
    assert again.read_bytes() == path.read_bytes()

    with open(path) as fh:
        data = json.load(fh)
    assert set(data) == {"lambda", "epsilon", "grid", "w"}
    assert isinstance(data["w"], str)


def _state_dict():
    grid = StripGrid(L=L, P=4 * L, nq=8, np=8)
    return WaveState(5.0, 0.1, grid, np.ones((grid.np, grid.nq))).to_dict()


@pytest.mark.parametrize("key", ["lambda", "epsilon", "grid", "w", "grid.np"])
def test_wave_state_missing_field_is_a_domain_error(key):
    d = _state_dict()
    if key == "grid.np":
        del d["grid"]["np"]
    else:
        del d[key]
    with pytest.raises(DomainError, match=repr(key.split(".")[-1])):
        WaveState.from_dict(d)


@pytest.mark.parametrize("field, value, match", [
    ("w", [1.0] * 64, "regenerate"),            # the old list-of-floats form
    ("w", "not base64!", "not base64.*regenerate"),
    ("w", base64.b64encode(b"\0" * 8 * 63).decode(), "504 bytes.*needs 512"),
    ("lambda", "x", "could not convert"),
    ("grid", {"L": L, "P": 4 * L, "nq": "many", "np": 8}, "'nq'"),
], ids=["list_w", "not_base64", "short_w", "text_lambda", "text_nq"])
def test_wave_state_bad_field_is_a_domain_error(field, value, match):
    d = _state_dict()
    d[field] = value
    with pytest.raises(DomainError, match=f"'{field}'.*{match}"):
        WaveState.from_dict(d)


def test_wave_state_load_rejects_a_non_json_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text("w = 1\n")
    with pytest.raises(DomainError, match="not a JSON wave state"):
        WaveState.load(path)


def test_linear_strip_mode_matches_halfline_solver(zero_setup):
    _, bp, op = zero_setup
    lam_d, phi_d = linear_strip_mode(op, bp.lambda_star)
    # two discretizations of the same eigenvalue problem
    assert lam_d == pytest.approx(bp.lambda_star, rel=2e-3)
    assert phi_d[-1] == 1.0
    assert np.all(phi_d[1:] > 0.0)


def test_grid_validation():
    with pytest.raises(DomainError):
        StripGrid(L=-1.0, P=1.0, nq=16, np=16)
    with pytest.raises(DomainError):
        StripGrid(L=1.0, P=1.0, nq=4, np=16)
