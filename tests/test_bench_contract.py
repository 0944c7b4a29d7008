"""The benchmark's per-layer metrics stay reportable on the library's call paths.

perfbench/spans.py wraps named library functions and derives per-layer metrics
from their spans, some by parent: Newton iterations are the `solve_bordered`
spans under `arclength_step` or `solve_at_amplitude`, tangents those under
`branch_tangent`.  A library change that stops making one of these calls makes
a traced benchmark run report that metric missing.  These tests trace the
branch, pipeline and oracle call paths on small inputs and require every metric.
"""

import math
import os
import sys

import numpy as np
import pytest

from vorstokes import cli, continuation, nekrasov, strip_solver, sturm_liouville, wave_physics
from vorstokes.vorticity import ZeroVorticity

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
G = 9.81
L = math.pi
SMALL_GRID = strip_solver.StripGrid(L=L, P=4 * L, nq=16, np=48)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import spans

    return spans


def test_jacobian_action_builds_no_jacobian_and_no_fields(monkeypatch):
    # J v reads the evaluation's entries.  Through StripOperator.jacobian it
    # would count one J build per Krylov solve in strip_solver.jacobian.calls
    # and form all of P's mode blocks each time for nothing
    op = strip_solver.StripOperator(ZeroVorticity(), G, SMALL_GRID, epsilon=0.01)
    p, q = SMALL_GRID.p_nodes[:, None], SMALL_GRID.q_nodes[None, :]
    w = 0.05 * np.exp(0.5 * p) * np.cos(math.pi * q / L)
    w[0] = 0.0
    state = strip_solver.WaveState(9.0, 0.01, SMALL_GRID, w)
    J, ev = op.jacobian(op.evaluate(state)).tocsc(), op.evaluate(state)

    def forbidden(*args, **kwargs):
        raise AssertionError("J v must not call this")

    monkeypatch.setattr(strip_solver.StripOperator, "jacobian", forbidden)
    monkeypatch.setattr(strip_solver, "derivative_fields", forbidden)
    v = np.random.default_rng(6).standard_normal(w.size)
    assert np.max(np.abs(op.jacobian_action(ev)(v) - J @ v)) <= 1e-13 * np.max(np.abs(J @ v))


def traced_missing(spans, workload, run):
    """Metrics that `spans.layer_metrics` reports missing after ``run()``."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_id = "timed:0"
        run()
    finally:
        tracer.remove()
    _, missing = spans.layer_metrics(tracer, workload, 1, lambda start, end: end - start,
                                     0.0, None)
    return missing


def test_branch_reports_every_layer_metric(spans):
    def run():
        model = ZeroVorticity()
        bp = sturm_liouville.find_bifurcation_point(
            sturm_liouville.SLProblem(model, g=G, L=L, epsilon=0.01))
        op = strip_solver.StripOperator(model, G, SMALL_GRID, epsilon=0.01)
        continuation.continue_branch(op, bp, steps=3, ds=0.004)

    assert traced_missing(spans, spans.BRANCH, run) == {}


def test_pipeline_reports_every_layer_metric(spans, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("vorticity.kind = zero\ngrid.nq = 24\n"
                   "epsilon_schedule = 0.05, 0.025\nseeds.s0 = 0.008\nseeds.step = 0.003\n")

    def run():
        assert cli.main(["pipeline", "--config", str(cfg), "--steps", "2",
                         "--out", str(tmp_path / "run")]) == 0

    assert traced_missing(spans, spans.PIPELINE, run) == {}


def test_oracle_reports_every_layer_metric(spans, tmp_path):
    def run():
        model = ZeroVorticity()
        bp = sturm_liouville.find_bifurcation_point(
            sturm_liouville.SLProblem(model, g=G, L=L, epsilon=0.01))
        op = strip_solver.StripOperator(model, G, SMALL_GRID, epsilon=0.01)
        state = continuation.solve_at_amplitude(
            op, continuation.initial_nontrivial_guess(bp, op, 0.02), 0.02, tol=1e-10)
        path = tmp_path / "state.json"
        state.save(path)
        loaded = strip_solver.WaveState.load(path)
        wave_physics.verify_all(op, loaded, model, solver_tol=1e-10)
        mapped = nekrasov.strip_wave_to_angles(wave_physics.reconstruct(loaded, model, G), G,
                                               n_quad=64)
        nekrasov.solve_nekrasov(mapped.nu, n_quad=64, theta0=np.maximum(mapped.theta, 0.0))

    assert traced_missing(spans, spans.ORACLE, run) == {}
