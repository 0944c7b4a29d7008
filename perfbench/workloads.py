"""The three benchmark workloads.

Each workload has ``setup()`` (cheap and repeatable, timed as set-up),
``prepare()`` (one-time set-up after it), ``unit()`` (one unit of timed work)
and ``check(result)``, which runs outside the timed region and returns an
`Outcome`.  Library functions are called through their modules, so that the
spans of `spans.Tracer` see the benchmark's own calls too.
"""

from __future__ import annotations

import glob
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from vorstokes import cli, config, continuation, nekrasov, strip_solver, sturm_liouville
from vorstokes import wave_physics
from vorstokes.vorticity import GerstnerVorticity, ZeroVorticity

HERE = os.path.dirname(os.path.abspath(__file__))
EPSILON = 0.01


@dataclass
class Outcome:
    """What the checks of one unit found."""

    attempted: int
    failed: int = 0
    # (start, end) of each state's latency; empty where the unit has no per-state
    # boundary the benchmark can see without tracing
    states: list = field(default_factory=list)
    artifact_bytes: int = 0
    errors: list = field(default_factory=list)
    oracle_err: float = None


def _prepare_model(model, epsilon, nq):
    cfg = config.parse_config(None)
    bp = sturm_liouville.find_bifurcation_point(
        sturm_liouville.SLProblem(model, g=cfg.g, L=cfg.L, epsilon=epsilon))
    grid = strip_solver.default_grid(cfg.L, bp.lambda_star, epsilon, nq=nq)
    op = strip_solver.StripOperator(model, cfg.g, grid, epsilon=epsilon, delta=cfg.delta)
    return bp, op


def _verify_saved(path, model, cfg, solver_tol):
    """What ``vorstokes verify --state path`` does: load, build the operator, verify."""
    state = strip_solver.WaveState.load(path)
    op = strip_solver.StripOperator(model, cfg.g, state.grid, epsilon=state.epsilon,
                                    delta=cfg.delta)
    return state, wave_physics.verify_all(op, state, model, solver_tol=solver_tol)


class PipelineDefault:
    """``vorstokes pipeline`` with the default configuration, in-process."""

    name = "pipeline_default"

    def __init__(self, seed, tmp_root):
        self.tmp_root = tmp_root
        n_eps = len(config.parse_config(None).epsilon_schedule)
        self.states_per_run = n_eps * 6  # cli default --steps
        self.ops_per_unit = self.states_per_run + n_eps

    def setup(self):
        self.cfg = config.parse_config(None)

    def prepare(self):
        pass

    def unit(self):
        out = tempfile.mkdtemp(dir=self.tmp_root)
        return cli.main(["pipeline", "--out", out]), out

    def check(self, result):
        rc, out = result
        try:
            return self._check(rc, out)
        finally:
            shutil.rmtree(out)

    def _check(self, rc, out):
        n_eps = len(self.cfg.epsilon_schedule)
        res = Outcome(attempted=self.ops_per_unit)
        res.artifact_bytes = sum(os.path.getsize(p) for p in glob.glob(os.path.join(out, "*")))
        if rc != 0:
            res.errors.append(f"pipeline exit status {rc}")
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        if manifest["all_verified"] is not True:
            res.errors.append("manifest all_verified is not true")
        hom = manifest["homotopy"]
        if hom["failure_index"] != -1:
            res.errors.append(f"homotopy failure_index {hom['failure_index']}")
            res.failed += n_eps - hom["failure_index"]
        diffs = hom["sup_diffs"]
        if len(diffs) != n_eps - 1 or any(b >= a for a, b in zip(diffs, diffs[1:])):
            res.errors.append(f"homotopy sup_diffs not strictly decreasing: {diffs}")

        states = sorted(glob.glob(os.path.join(out, "state_*.json")))
        if len(states) != self.states_per_run:
            res.errors.append(f"{len(states)} states written, {self.states_per_run} expected")
            res.failed += max(0, self.states_per_run - len(states))
        for path in states:
            verify_path = os.path.join(
                out, os.path.basename(path).replace("state_", "verify_", 1))
            with open(verify_path) as fh:
                if json.load(fh)["passed"] is not True:
                    res.errors.append(f"{os.path.basename(path)} fails verification")
                    res.failed += 1
        if res.errors and res.failed == 0:
            res.failed = res.attempted
        return res


class BranchFine:
    """12-point Gerstner branch on the 401 x 128 grid."""

    name = "branch_fine"
    NQ, S0, DS, TOL, STEPS = 128, 0.005, 0.00075, 1e-11, 12
    LAMBDA_TOL = 1e-8

    ops_per_unit = STEPS

    def __init__(self, seed=0, tmp_root=None):
        self.tmp_root = tmp_root

    def setup(self):
        self.model = GerstnerVorticity(m=0.5)
        self.bp, self.op = _prepare_model(self.model, EPSILON, self.NQ)

    def prepare(self):
        with open(os.path.join(HERE, "reference", "branch_fine.json")) as fh:
            curve = np.asarray(json.load(fh)["curve"])
        self.s_range = (curve[0, 0], curve[-1, 0])
        self.lambda_of_s = CubicSpline(curve[:, 0], curve[:, 1])

    def unit(self):
        return continuation.continue_branch(self.op, self.bp, steps=self.STEPS, ds=self.DS,
                                            s0=self.S0, tol=self.TOL)

    def check(self, branch):
        res = Outcome(attempted=self.STEPS)
        cfg = config.parse_config(None)
        points = branch.points
        if len(points) != self.STEPS:
            res.errors.append(f"{len(points)} branch points, {self.STEPS} requested")
            res.failed += max(0, self.STEPS - len(points))
        out = tempfile.mkdtemp(dir=self.tmp_root)
        try:
            for k, state in enumerate(points):
                problems = []
                residual = self.op.residual_norm(state)
                if not residual <= self.TOL:
                    problems.append(f"residual {residual:.3g} > tol")
                s = continuation.surface_mode_amplitude(state)
                if not self.s_range[0] <= s <= self.s_range[1]:
                    problems.append(f"s = {s:.6g} outside the reference curve")
                elif abs(state.lam - float(self.lambda_of_s(s))) > self.LAMBDA_TOL:
                    problems.append(f"lambda {state.lam!r} off the reference curve at s = {s:.6g}")
                path = os.path.join(out, f"point_{k:03d}.json")
                state.save(path)
                res.artifact_bytes += os.path.getsize(path)
                loaded, report = _verify_saved(path, self.model, cfg, self.TOL)
                if not np.array_equal(loaded.w, state.w) or loaded.lam != state.lam:
                    problems.append("saved state does not load back unchanged")
                if not report.passed:
                    problems.append("verify_all fails")
                if problems:
                    res.errors.append(f"point {k}: " + "; ".join(problems))
                    res.failed += 1
        finally:
            shutil.rmtree(out)
        if res.errors and res.failed == 0:
            res.failed = res.attempted
        return res


class VerifyOracle:
    """Save, load, verify and reconstruct solved states; Nekrasov oracle for gamma = 0."""

    name = "verify_oracle"
    NQ, TOL, ORACLE_LIMIT, N_EACH = 64, 1e-10, 0.02, 4
    # The strip and Nekrasov profiles differ by more than ORACLE_LIMIT below
    # s ~ 0.013 at epsilon = 0.01 (2.14% at s = 0.005), so gamma = 0 draws
    # start at 0.02; Gerstner states have no oracle and use the full range.
    ZERO_RANGE, GERSTNER_RANGE = (0.02, 0.05), (0.005, 0.05)

    def __init__(self, seed, tmp_root):
        self.tmp_root = tmp_root
        rng = random.Random(seed)
        self.plan = [("zero", rng.uniform(*self.ZERO_RANGE)) for _ in range(self.N_EACH)]
        self.plan += [("gerstner", rng.uniform(*self.GERSTNER_RANGE))
                      for _ in range(self.N_EACH)]
        rng.shuffle(self.plan)
        self.ops_per_unit = len(self.plan)

    def setup(self):
        self.models = {"zero": ZeroVorticity(), "gerstner": GerstnerVorticity(m=0.5)}
        self.prepared = {kind: _prepare_model(model, EPSILON, self.NQ)
                         for kind, model in self.models.items()}
        self.g = config.parse_config(None).g

    def prepare(self):
        self.states = []
        for kind, s in self.plan:
            bp, op = self.prepared[kind]
            seed = continuation.initial_nontrivial_guess(bp, op, s)
            self.states.append(continuation.solve_at_amplitude(op, seed, s, tol=self.TOL))

    def unit(self):
        res = Outcome(attempted=len(self.plan), oracle_err=0.0)
        out = tempfile.mkdtemp(dir=self.tmp_root)
        try:
            for k, ((kind, s), state) in enumerate(zip(self.plan, self.states)):
                model, (_, op) = self.models[kind], self.prepared[kind]
                path = os.path.join(out, f"state_{k:03d}.json")
                t0 = time.perf_counter()
                state.save(path)
                loaded = strip_solver.WaveState.load(path)
                report = wave_physics.verify_all(op, loaded, model, solver_tol=self.TOL)
                wave = wave_physics.reconstruct(loaded, model, self.g)
                if kind == "zero":
                    mapped = nekrasov.strip_wave_to_angles(wave, self.g)
                    nek = nekrasov.solve_nekrasov(mapped.nu, n_quad=256, tol=1e-12,
                                                  theta0=np.maximum(mapped.theta, 0.0))
                    bounds = [nekrasov.nu_bound_check(nek), nekrasov.nu_bound_check(mapped)]
                res.states.append((t0, time.perf_counter()))
                res.artifact_bytes += os.path.getsize(path)
                os.remove(path)

                problems = []
                if not np.array_equal(loaded.w, state.w) or loaded.lam != state.lam:
                    problems.append("saved state does not load back unchanged")
                if not report.passed:
                    problems.append("verify_all fails")
                if kind == "zero":
                    scale = np.max(mapped.theta) / np.max(nek.theta)
                    err = float(np.max(np.abs(scale * nek.theta - mapped.theta))
                                / np.max(np.abs(mapped.theta)))
                    res.oracle_err = max(res.oracle_err, err)
                    if not err < self.ORACLE_LIMIT:
                        problems.append(f"oracle error {err:.4f}")
                    if not all(b.holds for b in bounds):
                        problems.append("nu bound does not hold")
                if problems:
                    res.errors.append(f"{kind} s = {s:.5f}: " + "; ".join(problems))
                    res.failed += 1
        finally:
            shutil.rmtree(out)
        return res

    def check(self, result):
        return result


WORKLOADS = {cls.name: cls for cls in (PipelineDefault, BranchFine, VerifyOracle)}
