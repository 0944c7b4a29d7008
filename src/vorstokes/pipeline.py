"""Run orchestration: bifurcate, continue, homotopy, verify, report.

A pipeline run writes one directory of deterministic artifacts: per-epsilon
bifurcation points and branch traces, the fixed-amplitude homotopy record,
a verification report for every accepted state, and a manifest tying them
together.  The exit status is nonzero exactly when a mandatory
verification check fails.
"""

from __future__ import annotations

import concurrent.futures as cf
import json
import os

import numpy as np

from .config import RunConfig
from .continuation import continue_branch, epsilon_homotopy
from .errors import DomainError
from .strip_solver import StripOperator, StripGrid, default_grid
from .sturm_liouville import (
    SLProblem,
    eigenfunction_decay_rate,
    find_bifurcation_point,
)
from .vorticity import check_bifurcation_condition
from .wave_physics import verify_all

__all__ = ["run_pipeline", "bifurcate_record", "grid_for", "trace_branch",
           "branch_rows", "homotopy_record", "write_csv"]


def _dump_json(path, obj):
    """Write ``obj`` as one line of key-sorted JSON; without ``indent``, `json` encodes in C."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def bifurcate_record(cfg: RunConfig, epsilon: float):
    """Bifurcation point at one epsilon, as a dict; Phi on the strip grid, surface first."""
    model = cfg.model()
    bp = find_bifurcation_point(SLProblem(model, g=cfg.g, L=cfg.L, epsilon=epsilon))
    p = grid_for(cfg, bp.lambda_star, epsilon).p_nodes[::-1]
    return bp, {
        "epsilon": epsilon,
        "lambda_star": bp.lambda_star,
        "mu": bp.mu,
        "decay_rate": eigenfunction_decay_rate(bp, model),
        "phi": np.column_stack((p, bp.phi_at(p))).tolist(),
    }


def grid_for(cfg: RunConfig, lam_hint, epsilon) -> StripGrid:
    grid = default_grid(cfg.L, lam_hint, epsilon, nq=cfg.nq)
    return StripGrid(L=cfg.L, P=cfg.P or grid.P, nq=cfg.nq, np=cfg.np or grid.np)


BRANCH_HEADER = (
    "s", "lambda", "c", "eta_crest", "eta_trough",
    "min_rel_speed", "verify_pass_count", "termination",
)


def trace_branch(cfg: RunConfig, epsilon, steps, ds, s0):
    """Bifurcate at ``epsilon``, continue the branch and verify its points.

    Returns (bp_record, branch, reports, rows) with ``rows`` the
    BRANCH_HEADER tuples of :func:`branch_rows`.
    """
    model = cfg.model()
    bp, bp_record = bifurcate_record(cfg, epsilon)
    grid = grid_for(cfg, bp.lambda_star, epsilon)
    op = StripOperator(model, cfg.g, grid, epsilon=epsilon, delta=cfg.delta)
    branch = continue_branch(op, bp, steps=steps, ds=ds, caps=cfg.caps(),
                             s0=s0, tol=cfg.newton_tol)
    reports = [verify_all(op, st, model, solver_tol=cfg.newton_tol)
               for st in branch.points]
    return bp_record, branch, reports, branch_rows(branch, reports)


def branch_rows(branch, reports):
    """BRANCH_HEADER tuples of a branch and the verification of its points."""
    return [
        (rec["s"], rec["lambda"], rec["c"], rec["eta_crest"], rec["eta_trough"],
         rec["min_rel_speed"], rep.pass_count, rec["termination"])
        for rec, rep in zip(branch.record_rows(), reports)
    ]


def homotopy_record(res, target_s):
    """The JSON record of an epsilon homotopy at amplitude ``target_s``."""
    return {
        "epsilons": res.epsilons,
        "lambdas": res.lambdas,
        "sup_diffs": res.sup_diffs,
        "failure_index": res.failure_index,
        "diagnostics": res.diagnostics,
        "target_s": target_s,
    }


def _trace_one_epsilon(cfg, epsilon, steps, out_dir):
    bp_record, branch, reports, rows = trace_branch(cfg, epsilon, steps, cfg.step, cfg.s0)
    tag = f"eps{epsilon:g}".replace(".", "p")
    _dump_json(os.path.join(out_dir, f"bifurcation_{tag}.json"), bp_record)
    for k, (st, rep) in enumerate(zip(branch.points, reports)):
        st.save(os.path.join(out_dir, f"state_{tag}_{k:03d}.json"))
        _dump_json(os.path.join(out_dir, f"verify_{tag}_{k:03d}.json"), rep.to_dict())
    write_csv(os.path.join(out_dir, f"branch_{tag}.csv"), BRANCH_HEADER, rows)
    return all(rep.passed for rep in reports), branch


def run_pipeline(cfg: RunConfig, out_dir: str, steps: int = 6, jobs: int = 1) -> int:
    """Full orchestration; returns the process exit status.

    Writes branch summaries, per-point states and verification reports
    under ``out_dir``.  Nonzero exactly when a mandatory verification
    fails; solver-level failures (no bifurcation, divergence) raise.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    if steps < 1:
        raise DomainError(f"steps must be at least 1, got {steps}")
    os.makedirs(out_dir, exist_ok=True)
    model = cfg.model()
    cond = check_bifurcation_condition(model, cfg.g, cfg.L)
    manifest = {
        "config": dict(cfg.raw),
        "bifurcation_condition": {
            "holds": cond.holds, "margin": cond.margin, "integral": cond.integral,
        },
    }

    schedule = cfg.epsilon_schedule
    results = {}
    if jobs > 1:
        with cf.ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_trace_one_epsilon, cfg, eps, steps, out_dir): i
                for i, eps in enumerate(schedule)
            }
            for fut in cf.as_completed(futures):
                results[futures[fut]] = fut.result()
    else:
        # serial, not a one-worker pool: the pool raised the default run's
        # peak RSS from about 108 MB to 118-129 MB at no change in wall time
        for i, eps in enumerate(schedule):
            results[i] = _trace_one_epsilon(cfg, eps, steps, out_dir)

    all_ok = all(results[i][0] for i in range(len(schedule)))

    # homotopy at fixed branch coordinate, from the first epsilon's solved first point
    hres = epsilon_homotopy(model, cfg.g, results[0][1].points[0], schedule, cfg.s0,
                            delta=cfg.delta, tol=cfg.newton_tol)
    manifest["homotopy"] = homotopy_record(hres, cfg.s0)
    if hres.failure_index >= 0:
        all_ok = False

    manifest["branches"] = {
        f"{schedule[i]:g}": {
            "points": len(results[i][1].points),
            "termination": results[i][1].termination.value,
            "verified": results[i][0],
        }
        for i in range(len(schedule))
    }
    manifest["all_verified"] = all_ok
    _dump_json(os.path.join(out_dir, "manifest.json"), manifest)
    return 0 if all_ok else 1
