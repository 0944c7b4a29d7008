"""Command-line front end.

Subcommands::

    trivial      laminar flow table (lambda, c, h_tr samples) as CSV
    bifurcate    bifurcation point and eigenfunction as JSON
    continue     trace a branch at one epsilon; states + summary CSV
    homotopy     fixed-amplitude run across the epsilon schedule
    verify       verification report for a saved state
    reconstruct  physical fields (eta, psi, pressure) as CSV
    nekrasov     irrotational angle-equation solve
    pipeline     full orchestration with verification gate

All numeric output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import parse_config
from .continuation import epsilon_homotopy, initial_nontrivial_guess, solve_at_amplitude
from .errors import DomainError, VorStokesError
from .nekrasov import nu_bound_check, solve_nekrasov
from .pipeline import (
    BRANCH_HEADER,
    bifurcate_record,
    grid_for,
    homotopy_record,
    run_pipeline,
    trace_branch,
    write_csv,
)
from .shear_flow import ShearFlow
from .strip_solver import StripOperator, WaveState
from .wave_physics import physical_grid, reconstruct, verify_all


def _finite(text):
    """argparse type of the float flags: a finite number, as config keys must be."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _out_path(args, default_name):
    if args.out is None:
        return None
    if os.path.isdir(args.out) or args.out.endswith(os.sep):
        os.makedirs(args.out, exist_ok=True)
        return os.path.join(args.out, default_name)
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return args.out


def _emit(args, text, default_name):
    # print the text, or write it to --out and print the path
    path = _out_path(args, default_name)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(path)


def _emit_json(args, obj, default_name):
    _emit(args, json.dumps(obj, sort_keys=True), default_name)


def cmd_trivial(args):
    if args.samples < 1:
        raise DomainError(f"samples must be at least 1, got {args.samples}")
    cfg = parse_config(args.config)
    model = cfg.model()
    lam = args.lam if args.lam is not None else cfg.g * cfg.L / math.pi
    flow = ShearFlow(model, lam=lam, g=cfg.g)
    p = -np.linspace(0.0, max(4.0 * cfg.L, 10.0), args.samples)
    rows = zip(p.tolist(), flow.h_tr(p).tolist(), flow.h_tr_p(p).tolist())
    lines = [f"# lambda,{lam!r}", f"# c,{flow.c!r}", "p,h_tr,h_tr_p"]
    lines += [",".join(repr(v) for v in row) for row in rows]
    _emit(args, "\n".join(lines), "trivial.csv")
    return 0


def cmd_bifurcate(args):
    cfg = parse_config(args.config)
    _, record = bifurcate_record(cfg, args.epsilon)
    _emit_json(args, record, "bifurcation.json")
    return 0


def cmd_continue(args):
    cfg = parse_config(args.config)
    ds = cfg.step if args.step_size is None else args.step_size
    s0 = cfg.s0 if args.target_s is None else args.target_s
    _, branch, _, rows = trace_branch(cfg, args.epsilon, args.steps, ds, s0)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    for k, state in enumerate(branch.points):
        state.save(os.path.join(out, f"point_{k:03d}.json"))
        write_csv(os.path.join(out, f"surface_{k:03d}.csv"), ("q", "w"),
                  zip(map(float, state.grid.q_nodes), map(float, state.w[-1])))
    write_csv(os.path.join(out, "branch.csv"), BRANCH_HEADER, rows)
    print(os.path.join(out, "branch.csv"))
    return 0


def cmd_homotopy(args):
    cfg = parse_config(args.config)
    model = cfg.model()
    eps0 = cfg.epsilon_schedule[0]
    bp, _ = bifurcate_record(cfg, eps0)
    op = StripOperator(model, cfg.g, grid_for(cfg, bp.lambda_star, eps0), epsilon=eps0,
                       delta=cfg.delta)
    target = cfg.s0 if args.target_s is None else args.target_s
    # the solve of the pipeline's first branch point, so both write the same record
    start = solve_at_amplitude(op, initial_nontrivial_guess(bp, op, target), target,
                               tol=cfg.newton_tol)
    res = epsilon_homotopy(model, cfg.g, start, cfg.epsilon_schedule, target,
                           delta=cfg.delta, tol=cfg.newton_tol)
    _emit_json(args, homotopy_record(res, target), "homotopy.json")
    return 0 if res.failure_index < 0 else 1


def cmd_verify(args):
    cfg = parse_config(args.config)
    model = cfg.model()
    state = WaveState.load(args.state)
    op = StripOperator(model, cfg.g, state.grid, epsilon=state.epsilon,
                       delta=cfg.delta)
    report = verify_all(op, state, model, solver_tol=cfg.newton_tol)
    _emit_json(args, report.to_dict(), "verify.json")
    return 0 if report.passed else 1


def cmd_reconstruct(args):
    cfg = parse_config(args.config)
    model = cfg.model()
    state = WaveState.load(args.state)
    wave = reconstruct(state, model, cfg.g)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "eta.csv"), ("x", "eta"),
              list(zip(map(float, wave.x), map(float, wave.eta))))
    fields = physical_grid(wave)
    inside = np.isfinite(fields.psi)

    def rows(*columns):  # Python floats: write_csv writes each by repr
        return np.column_stack([c[inside] for c in columns]).tolist()

    write_csv(os.path.join(out, "psi.csv"), ("x", "y", "psi", "psi_x", "psi_y"),
              rows(fields.x, fields.y, fields.psi, fields.psi_x, fields.psi_y))
    write_csv(os.path.join(out, "pressure.csv"), ("x", "y", "pressure"),
              rows(fields.x, fields.y, fields.pressure))
    print(os.path.join(out, "eta.csv"))
    return 0


def cmd_nekrasov(args):
    theta0 = None
    if args.amplitude:
        t = np.linspace(0.0, math.pi, args.n + 1)
        theta0 = args.amplitude * np.sin(t)
    state = solve_nekrasov(args.nu, n_quad=args.n, tol=args.tol, theta0=theta0)
    rep = nu_bound_check(state)
    _emit_json(
        args,
        {
            "nu": state.nu,
            "iterations": state.iterations,
            "theta": [[float(a), float(b)] for a, b in zip(state.t, state.theta)],
            "bound_ratio": None if rep.skipped else rep.ratio,
            "bound_holds": rep.holds,
        },
        "nekrasov.json",
    )
    return 0


def cmd_pipeline(args):
    cfg = parse_config(args.config)
    return run_pipeline(cfg, args.out or "run_out", steps=args.steps, jobs=args.jobs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vorstokes",
        description="Periodic traveling gravity waves with vorticity on deep water",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--out", default=None, help="output file or directory")

    p = sub.add_parser("trivial", help="laminar shear-flow table")
    common(p)
    p.add_argument("--lam", type=_finite, default=None)
    p.add_argument("--samples", type=int, default=33)
    p.set_defaults(func=cmd_trivial)

    p = sub.add_parser("bifurcate", help="bifurcation point at one epsilon")
    common(p)
    p.add_argument("--epsilon", type=_finite, default=0.0)
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("continue", help="trace a solution branch")
    common(p)
    p.add_argument("--epsilon", type=_finite, default=0.01)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--step-size", type=_finite, default=None)
    p.add_argument("--target-s", type=_finite, default=None)
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("homotopy", help="decreasing-epsilon re-convergence")
    common(p)
    p.add_argument("--target-s", type=_finite, default=None)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("verify", help="verification report for a saved state")
    common(p)
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reconstruct", help="physical fields for a saved state")
    common(p)
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("nekrasov", help="irrotational angle equation")
    p.add_argument("--out", default=None, help="output file or directory")
    p.add_argument("--nu", type=_finite, required=True)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--tol", type=_finite, default=1e-12)
    p.add_argument("--amplitude", type=_finite, default=0.0,
                   help="nonzero seeds the nontrivial solution")
    p.set_defaults(func=cmd_nekrasov)

    p = sub.add_parser("pipeline", help="bifurcate + continue + homotopy + verify")
    common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="epsilon branches traced in parallel threads")
    p.add_argument("--steps", type=int, default=6)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VorStokesError, OSError) as exc:
        # a bad or missing input file is reported like any other bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
