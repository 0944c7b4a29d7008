import argparse
import ast
import base64
import contextlib
import dataclasses
import functools
import importlib
import inspect
import io
import json
import logging
import math
import os
import pkgutil
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import vorstokes
from vorstokes import cli
from vorstokes.config import _DEFAULTS, ENV_PREFIX, parse_config
from vorstokes.errors import ConfigError, DomainError
from vorstokes.strip_solver import WaveState
from vorstokes.wave_physics import physical_grid, reconstruct


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv):
    """Run ``vorstokes *argv`` in this process, with its exit status and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return subprocess.CompletedProcess(["vorstokes", *argv], code, out.getvalue(),
                                       err.getvalue())


def run_module(*argv):
    """Run ``python -m vorstokes.cli *argv`` as a separate process."""
    # the subprocess finds the package through PYTHONPATH, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "vorstokes.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


# -- configuration ----------------------------------------------------------------


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, "vorticity.kind = zero\n"))
    assert cfg.g == 9.81
    assert cfg.L == pytest.approx(math.pi)
    assert cfg.delta == 1e-3
    assert cfg.epsilon_schedule[0] == 0.1
    assert cfg.model().kind == "zero"


def test_unknown_key_is_hard_error(tmp_path):
    for text in ("gravity = 9.81\n", "vorticity.rho = 1\n"):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, text))


def test_nondecreasing_schedule_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "epsilon_schedule = 0.05, 0.1\n"))


def test_zero_delta_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "delta = 0\n"))


def test_env_override(tmp_path, monkeypatch):
    path = write_config(tmp_path, "g = 9.81\n")
    monkeypatch.setenv(ENV_PREFIX + "G", "9.0")
    monkeypatch.setenv(ENV_PREFIX + "VORTICITY_KIND", "gerstner")
    cfg = parse_config(path)
    assert cfg.g == 9.0
    assert cfg.model().kind == "gerstner"


def test_tabulated_kind_rejected_as_config_error(tmp_path):
    # a flat config cannot carry knots
    with pytest.raises(ConfigError, match="vorticity.kind"):
        parse_config(write_config(tmp_path, "vorticity.kind = tabulated\n"))


def test_unknown_vorticity_kind_rejected_as_config_error(tmp_path):
    with pytest.raises(ConfigError, match="vorticity.kind"):
        parse_config(write_config(tmp_path, "vorticity.kind = spiral\n"))


_NUMERIC_KEYS = ["g", "L", "delta", "vorticity.amplitude", "vorticity.rate", "vorticity.m",
                 "grid.nq", "grid.np", "grid.P", "caps.lambda_cap", "caps.w_cap",
                 "caps.wp_cap", "seeds.s0", "seeds.step", "tolerances.newton",
                 "epsilon_schedule"]


@pytest.mark.parametrize("source", ["file", "env", "override"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", _NUMERIC_KEYS)
def test_non_finite_number_rejected_naming_its_key(tmp_path, monkeypatch, key, value, source):
    text = f"0.1, {value}" if key == "epsilon_schedule" else value
    path = None
    if source == "file":
        path = write_config(tmp_path, f"{key} = {text}\n")
    else:
        monkeypatch.setenv(ENV_PREFIX + key.replace(".", "_").upper(), text)
    if source == "override":
        # the environment overrides a valid value from the file
        path = write_config(tmp_path, f"{key} = {_DEFAULTS[key]}\n")
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(path)


@pytest.mark.parametrize("source", ["file", "env"])
def test_zero_seed_amplitude_rejected(tmp_path, monkeypatch, source):
    # s0 = 0 is the trivial solution, which no branch can start from
    if source == "file":
        path = write_config(tmp_path, "seeds.s0 = 0\n")
    else:
        path = None
        monkeypatch.setenv(ENV_PREFIX + "SEEDS_S0", "0")
    with pytest.raises(ConfigError, match=re.escape("seeds.s0")):
        parse_config(path)


def test_negative_seed_amplitude_accepted(tmp_path):
    # the half-period translate of the positive seed
    assert parse_config(write_config(tmp_path, "seeds.s0 = -0.01\n")).s0 == -0.01


def test_comments_and_blank_lines(tmp_path):
    cfg = parse_config(write_config(tmp_path, "# comment\n\nL = 2.0  # trailing\n"))
    assert cfg.L == 2.0


# -- subcommands --------------------------------------------------------------------


def subcommand_parsers():
    """{name: parser} of every subcommand of `cli.build_parser`."""
    subparsers, = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


def test_every_subcommand_flag_is_read():
    # a flag that is parsed must do something: each subcommand's handler reads
    # every flag of its parser, --out also through _emit, _emit_json or _out_path
    for name, parser in subcommand_parsers().items():
        nodes = list(ast.walk(ast.parse(inspect.getsource(parser.get_default("func")))))
        read = {node.attr for node in nodes if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id in ("_emit", "_emit_json", "_out_path") for node in nodes):
            read.add("out")
        flags = {action.dest for action in parser._actions if action.dest != "help"}
        assert flags <= read, f"{name} never reads {sorted(flags - read)}"


def float_flags():
    """(subcommand, flag) for every flag that takes a number other than a count."""
    for name, parser in subcommand_parsers().items():
        for action in parser._actions:
            if action.type not in (None, int):
                yield name, action.option_strings[0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_every_float_flag_rejects_a_non_finite_value(value, capsys):
    # argparse's float takes "nan" and "inf", which passed the `<= 0` tests
    # and reached the artifacts as NaN, which is not JSON
    flags = list(float_flags())
    assert len(flags) == 9
    for name, flag in flags:
        required = ["--nu", "1"] if name == "nekrasov" and flag != "--nu" else []
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([name, *required, flag, value])
        assert exc.value.code == 2, (name, flag)
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("trivial", "--samples", "-1"),
    ("trivial", "--samples", "0"),
    ("nekrasov", "--nu", "6", "--n", "-3"),
])
def test_cli_rejects_too_small_a_count(argv):
    res = run_cli(*argv)
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_cli_nekrasov_rejects_a_non_positive_tol(tol):
    res = run_cli("nekrasov", "--nu", "6", "--amplitude", "0.1", "--tol", tol)
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_trivial_prints_table():
    res = run_cli("trivial", "--lam", "4.0", "--samples", "9")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "# lambda,4.0"
    assert lines[1] == "# c,2.0"
    assert lines[2] == "p,h_tr,h_tr_p"
    assert len(lines) == 12


def test_module_entry_point_exit_status():
    # `python -m vorstokes.cli` exits with the status main returns
    res = run_module("trivial", "--lam", "4.0", "--samples", "9")
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli("trivial", "--lam", "4.0", "--samples", "9").stdout
    res = run_module("trivial", "--samples", "0")
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_bifurcate_json(tmp_path):
    res = run_cli("bifurcate", "--epsilon", "0.0", "--out", str(tmp_path) + os.sep)
    assert res.returncode == 0
    data = json.load(open(tmp_path / "bifurcation.json"))
    assert data["lambda_star"] == pytest.approx(9.81, rel=1e-6)
    assert data["mu"] == pytest.approx(-1.0, rel=1e-12)
    assert data["decay_rate"] == pytest.approx(1.0 / 9.81, rel=1e-5)
    assert len(data["phi"]) > 100


def test_cli_bifurcate_deterministic(tmp_path):
    # two separate processes
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_module("bifurcate", "--epsilon", "0.01", "--out", str(a) + os.sep)
    run_module("bifurcate", "--epsilon", "0.01", "--out", str(b) + os.sep)
    assert (a / "bifurcation.json").read_bytes() == (b / "bifurcation.json").read_bytes()


def test_cli_nekrasov_json(tmp_path):
    res = run_cli("nekrasov", "--nu", "6.0", "--amplitude", "0.1", "--n", "128",
                  "--out", str(tmp_path) + os.sep)
    assert res.returncode == 0
    data = json.load(open(tmp_path / "nekrasov.json"))
    assert data["bound_holds"]
    assert data["bound_ratio"] == pytest.approx(2.0, rel=1e-3)
    assert len(data["theta"]) == 129


def test_cli_continue_verify_reconstruct_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path,
        "vorticity.kind = zero\ngrid.nq = 32\nseeds.s0 = 0.01\nseeds.step = 0.004\n",
    )
    out = tmp_path / "branch"
    res = run_cli("continue", "--config", cfg, "--epsilon", "0.02",
                  "--steps", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "branch.csv").exists()
    points = sorted(out.glob("point_*.json"))
    assert len(points) == 3

    res = run_cli("verify", "--config", cfg, "--state", str(points[-1]),
                  "--out", str(tmp_path) + os.sep)
    assert res.returncode == 0, res.stderr
    report = json.load(open(tmp_path / "verify.json"))
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert "surface_bernoulli" in names and "crest_speed_bound" in names

    res = run_cli("reconstruct", "--config", cfg, "--state", str(points[-1]),
                  "--out", str(tmp_path / "fields"))
    assert res.returncode == 0, res.stderr
    eta_lines = (tmp_path / "fields" / "eta.csv").read_text().strip().splitlines()
    assert eta_lines[0] == "x,eta"
    assert len(eta_lines) == 33
    psi_lines = (tmp_path / "fields" / "psi.csv").read_text().strip().splitlines()
    assert psi_lines[0] == "x,y,psi,psi_x,psi_y"
    pressure_lines = (tmp_path / "fields" / "pressure.csv").read_text().strip().splitlines()
    assert pressure_lines[0] == "x,y,pressure"
    # one row per grid node under the surface, in row-major order, each value by repr
    run_cfg = parse_config(cfg)
    grid = physical_grid(reconstruct(WaveState.load(points[-1]), run_cfg.model(), run_cfg.g))
    psi_rows, pressure_rows = [], []
    for j, k in np.ndindex(grid.psi.shape):
        if np.isfinite(grid.psi[j, k]):
            xy = [repr(float(grid.x[j, k])), repr(float(grid.y[j, k]))]
            psi_rows.append(",".join(xy + [repr(float(f[j, k]))
                                           for f in (grid.psi, grid.psi_x, grid.psi_y)]))
            pressure_rows.append(",".join(xy + [repr(float(grid.pressure[j, k]))]))
    assert psi_lines[1:] == psi_rows and pressure_lines[1:] == pressure_rows
    surfaces = sorted(out.glob("surface_*.csv"))
    assert len(surfaces) == 3


def test_cli_continue_writes_each_surface_trace(tmp_path):
    # surface_k.csv is the header q,w and one row per q node: repr of the
    # node and of w(q, 0) of point_k.json, so it rounds back exactly
    cfg = write_config(tmp_path, "vorticity.kind = zero\ngrid.nq = 16\n")
    out = tmp_path / "branch"
    res = run_cli("continue", "--config", cfg, "--epsilon", "0.05", "--steps", "2",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    for k in range(2):
        state = WaveState.load(out / f"point_{k:03d}.json")
        expected = ["q,w"] + [f"{q!r},{w!r}" for q, w in
                              zip(state.grid.q_nodes.tolist(), state.w[-1].tolist())]
        assert (out / f"surface_{k:03d}.csv").read_text() == "\n".join(expected) + "\n"
    assert not (out / "surface_002.csv").exists()


@pytest.mark.parametrize("flag", ["--step-size", "--target-s"])
def test_cli_continue_rejects_a_zero_step_or_amplitude(tmp_path, flag):
    # a zero value is taken as given, not replaced by the config's
    cfg = write_config(tmp_path, "vorticity.kind = zero\ngrid.nq = 16\n")
    out = tmp_path / "branch"
    res = run_cli("continue", "--config", cfg, "--epsilon", "0.05", "--steps", "1",
                  flag, "0", "--out", str(out))
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert not (out / "branch.csv").exists()


def test_cli_homotopy(tmp_path):
    cfg = write_config(
        tmp_path,
        "vorticity.kind = zero\ngrid.nq = 32\nepsilon_schedule = 0.1, 0.05, 0.025\n",
    )
    res = run_cli("homotopy", "--config", cfg, "--target-s", "0.01",
                  "--out", str(tmp_path) + os.sep)
    assert res.returncode == 0, res.stderr
    data = json.load(open(tmp_path / "homotopy.json"))
    assert len(data["lambdas"]) == 3
    assert len(data["sup_diffs"]) == 2
    assert data["sup_diffs"][0] > data["sup_diffs"][1]


def test_cli_homotopy_rejects_a_zero_target(tmp_path):
    # the trivial solution has no amplitude to hold, as for `continue`
    cfg = write_config(tmp_path, "vorticity.kind = zero\ngrid.nq = 16\n"
                                 "epsilon_schedule = 0.1, 0.05\n")
    res = run_cli("homotopy", "--config", cfg, "--target-s", "0",
                  "--out", str(tmp_path) + os.sep)
    assert res.returncode == 2
    assert "error:" in res.stderr and "target_s = 0" in res.stderr
    assert not (tmp_path / "homotopy.json").exists()


def test_cli_pipeline_exit_status(tmp_path):
    cfg = write_config(
        tmp_path,
        "vorticity.kind = zero\ngrid.nq = 24\n"
        "epsilon_schedule = 0.05, 0.025\nseeds.s0 = 0.008\nseeds.step = 0.003\n",
    )
    out = tmp_path / "run"
    res = run_cli("pipeline", "--config", cfg, "--steps", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["all_verified"]
    assert manifest["bifurcation_condition"]["holds"]
    assert (out / "branch_eps0p05.csv").exists()
    assert len(manifest["homotopy"]["sup_diffs"]) == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_pipeline_rejects_fewer_than_one_job(tmp_path, jobs):
    cfg = write_config(tmp_path, "vorticity.kind = zero\ngrid.nq = 16\n"
                                 "epsilon_schedule = 0.05\n")
    out = tmp_path / "run"
    res = run_cli("pipeline", "--config", cfg, "--steps", "1", "--jobs", jobs,
                  "--out", str(out))
    assert res.returncode == 2
    assert "error: jobs must be at least 1" in res.stderr
    assert not out.exists()


def test_cli_pipeline_rejects_a_zero_seed_amplitude(tmp_path):
    # used to make --out and solve the first bifurcation point before failing
    cfg = write_config(tmp_path, "vorticity.kind = zero\ngrid.nq = 16\n"
                                 "epsilon_schedule = 0.05\nseeds.s0 = 0\n")
    out = tmp_path / "run"
    res = run_cli("pipeline", "--config", cfg, "--steps", "1", "--out", str(out))
    assert res.returncode == 2
    assert "error:" in res.stderr and "seeds.s0" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["continue", "pipeline"])
@pytest.mark.parametrize("steps", ["0", "-1"])
def test_cli_rejects_fewer_than_one_step(tmp_path, command, steps):
    # a zero or negative step budget used to solve and write one point
    cfg = write_config(tmp_path, "vorticity.kind = zero\ngrid.nq = 16\n"
                                 "epsilon_schedule = 0.05\n")
    out = tmp_path / "run"
    extra = ["--epsilon", "0.05"] if command == "continue" else []
    res = run_cli(command, "--config", cfg, *extra, "--steps", steps, "--out", str(out))
    assert res.returncode == 2
    assert "error: steps must be at least 1" in res.stderr
    assert not out.exists()


def test_cli_records_match_pipeline(tmp_path):
    # bifurcate, homotopy and continue write the records the pipeline writes
    from vorstokes.pipeline import grid_for

    cfg = write_config(
        tmp_path,
        "vorticity.kind = zero\ngrid.nq = 24\n"
        "epsilon_schedule = 0.05, 0.025\nseeds.s0 = 0.008\nseeds.step = 0.003\n",
    )
    out = tmp_path / "run"
    res = run_cli("pipeline", "--config", cfg, "--steps", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    manifest = json.load(open(out / "manifest.json"))

    res = run_cli("bifurcate", "--config", cfg, "--epsilon", "0.05",
                  "--out", str(tmp_path) + os.sep)
    assert res.returncode == 0, res.stderr
    record = json.load(open(tmp_path / "bifurcation.json"))
    # one JSON format: the same bytes, not only the same values
    assert ((tmp_path / "bifurcation.json").read_bytes()
            == (out / "bifurcation_eps0p05.json").read_bytes())
    # Phi on the p nodes of the strip grid the branch is solved on, surface first
    grid = grid_for(parse_config(cfg), record["lambda_star"], 0.05)
    assert len(record["phi"]) == grid.np
    assert record["phi"][0] == [0.0, 1.0]
    assert [p for p, _ in record["phi"]] == grid.p_nodes[::-1].tolist()

    res = run_cli("homotopy", "--config", cfg, "--out", str(tmp_path) + os.sep)
    assert res.returncode == 0, res.stderr
    assert json.load(open(tmp_path / "homotopy.json")) == manifest["homotopy"]

    branch = tmp_path / "branch"
    res = run_cli("continue", "--config", cfg, "--epsilon", "0.05", "--steps", "2",
                  "--out", str(branch))
    assert res.returncode == 0, res.stderr
    assert (branch / "branch.csv").read_bytes() == (out / "branch_eps0p05.csv").read_bytes()


@pytest.mark.parametrize("np_, P", [(0, 0.0), (40, 0.0), (0, 9.0), (40, 9.0)])
def test_grid_for_takes_each_set_grid_key(tmp_path, np_, P):
    # an unset (zero) key comes from the decay estimate of default_grid
    from vorstokes.pipeline import grid_for
    from vorstokes.strip_solver import default_grid

    cfg = parse_config(write_config(
        tmp_path, f"vorticity.kind = zero\ngrid.nq = 16\ngrid.np = {np_}\ngrid.P = {P}\n"))
    auto = default_grid(cfg.L, 3.0, 0.01, nq=16)
    grid = grid_for(cfg, 3.0, 0.01)
    assert (grid.L, grid.nq) == (cfg.L, 16)
    assert grid.np == (np_ or auto.np)
    assert grid.P == (P or auto.P)


def test_pipeline_concurrent_jobs_byte_identical(tmp_path):
    # identical config: parallel epsilon branches must reproduce the
    # sequential artifacts byte for byte
    from vorstokes.pipeline import run_pipeline

    cfg = write_config(
        tmp_path,
        "vorticity.kind = zero\ngrid.nq = 24\n"
        "epsilon_schedule = 0.05, 0.025\nseeds.s0 = 0.008\nseeds.step = 0.003\n",
    )
    parsed = parse_config(cfg)
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    assert run_pipeline(parsed, str(out1), steps=2, jobs=1) == 0
    assert run_pipeline(parsed, str(out2), steps=2, jobs=2) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_pipeline_homotopy_starts_from_the_first_branch_point(tmp_path, monkeypatch):
    # the homotopy's first entry is the first epsilon's first branch point,
    # not a second solve of it
    from vorstokes import pipeline

    starts, real = [], pipeline.epsilon_homotopy

    def recording(model, g, start, *args, **kwargs):
        starts.append(start)
        return real(model, g, start, *args, **kwargs)

    monkeypatch.setattr(pipeline, "epsilon_homotopy", recording)
    cfg = parse_config(write_config(
        tmp_path,
        "vorticity.kind = zero\ngrid.nq = 24\n"
        "epsilon_schedule = 0.05, 0.025\nseeds.s0 = 0.008\nseeds.step = 0.003\n",
    ))
    assert pipeline.run_pipeline(cfg, str(tmp_path), steps=2) == 0
    first = WaveState.load(tmp_path / "state_eps0p05_000.json")
    assert (starts[0].lam, starts[0].w.tobytes()) == (first.lam, first.w.tobytes())
    manifest = json.load(open(tmp_path / "manifest.json"))
    with open(tmp_path / "branch_eps0p05.csv") as fh:
        first_row = dict(zip(next(fh).strip().split(","), next(fh).strip().split(",")))
    assert manifest["homotopy"]["lambdas"][0] == float(first_row["lambda"])


def test_trace_branch_differentiates_each_point_at_most_twice(tmp_path, derivative_passes):
    # a point's last corrector evaluation feeds its termination test and its
    # branch row, and verify_all's reconstruction makes the second pass; the
    # first point, from an amplitude solve, is evaluated once more for its
    # tangent and row
    from vorstokes.pipeline import trace_branch

    cfg = parse_config(write_config(
        tmp_path,
        "vorticity.kind = zero\ngrid.nq = 24\nseeds.s0 = 0.008\nseeds.step = 0.003\n",
    ))
    branch = trace_branch(cfg, 0.05, 4, cfg.step, cfg.s0)[1]
    assert len(branch.points) == 4
    passes = [derivative_passes.count(state.w.tobytes()) for state in branch.points]
    assert passes[0] <= 3 and max(passes[1:]) <= 2, passes


def test_debug_logging_leaves_the_artifacts_unchanged(tmp_path, caplog):
    from vorstokes.pipeline import run_pipeline

    cfg = parse_config(write_config(
        tmp_path,
        "vorticity.kind = zero\ngrid.nq = 24\n"
        "epsilon_schedule = 0.05, 0.025\nseeds.s0 = 0.008\nseeds.step = 0.003\n",
    ))
    quiet, logged = tmp_path / "quiet", tmp_path / "logged"
    assert run_pipeline(cfg, str(quiet), steps=2, jobs=1) == 0
    with caplog.at_level(logging.DEBUG, logger="vorstokes"):
        assert run_pipeline(cfg, str(logged), steps=2, jobs=1) == 0
    assert any(" update 1: fresh P, " in rec.getMessage() for rec in caplog.records)
    names = sorted(p.name for p in quiet.iterdir())
    assert names == sorted(p.name for p in logged.iterdir())
    for name in names:
        assert (quiet / name).read_bytes() == (logged / name).read_bytes(), name


def test_cli_error_reporting(tmp_path):
    bad = write_config(tmp_path, "delta = -1\n")
    res = run_cli("bifurcate", "--config", bad)
    assert res.returncode == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize("field, value, match", [
    ("w", [0.0] * 64, "regenerate"),      # the old list-of-floats form
    ("grid", None, "no 'grid' field"),
], ids=["list_w", "no_grid"])
def test_cli_reports_a_malformed_state_file(tmp_path, field, value, match):
    state = {"lambda": 5.0, "epsilon": 0.1,
             "grid": {"L": math.pi, "P": 12.0, "nq": 8, "np": 8}, "w": [0.0] * 64}
    if value is None:
        del state[field]
    else:
        state[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(state))
    res = run_cli("verify", "--state", str(bad))
    assert res.returncode == 2
    assert "error:" in res.stderr and match in res.stderr
    assert "Traceback" not in res.stderr


# an infinite w already failed verification with an error; a NaN one wrote a report
NON_FINITE_STATE_FIELDS = [("L", math.nan), ("L", math.inf), ("P", math.nan),
                           ("P", math.inf), ("w", math.nan)]


def state_with(field, value):
    """The JSON object of a zero state on an 8 x 8 grid, with ``field`` set to ``value``."""
    grid = {"L": math.pi, "P": 12.0, "nq": 8, "np": 8}
    w = [0.0] * 64
    if field == "w":
        w[9] = value
    else:
        grid[field] = value
    return {"lambda": 5.0, "epsilon": 0.1, "grid": grid,
            "w": base64.b64encode(struct.pack("<64d", *w)).decode("ascii")}


@pytest.mark.parametrize("field, value", NON_FINITE_STATE_FIELDS + [("w", math.inf)])
def test_state_with_a_non_finite_value_is_rejected(field, value):
    with pytest.raises(DomainError, match="finite"):
        WaveState.from_dict(state_with(field, value))


@pytest.mark.parametrize("field, value", NON_FINITE_STATE_FIELDS)
def test_cli_verify_rejects_a_non_finite_state(tmp_path, capsys, field, value):
    # a malformed input exits 2 with an error, not a failing report
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(state_with(field, value)))
    assert cli.main(["verify", "--state", str(bad), "--out", str(tmp_path / "v.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("argv", [
    ("verify", "--state", "missing.json"),
    ("bifurcate", "--config", "missing.cfg"),
])
def test_cli_reports_a_missing_input_file(tmp_path, argv):
    res = run_cli(*(str(tmp_path / a) if a.startswith("missing") else a for a in argv))
    assert res.returncode == 2
    assert "error:" in res.stderr and "missing" in res.stderr
    assert "Traceback" not in res.stderr


# -- documentation --------------------------------------------------------------------


README = os.path.join(os.path.dirname(SRC), "README.md")


def readme_block(start):
    """The blank-line-separated block of README.md that begins with ``start``."""
    return next(block for block in open(README).read().split("\n\n")
                if block.startswith(start))


def test_readme_names_every_config_key():
    paragraph = readme_block("Configuration files are flat")
    assert [key for key in _DEFAULTS if f"`{key}`" not in paragraph] == []
    assert f"with {len(_DEFAULTS)} keys" in paragraph


def test_readme_and_cli_docstring_name_every_subcommand():
    usage = readme_block("```sh\nvorstokes ")
    listed = re.findall(r"^    (\w+) ", cli.__doc__, flags=re.MULTILINE)
    for name in subcommand_parsers():
        assert f"vorstokes {name} " in usage, name
        assert name in listed, name


# backticked README words that are not code names: math symbols, termination
# values, the corrector's update paths and values of config keys; the config
# keys and subcommands themselves are read from the code
README_WORDS = {
    "Gamma", "O_delta", "lambda", "lambda_eps", "r", "s", "w_q",
    "LambdaFloor", "MaxSteps", "StagnationClause", "StepFloor", "SurfaceClause",
    "Krylov", "chord",
    "expdecay", "gerstner", "inf", "nan", "zero",
}
NAME = r"[A-Za-z_]\w*(?:\.\w+)*"


def cited_names(markdown):
    """The code names ``markdown`` cites in backticks, outside its fenced blocks.

    A span that is a dotted name (``Class.attr``, ``.attr``), a call of one
    (its arguments are not names) or a tuple of them cites those names; any
    other span, a formula, a flag or a path, cites none.
    """
    text = re.sub(r"```.*?```", "", markdown, flags=re.DOTALL)
    names = []
    for span in re.findall(r"`([^`]+)`", text):
        span = " ".join(span.split())
        call = re.fullmatch(rf"\.?({NAME})(?:\(.*\))?", span)
        items = re.fullmatch(rf"\(({NAME}(?:, {NAME})*)\)", span)
        names += [call[1]] if call else items[1].split(", ") if items else []
    return names


@functools.lru_cache(maxsize=None)
def _members(obj):
    """Attribute names of a module or class: its own, dataclass fields and ``self.`` names."""
    names = set(dir(obj))
    if inspect.isclass(obj):
        if dataclasses.is_dataclass(obj):
            names |= {f.name for f in dataclasses.fields(obj)}
        names |= set(re.findall(r"self\.(\w+)", inspect.getsource(obj)))
    return frozenset(names)


def unresolved_readme_names(names):
    """The ``names`` that no vorstokes module, class or class attribute defines."""
    modules = {"vorstokes": vorstokes}
    modules.update((info.name, importlib.import_module(f"vorstokes.{info.name}"))
                   for info in pkgutil.iter_modules(vorstokes.__path__))
    classes = {cls for mod in modules.values() for _, cls in inspect.getmembers(mod)
               if inspect.isclass(cls) and cls.__module__.startswith("vorstokes")}
    words = README_WORDS | set(_DEFAULTS) | set(subcommand_parsers())
    missing = []
    for name in names:
        head, *rest = name.split(".")
        found = ([modules[head]] if head in modules else
                 [getattr(m, head) for m in modules.values() if head in _members(m)])
        if not rest and not found:
            found = [cls for cls in classes if head in _members(cls)]
        for part in rest:
            found = [getattr(obj, part, None) for obj in found if part in _members(obj)]
        if not found and name not in words:
            missing.append(name)
    return missing


def test_readme_cites_only_names_the_code_defines():
    names = cited_names(open(README).read())
    assert len(names) > 50 and README_WORDS <= set(names)
    assert unresolved_readme_names(names) == []
    # names the code no longer defines, cited the ways the README cites names
    for span in ("`_mode_maps`", "`LUSlot.factor_tuple`", "`(lu, into, back)`",
                 "`Branch.tangent_pair()`", "`.t_lam`"):
        assert unresolved_readme_names(cited_names(span)) != [], span
