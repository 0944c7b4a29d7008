"""Spans recorded from outside the library, and the per-layer metrics built on them.

`Tracer.install` wraps the public functions of each vorstokes module (and the
``splu`` name `vorstokes.continuation` imports) so that every call records one
span: name, start, end, parent span, run id and whether it raised.  Spans stay
in memory until `Tracer.write_jsonl`.  `Tracer.remove` puts the originals back,
so an untraced run in the same process pays nothing.

`layer_metrics` turns the spans into the per-layer metrics of BENCHMARK.json.
A metric whose hook could not be installed, or whose hook was never called on a
workload that must call it, is reported as missing rather than as 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

PIPELINE, BRANCH, ORACLE = "pipeline_default", "branch_fine", "verify_oracle"
SOLVER_WORKLOADS = {PIPELINE, BRANCH}

# span name, module, attribute ("Class.method" for methods), span attributes
# taken from the result, whether to patch every vorstokes module that imported
# the same function object.
HOOKS = [
    ("continuation.splu", "vorstokes.continuation", "splu",
     lambda lu: {"nnz": int(lu.nnz)}, False),
    ("continuation.solve_bordered", "vorstokes.continuation", "solve_bordered", None, True),
    ("continuation.arclength_step", "vorstokes.continuation", "arclength_step", None, True),
    ("continuation.solve_at_amplitude", "vorstokes.continuation", "solve_at_amplitude",
     None, True),
    ("continuation.branch_tangent", "vorstokes.continuation", "branch_tangent", None, True),
    ("continuation.epsilon_homotopy", "vorstokes.continuation", "epsilon_homotopy",
     None, True),
    ("strip_solver.jacobian", "vorstokes.strip_solver", "StripOperator.jacobian", None, False),
    ("strip_solver.residual", "vorstokes.strip_solver", "StripOperator.residual_vector",
     None, False),
    ("strip_solver.dlambda", "vorstokes.strip_solver",
     "StripOperator.d_residual_d_lambda", None, False),
    ("strip_solver.admissible", "vorstokes.strip_solver", "StripOperator.is_admissible",
     lambda ok: {"ok": bool(ok)}, False),
    ("strip_solver.state_save", "vorstokes.strip_solver", "WaveState.save", None, False),
    ("strip_solver.state_load", "vorstokes.strip_solver", "WaveState.load", None, False),
    ("wave_physics.verify", "vorstokes.wave_physics", "verify_all",
     lambda rep: {"failed_checks": len(rep.failures())}, True),
    ("wave_physics.reconstruct", "vorstokes.wave_physics", "reconstruct", None, True),
    ("nekrasov.solve", "vorstokes.nekrasov", "solve_nekrasov",
     lambda st: {"iterations": int(st.iterations)}, True),
    ("sturm_liouville.bifurcation", "vorstokes.sturm_liouville", "find_bifurcation_point",
     None, True),
    ("pipeline.report_write", "vorstokes.pipeline", "_dump_json", None, True),
    ("pipeline.report_write", "vorstokes.pipeline", "write_csv", None, True),
]


class Tracer:
    """In-memory span recorder that patches the hooks in and out."""

    def __init__(self):
        self.spans = []
        self.run_id = "setup"
        self.missing = set()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": tracer.run_id,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "error": False}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span.update(attrs(result))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, module_name, path, attrs, scan in HOOKS:
            try:
                module = importlib.import_module(module_name)
                *cls_path, attr = path.split(".")
                owner = module
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(name)
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__, attrs)))
                continue
            wrapped = self._wrap(name, raw, attrs)
            self._patch(owner, attr, wrapped)
            if scan:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is module or not mod_name.startswith("vorstokes"):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._patch(mod, key, wrapped)

    def remove(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write_jsonl(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, **span}) + "\n")


# metric -> (unit, hooks that must be installed, hook that must be called,
# workloads that must call it)
LAYER_METRICS = {
    "continuation.factorizations": ("count", ["continuation.splu"], "continuation.splu",
                                    SOLVER_WORKLOADS),
    "continuation.factor_s": ("s", ["continuation.splu"], "continuation.splu",
                              SOLVER_WORKLOADS),
    "continuation.lu_nnz": ("count", ["continuation.splu"], "continuation.splu",
                            SOLVER_WORKLOADS),
    "continuation.bordered_self_s": ("s", ["continuation.solve_bordered", "continuation.splu"],
                                     "continuation.solve_bordered", SOLVER_WORKLOADS),
    "continuation.newton_iters": ("count", ["continuation.solve_bordered",
                                            "continuation.arclength_step",
                                            "continuation.solve_at_amplitude"],
                                  "newton", SOLVER_WORKLOADS),
    "continuation.tangents": ("count", ["continuation.solve_bordered",
                                        "continuation.branch_tangent"],
                              "tangent", SOLVER_WORKLOADS),
    "continuation.step_attempts": ("count", ["continuation.arclength_step"],
                                   "continuation.arclength_step", SOLVER_WORKLOADS),
    "continuation.step_failed": ("count", ["continuation.arclength_step"],
                                 "continuation.arclength_step", SOLVER_WORKLOADS),
    "continuation.step_accept_ratio": ("ratio", ["continuation.arclength_step"],
                                       "continuation.arclength_step", SOLVER_WORKLOADS),
    "continuation.homotopy_s": ("s", ["continuation.epsilon_homotopy"],
                                "continuation.epsilon_homotopy", {PIPELINE}),
    "strip_solver.jacobian.calls": ("count", ["strip_solver.jacobian"],
                                    "strip_solver.jacobian", SOLVER_WORKLOADS),
    "strip_solver.jacobian_s": ("s", ["strip_solver.jacobian"], "strip_solver.jacobian",
                                SOLVER_WORKLOADS),
    "strip_solver.residual.calls": ("count", ["strip_solver.residual"],
                                    "strip_solver.residual", SOLVER_WORKLOADS),
    "strip_solver.residual_s": ("s", ["strip_solver.residual"], "strip_solver.residual",
                                SOLVER_WORKLOADS),
    "strip_solver.dlambda_s": ("s", ["strip_solver.dlambda"], "strip_solver.dlambda",
                               SOLVER_WORKLOADS),
    "strip_solver.admissible.calls": ("count", ["strip_solver.admissible"],
                                      "strip_solver.admissible", SOLVER_WORKLOADS),
    "strip_solver.admissible.rejects": ("count", ["strip_solver.admissible"],
                                        "strip_solver.admissible", SOLVER_WORKLOADS),
    "strip_solver.state_save_s": ("s", ["strip_solver.state_save"],
                                  "strip_solver.state_save", {PIPELINE, ORACLE}),
    "strip_solver.state_load_s": ("s", ["strip_solver.state_load"],
                                  "strip_solver.state_load", {ORACLE}),
    "wave_physics.verify.calls": ("count", ["wave_physics.verify"], "wave_physics.verify",
                                  {PIPELINE, ORACLE}),
    "wave_physics.verify_s": ("s", ["wave_physics.verify"], "wave_physics.verify",
                              {PIPELINE, ORACLE}),
    "wave_physics.reconstruct.calls": ("count", ["wave_physics.reconstruct"],
                                       "wave_physics.reconstruct", {PIPELINE, ORACLE}),
    "wave_physics.reconstruct_s": ("s", ["wave_physics.reconstruct"],
                                   "wave_physics.reconstruct", {PIPELINE, ORACLE}),
    "wave_physics.checks_failed": ("count", ["wave_physics.verify"], "wave_physics.verify",
                                   {PIPELINE, ORACLE}),
    "nekrasov.solve_s": ("s", ["nekrasov.solve"], "nekrasov.solve", {ORACLE}),
    "nekrasov.picard_iters": ("count", ["nekrasov.solve"], "nekrasov.solve", {ORACLE}),
    "nekrasov.oracle_err": ("ratio", ["nekrasov.solve"], "nekrasov.solve", {ORACLE}),
    "sturm_liouville.bifurcation.calls": ("count", ["sturm_liouville.bifurcation"],
                                          "sturm_liouville.bifurcation",
                                          {PIPELINE, BRANCH, ORACLE}),
    "sturm_liouville.bifurcation_s": ("s", ["sturm_liouville.bifurcation"],
                                      "sturm_liouville.bifurcation",
                                      {PIPELINE, BRANCH, ORACLE}),
    "pipeline.report_write_s": ("s", ["pipeline.report_write"], "pipeline.report_write",
                                {PIPELINE}),
    "trace.overhead_s": ("s", [], None, set()),
    "trace.spans": ("count", [], None, set()),
}


def layer_metrics(tracer, workload, units, normalize, overhead_s, oracle_err):
    """Per-layer metrics per unit of timed work, plus the names reported missing.

    Counts and times cover the traced units, divided by ``units``; the
    bifurcation metrics also cover one set-up, because that is where most
    workloads solve for the bifurcation point.  ``normalize(start, end)``
    turns a span into a duration.
    """
    spans = tracer.spans
    dur = [normalize(span["start"], span["end"]) for span in spans]
    covered = defaultdict(float)
    for idx, span in enumerate(spans):
        if span["parent"] is not None:
            covered[span["parent"]] += dur[idx]
    self_s = [d - covered[idx] for idx, d in enumerate(dur)]
    timed = defaultdict(list)
    setup = defaultdict(list)
    for idx, span in enumerate(spans):
        (setup if span["run"] == "setup" else timed)[span["name"]].append(idx)
        parent = span["parent"]
        if span["name"] == "continuation.solve_bordered" and parent is not None:
            kind = {"continuation.arclength_step": "newton",
                    "continuation.solve_at_amplitude": "newton",
                    "continuation.branch_tangent": "tangent"}.get(spans[parent]["name"])
            if kind is not None and span["run"] != "setup":
                timed[kind].append(idx)

    def count(name):
        return len(timed[name]) / units

    def total(name, key=None):
        return sum(spans[i][key] if key else dur[i] for i in timed[name]) / units

    attempts = len(timed["continuation.arclength_step"])
    failed_steps = sum(spans[i]["error"] for i in timed["continuation.arclength_step"])
    nnz = [spans[i]["nnz"] for i in timed["continuation.splu"]]
    bif = setup["sturm_liouville.bifurcation"]
    values = {
        "continuation.factorizations": count("continuation.splu"),
        "continuation.factor_s": total("continuation.splu"),
        "continuation.lu_nnz": statistics.fmean(nnz) if nnz else 0.0,
        "continuation.bordered_self_s":
            sum(self_s[i] for i in timed["continuation.solve_bordered"]) / units,
        "continuation.newton_iters": count("newton"),
        "continuation.tangents": count("tangent"),
        "continuation.step_attempts": attempts / units,
        "continuation.step_failed": failed_steps / units,
        "continuation.step_accept_ratio":
            (attempts - failed_steps) / attempts if attempts else 0.0,
        "continuation.homotopy_s": total("continuation.epsilon_homotopy"),
        "strip_solver.jacobian.calls": count("strip_solver.jacobian"),
        "strip_solver.jacobian_s": total("strip_solver.jacobian"),
        "strip_solver.residual.calls": count("strip_solver.residual"),
        "strip_solver.residual_s": total("strip_solver.residual"),
        "strip_solver.dlambda_s": total("strip_solver.dlambda"),
        "strip_solver.admissible.calls": count("strip_solver.admissible"),
        "strip_solver.admissible.rejects":
            sum(not spans[i]["ok"] for i in timed["strip_solver.admissible"]
                if not spans[i]["error"]) / units,
        "strip_solver.state_save_s": total("strip_solver.state_save"),
        "strip_solver.state_load_s": total("strip_solver.state_load"),
        "wave_physics.verify.calls": count("wave_physics.verify"),
        "wave_physics.verify_s": total("wave_physics.verify"),
        "wave_physics.reconstruct.calls": count("wave_physics.reconstruct"),
        "wave_physics.reconstruct_s": total("wave_physics.reconstruct"),
        "wave_physics.checks_failed": total("wave_physics.verify", "failed_checks"),
        "nekrasov.solve_s": total("nekrasov.solve"),
        "nekrasov.picard_iters": total("nekrasov.solve", "iterations"),
        "nekrasov.oracle_err": oracle_err if oracle_err is not None else 0.0,
        "sturm_liouville.bifurcation.calls": len(bif) + count("sturm_liouville.bifurcation"),
        "sturm_liouville.bifurcation_s":
            sum(dur[i] for i in bif) + total("sturm_liouville.bifurcation"),
        "pipeline.report_write_s": total("pipeline.report_write"),
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(span["run"] != "setup" for span in spans) / units,
    }

    metrics, missing = {}, {}
    for name, (unit, needs, called, must) in LAYER_METRICS.items():
        absent = [hook for hook in needs if hook in tracer.missing]
        if absent:
            missing[name] = f"hook not installed: {', '.join(absent)}"
        elif workload in must and not (timed[called] or setup[called]):
            missing[name] = f"{called} never called on {workload}"
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, missing
