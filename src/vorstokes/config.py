"""Run configuration: key-value text files with environment overrides.

The format is flat ``key = value`` lines with ``#`` comments; nested groups
use dotted keys (``vorticity.kind``, ``grid.nq``).  Unknown keys and
non-finite numbers are hard errors.  Every key can be overridden through the
environment as ``VORSTOKES_<KEY>`` with dots replaced by underscores, e.g.
``VORSTOKES_VORTICITY_KIND``.

``delta``, ``caps.w_cap`` and ``caps.wp_cap`` are absolute values in the
strip's units, the units of g and L: delta is the margin of O_delta's
clauses (lambda + 2 inf Gamma and 2 lambda - 4 g w, velocities squared;
a^-1 + w_p, an inverse velocity), w_cap bounds |w| (a length) and wp_cap
bounds w_p.  Their defaults were chosen for g = 9.81 and L = pi and do not
scale with g or L.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .continuation import Caps
from .errors import ConfigError, DomainError
from .strip_solver import DELTA_DEFAULT
from .vorticity import VorticityModel, model_from_config

__all__ = ["RunConfig", "parse_config", "ENV_PREFIX"]

ENV_PREFIX = "VORSTOKES_"

_DEFAULTS = {
    "g": 9.81,
    "L": math.pi,
    "delta": DELTA_DEFAULT,
    "vorticity.kind": "zero",
    "vorticity.amplitude": 1.0,
    "vorticity.rate": 1.0,
    "vorticity.m": 0.5,
    "grid.nq": 64,
    "grid.np": 0,          # 0 = choose from the decay estimate
    "grid.P": 0.0,         # 0 = choose from the decay estimate
    "caps.lambda_cap": 0.0,  # 0 = the default of Caps.default
    "caps.w_cap": Caps.w_cap,
    "caps.wp_cap": Caps.wp_cap,
    "epsilon_schedule": "0.1,0.05,0.025,0.0125,0.00625",
    "seeds.s0": 0.01,
    "seeds.step": 0.005,
    "tolerances.newton": 1e-10,
}

_INT_KEYS = {"grid.nq", "grid.np"}
_STR_KEYS = {"vorticity.kind", "epsilon_schedule"}


@dataclass
class RunConfig:
    """Validated solver configuration."""

    g: float
    L: float
    delta: float
    vorticity: dict
    nq: int
    np: int
    P: float
    lambda_cap: float
    w_cap: float
    wp_cap: float
    epsilon_schedule: list
    s0: float
    step: float
    newton_tol: float
    raw: dict = field(default_factory=dict, repr=False)

    def model(self) -> VorticityModel:
        return model_from_config(self.vorticity)

    def caps(self) -> Caps:
        """Termination caps; a zero lambda_cap takes the one of Caps.default."""
        lambda_cap = self.lambda_cap or Caps.default(self.g, self.L).lambda_cap
        return Caps(lambda_cap=lambda_cap, w_cap=self.w_cap, wp_cap=self.wp_cap)


def _coerce(key, text):
    if key in _STR_KEYS:
        return text
    if key in _INT_KEYS:
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"key {key}: expected an integer, got {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"key {key}: expected a number, got {text!r}") from exc


def _read_pairs(path):
    pairs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            pairs[key] = value
    return pairs


def parse_config(path=None) -> RunConfig:
    """Read, override from the environment and validate a configuration.

    ``path`` may be None to start from defaults.
    """
    values = dict(_DEFAULTS)
    if path is not None:
        for key, text in _read_pairs(path).items():
            values[key] = _coerce(key, text)
    for key in _DEFAULTS:
        env_name = ENV_PREFIX + key.replace(".", "_").upper()
        if env_name in os.environ:
            values[key] = _coerce(key, os.environ[env_name])
    _check_finite(values)

    schedule_text = values["epsilon_schedule"]
    try:
        schedule = [float(x) for x in schedule_text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad epsilon_schedule {schedule_text!r}") from exc

    cfg = RunConfig(
        g=float(values["g"]),
        L=float(values["L"]),
        delta=float(values["delta"]),
        vorticity={
            "kind": str(values["vorticity.kind"]),
            "amplitude": float(values["vorticity.amplitude"]),
            "rate": float(values["vorticity.rate"]),
            "m": float(values["vorticity.m"]),
        },
        nq=int(values["grid.nq"]),
        np=int(values["grid.np"]),
        P=float(values["grid.P"]),
        lambda_cap=float(values["caps.lambda_cap"]),
        w_cap=float(values["caps.w_cap"]),
        wp_cap=float(values["caps.wp_cap"]),
        epsilon_schedule=schedule,
        s0=float(values["seeds.s0"]),
        step=float(values["seeds.step"]),
        newton_tol=float(values["tolerances.newton"]),
        raw=values,
    )
    _validate(cfg)
    return cfg


def _check_finite(values):
    # _coerce's float() accepts "nan" and "inf", which no key may take
    for key, val in values.items():
        if key not in _STR_KEYS and not math.isfinite(val):
            raise ConfigError(f"key {key}: expected a finite number, got {val!r}")


def _validate(cfg: RunConfig):
    if cfg.g <= 0 or cfg.L <= 0:
        raise ConfigError("g and L must be positive")
    if cfg.delta <= 0:
        raise ConfigError("delta must be positive (the admissible set needs a margin)")
    if cfg.nq < 8 or (cfg.np and cfg.np < 8):
        raise ConfigError("grid counts must be at least 8")
    if cfg.P < 0:
        raise ConfigError("truncation depth cannot be negative")
    if cfg.w_cap <= 0 or cfg.wp_cap <= 0 or cfg.lambda_cap < 0:
        raise ConfigError("caps must be positive")
    sched = cfg.epsilon_schedule
    if not sched:
        raise ConfigError("epsilon_schedule may not be empty")
    if any(not (0.0 <= e < 1.0) for e in sched):
        raise ConfigError("epsilon_schedule entries must lie in [0, 1)")
    if any(b >= a for a, b in zip(sched, sched[1:])):
        raise ConfigError("epsilon_schedule must be strictly decreasing")
    if cfg.newton_tol <= 0:
        raise ConfigError("tolerances.newton must be positive")
    if cfg.step <= 0:
        raise ConfigError("continuation step must be positive")
    if cfg.s0 == 0:
        # a negative s0 is the half-period translate; zero is the trivial solution
        raise ConfigError("seeds.s0 must be nonzero: a branch cannot start on the "
                          "trivial solution")
    try:
        cfg.model()
    except DomainError as exc:
        raise ConfigError(f"vorticity.kind = {cfg.vorticity['kind']}: {exc}") from exc
