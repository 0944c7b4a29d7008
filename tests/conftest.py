import math
import sys

import numpy as np
import pytest

import vorstokes  # imports every module that may bind derivative_fields
from vorstokes import strip_solver
from vorstokes.continuation import continue_branch, epsilon_homotopy, initial_nontrivial_guess
from vorstokes.strip_solver import StripOperator, default_grid
from vorstokes.sturm_liouville import SLProblem, find_bifurcation_point
from vorstokes.vorticity import GerstnerVorticity, ZeroVorticity

G = 9.81
L = math.pi
EPS_RUN = 0.01
SCHEDULE = [0.1, 0.05, 0.025, 0.0125, 0.00625]


@pytest.fixture
def derivative_passes(monkeypatch):
    """``w.tobytes()`` of every `derivative_fields` pass while the test runs.

    The recorder replaces the name in every vorstokes module that bound it,
    so a pass made through any module's own import is seen.
    """
    real, seen = strip_solver.derivative_fields, []

    def recording(grid, w):
        seen.append(np.asarray(w).tobytes())
        return real(grid, w)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "derivative_fields", None) is real
        if bound and name.partition(".")[0] == vorstokes.__name__:
            monkeypatch.setattr(module, "derivative_fields", recording)
    return seen


@pytest.fixture(scope="session")
def zero_setup():
    """(model, bifurcation point, strip operator) for gamma = 0."""
    model = ZeroVorticity()
    bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=EPS_RUN))
    grid = default_grid(L, bp.lambda_star, EPS_RUN, nq=64)
    op = StripOperator(model, G, grid, epsilon=EPS_RUN)
    return model, bp, op


@pytest.fixture(scope="session")
def gerstner_setup():
    model = GerstnerVorticity(m=0.5)
    bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=EPS_RUN))
    grid = default_grid(L, bp.lambda_star, EPS_RUN, nq=64)
    op = StripOperator(model, G, grid, epsilon=EPS_RUN)
    return model, bp, op


@pytest.fixture(scope="session")
def zero_branch(zero_setup):
    """Thirty accepted points on the irrotational branch."""
    _, bp, op = zero_setup
    branch = continue_branch(op, bp, steps=30, ds=0.00075, s0=0.005, tol=1e-11)
    assert len(branch.points) == 30
    return branch


@pytest.fixture(scope="session")
def gerstner_branch(gerstner_setup):
    _, bp, op = gerstner_setup
    branch = continue_branch(op, bp, steps=30, ds=0.00075, s0=0.005, tol=1e-11)
    assert len(branch.points) == 30
    return branch


@pytest.fixture(scope="session")
def zero_homotopy(zero_setup):
    """The gamma = 0 wave of amplitude 0.02 along SCHEDULE, seeded at its first epsilon."""
    model, _, op = zero_setup
    bp = find_bifurcation_point(SLProblem(model, g=G, L=L, epsilon=SCHEDULE[0]))
    start = initial_nontrivial_guess(bp, op, 0.02)
    return epsilon_homotopy(model, G, start, SCHEDULE, target_s=0.02, tol=1e-11)
