"""Periodic traveling gravity waves with vorticity on infinitely deep water.

The library computes branches of rotational Stokes waves through the
hodograph reformulation on a semi-infinite strip: exact laminar shear
flows, the singular half-line eigenvalue problem locating bifurcation
points, regularized strip solves with Newton's method, pseudo-arclength
branch continuation with a decreasing-regularization homotopy,
physical-variable reconstruction, and a verification suite for the
analytical bounds the waves must satisfy.  An irrotational angle-equation
solver provides an independent cross-check.
"""

from .config import RunConfig, parse_config
from .continuation import (
    Branch,
    Caps,
    HomotopyResult,
    Termination,
    arclength_step,
    classify_termination,
    continue_branch,
    epsilon_homotopy,
    initial_nontrivial_guess,
    newton_solve,
    solve_at_amplitude,
    surface_mode_amplitude,
)
from .errors import (
    AdmissibilityError,
    BifurcationAbsentError,
    ConfigError,
    DomainError,
    NewtonDivergenceError,
    NoDiscreteEigenvalue,
    QuadratureError,
    SingularJacobianError,
    StagnationDomainError,
    VorStokesError,
)
from .nekrasov import (
    NekrasovState,
    kernel,
    kernel_integral,
    nu_bound_check,
    solve_nekrasov,
    strip_wave_to_angles,
)
from .pipeline import run_pipeline
from .shear_flow import ShearFlow, wave_speed
from .strip_solver import (
    StripGrid,
    StripOperator,
    WaveState,
    default_grid,
    linear_strip_mode,
)
from .sturm_liouville import (
    BifurcationPoint,
    SLProblem,
    eigenfunction_decay_rate,
    find_bifurcation_point,
    lowest_eigenvalue,
    rayleigh_quotient,
)
from .vorticity import (
    ExpDecayVorticity,
    GerstnerVorticity,
    TabulatedVorticity,
    VorticityModel,
    ZeroVorticity,
    check_bifurcation_condition,
    model_from_config,
)
from .wave_physics import (
    PhysicalWave,
    WaveReport,
    reconstruct,
    verify_all,
    verify_amplitude_speed,
    verify_decay,
    verify_nodal,
    verify_pressure,
    verify_velocity_bounds,
)

__version__ = "0.1.0"
