"""Spectral-Galerkin simulator and energy-decay laboratory for the strongly
damped Blackstock acoustic wave equation

    psi_tt - c^2 (1 - 2 k psi_t) Delta psi - b Delta psi_t
        + 2 sigma grad psi . grad psi_t = 0

on rectangular boxes with homogeneous Dirichlet data.  The package integrates
the equation with IMEX and fixed-point (Picard) schemes, evaluates the full
family of energy, dissipation and Lyapunov functionals along runs, verifies
the interpolation-inequality toolbox numerically, and maps the small-data
decay / blow-up dichotomy.
"""

from .config import ConfigError, RunConfig, load_config, parse_config
from .dynamics import MediumParams, assemble_f
from .energy import GammaWeights, identity_residual
from .experiments import (
    DecayFit,
    RegularityStudy,
    ThresholdReport,
    fit_decay,
    threshold_bisection,
    weighted_regularity_study,
)
from .fields import InitialDataSpec, SimState, build_initial, full_h_norm, norm
from .grid import Grid, SpectralField, padded_field_values, project_padded_to_sine
from .inequalities import (
    GronwallCheck,
    GronwallParams,
    agmon_ratio,
    gronwall_verify,
    interpolation_ratio,
    max_ratios,
    random_admissible_gronwall,
    random_trig_fields,
)
from .integrate import (
    StepConfig,
    Termination,
    TimeSeries,
    simulate,
    simulate_batch,
)
from .storage import (
    load_checkpoint,
    read_series_csv,
    save_checkpoint,
    write_json,
    write_series_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DecayFit",
    "GammaWeights",
    "GronwallCheck",
    "GronwallParams",
    "Grid",
    "InitialDataSpec",
    "MediumParams",
    "RegularityStudy",
    "RunConfig",
    "SimState",
    "SpectralField",
    "StepConfig",
    "Termination",
    "ThresholdReport",
    "TimeSeries",
    "agmon_ratio",
    "assemble_f",
    "build_initial",
    "fit_decay",
    "full_h_norm",
    "gronwall_verify",
    "identity_residual",
    "interpolation_ratio",
    "load_checkpoint",
    "load_config",
    "max_ratios",
    "norm",
    "padded_field_values",
    "parse_config",
    "project_padded_to_sine",
    "random_admissible_gronwall",
    "random_trig_fields",
    "read_series_csv",
    "save_checkpoint",
    "simulate",
    "simulate_batch",
    "threshold_bisection",
    "weighted_regularity_study",
    "write_json",
    "write_series_csv",
]
