"""Gradient-free training of neural ODEs with ensemble Kalman inversion.

The package covers two tasks: learning the right-hand side of a dynamical
system from trajectory observations (spiral and pendulum benchmarks) and
learning an energy-regularized neural controller for scalar linear dynamics.
Both can be trained either with deterministic EKI updates or with a
backpropagation-through-time baseline (Adam / plain SGD).
"""

__version__ = "0.1.0"

from .eki import (
    CovarianceSchedule,
    Ensemble,
    ForwardMapOutput,
    eki_step,
    ensemble_expand,
    gamma_at,
    min_loss_member,
)
from .gradbase import AdamState, adam_init, adam_step, sgd_step
from .nnet import MlpSpec, mlp_init, param_count
from .ode import DopriConfig, IntegrationError, IntegratorConfig, Trajectory, integrate
from .problems import (
    ControlProblem,
    ObservationSet,
    SysIdProblem,
    control_energy,
    control_mse,
    make_sysid_problem,
    mse,
    optimal_control,
    optimal_energy,
    optimal_state,
    test_mse,
)
from .runner import ExperimentConfig, RunReport, plot_script, preset, presets, run, table

__all__ = [
    "AdamState",
    "ControlProblem",
    "CovarianceSchedule",
    "DopriConfig",
    "Ensemble",
    "ExperimentConfig",
    "ForwardMapOutput",
    "IntegrationError",
    "IntegratorConfig",
    "MlpSpec",
    "ObservationSet",
    "RunReport",
    "SysIdProblem",
    "Trajectory",
    "adam_init",
    "adam_step",
    "control_energy",
    "control_mse",
    "eki_step",
    "ensemble_expand",
    "gamma_at",
    "integrate",
    "make_sysid_problem",
    "min_loss_member",
    "mlp_init",
    "mse",
    "optimal_control",
    "optimal_energy",
    "optimal_state",
    "param_count",
    "plot_script",
    "preset",
    "presets",
    "run",
    "sgd_step",
    "table",
    "test_mse",
]
