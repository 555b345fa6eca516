"""Experiment runner: configs, training loops, logs, reports, tables, plots.

A run is fully described by an :class:`ExperimentConfig` (JSON-serializable,
round-trip safe).  ``run`` executes the training loop, writes a per-epoch CSV
log and a ``report.json`` whose numbers are re-derivable from the serialized
parameters, and returns the :class:`RunReport`.  ``table`` aggregates
replicated runs into a summary table; ``plot_script`` emits plain CSV data
plus a matplotlib script so figures can be regenerated without this package.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import numbers
import os
import platform
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import eki, gradbase, nnet, problems
from .ode import FIXED_STEP_METHODS

PROBLEMS = ("spiral", "pendulum", "linear_control")
OPTIMIZERS = ("eki", "adam", "sgd")

CSV_HEADER = ["epoch", "gamma", "J", "min_loss", "mean_loss", "train_mse", "test_mse"]

# The columns of a summary cell, in table.csv and table.txt order.
TABLE_COLUMNS = ("name", "problem", "optimizer", "replicates", "failures",
                 "median_train", "min_train", "median_test", "min_test")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries one message per offense."""

    def __init__(self, messages):
        super().__init__("; ".join(messages))
        self.messages = list(messages)


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class EkiOptions:
    """Ensemble optimizer block.

    ``gamma0``/``alpha``/``schedule_period`` drive the exponential covariance
    scheduler for system identification; ``gamma``/``gamma_prime`` are the
    block covariance scales of the regularized control problem, with
    ``gamma_steps`` applying piecewise drops (integer epoch, new value).
    ``expansions`` holds integer (epoch, count) pairs: count members are
    appended at that epoch, drawn per ``expansion_mode`` (fresh
    initializations, or the same draws recentered on the ensemble mean).

    ``step_size`` is the artificial-time step h.  ``step_cap_rel`` caps the
    first attempted step so no member moves more than that fraction of its
    own scale; on rejection (more failures, or best loss worse than
    ``accept_factor`` times the current best) the step is halved up to
    ``max_backtracks`` times before the epoch stalls.
    """

    ensemble_size: int = 22
    gamma0: float = 0.9
    alpha: float = 0.35
    schedule_period: int = 2
    schedule_enabled: bool = True
    gamma: float = 0.3
    gamma_prime: float = 0.01
    gamma_steps: tuple = ()
    expansions: tuple = ()
    expansion_mode: str = "fresh"
    step_size: float = 1.0
    step_cap_rel: float | None = 0.5
    accept_factor: float = 10.0
    max_backtracks: int = 30


@dataclass(frozen=True)
class GradientOptions:
    eta: float = 0.01


@dataclass(frozen=True)
class ProblemOptions:
    """Problem construction knobs; ``mu`` only applies to linear_control,
    the rest only to system identification."""

    assembly: str = "shooting"
    mu: float = 0.001
    grid_size: int | None = None
    num_subsets: int = 10
    subset_length: int = 10


@dataclass(frozen=True)
class IntegratorOptions:
    """Overrides for the problem's default fixed-step integrator (method
    euler or rk4, step ``dt``); None keeps the default."""

    method: str | None = None
    dt: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "spiral"
    optimizer: str = "eki"
    seed: int = 0
    epochs: int | None = 100
    wall_clock_budget_seconds: float | None = None
    out_dir: str | None = None
    eki: EkiOptions = field(default_factory=EkiOptions)
    gradient: GradientOptions = field(default_factory=GradientOptions)
    problem_options: ProblemOptions = field(default_factory=ProblemOptions)
    integrator: IntegratorOptions = field(default_factory=IntegratorOptions)

    def validate(self) -> None:
        msgs = _type_errors(self)
        if msgs:
            # The value checks below compare and index; wrong types first.
            raise ConfigError(msgs)
        if self.problem not in PROBLEMS:
            msgs.append(f"problem: {self.problem!r} not in {PROBLEMS}")
        if self.optimizer not in OPTIMIZERS:
            msgs.append(f"optimizer: {self.optimizer!r} not in {OPTIMIZERS}")
        if self.seed < 0:
            msgs.append("seed: must be nonnegative")
        if (self.epochs is None) == (self.wall_clock_budget_seconds is None):
            msgs.append("epochs / wall_clock_budget_seconds: exactly one must be set")
        if self.epochs is not None and self.epochs < 0:
            msgs.append("epochs: must be nonnegative")
        if self.wall_clock_budget_seconds is not None and self.wall_clock_budget_seconds <= 0:
            msgs.append("wall_clock_budget_seconds: must be positive")
        ek = self.eki
        if ek.ensemble_size < 2:
            msgs.append("eki.ensemble_size: need at least 2 members")
        if ek.expansion_mode not in ("fresh", "perturb"):
            msgs.append("eki.expansion_mode: must be 'fresh' or 'perturb'")
        for name in ("gamma0", "alpha", "gamma", "gamma_prime", "step_size", "accept_factor"):
            if not getattr(ek, name) > 0:
                msgs.append(f"eki.{name}: must be positive")
        if ek.schedule_period < 1:
            msgs.append("eki.schedule_period: must be at least 1")
        if ek.step_cap_rel is not None and not ek.step_cap_rel > 0:
            msgs.append("eki.step_cap_rel: must be positive or null")
        if ek.max_backtracks < 0:
            msgs.append("eki.max_backtracks: must be nonnegative")
        if not _pairs(ek.gamma_steps, "float", lambda epoch, value: epoch >= 0 and value > 0):
            msgs.append("eki.gamma_steps: need [epoch >= 0, gamma > 0] pairs, integer epochs")
        # An expansion fires when the epoch equals its own and adds whole members.
        if not _pairs(ek.expansions, "int", lambda epoch, count: epoch >= 0 and count >= 1):
            msgs.append("eki.expansions: need [epoch >= 0, count >= 1] integer pairs")
        po = self.problem_options
        if po.assembly not in ("full", "shooting"):
            msgs.append("problem_options.assembly: must be 'full' or 'shooting'")
        if po.num_subsets < 1 or po.subset_length < 1:
            msgs.append("problem_options.num_subsets / subset_length: must be positive")
        elif po.grid_size is not None and po.grid_size < 2:
            msgs.append("problem_options.grid_size: need at least 2 points")
        elif self.problem in problems.GRID_SIZES:
            grid = po.grid_size if po.grid_size is not None else problems.GRID_SIZES[self.problem]
            if po.num_subsets * po.subset_length >= grid:
                msgs.append(
                    f"problem_options.num_subsets: {po.num_subsets} disjoint runs of "
                    f"{po.subset_length} must leave a held-out point in {grid} grid points"
                )
        if self.problem == "linear_control" and not (
            po.mu > 0 if self.optimizer == "eki" else po.mu >= 0
        ):
            msgs.append("problem_options.mu: must be positive for EKI, nonnegative otherwise")
        io = self.integrator
        if io.method is not None and io.method not in FIXED_STEP_METHODS:
            msgs.append(f"integrator.method: training integrates with euler or rk4, got {io.method!r}")
        if io.dt is not None and not io.dt > 0:
            msgs.append("integrator.dt: must be positive")
        if self.gradient.eta <= 0:
            msgs.append("gradient.eta: must be positive")
        if msgs:
            raise ConfigError(msgs)


def _pairs(items, annotation: str, ok) -> bool:
    # Each pair is an integer epoch and a value of the given type.
    return all(
        isinstance(item, (tuple, list)) and len(item) == 2
        and _type_ok(item[0], "int") and _type_ok(item[1], annotation) and ok(*item)
        for item in items
    )


# The field annotations, strings under postponed evaluation, by name.  Exact
# int and float come first: the abstract number checks are slower.
_FIELD_TYPES = {
    "int": (int, numbers.Integral),
    "float": (float, int, numbers.Real),
    "bool": bool, "str": str, "tuple": (tuple, list), "None": type(None),
    "EkiOptions": EkiOptions, "GradientOptions": GradientOptions,
    "ProblemOptions": ProblemOptions, "IntegratorOptions": IntegratorOptions,
}


def _type_ok(value, annotation: str) -> bool:
    if isinstance(value, bool):
        return annotation == "bool"
    if not isinstance(value, _FIELD_TYPES[annotation]):
        return False
    # JSON parses Infinity and NaN, and no float field takes them; the
    # comparison also holds for ints too large for a float.
    return annotation != "float" or abs(value) <= sys.float_info.max


def _type_errors(obj, prefix: str = "") -> list[str]:
    """One message per field of a config dataclass whose value does not have
    the field's annotated type, a float field's value being finite; nested
    option blocks are checked too."""
    msgs = []
    for f in dataclasses.fields(obj):
        name, value = prefix + f.name, getattr(obj, f.name)
        if not any(_type_ok(value, t) for t in f.type.split(" | ")):
            got = repr(value) if isinstance(value, numbers.Real) else type(value).__name__
            msgs.append(f"{name}: expected {f.type}, got {got}")
        elif dataclasses.is_dataclass(value):
            msgs += _type_errors(value, name + ".")
    return msgs


def config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> ExperimentConfig:
    def build(cls, block):
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(block) - set(fields)
        if unknown:
            raise ConfigError([f"{cls.__name__}: unknown keys {sorted(unknown)}"])
        kwargs = {}
        for key, value in block.items():
            if key in ("gamma_steps", "expansions") and isinstance(value, list):
                # Malformed pairs pass through for validate() to name.
                value = tuple(tuple(item) if isinstance(item, list) else item for item in value)
            kwargs[key] = value
        return cls(**kwargs)

    if not isinstance(data, dict):
        raise ConfigError([f"config: expected a JSON object, got {type(data).__name__}"])

    data = dict(data)
    for key, cls in (
        ("eki", EkiOptions),
        ("gradient", GradientOptions),
        ("problem_options", ProblemOptions),
        ("integrator", IntegratorOptions),
    ):
        if key in data and isinstance(data[key], dict):
            data[key] = build(cls, data[key])
    return build(ExperimentConfig, data)


def save_config(config: ExperimentConfig, path: str) -> None:
    _replace_file(path, json.dumps(config_to_dict(config), indent=2) + "\n")


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Presets: the paper-default configurations, by name

_MUS = (0.001, 0.0025, 0.005, 0.0075, 0.01)


def _sysid_eki(problem, gamma0, alpha):
    return ExperimentConfig(
        problem=problem,
        optimizer="eki",
        epochs=100,
        eki=EkiOptions(ensemble_size=22, gamma0=gamma0, alpha=alpha),
    )


def _sysid_gradient(problem, optimizer, eta):
    return ExperimentConfig(
        problem=problem,
        optimizer=optimizer,
        epochs=2500,
        gradient=GradientOptions(eta=eta),
    )


def _control(optimizer, mu, eta=0.175):
    if optimizer == "eki":
        opt = EkiOptions(
            ensemble_size=2,
            gamma=0.3,
            gamma_prime=0.01,
            gamma_steps=((3, 0.15),),
            expansions=((3, 20),),
            step_cap_rel=None,
        )
        return ExperimentConfig(
            problem="linear_control",
            optimizer="eki",
            epochs=10,
            eki=opt,
            problem_options=ProblemOptions(mu=mu),
        )
    return ExperimentConfig(
        problem="linear_control",
        optimizer=optimizer,
        epochs=150,
        gradient=GradientOptions(eta=eta),
        problem_options=ProblemOptions(mu=mu),
    )


def presets() -> dict:
    """All built-in configurations, keyed by name."""
    out = {
        "spiral-eki": _sysid_eki("spiral", gamma0=0.9, alpha=0.35),
        "pendulum-eki": _sysid_eki("pendulum", gamma0=2.0, alpha=0.4),
    }
    for problem in ("spiral", "pendulum"):
        for optimizer in ("adam", "sgd"):
            for eta in (0.01, 0.1):
                out[f"{problem}-{optimizer}-{eta:g}"] = _sysid_gradient(problem, optimizer, eta)
    for mu in _MUS:
        out[f"control-eki-mu{mu:g}"] = _control("eki", mu)
        out[f"control-adam-mu{mu:g}"] = _control("adam", mu)
    return out


def preset(name: str) -> ExperimentConfig:
    table = presets()
    if name not in table:
        raise ConfigError([f"preset: unknown name {name!r}; see `eki-node presets`"])
    return table[name]


# ---------------------------------------------------------------------------
# Problem construction and re-evaluation

DENSE_CONTROL_FACTOR = 4


def build_problem(config: ExperimentConfig):
    """Instantiate the configured problem with its data stream."""
    ss_data, _ = np.random.SeedSequence(config.seed).spawn(2)
    data_rng = np.random.default_rng(ss_data)
    po = config.problem_options
    if config.problem == "linear_control":
        prob = problems.make_control_problem(mu=po.mu)
    else:
        kwargs = dict(
            data_rng=data_rng,
            num_subsets=po.num_subsets,
            subset_length=po.subset_length,
            assembly=po.assembly,
            seed=config.seed,
        )
        if po.grid_size is not None:
            kwargs["grid_size"] = po.grid_size
        maker = problems.make_spiral_problem if config.problem == "spiral" else problems.make_pendulum_problem
        prob = maker(**kwargs)
    # The set integrator options replace those of the problem's default.
    overrides = {k: v for k, v in dataclasses.asdict(config.integrator).items() if v is not None}
    if overrides:
        prob = dataclasses.replace(prob, integrator=dataclasses.replace(prob.integrator, **overrides))
    return prob


def reevaluate(config: ExperimentConfig, theta: np.ndarray) -> tuple[float, float]:
    """Train/test errors of a parameter vector under the config's problem.

    This is the report-integrity contract: the numbers in ``report.json``
    must come back identically from the serialized theta.
    """
    theta = np.asarray(theta, dtype=float)
    (train,), (test,) = _errors(theta[None], build_problem(config), [None])
    return train, test


def _errors(thetas: np.ndarray, prob, train) -> tuple[list, list]:
    """The logged (train, test) columns of the parameter vectors ``thetas``
    ``(R, N)``, for every optimizer.  ``train`` holds, per row, the training
    error its driver already read off its own evaluation, or None; only the
    missing ones are computed here.

    System identification: :func:`problems.mse` and :func:`problems.test_mse`,
    the MSE at the observations and on the rest of the reference grid; the
    test column of all rows is one batched pass.  Control: the deviation
    from the analytic u* on the quadrature grid and on a grid
    ``DENSE_CONTROL_FACTOR`` times denser.
    """
    if isinstance(prob, problems.ControlProblem):
        dense = np.linspace(0.0, prob.t_final, DENSE_CONTROL_FACTOR * prob.quadrature_points + 1)
        metric = problems.control_mse
        test = [problems.control_mse(theta, prob, dense) for theta in thetas]
    else:
        metric = problems.mse
        test = problems.test_mse(thetas, prob).tolist()
    train = [metric(theta, prob) if known is None else known for theta, known in zip(thetas, train)]
    return train, test


# ---------------------------------------------------------------------------
# RunReport


@dataclass
class RunReport:
    config: ExperimentConfig
    final_train_error: float
    final_test_error: float
    log_path: str
    theta: np.ndarray
    epochs_run: int
    runtime_seconds: float
    versions: dict
    rng: dict
    events: list
    error: str | None = None

    def to_dict(self) -> dict:
        # One JSON key per field, in field order; only config and theta convert.
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["config"] = config_to_dict(self.config)
        out["theta"] = [float(v) for v in np.asarray(self.theta)]
        return out


def load_report(report_dir: str) -> RunReport:
    path = os.path.join(report_dir, "report.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no report.json under {report_dir}")
    with open(path) as fh:
        raw = json.load(fh)
    # Keys a report lacks, such as ``error`` in older ones, take the default.
    kwargs = {f.name: raw[f.name] for f in dataclasses.fields(RunReport) if f.name in raw}
    kwargs["config"] = config_from_dict(raw["config"])
    kwargs["theta"] = np.asarray(raw["theta"], dtype=float)
    return RunReport(**kwargs)


def _versions() -> dict:
    from . import __version__

    return {
        "ekinode": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# Drivers: one per optimizer, each a row() / advance() pair for run()'s loop


class _EkiDriver:
    """Shared mechanics for both problem families: evaluate members, log the
    best one, and advance one controlled explicit-Euler step per epoch.
    Subclasses set ``target``, the data vector the update pulls the outputs
    toward."""

    def __init__(self, config, prob, init_rng):
        self.config = config
        self.prob = prob
        self.opts = config.eki
        spec = prob.net if hasattr(prob, "net") else prob.controller
        self.spec = spec
        members = np.stack([nnet.mlp_init(spec, init_rng) for _ in range(self.opts.ensemble_size)])
        self.ens = eki.Ensemble(members=members, rng=init_rng)
        self.outputs = None
        self.events = []

    # problem family hooks -------------------------------------------------
    def forward(self, members):
        """Batched forward-map output of a (J, N) member matrix."""
        raise NotImplementedError

    def losses(self, outputs, epoch):
        """Per-member losses (J,); failed members score PENALTY_LOSS."""
        raise NotImplementedError

    def gamma_for(self, epoch) -> float:
        raise NotImplementedError

    def variances(self, gamma):
        """Diagonal of the noise covariance at data scale ``gamma``."""
        return gamma

    # shared mechanics -----------------------------------------------------
    def maybe_expand(self):
        done = {ep for ep, _ in self.ens.events}
        for ep, count in self.opts.expansions:
            if self.ens.epoch == ep and ep not in done:
                self.ens = eki.ensemble_expand(
                    self.ens, count, self.spec, mode=self.opts.expansion_mode
                )
                self.outputs = None

    def row(self):
        """Log row of the ensemble, expanded and evaluated first if due, up
        to its error columns; the training error of its best member, None
        if the losses are not that; and the member's parameters."""
        self.maybe_expand()
        if self.outputs is None:
            self.outputs = self.forward(self.ens.members)
        epoch = self.ens.epoch
        losses = self.losses(self.outputs, epoch)
        valid = losses[~self.outputs.failed]
        idx, min_loss = eki.min_loss_member(losses)
        mean_loss = float(np.mean(valid if valid.size else losses))
        theta = self.ens.members[idx].copy()
        # A system-identification member's loss is its training MSE.
        train = min_loss if isinstance(self.prob, problems.SysIdProblem) else None
        return [epoch, self.gamma_for(epoch), self.ens.size, min_loss, mean_loss], train, theta

    def advance(self):
        """One epoch: try the full step, backtrack while it makes the
        ensemble worse, stall if no usable step length remains.  With fewer
        than two valid members the update moves nobody: the epoch is logged
        as a ``no_update`` event and burnt, since a later expansion may still
        bring in valid members."""
        opts = self.opts
        epoch = self.ens.epoch
        gamma = self.gamma_for(epoch)
        cur_losses = self.losses(self.outputs, epoch)
        cur_fail = np.count_nonzero(self.outputs.failed)
        cur_best = cur_losses.min()
        n_valid = self.ens.size - int(cur_fail)
        if n_valid < 2:
            self.events.append(("no_update", epoch, n_valid))

        variances = self.variances(gamma)
        if not np.all(variances > 0):
            # The exponential schedule reaches 0.0 once alpha * epoch passes ~745.
            raise RuntimeError(f"noise variance {gamma!r} is not positive at epoch {epoch}")
        unit = eki.eki_step(self.ens, self.outputs, self.target, variances)
        delta = unit.members - self.ens.members
        rel = np.max(np.abs(delta), axis=1) / (np.max(np.abs(self.ens.members), axis=1) + 1.0)
        maxrel = float(rel.max()) if rel.size else 0.0
        if maxrel == 0.0:
            self.ens = unit
            return

        h = opts.step_size
        if opts.step_cap_rel is not None:
            h = min(h, opts.step_cap_rel / maxrel)
        for _ in range(opts.max_backtracks + 1):
            cand = dataclasses.replace(
                self.ens, members=self.ens.members + h * delta, epoch=epoch + 1
            )
            cand_outputs = self.forward(cand.members)
            cand_losses = self.losses(cand_outputs, epoch)
            cand_fail = np.count_nonzero(cand_outputs.failed)
            if cand_fail <= cur_fail and cand_losses.min() <= opts.accept_factor * cur_best:
                self.ens = cand
                self.outputs = cand_outputs
                return
            h = min(0.5 * h, 1.0 / maxrel)
            if h < 1e-15 / (1.0 + maxrel):
                break
        # No step survived: hold position, burn the epoch.
        self.events.append(("stall", epoch))
        self.ens = dataclasses.replace(self.ens, epoch=epoch + 1)


class _SysIdDriver(_EkiDriver):
    def __init__(self, config, prob, init_rng):
        super().__init__(config, prob, init_rng)
        self.target = prob.observations.stacked_values()
        self.schedule = eki.CovarianceSchedule(
            gamma0=self.opts.gamma0,
            alpha=self.opts.alpha,
            period=self.opts.schedule_period,
            enabled=self.opts.schedule_enabled,
        )

    def forward(self, members):
        return problems.sysid_forward_map(members, self.prob)

    def losses(self, outputs, epoch):
        return problems.sysid_loss(outputs, self.prob)

    def gamma_for(self, epoch):
        return eki.gamma_at(self.schedule, epoch)


class _ControlDriver(_EkiDriver):
    def __init__(self, config, prob, init_rng):
        super().__init__(config, prob, init_rng)
        self.target = np.array([prob.x_star, 0.0])

    def forward(self, members):
        return problems.control_forward_map(members, self.prob)

    def gamma_for(self, epoch):
        gamma = self.opts.gamma
        for ep, value in self.opts.gamma_steps:
            if epoch >= ep:
                gamma = value
        return gamma

    def losses(self, outputs, epoch):
        loss = problems.control_objective(
            outputs.g[:, 0], outputs.h**2, self.prob, self.gamma_for(epoch), self.opts.gamma_prime
        )
        return np.where(outputs.failed, eki.PENALTY_LOSS, loss)

    def variances(self, gamma):
        # The energy channel's variance is Gamma' / mu: the regularized problem.
        return np.array([gamma, self.opts.gamma_prime / self.prob.mu])


class _GradientDriver:
    """Full-batch BPTT with Adam or plain SGD."""

    def __init__(self, config, prob, init_rng):
        self.config = config
        self.prob = prob
        spec = prob.net if hasattr(prob, "net") else prob.controller
        self.theta = nnet.mlp_init(spec, init_rng)
        self.adam = (
            gradbase.adam_init(self.theta.size, eta=config.gradient.eta)
            if config.optimizer == "adam"
            else None
        )
        self.epoch = 0

    def row(self):
        """Log row of the current parameters up to its error columns, the
        training error if the BPTT loss is that, and the parameters.  The
        gradient is the one the next ``advance`` applies."""
        # Gradient baseline trains control at unit covariance scales.
        loss, self.grad, failed = gradbase.bptt_value_and_gradient(self.theta, self.prob)
        if not math.isfinite(loss):
            raise RuntimeError(f"non-finite loss at epoch {self.epoch}")
        # The BPTT loss is the training MSE: the same core, grid and loss.
        train = None
        if isinstance(self.prob, problems.SysIdProblem):
            train = eki.PENALTY_LOSS if failed else loss
        return [self.epoch, None, 1, loss, loss], train, self.theta

    def advance(self):
        if not np.all(np.isfinite(self.grad)):
            raise RuntimeError(f"non-finite gradient at epoch {self.epoch}")
        if self.adam is not None:
            self.adam, self.theta = gradbase.adam_step(self.adam, self.theta, self.grad)
        else:
            self.theta = gradbase.sgd_step(self.theta, self.grad, self.config.gradient.eta)
        self.epoch += 1


# ---------------------------------------------------------------------------
# run()


def run(config: ExperimentConfig, out_dir: str | None = None) -> RunReport:
    """Execute one training run, writing ``log.csv`` and ``report.json``,
    each whole or not at all.

    Both optimizers run one loop: log a row, take a step, and log the final
    row after the last step.  A runtime failure ends the loop; the report
    then carries the error, the rows logged so far, and the parameters of
    the last of them (none if no row was logged).  The train and test
    columns the loop has not filled are computed after it, for every logged
    row at once, so a wall-clock budget bounds the loop alone.

    Deterministic under the epoch-budget stopping mode: identical
    (config, seed) produce bitwise-identical logs and reports.
    """
    config.validate()
    out = out_dir if out_dir is not None else config.out_dir
    if out is None:
        raise ConfigError(["out_dir: no output directory given"])
    os.makedirs(out, exist_ok=True)
    started = time.perf_counter()

    _, ss_init = np.random.SeedSequence(config.seed).spawn(2)
    init_rng = np.random.default_rng(ss_init)
    prob = build_problem(config)
    if config.optimizer != "eki":
        driver = _GradientDriver(config, prob, init_rng)
    elif config.problem == "linear_control":
        driver = _ControlDriver(config, prob, init_rng)
    else:
        driver = _SysIdDriver(config, prob, init_rng)

    logged, epochs_run, error = [], 0, None
    # Valid settings near the float range (step sizes, penalties, acceptance
    # factors) overflow in the EKI update and losses; the forward maps flag
    # the members that result, so numpy stays quiet, as in the integrators.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in _budget(config, started):
                logged.append(driver.row())
                driver.advance()
                epochs_run += 1
            logged.append(driver.row())
    except RuntimeError as exc:
        error = str(exc)
    # The error columns of every logged row, failed runs included: one pass.
    rows, theta = [], np.empty(0)
    if logged:
        heads, train, thetas = zip(*logged)
        errors = zip(*_errors(np.stack(thetas), prob, train))
        rows = [head + list(pair) for head, pair in zip(heads, errors)]
        theta = thetas[-1]
    events = []
    if isinstance(driver, _EkiDriver):
        events = [("expansion", ep, c) for ep, c in driver.ens.events] + driver.events

    log_path = os.path.join(out, "log.csv")
    log = io.StringIO()
    writer = csv.writer(log)
    writer.writerow(CSV_HEADER)
    for epoch, gamma, j, *values in rows:
        writer.writerow([epoch, "" if gamma is None else _fmt(gamma), j] + [_fmt(v) for v in values])

    final_train, final_test = (rows[-1][5], rows[-1][6]) if rows else (float("nan"),) * 2
    report = RunReport(
        config=config,
        final_train_error=final_train,
        final_test_error=final_test,
        log_path=os.path.abspath(log_path),
        theta=theta,
        epochs_run=epochs_run,
        runtime_seconds=time.perf_counter() - started,
        versions=_versions(),
        rng={
            "bit_generator": "PCG64",
            "seed": config.seed,
            "streams": ["data", "init"],
        },
        events=[list(e) for e in events],
        error=error,
    )
    # Both files are serialized before either is replaced, so a value that
    # fails to serialize leaves the previous pair, and a write leaves whole files.
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    _replace_file(log_path, log.getvalue())
    _replace_file(os.path.join(out, "report.json"), text)
    return report


def _replace_file(path: str, text: str) -> None:
    # Write a temporary file beside ``path``, then rename it over ``path``.
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _budget(config, started):
    """Yield epoch indices until the configured stopping point."""
    if config.epochs is not None:
        yield from range(config.epochs)
        return
    m = 0
    while time.perf_counter() - started < config.wall_clock_budget_seconds:
        yield m
        m += 1


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# table()


def table(configs: list, replicates: int, out_dir: str) -> list[dict]:
    """Run each config ``replicates`` times (seed, seed+1, ...) and summarize.

    Returns one dict per config with median/min train and test errors, and
    writes ``table.csv`` plus an aligned ``table.txt`` under ``out_dir``.
    Failed replicates are counted per cell, not fatal.
    """
    if replicates < 1:
        raise ConfigError(["replicates: must be >= 1"])
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    for i, item in enumerate(configs):
        name, config = _named_config(item, i)
        trains, tests, failures = [], [], 0
        for r in range(replicates):
            rep_config = dataclasses.replace(config, seed=config.seed + r, out_dir=None)
            rep_dir = os.path.join(out_dir, f"{name}-rep{r}")
            try:
                report = run(rep_config, out_dir=rep_dir)
                if report.error is not None:
                    raise RuntimeError(report.error)
                trains.append(report.final_train_error)
                tests.append(report.final_test_error)
            except (RuntimeError, ConfigError):
                failures += 1
        cell = {
            "name": name,
            "problem": config.problem,
            "optimizer": config.optimizer,
            "replicates": replicates,
            "failures": failures,
            "median_train": float(np.median(trains)) if trains else float("nan"),
            "min_train": float(np.min(trains)) if trains else float("nan"),
            "median_test": float(np.median(tests)) if tests else float("nan"),
            "min_test": float(np.min(tests)) if tests else float("nan"),
        }
        summary.append(cell)

    with open(os.path.join(out_dir, "table.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
        writer.writeheader()
        writer.writerows(summary)
    _replace_file(os.path.join(out_dir, "table.txt"), format_table(summary) + "\n")
    return summary


def format_table(summary: list[dict]) -> str:
    def cell(value):
        return f"{value:.3e}" if isinstance(value, float) else str(value)

    grid = [list(TABLE_COLUMNS)] + [[cell(row[k]) for k in TABLE_COLUMNS] for row in summary]
    widths = [max(len(r[c]) for r in grid) for c in range(len(TABLE_COLUMNS))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in grid]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _named_config(item, index):
    if isinstance(item, str):
        return item, preset(item)
    if isinstance(item, ExperimentConfig):
        return f"config{index}", item
    if isinstance(item, dict):
        item = dict(item)
        name = item.pop("name", f"config{index}")
        return name, config_from_dict(item)
    raise ConfigError([f"configs[{index}]: expected preset name or config object"])


# ---------------------------------------------------------------------------
# plot_script()

_PLOT_SCRIPT = '''\
"""Regenerate figures from the CSV files next to this script."""
import csv
import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))


def read(name):
    with open(os.path.join(HERE, name)) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = {h: [float(r[i]) if r[i] else float("nan") for r in data]
            for i, h in enumerate(header)}
    return cols


for name in sorted(os.listdir(HERE)):
    if name.startswith("trajectory") and name.endswith(".csv"):
        cols = read(name)
        fig, ax = plt.subplots()
        t = cols.pop("t")
        for label, series in cols.items():
            style = "--" if "reference" in label or "optimal" in label else "-"
            ax.plot(t, series, style, label=label)
        if os.path.exists(os.path.join(HERE, "observations.csv")):
            obs = read("observations.csv")
            t_obs = obs.pop("t")
            for label, series in obs.items():
                ax.plot(t_obs, series, "r.", ms=4,
                        label=None if label != "obs_x1" else "observations")
        ax.set_xlabel("t")
        ax.legend(fontsize=7)
        fig.savefig(os.path.join(HERE, name.replace(".csv", ".png")), dpi=150)
        plt.close(fig)
    if name.startswith("loss_curve") and name.endswith(".csv"):
        cols = read(name)
        fig, ax = plt.subplots()
        ax.semilogy(cols["epoch"], cols["min_loss"], label="min loss")
        ax.semilogy(cols["epoch"], cols["train_mse"], label="train")
        ax.semilogy(cols["epoch"], cols["test_mse"], label="test")
        ax.set_xlabel("epoch")
        ax.legend(fontsize=7)
        fig.savefig(os.path.join(HERE, name.replace(".csv", ".png")), dpi=150)
        plt.close(fig)
print("wrote figures under", HERE)
'''


def plot_script(report_dirs, out_dir: str) -> list[str]:
    """Emit plot data CSVs plus one matplotlib script under ``out_dir``.

    System-identification reports produce ``trajectory.csv`` (learned vs
    reference states), ``observations.csv`` and ``loss_curve.csv``; control
    reports produce one ``trajectory_mu*.csv`` each (learned and analytic
    control/state) plus shared loss curves.  Returns the written file names.
    """
    if isinstance(report_dirs, str):
        report_dirs = [report_dirs]
    reports = [(d, load_report(d)) for d in report_dirs]
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, header, columns):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in zip(*columns):
                writer.writerow([_fmt(v) for v in row])
        written.append(name)

    for i, (report_dir, report) in enumerate(reports):
        config = report.config
        prob = build_problem(config)
        if config.problem == "linear_control":
            suffix = f"_mu{config.problem_options.mu:g}"
            grid, x = problems.control_trajectory(report.theta, prob)
            u = problems.controller_values(report.theta, prob, grid)
            u_ref = problems.optimal_control(grid, prob.a, prob.b, prob.x0, prob.x_star, prob.t_final)
            x_ref = problems.optimal_state(grid, prob.a, prob.b, prob.x0, prob.x_star, prob.t_final)
            emit(
                f"trajectory{suffix}.csv",
                ["t", "u_learned", "u_optimal", "x_learned", "x_optimal"],
                [grid, u, u_ref, x, x_ref],
            )
        else:
            suffix = f"_{i}" if len(reports) > 1 else ""
            obs = prob.observations
            # The field integrated from x0 over the grid, NaN if it diverged.
            x0 = np.asarray(prob.x0, dtype=float)[None]
            theta = report.theta[None]
            states, failed = problems._net_states(theta, prob, x0, obs.grid_times[None])
            learned = np.where(failed[0], np.nan, states[0, 0])
            n = obs.grid_states.shape[1]
            emit(
                f"trajectory{suffix}.csv",
                ["t"]
                + [f"x{i + 1}_learned" for i in range(n)]
                + [f"x{i + 1}_reference" for i in range(n)],
                [obs.grid_times] + [learned[:, i] for i in range(n)] + [obs.grid_states[:, i] for i in range(n)],
            )
            emit(
                f"observations{suffix}.csv",
                ["t"] + [f"obs_x{i + 1}" for i in range(n)],
                [obs.times] + [obs.values[:, i] for i in range(n)],
            )
        log = _read_log(os.path.join(report_dir, report.log_path))
        emit(
            f"loss_curve{suffix}.csv",
            ["epoch", "min_loss", "train_mse", "test_mse"],
            [log["epoch"], log["min_loss"], log["train_mse"], log["test_mse"]],
        )

    _replace_file(os.path.join(out_dir, "plot.py"), _PLOT_SCRIPT)
    written.append("plot.py")
    return written


def _read_log(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    return {
        h: np.array([float(r[i]) if r[i] else np.nan for r in data])
        for i, h in enumerate(header)
    }
