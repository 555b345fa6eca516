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

from . import eki, gradbase, nnet, ode, problems

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
    """EKI optimizer block.

    ``gamma0``/``alpha``/``schedule_period`` drive the exponential covariance
    scheduler for system identification; ``gamma``/``gamma_prime`` are the
    block covariance scales of the regularized control problem, with
    ``gamma_steps`` applying piecewise drops (integer epoch, new value).
    ``expansions`` holds integer (epoch, count) pairs: count fresh
    initializations are appended at that epoch.  ``step_cap_rel`` caps the
    first attempted step so no member moves more than that fraction of its
    own scale; None leaves it at :data:`STEP_SIZE`.

    No preset sets ``schedule_period`` or ``schedule_enabled``; each stays for
    a reader beyond the tests: the period of the README's schedule formula,
    and acceptance criterion 4's ablation of the schedule.
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
    step_cap_rel: float | None = 0.5


@dataclass(frozen=True)
class GradientOptions:
    eta: float = 0.01


@dataclass(frozen=True)
class ProblemOptions:
    """Problem construction knobs; ``mu`` only applies to linear_control,
    the rest only to system identification.  No preset sets those three, and
    the README's design notes read each: ``grid_size`` the grid of
    "Reference data", ``num_subsets``/``subset_length`` the runs that
    "Shooting" starts from."""

    mu: float = 0.001
    grid_size: int | None = None
    num_subsets: int = 10
    subset_length: int = 10


@dataclass(frozen=True)
class IntegratorOptions:
    """Override of the problem's default RK4 step ``dt``; None keeps the
    default.  No preset sets it; the README's config paragraph states the
    block's ``dt`` contract."""

    dt: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  Each top-level field has a reader beyond the tests:
    :func:`build_problem` reads ``problem``, ``problem_options``,
    ``integrator`` and ``seed`` (the data stream); :func:`run` reads
    ``optimizer`` to pick a driver, ``seed`` (the init stream) and
    ``epochs``, the loop's one stopping rule; the driver reads ``eki`` or
    ``gradient``.  Where a run writes is :func:`run`'s argument."""

    problem: str = "spiral"
    optimizer: str = "eki"
    seed: int = 0
    epochs: int = 100
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
        if self.epochs < 0:
            msgs.append("epochs: must be nonnegative")
        ek = self.eki
        if not eki._quorate(ek.ensemble_size):
            msgs.append(f"eki.ensemble_size: need at least {eki._QUORUM} members")
        # One schedule per field, valid elsewhere, for one message per offending field.
        msgs += _rule_errors("eki.gamma0", eki.CovarianceSchedule, ek.gamma0, 1.0)
        msgs += _rule_errors("eki.alpha", eki.CovarianceSchedule, 1.0, ek.alpha)
        msgs += _rule_errors("eki.schedule_period", eki.CovarianceSchedule, 1.0, 1.0, ek.schedule_period)
        for name in ("gamma", "gamma_prime"):
            msgs += _rule_errors(f"eki.{name}", eki._check_variances, getattr(ek, name))
        if ek.step_cap_rel is not None and not ek.step_cap_rel > 0:
            msgs.append("eki.step_cap_rel: must be positive or null")
        if not _pairs(ek.gamma_steps, "float", eki._check_variances):
            msgs.append("eki.gamma_steps: need [epoch >= 0, gamma > 0] pairs, integer epochs")
        elif any(a[0] >= b[0] for a, b in zip(ek.gamma_steps, ek.gamma_steps[1:])):
            msgs.append("eki.gamma_steps: epochs must be strictly increasing")
        # An expansion fires when the epoch equals its own and adds whole members.
        if not _pairs(ek.expansions, "int", eki._check_expansion):
            msgs.append("eki.expansions: need [epoch >= 0, count >= 1] integer pairs")
        po = self.problem_options
        if runs := _rule_errors("problem_options.num_subsets / subset_length", problems._check_runs,
                                po.num_subsets, po.subset_length):
            msgs += runs
        elif po.grid_size is not None and po.grid_size < 2:
            msgs.append("problem_options.grid_size: need at least 2 points")
        elif self.problem in problems.SYSID_BENCHMARKS:
            grid = po.grid_size or problems.SYSID_BENCHMARKS[self.problem].grid_size
            msgs += _rule_errors("problem_options.num_subsets", problems._check_held_out,
                                 po.num_subsets, po.subset_length, grid)
        if self.problem == "linear_control":
            if self.optimizer == "eki" and not po.mu > 0:
                msgs.append("problem_options.mu: must be positive for EKI (variance gamma_prime / mu)")
            else:
                msgs += _rule_errors("problem_options.mu", problems.ControlProblem, mu=po.mu)
        for name, value in dataclasses.asdict(self.integrator).items():
            if value is not None:
                msgs += _rule_errors(f"integrator.{name}", ode.IntegratorConfig, **{name: value})
        if self.gradient.eta <= 0:
            msgs.append("gradient.eta: must be positive")
        if msgs:
            raise ConfigError(msgs)


def _rule_errors(path: str, rule, *args, **kwargs) -> list[str]:
    # The ValueError of a rule kept beside its record, as a config message.
    try:
        rule(*args, **kwargs)
    except ValueError as exc:
        return [f"{path}: {exc}"]
    return []


def _pairs(items, annotation: str, rule) -> bool:
    # Each pair is an integer epoch >= 0 and a value of the given type that passes the rule.
    return all(
        isinstance(item, (tuple, list)) and len(item) == 2 and _type_ok(item[0], "int")
        and _type_ok(item[1], annotation) and item[0] >= 0 and not _rule_errors("", rule, item[1])
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
    """The config a JSON object describes.  Every key that names no field,
    such as one an older version had, is a :class:`ConfigError`: one message
    per block, all blocks checked before any is built."""
    def unknown(cls, block):
        keys = set(block) - {f.name for f in dataclasses.fields(cls)}
        return [f"{cls.__name__}: unknown keys {sorted(keys)}"] if keys else []

    def build(cls, block):
        kwargs = {}
        for key, value in block.items():
            if key in ("gamma_steps", "expansions") and isinstance(value, list):
                # Malformed pairs pass through for validate() to name.
                value = tuple(tuple(item) if isinstance(item, list) else item for item in value)
            kwargs[key] = value
        return cls(**kwargs)

    if not isinstance(data, dict):
        raise ConfigError([f"config: expected a JSON object, got {type(data).__name__}"])

    blocks = [(key, cls) for key, cls in (
        ("eki", EkiOptions),
        ("gradient", GradientOptions),
        ("problem_options", ProblemOptions),
        ("integrator", IntegratorOptions),
    ) if isinstance(data.get(key), dict)]
    msgs = [m for key, cls in blocks for m in unknown(cls, data[key])] + unknown(ExperimentConfig, data)
    if msgs:
        raise ConfigError(msgs)
    return build(ExperimentConfig, {**data, **{key: build(cls, data[key]) for key, cls in blocks}})


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
        prob = problems.ControlProblem(mu=po.mu)
    else:
        prob = problems.make_sysid_problem(
            config.problem, data_rng, grid_size=po.grid_size, num_subsets=po.num_subsets,
            subset_length=po.subset_length,
        )
    # The set integrator options replace those of the problem's default.
    overrides = {k: v for k, v in dataclasses.asdict(config.integrator).items() if v is not None}
    if overrides:
        prob = dataclasses.replace(prob, integrator=dataclasses.replace(prob.integrator, **overrides))
    return prob


def _network(problem: str) -> nnet.MlpSpec:
    # What build_problem gives the named problem to train; no grid is built.
    return problems.ControlProblem().controller if problem == "linear_control" else problems._SYSID_NET


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
    ``(R, N)``, for every optimizer.  ``train`` holds, per row, the loss its
    driver read off its own evaluation, or None.  A system-identification
    row's loss is its training error, so only the missing ones are computed
    here; a control row's loss is not, so its value is discarded.

    System identification: :func:`problems.mse` and :func:`problems.test_mse`,
    the MSE at the observations and on the rest of the reference grid; the
    test column of all rows is one batched pass.  Control: the deviation
    from the analytic u* on the quadrature grid and on a grid
    ``DENSE_CONTROL_FACTOR`` times denser, each column one batched pass.
    """
    if isinstance(prob, problems.ControlProblem):
        dense = np.linspace(0.0, prob.t_final, DENSE_CONTROL_FACTOR * prob.quadrature_points + 1)
        train = problems.control_mse(thetas, prob).tolist()
        return train, problems.control_mse(thetas, prob, dense).tolist()
    test = problems.test_mse(thetas, prob).tolist()
    train = [problems.mse(theta, prob) if known is None else known for theta, known in zip(thetas, train)]
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
    # Each refusal of a file that is not a run report starts with its path.
    path = os.path.join(report_dir, "report.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no report.json under {report_dir}")
    try:
        return _read_report(path)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: invalid JSON: {exc}"])
    except ConfigError as exc:
        raise ConfigError([f"{path}: {message}" for message in exc.messages])


def _read_report(path: str) -> RunReport:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError([f"expected a JSON object, got {type(raw).__name__}"])
    # Keys a report lacks, such as ``error`` in older ones, take the default;
    # a field without one must be there.
    missing = [f.name for f in dataclasses.fields(RunReport)
               if f.name not in raw and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError([f"not a run report, missing {', '.join(missing)}"])
    kwargs = {f.name: raw[f.name] for f in dataclasses.fields(RunReport) if f.name in raw}
    kwargs["config"] = config = config_from_dict(raw["config"])
    config.validate()
    # A run that failed before its first row reports no parameters.
    theta = raw["theta"]
    size = nnet.param_count(_network(config.problem))
    if not (isinstance(theta, list) and len(theta) in (0, size)
            and all(isinstance(v, float) or _type_ok(v, "float") for v in theta)):
        raise ConfigError([f"theta must be a list of 0 or {size} numbers"])
    kwargs["theta"] = np.asarray(theta, dtype=float)
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

# The EKI step control: the artificial-time step first tried (before
# step_cap_rel), and the rejection rule.  A candidate with more failed
# members, or whose best loss is worse than ACCEPT_FACTOR times the current
# best, halves the step, at most MAX_BACKTRACKS times before the epoch stalls.
STEP_SIZE = 1.0
ACCEPT_FACTOR = 10.0
MAX_BACKTRACKS = 30


class _EkiDriver:
    """Shared mechanics for both problem families: evaluate members, log the
    best one, and advance one controlled explicit first-order step per epoch.

    The driver owns the loop's bookkeeping: ``members``, the (J, N) member
    matrix, which every update and expansion replaces; the epoch; the init
    generator, which the initial members and every expansion draw from; and
    ``events``, one log of ``("expansion", epoch, count)``, ``("no_update",
    epoch, valid)`` and ``("stall", epoch)`` entries in the order they happen.

    A family's subclass provides four hooks: ``target``, the data vector the
    update pulls the outputs toward; ``forward(members)``, the batched
    forward-map output of a (J, N) member matrix; ``losses(outputs, gamma)``,
    per-member losses (J,) at covariance scale ``gamma``, with failed members
    at PENALTY_LOSS; and ``noise(epoch)``, the epoch's covariance scale and
    the diagonal of the noise covariance at that scale."""

    def __init__(self, config, prob, init_rng):
        self.prob = prob
        self.opts = config.eki
        self.spec = _network(config.problem)
        self.rng = init_rng
        self.members = nnet.mlp_init(self.spec, init_rng, self.opts.ensemble_size)
        self.outputs = None
        self.epoch = 0
        self.events = []

    def row(self):
        """Log row of the ensemble, expanded and evaluated first if due, up
        to its error columns; the best member's loss, which :func:`_errors`
        takes as a system-identification row's training error; and the
        member's parameters.  The epoch's scale and variances, the best loss
        and the failure count stay on the driver for the next ``advance``."""
        epoch = self.epoch
        for ep, count in self.opts.expansions:
            if epoch == ep:
                self.members = eki.ensemble_expand(self.members, count, self.spec, self.rng)
                self.events.append(("expansion", ep, count))
                self.outputs = None
        if self.outputs is None:
            self.outputs = self.forward(self.members)
        # Rescored every epoch: a control score depends on the epoch's scale.
        self.gamma, self.variances = self.noise(epoch)
        losses = self.losses(self.outputs, self.gamma)
        self.n_failed = int(np.count_nonzero(self.outputs.failed))
        idx, self.best = eki.min_loss_member(losses)
        valid = losses[~self.outputs.failed]
        mean_loss = float(np.mean(valid if valid.size else losses))
        theta = self.members[idx].copy()
        return [epoch, self.gamma, self.members.shape[0], self.best, mean_loss], self.best, theta

    def advance(self):
        """One epoch from the state ``row`` scored: try the full step,
        backtrack while it makes the ensemble worse, stall if no usable step
        length remains.  With fewer than two valid members the update moves
        nobody: the epoch is logged as a ``no_update`` event and burnt, since
        a later expansion may still bring in valid members."""
        opts = self.opts
        epoch = self.epoch
        self.epoch += 1  # an update, a stall and a skipped update each spend it
        n_valid = self.members.shape[0] - self.n_failed
        if not eki._quorate(n_valid):
            self.events.append(("no_update", epoch, n_valid))

        try:
            unit = eki.eki_step(self.members, self.outputs, self.target, self.variances)
        except ValueError as exc:
            # eki_step's one reachable refusal: a noise variance that underflowed to 0.0.
            raise RuntimeError(f"{exc} at epoch {epoch}") from None
        delta = unit - self.members
        if not np.all(np.isfinite(delta)):
            # Such a member fails in every candidate, so no step length is usable.
            raise RuntimeError(f"non-finite EKI update at epoch {epoch}")
        rel = np.max(np.abs(delta), axis=1) / (np.max(np.abs(self.members), axis=1) + 1.0)
        maxrel = float(rel.max())
        if maxrel == 0.0:
            self.members = unit
            return

        h = STEP_SIZE
        if opts.step_cap_rel is not None:
            h = min(h, opts.step_cap_rel / maxrel)
        for _ in range(MAX_BACKTRACKS + 1):
            cand = self.members + h * delta
            cand_outputs = self.forward(cand)
            cand_losses = self.losses(cand_outputs, self.gamma)
            cand_fail = np.count_nonzero(cand_outputs.failed)
            if cand_fail <= self.n_failed and cand_losses.min() <= ACCEPT_FACTOR * self.best:
                self.members = cand
                self.outputs = cand_outputs
                return
            h = min(0.5 * h, 1.0 / maxrel)
            if h < 1e-15 / (1.0 + maxrel):
                break
        # No step survived: hold position, burn the epoch.
        self.events.append(("stall", epoch))


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

    def losses(self, outputs, gamma):
        return problems.sysid_loss(outputs, self.prob)

    def noise(self, epoch):
        # The plain problem: one variance, gamma, for every channel.
        gamma = eki.gamma_at(self.schedule, epoch)
        return gamma, gamma


class _ControlDriver(_EkiDriver):
    def __init__(self, config, prob, init_rng):
        super().__init__(config, prob, init_rng)
        self.target = np.array([prob.x_star, 0.0])

    def forward(self, members):
        return problems.control_forward_map(members, self.prob)

    def noise(self, epoch):
        gamma = self.opts.gamma
        for ep, value in self.opts.gamma_steps:
            if epoch >= ep:
                gamma = value
        # The energy channel's variance is Gamma' / mu: the regularized problem.
        return gamma, np.array([gamma, self.opts.gamma_prime / self.prob.mu])

    def losses(self, outputs, gamma):
        x_final, root_energy = outputs.g.T  # the terminal state, then the energy channel
        loss = problems.control_objective(x_final, root_energy ** 2, self.prob, gamma, self.opts.gamma_prime)
        return eki._penalize_failed(loss, outputs.failed)


class _GradientDriver:
    """Full-batch BPTT with Adam or plain SGD; no event to log."""

    def __init__(self, config, prob, init_rng):
        self.config = config
        self.prob = prob
        self.theta = nnet.mlp_init(_network(config.problem), init_rng)
        self.adam = gradbase.adam_init(self.theta.size) if config.optimizer == "adam" else None
        self.epoch = 0
        self.events = []

    def row(self):
        """Log row of the current parameters up to its error columns, the
        training error :func:`_errors` takes for a system-identification row,
        and the parameters.  The gradient is the one the next ``advance``
        applies."""
        # Gradient baseline trains control at unit covariance scales.
        loss, self.grad, failed = gradbase.bptt_value_and_gradient(self.theta, self.prob)
        if not math.isfinite(loss):
            raise RuntimeError(f"non-finite loss at epoch {self.epoch}")
        # The sysid BPTT loss is the training MSE: the same core, grid and loss.
        return [self.epoch, None, 1, loss, loss], float(eki._penalize_failed(loss, failed)), self.theta

    def advance(self):
        if not np.all(np.isfinite(self.grad)):
            raise RuntimeError(f"non-finite gradient at epoch {self.epoch}")
        if self.adam is not None:
            self.adam, self.theta = gradbase.adam_step(
                self.adam, self.theta, self.grad, self.config.gradient.eta
            )
        else:
            self.theta = gradbase.sgd_step(self.theta, self.grad, self.config.gradient.eta)
        self.epoch += 1


# ---------------------------------------------------------------------------
# run()


def run(config: ExperimentConfig, out_dir: str) -> RunReport:
    """Execute one training run, writing ``log.csv`` and ``report.json``,
    each whole or not at all.

    Both optimizers run one loop: log a row, take a step, and log the final
    row after the last step.  A runtime failure ends the loop; the report
    then carries the error, the rows logged so far, and the parameters of
    the last of them (none if no row was logged).  The train and test
    columns the loop has not filled are computed after it, for every logged
    row at once.

    Deterministic: identical configs produce bitwise-identical logs and
    reports.
    """
    config.validate()
    os.makedirs(out_dir, exist_ok=True)
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
            for _ in range(config.epochs):
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

    log_path = os.path.join(out_dir, "log.csv")
    log = _csv_text(CSV_HEADER, (
        [epoch, "" if gamma is None else _fmt(gamma), j] + [_fmt(v) for v in values]
        for epoch, gamma, j, *values in rows
    ))

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
        events=[list(e) for e in driver.events],
        error=error,
    )
    # Both files are serialized before either is replaced, so a value that
    # fails to serialize leaves the previous pair, and a write leaves whole files.
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    _replace_file(log_path, log)
    _replace_file(os.path.join(out_dir, "report.json"), text)
    return report


def _csv_text(header, rows) -> str:
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return text.getvalue()


def _replace_file(path: str, text: str) -> None:
    # Write a temporary file beside ``path``, then rename it over ``path``.
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# table()


def table(configs: list, replicates: int, out_dir: str) -> list[dict]:
    """Run each config ``replicates`` times (seed, seed+1, ...) and summarize.

    Returns one dict per config with median/min train and test errors, and
    writes ``table.csv`` plus an aligned ``table.txt`` under ``out_dir``.
    Each replicate writes ``<name>-rep<r>`` under ``out_dir``, so a cell
    name must be a nonempty string of its own, not ``.`` or ``..``, with no
    path separator.  Every name and config is validated before any
    replicate runs, so a config error writes nothing; failed replicates are
    counted per cell, not fatal.
    """
    if replicates < 1:
        raise ConfigError(["replicates: must be >= 1"])
    named = [_named_config(item, i) for i, item in enumerate(configs)]
    names = [name for name, _ in named]
    for i, name in enumerate(names):
        if (not isinstance(name, str) or name in ("", ".", "..")
                or any(sep and sep in name for sep in (os.sep, os.altsep))):
            raise ConfigError([f"configs[{i}].name: {name!r} is not a directory name"])
        if name in names[:i]:
            raise ConfigError([f"configs[{i}].name: {name!r} repeats configs[{names.index(name)}]"])
    for _, config in named:
        config.validate()
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    for name, config in named:
        trains, tests, failures = [], [], 0
        for r in range(replicates):
            rep_config = dataclasses.replace(config, seed=config.seed + r)
            rep_dir = os.path.join(out_dir, f"{name}-rep{r}")
            try:
                report = run(rep_config, out_dir=rep_dir)
                if report.error is not None:
                    raise RuntimeError(report.error)
                trains.append(report.final_train_error)
                tests.append(report.final_test_error)
            except RuntimeError:
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

    rows = ([cell[k] for k in TABLE_COLUMNS] for cell in summary)
    _replace_file(os.path.join(out_dir, "table.csv"), _csv_text(TABLE_COLUMNS, rows))
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
        # A trajectory's observations carry its suffix: trajectory_0.csv, observations_0.csv.
        observations = "observations" + name[len("trajectory"):]
        if os.path.exists(os.path.join(HERE, observations)):
            obs = read(observations)
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
    reference states), ``observations.csv`` and ``loss_curve.csv``, each
    name suffixed ``_i`` when i is one of several reports plotted; control
    reports produce ``trajectory_mu*.csv`` and ``loss_curve_mu*.csv``, so two
    with one mu are a :class:`ConfigError`.  Returns the written file names.
    """
    if isinstance(report_dirs, str):
        report_dirs = [report_dirs]
    reports = [(d, load_report(d)) for d in report_dirs]
    by_mu = {}  # control files are named by mu alone
    for d, report in reports:
        if report.theta.size == 0:  # a run that failed before its first row
            raise FileNotFoundError(f"report.json under {d} logged no row: no parameters to plot")
        if report.config.problem == "linear_control":
            mu = f"{report.config.problem_options.mu:g}"
            if mu in by_mu:
                raise ConfigError([f"plot: {by_mu[mu]} and {d} both write trajectory_mu{mu}.csv"])
            by_mu[mu] = d
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, header, columns):
        rows = ([_fmt(v) for v in row] for row in zip(*columns))
        _replace_file(os.path.join(out_dir, name), _csv_text(header, rows))
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
            learned = problems.sysid_trajectory(report.theta, prob)
            names = [f"x{i + 1}" for i in range(obs.grid_states.shape[1])]
            emit(f"trajectory{suffix}.csv",
                 ["t"] + [f"{x}_learned" for x in names] + [f"{x}_reference" for x in names],
                 [obs.grid_times, *learned.T, *obs.grid_states.T])
            emit(f"observations{suffix}.csv", ["t"] + [f"obs_{x}" for x in names], [obs.times, *obs.values.T])
        log = _read_log(os.path.join(report_dir, "log.csv"))
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
