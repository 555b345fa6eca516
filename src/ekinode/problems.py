"""Benchmark problems: the damped spiral and pendulum identification tasks
and the scalar linear-dynamics control task, together with their training
data, forward maps, losses, and closed-form oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import nnet, ode
from .eki import PENALTY_LOSS, ForwardMapOutput, _penalize_failed
from .nnet import MlpSpec
from .ode import DopriConfig, IntegratorConfig, integrate

__all__ = [
    "ObservationSet",
    "SysIdProblem",
    "ControlProblem",
    "spiral_field",
    "spiral_solution",
    "pendulum_field",
    "pendulum_energy",
    "make_observations",
    "make_sysid_problem",
    "sysid_forward_map",
    "sysid_loss",
    "sysid_trajectory",
    "mse",
    "test_mse",
    "mse_from_states",
    "optimal_control",
    "optimal_state",
    "optimal_energy",
    "control_energy",
    "control_diverged",
    "control_forward_map",
    "control_objective",
    "control_propagator",
    "control_states",
    "control_trajectory",
    "controller_values",
    "DATA_INTEGRATOR",
    "SYSID_BENCHMARKS",
]

# The dopri5 record of the reference trajectories ("discretized solutions"),
# tight enough that data error is negligible against the training errors.
DATA_INTEGRATOR = DopriConfig(rtol=1e-9, atol=1e-12)

# Parameter vectors integrated together by one test_mse pass: bounds its
# states array at (rows, grid, state) for however many rows a run logged.
TEST_CHUNK_ROWS = 256

# The most steps one product of the control propagator spans.  Its matrix
# grows with their square, so a longer pass takes one product per block,
# each from the last state of the block before.
PROPAGATOR_STEPS = 128


def spiral_field(x: Sequence[float], t: float = 0.0) -> tuple:
    """Linear damped-rotation field ((-0.05 x1 + x2), (-x1 - 0.05 x2)) of a
    2-sequence: the list of floats that :func:`ode.integrate` hands it, or
    any other, such as a 1-D array."""
    x1, x2 = x
    return -0.05 * x1 + x2, -x1 - 0.05 * x2


def spiral_solution(t) -> np.ndarray:
    """Closed-form spiral solution from (1, 0): (e^{-t/20} cos t, -e^{-t/20} sin t).

    Vectorized over t; returns shape (2,) for scalar t, (len(t), 2) otherwise.
    """
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-t / 20.0)
    out = np.stack([envelope * np.cos(t), -envelope * np.sin(t)], axis=-1)
    return out


def pendulum_field(state: Sequence[float], t: float = 0.0, omega: float = 1.0) -> tuple:
    """Simple pendulum as a first-order system: (v, -omega * sin x), of any
    2-sequence, the list from :func:`ode.integrate` as well as a 1-D array,
    like :func:`spiral_field`.  The sine is a Python float, so that on the
    list :func:`ode.integrate`'s stage sums run on floats, not NumPy
    scalars; ``np.sin`` gives a non-finite angle NaN where ``math.sin``
    would raise."""
    x, v = state
    return v, -omega * float(np.sin(x))


def pendulum_energy(state: np.ndarray, omega: float = 1.0) -> float:
    """First integral v^2/2 - omega * cos(x); conserved along trajectories."""
    return 0.5 * state[..., 1] ** 2 - omega * np.cos(state[..., 0])


class _Benchmark(NamedTuple):
    field: ode.VectorField
    x0: tuple
    t_final: float
    grid_size: int


# The identification benchmarks: true field, start, horizon and default
# reference-grid size of each.
SYSID_BENCHMARKS = {
    "spiral": _Benchmark(spiral_field, (1.0, 0.0), 40.0, 500),
    "pendulum": _Benchmark(pendulum_field, (math.pi / 4.0, 0.0), 20.0, 200),
}

# The field network both benchmarks train unless given another.
_SYSID_NET = MlpSpec((2, 10, 2), "tanh")


@dataclass(frozen=True)
class ObservationSet:
    """Training observations: runs of consecutive reference-grid samples.

    Stores ``subset_length`` and read-only copies of the reference grid and
    of ``train_indices`` into it, so that neither a write nor the caller's
    arrays can move them; derives once, read-only, the observation ``times``
    and ``values`` (the grid rows at those indices), the runs' ``starts``,
    ``num_subsets`` and the ``test_indices``, the rest of the grid.
    """

    grid_times: np.ndarray
    grid_states: np.ndarray
    train_indices: np.ndarray
    subset_length: int

    def __post_init__(self):
        for name in ("grid_times", "grid_states", "train_indices"):
            object.__setattr__(self, name, ode._read_only(np.array(getattr(self, name))))
        if self.grid_states.shape[0] != self.grid_times.size:
            raise ValueError(f"{self.grid_states.shape[0]} grid states for {self.grid_times.size} grid times")
        if self.subset_length < 1 or self.train_indices.size % self.subset_length:
            raise ValueError(f"{self.train_indices.size} train indices are not runs of {self.subset_length}")

    @functools.cached_property
    def times(self) -> np.ndarray:
        return ode._read_only(self.grid_times[self.train_indices])

    @functools.cached_property
    def values(self) -> np.ndarray:
        return ode._read_only(self.grid_states[self.train_indices])

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """The first observed state of each run, ``(num_subsets, n)``: a
        read-only view of ``values``, where shooting starts each run."""
        return self.values[::self.subset_length]

    @functools.cached_property
    def num_subsets(self) -> int:
        return self.train_indices.size // self.subset_length

    @functools.cached_property
    def test_indices(self) -> np.ndarray:
        mask = np.ones(self.grid_times.size, dtype=bool)
        mask[self.train_indices] = False
        return ode._read_only(np.nonzero(mask)[0])

    def stacked_values(self) -> np.ndarray:
        """Observations as one flat vector (time-major), the EKI target y."""
        return self.values.reshape(-1)


def _check_runs(num_subsets: int, subset_length: int) -> None:
    if num_subsets < 1 or subset_length < 1:
        raise ValueError("num_subsets and subset_length must be positive")


def make_observations(
    grid_times: np.ndarray,
    grid_states: np.ndarray,
    num_subsets: int,
    subset_length: int,
    rng: np.random.Generator,
) -> ObservationSet:
    """Select ``num_subsets`` disjoint runs of ``subset_length`` consecutive
    grid points, start indices uniform without replacement.  The set stores
    the grid and the chosen indices; the observations are derived from them.

    Overlapping configurations are excluded up front: the draw is uniform
    over all start-index sets whose runs are pairwise disjoint (equivalent
    to rejection-resampling overlapping draws, without the rejection loop).
    """
    grid_size = grid_times.size
    _check_runs(num_subsets, subset_length)
    if num_subsets * subset_length > grid_size:
        raise ValueError(
            f"cannot place {num_subsets} disjoint runs of {subset_length} in {grid_size} points"
        )
    # Bijection trick: disjoint sorted starts s_i correspond to distinct
    # u_i = s_i - (i-1)(L-1) drawn from a shrunken index range.  Sorted u puts
    # each run at least L after the last, so the runs concatenate in order.
    slack = grid_size - subset_length - (num_subsets - 1) * (subset_length - 1)
    u = np.sort(rng.choice(slack + 1, size=num_subsets, replace=False))
    starts = u + np.arange(num_subsets) * (subset_length - 1)
    idx = np.concatenate([np.arange(s, s + subset_length) for s in starts])
    return ObservationSet(grid_times, grid_states, idx, subset_length)


@dataclass(frozen=True)
class SysIdProblem:
    """System-identification task: fit a network vector field to observations.

    The forward map shoots, over the grid of :attr:`plan`: it re-initializes
    each observation subset at its first observed state and integrates only
    across that subset.  Shooting keeps every residual component bounded by
    the subset span, which is what makes aggressive covariance schedules
    usable on long horizons.  ``x0``, derived as the reference grid's first
    state, starts the whole-grid pass of :func:`sysid_trajectory`.  The
    observation runs must leave a grid point held out for :func:`test_mse`.

    Frozen, so that :attr:`plan`, derived once from the fields, stays theirs:
    ``dataclasses.replace`` makes a new problem with a plan of its own.
    """

    observations: ObservationSet
    net: MlpSpec
    integrator: IntegratorConfig

    def __post_init__(self):
        n = self.x0.size
        if self.net.in_dim != n or self.net.out_dim != n:
            raise ValueError("network input/output dims must equal the state dimension")
        obs = self.observations
        _check_held_out(obs.num_subsets, obs.subset_length, obs.grid_times.size)

    @property
    def x0(self) -> np.ndarray:
        return self.observations.grid_states[0]

    @functools.cached_property
    def plan(self) -> ode.LockstepPlan:
        """The training pass's :class:`ode.LockstepPlan` over the shooting
        grid ``(B, L)``, the L observation times of each of the B runs,
        which start at ``observations.starts``; built on first use and
        shared by every forward map and BPTT pass.  Past ``max_steps``,
        reading it raises :class:`ode.IntegrationError`."""
        obs = self.observations
        return ode.LockstepPlan(obs.times.reshape(-1, obs.subset_length), self.integrator)


def _check_held_out(num_subsets: int, subset_length: int, grid_size: int) -> None:
    # The test error is taken on the grid points no observation run covers.
    if num_subsets * subset_length >= grid_size:
        raise ValueError(f"{num_subsets} disjoint runs of {subset_length} must leave a held-out"
                         f" point in {grid_size} grid points")


def make_sysid_problem(
    name: str,
    data_rng: np.random.Generator,
    grid_size: int | None = None,
    t_final: float | None = None,
    num_subsets: int = 10,
    subset_length: int = 10,
    net: MlpSpec = _SYSID_NET,
    integrator: IntegratorConfig | None = None,
) -> SysIdProblem:
    """The ``name`` benchmark of :data:`SYSID_BENCHMARKS`: the dopri5 grid of
    its true field from its x0, ``grid_size`` points on [0, t_final] (the
    table's unless given), observed in ``num_subsets`` runs of
    ``subset_length`` points drawn from ``data_rng``.

    The full state is observed; the 2-in/2-out network needs both
    components as training signal.  The runs must leave at least one grid
    point held out for :func:`test_mse`.
    """
    bench = SYSID_BENCHMARKS[name]
    grid_size = bench.grid_size if grid_size is None else grid_size
    _check_runs(num_subsets, subset_length)
    _check_held_out(num_subsets, subset_length, grid_size)
    x0 = np.array(bench.x0)
    times = np.linspace(0.0, bench.t_final if t_final is None else t_final, grid_size)
    states = integrate(bench.field, x0, times, DATA_INTEGRATOR)
    obs = make_observations(times, states, num_subsets, subset_length, data_rng)
    if integrator is None:
        integrator = IntegratorConfig(dt=times[1] - times[0], divergence_limit=1e3)
    return SysIdProblem(obs, net, integrator)


def _net_states(theta: np.ndarray, prob: SysIdProblem, x0: np.ndarray, plan: ode.LockstepPlan,
                record: list | None = None):
    """:func:`ode.integrate_lockstep` of every member's network field from
    the starts ``x0`` ``(B, n)`` over the plan's ``(B, K+1)`` grid;
    ``theta`` is a ``(J, N)`` member matrix.  Training passes take the
    problem's :attr:`~SysIdProblem.plan`, whose coefficients are laid out
    once per ensemble size; a pass over another grid brings a plan of its
    own.  ``record``, if a list is passed, receives every field
    evaluation's layer inputs from :func:`nnet.mlp_apply`, in call order."""
    act = prob.net.activation
    J, B = theta.shape[0], x0.shape[0]
    # The layers are laid out once per pass.  The bias views of a member
    # matrix are strided by N across members: contiguous copies keep every
    # bias add on a contiguous loop.  With more than one row per member each
    # product is a BLAS gemm, whose bits do not depend on operand layout, so
    # the weights become C-ordered copies of W^T (handed over as their .mT
    # views, shaped as W) and the biases take the pass's (J, B, out) shape.
    # A one-row product is a gemv, whose bits do: it keeps the views.
    layers = nnet.unflatten(prob.net, theta)
    if B > 1:
        layers = [(np.ascontiguousarray(w.mT).mT, np.broadcast_to(b, (J, B, b.shape[-1])).copy())
                  for w, b in layers]
    else:
        layers = [(w, np.ascontiguousarray(b)) for w, b in layers]
    x0 = np.broadcast_to(x0, (J,) + x0.shape)

    def field(x):
        return nnet.mlp_apply(layers, x, act, record)

    return ode.integrate_lockstep(field, x0, plan)


def sysid_forward_map(theta: np.ndarray, prob: SysIdProblem) -> ForwardMapOutput:
    """G(theta): candidate states stacked at the observation times (time-major)
    of one parameter vector ``(N,)`` or a member matrix ``(J, N)``, integrated
    in lockstep; failures come back flagged (:class:`eki.ForwardMapOutput`).
    """
    members = np.atleast_2d(np.asarray(theta, dtype=float))
    try:
        plan = prob.plan
    except ode.IntegrationError:  # past max_steps: every member fails, unevaluated
        failed = np.ones(members.shape[0], bool)
        return ForwardMapOutput.of_members(theta, np.zeros((failed.size, prob.observations.values.size)), failed)
    states, failed = _net_states(members, prob, prob.observations.starts, plan)
    return ForwardMapOutput.of_members(theta, states.reshape(failed.size, -1), failed)


def sysid_loss(out: ForwardMapOutput, prob: SysIdProblem):
    """Training loss (1/M) sum_l ||xhat(t_l) - x(t_l; theta)||^2 of every
    member of a forward-map output, over its last axis; failed members score
    :data:`eki.PENALTY_LOSS`.  The EKI driver's losses and :func:`mse` are
    this one reduction, so they agree bitwise."""
    resid = out.g - prob.observations.stacked_values()
    loss = np.sum(resid * resid, axis=-1) / prob.observations.values.shape[0]
    return _penalize_failed(loss, out.failed)


def mse_from_states(states: np.ndarray, prob: SysIdProblem, indices: np.ndarray) -> float:
    """Mean over the selected grid indices of the squared Euclidean mismatch."""
    diff = states[indices] - prob.observations.grid_states[indices]
    return float(np.mean(np.sum(diff * diff, axis=1)))


def _penalized(value) -> float:
    # A divergent candidate's error reads as the penalty value.
    value = float(value)
    return value if math.isfinite(value) else PENALTY_LOSS


def mse(theta: np.ndarray, prob: SysIdProblem) -> float:
    """Training loss: (1/M) sum_l ||xhat(t_l) - x(t_l; theta)||^2.

    The predictions x(t_l; theta) are the shooting forward map's, so the
    reported training error is exactly the quantity training minimizes.
    A failed or non-finite value is :data:`eki.PENALTY_LOSS`.
    """
    return _penalized(sysid_loss(sysid_forward_map(theta, prob), prob))


def sysid_trajectory(theta: np.ndarray, prob: SysIdProblem) -> np.ndarray:
    """States on the reference grid of the field integrated from the known
    x0, NaN where the integration failed: ``(M, n)`` for one parameter
    vector ``(N,)``, ``(R, M, n)`` for a stack ``(R, N)``, whose rows are
    the members of one lockstep pass over a plan of its own."""
    theta = np.asarray(theta, dtype=float)
    grid = prob.observations.grid_times
    try:
        plan = ode.LockstepPlan(grid[None], prob.integrator)
    except ode.IntegrationError:  # past max_steps: every row fails, unevaluated
        return np.full(theta.shape[:-1] + (grid.size, prob.x0.size), np.nan)
    states, failed = _net_states(np.atleast_2d(theta), prob, prob.x0[None], plan)
    states[failed] = np.nan
    return states[:, 0] if theta.ndim == 2 else states[0, 0]


def test_mse(theta: np.ndarray, prob: SysIdProblem):
    """Same error on the reference grid minus the training points, of
    :func:`sysid_trajectory`, whose NaN rows score the penalty value.

    ``theta`` is one parameter vector ``(N,)``, giving a float, or a stack
    ``(R, N)``, giving ``(R,)`` errors.  Each :data:`TEST_CHUNK_ROWS` rows
    are one pass, reduced row by row, so each error is bitwise the one its
    row gets alone.
    """
    theta = np.asarray(theta, dtype=float)
    rows, test = np.atleast_2d(theta), prob.observations.test_indices
    errors = [_penalized(mse_from_states(states, prob, test))
              for start in range(0, rows.shape[0], TEST_CHUNK_ROWS)
              for states in sysid_trajectory(rows[start:start + TEST_CHUNK_ROWS], prob)]
    return np.array(errors) if theta.ndim == 2 else errors[0]


# ---------------------------------------------------------------------------
# Energy-regularized control of scalar linear dynamics xdot = a x + b u(t)


@dataclass(frozen=True)
class ControlProblem:
    """Steer ``xdot = a x + b u_theta(t)`` from x0 to x_star at time T with
    small control energy.

    ``mu`` weighs the energy channel.  The energy integral uses trapezoidal
    quadrature on ``quadrature_points`` uniform intervals.  The covariance
    scales of the extended inverse problem belong to the optimizer: EKI
    takes them from ``EkiOptions.gamma``/``gamma_prime``, and
    :func:`gradbase.bptt_value_and_gradient` as arguments.

    Frozen, so that :attr:`plan`, derived once from the fields, stays theirs:
    ``dataclasses.replace`` makes a new problem with a plan of its own.
    """

    a: float = 1.0
    b: float = 1.0
    x0: float = 0.0
    x_star: float = 1.0
    t_final: float = 1.0
    mu: float = 0.001
    controller: MlpSpec = field(default_factory=lambda: MlpSpec((1, 5, 5, 5, 1), "elu"))
    quadrature_points: int = 100
    integrator: IntegratorConfig | None = None

    def __post_init__(self):
        if self.b == 0:
            raise ValueError("b must be nonzero (controllability)")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.quadrature_points < 1:
            raise ValueError("quadrature_points must be at least 1")
        if self.integrator is None:
            default = IntegratorConfig(dt=self.t_final / 100.0, divergence_limit=1e3)
            object.__setattr__(self, "integrator", default)

    def quadrature_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.quadrature_points + 1)

    @functools.cached_property
    def plan(self) -> _ControlPlan:
        """The constants of this problem's control pass, built on first use;
        a plant that overflows them fails :func:`control_diverged`, quietly;
        past ``max_steps``, reading it raises :class:`ode.IntegrationError`."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _control_plan(self)


def optimal_control(t, a: float, b: float, x0: float, x_star: float, t_final: float):
    """Minimum-energy control u*(t) = a e^{-at} (x* - x0 e^{aT}) / (b sinh aT)."""
    if a == 0:
        raise ValueError("a = 0 needs the sinh limit form; out of scope here")
    t = np.asarray(t, dtype=float)
    return a * np.exp(-a * t) * (x_star - x0 * np.exp(a * t_final)) / (b * np.sinh(a * t_final))


def optimal_state(t, a: float, b: float, x0: float, x_star: float, t_final: float):
    """State under u*: x0 e^{at} + sinh(at)/sinh(aT) (x* - x0 e^{aT})."""
    if a == 0:
        raise ValueError("a = 0 needs the sinh limit form; out of scope here")
    t = np.asarray(t, dtype=float)
    return x0 * np.exp(a * t) + np.sinh(a * t) / np.sinh(a * t_final) * (
        x_star - x0 * np.exp(a * t_final)
    )


def optimal_energy(a: float, b: float, x0: float, x_star: float, t_final: float) -> float:
    """Energy of u*: a (1 - e^{-2aT}) (x* - x0 e^{aT})^2 / (2 b^2 sinh^2 aT)."""
    if a == 0:
        raise ValueError("a = 0 needs the sinh limit form; out of scope here")
    gap = x_star - x0 * np.exp(a * t_final)
    return float(
        a * (1.0 - np.exp(-2.0 * a * t_final)) * gap**2 / (2.0 * b**2 * np.sinh(a * t_final) ** 2)
    )


def controller_values(theta: np.ndarray, prob: ControlProblem, times: np.ndarray,
                      record: list | None = None) -> np.ndarray:
    """Evaluate u_theta on a time grid (controller input is scalar t).

    One network call for all times and members: shape ``(len(times),)`` for
    a parameter vector, ``(J, len(times))`` for a member matrix.  ``record``
    goes to :func:`nnet.mlp_apply`.
    """
    theta = np.asarray(theta, dtype=float)
    layers = nnet.unflatten(prob.controller, theta)
    t = np.asarray(times, dtype=float)
    x = np.broadcast_to(t[:, None], theta.shape[:-1] + (t.size, 1))
    return nnet.mlp_apply(layers, x, prob.controller.activation, record)[..., 0]


def control_energy(theta: np.ndarray, prob: ControlProblem):
    """Trapezoidal quadrature of ||u_theta(t)||^2 over [0, T], per member."""
    grid = prob.quadrature_grid()
    u = controller_values(theta, prob, grid)
    return np.trapezoid(u * u, grid, axis=-1)


def control_propagator(growth: float, coef, stride: int, n_steps: int):
    """``n_steps`` steps of a linear one-step method as an affine map of u on
    the stages they read: ``xs = u @ M.T + x0 * r``, with M
    ``(n_steps + 1, stages)`` and r ``(n_steps + 1,)``.

    Step k is ``x' = R x + sum_i coef[i] u[stride k + i]``, with R = 1 +
    ``growth`` the amplification factor: r holds its powers and M[n] adds up
    ``R^(n-1-j) coef[i]`` over the steps j < n.
    """
    stages = stride * n_steps + len(coef) - stride
    # R^n from R - 1, where R > 0: rounding R itself puts an n-fold error on R^n.
    n = np.arange(n_steps + 1)
    r = np.exp(n * np.log1p(growth)) if growth > -1.0 else (1.0 + growth) ** n
    # Every step adds its coefficients at the same offsets, so M[n, k] =
    # m[stride n - k]: a Toeplitz view of one vector m, zero at offsets < 0.
    m = np.zeros(stride * n_steps + stages)  # offset j at index j + stages - 1
    for i, c in enumerate(coef):
        m[stages - 1 + stride - i::stride][:n_steps] += c * r[:-1]
    M = np.lib.stride_tricks.sliding_window_view(m, stages)[::stride, ::-1].copy()
    M[0, 0], M[1:, 0] = 0.0, coef[0] * r[:-1]  # no step ends on stage 0
    return M, r


class _ControlPlan(NamedTuple):
    """The constants of one pass of a control problem's integrator, derived
    once from the problem's fields (:attr:`ControlProblem.plan`), read-only.
    A named tuple: it costs a sixth of a frozen dataclass at import.  A pass
    past ``max_steps`` has none: :func:`ode.substeps` refuses it first, so
    nothing of its size is built.
    """

    n_steps: int  # steps of the pass
    h: float
    quad: np.ndarray  # the quadrature grid
    stages: int  # points of the stage grid
    # Where the controller is evaluated: the stage grid, then the quadrature
    # points it lacks; and the column of each quadrature point.
    eval_times: np.ndarray
    quad_cols: np.ndarray
    quad_weights: np.ndarray  # trapezoid: E = sum_i w_i u_i^2
    blocks: tuple  # per product: first step, stage columns, M, r
    final_row: np.ndarray  # gradient of x(T) w.r.t. u on the stage grid


def _control_plan(prob: ControlProblem) -> _ControlPlan:
    counts, (h,) = ode.substeps(np.array([[0.0, prob.t_final]]), prob.integrator)
    quad = prob.quadrature_grid()
    n_steps = int(counts[0])
    # The stage layout and the RK4 step on it: step k reads u[stride k + i]
    # with coef[i], at its start, midpoint (read by stages 2 and 3) and end.
    z, hb = h * prob.a, h * prob.b
    stride, growth = 2, z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0
    coef = (hb / 6.0) * np.array(
        [1.0 + z + z * z / 2.0 + z**3 / 4.0, 4.0 + 2.0 * z + z * z / 2.0, 1.0]
    )
    # Each step's start and midpoint, then T.
    starts = h * np.arange(n_steps)[:, None]
    stage_times = np.append(starts + (h / stride) * np.arange(stride), h * n_steps)
    stages = stage_times.size
    col = np.minimum(np.searchsorted(stage_times, quad), stages - 1)
    extra = stage_times[col] != quad
    col[extra] = stages + np.arange(np.count_nonzero(extra))
    w = np.empty_like(quad)
    w[1:-1] = 0.5 * (quad[2:] - quad[:-2])
    w[0] = 0.5 * (quad[1] - quad[0])
    w[-1] = 0.5 * (quad[-1] - quad[-2])
    # Per product of the pass: its first step, its stage columns, and the M
    # and r of its steps, all cut from one propagator of at most PROPAGATOR_STEPS.
    M, r = control_propagator(growth, coef, stride, min(n_steps, PROPAGATOR_STEPS))
    ode._read_only(M, r)
    blocks = []
    for first in range(0, n_steps, PROPAGATOR_STEPS):
        t = min(PROPAGATOR_STEPS, n_steps - first)
        width = stride * t + len(coef) - stride  # the stages t steps read
        cols = slice(stride * first, stride * first + width)
        blocks.append((first, cols, M[:t + 1, :width], r[:t + 1]))
    # x(T) is the last row of the pass's map, taken block by block from the last.
    final_row = np.zeros(stages)
    scale = 1.0  # R to the number of steps after the block
    for _, cols, M, r in reversed(blocks):
        final_row[cols] += scale * M[-1]
        scale *= r[-1]
    evals = np.concatenate([stage_times, quad[extra]])
    ode._read_only(quad, evals, col, w, final_row)
    return _ControlPlan(n_steps, h, quad, stages, evals, col, w, tuple(blocks), final_row)


def control_states(u_stage: np.ndarray, prob: ControlProblem) -> np.ndarray:
    """States of ``xdot = a x + b u`` at the step times, ``(..., n_steps + 1)``,
    given u on the plan's stage grid (the step starts and midpoints, then
    T) as ``(..., stages)``: one product with
    :func:`control_propagator` per :data:`PROPAGATOR_STEPS` steps, over the
    leading (member) axes, from the problem's plan.  A pass past
    ``max_steps`` raises :class:`ode.IntegrationError`."""
    plan = prob.plan
    u = np.asarray(u_stage, dtype=float)
    if u.shape[-1] != plan.stages:
        raise ValueError(f"u has {u.shape[-1]} stage values, the pass reads {plan.stages}")
    xs = np.empty(u.shape[:-1] + (plan.n_steps + 1,))
    xs[..., 0] = prob.x0
    for first, cols, M, r in plan.blocks:
        xs[..., first:first + r.size] = u[..., cols] @ M.T + xs[..., first, None] * r
    return xs


def control_diverged(xs: np.ndarray, config: IntegratorConfig) -> np.ndarray:
    """The failure rule of the fixed-step control path, over the leading
    axes of :func:`control_states`' output: some state after the start is
    non-finite or beyond the divergence limit.  The forward map and the BPTT
    pass both apply it, with the integrator core's bounds predicate."""
    return ode._out_of_bounds(xs[..., 1:], config.divergence_limit, axis=-1)


def _control_path(theta: np.ndarray, prob: ControlProblem, record: list | None = None):
    """States ``(J, n_steps + 1)``, energies ``(J,)``, the ``(J,)`` failed
    mask and the controller values ``(J, evaluations)`` of every member of a
    ``(J, N)`` matrix under the problem's integrator.  The controller is
    evaluated once, on the plan's grid, into ``record`` if one is passed.
    Past ``max_steps`` the pass has no plan and every member fails unevaluated:
    states a zero start column, energies zero, values None."""
    try:
        plan = prob.plan
    except ode.IntegrationError:
        failed = np.ones(theta.shape[0], bool)
        return np.zeros((failed.size, 1)), np.zeros(failed.size), failed, None
    with np.errstate(over="ignore", invalid="ignore"):
        u = controller_values(theta, prob, plan.eval_times, record)
        # A column gather is an F-ordered copy, which takes other BLAS and
        # reduction paths: slice the stages, reduce a C-ordered quadrature copy.
        u_quad = np.ascontiguousarray(u[:, plan.quad_cols])
        energy = np.trapezoid(u_quad * u_quad, plan.quad, axis=-1)
        xs = control_states(u[:, :plan.stages], prob)
        failed = control_diverged(xs, prob.integrator)
    return xs, energy, failed, u


def control_trajectory(theta: np.ndarray, prob: ControlProblem):
    """Step times and states of x under one parameter vector's controller,
    NaN if the integration diverged; past ``max_steps``, the start alone."""
    try:
        plan = prob.plan
    except ode.IntegrationError:
        return np.zeros(1), np.full(1, np.nan)
    xs, _, failed, _ = _control_path(np.asarray(theta, dtype=float)[None], prob)
    return plan.h * np.arange(plan.n_steps + 1), np.where(failed[0], np.nan, xs[0])


def control_forward_map(theta: np.ndarray, prob: ControlProblem) -> ForwardMapOutput:
    """F(theta) = (x(T; theta), sqrt(E_T[u_theta])) for the extended problem, of one
    parameter vector ``(N,)`` or a member matrix ``(J, N)``: ``g`` is ``(..., 2)``,
    its last column the energy channel (:class:`eki.ForwardMapOutput`)."""
    xs, energy, failed, _ = _control_path(np.atleast_2d(np.asarray(theta, dtype=float)), prob)
    return ForwardMapOutput.of_members(theta, np.stack([xs[:, -1], np.sqrt(energy)], axis=-1), failed)


def control_mse(theta: np.ndarray, prob: ControlProblem, times: np.ndarray | None = None):
    """Mean squared deviation of u_theta from the analytic u* on a time grid.

    Defaults to the quadrature grid; pass a denser grid to probe times the
    training loss never touched.  ``theta`` is one parameter vector ``(N,)``,
    giving a float, or a stack ``(R, N)``, giving ``(R,)`` errors, each
    bitwise the one its row gets alone.
    """
    if times is None:
        times = prob.quadrature_grid()
    u = controller_values(theta, prob, times)
    u_star = optimal_control(times, prob.a, prob.b, prob.x0, prob.x_star, prob.t_final)
    err = np.mean((u - u_star) ** 2, axis=-1)
    return err if err.ndim else float(err)


def control_objective(x_final, energy, prob: ControlProblem, gamma: float, gamma_prime: float):
    """0.5 (x(T) - x*)^2 / Gamma + mu / (2 Gamma') * E_T[u_theta].

    The one definition of the control loss, elementwise over members: the
    EKI driver and the BPTT baseline pass the terminal states and control
    energies they computed.
    """
    miss = x_final - prob.x_star
    return 0.5 * miss * miss / gamma + prob.mu / (2.0 * gamma_prime) * energy

