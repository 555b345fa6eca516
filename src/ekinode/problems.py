"""Benchmark problems: the damped spiral and pendulum identification tasks
and the scalar linear-dynamics control task, together with their training
data, forward maps, losses, and closed-form oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nnet, ode
from .eki import PENALTY_LOSS, ForwardMapOutput
from .nnet import MlpSpec
from .ode import FIXED_STEP_METHODS, IntegratorConfig, integrate

__all__ = [
    "ObservationSet",
    "SysIdProblem",
    "ControlProblem",
    "spiral_field",
    "spiral_solution",
    "pendulum_field",
    "pendulum_energy",
    "make_observations",
    "make_spiral_problem",
    "make_pendulum_problem",
    "make_control_problem",
    "sysid_forward_map",
    "sysid_grid",
    "sysid_loss",
    "mse",
    "test_mse",
    "mse_from_states",
    "optimal_control",
    "optimal_state",
    "optimal_energy",
    "control_energy",
    "control_diverged",
    "control_forward_map",
    "control_final_state_gradient",
    "control_objective",
    "control_propagator",
    "control_stage_grid",
    "control_states",
    "control_trajectory",
    "controller_values",
    "DATA_INTEGRATOR",
    "GRID_SIZES",
]

# Reference trajectories ("discretized solutions") are generated once per
# problem with a tight adaptive tolerance so that data error is negligible
# against the training-error scales under study.
DATA_INTEGRATOR = IntegratorConfig(method="dopri5", rtol=1e-9, atol=1e-12)

# Default reference-grid sizes of the identification benchmarks.
GRID_SIZES = {"spiral": 500, "pendulum": 200}

# Parameter vectors integrated together by one test_mse pass: bounds its
# states array at (rows, grid, state) for however many rows a run logged.
TEST_CHUNK_ROWS = 256

# The most steps one product of the control propagator spans.  Its matrix
# grows with their square, so a longer pass takes one product per block,
# each from the last state of the block before.
PROPAGATOR_STEPS = 128


def spiral_field(x: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Linear damped-rotation field ((-0.05 x1 + x2), (-x1 - 0.05 x2))."""
    x1, x2 = x.tolist()
    return np.array([-0.05 * x1 + x2, -x1 - 0.05 * x2])


def spiral_solution(t) -> np.ndarray:
    """Closed-form spiral solution from (1, 0): (e^{-t/20} cos t, -e^{-t/20} sin t).

    Vectorized over t; returns shape (2,) for scalar t, (len(t), 2) otherwise.
    """
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-t / 20.0)
    out = np.stack([envelope * np.cos(t), -envelope * np.sin(t)], axis=-1)
    return out


def pendulum_field(state: np.ndarray, t: float = 0.0, omega: float = 1.0) -> np.ndarray:
    """Simple pendulum as a first-order system: (v, -omega * sin x)."""
    x, v = state.tolist()
    return np.array([v, -omega * np.sin(x)])


def pendulum_energy(state: np.ndarray, omega: float = 1.0) -> float:
    """First integral v^2/2 - omega * cos(x); conserved along trajectories."""
    return 0.5 * state[..., 1] ** 2 - omega * np.cos(state[..., 0])


@dataclass
class ObservationSet:
    """Training observations: runs of consecutive reference-grid samples.

    ``train_indices`` index into the reference grid; observation times and
    values are the grid rows at those indices.  The complement of the
    training indices defines the test set.
    """

    times: np.ndarray
    values: np.ndarray
    grid_times: np.ndarray
    grid_states: np.ndarray
    train_indices: np.ndarray
    num_subsets: int
    subset_length: int
    seed: int | None = None

    @property
    def test_indices(self) -> np.ndarray:
        mask = np.ones(self.grid_times.size, dtype=bool)
        mask[self.train_indices] = False
        return np.nonzero(mask)[0]

    def stacked_values(self) -> np.ndarray:
        """Observations as one flat vector (time-major), the EKI target y."""
        return self.values.reshape(-1)


def make_observations(
    grid_times: np.ndarray,
    grid_states: np.ndarray,
    num_subsets: int,
    subset_length: int,
    rng: np.random.Generator,
    seed: int | None = None,
) -> ObservationSet:
    """Select ``num_subsets`` disjoint runs of ``subset_length`` consecutive
    grid points, start indices uniform without replacement.

    Overlapping configurations are excluded up front: the draw is uniform
    over all start-index sets whose runs are pairwise disjoint (equivalent
    to rejection-resampling overlapping draws, without the rejection loop).
    """
    grid_size = grid_times.size
    if num_subsets < 1 or subset_length < 1:
        raise ValueError("num_subsets and subset_length must be positive")
    if num_subsets * subset_length > grid_size:
        raise ValueError(
            f"cannot place {num_subsets} disjoint runs of {subset_length} in {grid_size} points"
        )
    # Bijection trick: disjoint sorted starts s_i correspond to distinct
    # u_i = s_i - (i-1)(L-1) drawn from a shrunken index range.
    slack = grid_size - subset_length - (num_subsets - 1) * (subset_length - 1)
    u = np.sort(rng.choice(slack + 1, size=num_subsets, replace=False))
    starts = u + np.arange(num_subsets) * (subset_length - 1)
    idx = np.sort(np.concatenate([np.arange(s, s + subset_length) for s in starts]))
    if not np.all(np.diff(idx) > 0):
        raise AssertionError("internal error: observation runs overlap")
    return ObservationSet(
        times=grid_times[idx].copy(),
        values=grid_states[idx].copy(),
        grid_times=grid_times,
        grid_states=grid_states,
        train_indices=idx,
        num_subsets=num_subsets,
        subset_length=subset_length,
        seed=seed,
    )


@dataclass
class SysIdProblem:
    """System-identification task: fit a network vector field to observations.

    ``assembly`` selects how the forward map builds its prediction vector:
    ``"full"`` integrates one trajectory from x0 over the whole horizon,
    ``"shooting"`` re-initializes each observation subset at its first
    observed state and integrates only across that subset.  Shooting keeps
    every residual component bounded by the subset span, which is what makes
    aggressive covariance schedules usable on long horizons.
    """

    name: str
    true_field: ode.VectorField
    x0: np.ndarray
    t_final: float
    observations: ObservationSet
    net: MlpSpec
    integrator: IntegratorConfig
    assembly: str = "full"

    def __post_init__(self):
        n = np.asarray(self.x0).size
        if self.net.in_dim != n or self.net.out_dim != n:
            raise ValueError("network input/output dims must equal the state dimension")
        if self.assembly not in ("full", "shooting"):
            raise ValueError("assembly must be 'full' or 'shooting'")
        _check_fixed_step(self.integrator)


def _check_fixed_step(integrator: IntegratorConfig) -> None:
    # Forward maps and BPTT passes advance every member in lockstep.
    if integrator.method not in FIXED_STEP_METHODS:
        raise ValueError(f"training integrates with euler or rk4, got {integrator.method!r}")


def _reference_grid(field, x0, t_final, grid_size):
    times = np.linspace(0.0, t_final, grid_size)
    traj = integrate(field, x0, times, DATA_INTEGRATOR)
    return times, traj.states


def make_spiral_problem(
    data_rng: np.random.Generator,
    grid_size: int = GRID_SIZES["spiral"],
    t_final: float = 40.0,
    num_subsets: int = 10,
    subset_length: int = 10,
    net: MlpSpec | None = None,
    integrator: IntegratorConfig | None = None,
    seed: int | None = None,
    assembly: str = "full",
) -> SysIdProblem:
    """Spiral benchmark: 500-point grid on [0, 40], 10 runs of 10 observations."""
    x0 = np.array([1.0, 0.0])
    times, states = _reference_grid(spiral_field, x0, t_final, grid_size)
    obs = make_observations(times, states, num_subsets, subset_length, data_rng, seed=seed)
    if net is None:
        net = MlpSpec((2, 10, 2), "tanh")
    if integrator is None:
        integrator = IntegratorConfig(method="rk4", dt=times[1] - times[0], divergence_limit=1e3)
    return SysIdProblem("spiral", spiral_field, x0, t_final, obs, net, integrator, assembly)


def make_pendulum_problem(
    data_rng: np.random.Generator,
    grid_size: int = GRID_SIZES["pendulum"],
    t_final: float = 20.0,
    num_subsets: int = 10,
    subset_length: int = 10,
    omega: float = 1.0,
    net: MlpSpec | None = None,
    integrator: IntegratorConfig | None = None,
    seed: int | None = None,
    assembly: str = "full",
) -> SysIdProblem:
    """Pendulum benchmark from (pi/4, 0): 200-point grid on [0, 20].

    The full (angle, velocity) state is observed; the 2-in/2-out network
    needs both components as training signal.
    """
    x0 = np.array([np.pi / 4.0, 0.0])
    field = lambda x, t: pendulum_field(x, t, omega)
    times, states = _reference_grid(field, x0, t_final, grid_size)
    obs = make_observations(times, states, num_subsets, subset_length, data_rng, seed=seed)
    if net is None:
        net = MlpSpec((2, 10, 2), "tanh")
    if integrator is None:
        integrator = IntegratorConfig(method="rk4", dt=times[1] - times[0], divergence_limit=1e3)
    return SysIdProblem("pendulum", field, x0, t_final, obs, net, integrator, assembly)


def _net_states(theta: np.ndarray, prob: SysIdProblem, x0: np.ndarray, times: np.ndarray):
    """States ``(J, B, K+1, n)`` of every member's network field from the
    starts ``x0`` ``(B, n)`` over the rows of ``times`` ``(B, K+1)``, plus
    the ``(J,)`` failed mask.  ``theta`` is a ``(J, N)`` member matrix."""
    act = prob.net.activation
    layers = nnet.unflatten(prob.net, theta)
    x0 = np.broadcast_to(x0, (theta.shape[0],) + x0.shape)
    return ode.integrate_lockstep(
        lambda x: nnet.mlp_apply(layers, x, act), x0, times, prob.integrator
    )


def sysid_grid(prob: SysIdProblem):
    """Where the forward map integrates under the problem's assembly mode.

    Returns the starts ``(B, n)``, the sample times ``(B, K+1)`` and the
    indices of the M observations among the ``B (K+1)`` samples, row-major.
    Shooting starts each of the B subsets at its first observed state and
    samples it at its observation times; full assembly integrates one row
    from x0 over the reference grid.
    """
    obs = prob.observations
    if prob.assembly == "shooting":
        L = obs.subset_length
        return obs.values[::L], obs.times.reshape(-1, L), np.arange(obs.times.size)
    return np.asarray(prob.x0, dtype=float)[None], obs.grid_times[None], obs.train_indices


def _predictions(theta: np.ndarray, prob: SysIdProblem):
    """Predicted states at the observation times under the problem's assembly
    mode, ``(J, M, n)``, and the ``(J,)`` failed mask."""
    x0, times, obs_index = sysid_grid(prob)
    states, failed = _net_states(theta, prob, x0, times)
    return states.reshape(theta.shape[0], -1, states.shape[-1])[:, obs_index], failed


def sysid_forward_map(theta: np.ndarray, prob: SysIdProblem) -> ForwardMapOutput:
    """G(theta): candidate states stacked at the observation times (time-major).

    ``theta`` is one parameter vector ``(N,)`` or a member matrix ``(J, N)``,
    integrated in lockstep; ``g`` and ``failed`` carry the same leading
    shape.  Integration failures are returned as flagged, zeroed outputs
    rather than raised, so ensemble updates can freeze the offending member.
    """
    theta = np.asarray(theta, dtype=float)
    # A single vector runs as a one-member ensemble: every member's result
    # is then the same whatever the ensemble it is evaluated in.
    members = np.atleast_2d(theta)
    pred, failed = _predictions(members, prob)
    g = np.where(failed[:, None], 0.0, pred.reshape(members.shape[0], -1))
    lead = theta.shape[:-1]
    return ForwardMapOutput(g=g.reshape(lead + g.shape[-1:]), failed=failed.reshape(lead))


def sysid_loss(out: ForwardMapOutput, prob: SysIdProblem):
    """Training loss (1/M) sum_l ||xhat(t_l) - x(t_l; theta)||^2 of every
    member of a forward-map output, over its last axis; failed members score
    :data:`eki.PENALTY_LOSS`.  The EKI driver's losses and :func:`mse` are
    this one reduction, so they agree bitwise."""
    resid = out.g - prob.observations.stacked_values()
    loss = np.sum(resid * resid, axis=-1) / prob.observations.values.shape[0]
    return np.where(out.failed, PENALTY_LOSS, loss)


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

    The predictions x(t_l; theta) follow the problem's assembly mode, so the
    reported training error is exactly the quantity training minimizes.
    A failed or non-finite value is :data:`eki.PENALTY_LOSS`.
    """
    return _penalized(sysid_loss(sysid_forward_map(theta, prob), prob))


def test_mse(theta: np.ndarray, prob: SysIdProblem):
    """Same error on the reference grid minus the training points, with the
    same penalty value, of the field integrated from the known x0 over the
    whole grid.

    ``theta`` is one parameter vector ``(N,)``, giving a float, or a stack
    ``(R, N)``, giving ``(R,)`` errors.  The rows are integrated as the
    members of one lockstep pass per :data:`TEST_CHUNK_ROWS` of them and
    reduced one by one, so each error is bitwise the one its row gets alone.
    """
    theta = np.asarray(theta, dtype=float)
    rows = np.atleast_2d(theta)
    grid = prob.observations.grid_times
    x0 = np.asarray(prob.x0, dtype=float)[None]
    test = prob.observations.test_indices
    errors = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], TEST_CHUNK_ROWS):
        states, failed = _net_states(rows[start:start + TEST_CHUNK_ROWS], prob, x0, grid[None])
        for r, (row_states, row_failed) in enumerate(zip(states[:, 0], failed)):
            errors[start + r] = (
                PENALTY_LOSS if row_failed else _penalized(mse_from_states(row_states, prob, test))
            )
    return errors if theta.ndim == 2 else float(errors[0])


# ---------------------------------------------------------------------------
# Energy-regularized control of scalar linear dynamics xdot = a x + b u(t)


@dataclass
class ControlProblem:
    """Steer ``xdot = a x + b u_theta(t)`` from x0 to x_star at time T with
    small control energy.

    ``mu`` weighs the energy channel.  The energy integral uses trapezoidal
    quadrature on ``quadrature_points`` uniform intervals.  The covariance
    scales of the extended inverse problem belong to the optimizer: EKI
    takes them from ``EkiOptions.gamma``/``gamma_prime``, and
    :func:`gradbase.bptt_value_and_gradient` as arguments.
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
        if self.integrator is None:
            self.integrator = IntegratorConfig(method="rk4", dt=self.t_final / 100.0, divergence_limit=1e3)
        _check_fixed_step(self.integrator)

    def quadrature_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.quadrature_points + 1)


def make_control_problem(mu: float = 0.001, **kwargs) -> ControlProblem:
    """Paper setting: x0 = 0 and T = a = b = x_star = 1."""
    return ControlProblem(mu=mu, **kwargs)


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


def controller_values(theta: np.ndarray, prob: ControlProblem, times: np.ndarray) -> np.ndarray:
    """Evaluate u_theta on a time grid (controller input is scalar t).

    One network call for all times and members: shape ``(len(times),)`` for
    a parameter vector, ``(J, len(times))`` for a member matrix.
    """
    theta = np.asarray(theta, dtype=float)
    layers = nnet.unflatten(prob.controller, theta)
    t = np.asarray(times, dtype=float)
    x = np.broadcast_to(t[:, None], theta.shape[:-1] + (t.size, 1))
    return nnet.mlp_apply(layers, x, prob.controller.activation)[..., 0]


def control_energy(theta: np.ndarray, prob: ControlProblem):
    """Trapezoidal quadrature of ||u_theta(t)||^2 over [0, T], per member."""
    grid = prob.quadrature_grid()
    u = controller_values(theta, prob, grid)
    return np.trapezoid(u * u, grid, axis=-1)


def control_stage_grid(prob: ControlProblem):
    """Where one pass of the problem's integrator over [0, T] evaluates u_theta.

    Returns ``(stage_times, h, n_steps)``.  The stage times are the step
    starts plus the final time, and for rk4 also the step midpoints, which
    its second and third stages share: ``2 n_steps + 1`` points,
    interleaved.  The controller depends on t alone, so it is evaluated on
    this grid once, before the recurrence runs.
    """
    config = prob.integrator
    n_steps = max(1, int(np.ceil(prob.t_final / config.dt - 1e-9)))
    h = prob.t_final / n_steps
    if config.method == "rk4":
        stage_times = np.empty(2 * n_steps + 1)
        stage_times[0::2] = h * np.arange(n_steps + 1)
        stage_times[1::2] = h * np.arange(n_steps) + 0.5 * h
    else:
        stage_times = h * np.arange(n_steps + 1)
    return stage_times, h, n_steps


def control_propagator(prob: ControlProblem, h: float, method: str, n_steps: int):
    """The euler/rk4 pass over ``xdot = a x + b u`` as an affine map of u on
    the stages its steps read: ``xs = u @ M.T + x0 * r``, with M
    ``(n_steps + 1, stages)`` and r ``(n_steps + 1,)``.

    Each step is ``x' = R x + sum_i c_i u_i`` over its stages i, with R(z),
    z = h a, the amplification factor: r holds its powers and M[n] adds up
    ``R^(n-1-j) c_i`` over the steps j < n.
    """
    z, hb = h * prob.a, h * prob.b
    if method == "rk4":
        growth = z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0
        # Step start, midpoint (read by stages 2 and 3) and step end.
        coef = (hb / 6.0) * np.array(
            [1.0 + z + z * z / 2.0 + z**3 / 4.0, 4.0 + 2.0 * z + z * z / 2.0, 1.0]
        )
        stride, stages = 2, 2 * n_steps + 1
    else:
        growth, coef, stride, stages = z, [hb], 1, n_steps
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


def _propagator_blocks(prob: ControlProblem, h: float, method: str, n_steps: int):
    # Per product of a pass: its first step, its stage columns, and the M and
    # r of its steps, all cut from one propagator of at most PROPAGATOR_STEPS.
    M, r = control_propagator(prob, h, method, min(n_steps, PROPAGATOR_STEPS))
    stride = 2 if method == "rk4" else 1
    for first in range(0, n_steps, PROPAGATOR_STEPS):
        t = min(PROPAGATOR_STEPS, n_steps - first)
        width = 2 * t + 1 if method == "rk4" else t
        yield first, slice(stride * first, stride * first + width), M[:t + 1, :width], r[:t + 1]


def control_states(u_stage: np.ndarray, prob: ControlProblem, h: float, method: str) -> np.ndarray:
    """States of ``xdot = a x + b u`` at the step times, ``(..., n_steps + 1)``,
    given u on :func:`control_stage_grid` as ``(..., stages)``: one product
    with :func:`control_propagator` per :data:`PROPAGATOR_STEPS` steps, over
    the leading (member) axes."""
    u = np.asarray(u_stage, dtype=float)
    n_steps = (u.shape[-1] - 1) // 2 if method == "rk4" else u.shape[-1] - 1
    xs = np.empty(u.shape[:-1] + (n_steps + 1,))
    xs[..., 0] = prob.x0
    for first, cols, M, r in _propagator_blocks(prob, h, method, n_steps):
        xs[..., first:first + r.size] = u[..., cols] @ M.T + xs[..., first, None] * r
    return xs


def control_final_state_gradient(prob: ControlProblem, h: float, method: str, n_steps: int):
    """The gradient of the final state of :func:`control_states` with respect
    to u on :func:`control_stage_grid`: the last row of the pass's map."""
    grad = np.zeros(2 * n_steps + 1 if method == "rk4" else n_steps + 1)
    scale = 1.0  # R to the number of steps after the block
    for _, cols, M, r in reversed(list(_propagator_blocks(prob, h, method, n_steps))):
        grad[cols] += scale * M[-1]
        scale *= r[-1]
    return grad


def control_diverged(xs: np.ndarray, config: IntegratorConfig) -> np.ndarray:
    """The failure rule of the fixed-step control path, over the leading
    axes of :func:`control_states`' output: some state after the start is
    non-finite or beyond the divergence limit.  The forward map and the BPTT
    pass both apply it."""
    return ~np.all(np.abs(xs[..., 1:]) <= config.divergence_limit, axis=-1)


def _control_path(theta: np.ndarray, prob: ControlProblem):
    """Step times ``(S,)``, states ``(J, S)`` and the ``(J,)`` failed mask of
    every member of a ``(J, N)`` matrix under the problem's integrator."""
    cfg = prob.integrator
    stage_times, h, n_steps = control_stage_grid(prob)
    with np.errstate(over="ignore", invalid="ignore"):
        xs = control_states(controller_values(theta, prob, stage_times), prob, h, cfg.method)
        failed = control_diverged(xs, cfg)
    if n_steps > cfg.max_steps:
        failed[:] = True
    return h * np.arange(n_steps + 1), xs, failed


def control_trajectory(theta: np.ndarray, prob: ControlProblem):
    """Step times and states of x under one parameter vector's controller;
    the states are NaN if the integration diverged."""
    times, xs, failed = _control_path(np.asarray(theta, dtype=float)[None], prob)
    return times, np.where(failed[0], np.nan, xs[0])


def control_forward_map(theta: np.ndarray, prob: ControlProblem) -> ForwardMapOutput:
    """F(theta) = (x(T; theta), sqrt(E_T[u_theta])) for the extended problem.

    ``theta`` is one parameter vector ``(N,)`` or a member matrix ``(J, N)``;
    ``g`` is ``(..., 1)``, ``h`` and ``failed`` carry the leading shape.
    Failed members get zero outputs.
    """
    theta = np.asarray(theta, dtype=float)
    members = np.atleast_2d(theta)
    _, xs, failed = _control_path(members, prob)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = control_energy(members, prob)
    lead = theta.shape[:-1]
    g = np.where(failed, 0.0, xs[:, -1]).reshape(lead + (1,))
    h = np.where(failed, 0.0, np.sqrt(energy)).reshape(lead)
    return ForwardMapOutput(g=g, h=h, failed=failed.reshape(lead))


def control_mse(theta: np.ndarray, prob: ControlProblem, times: np.ndarray | None = None) -> float:
    """Mean squared deviation of u_theta from the analytic u* on a time grid.

    Defaults to the quadrature grid; pass a denser grid to probe times the
    training loss never touched.
    """
    if times is None:
        times = prob.quadrature_grid()
    u = controller_values(theta, prob, times)
    u_star = optimal_control(times, prob.a, prob.b, prob.x0, prob.x_star, prob.t_final)
    return float(np.mean((u - u_star) ** 2))


def control_objective(x_final, energy, prob: ControlProblem, gamma: float, gamma_prime: float):
    """0.5 (x(T) - x*)^2 / Gamma + mu / (2 Gamma') * E_T[u_theta].

    The one definition of the control loss, elementwise over members: the
    EKI driver and the BPTT baseline pass the terminal states and control
    energies they computed.
    """
    miss = x_final - prob.x_star
    return 0.5 * miss * miss / gamma + prob.mu / (2.0 * gamma_prime) * energy

