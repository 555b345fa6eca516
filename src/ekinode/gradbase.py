"""Gradient-based training baseline: BPTT plus Adam / plain SGD.

Reverse-mode differentiation through the time-unfolded network.  The
system-identification forward pass runs on :func:`ekinode.ode.integrate_lockstep`
with the forward map's starts, sample times and one-member stacked layers,
recording every network evaluation through :func:`ekinode.nnet.mlp_apply`,
and its loss is :func:`ekinode.problems.sysid_loss`.  The control forward
pass evaluates the controller on the forward map's stage and quadrature
grids and runs the same scalar recurrence.  The gradient is therefore exact
for the discrete losses the problems module reports: the training MSE for
system identification and the terminal-miss-plus-energy loss for control.
Both unfold the problem's own fixed-step (euler or rk4) integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnet, ode
from .eki import ForwardMapOutput
from .ode import IntegrationError
from .problems import ControlProblem, SysIdProblem
from .problems import control_diverged, control_objective, control_stage_grid, control_states
from .problems import sysid_grid, sysid_loss

__all__ = [
    "AdamState",
    "Tape",
    "adam_init",
    "adam_step",
    "bptt_gradient",
    "bptt_value_and_gradient",
    "sgd_step",
]


# ---------------------------------------------------------------------------
# Reverse passes through recorded network evaluations and unfolding steps


def _act_deriv(y: np.ndarray, activation: str) -> np.ndarray:
    # Derivatives from the activation OUTPUT: tanh' = 1 - y^2; for ELU with
    # alpha = 1 the output determines the branch (y < 0 iff z < 0) and the
    # negative branch has derivative e^z = y + 1.
    if activation == "tanh":
        return 1.0 - y * y
    return np.where(y < 0.0, y + 1.0, 1.0)


def _net_vjp(layers, activation: str, record, gout: np.ndarray, acc) -> np.ndarray:
    """Pull an output gradient back through one recorded :func:`nnet.mlp_apply`
    pass: add the layer gradients into ``acc``, per-layer (W, b) arrays shaped
    like ``layers``, and return the input gradient."""
    g = gout
    for (w, _), (a, y), (dw, db) in zip(reversed(layers), reversed(record), reversed(acc)):
        gz = g if y is None else g * _act_deriv(y, activation)
        dw += gz.mT @ a
        db += gz.sum(axis=-2)
        g = gz @ w
    return g


def _step_backward(layers, act, method, calls, gx, h, acc):
    """Given the gradient at a step's output, accumulate the parameter
    gradients of its recorded field evaluations and return the gradient at
    the step's input."""
    if method == "euler":
        return gx + _net_vjp(layers, act, calls[0], h * gx, acc)
    c1, c2, c3, c4 = calls
    gin = _net_vjp(layers, act, c4, (h / 6.0) * gx, acc)
    xbar = gx + gin
    gin = _net_vjp(layers, act, c3, (h / 3.0) * gx + h * gin, acc)
    xbar += gin
    gin = _net_vjp(layers, act, c2, (h / 3.0) * gx + 0.5 * h * gin, acc)
    xbar += gin
    gin = _net_vjp(layers, act, c1, (h / 6.0) * gx + 0.5 * h * gin, acc)
    return xbar + gin


# ---------------------------------------------------------------------------
# Tape: one recorded loss evaluation


@dataclass
class Tape:
    """Recorded intermediates of one discrete loss evaluation.

    ``replay`` pushes the recorded predictions through the loss again and
    must reproduce ``loss`` exactly; it is the cheap integrity check that the
    backward pass differentiates the value actually returned.  ``failed`` is
    the forward map's flag for the same parameters, a state beyond the
    divergence limit: the integrator core's for system identification,
    :func:`problems.control_diverged` for control.  Such a finite loss still
    has a gradient, but the forward map would score it :data:`eki.PENALTY_LOSS`.
    """

    kind: str  # "sysid" | "control"
    loss: float
    data: dict
    failed: bool = False

    def replay(self) -> float:
        d = self.data
        if self.kind == "sysid":
            return float(sysid_loss(d["out"], d["prob"]))
        energy = float(np.trapezoid(d["u_quad"] ** 2, d["quad_grid"]))
        return float(
            control_objective(d["x_final"], energy, d["prob"], d["gamma"], d["gamma_prime"])
        )


# ---------------------------------------------------------------------------
# System identification: MSE through the unfolded trajectory


def _record_sysid(theta: np.ndarray, prob: SysIdProblem) -> Tape:
    # One-member stacked layers on the forward map's grid: the recorded
    # states are bitwise those of problems.sysid_forward_map.
    cfg = prob.integrator
    layers = nnet.unflatten(prob.net, theta[None])
    act = prob.net.activation
    x0, times, obs_index = sysid_grid(prob)
    n_sub, lengths = ode.substeps(times, cfg.dt)
    if np.any(n_sub != n_sub[0]):
        raise ValueError("BPTT needs equal substep counts across rows within an interval")
    if n_sub[0].sum() > cfg.max_steps:
        raise IntegrationError(f"max_steps={cfg.max_steps} exceeded", t=float(times[0, 0]))
    calls = []

    def field(x):
        calls.append([])
        return nnet.mlp_apply(layers, x, act, calls[-1])

    states, failed = ode.integrate_lockstep(field, x0[None], times, cfg)
    finite = np.isfinite(states).all(axis=(0, 1, 3))
    if not finite.all():
        k = int(np.argmin(finite))
        raise IntegrationError(f"non-finite state at unfold step {k}", t=float(times[0, k]))
    n = x0.shape[-1]
    out = ForwardMapOutput(g=states.reshape(-1, n)[obs_index].reshape(-1))
    data = {
        "out": out,
        "prob": prob,
        "layers": layers,
        "act": act,
        "method": cfg.method,
        "calls": calls,
        "n_sub": n_sub[0].tolist(),
        "lengths": lengths,
        "obs_index": obs_index,
        "shape": states.shape,
    }
    return Tape("sysid", float(sysid_loss(out, prob)), data, failed=bool(failed[0]))


def _backward_sysid(tape: Tape, acc) -> None:
    d = tape.data
    layers, act, method, calls = d["layers"], d["act"], d["method"], d["calls"]
    obs = d["prob"].observations
    # dL/d(state) is 2 (xhat - x) / M at the observations, zero elsewhere.
    gstates = np.zeros(d["shape"])
    n = gstates.shape[-1]
    resid = d["out"].g - obs.stacked_values()
    gstates.reshape(-1, n)[d["obs_index"]] = (2.0 / obs.values.shape[0]) * resid.reshape(-1, n)
    # The field evaluations of each substep, last substep first.
    stages = 1 if method == "euler" else 4
    end = len(calls)
    gx = 0.0
    for k in reversed(range(len(d["lengths"]))):
        gx = gx + gstates[:, :, k + 1]
        for _ in range(d["n_sub"][k]):
            step_calls = calls[end - stages : end]
            gx = _step_backward(layers, act, method, step_calls, gx, d["lengths"][k], acc)
            end -= stages


# ---------------------------------------------------------------------------
# Control: terminal miss plus trapezoid energy through the unfolded dynamics


def _record_control(theta: np.ndarray, prob: ControlProblem, gamma: float, gamma_prime: float) -> Tape:
    cfg = prob.integrator
    layers = nnet.unflatten(prob.controller, theta)
    act = prob.controller.activation
    stage_times, h, n_steps = control_stage_grid(prob)
    if n_steps > cfg.max_steps:
        raise IntegrationError(f"max_steps={cfg.max_steps} exceeded", t=0.0)
    quad_grid = prob.quadrature_grid()
    stage_record, quad_record = [], []
    u_stage = nnet.mlp_apply(layers, stage_times[:, None], act, stage_record)[:, 0]
    u_quad = nnet.mlp_apply(layers, quad_grid[:, None], act, quad_record)[:, 0]
    xs = control_states(u_stage, prob, h, cfg.method)
    x = float(xs[-1])
    if not np.isfinite(x) or not np.all(np.isfinite(u_quad)):
        raise IntegrationError(f"non-finite state at unfold step {n_steps}", t=prob.t_final)
    energy = float(np.trapezoid(u_quad * u_quad, quad_grid))
    loss = float(control_objective(x, energy, prob, gamma, gamma_prime))
    data = {
        "x_final": x,
        "prob": prob,
        "u_quad": u_quad,
        "quad_grid": quad_grid,
        "gamma": gamma,
        "gamma_prime": gamma_prime,
        "layers": layers,
        "act": act,
        "method": cfg.method,
        "h": h,
        "n_steps": n_steps,
        "stage_record": stage_record,
        "quad_record": quad_record,
        "n_stage": stage_times.size,
    }
    return Tape("control", loss, data, failed=bool(control_diverged(xs, cfg)))


def _backward_control(tape: Tape, acc) -> None:
    d = tape.data
    layers, act, prob = d["layers"], d["act"], d["prob"]
    a, b, h, n_steps = prob.a, prob.b, d["h"], d["n_steps"]

    # Energy term: E = sum_i w_i u_i^2 with trapezoid weights, so
    # dL/du_i = (mu / 2 gamma') * 2 w_i u_i.
    grid = d["quad_grid"]
    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    g_quad = (prob.mu / (2.0 * d["gamma_prime"])) * 2.0 * w * d["u_quad"]
    _net_vjp(layers, act, d["quad_record"], g_quad[:, None], acc)

    # Terminal term back through the unfolded scalar dynamics.
    gx = (d["x_final"] - prob.x_star) / d["gamma"]
    ubar = np.zeros(d["n_stage"])
    for k in reversed(range(n_steps)):
        if d["method"] == "rk4":
            gk1 = (h / 6.0) * gx
            gk2 = (h / 3.0) * gx
            gk3 = (h / 3.0) * gx
            gk4 = (h / 6.0) * gx
            xbar = gx
            x4b = a * gk4
            xbar += x4b
            gk3 += h * x4b
            ubar[2 * k + 2] += b * gk4
            x3b = a * gk3
            xbar += x3b
            gk2 += 0.5 * h * x3b
            ubar[2 * k + 1] += b * gk3
            x2b = a * gk2
            xbar += x2b
            gk1 += 0.5 * h * x2b
            ubar[2 * k + 1] += b * gk2
            x1b = a * gk1
            xbar += x1b
            ubar[2 * k] += b * gk1
            gx = xbar
        else:
            ubar[k] += h * b * gx
            gx = gx * (1.0 + h * a)
    _net_vjp(layers, act, d["stage_record"], ubar[:, None], acc)


# ---------------------------------------------------------------------------
# Public entry points


def bptt_value_and_gradient(
    theta: np.ndarray,
    problem: SysIdProblem | ControlProblem,
    gamma: float = 1.0,
    gamma_prime: float = 1.0,
) -> tuple[float, np.ndarray, Tape]:
    """Discrete loss, its exact gradient, and the tape it was read from.

    For control problems the loss is evaluated at the given ``gamma`` and
    ``gamma_prime`` (both 1 for the plain gradient baseline).  Raises
    :class:`IntegrationError` on a non-finite state or when the unfolding
    takes more than ``max_steps`` steps.
    """
    theta = np.asarray(theta, dtype=float)
    # The gradient accumulates in place through (W, b) views of one array,
    # laid out like the layers the tape recorded through.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(problem, SysIdProblem):
            tape = _record_sysid(theta, problem)
            grad = np.zeros((1, theta.size))
            _backward_sysid(tape, nnet.unflatten(problem.net, grad))
        else:
            tape = _record_control(theta, problem, gamma, gamma_prime)
            grad = np.zeros(theta.size)
            _backward_control(tape, nnet.unflatten(problem.controller, grad))
    return tape.loss, grad.reshape(-1), tape


def bptt_gradient(
    theta: np.ndarray,
    problem: SysIdProblem | ControlProblem,
    gamma: float = 1.0,
    gamma_prime: float = 1.0,
) -> np.ndarray:
    """Exact gradient of the discrete training loss via reverse accumulation."""
    return bptt_value_and_gradient(theta, problem, gamma, gamma_prime)[1]


# ---------------------------------------------------------------------------
# Parameter updates


@dataclass(frozen=True)
class AdamState:
    """Adam moments and hyperparameters; advance with :func:`adam_step`."""

    m: np.ndarray
    v: np.ndarray
    tau: int = 0
    eta: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.m.shape != self.v.shape:
            raise ValueError("moment vectors must share a shape")
        if self.tau < 0:
            raise ValueError("step count must be nonnegative")


def adam_init(dim: int, eta: float = 0.01, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(m=np.zeros(dim), v=np.zeros(dim), tau=0, eta=eta,
                     beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, theta: np.ndarray, g: np.ndarray) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; tau increments before the corrections."""
    if theta.shape != g.shape or theta.shape != state.m.shape:
        raise ValueError("theta, gradient and moments must share a shape")
    tau = state.tau + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1**tau)
    v_hat = v / (1.0 - state.beta2**tau)
    new_theta = theta - state.eta * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = AdamState(m=m, v=v, tau=tau, eta=state.eta, beta1=state.beta1,
                          beta2=state.beta2, eps=state.eps)
    return new_state, new_theta


def sgd_step(theta: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
    """Plain gradient descent, no momentum."""
    if theta.shape != g.shape:
        raise ValueError("theta and gradient must share a shape")
    return theta - eta * g
