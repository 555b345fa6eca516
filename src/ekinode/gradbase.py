"""Gradient-based training baseline: BPTT plus Adam / plain SGD.

Reverse-mode differentiation through the time-unfolded network.  The forward
pass mirrors :func:`ekinode.ode.integrate` step for step (fixed-step Euler or
RK4 only), so the gradient is exact for the same discrete losses the
problems module reports: the training MSE for system identification and the
terminal-miss-plus-energy loss for control.  Adaptive integrators are
rejected because step acceptance is not differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnet
from .ode import IntegrationError, IntegratorConfig
from .problems import ControlProblem, SysIdProblem
from .problems import control_objective, control_stage_grid, control_states

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
# Batched taped MLP passes


def _act_deriv(y: np.ndarray, activation: str) -> np.ndarray:
    # Derivatives from the activation OUTPUT: tanh' = 1 - y^2; for ELU with
    # alpha = 1 the output determines the branch (y < 0 iff z < 0) and the
    # negative branch has derivative e^z = y + 1.
    if activation == "tanh":
        return 1.0 - y * y
    return np.where(y < 0.0, y + 1.0, 1.0)


def _net_forward(layers, activation: str, x: np.ndarray):
    """Forward pass on a (B, in) batch, caching per-layer input/output."""
    caches = []
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = h @ w.T + b
        if i != last:
            z = nnet._activate(z, activation)
            caches.append((h, z))
        else:
            caches.append((h, None))
        h = z
    return h, caches


def _net_vjp(layers, activation: str, caches, gout: np.ndarray):
    """Pull a (B, out) output gradient back; returns (input grad, layer grads)."""
    g = gout
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        w, _ = layers[i]
        a, y = caches[i]
        gz = g if y is None else g * _act_deriv(y, activation)
        grads[i] = (gz.T @ a, gz.sum(axis=0))
        g = gz @ w
    return g, grads


def _zero_acc(layers):
    return [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]


def _add_acc(acc, grads):
    for slot, (dw, db) in zip(acc, grads):
        slot[0] += dw
        slot[1] += db


# ---------------------------------------------------------------------------
# Differentiable unfolding steps (state-dependent autonomous field f(x))


def _step_forward(layers, act, x, h, method):
    if method == "euler":
        k1, c1 = _net_forward(layers, act, x)
        return x + h * k1, (c1,)
    k1, c1 = _net_forward(layers, act, x)
    k2, c2 = _net_forward(layers, act, x + 0.5 * h * k1)
    k3, c3 = _net_forward(layers, act, x + 0.5 * h * k2)
    k4, c4 = _net_forward(layers, act, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (c1, c2, c3, c4)


def _step_backward(layers, act, caches, gx, h, method, acc):
    """Given the gradient at the step output, accumulate parameter gradients
    and return the gradient at the step input."""
    if method == "euler":
        (c1,) = caches
        gin, grads = _net_vjp(layers, act, c1, h * gx)
        _add_acc(acc, grads)
        return gx + gin
    c1, c2, c3, c4 = caches
    gk1 = (h / 6.0) * gx
    gk2 = (h / 3.0) * gx
    gk3 = (h / 3.0) * gx
    gk4 = (h / 6.0) * gx
    xbar = gx.copy()
    gin, grads = _net_vjp(layers, act, c4, gk4)
    _add_acc(acc, grads)
    xbar += gin
    gk3 = gk3 + h * gin
    gin, grads = _net_vjp(layers, act, c3, gk3)
    _add_acc(acc, grads)
    xbar += gin
    gk2 = gk2 + 0.5 * h * gin
    gin, grads = _net_vjp(layers, act, c2, gk2)
    _add_acc(acc, grads)
    xbar += gin
    gk1 = gk1 + 0.5 * h * gin
    gin, grads = _net_vjp(layers, act, c1, gk1)
    _add_acc(acc, grads)
    xbar += gin
    return xbar


def _substeps(t0: float, t1: float, dt: float):
    n_sub = max(1, int(np.ceil((t1 - t0) / dt - 1e-9)))
    return n_sub, (t1 - t0) / n_sub


# ---------------------------------------------------------------------------
# Tape: one recorded loss evaluation


@dataclass
class Tape:
    """Recorded intermediates of one discrete loss evaluation.

    ``replay`` pushes the recorded predictions through the loss again and
    must reproduce ``loss`` exactly; it is the cheap integrity check that the
    backward pass differentiates the value actually returned.
    """

    kind: str  # "sysid" | "control"
    loss: float
    data: dict

    def replay(self) -> float:
        if self.kind == "sysid":
            resid = (self.data["preds"] - self.data["targets"]) * self.data["mask"]
            return float(np.sum(resid * resid) / self.data["m_count"])
        d = self.data
        energy = float(np.trapezoid(d["u_quad"] ** 2, d["quad_grid"]))
        return float(
            control_objective(d["x_final"], energy, d["prob"], d["gamma"], d["gamma_prime"])
        )


def _check_unfold(prob, unfold: IntegratorConfig | None) -> IntegratorConfig:
    if unfold is None:
        unfold = prob.integrator
    if unfold.method not in ("euler", "rk4"):
        raise ValueError("BPTT unfolding needs a fixed-step method (euler or rk4)")
    return unfold


# ---------------------------------------------------------------------------
# System identification: MSE through the unfolded trajectory


def _sysid_graph(prob: SysIdProblem):
    """Checkpoint times, initial states, observation mask and targets for the
    problem's assembly mode.  Shapes: x0s (B, n), targets (B, K+1, n)."""
    obs = prob.observations
    n = np.asarray(prob.x0).size
    if prob.assembly == "shooting":
        L = obs.subset_length
        B = obs.num_subsets
        seg_times = obs.times[:L]
        spacings = np.diff(obs.times.reshape(B, L), axis=1)
        if not np.allclose(spacings, spacings[0, 0]):
            raise ValueError("shooting BPTT requires uniformly spaced observations")
        x0s = obs.values.reshape(B, L, n)[:, 0, :]
        targets = obs.values.reshape(B, L, n)
        mask = np.ones(L, dtype=bool)
        return x0s, seg_times - seg_times[0], mask, targets
    mask = np.zeros(obs.grid_times.size, dtype=bool)
    mask[obs.train_indices] = True
    targets = np.zeros((1, obs.grid_times.size, n))
    targets[0, obs.train_indices] = obs.values
    return np.asarray(prob.x0, dtype=float).reshape(1, n), obs.grid_times, mask, targets


def _record_sysid(theta: np.ndarray, prob: SysIdProblem, unfold: IntegratorConfig) -> Tape:
    layers = nnet.unflatten(prob.net, theta)
    act = prob.net.activation
    x0s, times, mask, targets = _sysid_graph(prob)
    B, n = x0s.shape
    K = times.size - 1
    preds = np.empty((B, K + 1, n))
    preds[:, 0] = x0s
    intervals = []
    x = x0s
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(K):
            n_sub, h = _substeps(times[i], times[i + 1], unfold.dt)
            steps = []
            for _ in range(n_sub):
                x, caches = _step_forward(layers, act, x, h, unfold.method)
                steps.append((h, caches))
            if not np.all(np.isfinite(x)):
                raise IntegrationError(f"non-finite state at unfold step {i + 1}", t=float(times[i + 1]))
            preds[:, i + 1] = x
            intervals.append(steps)
    m_count = int(mask.sum()) * B
    with np.errstate(over="ignore", invalid="ignore"):
        resid = (preds - targets) * mask[None, :, None]
        loss = float(np.sum(resid * resid) / m_count)
    data = {
        "preds": preds,
        "targets": targets,
        "mask": mask[None, :, None],
        "m_count": m_count,
        "intervals": intervals,
        "layers": layers,
        "act": act,
        "method": unfold.method,
        "resid": resid,
    }
    return Tape("sysid", loss, data)


def _backward_sysid(tape: Tape) -> list:
    d = tape.data
    layers, act, method = d["layers"], d["act"], d["method"]
    acc = _zero_acc(layers)
    scale = 2.0 / d["m_count"]
    resid = d["resid"]
    K = len(d["intervals"])
    gx = scale * resid[:, K]
    for i in reversed(range(K)):
        for h, caches in reversed(d["intervals"][i]):
            gx = _step_backward(layers, act, caches, gx, h, method, acc)
        if i > 0:
            gx = gx + scale * resid[:, i]
    return acc


# ---------------------------------------------------------------------------
# Control: terminal miss plus trapezoid energy through the unfolded dynamics


def _record_control(
    theta: np.ndarray,
    prob: ControlProblem,
    unfold: IntegratorConfig,
    gamma: float,
    gamma_prime: float,
) -> Tape:
    layers = nnet.unflatten(prob.controller, theta)
    act = prob.controller.activation
    stage_times, h, n_steps = control_stage_grid(prob, unfold)
    with np.errstate(over="ignore", invalid="ignore"):
        u_stage, stage_caches = _net_forward(layers, act, stage_times[:, None])
        u_stage = u_stage[:, 0]
        quad_grid = prob.quadrature_grid()
        u_quad, quad_caches = _net_forward(layers, act, quad_grid[:, None])
        u_quad = u_quad[:, 0]
        x = float(control_states(u_stage, prob, h, unfold.method)[-1])
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
        "method": unfold.method,
        "h": h,
        "n_steps": n_steps,
        "stage_caches": stage_caches,
        "quad_caches": quad_caches,
        "n_stage": stage_times.size,
    }
    return Tape("control", loss, data)


def _backward_control(tape: Tape) -> list:
    d = tape.data
    layers, act, prob = d["layers"], d["act"], d["prob"]
    acc = _zero_acc(layers)
    a, b, h, n_steps = prob.a, prob.b, d["h"], d["n_steps"]

    # Energy term: E = sum_i w_i u_i^2 with trapezoid weights, so
    # dL/du_i = (mu / 2 gamma') * 2 w_i u_i.
    grid = d["quad_grid"]
    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    g_quad = (prob.mu / (2.0 * d["gamma_prime"])) * 2.0 * w * d["u_quad"]
    _, grads = _net_vjp(layers, act, d["quad_caches"], g_quad[:, None])
    _add_acc(acc, grads)

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
    _, grads = _net_vjp(layers, act, d["stage_caches"], ubar[:, None])
    _add_acc(acc, grads)
    return acc


# ---------------------------------------------------------------------------
# Public entry points


def bptt_value_and_gradient(
    theta: np.ndarray,
    problem: SysIdProblem | ControlProblem,
    unfold: IntegratorConfig | None = None,
    gamma: float = 1.0,
    gamma_prime: float = 1.0,
) -> tuple[float, np.ndarray, Tape]:
    """Discrete loss, its exact gradient, and the tape it was read from.

    For control problems the loss is evaluated at the given ``gamma`` and
    ``gamma_prime`` (both 1 for the plain gradient baseline).
    """
    theta = np.asarray(theta, dtype=float)
    unfold = _check_unfold(problem, unfold)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(problem, SysIdProblem):
            tape = _record_sysid(theta, problem, unfold)
            acc = _backward_sysid(tape)
            spec = problem.net
        else:
            tape = _record_control(theta, problem, unfold, gamma, gamma_prime)
            acc = _backward_control(tape)
            spec = problem.controller
    grad = nnet.flatten(spec, [(dw, db) for dw, db in acc])
    return tape.loss, grad, tape


def bptt_gradient(
    theta: np.ndarray,
    problem: SysIdProblem | ControlProblem,
    unfold: IntegratorConfig | None = None,
    gamma: float = 1.0,
    gamma_prime: float = 1.0,
) -> np.ndarray:
    """Exact gradient of the discrete training loss via reverse accumulation."""
    return bptt_value_and_gradient(theta, problem, unfold, gamma, gamma_prime)[1]


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
