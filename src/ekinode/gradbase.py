"""Gradient-based training baseline: BPTT plus Adam / plain SGD.

Reverse-mode differentiation through the time-unfolded network.  The
system-identification forward pass runs on :func:`ekinode.ode.integrate_lockstep`
with the forward map's starts, sample times and one-member stacked layers,
recording every network evaluation through :func:`ekinode.nnet.mlp_apply`,
and its loss is :func:`ekinode.problems.sysid_loss`; the reverse sweep steps
back through the same steps with :func:`_step_reverse`.  The control forward
pass evaluates the controller on the forward map's stage and quadrature
grids and runs :func:`ekinode.problems.control_states`, which applies the
problem's linear propagator; the terminal state's gradient with respect to
the stage controls is that map's last row.  The gradient is therefore exact
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
from .problems import control_diverged, control_final_state_gradient, control_objective
from .problems import control_stage_grid, control_states
from .problems import sysid_grid, sysid_loss

__all__ = [
    "AdamState",
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


class _Pullback:
    """Reverse pass through recorded :func:`nnet.mlp_apply` calls.

    :meth:`vjp` carries one call's output gradient back to its input: one
    multiply by the activation derivative and one ``@ W`` per layer, logging
    each layer's output gradient.  :meth:`accumulate` then adds the weight
    and bias gradients of every logged call at once.  Each stacked product
    is the per-call BLAS product and each reduction adds the calls in sweep
    order, so the gradient equals per-call accumulation bitwise.
    """

    def __init__(self, layers, activation: str, records):
        # Every call's input to each layer, stacked; a hidden layer's
        # activated output is the next layer's input, so the derivatives of
        # all calls take one elementwise pass per hidden layer.
        self.inputs = [np.array([r[i][0] for r in records]) for i in range(len(layers))]
        derivs = [_act_deriv(a, activation) for a in self.inputs[1:]] + [None]
        self.gz = [[] for _ in layers]
        self.swept = []  # record indices in sweep order
        self._reverse = list(zip([w for w, _ in layers], derivs, self.gz))[::-1]

    def vjp(self, call: int, gout: np.ndarray) -> np.ndarray:
        g = gout
        for w, deriv, log in self._reverse:
            if deriv is not None:
                g = g * deriv[call]
            log.append(g)
            g = g @ w
        self.swept.append(call)
        return g

    def accumulate(self, acc) -> None:
        """Add the swept calls' layer gradients into ``acc``, per-layer
        (W, b) arrays shaped like the recorded layers."""
        if not self.swept:  # no field evaluation, as in one-point shooting runs
            return
        for (dw, db), gz, a in zip(acc, self.gz, self.inputs):
            gz = np.array(gz)
            dw += np.add.reduce(gz.mT @ a[self.swept])
            db += np.add.reduce(gz.sum(axis=-2))


def _step_reverse(gx, h, method, net, c):
    """Carry the state gradient of the system-identification sweep back
    through one step of :func:`ode._lockstep_euler` or :func:`ode._lockstep_rk4`.

    The step's i-th field evaluation is ``net``'s recorded call ``c + i``;
    the stages are visited last first.
    """
    if method == "euler":
        return gx + net.vjp(c, h * gx)
    half = 0.5 * h
    g6, g3 = (h / 6.0) * gx, (h / 3.0) * gx
    gin = net.vjp(c + 3, g6)
    xbar = gx + gin
    gin = net.vjp(c + 2, g3 + h * gin)
    xbar += gin
    gin = net.vjp(c + 1, g3 + half * gin)
    xbar += gin
    gin = net.vjp(c, g6 + half * gin)
    return xbar + gin


def _pull(layers, act, record, gout, acc) -> None:
    # One recorded call: its own sweep and its own accumulate step.
    net = _Pullback(layers, act, [record])
    net.vjp(0, gout)
    net.accumulate(acc)


# ---------------------------------------------------------------------------
# System identification: MSE through the unfolded trajectory


def _sysid(theta: np.ndarray, prob: SysIdProblem):
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
    loss = float(sysid_loss(out, prob))

    # dL/d(state) is 2 (xhat - x) / M at the observations, zero elsewhere.
    obs = prob.observations
    gstates = np.zeros(states.shape)
    resid = out.g - obs.stacked_values()
    gstates.reshape(-1, n)[obs_index] = (2.0 / obs.values.shape[0]) * resid.reshape(-1, n)
    # The field evaluations of each substep, last substep first; the sweep
    # carries the state gradient alone.
    net = _Pullback(layers, act, calls)
    c = len(calls)
    per_step = 1 if cfg.method == "euler" else 4
    steps = n_sub[0].tolist()
    gx = 0.0
    for k in reversed(range(len(lengths))):
        gx = gx + gstates[:, :, k + 1]
        for _ in range(steps[k]):
            c -= per_step
            gx = _step_reverse(gx, lengths[k], cfg.method, net, c)
    grad = np.zeros((1, theta.size))
    net.accumulate(nnet.unflatten(prob.net, grad))
    return loss, grad.reshape(-1), bool(failed[0])


# ---------------------------------------------------------------------------
# Control: terminal miss plus trapezoid energy through the unfolded dynamics


def _control(theta: np.ndarray, prob: ControlProblem, gamma: float, gamma_prime: float):
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
    grad = np.zeros(theta.size)
    acc = nnet.unflatten(prob.controller, grad)

    # Energy term: E = sum_i w_i u_i^2 with trapezoid weights, so
    # dL/du_i = (mu / 2 gamma') * 2 w_i u_i.
    w = np.empty_like(quad_grid)
    w[1:-1] = 0.5 * (quad_grid[2:] - quad_grid[:-2])
    w[0] = 0.5 * (quad_grid[1] - quad_grid[0])
    w[-1] = 0.5 * (quad_grid[-1] - quad_grid[-2])
    g_quad = (prob.mu / (2.0 * gamma_prime)) * 2.0 * w * u_quad
    _pull(layers, act, quad_record, g_quad[:, None], acc)

    # Terminal term: x_T is affine in the stage controls.
    ubar = ((x - prob.x_star) / gamma) * control_final_state_gradient(prob, h, cfg.method, n_steps)
    _pull(layers, act, stage_record, ubar[:, None], acc)
    return loss, grad, bool(control_diverged(xs, cfg))


# ---------------------------------------------------------------------------
# Public entry points


def bptt_value_and_gradient(
    theta: np.ndarray,
    problem: SysIdProblem | ControlProblem,
    gamma: float = 1.0,
    gamma_prime: float = 1.0,
) -> tuple[float, np.ndarray, bool]:
    """Discrete loss, its exact gradient, and the forward map's failure flag.

    For control problems the loss is evaluated at the given ``gamma`` and
    ``gamma_prime`` (both 1 for the plain gradient baseline).  The flag
    marks a state beyond the divergence limit: the integrator core's rule
    for system identification, :func:`problems.control_diverged` for
    control.  Such a finite loss still has a gradient, but the forward map
    would score it :data:`eki.PENALTY_LOSS`.  Raises
    :class:`IntegrationError` on a non-finite state or when the unfolding
    takes more than ``max_steps`` steps.
    """
    theta = np.asarray(theta, dtype=float)
    # The gradient accumulates in place through (W, b) views of one array,
    # laid out like the layers the forward pass recorded through.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(problem, SysIdProblem):
            return _sysid(theta, problem)
        return _control(theta, problem, gamma, gamma_prime)


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
    # An overflowing step yields inf/NaN parameters, which the next BPTT pass
    # reports as a non-finite state, so keep numpy quiet about it.
    with np.errstate(over="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):
        return theta - eta * g
