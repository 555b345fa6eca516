"""Gradient-based training baseline: BPTT plus Adam / plain SGD.

Reverse-mode differentiation through the time-unfolded network.  Each pass
is the forward map's own for one member, with every network evaluation
recorded into one list: :func:`ekinode.problems._net_states`, whose steps
the reverse sweep (:func:`_step_reverse`) walks back with the counts and
coefficients of the problem's plan, and :func:`ekinode.problems._control_path`,
whose terminal state's gradient with respect to the stage controls is the
last row of the linear propagator.  So the gradient is exact for the
discrete losses :func:`ekinode.problems.sysid_loss` and
:func:`ekinode.problems.control_objective`.  A pass fails as its forward
map does, and raises where a gradient needs states it cannot have: past
``max_steps``, where the problem's plan is refused, and at a non-finite
state, each family finding its unfold step (:func:`_non_finite`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnet, ode
from .eki import ForwardMapOutput
from .problems import ControlProblem, SysIdProblem, _control_path, _net_states
from .problems import control_objective, sysid_loss

__all__ = [
    "AdamState",
    "adam_init",
    "adam_step",
    "bptt_value_and_gradient",
    "sgd_step",
]


# ---------------------------------------------------------------------------
# Reverse passes through recorded network evaluations and unfolding steps


class _Pullback:
    """Reverse pass through one recorded pass of :func:`nnet.mlp_apply` calls.

    ``record`` holds every call's layer inputs in call order, so layer i's
    inputs are ``record[i::L]``.  :meth:`vjp` pops the calls last first: one
    multiply by the activation derivative and one ``@ W`` per layer, logging
    each layer's output gradient.  :meth:`gradient` then adds the weight and
    bias gradients of every swept call at once.  Each stacked product is the
    per-call BLAS product and each reduction adds the calls in sweep order,
    so the gradient equals per-call accumulation bitwise.
    """

    def __init__(self, spec: nnet.MlpSpec, theta: np.ndarray, record: list):
        self.spec = spec
        layers = nnet.unflatten(spec, theta[None])
        # Every call's input to each layer, stacked; a hidden layer's
        # activated output is the next layer's input, so the derivatives of
        # all calls take one elementwise pass per hidden layer.
        self.inputs = [np.array(record[i::len(layers)]) for i in range(len(layers))]
        derivs = [nnet._act_deriv(a, spec.activation) for a in self.inputs[1:]] + [None]
        self.gz = [[] for _ in layers]
        self._reverse = list(zip([w for w, _ in layers], derivs, self.gz))[::-1]
        self._unswept = len(self.inputs[0])

    def vjp(self, gout: np.ndarray) -> np.ndarray:
        """Pull ``gout`` back through the last call not yet swept, to its input."""
        self._unswept -= 1
        g = gout
        for w, deriv, log in self._reverse:
            if deriv is not None:
                g = g * deriv[self._unswept]
            log.append(g)
            g = g @ w
        return g

    def gradient(self) -> np.ndarray:
        """The flat ``(N,)`` gradient of the swept calls; they were swept
        last first, so the logged gradients pair with the inputs reversed."""
        grad = np.zeros((1, nnet.param_count(self.spec)))
        if self.gz[0]:  # no field evaluation in one-point shooting runs
            for (dw, db), gz, a in zip(nnet.unflatten(self.spec, grad), self.gz, self.inputs):
                gz = np.array(gz)
                dw += np.add.reduce(gz.mT @ a[::-1])
                db += np.add.reduce(gz.sum(axis=-2))
        return grad.reshape(-1)


def _step_reverse(gx, c, net):
    """Carry the state gradient of the system-identification sweep back
    through one step of :func:`ode._lockstep_rk4`.

    ``c`` is the step's coefficients ``(h, h/2, h/6, h/3)`` from the pass's
    :meth:`ode.LockstepPlan.coefficients`: floats, or arrays of ``gx``'s
    ``(1, B, n)`` shape, the pass's one member.  The step's field
    evaluations are the last calls ``net`` has not swept; it pops them last
    stage first.
    """
    h, half, sixth, third = c
    g6, g3 = sixth * gx, third * gx
    gin = net.vjp(g6)
    xbar = gx + gin
    gin = net.vjp(g3 + h * gin)
    xbar += gin
    gin = net.vjp(g3 + half * gin)
    xbar += gin
    gin = net.vjp(g6 + half * gin)
    return xbar + gin


def _non_finite(step: int) -> ode.IntegrationError:
    # The refusal of a pass that reached a non-finite state, at its unfold step.
    return ode.IntegrationError(f"non-finite state at unfold step {step}")


# ---------------------------------------------------------------------------
# System identification: MSE through the unfolded trajectory


def _sysid(theta: np.ndarray, prob: SysIdProblem):
    # The forward map's own pass for one member, every field evaluation
    # recorded: its states and flag are those of problems.sysid_forward_map.
    plan = prob.plan
    record = []
    states, failed = _net_states(theta[None], prob, prob.observations.starts, plan, record)
    # A non-finite state fails the bounds test, so only a flagged pass holds one.
    if failed[0] and not np.isfinite(states).all():
        raise _non_finite(int(np.argmin(np.isfinite(states).all(axis=(0, 1, 3)))))
    out = ForwardMapOutput(g=states.reshape(-1))
    loss = float(sysid_loss(out, prob))

    # dL/d(state) is 2 (xhat - x) / M: every sample is an observation.
    obs = prob.observations
    resid = out.g - obs.stacked_values()
    gstates = ((2.0 / obs.values.shape[0]) * resid).reshape(states.shape)
    # The substeps are swept last first, and each pops its own field
    # evaluations; the sweep carries the state gradient alone, with the
    # coefficients the forward pass stepped with.
    net = _Pullback(prob.net, theta, record)
    coefficients = plan.coefficients(states[:, :, 0].shape)
    counts = plan.counts.tolist()
    gx = 0.0
    for k in reversed(range(len(counts))):
        gx = gx + gstates[:, :, k + 1]
        for _ in range(counts[k]):
            gx = _step_reverse(gx, coefficients[k], net)
    return loss, net.gradient(), bool(failed[0])


# ---------------------------------------------------------------------------
# Control: terminal miss plus trapezoid energy through the unfolded dynamics


def _control(theta: np.ndarray, prob: ControlProblem, gamma: float, gamma_prime: float):
    # The forward map's own pass for one member, its controller recorded on
    # the plan's grid: the stage grid, then the quadrature points it lacks.
    plan = prob.plan
    record = []
    xs, energy, failed, u = _control_path(theta[None], prob, record)
    x, u = float(xs[0, -1]), u[0]
    u_quad = u[plan.quad_cols]
    if not np.isfinite(x) or not np.all(np.isfinite(u_quad)):
        raise _non_finite(plan.n_steps)
    loss = float(control_objective(x, float(energy[0]), prob, gamma, gamma_prime))

    # Terminal term: x_T is affine in the stage controls.  Energy term:
    # E = sum_i w_i u_i^2 with trapezoid weights, so dL/du_i =
    # (mu / 2 gamma') * 2 w_i u_i, added on the quadrature columns.
    gu = np.zeros(u.size)
    gu[:plan.stages] = ((x - prob.x_star) / gamma) * plan.final_row
    gu[plan.quad_cols] += (prob.mu / (2.0 * gamma_prime)) * 2.0 * plan.quad_weights * u_quad
    net = _Pullback(prob.controller, theta, record)
    net.vjp(gu[None, :, None])
    return loss, net.gradient(), bool(failed[0])


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
    :class:`IntegrationError` when the unfolding takes more than
    ``max_steps`` steps (tested first) and on a non-finite state.
    """
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(problem, SysIdProblem):
            return _sysid(theta, problem)
        return _control(theta, problem, gamma, gamma_prime)


# ---------------------------------------------------------------------------
# Parameter updates


# Adam's fixed constants: the moment decay rates and the denominator's guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    """What an Adam step changes: the first and second moments and the step
    count.  The decay rates and the guard are the constants :data:`BETA1`,
    :data:`BETA2` and :data:`EPS`; the learning rate comes with each step."""

    m: np.ndarray
    v: np.ndarray
    tau: int = 0

    def __post_init__(self):
        if self.m.shape != self.v.shape:
            raise ValueError("moment vectors must share a shape")
        if self.tau < 0:
            raise ValueError("step count must be nonnegative")


def adam_init(dim: int) -> AdamState:
    return AdamState(m=np.zeros(dim), v=np.zeros(dim))


def adam_step(state: AdamState, theta: np.ndarray, g: np.ndarray,
              eta: float) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update with learning rate ``eta``; tau
    increments before the corrections."""
    if theta.shape != g.shape or theta.shape != state.m.shape:
        raise ValueError("theta, gradient and moments must share a shape")
    tau = state.tau + 1
    # An overflowing step yields inf/NaN parameters, which the next BPTT pass
    # reports as a non-finite state, so keep numpy quiet about it.
    with np.errstate(over="ignore", invalid="ignore"):
        m = BETA1 * state.m + (1.0 - BETA1) * g
        v = BETA2 * state.v + (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**tau)
        v_hat = v / (1.0 - BETA2**tau)
        new_theta = theta - eta * m_hat / (np.sqrt(v_hat) + EPS)
    return AdamState(m=m, v=v, tau=tau), new_theta


def sgd_step(theta: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
    """Plain gradient descent, no momentum."""
    if theta.shape != g.shape:
        raise ValueError("theta and gradient must share a shape")
    with np.errstate(over="ignore", invalid="ignore"):
        return theta - eta * g
