"""Initial-value-problem integrators: forward Euler, classic RK4, and an
adaptive Dormand-Prince 5(4) pair with FSAL.

A vector field is any callable ``field(x, t) -> dx/dt`` with fixed state
dimension.  :func:`integrate` samples the solution exactly at the requested
times: adaptive steps are clipped to land on them, fixed-step methods
subdivide each inter-sample interval into equal steps.  It is the scalar
reference path: one trajectory of one field per call.

:func:`integrate_lockstep` is the batched fixed-step core.  It advances a
``(members, trajectories, state)`` array of autonomous fields in lockstep
with the same step arithmetic, and reports divergence as a per-member mask
instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegrationError",
    "IntegratorConfig",
    "Trajectory",
    "euler_step",
    "rk4_step",
    "dopri_step",
    "integrate",
    "integrate_lockstep",
    "substeps",
]

VectorField = Callable[[np.ndarray, float], np.ndarray]

METHODS = ("euler", "rk4", "dopri5")
# The methods that integrate_lockstep runs, and so every training run.
FIXED_STEP_METHODS = ("euler", "rk4")


class IntegrationError(RuntimeError):
    """Raised when a trajectory leaves the finite domain or exhausts max_steps."""

    def __init__(self, message: str, t: float | None = None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


@dataclass(frozen=True)
class IntegratorConfig:
    """Method selection plus step-size / tolerance knobs.

    ``dt`` drives euler/rk4; ``rtol``/``atol`` drive dopri5.  ``max_steps``
    bounds the total step count of one :func:`integrate` call, guarding
    against runaway adaptive stepping on wild parameter draws.  States whose
    magnitude exceeds ``divergence_limit`` abort the integration with an
    :class:`IntegrationError`; set the limit a few orders above the expected
    state scale so hopeless candidate fields fail fast instead of dragging
    enormous-but-finite values into downstream statistics.
    """

    method: str = "dopri5"
    dt: float = 0.01
    rtol: float = 1e-6
    atol: float = 1e-8
    max_steps: int = 1_000_000
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if not self.divergence_limit > 0:
            raise ValueError("divergence_limit must be positive")


@dataclass
class Trajectory:
    """Solution samples: ``times`` strictly increasing, ``states[i]`` at ``times[i]``."""

    times: np.ndarray  # (M,)
    states: np.ndarray  # (M, n)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states count must equal times count")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _check_finite(x: np.ndarray, t: float, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise IntegrationError(f"non-finite {what} at t={t}", t=t, state=x)


def _check_bounded(x: np.ndarray, t: float, limit: float) -> None:
    if np.max(np.abs(x)) > limit:
        raise IntegrationError(f"state magnitude exceeds {limit:g} at t={t}", t=t, state=x)


def euler_step(field: VectorField, x: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One forward-Euler step ``x + dt * field(x, t)``."""
    k = np.asarray(field(x, t), dtype=float)
    _check_finite(k, t, "field output")
    return x + dt * k


def rk4_step(field: VectorField, x: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classic fourth-order Runge-Kutta step."""
    k1 = np.asarray(field(x, t), dtype=float)
    k2 = np.asarray(field(x + 0.5 * dt * k1, t + 0.5 * dt), dtype=float)
    k3 = np.asarray(field(x + 0.5 * dt * k2, t + 0.5 * dt), dtype=float)
    k4 = np.asarray(field(x + dt * k3, t + dt), dtype=float)
    x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_finite(x_new, t + dt, "state")
    return x_new


# Dormand-Prince 5(4) tableau (DOPRI5).  The last stage row equals the 5th
# order weights, giving the first-same-as-last (FSAL) property.  The stage
# rows are arrays built once, not per step; the nodes are Python floats.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = tuple(
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b - b_hat, weights of the embedded 4th-order error estimate
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0


def dopri_step(
    field: VectorField,
    x: np.ndarray,
    t: float,
    h: float,
    rtol: float,
    atol: float,
    k1: np.ndarray | None = None,
):
    """One trial Dormand-Prince step of size ``h``.

    Returns ``(x_new, err, h_next, k_last)``.  ``err`` is the RMS of the
    embedded error estimate scaled componentwise by
    ``atol + rtol * max(|x|, |x_new|)``; the step is accepted iff
    ``err <= 1``.  ``h_next = h * clamp(0.9 * err**(-1/5), 0.2, 5.0)``.
    ``k1`` may carry the FSAL stage of the previous accepted step;
    ``k_last`` is the stage at ``(x_new, t + h)`` for reuse.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    k = np.empty((7, np.size(x)))
    if k1 is None:
        k1 = np.asarray(field(x, t), dtype=float)
        _check_finite(k1, t, "field output")
    k[0] = k1
    for i in range(1, 7):
        k[i] = field(x + h * (_DP_A[i] @ k[:i]), t + _DP_C[i] * h)
    x_new = x + h * (_DP_B @ k)
    if not np.isfinite(x_new).all():
        raise IntegrationError(f"non-finite state at t={t + h}", t=t + h, state=x_new)
    r = h * (_DP_E @ k) / (atol + rtol * np.maximum(np.abs(x), np.abs(x_new)))
    err = math.sqrt(np.add.reduce(r * r) / r.size)
    if err == 0.0:
        factor = _FAC_MAX
    else:
        factor = min(_FAC_MAX, max(_FAC_MIN, _SAFETY * err ** -0.2))
    return x_new, err, h * factor, k[6]


def _initial_step(field, x0, t0, rtol, atol):
    # Cheap variant of the classic starting-step heuristic: balance the
    # first derivative against the tolerance scale.
    f0 = np.asarray(field(x0, t0), dtype=float)
    _check_finite(f0, t0, "field output")
    scale = atol + rtol * np.abs(x0)
    d0 = np.sqrt(np.mean((x0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return h0, f0


def integrate(
    field: VectorField,
    x0: np.ndarray,
    times: np.ndarray,
    config: IntegratorConfig,
) -> Trajectory:
    """Integrate ``field`` from ``x0`` and sample at ``times``.

    ``times`` must be strictly increasing with ``times[0]`` the initial
    time.  The returned trajectory carries the requested times verbatim;
    its first state is ``x0`` exactly.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must be nonempty")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((times.size, x0.size))
    states[0] = x0

    # Overflow inside a step surfaces as an IntegrationError from the finite
    # check rather than a warning, so keep numpy quiet about it.
    with np.errstate(over="ignore", invalid="ignore"):
        return _integrate_loop(field, x0, times, config, states)


def _integrate_loop(field, x0, times, config, states) -> Trajectory:
    if config.method in ("euler", "rk4"):
        step = euler_step if config.method == "euler" else rk4_step
        x = x0
        n_steps = 0
        for i in range(times.size - 1):
            t0, t1 = times[i], times[i + 1]
            # Subdivide into equal steps no longer than dt (tolerating float
            # noise when the interval is an exact multiple of dt).
            n_sub = max(1, int(np.ceil((t1 - t0) / config.dt - 1e-9)))
            h = (t1 - t0) / n_sub
            n_steps += n_sub
            if n_steps > config.max_steps:
                raise IntegrationError(
                    f"max_steps={config.max_steps} exceeded at t={t0}", t=float(t0), state=x
                )
            for s in range(n_sub):
                x = step(field, x, t0 + s * h, h)
                _check_bounded(x, t0 + (s + 1) * h, config.divergence_limit)
            states[i + 1] = x
        return Trajectory(times=times.copy(), states=states)

    # dopri5: adaptive steps clipped so every sample time is hit exactly.
    # Step bookkeeping runs in time elapsed since times[0] so that shifting
    # an autonomous problem in time cannot perturb the clip arithmetic; the
    # field and error reports still see absolute time.
    x = x0
    t0 = float(times[0])
    tau = 0.0
    rtol, atol, limit = config.rtol, config.atol, config.divergence_limit
    h, k1 = _initial_step(field, x0, t0, rtol, atol)
    h = float(h)
    n_steps = 0
    for i, t_i in enumerate(times[1:].tolist(), start=1):
        target = t_i - t0
        while tau < target:
            clipped = h >= target - tau
            h_try = min(h, target - tau)
            x_new, err, h_next, k_last = dopri_step(field, x, t0 + tau, h_try, rtol, atol, k1)
            n_steps += 1
            if n_steps > config.max_steps:
                raise IntegrationError(
                    f"max_steps={config.max_steps} exceeded at t={t0 + tau}", t=t0 + tau, state=x
                )
            if err <= 1.0:
                tau = target if clipped else tau + h_try
                x = x_new
                if np.abs(x).max() > limit:
                    raise IntegrationError(
                        f"state magnitude exceeds {limit:g} at t={t0 + tau}", t=t0 + tau, state=x
                    )
                k1 = k_last
            h = h_next
        states[i] = x
    return Trajectory(times=times.copy(), states=states)


def integrate_lockstep(field, x0: np.ndarray, times: np.ndarray, config: IntegratorConfig):
    """Fixed-step (euler/rk4) integration of J autonomous fields over B
    trajectories each, all advanced in lockstep.

    ``field(x)`` maps states ``(J, B, n)`` to their derivatives, member j's
    field acting on ``x[j]``.  ``x0`` is ``(J, B, n)``; row b is sampled at
    ``times[b]``, a ``(B, K+1)`` array strictly increasing along each row.
    Every row subdivides each of its intervals exactly as :func:`integrate`
    does, so rows may differ in step length and substep count.

    Returns ``(states, failed)``: states ``(J, B, K+1, n)`` and a ``(J,)``
    mask.  Member j is flagged exactly when :func:`integrate` would raise
    for one of its rows: a non-finite state, a state component beyond
    ``divergence_limit`` after any step, or more than ``max_steps`` steps.
    States of flagged members are meaningless.
    """
    if config.method not in FIXED_STEP_METHODS:
        raise ValueError(f"lockstep integration needs euler or rk4, got {config.method!r}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 2 or times.shape[1] == 0:
        raise ValueError("times must be a nonempty (trajectories, samples) array")
    if np.any(np.diff(times, axis=1) <= 0):
        raise ValueError("times must be strictly increasing")
    x = np.asarray(x0, dtype=float)
    J, B, n = x.shape
    states = np.empty((J, B, times.shape[1], n))
    states[:, :, 0] = x
    n_sub, lengths = substeps(times, config.dt)
    if np.any(n_sub.sum(axis=1) > config.max_steps):
        # Step counts depend on the grid alone, so every member fails.
        return states, np.ones(J, dtype=bool)
    # Per interval, the fewest and the most substeps of any row.
    fewest, most = n_sub.min(axis=0).tolist(), n_sub.max(axis=0).tolist()
    step = _lockstep_euler if config.method == "euler" else _lockstep_rk4
    failed = np.zeros(J, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, hk in enumerate(lengths):
            for s in range(most[k]):
                x_new = step(field, x, hk)
                # Rows already through their substeps keep their state.
                x = x_new if s < fewest[k] else np.where((s < n_sub[:, k])[:, None], x_new, x)
                if s < most[k] - 1:
                    failed |= _out_of_bounds(x, config.divergence_limit, axis=(1, 2))
            states[:, :, k + 1] = x
        # Each interval's last substep lands in ``states``: check them at once.
        failed |= _out_of_bounds(states[:, :, 1:], config.divergence_limit, axis=(1, 2, 3))
    return states, failed


def substeps(times: np.ndarray, dt: float):
    """How the fixed-step methods subdivide a ``(B, K+1)`` time grid.

    Every interval is split into equal substeps no longer than ``dt``, with
    :func:`integrate`'s arithmetic.  Returns the ``(B, K)`` substep counts
    and, per interval, the substep length: a Python float when every row
    shares it (the same arithmetic in fewer array operations), else a
    ``(B, 1)`` column.
    """
    spans = np.diff(times, axis=1)
    n_sub = np.maximum(1, np.ceil(spans / dt - 1e-9).astype(int))
    h = spans / n_sub
    shared = np.all(h == h[:1], axis=0).tolist()
    lengths = [float(h[0, k]) if shared[k] else h[:, k, None] for k in range(h.shape[1])]
    return n_sub, lengths


def _out_of_bounds(x, limit, axis):
    # NaN compares false, so this flags non-finite and oversized states alike.
    return ~np.all(np.abs(x) <= limit, axis=axis)


def _lockstep_euler(field, x, h):
    return x + h * field(x)


def _lockstep_rk4(field, x, h):
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
