"""Initial-value-problem integrators: the batched fixed-step (classic RK4)
core that every training pass runs, and an adaptive Dormand-Prince 5(4)
pair with FSAL that makes the reference data.

A vector field for :func:`integrate` is any callable ``field(x, t) ->
dx/dt`` with fixed state dimension that takes the state as a list of floats
and returns a float sequence.  :func:`integrate` runs dopri5 alone and
samples the solution exactly at the requested times, its adaptive steps
clipped to land on them: one trajectory of one field per call, returned as
its ``(M, n)`` states.  It makes the identification problems' reference
grids.  Every trial step runs on Python floats in one function per state
size, generated from the tableau and compiled on first use, which writes
out each component's stage, update and error sum, added left to right
over its tableau row; one loop in :func:`integrate` controls the steps.
So IEEE arithmetic alone decides the grids' bits, whatever the BLAS
kernel.

:func:`integrate_lockstep` is the batched fixed-step core.  It advances a
``(members, trajectories, state)`` array of autonomous fields in lockstep,
each inter-sample interval in equal substeps, and reports divergence as a
per-member mask instead of raising.  A :class:`LockstepPlan` holds what its
passes over one time grid under one :class:`IntegratorConfig` share: the
step counts and every step's coefficients, read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DopriConfig",
    "IntegrationError",
    "IntegratorConfig",
    "integrate",
    "integrate_lockstep",
    "LockstepPlan",
    "substeps",
]

VectorField = Callable[[Sequence[float], float], Sequence[float]]


class IntegrationError(RuntimeError):
    """Raised when a trajectory leaves the finite domain or exhausts max_steps."""


def _check_positive(config, *names: str) -> None:
    # The rule of both records: the named fields and the shared bounds positive.
    for name in (*names, "divergence_limit", "max_steps"):
        if not getattr(config, name) > 0:
            raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class IntegratorConfig:
    """A fixed-step RK4 pass of :func:`integrate_lockstep`, each sample
    interval in equal substeps no longer than ``dt``.  A pass whose
    :func:`substeps` counts sum past ``max_steps`` is refused, and a state
    component beyond ``divergence_limit`` flags its member: set the limit a
    few orders above the state scale, so hopeless candidate fields fail
    fast instead of feeding huge finite values downstream."""

    dt: float = 0.01
    max_steps: int = 1_000_000
    divergence_limit: float = 1e6

    def __post_init__(self):
        _check_positive(self, "dt")


@dataclass(frozen=True)
class DopriConfig:
    """An adaptive Dormand-Prince run of :func:`integrate`, whose one loop
    controls every step, at tolerances ``rtol``/``atol``: it raises past
    ``max_steps`` attempted steps, or at a state component beyond
    ``divergence_limit``."""

    rtol: float = 1e-6
    atol: float = 1e-8
    max_steps: int = 1_000_000
    divergence_limit: float = 1e6

    def __post_init__(self):
        _check_positive(self, "rtol", "atol")


def _check_increasing(times: np.ndarray) -> None:
    # Along the last axis: one sample grid, or each row of a (B, K+1) grid.
    # A NaN difference compares false, so a NaN time is refused too.
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")


# Dormand-Prince 5(4) tableau (DOPRI5).  The last stage row equals the 5th
# order weights (the 7th weight is 0), giving the first-same-as-last (FSAL)
# property: the 7th stage argument is the new state.  Rows and nodes are
# Python floats, zeros included.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# b - b_hat, weights of the embedded 4th-order error estimate
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0


def _initial_step(field, x0, t0, rtol, atol):
    # Cheap variant of the classic starting-step heuristic: balance the
    # first derivative against the tolerance scale.  Returns the step and
    # the first stage.  The state and the field's output shape and type are
    # checked here, once per integration: a step checks only the length of
    # each output.  A type that arithmetic with a Python float keeps (float32,
    # say) would run the steps at its own precision.
    x = np.asarray(x0, dtype=float)
    if x.size == 0:
        raise ValueError("x0 must have at least one component")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    f0 = np.asarray(field(x0, t0))
    if f0.shape != x.shape:
        raise ValueError(f"field returned shape {f0.shape} for a state of shape {x.shape}")
    if np.result_type(f0, 0.0) != np.float64:
        raise ValueError(f"field returned {f0.dtype} values, not float64")
    f0 = f0.astype(float)
    if not np.all(np.isfinite(f0)):
        raise IntegrationError(f"non-finite field output at t={t0}")
    scale = atol + rtol * np.abs(x)
    d0 = np.sqrt(np.mean((x / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return h0, f0


@functools.cache
def _dopri_step(n):
    # One dopri5 trial step on states of n components, written out component
    # by component from _DP_C, _DP_A and _DP_E (their float reprs, which
    # round-trip exactly) and compiled once per n.  step(field, x, k1, t, h,
    # rtol, atol) returns the new state as a list, the last stage as the
    # field returned it, and the error norm's sum of squares.  Each stage
    # argument and the new state is x_m + h * (a1 * k1_m + ... ), added left
    # to right with the zero coefficients kept; unpacking each output
    # refuses one of another length.  No text from a caller enters the
    # source: only the tableau's floats and n.
    def unpacked(name):
        # Trailing commas: a 1-component target is a tuple too.
        return "".join(f"{name}_{m}, " for m in range(n))

    def row_sum(row, m):
        return " + ".join(f"{a!r} * k{j}_{m}" for j, a in enumerate(row, start=1))

    def stage(i, argument):
        return [f"    k{i} = field({argument}, t + {_DP_C[i - 1]!r} * h)",
                "    try:",
                f"        {unpacked(f'k{i}')}= k{i}",
                "    except ValueError:",
                f"        raise ValueError(f'field returned shape {{shape(k{i})}} "
                f"for a state of shape ({n},)') from None"]

    lines = ["def step(field, x, k1, t, h, rtol, atol):",
             f"    {unpacked('x')}= x",
             f"    {unpacked('k1')}= k1"]
    for i in range(2, 7):
        argument = ", ".join(f"x_{m} + h * ({row_sum(_DP_A[i - 1], m)})" for m in range(n))
        lines += stage(i, f"[{argument}]")
    lines += [f"    y_{m} = x_{m} + h * ({row_sum(_DP_A[6], m)})" for m in range(n)]
    lines.append(f"    new = [{', '.join(f'y_{m}' for m in range(n))}]")
    lines += stage(7, "new")
    # A non-finite last stage counts as a non-finite state at t + h, as in
    # the full 7-weight sum, where its zero weight times inf is NaN.
    finite = " and ".join(f"isfinite({v}_{m})" for v in ("y", "k7") for m in range(n))
    lines += [f"    if not ({finite}):",
              '        raise IntegrationError(f"non-finite state at t={t + h}")']
    lines += [f"    r_{m} = h * ({row_sum(_DP_E, m)}) / (atol + rtol * max(abs(x_{m}), abs(y_{m})))"
              for m in range(n)]
    lines.append(f"    return new, k7, {' + '.join(f'r_{m} * r_{m}' for m in range(n))}")
    namespace = {"isfinite": math.isfinite, "shape": np.shape, "IntegrationError": IntegrationError}
    exec(compile("\n".join(lines) + "\n", f"<ekinode.ode dopri5 step, n={n}>", "exec"), namespace)
    return namespace["step"]


# Overflow inside a step surfaces as an IntegrationError from the finite
# check rather than a warning, so keep numpy quiet about it.
@np.errstate(over="ignore", invalid="ignore")
def integrate(
    field: VectorField,
    x0: np.ndarray,
    times: np.ndarray,
    config: DopriConfig,
) -> np.ndarray:
    """Integrate ``field`` from ``x0`` with dopri5 and sample at ``times``.

    ``times`` must be a nonempty 1-D grid, strictly increasing, with
    ``times[0]`` the initial time.  Returns the ``(M, n)`` states, ``states[i]`` at ``times[i]``;
    the first is ``x0`` exactly.  Adaptive steps are clipped so every
    sample time is hit exactly.

    Every trial step runs on Python floats, in the step generated for the
    state's size (compiled once per size and process), and one loop
    controls the steps.  The field sees each stage argument as a list of
    floats and may return any sequence of Python or float64 values of the
    state's length.  An empty or non-finite ``x0`` (refused before the
    field is called), a first output of another shape or of another float
    type, and a later output of another length raise ``ValueError``.  A
    trial step of size ``h`` from ``x`` is accepted iff ``err <= 1``,
    ``err`` the RMS of the embedded error estimate scaled componentwise by
    ``atol + rtol * max(|x|, |x_new|)``; the next trial is ``h * clamp(0.9
    * err**(-1/5), 0.2, 5.0)``.  Each stage argument is ``x + h * s`` and
    the new state ``x + h * s``, per component, with ``s`` the sum over its
    tableau row of coefficient times stage, written out per component and
    added left to right with the zero coefficients kept; the error
    estimate is its row's sum the same way, and the error norm sums its
    squares left to right.  So the grid's bits are IEEE arithmetic's alone,
    the same under any BLAS kernel.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must be nonempty")
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")
    x0 = np.asarray(x0, dtype=float)
    _check_increasing(times)
    states = np.empty((times.size, x0.size))
    states[0] = x0
    # Step bookkeeping runs in time elapsed since times[0] so that shifting
    # an autonomous problem in time cannot change the clip arithmetic; the
    # field and error reports still see absolute time.  The state is a list
    # of floats (a scalar x0 runs as a 1-list).
    x = x0.reshape(-1).tolist()
    n = len(x)
    t0 = float(times[0])
    tau = 0.0
    rtol, atol, limit, max_steps = config.rtol, config.atol, config.divergence_limit, config.max_steps
    h, k1 = _initial_step(field, x, t0, rtol, atol)
    h, k1 = float(h), k1.tolist()
    step = _dopri_step(n)
    n_steps = 0
    for i, t_i in enumerate(times[1:].tolist(), start=1):
        target = t_i - t0
        while tau < target:
            clipped = h >= target - tau
            h_try = min(h, target - tau)
            if not h_try > 0:
                raise ValueError("step size must be positive")
            t = t0 + tau
            new, k7, total = step(field, x, k1, t, h_try, rtol, atol)
            err = math.sqrt(total / n)
            n_steps += 1
            if n_steps > max_steps:
                raise IntegrationError(f"max_steps={max_steps} exceeded at t={t}")
            if err <= 1.0:
                tau = target if clipped else tau + h_try
                x = new
                if max(map(abs, x)) > limit:
                    raise IntegrationError(f"state magnitude exceeds {limit:g} at t={t0 + tau}")
                k1 = k7
            h = h_try * (_FAC_MAX if err == 0.0 else
                         min(_FAC_MAX, max(_FAC_MIN, _SAFETY * err ** -0.2)))
        states[i] = x
    return states


class LockstepPlan:
    """How batched fixed-step passes run over one ``(B, K+1)`` time grid
    under one config, decided once: a read-only copy of the grid, checked
    strictly increasing along each row, the :func:`substeps` ``counts`` and,
    per state shape, every interval's step coefficients.  A pass past
    ``max_steps`` gets no plan: building one raises :class:`IntegrationError`.

    The steps of :func:`integrate_lockstep` and their reverse read the
    coefficients as they are and form none, so a grid that many passes
    share pays for its plan once.
    """

    def __init__(self, times: np.ndarray, config: IntegratorConfig):
        times = _read_only(np.array(times, dtype=float))
        if times.ndim != 2 or times.shape[1] == 0:
            raise ValueError("times must be a nonempty (trajectories, samples) array")
        _check_increasing(times)
        self.times, self.config = times, config
        self.counts, self._lengths = substeps(times, config)
        self._coefficients = {}

    def coefficients(self, shape: tuple) -> list:
        """Per interval, the substep coefficients ``(h, h/2, h/6, h/3)`` of a
        pass on states of ``shape`` ``(J, B, n)``: Python floats where every
        row shares the length ``h``, else read-only arrays of ``shape`` whose
        row b holds row b's.  Built on the first pass of each shape."""
        coefficients = self._coefficients.get(shape)
        if coefficients is None:
            coefficients = self._coefficients[shape] = [
                tuple(c if isinstance(c, float) else _laid_out(c, shape)
                      for c in (h, 0.5 * h, h / 6.0, h / 3.0))
                for h in self._lengths
            ]
        return coefficients


def _read_only(array, *more):
    # The one freeze of every array a built problem or plan holds: the
    # arrays become read-only in place, and the first is returned, so a
    # derived value is frozen where it is made.
    for a in (array, *more):
        a.setflags(write=False)
    return array


def _laid_out(column, shape):
    # A (B, 1) column as an array of the state's own shape: a product with
    # the state then runs one loop, not one per (member, row).
    return _read_only(np.broadcast_to(column, shape).copy())


def integrate_lockstep(field, x0: np.ndarray, plan: LockstepPlan):
    """Fixed-step RK4 integration of J autonomous fields over B
    trajectories each, all advanced in lockstep.

    ``field(x)`` maps states ``(J, B, n)`` to their derivatives, member j's
    field acting on ``x[j]``.  ``x0`` is ``(J, B, n)``; row b is sampled at
    ``plan.times[b]``.  Each interval takes the :func:`substeps` count for
    every row, each row with its own substep length.

    Returns ``(states, failed)``: states ``(J, B, K+1, n)`` and a ``(J,)``
    mask; the steps it took are ``plan.counts``, with the coefficients
    ``plan.coefficients(x0.shape)``.  Member j is flagged for a non-finite
    state or a component beyond ``divergence_limit`` after any step;
    flagged members' states are meaningless.
    """
    x = np.asarray(x0, dtype=float)
    J, B, n = x.shape
    states = np.empty((J, B, plan.times.shape[1], n))
    states[:, :, 0] = x
    limit = plan.config.divergence_limit
    failed = np.zeros(J, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (count, c) in enumerate(zip(plan.counts.tolist(), plan.coefficients(x.shape))):
            for s in range(count):
                x = _lockstep_rk4(field, x, c)
                if s < count - 1:
                    failed |= _out_of_bounds(x, limit, axis=(1, 2))
            states[:, :, k + 1] = x
        # Each interval's last substep lands in ``states``: check them at once.
        failed |= _out_of_bounds(states[:, :, 1:], limit, axis=(1, 2, 3))
    return states, failed


def substeps(times: np.ndarray, config: IntegratorConfig):
    """How a batched fixed-step pass runs over a ``(B, K+1)`` time grid.
    Each interval takes one substep count for every row: the most that any
    row needs for equal substeps no longer than ``config.dt`` (at least
    one, with ``1e-9`` of float noise forgiven when a span is an exact
    multiple of ``dt``).  Returns ``(counts, lengths)``: the ``(K,)``
    integer counts and, per interval, each row's substep length, its span
    over the count (a Python float when every row shares it, else a
    ``(B, 1)`` column, which :class:`LockstepPlan` lays out once per state
    shape), read-only as every array of a plan is.  Counts that sum past
    ``config.max_steps`` raise :class:`IntegrationError`, and so do counts
    past the float range, which are formed in floating point as inf.
    """
    spans = np.diff(times, axis=1)
    with np.errstate(over="ignore"):
        counts = np.maximum(1.0, np.ceil(spans / config.dt - 1e-9)).max(axis=0)
    if counts.sum() > config.max_steps:
        raise IntegrationError(f"max_steps={config.max_steps} exceeded")
    counts = _read_only(counts.astype(int))
    h = _read_only(spans / counts)
    shared = np.all(h == h[:1], axis=0).tolist()
    lengths = [float(h[0, k]) if shared[k] else h[:, k, None] for k in range(h.shape[1])]
    return counts, lengths


def _out_of_bounds(x, limit, axis):
    # NaN compares false, so this flags non-finite and oversized states alike.
    return ~np.all(np.abs(x) <= limit, axis=axis)


# A step reads its interval's coefficients (h, h/2, h/6, h/3) of the state's
# shape, or floats, from LockstepPlan.coefficients: each product is the
# column arithmetic's, elementwise, with its operands in the same order.


def _lockstep_rk4(field, x, c):
    h, half, sixth, _ = c
    k1 = field(x)
    k2 = field(x + half * k1)
    k3 = field(x + half * k2)
    k4 = field(x + h * k3)
    return x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
