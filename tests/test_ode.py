"""Unit tests for the adaptive integrator and the batched fixed-step core,
with the scalar oracles they are checked against."""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from ekinode import ode, problems
from ekinode.problems import pendulum_energy, pendulum_field, spiral_field, spiral_solution

ATOL = 1e-12

# The fixed-step scheme a case runs, named in its id: the core has RK4 alone.
RK4 = pytest.mark.parametrize("scheme", ["rk4"])


def exp_field(x, t):
    return x


def zero_field(x, t):
    return np.zeros_like(x)


# Oracle for the fixed-step path: one trajectory of one field per call,
# stepped on 1-D arrays, each interval in equal substeps no longer than dt.
# It raises where integrate_lockstep flags a member.  Its closed-form tests
# follow.


def _check_finite(x, t, what):
    if not np.all(np.isfinite(x)):
        raise ode.IntegrationError(f"non-finite {what} at t={t}")


def rk4_step(field, x, t, dt):
    """One classic fourth-order Runge-Kutta step."""
    k1 = np.asarray(field(x, t), dtype=float)
    k2 = np.asarray(field(x + 0.5 * dt * k1, t + 0.5 * dt), dtype=float)
    k3 = np.asarray(field(x + 0.5 * dt * k2, t + 0.5 * dt), dtype=float)
    k4 = np.asarray(field(x + dt * k3, t + dt), dtype=float)
    x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_finite(x_new, t + dt, "state")
    return x_new


@np.errstate(over="ignore", invalid="ignore")
def fixed_step_integrate(field, x0, times, config):
    """The scalar RK4 integration of ``field(x, t)`` from ``x0``,
    sampled at ``times``: the ``(M, n)`` states, as :func:`ode.integrate`
    returns them, or an :class:`ode.IntegrationError` for a non-finite
    state, a state beyond ``divergence_limit`` or a step count past
    ``max_steps``."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must be nonempty")
    x0 = np.asarray(x0, dtype=float)
    ode._check_increasing(times)
    states = np.empty((times.size, x0.size))
    states[0] = x0
    x = x0
    n_steps = 0
    for i in range(times.size - 1):
        t0, t1 = times[i], times[i + 1]
        # Subdivide into equal steps no longer than dt (tolerating float
        # noise when the interval is an exact multiple of dt).  The count
        # is a float until it passes max_steps: an overflowing one is inf.
        n_sub = max(1.0, np.ceil((t1 - t0) / config.dt - 1e-9))
        n_steps += n_sub
        if n_steps > config.max_steps:
            raise ode.IntegrationError(f"max_steps={config.max_steps} exceeded at t={t0}")
        n_sub = int(n_sub)
        h = (t1 - t0) / n_sub
        for s in range(n_sub):
            x = rk4_step(field, x, t0 + s * h, h)
            if np.max(np.abs(x)) > config.divergence_limit:
                raise ode.IntegrationError(
                    f"state magnitude exceeds {config.divergence_limit:g} at t={t0 + (s + 1) * h}"
                )
        states[i + 1] = x
    return states


def test_rk4_step_matches_exponential_to_fifth_order():
    out = rk4_step(exp_field, np.array([1.0]), 0.0, 0.1)
    # Local truncation error of RK4 is O(h^5).
    assert abs(out[0] - np.exp(0.1)) < 1e-7


def scalar_paths(dt):
    """The scalar paths, each with its record: integrate, which runs dopri5,
    and the fixed-step oracle, at step ``dt``."""
    return ((ode.integrate, ode.DopriConfig()),
            (fixed_step_integrate, ode.IntegratorConfig(dt=dt)))


def test_integrate_zero_field_constant_states():
    for integrate, config in scalar_paths(0.1):
        states = integrate(zero_field, np.array([1.0, 0.0]), np.array([0.0, 1.0, 2.0]), config)
        assert np.array_equal(states, np.tile([1.0, 0.0], (3, 1)))


def test_integrate_returns_requested_times_bitwise():
    # Irrational-looking grid: float noise must be carried through verbatim,
    # so each sample is the last state of the run that stops at its time.
    times = np.sqrt(np.arange(17, dtype=float))
    for integrate, config in scalar_paths(0.05):
        states = integrate(spiral_field, np.array([1.0, 0.0]), times, config)
        assert states.shape == (times.size, 2)
        assert np.array_equal(states[0], np.array([1.0, 0.0]))
        for k in (1, 5, 16):
            shorter = integrate(spiral_field, np.array([1.0, 0.0]), times[:k + 1], config)
            assert np.array_equal(shorter[-1], states[k])


def test_dopri_spiral_at_pi():
    config = ode.DopriConfig(rtol=1e-8, atol=1e-10)
    traj = ode.integrate(spiral_field, np.array([1.0, 0.0]), np.array([0.0, np.pi]), config)
    expected = np.array([-np.exp(-np.pi / 20.0), 0.0])
    assert np.max(np.abs(traj[-1] - expected)) < 1e-6


def test_dopri_spiral_matches_closed_form_over_full_horizon():
    rtol = 1e-6
    config = ode.DopriConfig(rtol=rtol, atol=1e-9)
    times = np.linspace(0.0, 40.0, 101)
    traj = ode.integrate(spiral_field, np.array([1.0, 0.0]), times, config)
    assert np.max(np.abs(traj - spiral_solution(times))) < 10 * rtol


def test_pendulum_conserves_energy():
    config = ode.DopriConfig(rtol=1e-9, atol=1e-12)
    x0 = np.array([np.pi / 4.0, 0.0])
    times = np.linspace(0.0, 20.0, 201)
    traj = ode.integrate(pendulum_field, x0, times, config)
    energies = pendulum_energy(traj)
    assert np.max(np.abs(energies - energies[0])) < 1e-6


def order_ratio(dt):
    times = np.array([0.0, 1.0])
    ref = spiral_solution(1.0)
    errs = []
    for step in (dt, dt / 2.0):
        config = ode.IntegratorConfig(dt=step)
        traj = fixed_step_integrate(spiral_field, np.array([1.0, 0.0]), times, config)
        errs.append(np.max(np.abs(traj[-1] - ref)))
    return errs[0] / errs[1]


def test_rk4_global_order():
    assert 12.0 < order_ratio(0.1) < 20.0


@seed(4)
@given(st.integers(1, 64))
@settings(max_examples=15, deadline=None)
def test_autonomous_shift_invariance(quarter_shifts):
    # Time-shifted integration of an autonomous field retraces the states.
    # Dyadic shifts keep the grid intervals exactly representable.
    shift = quarter_shifts * 0.25
    times = np.linspace(0.0, 2.0, 9)
    for integrate, config in ((fixed_step_integrate, ode.IntegratorConfig(dt=0.01)),
                              (ode.integrate, ode.DopriConfig())):
        a = integrate(spiral_field, np.array([1.0, 0.0]), times, config)
        b = integrate(spiral_field, np.array([1.0, 0.0]), times + shift, config)
        assert np.array_equal(a, b)


def test_integrate_validates_times():
    # Empty times are refused first, then unordered ones (a repeated or a
    # NaN time), before the field is ever called.
    config = ode.DopriConfig()
    calls = []

    def counted(x, t):
        calls.append(t)
        return zero_field(x, t)

    with pytest.raises(ValueError, match="^times must be nonempty$"):
        ode.integrate(counted, np.array([]), np.array([]), config)
    for times in ([0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="strictly increasing"):
            ode.integrate(counted, np.array([]), np.array(times), config)
    assert calls == []


def test_trajectory_validation():
    # The sample grid integrate accepts: a repeated time, a grid that is not
    # 1-D (its sample count is not the states count) and a NaN time are all
    # refused before the field is called.
    config = ode.DopriConfig()
    calls = []

    def counted(x, t):
        calls.append(t)
        return zero_field(x, t)

    with pytest.raises(ValueError, match="strictly increasing"):
        ode.integrate(counted, np.zeros(1), np.array([0.0, 0.0]), config)
    for times in (np.array(0.0), np.array([[0.0, 1.0]]), np.array([[0.0], [1.0]])):
        with pytest.raises(ValueError, match="^times must be one-dimensional$"):
            ode.integrate(counted, np.zeros(1), times, config)
    with pytest.raises(ValueError, match="strictly increasing"):
        ode.integrate(counted, np.zeros(1), np.array([0.0, np.nan]), config)
    assert calls == []


def test_max_steps_exceeded():
    config = ode.IntegratorConfig(dt=0.001, max_steps=10)
    with pytest.raises(ode.IntegrationError):
        fixed_step_integrate(zero_field, np.array([1.0]), np.array([0.0, 1.0]), config)
    # A step count past the float range is inf: it exceeds max_steps rather
    # than failing to become an integer.
    for dt in (1e-320, 5e-324):
        config = ode.IntegratorConfig(dt=dt)
        with pytest.raises(ode.IntegrationError, match=r"^max_steps=1000000 exceeded at t=0.0$"):
            fixed_step_integrate(zero_field, np.array([1.0]), np.array([0.0, 1.0]), config)
    # dopri5 counts every attempted step, rejected ones included.
    config = ode.DopriConfig(max_steps=5)
    with pytest.raises(ode.IntegrationError, match=r"^max_steps=5 exceeded at t=\d"):
        ode.integrate(spiral_field, np.array([1.0, 0.0]), np.array([0.0, 10.0]), config)


def test_divergence_limit_aborts():
    # The message says where the trajectory left the bound.
    for integrate, config in ((fixed_step_integrate,
                               ode.IntegratorConfig(dt=0.1, divergence_limit=10.0)),
                              (ode.integrate, ode.DopriConfig(divergence_limit=10.0))):
        with pytest.raises(ode.IntegrationError, match=r"^state magnitude exceeds 10 at t=\d"):
            integrate(lambda x, t: [5.0 * v for v in x], np.array([1.0]), np.array([0.0, 10.0]),
                      config)


def test_non_finite_field_output_aborts_with_location():
    def bad_field(x, t):
        return np.array([np.inf])

    # The fixed-step oracle checks each step's end state, dopri5 its first
    # stage.
    for integrate, config, message in (
        (fixed_step_integrate, ode.IntegratorConfig(dt=0.1), r"^non-finite state at t=0\.1$"),
        (ode.integrate, ode.DopriConfig(), r"^non-finite field output at t=0\.0$"),
    ):
        with pytest.raises(ode.IntegrationError, match=message):
            integrate(bad_field, np.array([1.0]), np.array([0.0, 1.0]), config)


def test_overflowing_field_aborts_instead_of_warning():
    # Cubic blowup overflows float64 quickly; the oracle must turn that into
    # an IntegrationError without emitting numpy warnings.
    config = ode.IntegratorConfig(dt=0.5, divergence_limit=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ode.IntegrationError):
            fixed_step_integrate(lambda x, t: x ** 3, np.array([2.0]), np.array([0.0, 50.0]), config)


# Each record refuses a value its integrator cannot run: a non-positive step,
# tolerance or bound, or no step at all.  The fixed-step record has no method
# to choose, dopri5 included: RK4 is its one step, and a method is an unknown
# field.
RECORD_REFUSALS = [
    *[(record, name, value, ValueError, f"{name} must be positive")
      for record, names in ((ode.IntegratorConfig, ("dt", "divergence_limit")),
                            (ode.DopriConfig, ("rtol", "atol", "divergence_limit")))
      for name in names for value in (0.0, -1.0)],
    *[(record, "max_steps", 0, ValueError, "max_steps must be positive")
      for record in (ode.IntegratorConfig, ode.DopriConfig)],
    *[(ode.IntegratorConfig, "method", method, TypeError,
       r"IntegratorConfig\.__init__\(\) got an unexpected keyword argument 'method'")
      for method in ("dopri5", "rk45")],
]


@pytest.mark.parametrize("record, name, value, error, message", RECORD_REFUSALS,
                         ids=[f"{r.__name__}-{n}={v}" for r, n, v, _, _ in RECORD_REFUSALS])
def test_integrator_records_refuse_bad_values(record, name, value, error, message):
    with pytest.raises(error, match=rf"^{message}$"):
        record(**{name: value})


def _scalar_reference(matrices, x0, times, config):
    # Per member and row, the scalar oracle: member j fails if any row raises.
    states = np.zeros((len(matrices),) + times.shape + x0.shape[-1:])
    failed = np.zeros(len(matrices), dtype=bool)
    for j, a in enumerate(matrices):
        try:
            for b in range(times.shape[0]):
                states[j, b] = fixed_step_integrate(lambda x, t: a @ x, x0[j, b], times[b], config)
        except ode.IntegrationError:
            failed[j] = True
    return states, failed


@seed(9)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 0.07]),
    st.sampled_from([8, 10**6]),
)
@settings(max_examples=30, deadline=None)
def test_lockstep_matches_scalar_integrate(s, dt, max_steps):
    # Rows with their own uneven sample times, each interval 1-4 substeps
    # that every row needs (its spans lie inside one count's band), and
    # members whose linear fields blow past the divergence limit next to
    # members that stay put.
    rng = np.random.default_rng(s)
    J, B, K, n = 5, 3, 4, 2
    counts = rng.integers(1, 5, size=K)
    spans = dt * (counts - rng.uniform(0.05, 0.95, size=(B, K)))
    times = np.cumsum(np.hstack([rng.uniform(0.0, 1.0, size=(B, 1)), spans]), axis=1)
    x0 = rng.normal(size=(J, B, n))
    rates = np.array([0.5, 0.5, 40.0, 0.5, rng.choice([0.5, 40.0])])
    matrices = rates[:, None, None] * rng.normal(size=(J, n, n))
    config = ode.IntegratorConfig(dt=dt, max_steps=max_steps, divergence_limit=20.0)
    if counts.sum() > max_steps:
        # Past max_steps there is no plan, as the scalar oracle refuses every
        # row on its step count (under a field that cannot diverge first).
        with pytest.raises(ode.IntegrationError, match=rf"^max_steps={max_steps} exceeded$"):
            ode.LockstepPlan(times, config)
        for b in range(B):
            with pytest.raises(ode.IntegrationError, match=rf"^max_steps={max_steps} exceeded at"):
                fixed_step_integrate(zero_field, x0[0, b], times[b], config)
        return
    plan = ode.LockstepPlan(times, config)
    states, failed = ode.integrate_lockstep(lambda x: x @ matrices.mT, x0, plan)
    # The plan holds the substeps decision the pass ran.
    assert np.array_equal(plan.counts, ode.substeps(times, config)[0])
    assert np.array_equal(plan.counts, counts)
    ref_states, ref_failed = _scalar_reference(matrices, x0, times, config)
    assert np.array_equal(failed, ref_failed)
    ok = ~ref_failed
    scale = np.maximum(1.0, np.abs(ref_states[ok]))
    assert np.all(np.abs(states[ok] - ref_states[ok]) <= 1e-12 * scale)


@RK4
def test_lockstep_takes_the_most_substeps_any_row_needs(scheme):
    # Row 0 needs 4 substeps in the second interval and row 1 needs 3: both
    # rows take 4 there, each of its own length.  So each row equals the
    # scalar oracle over one interval at a time, at a dt that gives the
    # interval's count.
    times = np.array([[0.0, 0.3, 0.7], [1.0, 1.3, 1.6]])
    config = ode.IntegratorConfig(dt=0.1)
    rng = np.random.default_rng(12)
    matrices = rng.normal(size=(2, 2, 2))
    x0 = rng.normal(size=(2, 2, 2))
    plan = ode.LockstepPlan(times, config)
    states, failed = ode.integrate_lockstep(lambda x: x @ matrices.mT, x0, plan)
    counts = plan.counts
    assert counts.tolist() == [3, 4] and not failed.any()
    for j in range(2):
        for b in range(2):
            ref = [x0[j, b]]
            for k, count in enumerate(counts.tolist()):
                dt_k = (times[b, k + 1] - times[b, k]) / count * (1.0 + 1e-12)
                ref.append(fixed_step_integrate(lambda x, t: matrices[j] @ x, ref[-1],
                                                times[b, k:k + 2], replace(config, dt=dt_k))[-1])
            scale = np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(states[j, b] - ref) <= 1e-12 * scale)
    # At its own count, the scalar oracle's row 1 would end elsewhere.
    alone = fixed_step_integrate(lambda x, t: matrices[0] @ x, x0[0, 1], times[1], config)[-1]
    assert not np.allclose(alone, states[0, 1, -1], rtol=1e-12, atol=0.0)


def test_substeps_decides_counts_lengths_and_max_steps():
    # Spans of row 1 are exact multiples of dt up to float noise: their
    # quotients read just above 3, and the 1e-9 tolerance keeps 3 substeps.
    # Row 0 needs 4 in the second interval, so the interval takes 4.
    times = np.array([[0.0, 0.3, 0.7], [1.0, 1.3, 1.6]])
    config = ode.IntegratorConfig(dt=0.1, max_steps=7)
    assert (1.3 - 1.0) / 0.1 > 3.0 and (1.6 - 1.3) / 0.1 > 3.0
    counts, lengths = ode.substeps(times, config)
    assert counts.tolist() == [3, 4] and counts.dtype.kind == "i"
    # Each row keeps its own length, span / count: no longer than dt, up to
    # the tolerance.
    spans = np.diff(times, axis=1)
    for k, h in enumerate(lengths):
        assert np.array_equal(h, (spans[:, k] / counts[k])[:, None])
        assert np.all(h <= 0.1 * (1.0 + 1e-9))
    # A length every row shares is a Python float.
    assert ode.substeps(times[:1], config)[1] == [0.3 / 3, (0.7 - 0.3) / 4]
    # max_steps bounds the counts' sum, 7: one less refuses the pass.
    with pytest.raises(ode.IntegrationError, match=r"^max_steps=6 exceeded$"):
        ode.substeps(times, replace(config, max_steps=6))
    # Each row takes every interval's count: here each row needs 7 substeps
    # but takes 8, past max_steps.
    crossed = np.array([[0.0, 0.4, 0.7], [1.0, 1.3, 1.7]])
    with pytest.raises(ode.IntegrationError, match=r"^max_steps=7 exceeded$"):
        ode.substeps(crossed, config)
    assert ode.substeps(crossed, replace(config, max_steps=8))[0].tolist() == [4, 4]
    # A quotient past the float range is inf, not a wrapped integer, and is
    # refused at any max_steps, with no RuntimeWarning (the pytest config
    # makes them errors).
    for dt in (5e-324, 1e-320):
        with pytest.raises(ode.IntegrationError, match=r"^max_steps=1000000 exceeded$"):
            ode.substeps(times, replace(config, dt=dt, max_steps=10**6))


def test_lockstep_plan_holds_a_read_only_copy_of_its_times():
    # A write to the caller's array after the build moves neither the plan's
    # times nor the pass, which lands on the built times: two RK4 steps of
    # 0.5 under a unit field.
    t = np.array([[0.0, 0.5, 1.0]])
    plan = ode.LockstepPlan(t, ode.IntegratorConfig(dt=0.5))
    t[0, 2] = 3.0
    assert plan.times.tolist() == [[0.0, 0.5, 1.0]] and not plan.times.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        plan.times[0, 2] = 3.0
    states, failed = ode.integrate_lockstep(np.ones_like, np.zeros((1, 1, 1)), plan)
    assert same_bits(states[0, 0, :, 0], plan.times[0]) and not failed.any()


def test_lockstep_rejects_bad_times():
    # A NaN time compares false with every time: it is refused, not stepped
    # with a count cast from NaN.
    for times in (np.array([0.0, 1.0]), np.empty((1, 0)), np.array([[0.0, 0.0]]),
                  np.array([[0.0, np.nan, 1.0]])):
        with pytest.raises(ValueError, match="times must be"):
            ode.LockstepPlan(times, ode.IntegratorConfig())



# Oracle for the lockstep steps: the column arithmetic they replaced.  Each
# step forms its coefficients from the substep length, a Python float or
# each row's length as a (B, 1) column, and broadcasts them over the state.


def column_rk4(field, x, h):
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def column_lockstep(field, x0, times, config):
    """Reference for ``integrate_lockstep``: the pass deciding its substeps
    itself and stepping with the column arithmetic; ``(states, failed)``."""
    x = np.asarray(x0, dtype=float)
    J, B, n = x.shape
    states = np.empty((J, B, times.shape[1], n))
    states[:, :, 0] = x
    counts, lengths = ode.substeps(times, config)
    failed = np.zeros(J, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (count, h) in enumerate(zip(counts.tolist(), lengths)):
            for s in range(count):
                x = column_rk4(field, x, h)
                if s < count - 1:
                    failed |= ~np.all(np.abs(x) <= config.divergence_limit, axis=(1, 2))
            states[:, :, k + 1] = x
        failed |= ~np.all(np.abs(states[:, :, 1:]) <= config.divergence_limit, axis=(1, 2, 3))
    return states, failed


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@RK4
@pytest.mark.parametrize("members", [1, 5])
def test_lockstep_matches_the_column_oracle_bitwise(scheme, members):
    # Rows with their own uneven times, so most intervals have per-row
    # lengths, some intervals of several substeps, and a nonlinear field
    # that sends one member of five past the divergence limit.  One plan
    # serves two passes, the second reading the coefficients the first laid out.
    rng = np.random.default_rng(31 + members)
    B, K, n = 4, 6, 2
    spans = 0.1 * (rng.integers(1, 4, size=K) - rng.uniform(0.05, 0.95, size=(B, K)))
    times = np.cumsum(np.hstack([rng.uniform(0.0, 1.0, size=(B, 1)), spans]), axis=1)
    config = ode.IntegratorConfig(dt=0.1, divergence_limit=30.0)
    plan = ode.LockstepPlan(times, config)
    assert plan.counts.max() > 1
    a = rng.normal(size=(members, n, n))
    rates = np.array([0.3, 0.3, 20.0, 0.3, 0.3])[:members, None, None]

    def field(x):
        return np.tanh(x @ a.mT) + rates * x

    for _ in range(2):
        x0 = rng.normal(size=(members, B, n))
        states, failed = ode.integrate_lockstep(field, x0, plan)
        ref_states, ref_failed = column_lockstep(field, x0, times, config)
        assert same_bits(states, ref_states) and np.array_equal(failed, ref_failed)
    assert failed.tolist() == [False, False, True, False, False][:members]
    coefficients = plan.coefficients((members, B, n))
    assert coefficients is plan.coefficients((members, B, n))
    assert any(not isinstance(c[0], float) for c in coefficients)


def test_lockstep_plan_lays_out_each_coefficient_once_per_state_shape():
    # Per state shape, each interval's (h, h/2, h/6, h/3): a float where every
    # row shares h, else a read-only array of that shape, row b holding row b's.
    times = np.array([[0.0, 0.3, 0.7], [1.0, 1.3, 1.6]])
    plan = ode.LockstepPlan(times, ode.IntegratorConfig(dt=0.1))
    _, lengths = ode.substeps(times, plan.config)
    for shape in ((1, 2, 3), (4, 2, 3)):
        coefficients = plan.coefficients(shape)
        assert coefficients is plan.coefficients(shape) and len(coefficients) == 2
        for h, c in zip(lengths, coefficients):
            for got, want in zip(c, (h, 0.5 * h, h / 6.0, h / 3.0)):
                if isinstance(h, float):
                    assert type(got) is float and got == want
                else:
                    assert got.shape == shape and not got.flags.writeable
                    assert same_bits(got, np.broadcast_to(want, shape))
    assert isinstance(ode.LockstepPlan(times[:1], plan.config).coefficients((1, 1, 3))[0][0], float)


def test_dopri_max_steps_counts_every_step_it_takes():
    # max_steps bounds the attempted steps, rejected ones included: a budget
    # of exactly the steps a call takes passes, one fewer raises.  Each step
    # evaluates the field six times, after one first-stage evaluation.
    calls = []

    def counted(x, t):
        calls.append(t)
        return spiral_field(x, t)

    x0, times = np.array([1.0, 0.0]), np.array([0.0, 2.0, 5.0])
    reference = ode.integrate(counted, x0, times, ode.DopriConfig())
    steps, rest = divmod(len(calls) - 1, 6)
    assert rest == 0 and steps > 2
    exact = ode.integrate(spiral_field, x0, times, ode.DopriConfig(max_steps=steps))
    assert same_bits(exact, reference)
    with pytest.raises(ode.IntegrationError, match=rf"^max_steps={steps - 1} exceeded"):
        ode.integrate(spiral_field, x0, times, ode.DopriConfig(max_steps=steps - 1))

# Oracle for the adaptive path: the textbook Dormand-Prince step on Python
# floats, each stage argument, the full 7-weight 5th-order update and the
# error estimate a plain loop over its tableau row that adds coefficient
# times stage left to right, zeros included, in the adaptive sampling loop
# integrate runs, plus a count of rejected steps.  integrate must reproduce
# it bitwise.
_ORACLE_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)


def _row_sum(row, k, m):
    # Component m of sum_j row[j] * k[j], from the first term on.
    total = row[0] * k[0][m]
    for coefficient, stage in zip(row[1:], k[1:]):
        total += coefficient * stage[m]
    return total


def _oracle_dopri_step(field, x, t, h, rtol, atol, k1):
    if not h > 0:
        raise ValueError("step size must be positive")
    n = len(x)
    k = [k1]
    for i in range(1, 7):
        arg = [x[m] + h * _row_sum(ode._DP_A[i], k, m) for m in range(n)]
        k.append(np.asarray(field(arg, t + ode._DP_C[i] * h), dtype=float).tolist())
    x_new = [x[m] + h * _row_sum(_ORACLE_B, k, m) for m in range(n)]
    if not all(math.isfinite(v) for v in x_new):
        raise ode.IntegrationError(f"non-finite state at t={t + h}")
    total = 0.0
    for m in range(n):
        r = h * _row_sum(ode._DP_E, k, m) / (atol + rtol * max(abs(x[m]), abs(x_new[m])))
        total += r * r
    err = math.sqrt(total / n)
    if err == 0.0:
        factor = ode._FAC_MAX
    else:
        factor = min(ode._FAC_MAX, max(ode._FAC_MIN, ode._SAFETY * err ** -0.2))
    return x_new, err, h * factor, k[6]


def _oracle_integrate(field, x0, times, config):
    """(states, rejected steps) of the oracle's adaptive loop."""
    times = np.asarray(times, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((times.size, x0.size))
    states[0] = x0
    rejected = 0
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0.reshape(-1).tolist()
        t0 = float(times[0])
        tau = 0.0
        rtol, atol, limit = config.rtol, config.atol, config.divergence_limit
        h, k1 = ode._initial_step(field, x, t0, rtol, atol)
        h, k1 = float(h), k1.tolist()
        n_steps = 0
        for i, t_i in enumerate(times[1:].tolist(), start=1):
            target = t_i - t0
            while tau < target:
                clipped = h >= target - tau
                h_try = min(h, target - tau)
                x_new, err, h_next, k_last = _oracle_dopri_step(
                    field, x, t0 + tau, h_try, rtol, atol, k1
                )
                n_steps += 1
                if n_steps > config.max_steps:
                    raise ode.IntegrationError(
                        f"max_steps={config.max_steps} exceeded at t={t0 + tau}"
                    )
                if err <= 1.0:
                    tau = target if clipped else tau + h_try
                    x = x_new
                    if np.abs(x).max() > limit:
                        raise ode.IntegrationError(
                            f"state magnitude exceeds {limit:g} at t={t0 + tau}"
                        )
                    k1 = k_last
                else:
                    rejected += 1
                h = h_next
            states[i] = x
    return states, rejected


def _linear_field(dim, seed):
    # A stable rotation-dominated linear field with dim state components, so
    # the error norm sums dim terms, left to right however many.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    a = a - a.T - 0.1 * np.eye(dim)
    return lambda x, t: a @ x


def _pendulum(x, t):
    return pendulum_field(x, t, 1.0)


DOPRI_CASES = {
    # The two reference grids the benchmark problems are built from.
    "spiral-500": (spiral_field, [1.0, 0.0], np.linspace(0.0, 40.0, 500),
                   problems.DATA_INTEGRATOR),
    "pendulum-200": (_pendulum, [np.pi / 4.0, 0.0], np.linspace(0.0, 20.0, 200),
                     problems.DATA_INTEGRATOR),
    # test_dopri_spiral_matches_closed_form_over_full_horizon's grid.
    "spiral-101": (spiral_field, [1.0, 0.0], np.linspace(0.0, 40.0, 101),
                   ode.DopriConfig(rtol=1e-6, atol=1e-9)),
    "exp-1d": (exp_field, [1.0], np.linspace(0.0, 3.0, 13),
               ode.DopriConfig(rtol=1e-8, atol=1e-10)),
    "exp-scalar": (exp_field, 1.0, np.linspace(0.0, 3.0, 13),
                   ode.DopriConfig(rtol=1e-8, atol=1e-10)),
    "linear-3d": (_linear_field(3, 1), [1.0, -0.5, 0.25], np.linspace(0.0, 10.0, 41),
                  ode.DopriConfig(rtol=1e-7, atol=1e-10)),
    # Either side of 8 terms, where NumPy's sum of an array would unroll.
    "linear-7d": (_linear_field(7, 3), np.linspace(-1.0, 1.0, 7), np.linspace(0.0, 5.0, 21),
                  ode.DopriConfig(rtol=1e-7, atol=1e-10)),
    "linear-9d": (_linear_field(9, 2), np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 5.0, 21),
                  ode.DopriConfig(rtol=1e-7, atol=1e-10)),
    # rtol=0 and atol=1 make every scale exactly 1: the error norm is the raw
    # RMS of the embedded difference.  DopriConfig refuses rtol=0, and
    # integrate reads only these four fields, so a plain record carries them.
    "exp-unscaled": (exp_field, [2.0], np.linspace(0.0, 3.0, 13),
                     SimpleNamespace(rtol=0.0, atol=1.0, max_steps=1_000_000,
                                     divergence_limit=1e6)),
}


@pytest.mark.parametrize("name", list(DOPRI_CASES))
def test_dopri_integrate_matches_oracle_bitwise(name):
    field, x0, times, config = DOPRI_CASES[name]
    traj = ode.integrate(field, np.array(x0, dtype=float), times, config)
    ref, rejected = _oracle_integrate(field, x0, times, config)
    assert np.array_equal(traj, ref)
    # Every case but the short exponential ones also runs the rejection path.
    assert rejected >= (not name.startswith("exp"))


def test_dopri_hands_the_field_a_list_of_floats():
    seen = []

    def field(x, t):
        seen.append(type(x))
        return spiral_field(x, t)

    config = problems.DATA_INTEGRATOR
    ode.integrate(field, np.array([1.0, 0.0]), np.linspace(0.0, 2.0, 5), config)
    assert seen and set(seen) == {list}


@pytest.mark.parametrize("field, x0, message", [
    (lambda x, t: [1.0], [1.0, 2.0], r"field returned shape \(1,\) for a state of shape \(2,\)"),
    (lambda x, t: [1.0, 2.0, 3.0], [1.0, 2.0],
     r"field returned shape \(3,\) for a state of shape \(2,\)"),
    (lambda x, t: [], [], "x0 must have at least one component"),
], ids=["too-few", "too-many", "empty-state"])
def test_integrate_refuses_a_field_output_that_is_not_the_state_shape(field, x0, message):
    # Checked on the first stage, by shape: an empty state has no error norm.
    with pytest.raises(ValueError, match=message):
        ode.integrate(field, x0, np.linspace(0.0, 1.0, 3), problems.DATA_INTEGRATOR)


@pytest.mark.parametrize("length, message", [(1, "shorter"), (3, "longer")])
def test_integrate_refuses_a_later_field_output_of_another_length(length, message):
    # The 3rd call is the first step's 3rd stage, zipped with the state and
    # the two stages before it.  A 1-component output once broadcast into
    # both stage components, and the run returned states.
    calls = []

    def field(x, t):
        calls.append(t)
        return spiral_field(x, t) if len(calls) != 3 else [1.0] * length

    with pytest.raises(ValueError, match=rf"^zip\(\) argument 4 is {message} than arguments 1-3$"):
        ode.integrate(field, [1.0, 0.0], np.linspace(0.0, 1.0, 3), problems.DATA_INTEGRATOR)
    assert len(calls) == 3


@pytest.mark.parametrize("dtype", [np.float32, np.longdouble, complex])
def test_integrate_refuses_a_field_output_of_another_float_type(dtype):
    # Arithmetic with a Python float keeps these types, so the steps would
    # run at their precision, not float64's.  Integer and float64 values,
    # Python's or NumPy's, are what the stage sums take.
    with pytest.raises(ValueError, match=rf"^field returned {np.dtype(dtype)} values, not float64$"):
        ode.integrate(lambda x, t: np.asarray(x, dtype=dtype), [1.0, 0.0], np.linspace(0.0, 1.0, 3),
                      problems.DATA_INTEGRATOR)
    for wrap in (lambda v: [int(a) for a in v], lambda v: [np.float64(a) for a in v]):
        grid = ode.integrate(lambda x, t: wrap(zero_field(x, t)), [1.0, 0.0], np.linspace(0.0, 1.0, 3),
                             problems.DATA_INTEGRATOR)
        assert grid.tobytes() == np.array([[1.0, 0.0]] * 3).tobytes()


@pytest.mark.parametrize("field", [spiral_field, pendulum_field])
def test_benchmark_fields_agree_bitwise_on_any_sequence(field):
    rng = np.random.default_rng(5)
    for x in rng.normal(size=(20, 2)) * 10.0 ** rng.integers(-3, 4, size=(20, 1)):
        values = [np.asarray(field(state, 0.0)) for state in (x.tolist(), tuple(x.tolist()), x)]
        assert all(v.dtype == float and v.shape == (2,) for v in values)
        assert values[0].tobytes() == values[1].tobytes() == values[2].tobytes()


def test_dopri_grid_is_one_whatever_sequence_the_field_returns():
    times = np.linspace(0.0, 40.0, 500)
    grids = [
        ode.integrate(lambda x, t: wrap(spiral_field(x, t)), [1.0, 0.0], times,
                      problems.DATA_INTEGRATOR)
        for wrap in (tuple, list, np.array)
    ]
    assert grids[0].tobytes() == grids[1].tobytes() == grids[2].tobytes()


def test_non_finite_stage_at_step_end_raises_like_oracle():
    # The field turns infinite on its 7th call: the last stage of the first
    # step, evaluated at the step's new state.
    def make_field():
        calls = [0]

        def field(x, t):
            calls[0] += 1
            return np.array([np.inf]) if calls[0] == 7 else x

        return field

    config = ode.DopriConfig(rtol=1e-6, atol=1e-8)
    times = np.array([0.0, 1.0])
    with pytest.raises(ode.IntegrationError) as got:
        ode.integrate(make_field(), np.array([1.0]), times, config)
    with pytest.raises(ode.IntegrationError) as want:
        _oracle_integrate(make_field(), [1.0], times, config)
    assert str(got.value) == str(want.value)  # the same failure at the same t


def test_a_vanishing_first_step_raises_like_oracle():
    # A constant field of 1e200 overflows the starting-step heuristic's
    # derivative norm to inf, so the first trial step is 0.0.
    def field(x, t):
        return [1e200]

    config, times = ode.DopriConfig(), np.array([0.0, 1.0])
    with pytest.raises(ValueError, match=r"^step size must be positive$"):
        ode.integrate(field, [1.0], times, config)
    with pytest.raises(ValueError, match=r"^step size must be positive$"):
        _oracle_integrate(field, [1.0], times, config)


def test_zero_error_steps_grow_by_the_clamp_like_oracle():
    # A zero field makes every step's error 0, so each next trial is 5 times
    # the last, from the heuristic's 1e-6: 11 steps cover [0, 10].  integrate
    # and the oracle meet max_steps at that count.
    x0, times = [1.0, 0.0], np.array([0.0, 10.0])
    config = ode.DopriConfig(max_steps=11)
    states, _ = _oracle_integrate(zero_field, x0, times, config)
    assert same_bits(ode.integrate(zero_field, x0, times, config), states)
    config = ode.DopriConfig(max_steps=10)
    with pytest.raises(ode.IntegrationError, match=r"^max_steps=10 exceeded at t=") as got:
        ode.integrate(zero_field, x0, times, config)
    with pytest.raises(ode.IntegrationError) as want:
        _oracle_integrate(zero_field, x0, times, config)
    assert str(got.value) == str(want.value)
