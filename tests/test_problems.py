"""Unit tests for the benchmark problems: observation sampling, forward maps,
losses, and the analytic control oracles."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from ekinode import eki, nnet, ode, problems

ORACLE_TOL = 1e-12


def test_spiral_field_value():
    assert np.allclose(problems.spiral_field(np.array([1.0, 0.0])), [-0.05, -1.0], atol=1e-15)


def test_spiral_solution_satisfies_field():
    # d/dt of the closed form equals the field along the trajectory.
    ts = np.linspace(0.0, 10.0, 7)
    eps = 1e-6
    for t in ts:
        deriv = (problems.spiral_solution(t + eps) - problems.spiral_solution(t - eps)) / (2 * eps)
        assert np.max(np.abs(deriv - problems.spiral_field(problems.spiral_solution(t)))) < 1e-8


def test_pendulum_energy_is_conserved_by_field():
    # dE/dt = v * vdot + omega sin(x) * xdot = 0 along the field.
    state = np.array([0.7, -0.3])
    v = problems.pendulum_field(state, omega=1.3)
    grad_e = np.array([1.3 * np.sin(state[0]), state[1]])
    assert abs(grad_e @ v) < 1e-15


@seed(7)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_observation_runs_are_disjoint_consecutive_and_aligned(s):
    rng = np.random.default_rng(s)
    grid_times = np.linspace(0.0, 4.0, 50)
    grid_states = np.random.default_rng(1).normal(size=(50, 2))
    obs = problems.make_observations(grid_times, grid_states, 3, 5, rng)
    idx = obs.train_indices
    assert idx.shape == (15,)
    assert np.unique(idx).size == 15
    runs = idx.reshape(3, 5)
    assert np.all(np.diff(runs, axis=1) == 1)  # consecutive within each run
    assert np.all(runs[1:, 0] > runs[:-1, -1])  # sorted and disjoint across runs
    assert np.array_equal(obs.times, grid_times[idx])
    assert np.array_equal(obs.values, grid_states[idx])


def test_building_a_sysid_problem_leaves_numpy_ma_unimported():
    # The overlap check of make_observations must not go through np.unique,
    # whose first call imports numpy.ma and adds its import time to setup.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from ekinode import runner\n"
        "runner.build_problem(runner.preset('spiral-eki'))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_observation_sampler_rejects_impossible_layouts():
    grid_times = np.linspace(0.0, 1.0, 10)
    grid_states = np.zeros((10, 1))
    with pytest.raises(ValueError):
        problems.make_observations(grid_times, grid_states, 3, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        problems.make_observations(grid_times, grid_states, 0, 4, np.random.default_rng(0))


def test_observation_sampler_can_fill_the_grid():
    grid_times = np.linspace(0.0, 1.0, 12)
    grid_states = np.zeros((12, 1))
    obs = problems.make_observations(grid_times, grid_states, 3, 4, np.random.default_rng(5))
    assert np.array_equal(obs.train_indices, np.arange(12))


def test_spiral_problem_layout(spiral_problem):
    obs = spiral_problem.observations
    assert obs.grid_times.shape == (500,)
    assert obs.grid_times[0] == 0.0
    assert obs.grid_times[-1] == 40.0
    assert obs.values.shape == (100, 2)
    assert obs.test_indices.size == 400
    assert np.array_equal(obs.grid_states[0], np.array([1.0, 0.0]))
    assert np.intersect1d(obs.train_indices, obs.test_indices).size == 0


def test_spiral_reference_matches_closed_form(spiral_problem):
    obs = spiral_problem.observations
    exact = problems.spiral_solution(obs.grid_times)
    assert np.max(np.abs(obs.grid_states - exact)) < 1e-7


def test_pendulum_reference_conserves_energy(pendulum_problem):
    obs = pendulum_problem.observations
    assert obs.grid_times.shape == (200,)
    energies = problems.pendulum_energy(obs.grid_states)
    assert np.max(np.abs(energies - energies[0])) < 1e-6


def test_shooting_predictions_pin_segment_starts(spiral_problem):
    # Every segment restarts from an observed state, so the first prediction
    # of each segment matches the observation exactly for any parameters.
    theta = nnet.mlp_init(spiral_problem.net, np.random.default_rng(2))
    out = problems.sysid_forward_map(theta, spiral_problem)
    obs = spiral_problem.observations
    pred = out.g.reshape(obs.num_subsets, obs.subset_length, 2)
    vals = obs.values.reshape(obs.num_subsets, obs.subset_length, 2)
    assert not out.failed
    assert np.array_equal(pred[:, 0], vals[:, 0])


def test_forward_map_flags_divergent_members(spiral_problem):
    theta = np.full(nnet.param_count(spiral_problem.net), 1e6)
    out = problems.sysid_forward_map(theta, spiral_problem)
    assert out.failed


def test_divergent_candidate_scores_the_penalty(spiral_problem):
    # Nothing raises: both errors read the penalty value, for one parameter
    # vector and for a stack of them.
    theta = np.full(nnet.param_count(spiral_problem.net), 1e6)
    assert problems.mse(theta, spiral_problem) == eki.PENALTY_LOSS
    assert problems.test_mse(theta, spiral_problem) == eki.PENALTY_LOSS
    assert problems.test_mse(np.stack([theta, theta]), spiral_problem).tolist() == [
        eki.PENALTY_LOSS
    ] * 2


@pytest.mark.parametrize("fixture, rows", [
    ("spiral_problem", 5),
    ("small_spiral", problems.TEST_CHUNK_ROWS + 3),
])
def test_batched_test_mse_matches_per_row_calls(request, fixture, rows):
    # One batched pass over a stack, across chunk boundaries too, scores
    # every row bitwise as a call with that row alone does.  A divergent row
    # and a non-finite one score the penalty and leave their neighbours be.
    prob = request.getfixturevalue(fixture)
    rng = np.random.default_rng(rows)
    thetas = np.stack([nnet.mlp_init(prob.net, rng) for _ in range(rows)])
    thetas[1] = 1e6
    thetas[rows - 2, 0] = np.nan
    batched = problems.test_mse(thetas, prob)
    assert batched.shape == (rows,)
    alone = [problems.test_mse(theta, prob) for theta in thetas]
    assert all(isinstance(value, float) for value in alone)
    assert batched.tolist() == alone
    assert batched[1] == batched[rows - 2] == eki.PENALTY_LOSS
    healthy = np.delete(batched, [1, rows - 2])
    assert np.all(healthy < eki.PENALTY_LOSS)


def test_mse_agrees_with_forward_map_residuals(spiral_problem):
    # mse averages squared Euclidean mismatch over the 100 observations, so it
    # is computable from the stacked forward-map residual.
    theta = nnet.mlp_init(spiral_problem.net, np.random.default_rng(3))
    out = problems.sysid_forward_map(theta, spiral_problem)
    y = spiral_problem.observations.values.reshape(-1)
    assert abs(problems.mse(theta, spiral_problem) - np.sum((out.g - y) ** 2) / 100.0) < 1e-15


def test_full_assembly_differs_from_shooting(spiral_problem):
    from dataclasses import replace

    full = replace(spiral_problem, assembly="full")
    theta = nnet.mlp_init(spiral_problem.net, np.random.default_rng(4))
    a = problems.sysid_forward_map(theta, spiral_problem)
    b = problems.sysid_forward_map(theta, full)
    assert a.g.shape == b.g.shape
    assert not np.array_equal(a.g, b.g)


def test_test_mse_covers_held_out_points_only(spiral_problem):
    # A strongly divergent member scores huge test error; the true field's
    # own grid states score zero by construction.
    obs = spiral_problem.observations
    states = obs.grid_states
    assert problems.mse_from_states(states, spiral_problem, obs.test_indices) == 0.0


def test_optimal_energy_closed_form():
    expected = 2.0 / (np.e ** 2 - 1.0)
    assert abs(problems.optimal_energy(1.0, 1.0, 0.0, 1.0, 1.0) - expected) < ORACLE_TOL


def test_optimal_control_boundary_values():
    # u*(t) = e^{-t} / sinh(1) for the unit problem.
    u0 = problems.optimal_control(0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(u0 - 1.0 / np.sinh(1.0)) < ORACLE_TOL
    x_end = problems.optimal_state(1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(x_end - 1.0) < ORACLE_TOL
    assert abs(problems.optimal_state(0.0, 1.0, 1.0, 0.0, 1.0, 1.0)) < ORACLE_TOL


def test_optimal_control_requires_nonzero_drift():
    with pytest.raises(ValueError):
        problems.optimal_control(0.5, 0.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        problems.optimal_energy(0.0, 1.0, 0.0, 1.0, 1.0)


def test_integrating_optimal_control_reproduces_optimal_state():
    ts = np.linspace(0.0, 1.0, 101)

    def field(x, t):
        return x + problems.optimal_control(t, 1.0, 1.0, 0.0, 1.0, 1.0)

    config = ode.IntegratorConfig(method="dopri5", rtol=1e-9, atol=1e-12)
    traj = ode.integrate(field, np.array([0.0]), ts, config)
    exact = problems.optimal_state(ts, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-6
    assert abs(traj.states[-1, 0] - 1.0) < 1e-6


def test_optimal_energy_matches_quadrature():
    ts = np.linspace(0.0, 1.0, 4001)
    u = problems.optimal_control(ts, 1.0, 1.0, 0.0, 1.0, 1.0)
    quad = np.trapezoid(u ** 2, ts)
    assert abs(quad - problems.optimal_energy(1.0, 1.0, 0.0, 1.0, 1.0)) < 1e-7


@seed(8)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_optimal_control_minimizes_energy_among_feasible_controls(s):
    # Any feasibility-preserving perturbation direction is orthogonal to u*,
    # so the energy can only grow: E[u* + c d] = E[u*] + c^2 ||d||^2.
    rng = np.random.default_rng(s)
    ts = np.linspace(0.0, 1.0, 2001)
    u_star = problems.optimal_control(ts, 1.0, 1.0, 0.0, 1.0, 1.0)
    raw = sum(rng.normal() * np.sin(np.pi * k * ts) for k in range(1, 4))
    # Project onto the terminal-state kernel: weight e^{1-s} from Duhamel.
    w = np.exp(1.0 - ts)
    raw = raw - (np.trapezoid(w * raw, ts) / np.trapezoid(w, ts))
    assert abs(np.trapezoid(w * raw, ts)) < 1e-12
    e_star = np.trapezoid(u_star ** 2, ts)
    for c in (-0.5, 0.3, 1.0):
        e = np.trapezoid((u_star + c * raw) ** 2, ts)
        assert e >= e_star - 1e-12


def test_control_problem_defaults(control_problem):
    assert control_problem.controller.layer_sizes == (1, 5, 5, 5, 1)
    assert control_problem.controller.activation == "elu"
    grid = control_problem.quadrature_grid()
    assert grid.shape == (101,)
    assert grid[0] == 0.0
    assert grid[-1] == 1.0


def test_control_forward_map_zero_controller(control_problem):
    theta = np.zeros(nnet.param_count(control_problem.controller))
    out = problems.control_forward_map(theta, control_problem)
    assert not out.failed
    assert abs(out.g[0]) < ORACLE_TOL  # x stays at x0 = 0
    assert out.h == 0.0


def control_loss(theta, prob, gamma, gamma_prime):
    # The EKI driver's loss of one member at the given covariance scales.
    out = problems.control_forward_map(theta, prob)
    return float(problems.control_objective(out.g[0], out.h**2, prob, gamma, gamma_prime))


def test_control_loss_zero_controller_examples():
    prob = problems.make_control_problem()
    theta = np.zeros(nnet.param_count(prob.controller))
    unit = replace(prob, mu=0.0)
    assert abs(control_loss(theta, unit, 1.0, 0.01) - 0.5) < ORACLE_TOL
    assert abs(control_loss(theta, prob, 0.3, 0.01) - 0.5 / 0.3) < ORACLE_TOL


def test_control_loss_decomposition(control_problem):
    theta = nnet.mlp_init(control_problem.controller, np.random.default_rng(6))
    out = problems.control_forward_map(theta, control_problem)
    energy = problems.control_energy(theta, control_problem)
    assert abs(out.h - np.sqrt(energy)) < 1e-14
    expected = 0.5 * (out.g[0] - 1.0) ** 2 / 0.3 + 0.001 / (2 * 0.01) * energy
    assert abs(control_loss(theta, control_problem, 0.3, 0.01) - expected) < 1e-12


def test_control_mse_zero_controller(control_problem):
    theta = np.zeros(nnet.param_count(control_problem.controller))
    grid = control_problem.quadrature_grid()
    u_star = problems.optimal_control(grid, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(problems.control_mse(theta, control_problem) - np.mean(u_star ** 2)) < 1e-14
    dense = np.linspace(0.0, 1.0, 401)
    u_dense = problems.optimal_control(dense, 1.0, 1.0, 0.0, 1.0, 1.0)
    got = problems.control_mse(theta, control_problem, times=dense)
    assert abs(got - np.mean(u_dense ** 2)) < 1e-14


def test_make_control_problem_overrides():
    prob = problems.make_control_problem(mu=0.0075, quadrature_points=50)
    assert prob.mu == 0.0075
    assert prob.quadrature_grid().shape == (51,)
    with pytest.raises(ValueError):
        problems.make_control_problem(b=0.0)
    with pytest.raises(ValueError):
        problems.make_control_problem(t_final=-1.0)


def _uneven_sysid_problem(rng, assembly, method, dt, activation):
    # A grid with random spacing, so each shooting subset has its own step
    # lengths, and a dt that (when small) forces several substeps per interval.
    grid_times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.3, size=29))])
    grid_states = 0.5 * rng.normal(size=(30, 2))
    obs = problems.make_observations(grid_times, grid_states, 3, 4, rng)
    return problems.SysIdProblem(
        "uneven", problems.spiral_field, grid_states[0], float(grid_times[-1]), obs,
        nnet.MlpSpec((2, 6, 2), activation),
        ode.IntegratorConfig(method=method, dt=dt, divergence_limit=50.0), assembly,
    )


def _mixed_ensemble(rng, spec, push):
    # The output bias ends the parameter vector.  A huge one drives member 1
    # past the divergence limit in its first step; member 3 gets there within
    # a few steps.  The others are plain draws.
    members = np.stack([nnet.mlp_init(spec, rng) for _ in range(5)])
    members[1, -spec.out_dim:] += 1e6
    members[3, -spec.out_dim:] += push
    return members


def _scalar_sysid(theta, prob):
    layers = nnet.unflatten(prob.net, theta)

    def field(x, t):
        return nnet.mlp_apply(layers, x, prob.net.activation)

    obs = prob.observations
    try:
        if prob.assembly == "full":
            traj = ode.integrate(field, prob.x0, obs.grid_times, prob.integrator)
            return traj.states[obs.train_indices].reshape(-1), False
        L = obs.subset_length
        parts = [
            ode.integrate(field, obs.values[i], obs.times[i:i + L], prob.integrator).states
            for i in range(0, obs.times.size, L)
        ]
        return np.concatenate(parts).reshape(-1), False
    except ode.IntegrationError:
        return np.zeros(obs.values.size), True


@seed(10)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["full", "shooting"]),
    st.sampled_from(["euler", "rk4"]),
    st.sampled_from([1.0, 0.04]),
    st.sampled_from(["tanh", "elu"]),
)
@settings(max_examples=30, deadline=None)
def test_batched_sysid_forward_map_matches_scalar_integrate(s, assembly, method, dt, activation):
    rng = np.random.default_rng(s)
    prob = _uneven_sysid_problem(rng, assembly, method, dt, activation)
    members = _mixed_ensemble(rng, prob.net, 1e3)
    out = problems.sysid_forward_map(members, prob)
    assert out.g.shape == (5, prob.observations.values.size)
    for j, theta in enumerate(members):
        g_ref, failed_ref = _scalar_sysid(theta, prob)
        assert out.failed[j] == failed_ref
        scale = np.maximum(1.0, np.abs(g_ref))
        assert np.all(np.abs(out.g[j] - g_ref) <= 1e-12 * scale)
        # Alone or in an ensemble, a member's output is the same bitwise.
        single = problems.sysid_forward_map(theta, prob)
        assert np.array_equal(single.g, out.g[j]) and single.failed == out.failed[j]
    assert out.failed[1] and out.failed[3]
    # A tanh field is bounded, so a plain draw cannot reach the limit.
    assert activation == "elu" or not out.failed[0]


@seed(11)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["euler", "rk4"]),
    st.sampled_from([0.01, 1.0 / 37.0]),
    st.sampled_from(["tanh", "elu"]),
)
@settings(max_examples=30, deadline=None)
def test_batched_control_forward_map_matches_scalar_formulas(s, method, dt, activation):
    rng = np.random.default_rng(s)
    prob = problems.make_control_problem(
        controller=nnet.MlpSpec((1, 5, 5, 1), activation),
        integrator=ode.IntegratorConfig(method=method, dt=dt, divergence_limit=1e3),
    )
    members = _mixed_ensemble(rng, prob.controller, 5e3)
    out = problems.control_forward_map(members, prob)
    assert out.g.shape == (5, 1) and out.h.shape == (5,)
    grid = prob.quadrature_grid()
    for j, theta in enumerate(members):
        layers = nnet.unflatten(prob.controller, theta)

        def u(t):
            return nnet.mlp_apply(layers, np.array([t]), activation)

        try:
            traj = ode.integrate(lambda x, t: prob.a * x + prob.b * u(t), np.array([prob.x0]),
                                 np.array([0.0, prob.t_final]), prob.integrator)
            failed_ref = False
        except ode.IntegrationError:
            failed_ref = True
        assert out.failed[j] == failed_ref
        if failed_ref:
            assert out.g[j, 0] == 0.0 and out.h[j] == 0.0
            continue
        energy = np.trapezoid(np.array([u(t)[0] for t in grid]) ** 2, grid)
        assert abs(out.g[j, 0] - traj.states[-1, 0]) <= 1e-12 * max(1.0, abs(traj.states[-1, 0]))
        assert abs(out.h[j] - np.sqrt(energy)) <= 1e-12 * max(1.0, np.sqrt(energy))
    assert out.failed[1] and out.failed[3] and not out.failed[0]



def loop_control_states(u_stage, prob, h, method):
    """Reference for ``problems.control_states``: the scalar euler/rk4
    recurrence it replaced, step by step, vectorized over the member axes."""
    a = prob.a
    u = np.moveaxis(np.asarray(u_stage, dtype=float), -1, 0)
    bu = prob.b * u
    n_steps = (u.shape[0] - 1) // 2 if method == "rk4" else u.shape[0] - 1
    xs = np.empty(u.shape[1:] + (n_steps + 1,))
    x = xs[..., 0] = float(prob.x0)
    half, sixth = 0.5 * h, h / 6.0
    for k in range(n_steps):
        if method == "rk4":
            bu1, bu2, bu3 = bu[2 * k], bu[2 * k + 1], bu[2 * k + 2]
            k1 = a * x + bu1
            k2 = a * (x + half * k1) + bu2
            k3 = a * (x + half * k2) + bu2
            k4 = a * (x + h * k3) + bu3
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            x = x + h * (a * x + bu[k])
        xs[..., k + 1] = x
    return xs


# The propagator sums the same terms as the recurrence in another order and
# takes R^n as exp(n log1p(R - 1)); against the loop it differs by a few ulp
# of the state, 2.3e-15 at most over the cases below.  Powers of a rounded R
# would put an error of about n ulp on R^n, 3e-14 here.
PROPAGATOR_TOL = 1e-14


def _control_case(method, dt, a, x0):
    prob = problems.make_control_problem(
        a=a, x0=x0, integrator=ode.IntegratorConfig(method=method, dt=dt, divergence_limit=1e3)
    )
    stage_times, h, n_steps = problems.control_stage_grid(prob)
    return prob, stage_times.size, h, n_steps


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("dt", [0.01, 1.0 / 37.0, 0.003])
def test_control_states_match_the_recurrence(method, dt):
    # 0.003 takes 334 steps: more than one propagator block.
    rng = np.random.default_rng(int(dt * 1e4))
    for a in (1.0, 0.5, -2.0):
        for x0 in (0.0, 0.7):
            prob, stages, h, n_steps = _control_case(method, dt, a, x0)
            for shape in ((stages,), (1, stages), (22, stages)):
                u = rng.normal(size=shape)
                xs = problems.control_states(u, prob, h, method)
                ref = loop_control_states(u, prob, h, method)
                assert xs.shape == ref.shape == u.shape[:-1] + (n_steps + 1,)
                err = np.abs(xs - ref) / np.maximum(1.0, np.abs(ref))
                assert np.max(err) <= PROPAGATOR_TOL, (a, x0, shape, np.max(err))
                assert np.all(xs[..., 0] == x0)


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("dt", [0.01, 0.003])
def test_control_diverged_agrees_with_the_recurrence(method, dt):
    # Huge, infinite and NaN controls at random stages the steps read, plus
    # plants that grow past the limit or overflow: the failed masks agree.
    rng = np.random.default_rng(5)
    for a in (1.0, 40.0, 3000.0):
        prob, stages, h, n_steps = _control_case(method, dt, a, 0.0)
        read = 2 * n_steps + 1 if method == "rk4" else n_steps
        u = rng.normal(size=(24, stages))
        for row, value in enumerate((1e3, 1e300, np.inf, -np.inf, np.nan) * 4):
            u[row, rng.integers(read)] = value
        if method == "euler":
            u[20:, -1] = np.nan  # an euler pass never reads the final control
        with np.errstate(over="ignore", invalid="ignore"):
            xs = problems.control_states(u, prob, h, method)
            ref = loop_control_states(u, prob, h, method)
            failed = problems.control_diverged(xs, prob.integrator)
            assert np.array_equal(failed, problems.control_diverged(ref, prob.integrator)), a
        assert failed[[row for row in range(20) if row % 5]].all()
        # Unperturbed members of the a = 1 plant stay inside the limit; the
        # faster plants take every member past it.
        assert failed[20:].all() if a > 1.0 else not failed[20:].any()
        ok = ~failed
        if ok.any():
            err = np.abs(xs[ok] - ref[ok]) / np.maximum(1.0, np.abs(ref[ok]))
            assert np.max(err) <= PROPAGATOR_TOL
