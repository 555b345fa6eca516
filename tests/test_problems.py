"""Unit tests for the benchmark problems: observation sampling, forward maps,
losses, and the analytic control oracles."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from ekinode import eki, gradbase, nnet, ode, problems, runner
from test_log_hashes import log_hashes
from test_ode import fixed_step_integrate

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
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), st.integers(0, 12))
@example(0, 8, 8, 0)
@example(5, 1, 1, 0)
@example(9, 1, 8, 0)
@settings(max_examples=200, deadline=None)
def test_observation_runs_are_disjoint_consecutive_and_aligned(spiral_problem, pendulum_problem,
                                                              s, num_subsets, subset_length, spare):
    # make_observations neither sorts nor checks its index list: this pins,
    # over layouts down to ones that fill the grid (spare = 0), that the runs
    # come out disjoint and in grid order, and that the derived observations
    # are the grid rows at those indices.
    grid_size = num_subsets * subset_length + spare
    rng = np.random.default_rng(s)
    grid_times = np.linspace(0.0, 4.0, grid_size)
    grid_states = np.random.default_rng(1).normal(size=(grid_size, 2))
    obs = problems.make_observations(grid_times, grid_states, num_subsets, subset_length, rng)
    idx = obs.train_indices
    assert idx.shape == (num_subsets * subset_length,)
    assert 0 <= idx[0] and idx[-1] < grid_size
    assert np.all(np.diff(idx) > 0)  # strictly increasing, so distinct
    runs = idx.reshape(num_subsets, subset_length)
    assert np.all(np.diff(runs, axis=1) == 1)  # consecutive within each run
    assert np.array_equal(obs.times, grid_times[idx])
    assert np.array_equal(obs.values, grid_states[idx])
    assert obs.num_subsets == num_subsets
    # A problem's x0 is its grid's first state, bitwise the table's start.
    for name, prob in (("spiral", spiral_problem), ("pendulum", pendulum_problem)):
        first = prob.observations.grid_states[0]
        assert prob.x0.tobytes() == first.tobytes() == np.array(problems.SYSID_BENCHMARKS[name].x0).tobytes()


@pytest.mark.parametrize("grid_rows, train, subset_length, match", [
    (9, np.arange(6), 3, "^9 grid states for 10 grid times$"),
    (10, np.arange(7), 3, "^7 train indices are not runs of 3$"),
    (10, np.arange(6), 0, "^6 train indices are not runs of 0$"),
], ids=["grid-rows", "partial-run", "empty-runs"])
def test_observation_set_refuses_what_it_cannot_derive(grid_rows, train, subset_length, match):
    # The set derives its observations from the grid rows at the training
    # indices and its run count from their length; it refuses a layout
    # from which either cannot be derived.
    with pytest.raises(ValueError, match=match):
        problems.ObservationSet(np.linspace(0.0, 1.0, 10), np.zeros((grid_rows, 2)), train, subset_length)


def test_a_built_problem_refuses_to_move_its_observations():
    # Observations are derived from the reference grid, so they cannot be
    # set apart from it: neither reassigned nor written in place.
    prob = problems.make_sysid_problem("spiral", np.random.default_rng(0))
    theta = nnet.mlp_init(prob.net, np.random.default_rng(1))
    before = problems.mse(theta, prob)
    obs = prob.observations
    with pytest.raises(FrozenInstanceError):
        obs.values = obs.values + 1.0
    for derived in (obs.times, obs.values):
        with pytest.raises(ValueError, match="read-only"):
            derived[0] = 0.0
    assert problems.mse(theta, prob) == before


def _leaves_numpy_ma_unimported(statement):
    # Runs the statement in a fresh interpreter; the first np.unique or
    # np.union1d call imports numpy.ma and adds its import time to the run.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import dataclasses\n"
        "from ekinode import runner\n"
        f"{statement}\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "False"


def test_building_a_sysid_problem_leaves_numpy_ma_unimported():
    # Neither the reference grid nor the observation draw may go through
    # np.unique or np.union1d.
    assert _leaves_numpy_ma_unimported("runner.build_problem(runner.preset('spiral-eki'))")


def test_a_control_run_leaves_numpy_ma_unimported(tmp_path):
    # The control forward map merges its stage and quadrature grids with
    # np.searchsorted, not np.unique or np.union1d.
    config = "dataclasses.replace(runner.preset('control-eki-mu0.001'), epochs=4)"
    assert _leaves_numpy_ma_unimported(f"runner.run({config}, out_dir={str(tmp_path)!r})")


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


def test_sysid_problem_leaves_a_held_out_point():
    # Ten runs of ten fill a 100-point grid and would leave test_mse no point.
    with pytest.raises(ValueError, match="10 disjoint runs of 10 must leave a held-out point in 100 grid"):
        problems.make_sysid_problem("spiral", np.random.default_rng(0), grid_size=100)
    prob = problems.make_sysid_problem("spiral", np.random.default_rng(0), grid_size=101)
    (held_out,) = prob.observations.test_indices
    # A zero field holds x0, whose error at the one held-out point is scored.
    miss = prob.observations.grid_states[held_out] - prob.x0
    assert problems.test_mse(np.zeros(nnet.param_count(prob.net)), prob) == np.sum(miss * miss)


@pytest.mark.parametrize("runs", [{"num_subsets": 0}, {"subset_length": 0}])
def test_sysid_problem_checks_its_runs_before_the_reference_grid(monkeypatch, runs):
    def refuse(*args, **kwargs):
        raise AssertionError("make_sysid_problem built a reference grid")

    monkeypatch.setattr(problems, "integrate", refuse)
    with pytest.raises(ValueError, match="^num_subsets and subset_length must be positive$"):
        problems.make_sysid_problem("spiral", np.random.default_rng(0), **runs)


def test_sysid_problem_built_from_filling_observations_is_rejected(spiral_problem):
    # Observations drawn directly, ten runs of ten over 100 grid points,
    # leave test_mse no point: the problem itself refuses them, with the
    # rule make_sysid_problem states.
    obs = spiral_problem.observations
    full = problems.make_observations(obs.grid_times[:100], obs.grid_states[:100], 10, 10,
                                      np.random.default_rng(0))
    assert full.test_indices.size == 0
    with pytest.raises(ValueError, match="10 disjoint runs of 10 must leave a held-out point in 100 grid"):
        replace(spiral_problem, observations=full)
    with pytest.raises(ValueError, match="must leave a held-out point"):
        problems.SysIdProblem(full, spiral_problem.net, spiral_problem.integrator)


def test_spiral_problem_layout(spiral_problem):
    obs = spiral_problem.observations
    assert obs.grid_times.shape == (500,)
    assert obs.grid_times[0] == 0.0
    assert obs.grid_times[-1] == 40.0
    assert obs.values.shape == (100, 2)
    assert obs.test_indices.size == 400
    assert np.array_equal(obs.grid_states[0], np.array([1.0, 0.0]))
    assert np.intersect1d(obs.train_indices, obs.test_indices).size == 0


def test_sysid_problem_rejects_a_mismatched_net_and_an_unknown_assembly(spiral_problem):
    # Shooting is the only forward map, so the problem takes no assembly at all.
    with pytest.raises(ValueError, match="state dimension"):
        replace(spiral_problem, net=nnet.MlpSpec((3, 10, 3)))
    for assembly in ("multiple", "full", "shooting"):
        with pytest.raises(TypeError, match="assembly"):
            replace(spiral_problem, assembly=assembly)


def test_spiral_reference_matches_closed_form(spiral_problem):
    obs = spiral_problem.observations
    exact = problems.spiral_solution(obs.grid_times)
    assert np.max(np.abs(obs.grid_states - exact)) < 1e-7


def test_pendulum_reference_conserves_energy(pendulum_problem):
    obs = pendulum_problem.observations
    assert obs.grid_times.shape == (200,)
    energies = problems.pendulum_energy(obs.grid_states)
    assert np.max(np.abs(energies - energies[0])) < 1e-6


@pytest.mark.parametrize("problem", ["spiral", "pendulum"])
def test_preset_shooting_rows_need_equal_substep_counts(problem):
    # Every interval of a preset's shooting grid needs, by the scalar rule,
    # the same substep count in every row, so taking the most any row needs
    # changes no preset's steps.  The gradient presets build the same grids.
    for s in range(5):
        probs = [runner.build_problem(replace(runner.preset(name), seed=s))
                 for name in (f"{problem}-eki", f"{problem}-adam-0.01", f"{problem}-sgd-0.1")]
        times, dt = problems.sysid_grid(probs[0])[1], probs[0].integrator.dt
        needed = np.maximum(1.0, np.ceil(np.diff(times, axis=1) / dt - 1e-9))
        assert np.all(needed == needed[0]), (problem, s)
        for prob in probs[1:]:
            assert np.array_equal(problems.sysid_grid(prob)[1], times)
            assert prob.integrator.dt == dt


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
    # The logged-row counts of the benchmark's spiral-eki and spiral-adam runs.
    ("spiral_problem", 16),
    ("spiral_problem", 51),
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


def test_sysid_trajectory_is_the_test_pass_with_failed_rows_nan(spiral_problem):
    # A stack of a diverged row and a finite one: the finite row follows the
    # scalar oracle over the whole grid and its held-out states give test_mse
    # bitwise; the diverged row is NaN throughout and scores the penalty; a
    # row alone is its row of the stack, bitwise.
    prob, obs = spiral_problem, spiral_problem.observations
    thetas = np.stack([np.full(nnet.param_count(prob.net), 1e6),
                       nnet.mlp_init(prob.net, np.random.default_rng(5))])
    states = problems.sysid_trajectory(thetas, prob)
    assert states.shape == (2,) + obs.grid_states.shape
    assert np.isnan(states[0]).all() and np.isfinite(states[1]).all()
    test = obs.test_indices
    diff = states[1][test] - obs.grid_states[test]
    assert problems.test_mse(thetas, prob).tolist() == [eki.PENALTY_LOSS, np.mean(np.sum(diff * diff, axis=1))]
    layers = nnet.unflatten(prob.net, thetas[1])
    oracle = fixed_step_integrate(lambda x, t: nnet.mlp_apply(layers, x, prob.net.activation),
                                  prob.x0, obs.grid_times, prob.integrator).states
    assert np.all(np.abs(states[1] - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))
    for theta, row in zip(thetas, states):
        assert _same_bits(problems.sysid_trajectory(theta, prob), row)


def test_mse_agrees_with_forward_map_residuals(spiral_problem):
    # mse averages squared Euclidean mismatch over the 100 observations, so it
    # is computable from the stacked forward-map residual.
    theta = nnet.mlp_init(spiral_problem.net, np.random.default_rng(3))
    out = problems.sysid_forward_map(theta, spiral_problem)
    y = spiral_problem.observations.values.reshape(-1)
    assert abs(problems.mse(theta, spiral_problem) - np.sum((out.g - y) ** 2) / 100.0) < 1e-15


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
        problems.optimal_state(0.5, 0.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        problems.optimal_energy(0.0, 1.0, 0.0, 1.0, 1.0)


def test_integrating_optimal_control_reproduces_optimal_state():
    ts = np.linspace(0.0, 1.0, 101)

    def field(x, t):
        return x + problems.optimal_control(t, 1.0, 1.0, 0.0, 1.0, 1.0)

    config = ode.DopriConfig(rtol=1e-9, atol=1e-12)
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
    assert out.g[1] == 0.0


def control_loss(theta, prob, gamma, gamma_prime):
    # The EKI driver's loss of one member at the given covariance scales.
    out = problems.control_forward_map(theta, prob)
    return float(problems.control_objective(out.g[0], out.g[1] ** 2, prob, gamma, gamma_prime))


def test_control_loss_zero_controller_examples():
    prob = problems.ControlProblem()
    theta = np.zeros(nnet.param_count(prob.controller))
    unit = replace(prob, mu=0.0)
    assert abs(control_loss(theta, unit, 1.0, 0.01) - 0.5) < ORACLE_TOL
    assert abs(control_loss(theta, prob, 0.3, 0.01) - 0.5 / 0.3) < ORACLE_TOL


def test_control_loss_decomposition(control_problem):
    theta = nnet.mlp_init(control_problem.controller, np.random.default_rng(6))
    out = problems.control_forward_map(theta, control_problem)
    energy = problems.control_energy(theta, control_problem)
    assert abs(out.g[1] - np.sqrt(energy)) < 1e-14
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


@pytest.mark.parametrize("rows", [1, 5, 21])
def test_stacked_control_mse_matches_per_row_calls(control_problem, rows):
    # One stacked pass per grid scores every row bitwise as a call with that
    # row alone does, on the quadrature grid and on the denser test grid.
    thetas = nnet.mlp_init(control_problem.controller, np.random.default_rng(rows), rows)
    thetas[rows // 2] *= 30.0
    dense = np.linspace(0.0, control_problem.t_final, 4 * control_problem.quadrature_points + 1)
    for times in (None, dense):
        batched = problems.control_mse(thetas, control_problem, times)
        assert batched.shape == (rows,)
        alone = [problems.control_mse(theta, control_problem, times) for theta in thetas]
        assert all(isinstance(value, float) for value in alone)
        assert batched.tolist() == alone


def test_control_problem_overrides():
    prob = problems.ControlProblem(mu=0.0075, quadrature_points=50)
    assert prob.mu == 0.0075
    assert prob.quadrature_grid().shape == (51,)
    with pytest.raises(ValueError):
        problems.ControlProblem(b=0.0)
    with pytest.raises(ValueError):
        problems.ControlProblem(t_final=-1.0)
    with pytest.raises(ValueError, match="t_final must be positive"):
        problems.ControlProblem(t_final=0.0)
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        problems.ControlProblem(mu=-1.0)
    # The trapezoid rule needs at least one interval.
    for points in (0, -3):
        with pytest.raises(ValueError, match="quadrature_points must be at least 1"):
            problems.ControlProblem(quadrature_points=points)
    one = problems.ControlProblem(quadrature_points=1)
    assert one.quadrature_grid().tolist() == [0.0, 1.0]
    assert np.isfinite(problems.control_forward_map(np.zeros((1, nnet.param_count(one.controller))), one).g).all()


def _uneven_sysid_problem(rng, method, dt, activation):
    # A grid with random spacing, so each shooting subset has its own step
    # lengths, and a dt that (when small) forces several substeps per
    # interval.  Every spacing needs the same count at either dt (4 at 0.04,
    # 1 at 1.0), so each row takes the scalar oracle's own substeps.
    grid_times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.125, 0.155, size=29))])
    grid_states = 0.5 * rng.normal(size=(30, 2))
    obs = problems.make_observations(grid_times, grid_states, 3, 4, rng)
    return problems.SysIdProblem(
        obs, nnet.MlpSpec((2, 6, 2), activation),
        ode.IntegratorConfig(method=method, dt=dt, divergence_limit=50.0),
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
        L = obs.subset_length
        parts = [
            fixed_step_integrate(field, obs.values[i], obs.times[i:i + L], prob.integrator).states
            for i in range(0, obs.times.size, L)
        ]
        return np.concatenate(parts).reshape(-1), False
    except ode.IntegrationError:
        return np.zeros(obs.values.size), True


@seed(10)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["euler", "rk4"]),
    st.sampled_from([1.0, 0.04]),
    st.sampled_from(["tanh", "elu"]),
)
@settings(max_examples=30, deadline=None)
def test_batched_sysid_forward_map_matches_scalar_integrate(s, method, dt, activation):
    rng = np.random.default_rng(s)
    prob = _uneven_sysid_problem(rng, method, dt, activation)
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
    prob = problems.ControlProblem(
        controller=nnet.MlpSpec((1, 5, 5, 1), activation),
        integrator=ode.IntegratorConfig(method=method, dt=dt, divergence_limit=1e3),
    )
    members = _mixed_ensemble(rng, prob.controller, 5e3)
    out = problems.control_forward_map(members, prob)
    assert out.g.shape == (5, 2)
    grid = prob.quadrature_grid()
    for j, theta in enumerate(members):
        layers = nnet.unflatten(prob.controller, theta)

        def u(t):
            return nnet.mlp_apply(layers, np.array([t]), activation)

        try:
            traj = fixed_step_integrate(lambda x, t: prob.a * x + prob.b * u(t), np.array([prob.x0]),
                                        np.array([0.0, prob.t_final]), prob.integrator)
            failed_ref = False
        except ode.IntegrationError:
            failed_ref = True
        assert out.failed[j] == failed_ref
        if failed_ref:
            assert out.g[j, 0] == 0.0 and out.g[j, 1] == 0.0
            continue
        energy = np.trapezoid(np.array([u(t)[0] for t in grid]) ** 2, grid)
        assert abs(out.g[j, 0] - traj.states[-1, 0]) <= 1e-12 * max(1.0, abs(traj.states[-1, 0]))
        assert abs(out.g[j, 1] - np.sqrt(energy)) <= 1e-12 * max(1.0, np.sqrt(energy))
    assert out.failed[1] and out.failed[3] and not out.failed[0]


def _view_pass(theta, prob, x0, plan, record=None):
    # problems._net_states as it reads with no layout: the member matrix's
    # own unflatten views straight into mlp_apply, every call into one record.
    layers = nnet.unflatten(prob.net, theta)

    def field(x):
        return nnet.mlp_apply(layers, x, prob.net.activation, record)

    x0 = np.broadcast_to(x0, (theta.shape[0],) + x0.shape)
    return ode.integrate_lockstep(field, x0, plan)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _bptt(theta, prob):
    try:
        return gradbase.bptt_value_and_gradient(theta, prob)
    except ode.IntegrationError as exc:
        return str(exc)


@pytest.mark.parametrize("activation", ["tanh", "elu"])
@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("members, rows", [(22, 10), (1, 10), (5, 3), (5, 1), (1, 1)])
def test_laid_out_pass_matches_the_view_pass(monkeypatch, members, rows, method, activation):
    # A pass of more than one row per member lays its layers out for gemm;
    # a one-row pass, a single shooting run here, keeps the views.  Either way its states, failure flags
    # and BPTT gradients are the view pass's bits, NaNs included: member 0
    # overflows to non-finite states and the last one passes the limit.
    prob = problems.make_sysid_problem(
        "spiral", np.random.default_rng(rows), grid_size=60, t_final=6.0,
        num_subsets=rows, subset_length=5, net=nnet.MlpSpec((2, 10, 2), activation),
        integrator=ode.IntegratorConfig(method=method, dt=0.05, divergence_limit=1e3),
    )
    x0, plan = prob.plan.x0, prob.plan.steps
    assert x0.shape[0] == rows
    theta = nnet.mlp_init(prob.net, np.random.default_rng(members), members)
    if members > 1:
        theta[0] *= 1e200
        theta[-1, -2:] += 1e6
    got = problems._net_states(theta, prob, x0, plan)
    ref = _view_pass(theta, prob, x0, plan)
    assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])
    assert got[1].tolist() == ([True] + [False] * (members - 2) + [True] if members > 1 else [False])
    grads = [_bptt(t, prob) for t in theta]
    monkeypatch.setattr(gradbase, "_net_states", _view_pass)
    for grad, ref_grad in zip(grads, [_bptt(t, prob) for t in theta]):
        assert type(grad) is type(ref_grad)
        if isinstance(grad, str):
            assert grad == ref_grad
        else:
            assert grad[0] == ref_grad[0] and _same_bits(grad[1], ref_grad[1]) and grad[2] == ref_grad[2]


# OpenBLAS kernels on which a row's product with a weight matrix has the
# same bits whatever the number of rows sharing the call.  These FMA kernels
# were probed; under Nehalem, Sandybridge and Prescott a prefix of rows
# evaluated alone differs from the same rows inside a longer call.
FMA_CORES = ("SkylakeX", "Haswell", "Zen")


def _fma_kernel():
    # The precondition of every assertion comparing values from two call
    # layouts, such as a merged controller call and a call per grid.
    return log_hashes.openblas_core() in FMA_CORES


def _passes_under_blas_kernel(core, test):
    # OPENBLAS_CORETYPE picks the kernel another CPU would get, in the child
    # alone, which runs ``test`` (a node id under this directory).
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, pytest\n"
        f"sys.path.insert(0, {here!r})\n"
        "from test_log_hashes import log_hashes\n"
        "print('core', log_hashes.openblas_core())\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider',"
        f" {os.path.join(here, test)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if log_hashes.openblas_core() is not None:
        assert proc.stdout.startswith(f"core {core}\n")


@pytest.mark.parametrize("core", ["Nehalem", "Haswell"])
def test_laid_out_pass_matches_the_view_pass_under_another_blas_kernel(core):
    # One-row products (gemv) change bits between kernels; the laid out
    # passes run gemm only, so they match the view pass under each.
    _passes_under_blas_kernel(core, "test_problems.py::test_laid_out_pass_matches_the_view_pass")


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
    prob = problems.ControlProblem(
        a=a, x0=x0, integrator=ode.IntegratorConfig(method=method, dt=dt, divergence_limit=1e3)
    )
    plan = prob.plan
    return prob, plan.stages, plan.h, plan.n_steps


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
                xs = problems.control_states(u, prob)
                ref = loop_control_states(u, prob, h, method)
                assert xs.shape == ref.shape == u.shape[:-1] + (n_steps + 1,)
                err = np.abs(xs - ref) / np.maximum(1.0, np.abs(ref))
                assert np.max(err) <= PROPAGATOR_TOL, (a, x0, shape, np.max(err))
                assert np.all(xs[..., 0] == x0)
            with pytest.raises(ValueError, match=f"the pass reads {stages}"):
                problems.control_states(np.zeros(stages + 1), prob)


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
            xs = problems.control_states(u, prob)
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


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("dt", [0.01, 1.0 / 37.0])
@pytest.mark.parametrize("quadrature_points", [100, 50])
def test_control_path_evaluates_the_controller_once(monkeypatch, method, dt, quadrature_points):
    # One controller pass over the stage grid and the quadrature points it
    # lacks gives bitwise the states and energies of its own u columns and,
    # on an FMA kernel, of a pass on each grid alone.  At dt = 1/37 the stage
    # grid lacks most quadrature points; at dt = 0.01 it holds all of them.
    prob = problems.ControlProblem(
        quadrature_points=quadrature_points,
        integrator=ode.IntegratorConfig(method=method, dt=dt, divergence_limit=1e3),
    )
    plan = prob.plan
    stage_times, h, n_steps = plan.eval_times[:plan.stages], plan.h, plan.n_steps
    lacking = np.count_nonzero(~np.isin(prob.quadrature_grid(), stage_times))
    assert (lacking == 0) == (dt == 0.01)
    real = problems.controller_values
    sizes = []

    def counted(theta, prob, times, record=None):
        sizes.append(times.size)
        return real(theta, prob, times, record)

    rng = np.random.default_rng(quadrature_points)
    for members in (1, 2, 22):
        theta = nnet.mlp_init(prob.controller, rng, members)
        if members > 1:
            theta[-1] *= 1e3  # the last member passes the divergence limit
        sizes.clear()
        monkeypatch.setattr(problems, "controller_values", counted)
        xs, energy, failed, u = problems._control_path(theta, prob)
        out = problems.control_forward_map(theta, prob)
        monkeypatch.setattr(problems, "controller_values", real)
        assert sizes == [stage_times.size + lacking] * 2
        times, _ = problems.control_trajectory(theta[0], prob)
        assert np.array_equal(times, h * np.arange(n_steps + 1))
        assert np.array_equal(u, real(theta, prob, plan.eval_times))
        # The states and energies are those of the pass's own u columns.
        u_quad = np.ascontiguousarray(u[:, plan.quad_cols])
        assert np.array_equal(xs, problems.control_states(u[:, :plan.stages], prob))
        assert np.array_equal(failed, problems.control_diverged(xs, prob.integrator))
        assert np.array_equal(energy, np.trapezoid(u_quad * u_quad, plan.quad, axis=-1))
        assert np.array_equal(out.g[:, 0], np.where(failed, 0.0, xs[:, -1]))
        assert np.array_equal(out.g[:, 1], np.where(failed, 0.0, np.sqrt(energy)))
        assert not failed[0] and failed[-1] == (members > 1)
        if _fma_kernel():
            ref = problems.control_states(real(theta, prob, stage_times), prob)
            assert np.array_equal(xs, ref)
            assert np.array_equal(failed, problems.control_diverged(ref, prob.integrator))
            assert np.array_equal(energy, problems.control_energy(theta, prob))


def test_control_path_evaluates_the_controller_once_under_a_non_fma_kernel():
    # Under Nehalem the comparisons with a pass on each grid alone are left
    # out; those from the pass's own layout must hold.
    _passes_under_blas_kernel("Nehalem", "test_problems.py::test_control_path_evaluates_the_controller_once")


def test_control_forward_map_past_max_steps_evaluates_nothing(monkeypatch):
    # The step count alone decides the max_steps rule: every member fails
    # with zeroed outputs before the controller is evaluated.
    prob = problems.ControlProblem(
        integrator=ode.IntegratorConfig(method="rk4", dt=1e-4, max_steps=10)
    )

    def unreachable(*args):
        raise AssertionError("controller evaluated past max_steps")

    monkeypatch.setattr(problems, "controller_values", unreachable)
    theta = nnet.mlp_init(prob.controller, np.random.default_rng(2), 22)
    out = problems.control_forward_map(theta, prob)
    assert out.failed.shape == (22,) and out.failed.all()
    assert not out.g.any()
    # A pass past max_steps takes no step: its trajectory is the start alone.
    times, states = problems.control_trajectory(theta[0], prob)
    assert times.tolist() == [0.0] and np.isnan(states).all() and states.size == 1
    with pytest.raises(ode.IntegrationError, match="max_steps"):
        problems.control_states(np.zeros(20_001), prob)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_plan_decides_max_steps_from_the_step_count(method):
    # Ten steps of 0.1 pass max_steps = 10 and fail max_steps = 9; the plan
    # records the decision and its readers act on it.  An exceeded pass
    # takes no step.
    for max_steps, exceeded in ((10, False), (9, True)):
        prob = problems.ControlProblem(
            integrator=ode.IntegratorConfig(method=method, dt=0.1, max_steps=max_steps)
        )
        assert prob.plan.n_steps == (0 if exceeded else 10) and prob.plan.exceeded == exceeded
        theta = nnet.mlp_init(prob.controller, np.random.default_rng(5), 3)
        assert problems.control_forward_map(theta, prob).failed.all() == exceeded
        if exceeded:
            assert prob.plan.eval_times is None and prob.plan.blocks == ()
            with pytest.raises(ode.IntegrationError, match="max_steps"):
                gradbase.bptt_value_and_gradient(theta[0], prob)
        else:
            assert np.isfinite(gradbase.bptt_value_and_gradient(theta[0], prob)[0])


# ---------------------------------------------------------------------------
# The per-problem evaluation plan


def _control_values(prob, theta):
    # Everything a run reads off a control problem, for one parameter matrix.
    out = problems.control_forward_map(theta, prob)
    try:
        bptt = [gradbase.bptt_value_and_gradient(row, prob, 0.3, 0.01) for row in theta[:2]]
    except ode.IntegrationError as exc:
        bptt = str(exc)
    return out, bptt, problems.control_mse(theta, prob)


@pytest.mark.parametrize(
    "change",
    [
        {"integrator": ode.IntegratorConfig(method="euler", dt=0.01, divergence_limit=1e3)},
        {"integrator": ode.IntegratorConfig(method="rk4", dt=1.0 / 37.0, divergence_limit=1e3)},
        {"integrator": ode.IntegratorConfig(method="rk4", dt=0.003, divergence_limit=1e3)},
        {"integrator": ode.IntegratorConfig(method="rk4", dt=0.01, max_steps=10)},
        {"a": -0.5},
        {"quadrature_points": 37},
    ],
    ids=["method", "dt", "dt-blocks", "max-steps", "a", "quadrature-points"],
)
def test_replaced_problem_gets_its_own_plan(change):
    # A problem copied with dataclasses.replace evaluates bitwise as one
    # built with those fields, after the original's plan was built and used.
    base = problems.ControlProblem()
    theta = nnet.mlp_init(base.controller, np.random.default_rng(4), 5)
    _control_values(base, theta)
    copied, fresh = replace(base, **change), problems.ControlProblem(**change)
    assert copied.plan is not base.plan
    out_c, bptt_c, mse_c = _control_values(copied, theta)
    out_f, bptt_f, mse_f = _control_values(fresh, theta)
    assert np.array_equal(out_c.g, out_f.g)
    assert np.array_equal(out_c.failed, out_f.failed)
    assert np.array_equal(mse_c, mse_f)
    if isinstance(bptt_f, str):  # past max_steps: every member fails, BPTT raises
        assert bptt_c == bptt_f and "max_steps" in bptt_f and out_f.failed.all()
        return
    for (loss_c, grad_c, failed_c), (loss_f, grad_f, failed_f) in zip(bptt_c, bptt_f):
        assert loss_c == loss_f and failed_c == failed_f and np.array_equal(grad_c, grad_f)


def test_builds_of_one_config_share_no_plan():
    config = runner.preset("control-eki-mu0.001")
    first, second = runner.build_problem(config), runner.build_problem(config)
    assert first.plan is not second.plan
    for a, b in zip((first.plan.eval_times, first.plan.final_row, first.plan.blocks[0][2]),
                    (second.plan.eval_times, second.plan.final_row, second.plan.blocks[0][2])):
        assert not np.shares_memory(a, b)
    with pytest.raises(ValueError, match="read-only"):
        first.plan.final_row[0] = 1.0


def test_a_control_run_builds_the_propagator_once(tmp_path, monkeypatch):
    # control-eki@4 makes 6 forward maps and two error passes; the problem's
    # plan builds the propagator on the first and every later one reads it.
    real, calls = problems.control_propagator, []

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(problems, "control_propagator", counted)
    config = replace(runner.preset("control-eki-mu0.001"), epochs=4)
    report = runner.run(config, out_dir=str(tmp_path))
    assert report.error is None and len(calls) == 1


def test_control_pass_past_max_steps_allocates_nothing_of_its_size():
    # 10^6 steps against max_steps = 10: the forward map fails every member
    # and the BPTT pass raises, each within a traced peak of 1 MB, plan
    # build included (the stage grid alone would be 16 MB).
    integrator = ode.IntegratorConfig(method="rk4", dt=1e-6, max_steps=10)
    theta = nnet.mlp_init(problems.ControlProblem().controller, np.random.default_rng(1), 22)
    for run in ("map", "bptt"):
        prob = problems.ControlProblem(integrator=integrator)
        tracemalloc.start()
        try:
            if run == "map":
                out = problems.control_forward_map(theta, prob)
            else:
                with pytest.raises(ode.IntegrationError, match="max_steps"):
                    gradbase.bptt_value_and_gradient(theta[0], prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prob.plan.exceeded and prob.plan.n_steps == 0
        assert peak < 2**20, (run, peak)
    assert out.failed.shape == (22,) and out.failed.all()
    assert not out.g.any()
