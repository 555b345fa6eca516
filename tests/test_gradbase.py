"""Unit tests for the BPTT gradient baseline and its optimizers."""

from dataclasses import replace

import numpy as np
import pytest

from ekinode import gradbase, nnet, ode, problems

from test_problems import loop_control_states

FD_EPS = 1e-6
FD_REL_TOL = 1e-5
FD_ABS_FLOOR = 1e-10


def fd_gradient(loss, theta, eps=FD_EPS):
    g = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += eps
        down = theta.copy()
        down[i] -= eps
        g[i] = (loss(up) - loss(down)) / (2.0 * eps)
    return g


def assert_fd_close(grad, ref):
    # Relative agreement per component, with an absolute floor where the
    # finite-difference reference itself drowns in roundoff.
    err = np.abs(grad - ref)
    ok = (err <= FD_ABS_FLOOR) | (err <= FD_REL_TOL * np.maximum(np.abs(ref), np.abs(grad)))
    assert np.all(ok), f"worst abs {err.max():.3e}"


def zero_field_problem():
    grid_times = np.linspace(0.0, 1.0, 20)
    grid_states = np.tile([0.3, -0.7], (20, 1))
    obs = problems.make_observations(grid_times, grid_states, 2, 5, np.random.default_rng(0))
    return problems.SysIdProblem(
        name="rest",
        true_field=lambda x, t: np.zeros_like(x),
        x0=np.array([0.3, -0.7]),
        t_final=1.0,
        observations=obs,
        net=nnet.MlpSpec((2, 4, 2), "tanh"),
        integrator=ode.IntegratorConfig(method="rk4", dt=0.05),
        assembly="shooting",
    )


def test_gradient_vanishes_at_perfect_fit():
    prob = zero_field_problem()
    theta = np.zeros(nnet.param_count(prob.net))
    loss, grad, _ = gradbase.bptt_value_and_gradient(theta, prob)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(theta))


def test_one_point_shooting_runs_have_zero_gradient(small_spiral):
    # Each run starts at its only observation: no step, no field evaluation,
    # a zero loss and a zero gradient, as for the forward map.
    obs = small_spiral.observations
    one = problems.make_observations(obs.grid_times, obs.grid_states, 3, 1, np.random.default_rng(0))
    prob = replace(small_spiral, observations=one)
    theta = nnet.mlp_init(prob.net, np.random.default_rng(1))
    loss, grad, failed = gradbase.bptt_value_and_gradient(theta, prob)
    assert loss == problems.mse(theta, prob) == 0.0
    assert np.array_equal(grad, np.zeros_like(theta)) and not failed


def test_sysid_gradient_matches_finite_differences(small_spiral):
    for s in (0, 1):
        theta = nnet.mlp_init(small_spiral.net, np.random.default_rng(s))
        grad = gradbase.bptt_gradient(theta, small_spiral)
        ref = fd_gradient(lambda t: gradbase.bptt_value_and_gradient(t, small_spiral)[0], theta)
        assert_fd_close(grad, ref)


def test_sysid_gradient_matches_finite_differences_full_assembly(small_spiral):
    prob = replace(small_spiral, assembly="full")
    theta = nnet.mlp_init(prob.net, np.random.default_rng(2))
    grad = gradbase.bptt_gradient(theta, prob)
    ref = fd_gradient(lambda t: gradbase.bptt_value_and_gradient(t, prob)[0], theta)
    assert_fd_close(grad, ref)


def test_sysid_gradient_matches_finite_differences_euler(small_spiral):
    prob = replace(small_spiral, integrator=ode.IntegratorConfig(method="euler", dt=0.01))
    theta = nnet.mlp_init(prob.net, np.random.default_rng(3))
    grad = gradbase.bptt_gradient(theta, prob)
    ref = fd_gradient(lambda t: gradbase.bptt_value_and_gradient(t, prob)[0], theta)
    assert_fd_close(grad, ref)


def test_control_gradient_matches_finite_differences(control_problem):
    euler = replace(control_problem, integrator=replace(control_problem.integrator, method="euler"))
    cases = ((control_problem, 4, (1.0, 1.0)), (control_problem, 5, (0.3, 0.01)),
             (euler, 6, (0.3, 0.01)))
    for prob, s, (gamma, gamma_prime) in cases:
        theta = nnet.mlp_init(prob.controller, np.random.default_rng(s))
        loss, grad, _ = gradbase.bptt_value_and_gradient(
            theta, prob, gamma=gamma, gamma_prime=gamma_prime
        )
        ref = fd_gradient(
            lambda t: gradbase.bptt_value_and_gradient(
                t, prob, gamma=gamma, gamma_prime=gamma_prime
            )[0],
            theta,
        )
        assert_fd_close(grad, ref)


def loop_step_reverse(gx, h, method, vjp):
    # The reverse of one euler/rk4 step, visiting the field evaluations last
    # first; ``vjp(i, g)`` pulls g back through the i-th of them.
    if method == "euler":
        return gx + vjp(0, h * gx)
    half = 0.5 * h
    g6, g3 = (h / 6.0) * gx, (h / 3.0) * gx
    gin = vjp(3, g6)
    xbar = gx + gin
    gin = vjp(2, g3 + h * gin)
    xbar += gin
    gin = vjp(1, g3 + half * gin)
    xbar += gin
    gin = vjp(0, g6 + half * gin)
    return xbar + gin


def loop_control_gradient(theta, prob, gamma, gamma_prime):
    """Reference for the control BPTT gradient: the terminal term pulled back
    step by step through the scalar recurrence, as a field ``a x + b u``
    whose i-th stage of step k reads u at stage point
    ``stride k + (0, 1, 1, 2)[i]``."""
    cfg = prob.integrator
    layers = nnet.unflatten(prob.controller, theta)
    act = prob.controller.activation
    stage_times, h, n_steps = problems.control_stage_grid(prob)
    quad_grid = prob.quadrature_grid()
    stage_record, quad_record = [], []
    u_stage = nnet.mlp_apply(layers, stage_times[:, None], act, stage_record)[:, 0]
    u_quad = nnet.mlp_apply(layers, quad_grid[:, None], act, quad_record)[:, 0]
    x = float(loop_control_states(u_stage, prob, h, cfg.method)[-1])
    grad = np.zeros(theta.size)
    acc = nnet.unflatten(prob.controller, grad)
    w = np.empty_like(quad_grid)
    w[1:-1] = 0.5 * (quad_grid[2:] - quad_grid[:-2])
    w[0] = 0.5 * (quad_grid[1] - quad_grid[0])
    w[-1] = 0.5 * (quad_grid[-1] - quad_grid[-2])
    g_quad = (prob.mu / (2.0 * gamma_prime)) * 2.0 * w * u_quad
    gradbase._pull(layers, act, quad_record, g_quad[:, None], acc)
    a, b = prob.a, prob.b
    ubar = np.zeros(stage_times.size)
    stride = 2 if cfg.method == "rk4" else 1

    def vjp(i, g):
        ubar[stage + (0, 1, 1, 2)[i]] += b * g
        return a * g

    gx = (x - prob.x_star) / gamma
    for k in reversed(range(n_steps)):
        stage = stride * k
        gx = loop_step_reverse(gx, h, cfg.method, vjp)
    gradbase._pull(layers, act, stage_record, ubar[:, None], acc)
    return grad


# The propagator's last row and the step-by-step reverse sweep add the same
# terms in another order.
CONTROL_GRADIENT_TOL = 1e-12


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("dt", [0.01, 0.003])
def test_control_gradient_matches_reverse_recurrence(method, dt):
    # 0.003 takes 334 steps: more than one propagator block.
    for a, x0, (gamma, gamma_prime) in ((1.0, 0.0, (1.0, 1.0)), (0.5, 0.7, (0.3, 0.01)),
                                        (-2.0, 0.7, (0.15, 0.01))):
        prob = problems.make_control_problem(
            a=a, x0=x0, integrator=ode.IntegratorConfig(method=method, dt=dt, divergence_limit=1e3)
        )
        for s in (0, 1):
            theta = (1.0 + s) * nnet.mlp_init(prob.controller, np.random.default_rng(30 + s))
            grad = gradbase.bptt_gradient(theta, prob, gamma, gamma_prime)
            ref = loop_control_gradient(theta, prob, gamma, gamma_prime)
            err = np.max(np.abs(grad - ref)) / max(1.0, np.max(np.abs(ref)))
            assert err <= CONTROL_GRADIENT_TOL, (a, x0, s, err)


class PerCallPullback:
    """Reference for ``gradbase._Pullback``: every call's layer gradients are
    formed from its own record and added into the gradient one call at a
    time, in sweep order."""

    def __init__(self, layers, activation, records):
        self.layers, self.activation, self.records = layers, activation, records
        self.products = []

    def vjp(self, call, gout):
        g = gout
        products = []
        for (w, _), (a, y) in zip(reversed(self.layers), reversed(self.records[call])):
            gz = g if y is None else g * gradbase._act_deriv(y, self.activation)
            products.append((gz.mT @ a, gz.sum(axis=-2)))
            g = gz @ w
        self.products.append(products[::-1])
        return g

    def accumulate(self, acc):
        for products in self.products:
            for (dw, db), (pw, pb) in zip(acc, products):
                dw += pw
                db += pb


def test_stacked_accumulation_is_bitwise_per_call(spiral_problem, small_spiral, control_problem,
                                                  monkeypatch):
    # The batched weight and bias gradients must equal per-call accumulation
    # exactly: each stacked product is the per-call product and the calls
    # are reduced in sweep order.
    fine = ode.IntegratorConfig(method="rk4", dt=small_spiral.integrator.dt / 2.5)
    cases = [
        (spiral_problem, {}),
        (replace(spiral_problem, assembly="full"), {}),
        (replace(small_spiral, integrator=replace(small_spiral.integrator, method="euler")), {}),
        (replace(small_spiral, net=nnet.MlpSpec((2, 6, 5, 2), "elu")), {}),
        (replace(small_spiral, integrator=fine), {}),
        (control_problem, {"gamma": 0.3, "gamma_prime": 0.01}),
        (replace(control_problem, integrator=replace(control_problem.integrator, method="euler")), {}),
    ]
    n_sub, _ = ode.substeps(problems.sysid_grid(cases[4][0])[1], fine.dt)
    assert n_sub.min() >= 2
    for prob, kw in cases:
        spec = prob.controller if isinstance(prob, problems.ControlProblem) else prob.net
        for s in (0, 1, 2):
            theta = (1.0 + s) * nnet.mlp_init(spec, np.random.default_rng(20 + s))
            with monkeypatch.context() as m:
                m.setattr(gradbase, "_Pullback", PerCallPullback)
                ref = gradbase.bptt_gradient(theta, prob, **kw)
            grad = gradbase.bptt_gradient(theta, prob, **kw)
            assert np.array_equal(grad, ref), (prob.name, spec, s)


def test_bptt_loss_matches_problem_losses(small_spiral, control_problem):
    # BPTT records on the forward map's integrator core, grid and loss, so
    # its loss is the training MSE bitwise.
    theta = nnet.mlp_init(small_spiral.net, np.random.default_rng(8))
    for assembly in ("shooting", "full"):
        for method in ("rk4", "euler"):
            integrator = replace(small_spiral.integrator, method=method)
            prob = replace(small_spiral, assembly=assembly, integrator=integrator)
            loss, _, _ = gradbase.bptt_value_and_gradient(theta, prob)
            assert loss == problems.mse(theta, prob), (assembly, method)

    theta_c = nnet.mlp_init(control_problem.controller, np.random.default_rng(9))
    loss_c, _, _ = gradbase.bptt_value_and_gradient(
        theta_c, control_problem, gamma=0.3, gamma_prime=0.01
    )
    out = problems.control_forward_map(theta_c, control_problem)
    expected = float(problems.control_objective(out.g[0], out.h**2, control_problem, 0.3, 0.01))
    assert abs(loss_c - expected) <= 1e-12 * max(1.0, abs(expected))


def test_gradient_scales_linearly_with_loss(control_problem):
    # Halving both covariance scales doubles the loss, so the gradient must
    # double exactly (power-of-two scaling is lossless).
    theta = nnet.mlp_init(control_problem.controller, np.random.default_rng(10))
    loss1, grad1, _ = gradbase.bptt_value_and_gradient(theta, control_problem)
    loss2, grad2, _ = gradbase.bptt_value_and_gradient(
        theta, control_problem, gamma=0.5, gamma_prime=0.5
    )
    assert loss2 == 2.0 * loss1
    assert np.array_equal(grad2, 2.0 * grad1)


def test_unfold_rejects_adaptive_methods(small_spiral, control_problem):
    # BPTT unfolds the problem's integrator, and no problem holds an
    # adaptive one.
    dopri = ode.IntegratorConfig(method="dopri5")
    with pytest.raises(ValueError, match="euler or rk4"):
        replace(small_spiral, integrator=dopri)
    with pytest.raises(ValueError, match="euler or rk4"):
        replace(control_problem, integrator=dopri)


def test_divergent_unfold_reports_step_index(small_spiral):
    theta = np.full(nnet.param_count(small_spiral.net), 1e307)
    with pytest.raises(ode.IntegrationError, match="unfold step"):
        gradbase.bptt_gradient(theta, small_spiral)


def test_states_beyond_divergence_limit_still_train(small_spiral):
    # A finite state past the limit is flagged, as the forward map flags it,
    # but its loss and gradient are those of the unflagged unfolding.
    theta = nnet.mlp_init(small_spiral.net, np.random.default_rng(18))
    loss, grad, failed = gradbase.bptt_value_and_gradient(theta, small_spiral)
    assert not failed
    prob = replace(small_spiral, integrator=replace(small_spiral.integrator, divergence_limit=1e-3))
    loss_f, grad_f, failed_f = gradbase.bptt_value_and_gradient(theta, prob)
    assert failed_f
    assert loss_f == loss
    assert np.array_equal(grad_f, grad)


def test_unfold_beyond_max_steps_raises(small_spiral):
    # Two shooting runs of 5 observations: 4 one-substep intervals each.
    theta = nnet.mlp_init(small_spiral.net, np.random.default_rng(16))
    prob = replace(small_spiral, integrator=replace(small_spiral.integrator, max_steps=3))
    with pytest.raises(ode.IntegrationError, match="max_steps"):
        gradbase.bptt_value_and_gradient(theta, prob)


@pytest.mark.parametrize(
    "integrator",
    [
        ode.IntegratorConfig(method="rk4", dt=0.01, max_steps=10),
        ode.IntegratorConfig(method="rk4", dt=0.01, divergence_limit=1e-3),
        ode.IntegratorConfig(method="euler", dt=0.01, divergence_limit=1e-3),
    ],
    ids=["rk4-max-steps", "rk4-divergence-limit", "euler-divergence-limit"],
)
def test_control_tape_follows_forward_map_failure_rule(integrator):
    # The control forward map flags each of these.  Past max_steps the BPTT
    # pass raises, as the system-identification pass does; a state past the
    # divergence limit is flagged but trains like the unflagged unfolding.
    prob = problems.make_control_problem(0.001, integrator=integrator)
    theta = nnet.mlp_init(prob.controller, np.random.default_rng(0))
    assert problems.control_forward_map(theta, prob).failed
    if integrator.max_steps == 10:
        with pytest.raises(ode.IntegrationError, match="max_steps"):
            gradbase.bptt_value_and_gradient(theta, prob)
        return
    loss, grad, failed = gradbase.bptt_value_and_gradient(theta, prob)
    assert failed
    prob_ok = replace(prob, integrator=replace(integrator, divergence_limit=1e3))
    loss_ok, grad_ok, failed_ok = gradbase.bptt_value_and_gradient(theta, prob_ok)
    assert not failed_ok
    assert not problems.control_forward_map(theta, prob_ok).failed
    assert loss == loss_ok
    assert np.array_equal(grad, grad_ok)


def two_run_problem(first_spacing, second_spacing, dt):
    # Two shooting runs of 10 observations that fill a 20-point grid.
    first = first_spacing * np.arange(10)
    grid_times = np.concatenate([first, first[-1] + second_spacing * np.arange(1, 11)])
    grid_states = problems.spiral_solution(grid_times)
    obs = problems.make_observations(grid_times, grid_states, 2, 10, np.random.default_rng(0))
    return problems.SysIdProblem(
        name="two-runs",
        true_field=problems.spiral_field,
        x0=np.array([1.0, 0.0]),
        t_final=float(grid_times[-1]),
        observations=obs,
        net=nnet.MlpSpec((2, 4, 2), "tanh"),
        integrator=ode.IntegratorConfig(method="rk4", dt=dt),
        assembly="shooting",
    )


def test_unfold_needs_equal_substep_counts_across_runs():
    # One substep per interval in the first run, two in the second.
    prob = two_run_problem(0.05, 0.1, dt=0.05)
    theta = nnet.mlp_init(prob.net, np.random.default_rng(17))
    with pytest.raises(ValueError, match="equal substep counts"):
        gradbase.bptt_value_and_gradient(theta, prob)
    # Equal counts with run-specific substep lengths unfold, exactly.
    prob = two_run_problem(0.05, 0.04, dt=0.05)
    loss, grad, _ = gradbase.bptt_value_and_gradient(theta, prob)
    assert loss == problems.mse(theta, prob)
    ref = fd_gradient(lambda t: gradbase.bptt_value_and_gradient(t, prob)[0], theta)
    assert_fd_close(grad, ref)


def test_adam_first_step_is_signed_learning_rate():
    # Bias corrections cancel at tau=1, leaving -eta * g / (|g| + eps); for
    # gradients well above eps that is -eta * sign(g).
    g = np.array([3.0, -0.25, 0.04])
    theta = np.zeros(3)
    state = gradbase.adam_init(3, eta=0.01)
    new_state, new_theta = gradbase.adam_step(state, theta, g)
    delta = new_theta - theta
    assert np.max(np.abs(delta / (-0.01 * np.sign(g)) - 1.0)) < 1e-6
    assert np.allclose(delta, -0.01 * g / (np.abs(g) + 1e-8), rtol=1e-14, atol=0.0)
    assert new_state.tau == 1


def test_adam_zero_gradient_is_identity():
    theta = np.array([1.0, -2.0])
    state = gradbase.adam_init(2)
    _, new_theta = gradbase.adam_step(state, theta, np.zeros(2))
    assert np.array_equal(new_theta, theta)


def test_adam_zero_eta_updates_moments_only():
    theta = np.array([1.0, -2.0])
    g = np.array([0.5, 0.5])
    state = gradbase.adam_init(2, eta=0.0)
    new_state, new_theta = gradbase.adam_step(state, theta, g)
    assert np.array_equal(new_theta, theta)
    assert np.allclose(new_state.m, 0.1 * g, rtol=1e-15)
    assert np.allclose(new_state.v, 0.001 * g * g, rtol=1e-15)


def test_adam_recurrences_match_reference():
    # Two steps against a direct transcription of the update equations.
    rng = np.random.default_rng(13)
    theta = rng.normal(size=4)
    state = gradbase.adam_init(4, eta=0.05)
    m = np.zeros(4)
    v = np.zeros(4)
    for tau in (1, 2):
        g = rng.normal(size=4)
        state, theta_new = gradbase.adam_step(state, theta, g)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = theta - 0.05 * (m / (1 - 0.9**tau)) / (np.sqrt(v / (1 - 0.999**tau)) + 1e-8)
        assert np.allclose(theta_new, ref, atol=1e-15)
        theta = theta_new


def test_adam_state_validation():
    with pytest.raises(ValueError):
        gradbase.AdamState(m=np.zeros(3), v=np.zeros(2))
    with pytest.raises(ValueError):
        gradbase.AdamState(m=np.zeros(3), v=np.zeros(3), tau=-1)
    with pytest.raises(ValueError):
        gradbase.adam_step(gradbase.adam_init(2), np.zeros(3), np.zeros(3))


def test_sgd_examples():
    assert np.array_equal(gradbase.sgd_step(np.array([1.0]), np.zeros(1), 0.1), np.array([1.0]))
    assert np.allclose(gradbase.sgd_step(np.array([1.0]), np.array([2.0]), 0.1), [0.8], atol=1e-16)
    theta = np.array([1.0, -3.0])
    g = np.array([2.0, 0.5])
    one = gradbase.sgd_step(theta, g, 0.1)
    two = gradbase.sgd_step(gradbase.sgd_step(theta, g, 0.05), g, 0.05)
    assert np.allclose(one, two, atol=1e-16)
    with pytest.raises(ValueError):
        gradbase.sgd_step(theta, np.zeros(3), 0.1)


def test_sgd_descends_at_random_parameters(small_spiral):
    # The gradient is a descent direction: a small enough step always lowers
    # the loss away from stationary points.
    for s in range(10):
        theta = nnet.mlp_init(small_spiral.net, np.random.default_rng(100 + s))
        loss, grad, _ = gradbase.bptt_value_and_gradient(theta, small_spiral)
        assert np.linalg.norm(grad) > 0.0
        eta = 1e-2
        for _ in range(40):
            trial = gradbase.bptt_value_and_gradient(
                gradbase.sgd_step(theta, grad, eta), small_spiral
            )[0]
            if trial < loss:
                break
            eta *= 0.5
        else:
            raise AssertionError(f"no descent found at seed {100 + s}")


def test_optimizer_trajectories_are_deterministic(small_spiral):
    def run():
        theta = nnet.mlp_init(small_spiral.net, np.random.default_rng(15))
        state = gradbase.adam_init(theta.size, eta=0.01)
        for _ in range(5):
            _, grad, _ = gradbase.bptt_value_and_gradient(theta, small_spiral)
            state, theta = gradbase.adam_step(state, theta, grad)
        return theta

    assert np.array_equal(run(), run())
