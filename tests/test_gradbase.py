"""Unit tests for the BPTT gradient baseline and its optimizers."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ekinode import gradbase, nnet, ode, problems, runner

from test_ode import column_lockstep, same_bits
from test_problems import _fma_kernel, _passes_under_blas_kernel, _uneven_sysid_problem
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
        observations=obs,
        net=nnet.MlpSpec((2, 4, 2), "tanh"),
        integrator=ode.IntegratorConfig(method="rk4", dt=0.05),
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
        grad = gradbase.bptt_value_and_gradient(theta, small_spiral)[1]
        ref = fd_gradient(lambda t: gradbase.bptt_value_and_gradient(t, small_spiral)[0], theta)
        assert_fd_close(grad, ref)


def test_sysid_gradient_matches_finite_differences_euler(small_spiral):
    prob = replace(small_spiral, integrator=ode.IntegratorConfig(method="euler", dt=0.01))
    theta = nnet.mlp_init(prob.net, np.random.default_rng(3))
    grad = gradbase.bptt_value_and_gradient(theta, prob)[1]
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


def pull(spec, theta, record, gout):
    # One recorded call: its own sweep and its own flat gradient.
    net = gradbase._Pullback(spec, theta, record)
    net.vjp(gout)
    return net.gradient()


def two_record_control_gradient(theta, prob, gamma, gamma_prime):
    """Reference for the control BPTT pass: the controller recorded on the
    stage grid and on the quadrature grid separately, each record pulled
    back on its own; returns the loss and the gradient."""
    cfg = prob.integrator
    layers = nnet.unflatten(prob.controller, theta)
    act = prob.controller.activation
    plan = prob.plan
    stage_times, h, n_steps = plan.eval_times[:plan.stages], plan.h, plan.n_steps
    quad_grid = prob.quadrature_grid()
    stage_record, quad_record = [], []
    u_stage = nnet.mlp_apply(layers, stage_times[:, None], act, stage_record)[:, 0]
    u_quad = nnet.mlp_apply(layers, quad_grid[:, None], act, quad_record)[:, 0]
    x = float(problems.control_states(u_stage, prob)[-1])
    energy = float(np.trapezoid(u_quad * u_quad, quad_grid))
    loss = float(problems.control_objective(x, energy, prob, gamma, gamma_prime))
    w = np.empty_like(quad_grid)
    w[1:-1] = 0.5 * (quad_grid[2:] - quad_grid[:-2])
    w[0] = 0.5 * (quad_grid[1] - quad_grid[0])
    w[-1] = 0.5 * (quad_grid[-1] - quad_grid[-2])
    g_quad = (prob.mu / (2.0 * gamma_prime)) * 2.0 * w * u_quad
    ubar = ((x - prob.x_star) / gamma) * prob.plan.final_row
    spec = prob.controller
    grad = pull(spec, theta, quad_record, g_quad[:, None]) + pull(spec, theta, stage_record, ubar[:, None])
    return loss, grad


# The merged record adds the energy and terminal gradients on the shared
# columns before one pullback, where the reference pulls each back and adds
# the parameter gradients: the same terms in another order.
MERGED_RECORD_TOL = 1e-12


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("dt, quadrature_points", [(0.01, 100), (1.0 / 37.0, 100), (0.003, 50)])
def test_merged_control_record_matches_two_records(method, dt, quadrature_points):
    # At dt = 0.01 the stage grid holds every quadrature point; at 1/37 it
    # lacks most of them; 0.003 takes 334 steps, more than one block.
    for a, mu, (gamma, gamma_prime) in ((1.0, 0.001, (1.0, 1.0)), (0.5, 0.01, (0.3, 0.01)),
                                        (-2.0, 0.0075, (0.15, 0.01))):
        prob = problems.ControlProblem(
            mu=mu, a=a, quadrature_points=quadrature_points,
            integrator=ode.IntegratorConfig(method=method, dt=dt, divergence_limit=1e3),
        )
        for s in (0, 1, 2):
            theta = (1.0 + s) * nnet.mlp_init(prob.controller, np.random.default_rng(40 + s))
            loss, grad, _ = gradbase.bptt_value_and_gradient(theta, prob, gamma, gamma_prime)
            ref_loss, ref = two_record_control_gradient(theta, prob, gamma, gamma_prime)
            xs, energy, _, _ = problems._control_path(theta[None], prob)
            assert loss == problems.control_objective(xs[0, -1], energy[0], prob, gamma, gamma_prime)
            if _fma_kernel():  # the reference evaluates each grid in a call of its own
                assert loss == ref_loss, (a, s)
            err = np.max(np.abs(grad - ref)) / np.max(np.abs(ref))
            assert err <= MERGED_RECORD_TOL, (a, s, err)


def test_merged_control_record_matches_two_records_under_a_non_fma_kernel():
    _passes_under_blas_kernel("Nehalem", "test_gradbase.py::test_merged_control_record_matches_two_records")


def loop_control_gradient(theta, prob, gamma, gamma_prime):
    """Reference for the control BPTT gradient: the terminal term pulled back
    step by step through the scalar recurrence, as a field ``a x + b u``
    whose i-th stage of step k reads u at stage point
    ``stride k + (0, 1, 1, 2)[i]``."""
    cfg = prob.integrator
    layers = nnet.unflatten(prob.controller, theta)
    act = prob.controller.activation
    plan = prob.plan
    stage_times, h, n_steps = plan.eval_times[:plan.stages], plan.h, plan.n_steps
    quad_grid = prob.quadrature_grid()
    stage_record, quad_record = [], []
    u_stage = nnet.mlp_apply(layers, stage_times[:, None], act, stage_record)[:, 0]
    u_quad = nnet.mlp_apply(layers, quad_grid[:, None], act, quad_record)[:, 0]
    x = float(loop_control_states(u_stage, prob, h, cfg.method)[-1])
    w = np.empty_like(quad_grid)
    w[1:-1] = 0.5 * (quad_grid[2:] - quad_grid[:-2])
    w[0] = 0.5 * (quad_grid[1] - quad_grid[0])
    w[-1] = 0.5 * (quad_grid[-1] - quad_grid[-2])
    g_quad = (prob.mu / (2.0 * gamma_prime)) * 2.0 * w * u_quad
    grad = pull(prob.controller, theta, quad_record, g_quad[:, None])
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
    return grad + pull(prob.controller, theta, stage_record, ubar[:, None])


# The propagator's last row and the step-by-step reverse sweep add the same
# terms in another order.
CONTROL_GRADIENT_TOL = 1e-12


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("dt", [0.01, 0.003])
def test_control_gradient_matches_reverse_recurrence(method, dt):
    # 0.003 takes 334 steps: more than one propagator block.
    for a, x0, (gamma, gamma_prime) in ((1.0, 0.0, (1.0, 1.0)), (0.5, 0.7, (0.3, 0.01)),
                                        (-2.0, 0.7, (0.15, 0.01))):
        prob = problems.ControlProblem(
            a=a, x0=x0, integrator=ode.IntegratorConfig(method=method, dt=dt, divergence_limit=1e3)
        )
        for s in (0, 1):
            theta = (1.0 + s) * nnet.mlp_init(prob.controller, np.random.default_rng(30 + s))
            grad = gradbase.bptt_value_and_gradient(theta, prob, gamma, gamma_prime)[1]
            ref = loop_control_gradient(theta, prob, gamma, gamma_prime)
            err = np.max(np.abs(grad - ref)) / max(1.0, np.max(np.abs(ref)))
            assert err <= CONTROL_GRADIENT_TOL, (a, x0, s, err)


class PerCallPullback:
    """Reference for ``gradbase._Pullback``: the record is split into its
    calls, which are popped last first; every call's layer gradients are
    formed from its own inputs and added into a zero gradient one call at a
    time, in sweep order."""

    def __init__(self, spec, theta, record):
        self.spec, self.layers = spec, nnet.unflatten(spec, theta[None])
        L = len(self.layers)
        self.calls = [record[i:i + L] for i in range(0, len(record), L)]
        self.products = []

    def vjp(self, gout):
        # A hidden layer's activated output is the next layer's input; the
        # affine last layer has none.
        inputs = self.calls.pop()
        g = gout
        products = []
        for (w, _), a, y in zip(reversed(self.layers), reversed(inputs), reversed(inputs[1:] + [None])):
            gz = g if y is None else g * nnet._act_deriv(y, self.spec.activation)
            products.append((gz.mT @ a, gz.sum(axis=-2)))
            g = gz @ w
        self.products.append(products[::-1])
        return g

    def gradient(self):
        grad = np.zeros((1, nnet.param_count(self.spec)))
        for products in self.products:
            for (dw, db), (pw, pb) in zip(nnet.unflatten(self.spec, grad), products):
                dw += pw
                db += pb
        return grad.reshape(-1)


def test_stacked_accumulation_is_bitwise_per_call(spiral_problem, small_spiral, control_problem,
                                                  monkeypatch):
    # The batched weight and bias gradients must equal per-call accumulation
    # exactly: each stacked product is the per-call product and the calls
    # are reduced in sweep order.
    fine = ode.IntegratorConfig(method="rk4", dt=small_spiral.integrator.dt / 2.5)
    obs = spiral_problem.observations
    one_run = problems.make_observations(obs.grid_times, obs.grid_states, 1, 100, np.random.default_rng(0))
    cases = [
        (spiral_problem, {}),
        # A single shooting run is a one-row pass, whose products are gemv.
        (replace(spiral_problem, observations=one_run), {}),
        (replace(small_spiral, integrator=replace(small_spiral.integrator, method="euler")), {}),
        (replace(small_spiral, net=nnet.MlpSpec((2, 6, 5, 2), "elu")), {}),
        (replace(small_spiral, integrator=fine), {}),
        (control_problem, {"gamma": 0.3, "gamma_prime": 0.01}),
        (replace(control_problem, integrator=replace(control_problem.integrator, method="euler")), {}),
    ]
    n_sub, _, _ = ode.substeps(problems.sysid_grid(cases[4][0])[1], fine)
    assert n_sub.min() >= 2
    for case, (prob, kw) in enumerate(cases):
        spec = prob.controller if isinstance(prob, problems.ControlProblem) else prob.net
        for s in (0, 1, 2):
            theta = (1.0 + s) * nnet.mlp_init(spec, np.random.default_rng(20 + s))
            with monkeypatch.context() as m:
                m.setattr(gradbase, "_Pullback", PerCallPullback)
                ref = gradbase.bptt_value_and_gradient(theta, prob, **kw)[1]
            grad = gradbase.bptt_value_and_gradient(theta, prob, **kw)[1]
            assert np.array_equal(grad, ref), (case, s)


def column_step_reverse(gx, h, method, net):
    # Reference for gradbase._step_reverse: the column arithmetic it
    # replaced, forming every coefficient from the substep length h, a
    # Python float or each row's length as a (B, 1) column.
    if method == "euler":
        return gx + net.vjp(h * gx)
    half = 0.5 * h
    g6, g3 = (h / 6.0) * gx, (h / 3.0) * gx
    gin = net.vjp(g6)
    xbar = gx + gin
    gin = net.vjp(g3 + h * gin)
    xbar += gin
    gin = net.vjp(g3 + half * gin)
    xbar += gin
    gin = net.vjp(g6 + half * gin)
    return xbar + gin


def use_column_oracle(m):
    # Every lockstep pass and reverse step of the package as the column
    # arithmetic runs them: the pass decides its own substeps, and each
    # reverse step reads its length back from the laid-out h, whose rows
    # hold their lengths across members and components.
    def step_reverse(gx, c, method, net):
        h = c[0]
        if not isinstance(h, float):
            assert h.shape == gx.shape and np.all(h == h[:1, :, :1])
            h = h[0, :, :1]
        return column_step_reverse(gx, h, method, net)

    m.setattr(ode, "integrate_lockstep",
              lambda field, x0, plan: column_lockstep(field, x0, plan.times, plan.config))
    m.setattr(gradbase, "_step_reverse", step_reverse)


def _evaluations(prob, thetas):
    # Forward maps of the whole stack and of its first row alone, and the
    # BPTT pass of every row.
    return (problems.sysid_forward_map(thetas, prob), problems.sysid_forward_map(thetas[0], prob),
            [gradbase.bptt_value_and_gradient(t, prob) for t in thetas])


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_passes_match_the_column_oracle_bitwise(spiral_problem, monkeypatch, method):
    # Shooting grids with per-row substep lengths: random spacing at several
    # substeps per interval, and the spiral preset, whose subsets' spans
    # differ in their last bits.  Forward maps of 5 members and of 1, and
    # the BPTT loss, gradient and flag, equal the column arithmetic's bitwise.
    uneven = _uneven_sysid_problem(np.random.default_rng(5), method, 0.04, "tanh")
    spiral = replace(spiral_problem, integrator=replace(spiral_problem.integrator, method=method))
    for prob in (uneven, spiral):
        steps = prob.plan.steps
        assert steps.counts.max() > 1 or prob is spiral
        assert any(not isinstance(h, float) for h in ode.substeps(steps.times, steps.config)[1])
        thetas = nnet.mlp_init(prob.net, np.random.default_rng(24), 5)
        got = _evaluations(prob, thetas)
        with monkeypatch.context() as m:
            use_column_oracle(m)
            ref = _evaluations(prob, thetas)
        for out, ref_out in zip(got[:2], ref[:2]):
            assert same_bits(out.g, ref_out.g) and same_bits(out.failed, ref_out.failed)
        for (loss, grad, flag), (ref_loss, ref_grad, ref_flag) in zip(got[2], ref[2]):
            assert loss == ref_loss and same_bits(grad, ref_grad) and flag == ref_flag


def _run_files(config, out_dir):
    runner.run(config, out_dir=str(out_dir))
    with open(out_dir / "report.json") as f:
        report = json.load(f)
    del report["runtime_seconds"], report["log_path"]
    return (out_dir / "log.csv").read_bytes(), report


@pytest.mark.parametrize("expanding", [True, False], ids=["eki-expanding", "adam"])
def test_runs_match_the_column_oracle_bitwise(tmp_path, monkeypatch, expanding):
    # The EKI ensemble grows 22 -> 25 -> 27 mid-run, so the problem's plan
    # lays its coefficients out for three ensemble sizes.
    if expanding:
        config = runner.preset("spiral-eki")
        config = replace(config, epochs=5, eki=replace(config.eki, expansions=((2, 3), (4, 2))))
    else:
        config = replace(runner.preset("spiral-adam-0.01"), epochs=5)
    got = _run_files(config, tmp_path / "plan")
    with monkeypatch.context() as m:
        use_column_oracle(m)
        ref = _run_files(config, tmp_path / "column")
    assert got == ref
    assert got[1]["error"] is None
    if expanding:
        assert [line.split(b",")[2] for line in got[0].splitlines()[2::2]] == [b"22", b"25", b"27"]


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_every_step_reads_floats_or_state_shaped_coefficients(spiral_problem, monkeypatch, method):
    # No (B, 1) column reaches a step: every coefficient of a forward step
    # or a reverse step is a float or an array of the state's own shape.
    prob = replace(spiral_problem, integrator=replace(spiral_problem.integrator, method=method))
    seen = []

    def checked(step, reverse):
        def wrapped(*args):
            x, c = args[:2] if reverse else args[1:3]
            assert len(c) == 4
            for v in c:
                assert isinstance(v, float) or (type(v) is np.ndarray and v.shape == x.shape)
            seen.extend(type(v) for v in c)
            return step(*args)
        return wrapped

    for module, name in ((ode, "_lockstep_euler"), (ode, "_lockstep_rk4"), (gradbase, "_step_reverse")):
        monkeypatch.setattr(module, name, checked(getattr(module, name), module is gradbase))
    thetas = nnet.mlp_init(prob.net, np.random.default_rng(25), 5)
    _evaluations(prob, thetas)
    arrays = seen.count(np.ndarray)
    problems.test_mse(thetas, prob)  # the full grid: every row shares its lengths
    assert arrays > 0 and seen.count(np.ndarray) == arrays and float in seen


def test_bptt_loss_matches_problem_losses(small_spiral, control_problem, monkeypatch):
    # BPTT runs the forward map's own pass, grid and loss, so its loss is
    # the training MSE and its flag the forward map's, bitwise, and the
    # problem decides its substeps once, for every BPTT pass and forward
    # map it runs.  The larger scale takes a state past the divergence limit.
    substeps, decided = ode.substeps, []

    def counted_substeps(*args):
        decided.append(args)
        return substeps(*args)

    monkeypatch.setattr(ode, "substeps", counted_substeps)
    theta = nnet.mlp_init(small_spiral.net, np.random.default_rng(8))
    for method in ("rk4", "euler"):
        integrator = replace(small_spiral.integrator, method=method, divergence_limit=5.0)
        prob = replace(small_spiral, integrator=integrator)
        for scale in (1.0, 30.0):
            loss, _, flag = gradbase.bptt_value_and_gradient(scale * theta, prob)
            assert flag == problems.sysid_forward_map(scale * theta, prob).failed
            assert flag == (scale == 30.0)
            assert flag or loss == problems.mse(scale * theta, prob), method
        assert len(decided) == 1, method
        del decided[:]

    theta_c = nnet.mlp_init(control_problem.controller, np.random.default_rng(9))
    loss_c, _, _ = gradbase.bptt_value_and_gradient(
        theta_c, control_problem, gamma=0.3, gamma_prime=0.01
    )
    out = problems.control_forward_map(theta_c, control_problem)
    expected = float(problems.control_objective(out.g[0], out.g[1] ** 2, control_problem, 0.3, 0.01))
    assert abs(loss_c - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("dt", [0.01, 1.0 / 37.0, 0.003])
def test_control_bptt_runs_the_forward_maps_pass(method, dt):
    # The BPTT loss and flag are those of the forward map's own pass for the
    # same theta, bitwise; the last scale takes the state past the limit.
    prob = problems.ControlProblem(
        integrator=ode.IntegratorConfig(method=method, dt=dt, divergence_limit=1e3)
    )
    for s, scale in enumerate((1.0, 2.0, 1e3)):
        theta = scale * nnet.mlp_init(prob.controller, np.random.default_rng(50 + s))
        xs, energy, failed, _ = problems._control_path(theta[None], prob)
        expected = problems.control_objective(xs[0, -1], energy[0], prob, 0.3, 0.01)
        loss, _, flag = gradbase.bptt_value_and_gradient(theta, prob, 0.3, 0.01)
        assert loss == expected and flag == failed[0], (s, loss, expected)
        assert flag == (scale == 1e3)


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


def test_divergent_unfold_reports_step_index(small_spiral):
    theta = np.full(nnet.param_count(small_spiral.net), 1e307)
    with pytest.raises(ode.IntegrationError, match="unfold step"):
        gradbase.bptt_value_and_gradient(theta, small_spiral)


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
    # Two shooting runs of 5 observations: 4 one-substep intervals each.  At
    # dt = 1e-300 the two runs' counts also differ in their last bits, but
    # the pass is past max_steps first, and says so.
    theta = nnet.mlp_init(small_spiral.net, np.random.default_rng(16))
    for change in ({"max_steps": 3}, {"dt": 1e-300}):
        prob = replace(small_spiral, integrator=replace(small_spiral.integrator, **change))
        with pytest.raises(ode.IntegrationError, match=r"^max_steps=\d+ exceeded$"):
            gradbase.bptt_value_and_gradient(theta, prob)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_sysid_max_steps_boundary(small_spiral, method):
    # A dt of 1/2.5 of the grid spacing takes 3 substeps per interval: 12 per
    # shooting run of 5 observations.  At exactly that many steps the forward
    # map, the lockstep core and the BPTT pass run; at one more than
    # max_steps every member fails and BPTT raises.
    spacing = small_spiral.observations.grid_times[1]
    steps = 3 * 4
    theta = nnet.mlp_init(small_spiral.net, np.random.default_rng(23), 3)
    for max_steps, exceeded in ((steps, False), (steps - 1, True)):
        integrator = ode.IntegratorConfig(method=method, dt=spacing / 2.5, max_steps=max_steps,
                                          divergence_limit=1e3)
        prob = replace(small_spiral, integrator=integrator)
        x0, times = problems.sysid_grid(prob)
        _, failed = ode.integrate_lockstep(np.negative, np.broadcast_to(x0, (3,) + x0.shape),
                                           ode.LockstepPlan(times, integrator))
        out = problems.sysid_forward_map(theta, prob)
        assert failed.tolist() == out.failed.tolist() == [exceeded] * 3
        if exceeded:
            with pytest.raises(ode.IntegrationError, match="max_steps"):
                gradbase.bptt_value_and_gradient(theta[0], prob)
        else:
            loss, _, bptt_failed = gradbase.bptt_value_and_gradient(theta[0], prob)
            assert loss == problems.mse(theta[0], prob) and not bptt_failed


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
    prob = problems.ControlProblem(mu=0.001, integrator=integrator)
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
    # Two shooting runs of 10 observations over the first 20 points of a
    # 21-point grid, whose last point is held out.
    first = first_spacing * np.arange(10)
    grid_times = np.concatenate([first, first[-1] + second_spacing * np.arange(1, 12)])
    grid_states = problems.spiral_solution(grid_times)
    train = np.arange(20)
    obs = problems.ObservationSet(grid_times, grid_states, train, subset_length=10)
    return problems.SysIdProblem(
        observations=obs,
        net=nnet.MlpSpec((2, 4, 2), "tanh"),
        integrator=ode.IntegratorConfig(method="rk4", dt=dt),
    )


def test_unfold_takes_the_most_substeps_across_runs():
    # Rows that need different counts in an interval all take the most, each
    # at its own length, and BPTT unfolds that pass exactly: two runs that
    # need one and two substeps per interval, and the spiral preset at a dt
    # where its ten runs' spans differ only in their last bits but round to
    # different counts.  Equal counts at run-specific lengths unfold too.
    preset = runner.preset("spiral-adam-0.01")
    preset = replace(preset, seed=0, integrator=replace(preset.integrator, dt=0.0801603205611161))
    cases = [(two_run_problem(0.05, 0.1, dt=0.05), False),
             (runner.build_problem(preset), False),
             (two_run_problem(0.05, 0.04, dt=0.05), True)]
    for prob, equal in cases:
        spans = np.diff(problems.sysid_grid(prob)[1], axis=1)
        needed = np.maximum(1.0, np.ceil(spans / prob.integrator.dt - 1e-9))
        assert np.all(needed == needed[0]) == equal
        theta = nnet.mlp_init(prob.net, np.random.default_rng(17))
        loss, grad, failed = gradbase.bptt_value_and_gradient(theta, prob)
        assert loss == problems.mse(theta, prob) and not failed
        ref = fd_gradient(lambda t: gradbase.bptt_value_and_gradient(t, prob)[0], theta)
        assert_fd_close(grad, ref)


def test_adam_first_step_is_signed_learning_rate():
    # Bias corrections cancel at tau=1, leaving -eta * g / (|g| + eps); for
    # gradients well above eps that is -eta * sign(g).
    g = np.array([3.0, -0.25, 0.04])
    theta = np.zeros(3)
    state = gradbase.adam_init(3)
    new_state, new_theta = gradbase.adam_step(state, theta, g, 0.01)
    delta = new_theta - theta
    assert np.max(np.abs(delta / (-0.01 * np.sign(g)) - 1.0)) < 1e-6
    assert np.allclose(delta, -0.01 * g / (np.abs(g) + 1e-8), rtol=1e-14, atol=0.0)
    assert new_state.tau == 1


def test_adam_zero_gradient_is_identity():
    theta = np.array([1.0, -2.0])
    state = gradbase.adam_init(2)
    _, new_theta = gradbase.adam_step(state, theta, np.zeros(2), 0.01)
    assert np.array_equal(new_theta, theta)


def test_adam_zero_eta_updates_moments_only():
    theta = np.array([1.0, -2.0])
    g = np.array([0.5, 0.5])
    state = gradbase.adam_init(2)
    new_state, new_theta = gradbase.adam_step(state, theta, g, 0.0)
    assert np.array_equal(new_theta, theta)
    assert np.allclose(new_state.m, 0.1 * g, rtol=1e-15)
    assert np.allclose(new_state.v, 0.001 * g * g, rtol=1e-15)


def test_adam_recurrences_match_reference():
    # Two steps against a direct transcription of the update equations.
    rng = np.random.default_rng(13)
    theta = rng.normal(size=4)
    state = gradbase.adam_init(4)
    m = np.zeros(4)
    v = np.zeros(4)
    for tau in (1, 2):
        g = rng.normal(size=4)
        state, theta_new = gradbase.adam_step(state, theta, g, 0.05)
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
        gradbase.adam_step(gradbase.adam_init(2), np.zeros(3), np.zeros(3), 0.01)


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
        state = gradbase.adam_init(theta.size)
        for _ in range(5):
            _, grad, _ = gradbase.bptt_value_and_gradient(theta, small_spiral)
            state, theta = gradbase.adam_step(state, theta, grad, 0.01)
        return theta

    assert np.array_equal(run(), run())
