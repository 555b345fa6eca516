"""Tests for the experiment runner: configs, presets, logs, reports, tables,
and plot emission.  Budgets are kept tiny; convergence is acceptance-tested
separately."""

import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from ekinode import cli, gradbase, nnet, problems, runner
from ekinode.ode import IntegrationError

CSV_HEADER = ["epoch", "gamma", "J", "min_loss", "mean_loss", "train_mse", "test_mse"]

SYSID_PRESETS = [
    f"{problem}-{opt}"
    for problem in ("spiral", "pendulum")
    for opt in ("eki", "adam-0.01", "adam-0.1", "sgd-0.01", "sgd-0.1")
]
MUS = (0.001, 0.0025, 0.005, 0.0075, 0.01)
CONTROL_PRESETS = [f"control-{opt}-mu{mu:g}" for opt in ("eki", "adam") for mu in MUS]


def tiny(name, epochs, **overrides):
    config = dataclasses.replace(runner.preset(name), epochs=epochs, **overrides)
    return config


def read_log(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_validation_collects_all_errors():
    config = runner.ExperimentConfig(
        problem="lorenz",
        optimizer="newton",
        epochs=-1,
        eki=runner.EkiOptions(
            ensemble_size=1,
            schedule_period=0,
            gamma0=-1.0,
            expansions=((1, 0),),
            step_cap_rel=-1.0,
        ),
        gradient=runner.GradientOptions(eta=0.0),
        problem_options=runner.ProblemOptions(num_subsets=100),
        integrator=runner.IntegratorOptions(dt=-1.0),
    )
    with pytest.raises(runner.ConfigError) as info:
        config.validate()
    joined = "\n".join(info.value.messages)
    needles = (
        "problem", "optimizer", "epochs", "ensemble_size", "schedule_period", "eta",
        "gamma0", "expansions", "step_cap_rel", "integrator.dt",
    )
    for needle in needles:
        assert needle in joined
    assert len(info.value.messages) >= len(needles)
    # Each value that used to fail only at run time is a config error on its
    # own too; num_subsets=100 runs of 10 cannot fit the 500-point grid.
    for overrides in (
        {"problem_options": runner.ProblemOptions(num_subsets=100)},
        {"eki": runner.EkiOptions(gamma0=-1.0)},
        {"eki": runner.EkiOptions(expansions=((1, 0),))},
        {"eki": runner.EkiOptions(step_cap_rel=-1.0)},
        # Expansions fire at an integer epoch and add whole members.
        {"eki": runner.EkiOptions(expansions=((3.5, 20),))},
        {"eki": runner.EkiOptions(expansions=((3, 2.5),))},
        # So do covariance drops, each to a positive variance.
        {"eki": runner.EkiOptions(gamma_steps=((1.5, 0.1),))},
        {"eki": runner.EkiOptions(gamma_steps=((1, 0.0),))},
        # SeedSequence takes no negative seed.
        {"seed": -1},
        # No float field takes an infinity or NaN.
        {"eki": runner.EkiOptions(step_cap_rel=math.inf)},
        {"eki": runner.EkiOptions(gamma_steps=((1, math.nan),))},
        {"integrator": runner.IntegratorOptions(dt=math.nan)},
        # The test error needs at least one held-out grid point.
        {"problem_options": runner.ProblemOptions(grid_size=2, num_subsets=1, subset_length=2)},
        {"problem_options": runner.ProblemOptions(num_subsets=50)},
        {"eki": runner.EkiOptions(schedule_period=0)},
        {"problem_options": runner.ProblemOptions(subset_length=0)},
        {"problem_options": runner.ProblemOptions(num_subsets=0)},
        {"problem_options": runner.ProblemOptions(grid_size=1)},
        {"eki": runner.EkiOptions(alpha=0.0)},
        {"problem": "lorenz"},
        {"integrator": runner.IntegratorOptions(dt=0.0)},
        {"problem": "linear_control", "optimizer": "adam",
         "problem_options": runner.ProblemOptions(mu=-1e-3)},
        # EKI's energy channel has variance gamma_prime / mu.
        {"problem": "linear_control", "problem_options": runner.ProblemOptions(mu=0.0)},
    ):
        with pytest.raises(runner.ConfigError) as info:
            dataclasses.replace(runner.preset("spiral-eki"), **overrides).validate()
        assert len(info.value.messages) == 1, info.value.messages
    # One message per offending field, also where one record holds both.
    with pytest.raises(runner.ConfigError) as info:
        dataclasses.replace(runner.preset("spiral-eki"),
                            eki=runner.EkiOptions(gamma0=-1.0, alpha=-1.0)).validate()
    assert [m.split(":")[0] for m in info.value.messages] == ["eki.gamma0", "eki.alpha"]
    # The noise-variance rule is eki's, and its message names the value.
    with pytest.raises(runner.ConfigError) as info:
        dataclasses.replace(runner.preset("control-eki-mu0.001"),
                            eki=runner.EkiOptions(gamma=0.0, gamma_prime=-1e-3)).validate()
    assert info.value.messages == ["eki.gamma: noise variance 0.0 is not positive",
                                   "eki.gamma_prime: noise variance -0.001 is not positive"]
    # Values just inside each boundary are accepted.
    for overrides in (
        {"eki": runner.EkiOptions(gamma0=5e-324)},
        {"eki": runner.EkiOptions(alpha=5e-324)},
        {"eki": runner.EkiOptions(schedule_period=1)},
        {"eki": runner.EkiOptions(step_cap_rel=5e-324)},
        # Drops and expansions may start at epoch 0; an expansion of one member.
        {"eki": runner.EkiOptions(gamma=5e-324, gamma_prime=5e-324, gamma_steps=((0, 5e-324),),
                                  expansions=((0, 1),))},
        {"problem_options": runner.ProblemOptions(num_subsets=1, subset_length=1)},
        {"problem": "pendulum", "optimizer": "sgd"},
        {"integrator": runner.IntegratorOptions(dt=5e-324)},
        {"problem": "linear_control", "optimizer": "adam",
         "problem_options": runner.ProblemOptions(mu=0.0)},
        # mu applies to linear_control only.
        {"problem_options": runner.ProblemOptions(mu=-1.0)},
    ):
        dataclasses.replace(runner.preset("spiral-eki"), **overrides).validate()
    # Adam reads no schedule, and its gamma0 is checked all the same.
    with pytest.raises(runner.ConfigError, match="eki.gamma0"):
        dataclasses.replace(runner.preset("spiral-adam-0.01"), eki=runner.EkiOptions(gamma0=0.0)).validate()


def test_validation_builds_no_reference_grid(monkeypatch):
    # table validates every cell before any run, so validate never
    # integrates a problem's data.
    def refuse(*args, **kwargs):
        raise AssertionError("validate built a reference grid")

    monkeypatch.setattr(problems, "integrate", refuse)
    for config in runner.presets().values():
        config.validate()
    spiral = runner.preset("spiral-eki")
    dataclasses.replace(spiral, problem_options=runner.ProblemOptions(grid_size=101)).validate()
    for options in (
        runner.ProblemOptions(num_subsets=100),
        runner.ProblemOptions(num_subsets=50),
        runner.ProblemOptions(grid_size=2, num_subsets=1, subset_length=2),
        runner.ProblemOptions(grid_size=1),
    ):
        with pytest.raises(runner.ConfigError):
            dataclasses.replace(spiral, problem_options=options).validate()


def test_config_round_trip_and_file_round_trip(tmp_path):
    config = dataclasses.replace(runner.preset("control-eki-mu0.005"), seed=123)
    assert runner.config_from_dict(runner.config_to_dict(config)) == config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(runner.config_to_dict(config)))
    assert runner.config_from_dict(json.loads(path.read_text())) == config
    # JSON serialization must be lossless for floats.
    raw = json.loads(path.read_text())
    assert raw["eki"]["gamma_steps"] == [[3, 0.15]]


def test_config_from_dict_rejects_unknown_keys():
    data = runner.config_to_dict(runner.preset("spiral-eki"))
    data["eki"]["momentum"] = 0.9
    with pytest.raises(runner.ConfigError, match="momentum"):
        runner.config_from_dict(data)
    # The integrator block has only dt.
    data = runner.config_to_dict(runner.preset("spiral-eki"))
    data["integrator"]["rtol"] = 1e-6
    with pytest.raises(runner.ConfigError, match="rtol"):
        runner.config_from_dict(data)
    with pytest.raises(runner.ConfigError):
        runner.config_from_dict({"problem": "spiral", "epochs": 1, "turbo": True})
    with pytest.raises(runner.ConfigError, match="JSON object"):
        runner.config_from_dict([1])


def test_preset_listing_is_complete():
    names = set(runner.presets())
    assert set(SYSID_PRESETS) <= names
    assert set(CONTROL_PRESETS) <= names
    with pytest.raises(runner.ConfigError):
        runner.preset("spiral-bfgs")


def test_sysid_preset_values():
    spiral = runner.preset("spiral-eki")
    assert spiral.eki.ensemble_size == 22
    assert spiral.eki.gamma0 == 0.9
    assert spiral.eki.alpha == 0.35
    assert spiral.eki.schedule_period == 2
    assert spiral.epochs == 100
    pend = runner.preset("pendulum-eki")
    assert pend.eki.gamma0 == 2.0
    assert pend.eki.alpha == 0.4
    adam = runner.preset("spiral-adam-0.1")
    assert adam.optimizer == "adam"
    assert adam.gradient.eta == 0.1
    assert adam.epochs == 2500
    sgd = runner.preset("pendulum-sgd-0.01")
    assert sgd.optimizer == "sgd"
    assert sgd.gradient.eta == 0.01


def test_control_preset_values():
    for mu in MUS:
        eki_cfg = runner.preset(f"control-eki-mu{mu:g}")
        assert eki_cfg.problem == "linear_control"
        assert eki_cfg.problem_options.mu == mu
        assert eki_cfg.eki.ensemble_size == 2
        assert eki_cfg.eki.expansions == ((3, 20),)
        assert eki_cfg.eki.gamma == 0.3
        assert eki_cfg.eki.gamma_steps == ((3, 0.15),)
        assert eki_cfg.eki.gamma_prime == 0.01
        assert eki_cfg.epochs == 10
        adam_cfg = runner.preset(f"control-adam-mu{mu:g}")
        assert adam_cfg.gradient.eta == 0.175
        assert adam_cfg.epochs == 150


def test_table_one_reproduction_preset_columns():
    # Five optimizer columns per benchmark: EKI, SGD x2, Adam x2.
    for problem in ("spiral", "pendulum"):
        columns = [
            f"{problem}-eki",
            f"{problem}-sgd-0.01",
            f"{problem}-sgd-0.1",
            f"{problem}-adam-0.01",
            f"{problem}-adam-0.1",
        ]
        assert [name in runner.presets() for name in columns] == [True] * 5


def test_zero_epochs_echoes_initial_state(tmp_path, monkeypatch):
    config = tiny("spiral-adam-0.01", 0)
    # runtime_seconds covers the whole run, the problem build included.
    build = runner.build_problem
    monkeypatch.setattr(runner, "build_problem", lambda c: (time.sleep(0.1), build(c))[1])
    report = runner.run(config, out_dir=str(tmp_path / "r"))
    monkeypatch.undo()
    assert report.runtime_seconds >= 0.1
    header, rows = read_log(report.log_path)
    assert header == CSV_HEADER
    assert len(rows) == 1
    # theta is the untouched draw from the init stream.
    _, init_ss = np.random.SeedSequence(config.seed).spawn(2)
    prob = runner.build_problem(config)
    expected = nnet.mlp_init(prob.net, np.random.default_rng(init_ss))
    assert np.array_equal(report.theta, expected)
    train, test = runner.reevaluate(config, report.theta)
    assert report.final_train_error == train
    assert report.final_test_error == test


def test_gradient_log_format(tmp_path):
    config = tiny("spiral-adam-0.01", 3)
    report = runner.run(config, out_dir=str(tmp_path / "r"))
    header, rows = read_log(report.log_path)
    assert header == CSV_HEADER
    assert len(rows) == 4
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert all(r[1] == "" for r in rows)  # gamma blank for gradient runs
    assert all(r[2] == "1" for r in rows)
    # Loss values round-trip through repr exactly.  The BPTT loss is the
    # training MSE, read from the same pass, so all three columns agree.
    assert float(rows[-1][5]) == report.final_train_error
    assert all(r[3] == r[4] == r[5] for r in rows)


def test_eki_log_tracks_schedule_expansion_and_gamma_steps(tmp_path):
    config = tiny("control-eki-mu0.001", 4)
    report = runner.run(config, out_dir=str(tmp_path / "r"))
    _, rows = read_log(report.log_path)
    assert len(rows) == 5
    assert [int(r[2]) for r in rows] == [2, 2, 2, 22, 22]
    assert [float(r[1]) for r in rows] == [0.3, 0.3, 0.3, 0.15, 0.15]
    assert ["expansion", 3, 20] in [list(e) for e in report.events]


def test_two_expansions_at_one_epoch_both_apply(tmp_path):
    base = runner.preset("control-eki-mu0.001")
    opts = dataclasses.replace(base.eki, expansions=((3, 5), (3, 7)))
    report = runner.run(tiny("control-eki-mu0.001", 4, eki=opts), out_dir=str(tmp_path / "r"))
    _, rows = read_log(report.log_path)
    assert [int(r[2]) for r in rows] == [2, 2, 2, 14, 14]
    expansions = [list(e) for e in report.events if e[0] == "expansion"]
    assert expansions == [["expansion", 3, 5], ["expansion", 3, 7]]


def test_stall_holds_the_ensemble(tmp_path, monkeypatch):
    # No candidate can beat 1e-12 times the current best loss and no
    # backtrack is allowed, so every epoch stalls and the ensemble stays put.
    monkeypatch.setattr(runner, "ACCEPT_FACTOR", 1e-12)
    monkeypatch.setattr(runner, "MAX_BACKTRACKS", 0)
    runner.run(tiny("spiral-eki", 2), out_dir=str(tmp_path / "r"))
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["events"] == [["stall", 0], ["stall", 1]]
    _, rows = read_log(str(tmp_path / "r" / "log.csv"))
    assert len(rows) == 3
    assert all(row[3:] == rows[0][3:] for row in rows)


def test_events_are_logged_in_epoch_order(tmp_path, monkeypatch):
    # Expansions, stalls and skipped updates go into one log as they happen:
    # the expansion at epoch 3 comes after the stalls before it.
    monkeypatch.setattr(runner, "ACCEPT_FACTOR", 1e-12)
    monkeypatch.setattr(runner, "MAX_BACKTRACKS", 1)
    report = runner.run(tiny("control-eki-mu0.001", 5), out_dir=str(tmp_path / "r"))
    assert [list(e) for e in report.events] == [
        ["stall", 0], ["stall", 1], ["stall", 2], ["expansion", 3, 20], ["stall", 3], ["stall", 4]
    ]


def test_a_vanishing_step_stalls_without_more_backtracks(tmp_path, monkeypatch):
    # From h = 1e-16 one halving is already below the smallest usable step,
    # so each epoch tries one candidate and stalls, whatever MAX_BACKTRACKS
    # allows: the first row's evaluation and two candidates in all.
    real, calls = problems.sysid_forward_map, []

    def counted(members, prob):
        calls.append(None)
        return real(members, prob)

    monkeypatch.setattr(problems, "sysid_forward_map", counted)
    monkeypatch.setattr(runner, "STEP_SIZE", 1e-16)
    monkeypatch.setattr(runner, "ACCEPT_FACTOR", 0.5)
    monkeypatch.setattr(runner, "MAX_BACKTRACKS", 1000)
    report = runner.run(tiny("spiral-eki", 2), out_dir=str(tmp_path / "r"))
    assert [list(e) for e in report.events] == [["stall", 0], ["stall", 1]]
    assert len(calls) == 3


def test_an_epoch_stalls_after_thirty_backtracks(tmp_path, monkeypatch):
    # No candidate beats 1e-12 times the best loss, so the epoch tries the
    # first step and its 30 halvings, then stalls: with the first row's
    # evaluation, 32 forward maps.  Every other step-control constant keeps
    # its default.
    real, calls = problems.sysid_forward_map, []

    def counted(members, prob):
        calls.append(None)
        return real(members, prob)

    monkeypatch.setattr(problems, "sysid_forward_map", counted)
    monkeypatch.setattr(runner, "ACCEPT_FACTOR", 1e-12)
    report = runner.run(tiny("spiral-eki", 1), out_dir=str(tmp_path / "r"))
    assert [list(e) for e in report.events] == [["stall", 0]]
    assert len(calls) == 32


@pytest.mark.parametrize("name,epochs", [("spiral-eki", 3), ("control-eki-mu0.001", 4)])
def test_each_evaluation_is_scored_once(tmp_path, monkeypatch, name, epochs):
    # row() scores the ensemble it logs, once, at the scale noise() gives for
    # its epoch; advance() steps from that score and scores each candidate
    # it evaluates, once, asking for no scale of its own.
    config = tiny(name, epochs)
    driver = runner._ControlDriver if config.problem == "linear_control" else runner._SysIdDriver
    calls = []  # per row()/advance() call: [method, forward, losses, noise]

    def spy(method, column=None):
        real = getattr(driver, method)

        def wrapped(self, *args):
            if column is None:
                calls.append([method, 0, 0, 0])
            else:
                calls[-1][column] += 1
            return real(self, *args)

        monkeypatch.setattr(driver, method, wrapped)

    for method, column in (("row", None), ("advance", None), ("forward", 1), ("losses", 2), ("noise", 3)):
        spy(method, column)
    runner.run(config, out_dir=str(tmp_path / "r"))
    rows = [c[1:] for c in calls if c[0] == "row"]
    steps = [c[1:] for c in calls if c[0] == "advance"]
    expanding = {ep for ep, _ in config.eki.expansions}
    assert rows == [[int(e == 0 or e in expanding), 1, 1] for e in range(epochs + 1)]
    assert len(steps) == epochs
    assert all(losses == forward and noise == 0 for forward, losses, noise in steps)
    assert all(forward >= 1 for forward, _, _ in steps)


def test_sysid_gamma_schedule_in_log(tmp_path):
    config = tiny("spiral-eki", 3)
    report = runner.run(config, out_dir=str(tmp_path / "r"))
    _, rows = read_log(report.log_path)
    gammas = [float(r[1]) for r in rows]
    assert gammas[0] == 0.9
    assert gammas[1] == 0.9
    assert abs(gammas[2] - 0.9 * np.exp(-0.7)) < 1e-15
    assert gammas[3] == gammas[2]
    assert [int(r[2]) for r in rows] == [22] * 4


def test_runs_are_bitwise_reproducible(tmp_path):
    config = tiny("control-eki-mu0.0025", 3)
    a = runner.run(config, out_dir=str(tmp_path / "a"))
    b = runner.run(config, out_dir=str(tmp_path / "b"))
    assert open(a.log_path, "rb").read() == open(b.log_path, "rb").read()
    assert np.array_equal(a.theta, b.theta)
    ra = json.loads(open(os.path.join(tmp_path, "a", "report.json")).read())
    rb = json.loads(open(os.path.join(tmp_path, "b", "report.json")).read())
    ra.pop("runtime_seconds")
    rb.pop("runtime_seconds")
    ra.pop("log_path")
    rb.pop("log_path")
    assert ra == rb


def test_report_integrity(tmp_path):
    for name, epochs in (("spiral-eki", 2), ("control-eki-mu0.001", 3), ("pendulum-adam-0.1", 3)):
        report = runner.run(tiny(name, epochs), out_dir=str(tmp_path / name))
        loaded = runner.load_report(str(tmp_path / name))
        assert np.array_equal(loaded.theta, report.theta)
        # The reported errors are the reloaded parameters' own, bitwise.
        assert runner.reevaluate(loaded.config, loaded.theta) == (
            loaded.final_train_error, loaded.final_test_error), name


def test_load_report_round_trips_every_field(tmp_path):
    runner.run(tiny("control-eki-mu0.001", 1), out_dir=str(tmp_path / "r"))
    path = tmp_path / "r" / "report.json"
    raw = json.loads(path.read_text())
    assert list(raw) == [f.name for f in dataclasses.fields(runner.RunReport)]
    assert json.loads(json.dumps(runner.load_report(str(tmp_path / "r")).to_dict())) == raw
    # Reports written before the error field existed still load.
    del raw["error"]
    path.write_text(json.dumps(raw))
    assert runner.load_report(str(tmp_path / "r")).error is None


def assert_rows_reevaluate_bitwise(config, out_dir, monkeypatch):
    # Every logged row's (train, test) pair comes back exactly from its own
    # parameter vector evaluated alone, and the report's from its theta.
    # The vectors are those the run's one deferred metrics pass received.
    seen = []
    real = runner._errors

    def spy(thetas, prob, train):
        seen.append(thetas.copy())
        return real(thetas, prob, train)

    monkeypatch.setattr(runner, "_errors", spy)
    report = runner.run(config, out_dir=out_dir)
    _, rows = read_log(report.log_path)
    assert len(seen) == 1 and len(seen[0]) == len(rows)
    prob = runner.build_problem(config)
    for row, theta in zip(rows, seen[0]):
        assert real(theta[None], prob, [None]) == ([float(row[5])], [float(row[6])])
    assert np.array_equal(seen[0][-1], report.theta)
    loaded = runner.load_report(out_dir)
    train, test = runner.reevaluate(loaded.config, loaded.theta)
    assert train == report.final_train_error
    assert test == report.final_test_error


@pytest.mark.parametrize("seed", range(5))
def test_reevaluate_reproduces_eki_errors_bitwise(tmp_path, monkeypatch, seed):
    # The driver's training error and problems.mse are one reduction over
    # one forward map, whether the member is evaluated in its ensemble of 22
    # or alone; the test column is integrated for all rows in one batched
    # pass, and each row's error is the one it gets alone.
    assert_rows_reevaluate_bitwise(tiny("spiral-eki", 15, seed=seed), str(tmp_path / "r"),
                                   monkeypatch)


@pytest.mark.parametrize("seed", range(2))
def test_reevaluate_reproduces_gradient_errors_bitwise(tmp_path, monkeypatch, seed):
    # The train column is the BPTT loss, bitwise problems.mse.
    assert_rows_reevaluate_bitwise(tiny("spiral-adam-0.01", 20, seed=seed), str(tmp_path / "r"),
                                   monkeypatch)


def test_seed_changes_the_run(tmp_path):
    base = tiny("control-eki-mu0.001", 2)
    a = runner.run(base, out_dir=str(tmp_path / "a"))
    b = runner.run(dataclasses.replace(base, seed=1), out_dir=str(tmp_path / "b"))
    assert not np.array_equal(a.theta, b.theta)


def test_table_single_config_matches_report(tmp_path):
    config = tiny("control-eki-mu0.001", 2)
    summary = runner.table([{"name": "cell", **runner.config_to_dict(config)}], 1,
                           str(tmp_path / "t"))
    assert len(summary) == 1
    cell = summary[0]
    report = runner.load_report(str(tmp_path / "t" / "cell-rep0"))
    assert cell["median_train"] == report.final_train_error
    assert cell["min_train"] == report.final_train_error
    assert cell["median_test"] == report.final_test_error
    assert cell["failures"] == 0
    assert os.path.exists(tmp_path / "t" / "table.csv")
    text = (tmp_path / "t" / "table.txt").read_text()
    assert "median_train" in text


def test_table_medians_match_manual_sort(tmp_path):
    config = tiny("control-eki-mu0.001", 2)
    summary = runner.table([config], 3, str(tmp_path / "t"))
    cell = summary[0]
    trains = []
    tests = []
    for r in range(3):
        rep = runner.load_report(str(tmp_path / "t" / f"config0-rep{r}"))
        trains.append(rep.final_train_error)
        tests.append(rep.final_test_error)
    assert cell["median_train"] == sorted(trains)[1]
    assert cell["median_test"] == sorted(tests)[1]
    assert cell["min_train"] == min(trains)
    assert cell["replicates"] == 3


def test_table_takes_preset_names_and_rejects_other_cells(tmp_path):
    # A preset name is a cell of its own name, run at the preset's length.
    summary = runner.table(["control-eki-mu0.001"], 1, str(tmp_path / "t"))
    report = runner.load_report(str(tmp_path / "t" / "control-eki-mu0.001-rep0"))
    assert report.config == runner.preset("control-eki-mu0.001")
    assert summary[0]["name"] == "control-eki-mu0.001"
    assert summary[0]["median_train"] == report.final_train_error
    for configs, replicates, message in (
        ([3], 1, "configs[0]: expected preset name or config object"),
        (["control-eki-mu0.001"], 0, "replicates: must be >= 1"),
    ):
        with pytest.raises(runner.ConfigError) as info:
            runner.table(configs, replicates, str(tmp_path / "u"))
        assert info.value.messages == [message]
    assert not (tmp_path / "u").exists()


def test_table_counts_failed_replicates(tmp_path):
    bad = dataclasses.replace(
        tiny("spiral-sgd-0.1", 30),
        gradient=runner.GradientOptions(eta=1e8),
    )
    summary = runner.table([bad], 2, str(tmp_path / "t"))
    assert summary[0]["failures"] == 2
    assert np.isnan(summary[0]["median_train"])


def test_plot_script_sysid_manifest(tmp_path):
    report = runner.run(tiny("spiral-eki", 2), out_dir=str(tmp_path / "run"))
    files = runner.plot_script([str(tmp_path / "run")], str(tmp_path / "plots"))
    assert set(files) == {"trajectory.csv", "observations.csv", "loss_curve.csv", "plot.py"}
    # One directory may be given as a string.
    assert runner.plot_script(str(tmp_path / "run"), str(tmp_path / "again")) == files
    for name in files:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "plots" / name).read_bytes()
    with open(tmp_path / "plots" / "loss_curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "min_loss", "train_mse", "test_mse"]
    assert len(rows) - 1 == report.epochs_run + 1
    with open(tmp_path / "plots" / "observations.csv", newline="") as fh:
        obs_rows = list(csv.reader(fh))
    assert len(obs_rows) - 1 == 100


def test_plot_of_a_diverged_sysid_run_writes_nan_beside_the_reference(tmp_path):
    # At eta = 1e8 plain SGD diverges within an epoch: the final parameters'
    # field fails on the reference grid, so every learned state reads NaN,
    # t = 0 included, and the reference columns are the grid itself.
    config = tiny("spiral-sgd-0.1", 3, gradient=runner.GradientOptions(eta=1e8))
    report = runner.run(config, out_dir=str(tmp_path / "run"))
    assert report.error is None and report.final_test_error == 1e12
    runner.plot_script([str(tmp_path / "run")], str(tmp_path / "plots"))
    header, rows = read_log(tmp_path / "plots" / "trajectory.csv")
    assert header == ["t", "x1_learned", "x2_learned", "x1_reference", "x2_reference"]
    obs = runner.build_problem(config).observations
    assert [float(r[0]) for r in rows] == obs.grid_times.tolist()
    assert all(r[1:3] == ["nan", "nan"] for r in rows)
    assert [[float(v) for v in r[3:]] for r in rows] == obs.grid_states.tolist()


def test_plot_script_control_mu_sweep(tmp_path):
    dirs = []
    for mu in MUS:
        out = str(tmp_path / f"run-mu{mu:g}")
        runner.run(tiny(f"control-eki-mu{mu:g}", 1), out_dir=out)
        dirs.append(out)
    files = runner.plot_script(dirs, str(tmp_path / "plots"))
    for mu in MUS:
        assert f"trajectory_mu{mu:g}.csv" in files
    assert "plot.py" in files
    header = open(tmp_path / "plots" / "trajectory_mu0.001.csv").readline().strip()
    assert header == "t,u_learned,u_optimal,x_learned,x_optimal"


def test_plot_reads_the_log_beside_the_report(tmp_path):
    # A run directory plots the same after a move: the log is read from the
    # report's directory, not from the path recorded at run time.
    runner.run(tiny("control-eki-mu0.001", 2), out_dir=str(tmp_path / "a"))
    runner.plot_script([str(tmp_path / "a")], str(tmp_path / "pa"))
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    shutil.rmtree(tmp_path / "a")
    runner.plot_script([str(tmp_path / "b")], str(tmp_path / "pb"))
    curve = "loss_curve_mu0.001.csv"
    assert (tmp_path / "pb" / curve).read_bytes() == (tmp_path / "pa" / curve).read_bytes()


# A stand-in for matplotlib, which the package does not depend on: each
# figure records its axes' and its own method calls, written out at exit.
STUB_PYPLOT = '''\
import atexit
import json
import os

figures = []


class _Recorder:
    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append([name, list(args), kwargs])


def subplots():
    figures.append([])
    return _Recorder(figures[-1]), _Recorder(figures[-1])


def close(fig):
    pass


atexit.register(lambda: json.dump(figures, open(os.environ["PLOT_CALLS"], "w")))
'''


def test_emitted_plot_script_draws_each_trajectory_with_its_own_observations(tmp_path):
    # Two spiral reports and one control report: the sysid files take the
    # suffixes _0 and _1, and each trajectory figure plots the observations
    # of its own suffix; the control figure plots none.  Every trajectory
    # and loss-curve CSV gives one PNG (observations are drawn into their
    # trajectory's figure).  The script runs in a child under the stub.
    dirs = [str(tmp_path / name) for name in ("s0", "s1", "c")]
    for seed, out in enumerate(dirs[:2]):
        runner.run(tiny("spiral-eki", 1, seed=seed), out_dir=out)
    runner.run(tiny("control-eki-mu0.001", 1), out_dir=dirs[2])
    plots = tmp_path / "plots"
    written = runner.plot_script(dirs, str(plots))
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("def use(backend):\n    pass\n")
    (stub / "pyplot.py").write_text(STUB_PYPLOT)
    env = {**os.environ, "PYTHONPATH": str(stub.parent), "PLOT_CALLS": str(tmp_path / "calls.json")}
    subprocess.run([sys.executable, str(plots / "plot.py")], env=env, check=True, capture_output=True)
    figures = {}
    for calls in json.loads((tmp_path / "calls.json").read_text()):
        (path,) = [args[0] for name, args, _ in calls if name == "savefig"]
        figures[os.path.basename(path)] = [args for name, args, _ in calls if name == "plot" and args[2] == "r."]
    csvs = [name for name in written if name.endswith(".csv") and not name.startswith("observations")]
    assert len(csvs) == 6 and sorted(figures) == sorted(name.replace(".csv", ".png") for name in csvs)
    times = []
    for i in range(2):
        _, rows = read_log(plots / f"observations_{i}.csv")
        columns = [[float(v) for v in column] for column in zip(*rows)]
        assert figures[f"trajectory_{i}.png"] == [[columns[0], series, "r."] for series in columns[1:]]
        times.append(columns[0])
    # The two seeds observe different runs, so no figure could pass with the other's.
    assert times[0] != times[1]
    assert figures["trajectory_mu0.001.png"] == []


def test_every_artefact_goes_through_one_writer(tmp_path, monkeypatch):
    # table() and plot_script() write each of their files, CSVs included,
    # through runner._replace_file, as runner.run writes log.csv and
    # report.json: every file under their output directories passed it.
    real, replaced = runner._replace_file, set()

    def recorded(path, text):
        replaced.add(os.path.abspath(path))
        real(path, text)

    monkeypatch.setattr(runner, "_replace_file", recorded)
    runner.table([tiny("control-eki-mu0.001", 2), tiny("spiral-eki", 1)], 1, str(tmp_path / "t"))
    runs = [str(tmp_path / "t" / f"config{i}-rep0") for i in range(2)]
    written = runner.plot_script(runs, str(tmp_path / "p"))
    on_disk = {os.path.join(d, name) for d, _, names in os.walk(tmp_path) for name in names}
    assert {"table.csv", "table.txt"} <= set(os.listdir(tmp_path / "t"))
    assert sorted(os.listdir(tmp_path / "p")) == sorted(written)
    assert on_disk == replaced


def test_plot_script_missing_report_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        runner.plot_script([str(tmp_path / "nope")], str(tmp_path / "plots"))


def test_integrator_options_replace_the_problem_default(tmp_path):
    # Only the set options change: the control problem keeps its divergence
    # limit, and dt = T/100 is its default step, so the log is the preset's
    # byte for byte.
    only_dt = runner.IntegratorOptions(dt=0.01)
    preset = runner.preset("control-eki-mu0.001")
    override = dataclasses.replace(preset, integrator=only_dt)
    assert runner.build_problem(override).integrator == runner.build_problem(preset).integrator
    runner.run(preset, out_dir=str(tmp_path / "preset"))
    runner.run(override, out_dir=str(tmp_path / "dt"))
    assert (tmp_path / "dt" / "log.csv").read_bytes() == (tmp_path / "preset" / "log.csv").read_bytes()
    # The gradient baseline unfolds the same integrator, and finishes.
    path = tmp_path / "adam.json"
    path.write_text(json.dumps(runner.config_to_dict(tiny("control-adam-mu0.001", 3, integrator=only_dt))))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "adam")]) == 0
    assert runner.load_report(str(tmp_path / "adam")).error is None
    # A system-identification problem takes a dt the same way.
    spiral = runner.preset("spiral-eki")
    fine = dataclasses.replace(spiral, integrator=runner.IntegratorOptions(dt=0.04))
    default = runner.build_problem(spiral).integrator
    assert runner.build_problem(fine).integrator == dataclasses.replace(default, dt=0.04)


def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(runner.ConfigError):
        runner.run(runner.ExperimentConfig(problem="nope", epochs=1), out_dir=str(tmp_path / "r"))


def test_gradient_failure_is_recorded_not_raised(tmp_path):
    # A diverging sysid run and a diverging control run.  The report's theta
    # is that of the last logged row, so it reproduces that row's errors.
    configs = [
        tiny("spiral-sgd-0.1", 30, gradient=runner.GradientOptions(eta=1e8)),
        tiny("control-adam-mu0.001", 40, optimizer="sgd",
             gradient=runner.GradientOptions(eta=30.0)),
    ]
    for i, config in enumerate(configs):
        out = str(tmp_path / f"r{i}")
        report = runner.run(config, out_dir=out)
        assert report.error is not None
        assert "non-finite" in report.error
        loaded = runner.load_report(out)
        assert loaded.error == report.error
        _, rows = read_log(report.log_path)
        assert float(rows[-1][5]) == loaded.final_train_error
        assert runner.reevaluate(loaded.config, loaded.theta) == (
            loaded.final_train_error, loaded.final_test_error
        )


def test_non_finite_gradient_is_recorded_not_raised(tmp_path, monkeypatch, capsys):
    # A finite loss with an infinite gradient: the row is logged, the step
    # is refused, and the run ends with a partial report (exit 2).
    def bptt(theta, prob):
        return 1.0, np.full(theta.size, np.inf), False

    monkeypatch.setattr(gradbase, "bptt_value_and_gradient", bptt)
    config = tiny("spiral-adam-0.01", 3)
    report = runner.run(config, out_dir=str(tmp_path / "r"))
    assert report.error == "non-finite gradient at epoch 0"
    assert report.epochs_run == 0
    _, rows = read_log(report.log_path)
    assert len(rows) == 1 and float(rows[0][5]) == 1.0
    loaded = runner.load_report(str(tmp_path / "r"))
    assert loaded.error == report.error and np.array_equal(loaded.theta, report.theta)

    path = tmp_path / "c.json"
    path.write_text(json.dumps(runner.config_to_dict(config)))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "run failed: non-finite gradient at epoch 0" in capsys.readouterr().err
    assert runner.load_report(str(tmp_path / "x")).error == report.error


def test_eki_failure_is_recorded_not_raised(tmp_path, monkeypatch, capsys):
    config = tiny("control-eki-mu0.001", 4)
    clean = runner.run(config, out_dir=str(tmp_path / "clean"))
    _, clean_rows = read_log(clean.log_path)

    # Every third forward map raises.  Row 0 evaluates the ensemble, and
    # epochs 0 and 1 each try one step, so the failure hits epoch 1's step.
    real = problems.control_forward_map
    calls = []

    def flaky(theta, prob):
        calls.append(None)
        if len(calls) % 3 == 0:
            raise IntegrationError("injected failure")
        return real(theta, prob)

    monkeypatch.setattr(problems, "control_forward_map", flaky)
    report = runner.run(config, out_dir=str(tmp_path / "r"))
    assert report.error == "injected failure"
    assert report.epochs_run == 1
    loaded = runner.load_report(str(tmp_path / "r"))
    assert loaded.error == report.error
    _, rows = read_log(str(tmp_path / "r" / "log.csv"))
    assert rows == clean_rows[:2]
    assert runner.reevaluate(loaded.config, loaded.theta) == (
        loaded.final_train_error, loaded.final_test_error
    )

    path = tmp_path / "c.json"
    path.write_text(json.dumps(runner.config_to_dict(config)))
    calls.clear()
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "run failed: injected failure" in capsys.readouterr().err
    assert (tmp_path / "x" / "report.json").exists()
