"""End-to-end tests of the command-line interface, invoked in-process."""

import dataclasses
import json
import math
import os
import re
import typing
import warnings

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from ekinode import cli, eki, runner


def write_config(path, name, epochs, **overrides):
    config = dataclasses.replace(runner.preset(name), epochs=epochs, **overrides)
    with open(path, "w") as fh:
        fh.write(json.dumps(runner.config_to_dict(config)))
    return config


def test_presets_lists_builtins(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "spiral-eki" in out
    assert "control-eki-mu0.0075" in out
    assert len(out) >= 20
    assert out == sorted(out)


def test_run_with_config_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_config(path, "control-eki-mu0.001", 2)
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "log.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()
    assert "train=" in capsys.readouterr().out


def test_run_default_out_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # A config file gets the generic default out dir runs/run-seed<N>.
    path = tmp_path / "c.json"
    write_config(path, "control-eki-mu0.001", 1)
    assert cli.main(["run", "--config", str(path), "--seed", "5"]) == 0
    assert (tmp_path / "runs" / "run-seed5" / "report.json").exists()
    report = runner.load_report(str(tmp_path / "runs" / "run-seed5"))
    assert report.config.seed == 5


def test_cli_seed_beats_environment(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    write_config(path, "control-eki-mu0.001", 1)
    monkeypatch.setenv(cli.SEED_ENV, "7")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert runner.load_report(str(tmp_path / "a")).config.seed == 7
    assert cli.main(
        ["run", "--config", str(path), "--seed", "9", "--out", str(tmp_path / "b")]
    ) == 0
    assert runner.load_report(str(tmp_path / "b")).config.seed == 9


def test_bad_environment_seed_is_config_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c.json"
    write_config(path, "control-eki-mu0.001", 1)
    monkeypatch.setenv(cli.SEED_ENV, "not-a-number")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err


def test_negative_seed_is_config_error(tmp_path, monkeypatch, capsys):
    # SeedSequence takes no negative seed, whichever route sets it.
    path = tmp_path / "c.json"
    write_config(path, "control-eki-mu0.001", 1)
    assert cli.main(["run", "--config", str(path), "--seed", "-1", "--out", str(tmp_path / "a")]) == 1
    monkeypatch.setenv(cli.SEED_ENV, "-1")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err.count("config error: seed: must be nonnegative") == 2
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_unknown_preset_is_config_error(capsys):
    assert cli.main(["run", "--config", "spiral-bfgs"]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "table"])
def test_invalid_json_names_the_file(tmp_path, capsys, command):
    path = tmp_path / "broken.json"
    path.write_text('{"problem": ')
    flag = "--config" if command == "run" else "--configs"
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command == "table":
        argv += ["--replicates", "1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: invalid JSON in {str(path)!r}: Expecting value")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "table"])
@pytest.mark.parametrize("unreadable", ["directory", "undecodable"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, command, unreadable):
    # A directory, or a file whose bytes are not text, as the config file.
    path = tmp_path / "configs"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'["spiral-eki\xff"]')
    flag = "--config" if command == "run" else "--configs"
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command == "table":
        argv += ["--replicates", "1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: cannot read {str(path)!r}: ")
    assert "runtime failure" not in err and "no report" not in err
    assert not (tmp_path / "out").exists()


def test_invalid_config_reports_each_message(tmp_path, capsys):
    path = tmp_path / "c.json"
    data = runner.config_to_dict(runner.preset("spiral-eki"))
    data["epochs"] = 5
    data["optimizer"] = "newton"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "optimizer" in capsys.readouterr().err
    # Values of the wrong type are config errors too, each named by field,
    # and no run starts.
    for key, value, field in (
        ("eki", {"expansions": [3]}, "eki.expansions"),
        ("eki", {"step_cap_rel": "big"}, "eki.step_cap_rel"),
        ("epochs", "2", "epochs"),
        ("epochs", None, "epochs"),
        ("eki", {"ensemble_size": 2.5}, "eki.ensemble_size"),
        ("eki", [1], "eki"),
        ("eki", {"expansions": [[3.5, 20]]}, "eki.expansions"),
        ("eki", {"expansions": [[3, 2.5]]}, "eki.expansions"),
        ("eki", {"gamma_steps": [[1.5, 0.1]]}, "eki.gamma_steps"),
        # gamma_steps apply in epoch order, so their epochs must increase.
        ("eki", {"gamma_steps": [[5, 0.1], [3, 0.15]]}, "eki.gamma_steps"),
        ("eki", {"gamma_steps": [[3, 0.1], [3, 0.15]]}, "eki.gamma_steps"),
        ("seed", -1, "seed"),
        # JSON Infinity and NaN parse, and no float field takes them.
        ("eki", {"step_cap_rel": math.inf}, "eki.step_cap_rel"),
        ("eki", {"gamma0": math.nan}, "eki.gamma0"),
        # Every grid point observed leaves no test error.
        ("problem_options", {"grid_size": 2, "num_subsets": 1, "subset_length": 2},
         "problem_options.num_subsets"),
        # The integrator block has only dt.
        ("integrator", {"rtol": 1e-6}, "IntegratorOptions"),
    ):
        data = runner.config_to_dict(runner.preset("spiral-eki"))
        data["epochs"] = 1
        data[key] = {**data[key], **value} if isinstance(value, dict) else value
        path.write_text(json.dumps(data))
        out = tmp_path / f"bad-{field}"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (out / "report.json").exists()


# Keys an earlier config format had, at the values it wrote, by block;
# None is the top level.
REMOVED_KEYS = {
    "eki": {"expansion_mode": "fresh", "step_size": 1.0, "accept_factor": 10.0, "max_backtracks": 30},
    "problem_options": {"assembly": "shooting"},
    "integrator": {"method": None},
    None: {"out_dir": None, "wall_clock_budget_seconds": None},
}
REMOVED_KEY_ERRORS = [
    "config error: EkiOptions: unknown keys ['accept_factor', 'expansion_mode', 'max_backtracks', 'step_size']",
    "config error: ProblemOptions: unknown keys ['assembly']",
    "config error: IntegratorOptions: unknown keys ['method']",
    "config error: ExperimentConfig: unknown keys ['out_dir', 'wall_clock_budget_seconds']",
]


def test_removed_keys_are_config_errors(tmp_path, capsys):
    # A config file or a report in the earlier format is refused, not read
    # with its removed keys ignored: exit 1, each key named under its block.
    def with_removed_keys(config):
        for block, keys in REMOVED_KEYS.items():
            (config if block is None else config[block]).update(keys)
        return config

    path, out = tmp_path / "c.json", tmp_path / "x"
    path.write_text(json.dumps(with_removed_keys(runner.config_to_dict(runner.preset("spiral-eki")))))
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == REMOVED_KEY_ERRORS
    assert not out.exists()
    run_dir = tmp_path / "r"
    runner.run(dataclasses.replace(runner.preset("spiral-eki"), epochs=1), out_dir=str(run_dir))
    raw = json.loads((run_dir / "report.json").read_text())
    with_removed_keys(raw["config"])
    (run_dir / "report.json").write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["plot", "--report", str(run_dir)]) == 1
    prefix = f"config error: {run_dir / 'report.json'}: "
    assert capsys.readouterr().err.splitlines() == [
        prefix + error.removeprefix("config error: ") for error in REMOVED_KEY_ERRORS]
    assert not (run_dir / "plots").exists()


def test_runtime_failure_exits_two(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_config(path, "spiral-sgd-0.1", 30, gradient=runner.GradientOptions(eta=1e8))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "run failed" in err
    assert "partial report" in err
    assert (tmp_path / "x" / "report.json").exists()


def test_unequal_substep_counts_train(tmp_path):
    # At this dt the ten shooting rows' spans differ in the last bits, and so
    # do the substep counts they need: each interval takes the most, the
    # forward map and BPTT alike, and the run completes.
    path = tmp_path / "c.json"
    data = runner.config_to_dict(runner.preset("spiral-adam-0.01"))
    data.update(epochs=2, seed=0)
    data["integrator"]["dt"] = 0.0801603205611161
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 0
    report = runner.load_report(str(tmp_path / "x"))
    assert report.error is None and report.epochs_run == 2
    assert runner.reevaluate(report.config, report.theta)[0] == report.final_train_error


def test_covariance_underflow_is_runtime_failure(tmp_path, capsys):
    # gamma0 * exp(-alpha * epoch) underflows to 0.0 at epoch 2: the run
    # stops there with a partial report whose theta gives its last row.
    eki_opts = dataclasses.replace(runner.preset("spiral-eki").eki, alpha=1000.0)
    path = tmp_path / "c.json"
    write_config(path, "spiral-eki", 3, eki=eki_opts)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "run failed: noise variance 0.0 is not positive at epoch 2" in capsys.readouterr().err
    report = runner.load_report(str(tmp_path / "x"))
    assert report.epochs_run == 2
    with open(tmp_path / "x" / "log.csv") as fh:
        last = fh.read().splitlines()[-1].split(",")
    assert last[:2] == ["2", "0.0"]
    assert runner.reevaluate(report.config, report.theta) == (
        float(last[5]), float(last[6])
    ) == (report.final_train_error, report.final_test_error)


def test_energy_variance_underflow_names_the_zero_variance(tmp_path, capsys):
    # gamma_prime / mu = 5e-324 / 2 rounds to 0.0: a valid config whose
    # energy channel has no variance.  The failure names that variance, not
    # the positive scale gamma beside it.
    config = write_config(
        tmp_path / "c.json", "control-eki-mu0.001", 3,
        eki=dataclasses.replace(runner.preset("control-eki-mu0.001").eki, gamma_prime=5e-324),
        problem_options=runner.ProblemOptions(mu=2.0),
    )
    config.validate()
    assert cli.main(["run", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "x")]) == 2
    assert "run failed: noise variance 0.0 is not positive at epoch 0" in capsys.readouterr().err
    report = runner.load_report(str(tmp_path / "x"))
    assert report.epochs_run == 0 and report.error == "noise variance 0.0 is not positive at epoch 0"


def test_epochs_without_two_valid_members_are_logged(tmp_path):
    # dt=1e-12 puts every member past max_steps: no epoch can update, the
    # run still completes, and each epoch says why it moved nobody.  Every
    # member scores the penalty, in either problem family's driver.
    for problem in ("spiral", "linear_control"):
        path, out = tmp_path / f"{problem}.json", tmp_path / problem
        path.write_text(json.dumps({"problem": problem, "epochs": 3, "integrator": {"dt": 1e-12}}))
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = runner.load_report(str(out))
        assert report.epochs_run == 3
        assert report.events == [["no_update", epoch, 0] for epoch in range(3)]
        with open(out / "log.csv") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert [row[3:5] for row in rows] == [[repr(eki.PENALTY_LOSS)] * 2] * 4


@pytest.mark.parametrize("problem", ["spiral", "linear_control"])
def test_overflowing_step_count_fails_max_steps(tmp_path, problem):
    # At dt = 1e-320 a pass's step count overflows the float range.  It fails
    # max_steps as at dt = 1e-7: the same epochs without an update, the same
    # log and report but for dt, and a theta that re-evaluates and plots,
    # all with no numpy warning.
    runs = {}
    for dt in (1e-7, 1e-320):
        path, out = tmp_path / f"{dt:g}.json", tmp_path / f"{dt:g}"
        path.write_text(json.dumps({"problem": problem, "epochs": 2, "integrator": {"dt": dt}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
            report = runner.load_report(str(out))
            assert runner.reevaluate(report.config, report.theta) == (
                report.final_train_error, report.final_test_error
            )
            assert cli.main(["plot", "--report", str(out)]) == 0
        assert report.events == [["no_update", 0, 0], ["no_update", 1, 0]]
        data = json.loads((out / "report.json").read_text())
        assert data["config"]["integrator"].pop("dt") == dt
        del data["runtime_seconds"], data["log_path"]
        runs[dt] = (out / "log.csv").read_bytes(), data
    assert runs[1e-320] == runs[1e-7]


def test_unserializable_report_leaves_the_previous_artefacts(tmp_path, monkeypatch, capsys):
    # A report value JSON cannot hold stops the run before either file is
    # replaced: the previous log.csv and report.json stay whole, and the CLI
    # says that this run wrote no report.
    path = tmp_path / "c.json"
    write_config(path, "control-eki-mu0.001", 2)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in ("log.csv", "report.json")}
    write_config(path, "control-eki-mu0.001", 3)
    real = runner._ControlDriver.advance

    def advance(self):
        real(self)
        self.events.append(("probe", object()))

    monkeypatch.setattr(runner._ControlDriver, "advance", advance)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not JSON serializable" in err and "no report written" in err
    assert "partial report" not in err
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(os.listdir(out)) == ["log.csv", "report.json"]
    assert runner.load_report(str(out)).epochs_run == 2


@pytest.mark.filterwarnings("error")
def test_overflowing_optimizer_step_fails_quietly(tmp_path, capsys):
    # The first Adam step takes theta to inf; the next BPTT pass stops the run
    # with a partial report, and no numpy warning escapes on the way.
    path = tmp_path / "c.json"
    write_config(path, "control-adam-mu0.001", 1, gradient=runner.GradientOptions(eta=1e308))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "run failed: non-finite state at unfold step 100" in capsys.readouterr().err
    report = runner.load_report(str(tmp_path / "x"))
    assert report.epochs_run == 1
    assert report.error


def test_table_command(tmp_path, capsys):
    config = dataclasses.replace(runner.preset("control-eki-mu0.001"), epochs=2)
    items = [{"name": "fast", **runner.config_to_dict(config)}]
    configs_path = tmp_path / "configs.json"
    configs_path.write_text(json.dumps(items))
    code = cli.main(
        ["table", "--configs", str(configs_path), "--replicates", "2",
         "--out", str(tmp_path / "t")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fast" in out
    assert (tmp_path / "t" / "table.csv").exists()
    assert (tmp_path / "t" / "table.txt").exists()


def test_table_rejects_non_list_json(tmp_path, capsys):
    path = tmp_path / "configs.json"
    path.write_text(json.dumps({"name": "x"}))
    assert cli.main(["table", "--configs", str(path), "--replicates", "1"]) == 1
    assert "must be a list" in capsys.readouterr().err


def test_table_rejects_an_invalid_config_before_any_run(tmp_path, capsys):
    # The second config is invalid: the command exits 1 before the first
    # one runs, and writes no table.
    valid = {"name": "fast", **runner.config_to_dict(runner.preset("control-eki-mu0.001"))}
    items = [dict(valid, epochs=1), {"name": "bad", "problem": "bogus", "epochs": 1}]
    configs_path = tmp_path / "configs.json"
    configs_path.write_text(json.dumps(items))
    code = cli.main(
        ["table", "--configs", str(configs_path), "--replicates", "2",
         "--out", str(tmp_path / "t")]
    )
    assert code == 1
    assert "config error: problem: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("names, message", [
    (["x", "x"], "configs[1].name: 'x' repeats configs[0]"),
    (["../escaped"], "configs[0].name: '../escaped' is not a directory name"),
    (["fine", os.path.join("sub", "dir")], f"configs[1].name: {os.path.join('sub', 'dir')!r} is not"),
    ([""], "configs[0].name: '' is not a directory name"),
    (["."], "configs[0].name: '.' is not a directory name"),
    ([".."], "configs[0].name: '..' is not a directory name"),
    ([3], "configs[0].name: 3 is not a directory name"),
], ids=["repeated", "parent", "subdirectory", "empty", "dot", "dotdot", "not-a-string"])
def test_table_rejects_a_cell_name_that_is_not_its_own_directory(tmp_path, capsys, names, message):
    # Each replicate writes <name>-rep<r> under --out: a repeated name would
    # overwrite another cell's runs, and a path would write outside --out.
    # Each is a config error before any replicate runs.
    base = dataclasses.replace(runner.preset("control-eki-mu0.001"), epochs=1)
    items = []
    for name, mu in zip(names, (0.001, 0.01)):
        config = dataclasses.replace(base, problem_options=dataclasses.replace(base.problem_options, mu=mu))
        items.append({"name": name, **runner.config_to_dict(config)})
    configs_path = tmp_path / "configs.json"
    configs_path.write_text(json.dumps(items))
    code = cli.main(
        ["table", "--configs", str(configs_path), "--replicates", "1",
         "--out", str(tmp_path / "t")]
    )
    assert code == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["configs.json"]


def test_table_exits_two_when_cell_fails_entirely(tmp_path, capsys):
    config = dataclasses.replace(
        runner.preset("spiral-sgd-0.1"), epochs=30, gradient=runner.GradientOptions(eta=1e8)
    )
    items = [runner.config_to_dict(config)]
    configs_path = tmp_path / "configs.json"
    configs_path.write_text(json.dumps(items))
    code = cli.main(
        ["table", "--configs", str(configs_path), "--replicates", "1",
         "--out", str(tmp_path / "t")]
    )
    assert code == 2
    assert "failed entirely" in capsys.readouterr().err


def test_plot_command_default_out(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = dataclasses.replace(runner.preset("spiral-eki"), epochs=1)
    runner.run(config, out_dir=str(run_dir))
    assert cli.main(["plot", "--report", str(run_dir)]) == 0
    assert (run_dir / "plots" / "trajectory.csv").exists()
    assert (run_dir / "plots" / "plot.py").exists()
    assert "plot.py" in capsys.readouterr().out


def test_plot_missing_report_is_config_error(tmp_path, capsys):
    assert cli.main(["plot", "--report", str(tmp_path / "missing")]) == 1
    assert "config error" in capsys.readouterr().err


def test_plot_of_two_reports_with_one_mu_is_config_error(tmp_path, capsys):
    # Both would write trajectory_mu0.001.csv and loss_curve_mu0.001.csv:
    # the list is rejected before any file is written.
    dirs = [str(tmp_path / f"seed{seed}") for seed in (0, 1)]
    for seed, out in enumerate(dirs):
        config = dataclasses.replace(runner.preset("control-eki-mu0.001"), epochs=1, seed=seed)
        runner.run(config, out_dir=out)
    capsys.readouterr()
    out = tmp_path / "plots"
    assert cli.main(["plot", "--report", *dirs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: plot: {dirs[0]} and {dirs[1]} both write trajectory_mu0.001.csv\n"
    assert not out.exists()


def test_plot_of_a_report_without_rows_is_config_error(tmp_path, capsys):
    # At dt = 1e-300 the first BPTT pass is past max_steps, so the run fails
    # before its first row: its partial report has no parameters to plot.
    path, out = tmp_path / "c.json", tmp_path / "x"
    data = runner.config_to_dict(runner.preset("spiral-adam-0.01"))
    data.update(epochs=2, seed=0)
    data["integrator"]["dt"] = 1e-300
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    report = runner.load_report(str(out))
    assert report.error == "max_steps=1000000 exceeded" and report.theta.size == 0
    capsys.readouterr()
    assert cli.main(["plot", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: report.json under {out} logged no row" in err
    assert not (out / "plots").exists()


@pytest.mark.parametrize("content, problem", [
    ([1, 2], "expected a JSON object, got list"),
    ({"config": {}}, "not a run report, missing final_train_error, final_test_error, log_path, "
                     "theta, epochs_run, runtime_seconds, versions, rng, events"),
], ids=["not-an-object", "missing-fields"])
def test_plot_of_a_json_file_that_is_not_a_report_is_config_error(tmp_path, capsys, content, problem):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(content))
    assert cli.main(["plot", "--report", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"config error: {path}: {problem}\n"
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("theta", ["x", [0.1, 0.2, 0.3], None], ids=["string", "wrong-length", "null"])
def test_plot_of_a_report_with_a_malformed_theta_is_config_error(tmp_path, capsys, theta):
    # The controller has 76 parameters; a report lists them all or none.
    out = tmp_path / "r"
    runner.run(dataclasses.replace(runner.preset("control-eki-mu0.001"), epochs=1), out_dir=str(out))
    path = out / "report.json"
    raw = json.loads(path.read_text())
    raw["theta"] = theta
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["plot", "--report", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {path}: theta must be a list of 0 or 76 numbers\n"
    assert not (out / "plots").exists()


@pytest.mark.parametrize("block, key, value, message", [
    (None, "problem_options", 5, "problem_options: expected ProblemOptions, got 5"),
    (None, "problem", "foo", "problem: 'foo' not in ('spiral', 'pendulum', 'linear_control')"),
    ("eki", "ensemble_size", "x", "eki.ensemble_size: expected int, got str"),
], ids=["options-not-an-object", "unknown-problem", "wrong-type"])
def test_plot_of_a_report_with_an_invalid_config_is_config_error(tmp_path, capsys, block, key,
                                                                  value, message):
    # The report's config is validated as a run's is, before theta is checked.
    out = tmp_path / "r"
    runner.run(dataclasses.replace(runner.preset("control-eki-mu0.001"), epochs=1), out_dir=str(out))
    path = out / "report.json"
    raw = json.loads(path.read_text())
    (raw["config"] if block is None else raw["config"][block])[key] = value
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["plot", "--report", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not (out / "plots").exists()


@pytest.mark.parametrize("edit, problem", [
    # A key an older version had, a value validate() refuses, and a file cut short.
    (lambda text: text.replace('"ensemble_size"', '"step_size": 1.0, "ensemble_size"'),
     "EkiOptions: unknown keys ['step_size']"),
    (lambda text: text.replace('"epochs": 1', '"epochs": -1'), "epochs: must be nonnegative"),
    (lambda text: text[:len(text) // 2], "invalid JSON: "),
], ids=["unknown-key", "invalid-value", "invalid-json"])
def test_plot_names_the_report_it_refuses(tmp_path, capsys, edit, problem):
    out = tmp_path / "r"
    runner.run(dataclasses.replace(runner.preset("control-eki-mu0.001"), epochs=1), out_dir=str(out))
    path = out / "report.json"
    text = path.read_text()
    assert edit(text) != text
    path.write_text(edit(text))
    capsys.readouterr()
    assert cli.main(["plot", "--report", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {path}: {problem}")
    assert not (out / "plots").exists()


# The contract fuzz: a valid config run for one to five epochs, so that
# failures reached only after the first epoch (covariance underflow,
# expansions, stalled backtracking, epochs without an update) are in reach,
# with one or two fields replaced by a type swap, zero, -1, an infinity, NaN
# or a huge value.  A huge size is capped, so no example allocates more than
# a few MB or runs more than a few epochs.
MUTANTS = ("1", 1, 1.5, None, True, [], {}, 0, -1, math.inf, -math.inf, math.nan, 5e-324,
           1e308, 2**62, 10**400)
SIZE_CAPS = {"epochs": 5, "ensemble_size": 64, "grid_size": 1000}
FUZZ_CONFIGS = {
    name: runner.config_to_dict(dataclasses.replace(runner.preset(name), epochs=1, **overrides))
    for name, overrides in (
        ("spiral-eki", {"eki": runner.EkiOptions(ensemble_size=4)}),
        ("control-eki-mu0.001", {}),
        ("spiral-adam-0.01", {}),
        ("pendulum-sgd-0.1", {}),
        ("control-adam-mu0.001", {}),
    )
}


def _field_paths(data, prefix=()):
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


FIELD_PATHS = tuple(_field_paths(FUZZ_CONFIGS["spiral-eki"]))


def _float_field(path) -> bool:
    # Whether the (block, name) field of a config holds a float.
    if len(path) != 2:
        return False
    hint = typing.get_type_hints(type(getattr(runner.ExperimentConfig(), path[0])))[path[1]]
    return hint is float or float in typing.get_args(hint)


# One float field set to a positive finite mutant passes validate(), so such
# a draw runs: these are the draws that reach the runtime failures.
RUNNABLE_MUTATIONS = st.tuples(
    st.sampled_from([path for path in FIELD_PATHS if _float_field(path)]),
    st.sampled_from([v for v in MUTANTS if type(v) is float and 0 < v < math.inf]),
).map(lambda mutation: [mutation])

# The runtime failures the package raises, as a report's error reads them.
RUNTIME_FAILURES = re.compile(
    r"max_steps=\d+ exceeded( at t=\S+)?|non-finite state at unfold step \d+"
    r"|non-finite (loss|gradient|EKI update) at epoch \d+|state magnitude exceeds \S+ at t=\S+"
    r"|noise variance \S+ is not positive at epoch \d+")


def _config_error(data) -> bool:
    # Whether the config a JSON object describes is refused before any run.
    try:
        runner.config_from_dict(data).validate()
    except runner.ConfigError:
        return True
    return False


@seed(20)
# One example of each family of runtime failure that a report can name
# comes first.
@example("spiral-adam-0.01", 1, [(("integrator", "dt"), 5e-324)])
@example("spiral-adam-0.01", 1, [(("gradient", "eta"), 1e308)])
@example("control-eki-mu0.001", 1, [(("problem_options", "mu"), 1e308)])
@example("spiral-eki", 3, [(("eki", "alpha"), 1e308)])
@given(st.sampled_from(sorted(FUZZ_CONFIGS)), st.integers(1, 5),
       st.lists(st.tuples(st.sampled_from(FIELD_PATHS), st.sampled_from(MUTANTS)),
                min_size=1, max_size=2) | RUNNABLE_MUTATIONS)
@settings(max_examples=300, deadline=None)
def test_every_config_exits_by_the_contract(tmp_path_factory, name, epochs, mutations):
    # Exit 0 with a report, exit 1 with none exactly when the config is
    # refused, or exit 2 with a partial report that loads and names one of
    # the package's runtime failures; an uncaught failure would exit 2 with
    # no report.
    data = json.loads(json.dumps(FUZZ_CONFIGS[name]))
    data["epochs"] = epochs
    for path, value in mutations:
        if path[-1] in SIZE_CAPS and type(value) is int:
            value = min(value, SIZE_CAPS[path[-1]])
        block = data
        for key in path[:-1]:
            block = block.get(key) if isinstance(block, dict) else None
        # A field whose block an earlier mutation replaced is gone.
        if isinstance(block, dict):
            block[path[-1]] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    config = tmp / "c.json"
    config.write_text(json.dumps(data))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp / "out")])
    assert (code == 1) == _config_error(data)
    if code == 1:
        assert not (tmp / "out" / "report.json").exists()
        return
    assert code in (0, 2)
    report = runner.load_report(str(tmp / "out"))
    assert (report.error is None) == (code == 0)
    assert code == 0 or RUNTIME_FAILURES.fullmatch(report.error), report.error


def test_non_finite_eki_update_is_runtime_failure(tmp_path, capsys):
    # mu = 1e308 makes the energy channel's variance gamma_prime / mu
    # subnormal, so the unit step overflows.  No step length can then be
    # accepted: the run stops at that epoch with a partial report instead of
    # burning every epoch as a stall, and no numpy warning escapes.
    path = tmp_path / "c.json"
    write_config(path, "control-eki-mu0.001", 3,
                 problem_options=runner.ProblemOptions(mu=1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "run failed: non-finite EKI update at epoch 0" in capsys.readouterr().err
    report = runner.load_report(str(tmp_path / "x"))
    assert report.error == "non-finite EKI update at epoch 0"
    assert report.epochs_run == 0 and report.events == []
