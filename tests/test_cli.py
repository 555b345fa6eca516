"""End-to-end tests of the command-line interface, invoked in-process."""

import dataclasses
import json
import math
import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from ekinode import cli, runner


def write_config(path, name, epochs, **overrides):
    config = dataclasses.replace(runner.preset(name), epochs=epochs, **overrides)
    runner.save_config(config, path)
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


def test_invalid_config_reports_each_message(tmp_path, capsys):
    path = tmp_path / "c.json"
    data = runner.config_to_dict(runner.preset("spiral-eki"))
    data["epochs"] = 5
    data["wall_clock_budget_seconds"] = 1.0
    data["optimizer"] = "newton"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "exactly one" in err
    assert "optimizer" in err
    # Values of the wrong type are config errors too, each named by field,
    # and no run starts.
    for key, value, field in (
        ("eki", {"expansions": [3]}, "eki.expansions"),
        ("eki", {"step_size": "big"}, "eki.step_size"),
        ("epochs", "2", "epochs"),
        ("eki", {"ensemble_size": 2.5}, "eki.ensemble_size"),
        ("eki", [1], "eki"),
        ("eki", {"expansions": [[3.5, 20]]}, "eki.expansions"),
        ("eki", {"expansions": [[3, 2.5]]}, "eki.expansions"),
        ("eki", {"gamma_steps": [[1.5, 0.1]]}, "eki.gamma_steps"),
        ("seed", -1, "seed"),
        # JSON Infinity and NaN parse, and no float field takes them.
        ("wall_clock_budget_seconds", math.inf, "wall_clock_budget_seconds"),
        ("eki", {"step_size": math.inf, "step_cap_rel": None}, "eki.step_size"),
        ("eki", {"gamma0": math.nan}, "eki.gamma0"),
        # Every grid point observed leaves no test error.
        ("problem_options", {"grid_size": 2, "num_subsets": 1, "subset_length": 2},
         "problem_options.num_subsets"),
        ("integrator", {"method": "dopri5"}, "integrator.method"),
        # The integrator block has only method and dt.
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


def test_runtime_failure_exits_two(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_config(path, "spiral-sgd-0.1", 30, gradient=runner.GradientOptions(eta=1e8))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "run failed" in err
    assert "partial report" in err
    assert (tmp_path / "x" / "report.json").exists()


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


def test_epochs_without_two_valid_members_are_logged(tmp_path):
    # dt=1e-12 puts every member past max_steps: no epoch can update, the
    # run still completes, and each epoch says why it moved nobody.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"problem": "spiral", "epochs": 3, "integrator": {"dt": 1e-12}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 0
    report = runner.load_report(str(tmp_path / "x"))
    assert report.epochs_run == 3
    assert report.events == [["no_update", epoch, 0] for epoch in range(3)]


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


# The contract fuzz: a valid config run for one to five epochs, so that
# failures reached only after the first epoch (covariance underflow,
# expansions, stalled backtracking, epochs without an update) are in reach,
# with one or two fields replaced by a type swap, zero, -1, an infinity, NaN
# or a huge value.  A huge size is capped, so no example allocates more than
# a few MB or runs more than a few epochs.
MUTANTS = ("1", 1, 1.5, None, True, [], {}, 0, -1, math.inf, -math.inf, math.nan,
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


@seed(20)
@given(st.sampled_from(sorted(FUZZ_CONFIGS)), st.integers(1, 5),
       st.lists(st.tuples(st.sampled_from(FIELD_PATHS), st.sampled_from(MUTANTS)),
                min_size=1, max_size=2))
@settings(max_examples=300, deadline=None)
def test_every_config_exits_by_the_contract(tmp_path_factory, name, epochs, mutations):
    # Exit 0 with a report, exit 1 with none, or exit 2 with a partial
    # report that loads; an uncaught failure would exit 2 with no report.
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
    if code == 1:
        assert not (tmp / "out" / "report.json").exists()
        return
    assert code in (0, 2)
    report = runner.load_report(str(tmp / "out"))
    assert (report.error is None) == (code == 0)
