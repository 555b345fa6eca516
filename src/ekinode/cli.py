"""Command-line entry point.

Subcommands: ``run`` (one experiment), ``table`` (replicated summary),
``plot`` (CSV data plus a matplotlib script from finished reports),
``presets`` (list built-in configurations).  Exit codes: 0 success,
1 configuration error, 2 runtime failure.  The environment variable
``EKI_NODE_SEED`` overrides the config seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import runner
from .runner import ConfigError

SEED_ENV = "EKI_NODE_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eki-node", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one training run")
    p_run.add_argument("--config", required=True, help="config JSON file or preset name")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory (default: ./runs/<name>)")

    p_table = sub.add_parser("table", help="run configs with replicates and summarize")
    p_table.add_argument("--configs", required=True, help="JSON file: list of presets/configs")
    p_table.add_argument("--replicates", type=int, required=True)
    p_table.add_argument("--out", default="table_out")

    p_plot = sub.add_parser("plot", help="emit plot CSVs and script from reports")
    p_plot.add_argument("--report", required=True, nargs="+", help="report directory(ies)")
    p_plot.add_argument("--out", default=None, help="output directory (default: <report>/plots)")

    sub.add_parser("presets", help="list built-in configurations")
    return parser


def _read_json(path: str, what: str):
    # A config file that cannot be read or decoded is a config error; the
    # same errors raised later, by the run itself, stay runtime failures.
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{what}: cannot read {path!r}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{what}: invalid JSON in {path!r}: {exc}"])


def _load_run_config(arg: str) -> runner.ExperimentConfig:
    if os.path.exists(arg):
        return runner.config_from_dict(_read_json(arg, "--config"))
    return runner.preset(arg)


def _apply_seed(config, cli_seed):
    import dataclasses

    seed = cli_seed
    if seed is None and os.environ.get(SEED_ENV):
        try:
            seed = int(os.environ[SEED_ENV])
        except ValueError:
            raise ConfigError([f"{SEED_ENV}: not an integer: {os.environ[SEED_ENV]!r}"])
    if seed is None:
        return config
    return dataclasses.replace(config, seed=seed)


def _cmd_run(args) -> int:
    config = _apply_seed(_load_run_config(args.config), args.seed)
    out = args.out
    if out is None:
        name = args.config if not os.path.exists(args.config) else "run"
        out = os.path.join("runs", f"{name}-seed{config.seed}")
    report = runner.run(config, out_dir=out)
    if report.error is not None:
        print(f"run failed: {report.error}", file=sys.stderr)
        print(f"partial report under {out}", file=sys.stderr)
        return 2
    print(
        f"{config.problem}/{config.optimizer} seed={config.seed}: "
        f"train={report.final_train_error:.6e} test={report.final_test_error:.6e} "
        f"({report.epochs_run} epochs, {report.runtime_seconds:.1f}s) -> {out}"
    )
    return 0


def _cmd_table(args) -> int:
    items = _read_json(args.configs, "--configs")
    if not isinstance(items, list):
        raise ConfigError(["--configs: top-level JSON value must be a list"])
    summary = runner.table(items, args.replicates, args.out)
    print(runner.format_table(summary))
    if any(cell["failures"] == cell["replicates"] for cell in summary):
        print("at least one cell failed entirely", file=sys.stderr)
        return 2
    return 0


def _cmd_plot(args) -> int:
    out = args.out if args.out is not None else os.path.join(args.report[0], "plots")
    written = runner.plot_script(args.report, out)
    print(f"wrote {', '.join(written)} under {out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "plot":
            return _cmd_plot(args)
        for name in sorted(runner.presets()):
            print(name)
        return 0
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        if args.command == "run":
            # runner.run replaces its report last, and only with a whole one.
            print("no report written by this run", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
