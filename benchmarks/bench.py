"""ekinode benchmark: fixed-epoch training runs through ``runner.run``.

Each sample is one fresh ``python3 benchmarks/sample.py`` process that
imports ekinode, builds the problem, trains one workload once and checks its
outputs.  Samples repeat until ``--seconds`` have passed; with several
workloads they are interleaved round-robin, so a slow spell of a shared
machine hits all of them.  Every workload first runs one untimed warm-up
sample, which is also the reference its other samples must reproduce
bitwise.

    python3 benchmarks/bench.py                   # every workload, both tables
    python3 benchmarks/bench.py --workload spiral-eki --seed 3 --seconds 30 --trace 0

End-to-end metrics, per workload: medians over the untraced samples.

- ``run_rel``: wall time of one ``runner.run`` (log and report writes
  included) in units of a fixed reference loop timed in the same process
  just before and after it (see ``sample.py``).  On a shared 2-vCPU
  virtual machine whose speed drifted by up to 1.7x over minutes, the median
  wall time of control-eki moved by 18-28% between invocations
  (interquartile range over median, five seeds), its median ``run_rel`` by
  3-5%, and that of the three workloads by 3-7% (ten seeds each).  The wall
  time itself, ``run_s``, is printed beside it as median, highest
  percentile with ten samples above it, and sample count.
- ``setup_s``: ``import ekinode`` plus ``runner.build_problem`` in the
  sample's fresh process.
- ``peak_rss_mb``: ``ru_maxrss`` of the sample process.

With ``--trace 1`` two more samples per workload run with every layer's
public functions wrapped in spans (see ``tracing.py``); their counts must
agree exactly.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics when tracing is off, the per-layer ones when it is on, and both,
prefixed by the workload's name, when several workloads run.  The exit code
is 1 when any output check fails and 2 when the program cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from sample import WORKLOADS
from tracing import COUNTS, LAYERS, MOVES, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {"run_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}
DEADLINE_S = 170.0  # the whole invocation, warm-up and tracing included


class Fatal(Exception):
    """The program could not run at all; no result is printed."""


def run_sample(workload, seed, out_dir, trace, deadline):
    """One sample in a fresh process; returns its result dict."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--seed", str(seed), "--out", out_dir]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"problems": [f"{workload}: sample timed out"], "crashed": True}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"problems": [f"{workload}: sample exited {proc.returncode}: {tail}"],
                "crashed": True}
    result = json.loads(lines[-1])
    if trace:
        result["problems"] += result["trace"]["problems"]
    return result


def measure(workloads, seed, seconds, trace, work_dir):
    """Warm-up, timed and (optionally) traced samples of every workload."""
    deadline = time.monotonic() + DEADLINE_S
    count = 0

    def sample(workload, traced=False):
        nonlocal count
        count += 1
        out = os.path.join(work_dir, f"{workload}-{count}")
        result = run_sample(workload, seed, out, traced, deadline)
        reference = state[workload].get("reference")
        keys = ("final_train_error", "final_test_error", "theta_sha256")
        if reference and not result.get("crashed") and any(result[k] != reference[k] for k in keys):
            result["problems"].append(f"{workload}: results differ from the warm-up sample")
        return result

    state = {w: {"samples": [], "traced": []} for w in workloads}
    for w in workloads:
        warm = sample(w)
        if warm.get("crashed"):
            raise Fatal(warm["problems"][0])
        state[w]["reference"] = warm

    started = time.monotonic()
    rounds = 0
    while time.monotonic() - started < seconds and time.monotonic() < deadline:
        k = rounds % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            state[w]["samples"].append(sample(w))
        rounds += 1

    if trace:
        for _ in range(2):
            for w in workloads:
                state[w]["traced"].append(sample(w, traced=True))
    return state


def summarize(st, trace):
    """End-to-end and per-layer metrics of one workload, plus its problems."""
    reference, samples, traced = st["reference"], st["samples"], st["traced"]
    good = [s for s in samples if not s["problems"]]
    problems = [p for s in [reference] + samples + traced for p in s["problems"]]
    e2e = {}
    for name in END_TO_END:
        values = [s[name] for s in good]
        e2e[name] = statistics.median(values) if values else None
    out = {"reference": reference, "good": good, "e2e": e2e, "problems": problems,
           "attempted": len(samples) + len(traced),
           "failed": sum(1 for s in samples + traced if s["problems"])}
    if not trace:
        return out
    summaries = [s["trace"] for s in traced if "trace" in s]
    if len(summaries) != 2:
        problems.append("no complete pair of traced runs")
        return out
    a, b = (t["metrics"] for t in summaries)
    differ = [k for k in COUNTS if k in a and a[k] != b[k]]
    if differ:
        problems.append(f"traced counts differ between two runs: {differ}")
    layer = {k: a[k] if k in COUNTS else (a[k] + b[k]) / 2 for k in a}
    if good:
        # The untraced run time at each traced sample's machine speed.
        rel = statistics.median(s["run_rel"] for s in good)
        layer["trace.overhead_s"] = statistics.mean(
            s["run_s"] - rel * s["ref_s"] for s in traced)
    out["layer"] = layer
    out["logged_members"] = summaries[0]["logged_members"]
    return out


# ---------------------------------------------------------------------------
# Output


def provenance(seed, workloads):
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
        "workloads": {w: {"preset": WORKLOADS[w][0], "epochs": WORKLOADS[w][1]}
                      for w in workloads},
    }


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None, None
    k = n - 10  # the k-th smallest value has exactly ten samples above it
    return 100 * k // n, sorted(values)[k - 1]


def print_end_to_end(results):
    print("\nend-to-end (untraced, one fresh process per sample)")
    for w, r in results.items():
        good = r["good"]
        for name, unit in END_TO_END.items():
            value = r["e2e"][name]
            print(f"  {w:12s} {name:18s} " + ("n/a" if value is None else f"{value:.4f} {unit}"))
        if good:
            runs = [s["run_s"] for s in good]
            q, tail = tail_percentile(runs)
            text = f"{statistics.median(runs):.4f} s median"
            text += f", p{q} {tail:.4f} s" if q is not None else ", tail n/a (<= 10 samples)"
            text += f", n={len(runs)}: " + " ".join(f"{v:.3f}" for v in runs)
            print(f"  {w:12s} {'run_s':18s} {text}")
            ref_s = statistics.median(s["ref_s"] for s in good)
            print(f"  {w:12s} {'reference loop':18s} {ref_s:.4f} s median")
        ref = r["reference"]
        exact = sum(1 for s in good if s["reevaluate_bitwise"])
        print(f"  {w:12s} {'final_train_error':18s} {ref.get('final_train_error')!r}")
        print(f"  {w:12s} {'final_test_error':18s} {ref.get('final_test_error')!r}")
        print(f"  {w:12s} {'failed_runs':18s} {r['failed']}/{r['attempted']} samples")
        print(f"  {w:12s} {'reevaluate':18s} bitwise in {exact}/{len(good)} passing samples")


def print_per_layer(results):
    print("\nper-layer (traced runs, mean of two; self times partition traced run_s)")
    for w, r in results.items():
        layer = r.get("layer")
        if layer is None:
            print(f"  {w}: no traced result")
            continue
        run_s = layer["trace.run_s"]
        overhead = layer.get("trace.overhead_s", float("nan"))
        print(f"  {w}: traced run_s {run_s:.4f} s, tracing overhead {overhead:+.4f} s "
              "(over the untraced median run_rel at the traced samples' loop speed)")
        print(f"    {'layer':9s} {'self_s':>9s} {'share':>7s}  should move")
        for name in LAYERS + ("runner",):
            s = layer[f"{name}.self_s"]
            print(f"    {name:9s} {s:9.4f} {100 * s / run_s:6.1f}%  {MOVES[name]}")
        for name, (unit, _) in PER_LAYER.items():
            if name.count(".") == 1 and name.endswith(".self_s"):
                continue
            value = layer.get(name)
            text = f"    {name:32s} " + ("n/a" if value is None else f"{value:.6g} {unit}")
            if name == "eki.useful_eval_ratio":
                text += (f" = {r['logged_members']}/{layer['problems.forward_map.members']}"
                         " logged/evaluated members")
            print(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    if not os.path.isfile(os.path.join(ROOT, "src", "ekinode", "__init__.py")):
        print(f"no ekinode sources under {ROOT}/src", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        state = measure(workloads, args.seed, args.seconds, trace, work_dir)
    except Fatal as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    results = {w: summarize(state[w], trace) for w in workloads}

    print("provenance " + json.dumps(provenance(args.seed, workloads)))
    print_end_to_end(results)
    if trace:
        print_per_layer(results)
    problems = [p for r in results.values() for p in r["problems"]]
    for p in problems:
        print(f"CHECK FAILED: {p}")

    metrics = {}
    for w, r in results.items():
        prefix = "" if len(workloads) == 1 else f"{w}."
        if not trace or len(workloads) > 1:
            for name, unit in END_TO_END.items():
                metrics[prefix + name] = {"value": r["e2e"][name], "unit": unit}
        if trace:
            layer = r.get("layer", {})
            for name, (unit, _) in PER_LAYER.items():
                metrics[prefix + name] = {"value": layer.get(name), "unit": unit}
    correct = not problems and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
