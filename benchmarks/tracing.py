"""Span tracing of ekinode's layers from outside the package.

:class:`Recorder` wraps every public function defined in the layer modules
(``nnet``, ``ode``, ``problems``, ``eki``, ``gradbase``) plus ``runner.run``,
which is the root span.  Each call records a span: name, start, end and the
span that was open when it began.  Spans are kept in memory and reduced by
:meth:`Recorder.summary` once the run is over.

A function is wrapped under every name a caller resolves it by: ``integrate``
is imported by name into ``problems`` and ``runner``, and ``mlp_init`` into
``eki``, so patching only ``ode.integrate`` would miss those calls.

A span's self time is its duration minus the durations of its child spans.
Self times partition the root span, so the layers' self times plus
``runner.self_s`` add up to the traced ``run_s``.  The wrappers' own
bookkeeping around a child call lands in the parent's self time; most of the
tracing overhead therefore shows in ``ode.rk4_step.self_s``, whose four
``mlp_apply`` calls per step are wrapped.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("nnet", "ode", "problems", "eki", "gradbase")

FORWARD_MAPS = ("problems.sysid_forward_map", "problems.control_forward_map")
METRICS = ("problems.mse", "problems.test_mse", "problems.control_mse")
EKI_STEPS = ("eki.eki_step", "eki.eki_step_regularized")
OPTIMIZER_STEPS = ("gradbase.adam_step", "gradbase.sgd_step")

# End-to-end metrics each layer should move, printed beside the table.
MOVES = {
    "nnet": "run_rel",
    "ode": "run_rel, peak_rss_mb",
    "problems": "run_rel; setup_s through data generation",
    "eki": "run_rel (under 1% of it, so an update-rule change should not move it)",
    "gradbase": "run_rel, peak_rss_mb (tapes)",
    "runner": "run_rel",
}

# Per-layer metrics in report order: name -> (unit, better).  Times are
# wall seconds inside the traced run; ``.s`` is inclusive, ``self_s`` not.
PER_LAYER = {
    "nnet.mlp_apply.calls": ("count", "lower"),
    "nnet.mlp_apply.s": ("s", "lower"),
    "nnet.rows_per_call": ("rows", "higher"),
    "nnet.flops": ("flop", "lower"),
    "nnet.gflops_per_s": ("GFLOP/s", "higher"),
    "nnet.self_s": ("s", "lower"),
    "ode.integrate.calls": ("count", "lower"),
    "ode.integrate.s": ("s", "lower"),
    "ode.rk4_step.calls": ("count", "lower"),
    "ode.rk4_step.self_s": ("s", "lower"),
    "ode.self_s": ("s", "lower"),
    "problems.forward_map.calls": ("count", "lower"),
    "problems.forward_map.members": ("count", "lower"),
    "problems.forward_map.s": ("s", "lower"),
    "problems.forward_map.failed": ("count", "lower"),
    "problems.metrics.calls": ("count", "lower"),
    "problems.metrics.s": ("s", "lower"),
    "problems.controller_values.s": ("s", "lower"),
    "problems.self_s": ("s", "lower"),
    "eki.step.calls": ("count", "lower"),
    "eki.step.s": ("s", "lower"),
    "eki.ensemble_expand.calls": ("count", "lower"),
    "eki.useful_eval_ratio": ("ratio", "higher"),
    "eki.self_s": ("s", "lower"),
    "gradbase.bptt.calls": ("count", "lower"),
    "gradbase.bptt.s": ("s", "lower"),
    "gradbase.optimizer_step.s": ("s", "lower"),
    "gradbase.self_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics that must repeat exactly between two traced runs of one workload.
COUNTS = tuple(
    name
    for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "rows", "flop", "ratio")
)


class Recorder:
    """Installs span-recording wrappers into an imported ``ekinode`` package."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.rows = 0
        self.flops = 0
        self.members = 0
        self.failed = 0
        self._layers = None
        self._in_dim = self._row_flops = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _count_rows(self, result, layers, x, *args, **kwargs):
        # mlp_apply(layers, x, activation): rows of x, and 2*in*out + out
        # floating-point operations per row and layer (activations excluded).
        # One unflattened parameter set serves many calls in a row.
        if layers is not self._layers:
            self._layers = layers
            self._in_dim = layers[0][0].shape[-1]
            self._row_flops = sum(2 * w.shape[-1] * w.shape[-2] + w.shape[-2] for w, _ in layers)
        rows = x.size // self._in_dim
        self.rows += rows
        self.flops += rows * self._row_flops

    def _count_members(self, result, theta, *args, **kwargs):
        self.members += theta.shape[0] if theta.ndim == 2 else 1
        self.failed += int(np.count_nonzero(result.failed))

    def install(self) -> None:
        pkg = self.package
        modules = [pkg] + [getattr(pkg, name) for name in LAYERS + ("runner",)]
        replacement = {}
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if not public or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                after = None
                if name == "nnet.mlp_apply":
                    after = self._count_rows
                elif name in FORWARD_MAPS:
                    after = self._count_members
                replacement[id(fn)] = (fn, self._wrap(name, fn, after))
        run = pkg.runner.run
        replacement[id(run)] = (run, self._wrap("runner.run", run))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = replacement.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- reduction --------------------------------------------------------
    def summary(self, logged_members: int) -> dict:
        """Per-layer metrics of the recorded run, plus the checks' verdicts.

        ``logged_members`` is the sum of the ensemble size over the rows of
        ``log.csv``: the member evaluations the run reported, against which
        ``eki.useful_eval_ratio`` sets those it paid for.
        """
        nid = np.frombuffer(self.name_ids, dtype=np.int32)
        parent = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)

        def by_name(weights=None):
            # A Counter reads 0 for a function this version of ekinode lacks.
            return Counter(dict(zip(self.names, np.bincount(nid, weights, k).tolist())))

        calls, incl, self_by_name = by_name(), by_name(dur), by_name(self_time)

        def total(table, names):
            return sum(table[n] for n in names)

        layer_self = {layer: 0.0 for layer in LAYERS + ("runner",)}
        for name, value in self_by_name.items():
            layer_self[name.split(".")[0]] += value

        problems = []
        roots = np.flatnonzero(~nested)
        if roots.size != 1 or self.names[nid[roots[0]]] != "runner.run":
            problems.append(f"expected one runner.run root span, found {roots.size} roots")
        run_s = float(dur[roots].sum())
        if any(v < -1e-9 for v in layer_self.values()):
            problems.append(f"negative self time: {layer_self}")
        if abs(sum(layer_self.values()) - run_s) > 1e-6 * max(1.0, run_s):
            problems.append(f"self times sum to {sum(layer_self.values())}, not {run_s}")

        mlp_s = incl["nnet.mlp_apply"]
        metrics = {
            "nnet.mlp_apply.calls": calls["nnet.mlp_apply"],
            "nnet.mlp_apply.s": mlp_s,
            "nnet.rows_per_call": self.rows / max(1, calls["nnet.mlp_apply"]),
            "nnet.flops": self.flops,
            "nnet.gflops_per_s": self.flops / mlp_s / 1e9 if mlp_s > 0 else 0.0,
            "ode.integrate.calls": calls["ode.integrate"],
            "ode.integrate.s": incl["ode.integrate"],
            "ode.rk4_step.calls": calls["ode.rk4_step"],
            "ode.rk4_step.self_s": self_by_name["ode.rk4_step"],
            "problems.forward_map.calls": total(calls, FORWARD_MAPS),
            "problems.forward_map.members": self.members,
            "problems.forward_map.s": total(incl, FORWARD_MAPS),
            "problems.forward_map.failed": self.failed,
            "problems.metrics.calls": total(calls, METRICS),
            "problems.metrics.s": total(incl, METRICS),
            "problems.controller_values.s": incl["problems.controller_values"],
            "eki.step.calls": total(calls, EKI_STEPS),
            "eki.step.s": total(incl, EKI_STEPS),
            "eki.ensemble_expand.calls": calls["eki.ensemble_expand"],
            "eki.useful_eval_ratio": logged_members / self.members if self.members else 0.0,
            "gradbase.bptt.calls": calls["gradbase.bptt_value_and_gradient"],
            "gradbase.bptt.s": incl["gradbase.bptt_value_and_gradient"],
            "gradbase.optimizer_step.s": total(incl, OPTIMIZER_STEPS),
            "trace.run_s": run_s,
        }
        for layer, value in layer_self.items():
            metrics[f"{layer}.self_s"] = value
        return {"metrics": metrics, "logged_members": logged_members, "problems": problems}
