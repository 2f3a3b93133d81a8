"""Outside-in tracing of reachmon: spans around the public functions of each
module, installed by patching every binding site from the benchmark.

``from .x import y`` copies ``y`` into many modules, so a function is
replaced wherever a ``reachmon`` module holds it, and :meth:`Tracer.install`
verifies afterwards that no module still holds an original.  Methods are
patched on their class, and the model dynamics (closures stored in each
spec) are wrapped on every spec that ``get_spec`` returns.

A span is ``(id, parent_id, name, start, end)`` in process CPU seconds, the
clock of the untraced timings; spans stay in memory until the run ends.  A
span's self time is its duration minus its children's.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

CLOCK = time.process_time


def _rows(i):
    """Counter: number of rows of positional argument ``i``."""
    return lambda args, kwargs, out: len(args[i])


def _conv_flops(per_mac):
    # The forward input (B, C, L) or backward gradient (B, F, L) against
    # (F, C, k) weights: B*L*F*C*k multiply-adds, two flops each forward and
    # four backward (weight and input gradients).  Computed, not measured.
    def count(args, kwargs, out):
        layer, x = args[0], args[1]
        F, C, k = layer.w.shape
        return per_mac * x.shape[0] * x.shape[-1] * F * C * k
    return count


def _one(args, kwargs, out):
    return 1


def _nbytes(arrays):
    return sum(a.nbytes for a in arrays.values())


def _sample_epochs(x_arg):
    return lambda args, kwargs, out: len(args[x_arg]) * args[-1].epochs


# (span name, module, attribute, {counter name: counter}).  A target that is
# missing is reported by :meth:`Tracer.install`, so that a refactor which
# removes or renames one shows as a failed check rather than as a zero.
FUNCTIONS = [
    ("data.gen", "reachmon.data", "gen_independent",
     {"data.windows_generated": lambda a, k, out: out.n}),
    ("data.gen", "reachmon.data", "gen_sequential",
     {"data.windows_generated": lambda a, k, out: out.n}),
    ("data.simulate", "reachmon.data", "_simulate_tolerant", {}),
    ("data.draw", "reachmon.data", "_draw_initials", {}),
    ("data.draw", "reachmon.data", "_draw_noise", {}),
    ("data.scale", "reachmon.data", "scale", {}),
    ("data.split", "reachmon.data", "split", {}),
    ("data.save", "reachmon.data", "save", {}),
    ("data.load", "reachmon.data", "load", {}),
    ("systems.step_batch", "reachmon.systems", "step_batch",
     {"systems.step_batch_rows": _rows(1)}),
    ("reach.label", "reachmon.reach", "reach_label_batch",
     {"reach.states_labelled": _rows(1)}),
    ("storage.save", "reachmon.storage", "save_container",
     {"storage.bytes_written": lambda a, k, out: _nbytes(a[2])}),
    ("storage.load", "reachmon.storage", "load_container",
     {"storage.bytes_read": lambda a, k, out: _nbytes(out[1])}),
    ("nets.train_classifier", "reachmon.nets.training", "train_classifier",
     {"nets.sample_epochs": _sample_epochs(0)}),
    ("nets.train_estimator", "reachmon.nets.training", "train_estimator",
     {"nets.sample_epochs": _sample_epochs(0)}),
    ("nets.fine_tune", "reachmon.nets.training", "fine_tune",
     {"nets.sample_epochs": lambda a, k, out: len(a[2]) * a[5].epochs,
      "nets.fine_tune_reverted": lambda a, k, out: int(out["reverted"])}),
    ("nets.predict", "reachmon.nets.training", "predict", {}),
    ("monitor.train_monitor", "reachmon.monitor", "train_monitor", {}),
    ("monitor.continue_training", "reachmon.monitor", "continue_training", {}),
    ("monitor.monitor_predict", "reachmon.monitor", "monitor_predict", {}),
    ("conformal.p_values", "reachmon.conformal", "classification_p_values",
     {"conformal.p_values_rows": _rows(1)}),
    ("conformal.regions", "reachmon.conformal", "classify_region",
     {"conformal.regions_built": _one}),
    ("conformal.coverage", "reachmon.conformal", "coverage", {}),
    ("detect.reject", "reachmon.detect", "reject_batch", {}),
    ("detect.cv_labels", "reachmon.detect", "cv_uncertainty_labels", {}),
    ("detect.train_rule", "reachmon.detect", "train_rule",
     {"detect.rule_degenerate": lambda a, k, out: int(out.degenerate)}),
    ("evaluate.calibration_scores", "reachmon.evaluate", "calibration_scores", {}),
    ("evaluate.cp_evaluate", "reachmon.evaluate", "cp_evaluate", {}),
    ("evaluate.full_report", "reachmon.evaluate", "full_report", {}),
    ("active.query", "reachmon.active", "query",
     {"active.selected": lambda a, k, out: len(out),
      "active.pool": lambda a, k, out: a[1].n}),
    ("active.iteration", "reachmon.active", "al_iteration", {}),
    ("ukf.estimate", "reachmon.ukf", "ukf_estimate", {}),
]

# (span name, module, class, method, {counter name: counter})
METHODS = [
    ("nets.conv1d.forward", "reachmon.nets.layers", "Conv1D", "forward",
     {"nets.conv1d.flops": _conv_flops(2)}),
    ("nets.conv1d.backward", "reachmon.nets.layers", "Conv1D", "backward",
     {"nets.conv1d.flops": _conv_flops(4)}),
    ("nets.dense.forward", "reachmon.nets.layers", "Dense", "forward", {}),
    ("nets.dense.backward", "reachmon.nets.layers", "Dense", "backward", {}),
    ("nets.adam.step", "reachmon.nets.training", "Adam", "step",
     {"nets.adam.steps": _one}),
    ("pipeline.bundle_load", "reachmon.pipeline", "Bundle", "__init__", {}),
]

DYNAMICS = ("drift", "jump", "observe_fn")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.targets = []
        self.span_names = set()
        self._stack = [0]
        self._next_id = 1
        self._undo = []

    # --- recording ------------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, t0):
        t1 = CLOCK()
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1))

    def span(self, name):
        """Context manager marking a span from the benchmark's own code."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.ids = tracer._enter()
                self.t0 = CLOCK()

            def __exit__(self, *exc):
                tracer._exit(*self.ids, name, self.t0)
        return _Span()

    def wrap(self, name, fn, counters=None):
        tracer = self
        counters = counters or {}
        self.span_names.add(name)
        for key in counters:
            self.counters[key] += 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._enter()
            t0 = CLOCK()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, parent, name, t0)
            for key, count in counters.items():
                tracer.counters[key] += count(args, kwargs, out)
            return out
        return traced

    # --- installation -----------------------------------------------------------

    def install(self, also=()):
        """Patch every target in the ``reachmon`` modules and in the modules
        ``also`` (the benchmark's own); returns the list of problems: missing
        targets and modules that still hold an original."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "reachmon" or n.startswith("reachmon.")] + list(also)
        originals = {}
        problems = []
        for name, modname, attr, counters in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr, None)
            if orig is None:
                problems.append(f"missing target {modname}.{attr}")
                continue
            originals[id(orig)] = name
            self.targets.append(f"{modname}.{attr}")
            counters = {**counters, f"calls:{self.targets[-1]}": _one}
            self._patch_everywhere(mods, orig, self.wrap(name, orig, counters))
        for name, modname, cls_name, meth, counters in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            orig = cls.__dict__[meth]
            self.targets.append(f"{modname}.{cls_name}.{meth}")
            counters = {**counters, f"calls:{self.targets[-1]}": _one}
            self._setattr(cls, meth, self.wrap(name, orig, counters))
        get_spec = importlib.import_module("reachmon.benchmarks").get_spec
        originals[id(get_spec)] = "benchmarks.get_spec"
        self.span_names.add("benchmarks.dynamics")
        self.counters["benchmarks.dynamics_rows"] += 0
        self._patch_everywhere(mods, get_spec, self._traced_get_spec(get_spec))

        for m in mods:
            for key, value in vars(m).items():
                if id(value) in originals:
                    problems.append(f"{m.__name__}.{key} still holds the "
                                    f"untraced {originals[id(value)]}")
        return problems

    def _traced_get_spec(self, get_spec):
        @functools.wraps(get_spec)
        def traced_get_spec(*args, **kwargs):
            spec = get_spec(*args, **kwargs)
            return dataclasses.replace(spec, **{
                f: self.wrap("benchmarks.dynamics", getattr(spec, f),
                             {"benchmarks.dynamics_rows": _rows(0)})
                for f in DYNAMICS})
        return traced_get_spec

    def _patch_everywhere(self, mods, orig, replacement):
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._setattr(m, key, replacement)

    def _setattr(self, obj, key, value):
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    # --- analysis -------------------------------------------------------------

    def durations(self):
        """``{span id: (name, duration, self time)}``."""
        child = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            child[parent] += t1 - t0
        return {sid: (name, t1 - t0, t1 - t0 - child[sid])
                for sid, parent, name, t0, t1 in self.spans}

    def summary(self):
        """``{name_s, name_self_s, name_calls}`` for every span name; zero
        for an installed target that was never called."""
        out = defaultdict(float)
        for name in self.span_names:
            out[name + "_s"] = out[name + "_self_s"] = 0.0
            out[name + "_calls"] = 0
        for name, dur, self_s in self.durations().values():
            out[name + "_s"] += dur
            out[name + "_self_s"] += self_s
            out[name + "_calls"] = int(out[name + "_calls"]) + 1
        return dict(out)

    def shares(self):
        """Time of each workload's intended dominant path, with its base.

        ``train``: self time in ``nets`` and ``monitor`` outside the verdict
        stage.  ``gen``: self time in ``data``, ``systems``, ``benchmarks``,
        ``reach`` and ``storage`` outside the verdict stage and the UKF.
        ``serve``: the whole verdict stage plus the whole UKF.  The three are
        disjoint; the base is the sum of the traced stage spans.
        """
        spans = self.durations()
        verdict = self.inside({"stage.verdict"})
        ukf = self.inside({"ukf.estimate"})
        out = {"train": 0.0, "gen": 0.0, "serve": 0.0, "base": 0.0}
        for sid, (name, dur, self_s) in spans.items():
            layer = name.split(".", 1)[0]
            if name.startswith("stage."):
                out["base"] += dur
            if name in ("stage.verdict", "ukf.estimate"):
                out["serve"] += dur
            elif sid in verdict:
                continue
            elif layer in ("nets", "monitor"):
                out["train"] += self_s
            elif layer in ("data", "systems", "benchmarks", "reach", "storage") \
                    and sid not in ukf:
                out["gen"] += self_s
        return out

    def inside(self, marker_names):
        """Span ids that are, or descend from, a span named in ``marker_names``."""
        parent_of = {sid: parent for sid, parent, *_ in self.spans}
        name_of = {sid: name for sid, _, name, *_ in self.spans}
        found = set()
        for sid in sorted(parent_of):       # ids grow from parent to child
            if name_of[sid] in marker_names or parent_of[sid] in found:
                found.add(sid)
        return found

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
