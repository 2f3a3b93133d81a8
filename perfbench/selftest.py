"""The benchmark's own tests.

Short-mode smoke runs of every workload (untraced and traced), a check that
another seed changes the generated inputs but not the metric names, that
``BENCHMARK.json`` lists what ``run.py`` prints, that the tracer patches
every binding site and restores them, and that the benchmark fails cleanly
where the program is absent.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run          # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402
from reachmon.data import load    # noqa: E402
from tracing import Tracer    # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload, seed, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--short"],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def scratch_dir():
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_ROOT)


def result(lines):
    return json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_short(self):
        names = {0: {m["name"] for m in SPEC["end_to_end"]},
                 1: {m["name"] for m in SPEC["per_layer"]}}
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    code, lines, err = bench(name, 1, trace)
                    self.assertEqual(code, 0, "\n".join(lines) + err)
                    res = result(lines)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), names[trace])

    def test_other_seed_changes_inputs_not_metric_names(self):
        w = workloads.WORKLOADS["monitor-sn"].short()
        tmp = scratch_dir()
        try:
            obs = []
            for seed in (1, 2):
                path = os.path.join(tmp, f"data{seed}")
                workloads.pipeline.cmd_gen(workloads._config(w, seed, out=path))
                obs.append(load(path).obs)
            self.assertEqual(obs[0].shape, obs[1].shape)
            self.assertFalse((obs[0] == obs[1]).all())
        finally:
            shutil.rmtree(tmp)
        metric_names = []
        for seed in (1, 2):
            code, lines, err = bench(w.name, seed, 0)
            self.assertEqual(code, 0, err)
            metric_names.append(list(result(lines)["metrics"]))
        self.assertEqual(metric_names[0], metric_names[1])


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]], run.PER_LAYER)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_fails_without_the_program(self):
        tmp = scratch_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, err = bench("train-lalo", 1, 0, cwd=tmp,
                                     script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))
        finally:
            shutil.rmtree(tmp)


class Tracing(unittest.TestCase):
    def test_every_binding_site_patched_and_restored(self):
        from reachmon import (active, conformal, detect, evaluate, monitor, nets,
                              pipeline, reach, systems, ukf)

        # A module of the benchmark's own that binds functions by name, as
        # ``from reachmon.nets import predict`` would.
        probe = types.ModuleType("probe")
        probe.predict = nets.predict
        probe.classification_p_values = conformal.classification_p_values
        probe.reject_batch = detect.reject_batch
        probe.monitor_predict = monitor.monitor_predict

        def sites():
            return (pipeline.monitor_predict, evaluate.monitor_predict,
                    monitor.monitor_predict, active.cp_evaluate, nets.predict,
                    detect.classification_p_values, evaluate.classification_p_values,
                    reach.step_batch, ukf.step_batch, systems.step_batch,
                    pipeline.get_spec, probe.predict,
                    probe.classification_p_values, probe.reject_batch,
                    probe.monitor_predict)
        before = sites()
        tracer = Tracer()
        try:
            self.assertEqual(tracer.install(also=[workloads, probe]), [])
            patched = sites()
            for old, new in zip(before, patched):
                self.assertIsNot(old, new)
            self.assertIs(pipeline.monitor_predict, monitor.monitor_predict)
            self.assertIs(probe.monitor_predict, monitor.monitor_predict)
            self.assertIs(probe.predict, nets.predict)
            self.assertIs(detect.classification_p_values,
                          conformal.classification_p_values)
            self.assertIs(reach.step_batch, ukf.step_batch)
        finally:
            tracer.uninstall()
        for old, new in zip(before, sites()):
            self.assertIs(old, new)

    def test_missing_target_is_a_problem(self):
        gone = ("data.gone", "reachmon.data", "no_such_function", {})
        tracer = Tracer()
        with mock.patch.object(tracing, "FUNCTIONS", tracing.FUNCTIONS + [gone]):
            try:
                problems = tracer.install()
            finally:
                tracer.uninstall()
        self.assertEqual(problems, ["missing target reachmon.data.no_such_function"])

    def test_uncalled_target_reads_zero_not_absent(self):
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        summary = tracer.summary()
        self.assertEqual(summary["monitor.continue_training_calls"], 0)
        self.assertEqual(summary["data.simulate_s"], 0.0)
        self.assertEqual(tracer.counters["nets.fine_tune_reverted"], 0)


if __name__ == "__main__":
    unittest.main()
