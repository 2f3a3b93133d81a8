"""The benchmark's workloads and the seven-stage workflow they run.

Every workload runs ``gen -> train -> eval -> verdict -> active -> anomaly ->
compare-se`` through the public ``reachmon.pipeline.cmd_*`` functions; the
verdict stage serves the trained bundle one window at a time through
``predict``, ``classification_p_values`` and ``reject_batch``, the way a
deployed monitor would.  The workloads differ only in model and sizes, which
are chosen so that a different layer does most of the work in each (see
``NOTES.md``).
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

# The program's functions are called through their modules, never bound here
# by name, so that the tracer's patches of those modules see every call.
from reachmon import conformal, data, detect, monitor, nets, pipeline
from reachmon.config import ExperimentConfig
from reachmon.errors import ReachmonError

EPS = 0.05
VERDICT_STREAM = 0x564552   # theta stream of the verdict stage
LIKELIHOOD_TOL = 1e-9       # batch-1 vs batched forward pass, float64
# Durations are CPU time of this single-threaded process.  It equals wall
# time when nothing else runs on the core, and unlike wall time it does not
# count the time other tenants of a shared machine take the core away.
CLOCK = time.process_time
REPORTS = ("reports/eval.csv", "reports/sweep.csv", "reports/eval.json",
           "reports/active.json", "reports/active.csv",
           "reports/anomaly.csv", "reports/anomaly.json",
           "reports/compare_se.csv", "reports/compare_se.json",
           "active/state.json", "active/checkpoint/meta.json")
QUALITY = ("accuracy", "coverage_eps05", "detection_rate", "ukf_rel_err")


@dataclass(frozen=True)
class Sizes:
    n: int
    n_train: int
    n_calib: int
    n_test: int
    epochs_scale: float
    pool: int
    verdicts: int
    se_points: int


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    mode: str
    sizes: Sizes
    windows_per_traj: int = 50

    def short(self) -> "Workload":
        """The same workload at smoke-test sizes (also the warm-up run)."""
        return replace(self, sizes=SHORT)


# Smallest sizes that still run every code path: the rejection rule's
# cross-validation needs calib // k_folds >= 50, sequential splits need
# multiples of the windows per trajectory and verdict_p50_ms needs one block
# of run.P50_BLOCK verdicts.
SHORT = Sizes(n=600, n_train=200, n_calib=250, n_test=150, epochs_scale=0.02,
              pool=100, verdicts=100, se_points=10)

# Sizes are chosen so that a different layer dominates each workload and one
# repetition takes 6-9 s on one core; NOTES.md gives the reasons, and why a
# third, generation-bound workload was dropped.
WORKLOADS = {w.name: w for w in (
    # Widest network: nets training and fine-tuning dominate.
    Workload("train-lalo", "lalo", "independent",
             Sizes(n=6000, n_train=2500, n_calib=1000, n_test=2500,
                   epochs_scale=0.15, pool=2000, verdicts=1000, se_points=400)),
    # The runtime use: batch-1 verdicts on sequential windows and the UKF.
    Workload("monitor-sn", "sn", "sequential",
             Sizes(n=40000, n_train=1500, n_calib=4000, n_test=4000,
                   epochs_scale=0.1, pool=1000, verdicts=9000, se_points=1000),
             windows_per_traj=10),
)}


class Outcome:
    """Attempt and failure counts of one run, plus the recorded errors.

    An operation fails when it raises an error of the reachmon taxonomy or
    returns a non-finite number; the caller carries on with the next stage.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.warnings = {}

    def call(self, label, fn):
        self.attempted += 1
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn()
        except ReachmonError as exc:
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            for w in caught:
                key = w.category.__name__
                self.warnings[key] = self.warnings.get(key, 0) + 1
        if not all_finite(out):
            self.failed += 1
            self.errors.append(f"{label}: non-finite result")
            return None
        return out


def all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_finite(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind not in "fc" or bool(np.isfinite(obj).all())
    if isinstance(obj, (float, np.floating)):
        return math.isfinite(obj)
    return True


def _config(w: Workload, seed: int, **fields) -> ExperimentConfig:
    s = w.sizes
    cfg = ExperimentConfig(
        model=w.model, mode=w.mode, approach="two_step", profile="desk",
        seed=seed, eps=[EPS], n=s.n, windows_per_traj=w.windows_per_traj,
        n_train=s.n_train, n_calib=s.n_calib, n_test=s.n_test, pool=s.pool,
        iters=1, epochs_scale=s.epochs_scale, n_se_points=s.se_points)
    for key, value in fields.items():
        setattr(cfg, key, value)
    return cfg.validate()


def _uncertainty(pv):
    """(confidence, credibility) rows from both labels' p-values, as in
    ``evaluate.cp_evaluate``."""
    return np.stack([1.0 - pv.min(axis=1), pv.max(axis=1)], axis=1)


def verdict_stream(bundle_path: str, n_verdicts: int, seed: int, outcome: Outcome):
    """Serve ``n_verdicts`` test windows one at a time, in trajectory order,
    cycling through the test split: one closed-loop client, raw window in,
    (label, likelihoods, reject flag) out.  Returns the per-verdict
    latencies and outputs plus the bundle, for the correctness check."""
    b = pipeline.Bundle(bundle_path)
    windows = b.test_ds.obs
    order = np.arange(n_verdicts) % len(windows)
    thetas = np.random.default_rng([seed, VERDICT_STREAM]).uniform(size=n_verdicts)
    latency = np.full(n_verdicts, np.nan)
    labels = np.zeros(n_verdicts, dtype=np.int64)
    liks = np.full((n_verdicts, 2), np.nan)
    rejected = np.zeros(n_verdicts, dtype=bool)
    clock = CLOCK
    for i in range(n_verdicts):
        outcome.attempted += 1
        t0 = clock()
        try:
            x = b.scaler.scale_obs(windows[order[i]]).T[None]   # (1, C, L)
            pred = nets.predict(b.monitor, x)
            pv = conformal.classification_p_values(b.calib, pred["likelihoods"],
                                                   thetas[i:i + 1])
            flag = detect.reject_batch(b.rule, _uncertainty(pv))[0]
        except ReachmonError as exc:
            outcome.failed += 1
            outcome.errors.append(f"verdict {i}: {type(exc).__name__}: {exc}")
            continue
        t1 = clock()
        if not np.isfinite(pred["likelihoods"]).all():
            outcome.failed += 1
            outcome.errors.append(f"verdict {i}: non-finite likelihoods")
            continue
        latency[i] = t1 - t0
        labels[i] = pred["labels"][0]
        liks[i] = pred["likelihoods"][0]
        rejected[i] = flag
    return {"latency": latency, "labels": labels, "likelihoods": liks,
            "rejected": rejected, "order": order, "thetas": thetas, "bundle": b}


def check_verdicts(stream) -> list:
    """The verdict stream must agree with one batched pass over the same
    windows: equal labels and reject flags, likelihoods within tolerance."""
    b = stream["bundle"]
    batch = monitor.monitor_predict(b.monitor, data.scale(b.test_ds, b.scaler))
    order, ok = stream["order"], np.isfinite(stream["latency"])
    lik = batch["likelihoods"][order]
    pv = conformal.classification_p_values(b.calib, lik, stream["thetas"])
    rej = detect.reject_batch(b.rule, _uncertainty(pv))
    problems = []
    n_label = int((batch["labels"][order] != stream["labels"])[ok].sum())
    if n_label:
        problems.append(f"verdict labels differ from batched predict on {n_label}")
    diff = float(np.abs(lik - stream["likelihoods"])[ok].max(initial=0.0))
    if not diff <= LIKELIHOOD_TOL:
        problems.append(f"verdict likelihoods differ by {diff:.3g} > {LIKELIHOOD_TOL}")
    n_rej = int((rej != stream["rejected"])[ok].sum())
    if n_rej:
        problems.append(f"verdict reject flags differ from batched on {n_rej}")
    return problems


def run_workflow(w: Workload, seed: int, workdir: str, outcome: Outcome,
                 span=None) -> dict:
    """One pass of the seven stages in ``workdir``.

    ``span(name)`` is an optional context-manager factory that the traced
    run uses to mark the stage boundaries.  Returns stage CPU and wall
    times, quality metrics, verdict latencies and the verdict stream, which
    :func:`check_workflow` checks outside the timed (and traced) stages.
    """
    s = w.sizes
    data_dir = os.path.join(workdir, "data")
    bundle = os.path.join(workdir, "bundle")
    times, wall, out = {}, {}, {}

    def stage(name, fn):
        t0, w0 = CLOCK(), time.perf_counter()
        if span is None:
            result = fn()
        else:
            with span("stage." + name):
                result = fn()
        times[name] = CLOCK() - t0
        wall[name] = time.perf_counter() - w0
        out[name] = result
        return result

    stage("gen", lambda: outcome.call(
        "gen", lambda: pipeline.cmd_gen(_config(w, seed, out=data_dir))))
    stage("train", lambda: outcome.call(
        "train", lambda: pipeline.cmd_train(_config(w, seed, data=data_dir, out=bundle))))
    stage("eval", lambda: outcome.call(
        "eval", lambda: pipeline.cmd_eval(_config(w, seed, bundle=bundle))))
    stage("verdict", lambda: _verdicts_or_none(bundle, s.verdicts, seed, outcome))
    stage("active", lambda: outcome.call(
        "active", lambda: pipeline.cmd_active(_config(w, seed, bundle=bundle))))
    stage("anomaly", lambda: outcome.call(
        "anomaly", lambda: pipeline.cmd_anomaly(_config(w, seed, bundle=bundle))))
    stage("compare_se", lambda: outcome.call(
        "compare_se", lambda: pipeline.cmd_compare_se(_config(w, seed, bundle=bundle))))

    stream = out["verdict"]
    det, history, se = out["eval"], out["active"], out["compare_se"]
    quality = {
        "accuracy": det["accuracy"] if det else math.nan,
        "coverage_eps05": det["per_eps"][EPS]["coverage"] if det else math.nan,
        "detection_rate": det["detection_rate"] if det else math.nan,
        "ukf_rel_err": se["ukf_mean"] if se else math.nan,
    }
    selected = history[-1]["n_selected"] if history else 0
    return {
        "times": times,
        "wall_times": wall,
        "quality": quality,
        "latency": (stream["latency"][np.isfinite(stream["latency"])]
                    if stream is not None else np.zeros(0)),
        "counts": {"gen": s.n, "eval": 3 * s.n_test, "compare_se": s.se_points,
                   "active_selected": selected},
        "stream": stream,
    }


def check_workflow(w: Workload, workdir: str, rep: dict) -> list:
    """The failed checks of one pass of :func:`run_workflow` in ``workdir``:
    the bundle's model, the reports written and the verdict stream.  Drops
    the verdict stream from ``rep``."""
    problems = []
    bundle = os.path.join(workdir, "bundle")
    meta_path = os.path.join(bundle, "bundle.json")
    if os.path.isfile(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
        if (meta.get("model"), meta.get("mode")) != (w.model, w.mode):
            problems.append(f"bundle records model {meta.get('model')!r} "
                            f"mode {meta.get('mode')!r}, expected {w.model!r} {w.mode!r}")
    missing = [r for r in REPORTS if not os.path.isfile(os.path.join(bundle, r))]
    if missing:
        problems.append(f"reports not written: {missing}")
    stream = rep.pop("stream")
    if stream is not None:
        problems += check_verdicts(stream)
    return problems


def _verdicts_or_none(bundle, n, seed, outcome):
    outcome.attempted += 1
    try:
        stream = verdict_stream(bundle, n, seed, outcome)
    except ReachmonError as exc:       # the bundle itself could not be loaded
        outcome.failed += 1
        outcome.errors.append(f"verdict: {type(exc).__name__}: {exc}")
        return None
    return stream
