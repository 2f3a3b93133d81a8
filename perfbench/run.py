"""Benchmark of the reachmon workflow: one workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload train-lalo --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

A run sets up (imports plus warm-up passes at smoke-test sizes, whose median
is ``setup_s``), then repeats the seven-stage workflow of ``workloads.py``
while it fits in ``--seconds`` (at least twice) and reports means over the
repetitions (see ``end_to_end``).  ``--trace 1`` adds one traced repetition and reports the
per-layer metrics instead of the end-to-end ones.  Human-readable lines come
first; the last line of standard output is the JSON result.  The exit code
is 1 when a correctness check fails and 2 when the program is not found.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
BLAS_THREADS = 1     # pinned before numpy loads; one core per workload process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 9
# The warm-up passes use one fixed seed, so that set-up does the same work
# whatever --seed is; the measured repetitions use --seed.
WARMUP_SEED = 0
MIN_REPS = 2
P50_BLOCK = 100      # consecutive verdicts per block of verdict_p50_ms
# Traced targets that only one workload must reach; every other target must
# record a call on every workload.  Active learning retrains only when the
# rule selects pool points, which is reliable on train-lalo alone.
EXERCISED_ONLY_BY = {"reachmon.data.gen_sequential": "monitor-sn",
                     "reachmon.monitor.continue_training": "train-lalo"}

END_TO_END = [
    ("setup_s", "s"), ("workflow_s", "s"), ("gen_windows_per_s", "windows/s"),
    ("train_s", "s"), ("active_s", "s"), ("eval_windows_per_s", "windows/s"),
    ("verdict_p50_ms", "ms"), ("verdict_p99_ms", "ms"),
    ("ukf_windows_per_s", "windows/s"), ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"), ("coverage_eps05", "fraction"),
    ("detection_rate", "fraction"), ("ukf_rel_err", "ratio"),
    ("success_rate", "fraction"),
]

_S = "s"
_N = "count"
PER_LAYER = [
    ("nets.conv1d.forward_s", _S), ("nets.conv1d.forward_calls", _N),
    ("nets.conv1d.backward_s", _S), ("nets.conv1d.backward_calls", _N),
    ("nets.conv1d.flops", "flop"),
    ("nets.dense.forward_s", _S), ("nets.dense.backward_s", _S),
    ("nets.adam.step_s", _S), ("nets.adam.steps", _N),
    ("nets.train_classifier_s", _S), ("nets.train_classifier_self_s", _S),
    ("nets.train_estimator_s", _S), ("nets.train_estimator_self_s", _S),
    ("nets.fine_tune_s", _S), ("nets.fine_tune_self_s", _S),
    ("nets.sample_epochs", _N), ("nets.fine_tune_reverted", _N),
    ("nets.predict_s", _S), ("nets.predict_self_s", _S), ("nets.predict_calls", _N),
    ("monitor.train_monitor_s", _S), ("monitor.train_monitor_self_s", _S),
    ("monitor.continue_training_s", _S), ("monitor.continue_training_self_s", _S),
    ("monitor.monitor_predict_s", _S),
    ("data.gen_s", _S), ("data.gen_self_s", _S), ("data.gen_calls", _N),
    ("data.simulate_s", _S), ("data.draw_s", _S), ("data.draw_calls", _N),
    ("data.windows_generated", _N), ("data.scale_s", _S), ("data.split_s", _S),
    ("data.save_s", _S), ("data.load_s", _S),
    ("benchmarks.dynamics_s", _S), ("benchmarks.dynamics_calls", _N),
    ("benchmarks.dynamics_rows", _N),
    ("reach.label_s", _S), ("reach.label_self_s", _S), ("reach.states_labelled", _N),
    ("storage.save_s", _S), ("storage.load_s", _S),
    ("storage.bytes_written", "B"), ("storage.bytes_read", "B"),
    ("pipeline.bundle_load_s", _S), ("pipeline.bundle_load_calls", _N),
    ("systems.step_batch_s", _S), ("systems.step_batch_self_s", _S),
    ("systems.step_batch_calls", _N), ("systems.step_batch_rows", _N),
    ("ukf.estimate_s", _S), ("ukf.estimate_self_s", _S), ("ukf.estimate_calls", _N),
    ("conformal.p_values_s", _S), ("conformal.p_values_calls", _N),
    ("conformal.p_values_rows", _N), ("conformal.regions_s", _S),
    ("conformal.regions_built", _N), ("conformal.coverage_s", _S),
    ("detect.reject_s", _S), ("detect.reject_calls", _N),
    ("detect.cv_labels_s", _S), ("detect.train_rule_s", _S),
    ("detect.rule_degenerate", _N),
    ("evaluate.calibration_scores_s", _S), ("evaluate.cp_evaluate_self_s", _S),
    ("evaluate.full_report_s", _S),
    ("active.query_s", _S), ("active.iteration_s", _S),
    ("active.iteration_self_s", _S), ("active.selected_ratio", "fraction"),
    ("stage.gen_s", _S), ("stage.train_s", _S), ("stage.eval_s", _S),
    ("stage.verdict_s", _S), ("stage.active_s", _S), ("stage.anomaly_s", _S),
    ("stage.compare_se_s", _S),
    ("share.train", "fraction"), ("share.gen", "fraction"),
    ("share.serve", "fraction"),
    ("trace.workflow_s", _S), ("trace.untraced_workflow_s", _S),
    ("trace.overhead_ratio", "ratio"), ("trace.spans", _N),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="smoke-test sizes (for the benchmark's own tests)")
    return p.parse_args(argv)


def git_commit(root):
    """Commit of a checkout that is a git repository, else ``unknown``."""
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(np, args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": git_commit(ROOT),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "short": args.short}


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--short"] if args.short else [])
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, *rest])
        worst = max(worst, done.returncode)
    return worst


def end_to_end(reps, import_s, setup_times, outcome):
    """Stage times are means over repetitions and rates are total work over
    total time.  On a machine whose speed switches between levels, a median
    over repetitions jumps with the level, while a mean follows the share of
    time spent at each level and varies less from run to run.

    ``verdict_p99_ms`` is the mean of each repetition's p99.
    ``verdict_p50_ms`` is the lowest median of ``P50_BLOCK`` consecutive
    verdicts: the batch-1 latency sits at one of two levels about 2x apart,
    switched by the machine every second or so, so a median over a whole
    repetition reads whichever level lasted longer (NOTES.md, "Clock")."""
    import numpy as np

    mean = statistics.fmean

    def rate(count, *stages):
        return (sum(r["counts"][count] for r in reps)
                / sum(r["times"][s] for r in reps for s in stages))

    def p99():
        per_rep = [np.percentile(r["latency"], 99) for r in reps if len(r["latency"])]
        return 1e3 * float(mean(per_rep)) if per_rep else math.nan

    def p50():
        blocks = [np.median(r["latency"][i:i + P50_BLOCK]) for r in reps
                  for i in range(0, len(r["latency"]) - P50_BLOCK + 1, P50_BLOCK)]
        return 1e3 * float(min(blocks)) if blocks else math.nan

    q = reps[0]["quality"]
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "workflow_s": mean(sum(r["times"].values()) for r in reps),
        "gen_windows_per_s": rate("gen", "gen"),
        "train_s": mean(r["times"]["train"] for r in reps),
        "active_s": mean(r["times"]["active"] for r in reps),
        "eval_windows_per_s": rate("eval", "eval", "anomaly"),
        "verdict_p50_ms": p50(),
        "verdict_p99_ms": p99(),
        "ukf_windows_per_s": rate("compare_se", "compare_se"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": q["accuracy"],
        "coverage_eps05": q["coverage_eps05"],
        "detection_rate": q["detection_rate"],
        "ukf_rel_err": q["ukf_rel_err"],
        "success_rate": 1.0 - outcome.failed / max(1, outcome.attempted),
    }


def expected_train_conv_calls(w, seed):
    """Conv1D forward calls of ``cmd_train`` computed from the sizes: every
    minibatch of the three training loops, the fine-tuning guard's two
    accuracy checks, and the calibration and rule-fit predictions."""
    from reachmon.benchmarks import get_spec
    from reachmon.monitor import TrainSchedule
    from reachmon.nets import build_classifier_spec, build_estimator_spec

    spec = get_spec(w.model)
    sched = TrainSchedule.for_profile("desk", seed=seed,
                                      epochs_scale=w.sizes.epochs_scale)

    def convs(netspec):
        return sum(layer["type"] == "conv" for layer in netspec["layers"])

    def batches(rows, opts):
        return math.ceil(rows / opts.batch_size) * opts.epochs

    c_nse = convs(build_estimator_spec(spec.obs_dim, spec.state_dim,
                                       spec.window_len, "desk"))
    c_nsc = convs(build_classifier_spec(spec.state_dim, spec.window_len, "desk"))
    n = w.sizes.n_train
    n_fit = n - max(1, int(n * 0.1))    # fine_tune's default guard slice
    return (batches(n, sched.estimator) * c_nse
            + batches(n, sched.classifier) * c_nsc
            + (batches(n_fit, sched.finetune) + 2 + 2) * (c_nse + c_nsc))


def traced_run(w, seed, run_dir, untraced_workflow_s, problems):
    """One traced repetition; returns the per-layer metrics."""
    from tracing import Tracer
    import workloads

    expected_conv = expected_train_conv_calls(w, seed)
    tracer = Tracer()
    problems += tracer.install(also=[workloads])
    outcome = workloads.Outcome()
    workdir = tempfile.mkdtemp(dir=run_dir)
    try:
        rep = workloads.run_workflow(w, seed, workdir, outcome, span=tracer.span)
    finally:
        tracer.uninstall()
    problems += workloads.check_workflow(w, workdir, rep) + outcome.errors

    def calls_in(stage, name):
        spans = tracer.inside({stage})
        return sum(1 for sid, (n, _, _) in tracer.durations().items()
                   if n == name and sid in spans)

    conv_in_train = calls_in("stage.train", "nets.conv1d.forward")
    if w.name == "train-lalo" and conv_in_train != expected_conv:
        problems.append(f"traced {conv_in_train} Conv1D forward calls in train, "
                        f"expected {expected_conv} from the sizes")
    # Every batch-1 verdict calls each of these once.
    for name in ("nets.predict", "conformal.p_values", "detect.reject"):
        seen = calls_in("stage.verdict", name)
        if seen != w.sizes.verdicts:
            problems.append(f"traced {seen} {name} calls in the verdict stage, "
                            f"expected {w.sizes.verdicts}")
    for target in tracer.targets:
        if tracer.counters.get("calls:" + target, 0) == 0 \
                and EXERCISED_ONLY_BY.get(target, w.name) == w.name:
            problems.append(f"traced target {target} recorded no call")

    os.makedirs(OUT_ROOT, exist_ok=True)
    tracer.write(os.path.join(OUT_ROOT, f"spans-{w.name}-seed{seed}.json"))
    metrics = dict(tracer.summary())
    metrics.update(tracer.counters)
    pool = metrics["active.pool"]
    metrics["active.selected_ratio"] = metrics["active.selected"] / pool if pool else 0.0
    shares = tracer.shares()
    base = shares["base"]
    for group in ("train", "gen", "serve"):
        metrics["share." + group] = shares[group] / base
    metrics["trace.workflow_s"] = sum(rep["times"].values())
    metrics["trace.untraced_workflow_s"] = untraced_workflow_s
    metrics["trace.overhead_ratio"] = metrics["trace.workflow_s"] / untraced_workflow_s
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, rep, outcome


def measure(w, seed, seconds, run_dir, outcome):
    """Repeat the workflow while the next repetition is predicted to end
    within ``seconds`` of wall time, and at least ``MIN_REPS`` times."""
    import workloads

    reps = []
    t0 = time.perf_counter()
    while True:
        workdir = tempfile.mkdtemp(dir=run_dir)
        rep = workloads.run_workflow(w, seed, workdir, outcome)
        rep["problems"] = workloads.check_workflow(w, workdir, rep)
        reps.append(rep)
        shutil.rmtree(workdir)
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reachmon", "__init__.py")):
        print(f"perfbench: no reachmon package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    t_import = time.process_time()
    import numpy as np
    import workloads
    import_s = time.process_time() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.short:
        w = w.short()
    env = environment(np, args)

    os.makedirs(TMP_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=TMP_ROOT)
    problems = []
    outcome = workloads.Outcome()
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = workloads.CLOCK()
            warm = workloads.Outcome()
            workdir = tempfile.mkdtemp(dir=run_dir)
            rep = workloads.run_workflow(w.short(), WARMUP_SEED, workdir, warm)
            setup_times.append(workloads.CLOCK() - t0)
            problems += [f"warm-up: {p}"
                         for p in workloads.check_workflow(w.short(), workdir, rep)]
            shutil.rmtree(workdir)
            problems += [f"warm-up: {e}" for e in warm.errors]

        reps = measure(w, args.seed, args.seconds, run_dir, outcome)
        for r in reps:
            problems += r["problems"]
        problems += outcome.errors
        for key in workloads.QUALITY:
            values = {r["quality"][key] for r in reps}
            if len(values) != 1:
                problems.append(f"{key} differs between repetitions with the "
                                f"same seed: {sorted(values)}")
        metrics = end_to_end(reps, import_s, setup_times, outcome)
        units = dict(END_TO_END)
        record = {"env": env, "reps": len(reps), "import_s": import_s,
                  "setup_times": setup_times,
                  "stage_times": [r["times"] for r in reps],
                  "stage_wall_times": [r["wall_times"] for r in reps],
                  "verdict_samples": sum(len(r["latency"]) for r in reps),
                  "verdict_rep_p50_ms": [1e3 * float(np.median(r["latency"]))
                                         for r in reps if len(r["latency"])],
                  "active_selected": [r["counts"]["active_selected"] for r in reps],
                  "warnings": outcome.warnings}
        if args.trace:
            layer, trep, toutcome = traced_run(w, args.seed, run_dir,
                                               metrics["workflow_s"], problems)
            for key in workloads.QUALITY:
                if trep["quality"][key] != reps[0]["quality"][key]:
                    problems.append(f"tracing changed {key}")
            record["all_layer_metrics"] = layer
            problems += [f"per-layer metric {name} was not produced"
                         for name, _ in PER_LAYER if name not in layer]
            metrics = {name: layer.get(name, math.nan) for name, _ in PER_LAYER}
            units = dict(PER_LAYER)
            attempted = outcome.attempted + toutcome.attempted
            failed = outcome.failed + toutcome.failed
        else:
            attempted, failed = outcome.attempted, outcome.failed
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
    problems = list(dict.fromkeys(problems))     # one line per distinct failure
    correct = not problems and failed == 0
    record.update(metrics=metrics, problems=problems, attempted=attempted,
                  failed=failed, correct=correct)
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=float)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{w.name}: {len(reps)} repetitions, {record['verdict_samples']} verdict "
          f"samples (closed loop, 1 client), total {time.perf_counter() - T_START:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
