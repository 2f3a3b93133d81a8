"""Paired before/after runs of the benchmark that ``BENCHMARK.json`` declares.

Extracts the parent revision with ``git archive`` into a temporary directory
(the repository's ``.git`` is only read), then runs ``perfbench/run.py`` of
the parent and of this checkout, working-tree edits included, for ``--pairs``
pairs.  Pair i runs every workload with seed ``--seed`` + i on both sides;
the parent runs first in even pairs and second in odd ones.  Each run's last
JSON line of standard output is its result.

For each workload and end-to-end metric it prints each side's median and
quartiles, the change in the medians, and the pairs the change wins, ties
and loses in the metric's ``better`` direction.  ``gain`` reads ``yes`` when
a gain may be claimed: the change wins at least nine tenths of the pairs and
the medians differ by more than the parent's interquartile range.

    python3 tools/paired_bench.py --parent HEAD~1 --pairs 10 --seed 1001

Exits 1 when a run gives no result or a result that is not ``correct``.
SIGTERM stops the current run and removes the extracted tree.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SIGTERM = {signal.SIGTERM}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare with")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    p.add_argument("--seconds", type=float,
                   help="length of each run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--short", action="store_true",
                   help="smoke-test sizes, passed on to perfbench/run.py")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def extract(rev, dest):
    """The tree of ``rev`` written under ``dest``; returns its commit."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], capture_output=True,
                            text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_once(tree, workload, seed, seconds, short):
    """The result of one ``perfbench/run.py`` run in ``tree``, or ``None``."""
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--short"] if short else [])
    # SIGTERM stays blocked from before the child starts until this process
    # is inside the block that kills the child, so the handler's exit cannot
    # land between the two; the child unblocks it before exec
    signal.pthread_sigmask(signal.SIG_BLOCK, _SIGTERM)
    try:
        with subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              preexec_fn=_unblock_sigterm) as child:
            try:
                _unblock_sigterm()
                stdout, stderr = child.communicate()
            except BaseException:
                child.kill()
                raise
    finally:
        _unblock_sigterm()
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    sys.stderr.write(stdout + stderr)
    return None


def _unblock_sigterm():
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _SIGTERM)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metric, better, parent, change):
    """One line comparing the ``parent`` and ``change`` values, in pairs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    losses = len(parent) - wins - ties
    med_p, med_c = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    rel = (med_c - med_p) / abs(med_p) if med_p else math.nan
    gain = wins >= 0.9 * len(parent) and sign * (med_c - med_p) > p3 - p1
    return (f"  {metric:20s} {med_p:11.5g} [{p1:.5g}, {p3:.5g}]"
            f"  {med_c:11.5g} [{c1:.5g}, {c3:.5g}]  {100 * rel:+7.1f} %"
            f"  {wins:>3d}/{ties:>2d}/{losses:<3d} {'yes' if gain else 'no'}")


def main(argv=None) -> int:
    # as SystemExit, SIGTERM makes ``run_once`` kill its child and the
    # temporary directory remove itself on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: {"parent": [], "change": []} for w in workloads}
    ok = True
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as parent_tree:
        commit = extract(args.parent, parent_tree)
        print(f"parent {commit}; change: the checkout at {ROOT}", flush=True)
        sides = [("parent", parent_tree), ("change", ROOT)]
        for i in range(args.pairs):
            seed = args.seed + i
            for w in workloads:
                for side, tree in sides if i % 2 == 0 else sides[::-1]:
                    res = run_once(tree, w, seed, seconds, args.short)
                    ok = ok and res is not None and res["correct"]
                    results[w][side].append(res)
                    status = ("no result" if res is None else
                              "correct" if res["correct"] else "NOT correct")
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {w} {side}: "
                          f"{status}", file=sys.stderr, flush=True)
    print("metric median [q1, q3] of the parent, then of the change; change "
          "in the medians; pairs won/tied/lost; gain")
    for w in workloads:
        print(f"== {w}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
              f"{seconds:g} s runs")
        parent, change = results[w]["parent"], results[w]["change"]
        if not all(parent + change):
            print("  (a run gave no result)")
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            print(summarize(name, m["better"],
                            [r["metrics"][name]["value"] for r in parent],
                            [r["metrics"][name]["value"] for r in change]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
