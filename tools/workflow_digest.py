"""Digest of every file the six-command CLI workflow writes.

Runs ``gen``, ``train``, ``eval``, ``active``, ``anomaly`` and
``compare-se`` on five small bundles (``ip`` end-to-end; ``lalo``,
sequential ``sn``, ``twt`` and ``cvdp`` two-step) and ``gen --n 0`` in both
generation modes, all under ``OUT``, then prints one ``sha256  path`` line
per file written, sorted by path.  Two runs that should write the same bytes
can be compared with ``diff``: two commits, or two interpreters started with
different ``PYTHONHASHSEED`` values.  ``bundle.json`` stores the absolute
data path, so compared runs must use the same ``OUT``.

    PYTHONPATH=src python tools/workflow_digest.py OUT > digest.txt

``OUT`` must be absent or empty.  Exits 1 when a command ends with an
unexpected exit status.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys

from reachmon import cli

CONFIG = ("epochs_scale = 0.07\nk_folds = 2\npool = 100\nn_se_points = 10\n"
          "eps = 0.05, 0.1\n")

# name -> (gen flags, train flags)
BUNDLES = {
    "ip-e2e": (["--model", "ip", "--n", "400"], ["--approach", "e2e"]),
    "lalo": (["--model", "lalo", "--n", "400"], []),
    "sn-seq": (["--model", "sn", "--mode", "seq", "--windows", "10",
                "--n", "400"], []),
    "twt": (["--model", "twt", "--n", "400"], []),
    "cvdp": (["--model", "cvdp", "--n", "400"], []),
}
EMPTY = {"empty-ind": ["--model", "ip", "--n", "0"],
         "empty-seq": ["--model", "sn", "--mode", "seq", "--windows", "10",
                       "--n", "0"]}


def commands(out):
    """``(argv, expected exit status)`` of every command, in order."""
    conf = ["--config", os.path.join(out, "workflow.conf")]
    for name, gen_flags in EMPTY.items():
        yield ["gen", *gen_flags, "--out", os.path.join(out, name)] + conf, cli.EXIT_OK
    for name, (gen_flags, train_flags) in BUNDLES.items():
        data, bundle = os.path.join(out, name, "data"), os.path.join(out, name, "bundle")
        yield ["gen", *gen_flags, "--seed", "3", "--out", data] + conf, cli.EXIT_OK
        yield (["train", "--data", data, "--out", bundle, "--n-train", "200",
                "--n-calib", "120", "--n-test", "80", *train_flags] + conf,
               cli.EXIT_OK)
        for cmd in ("eval", "active", "anomaly"):
            yield [cmd, "--bundle", bundle] + conf, cli.EXIT_OK
        # an end-to-end monitor has no estimator to compare with the UKF
        yield (["compare-se", "--bundle", bundle] + conf,
               cli.EXIT_CONFIG if "e2e" in train_flags else cli.EXIT_OK)


def digests(root):
    """``(relative path, sha256)`` of every file under ``root``, sorted."""
    out = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out.append((os.path.relpath(path, root),
                            hashlib.sha256(fh.read()).hexdigest()))
    return sorted(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    if os.path.exists(out) and os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "workflow.conf"), "w") as fh:
        fh.write(CONFIG)
    for argv_, want in commands(out):
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv_)
        if code != want:
            print(f"exit {code}, expected {want}: reachmon {' '.join(argv_)}",
                  file=sys.stderr)
            return 1
    for path, digest in digests(out):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
