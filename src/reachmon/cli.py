"""Command-line interface.

Subcommands mirror the experiment workflow: ``gen``, ``train``, ``eval``,
``active``, ``anomaly``, ``compare-se``.  Options can also come from a
``--config`` key-value file; explicit flags win.  Each error class of
:mod:`reachmon.errors` carries the exit status and stderr prefix it ends a
command with.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import pipeline
from .config import CHOICES, ExperimentConfig, float_list, load_config
from .errors import (ConfigError, IntegrityError, MissingArtifact, NumericalError,
                     ReachmonError)

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_status
EXIT_MISSING = MissingArtifact.exit_status
EXIT_NUMERIC = NumericalError.exit_status
EXIT_INTEGRITY = IntegrityError.exit_status


def _default(dest, about="") -> str:
    """Help text for the flag that sets field ``dest``: ``about`` (for a
    choice field, the spellings it accepts) and the field's default."""
    value = getattr(ExperimentConfig(), dest)
    about = "|".join(CHOICES[dest]) if dest in CHOICES else about
    value = ",".join(map(str, value)) if isinstance(value, list) else value
    return f"{about} (default {value})" if about else f"default {value}"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="reachmon",
                                description="Predictive safety monitoring "
                                "of hybrid systems under noisy partial "
                                "observability")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a labeled dataset")
    g.add_argument("--model", required=True)
    g.add_argument("--mode", help=_default("mode"))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, help=_default("seed"))
    g.add_argument("--windows", type=int, dest="windows_per_traj",
                   metavar="WINDOWS", help=_default(
                       "windows_per_traj", "windows per trajectory in seq mode"))
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train a monitor bundle from a dataset")
    t.add_argument("--approach", help=_default("approach"))
    t.add_argument("--profile", help=_default("profile"))
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, help=_default("seed"))
    t.add_argument("--n-train", type=int, help=_default("n_train"))
    t.add_argument("--n-calib", type=int, help=_default("n_calib"))
    t.add_argument("--n-test", type=int, help=_default("n_test"))

    e = sub.add_parser("eval", help="conformal + detection report on a bundle")
    e.add_argument("--bundle", required=True)

    a = sub.add_parser("active", help="active-learning iterations on a bundle")
    a.add_argument("--bundle", required=True)
    a.add_argument("--pool", type=int, help=_default("pool"))
    a.add_argument("--iters", type=int, help=_default("iters"))
    a.add_argument("--cold", dest="warm", action="store_false", default=None,
                   help="retrain from scratch")

    an = sub.add_parser("anomaly", help="clean vs noise-rescaled evaluation")
    an.add_argument("--bundle", required=True)
    an.add_argument("--noise-scale", type=float, help=_default("noise_scale"))

    c = sub.add_parser("compare-se", help="neural estimator vs UKF")
    c.add_argument("--bundle", required=True)
    c.add_argument("--n-points", type=int, dest="n_se_points",
                   metavar="N_POINTS", help=_default("n_se_points"))

    # after each command's own flags: the ε list of the commands that report
    # at each ε, and the config file of every command
    for name, sp in sub.choices.items():
        if name in ("eval", "active", "anomaly"):
            sp.add_argument("--eps", type=float_list,
                            help=_default("eps", "comma-separated list"))
        sp.add_argument("--config")
    return p


def run(args) -> int:
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    # each flag's dest is the field it sets; a flag not given is None
    for f in fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    cmd = args.command
    if cmd == "gen":
        print(f"dataset written to {pipeline.cmd_gen(cfg)}")
    elif cmd == "train":
        print(f"bundle written to {pipeline.cmd_train(cfg)}")
    elif cmd == "eval":
        det = pipeline.cmd_eval(cfg)
        for eps in cfg.eps:
            per = det["per_eps"][float(eps)]
            print(f"eps={eps}: accuracy={det['accuracy']:.4f} "
                  f"detection={det['detection_rate']:.4f} "
                  f"rejection={det['rejection_rate']:.4f} "
                  f"coverage={per['coverage']:.4f} "
                  f"efficiency={per['efficiency']:.4f}")
    elif cmd == "active":
        for rec in pipeline.cmd_active(cfg):
            print(f"iteration {rec['iteration']}: selected {rec['n_selected']} "
                  f"of {rec['n_pool']}; rejection "
                  f"{rec['before']['rejection_rate']:.4f} -> "
                  f"{rec['after']['rejection_rate']:.4f}")
    elif cmd == "anomaly":
        for setting, det in pipeline.cmd_anomaly(cfg).items():
            print(f"{setting}: accuracy={det['accuracy']:.4f} "
                  f"rejection={det['rejection_rate']:.4f}")
    else:  # compare-se; argparse allows no other command
        rep = pipeline.cmd_compare_se(cfg)
        print(f"nse rel err {rep['nse_mean']:.4f} +- {rep['nse_std']:.4f}; "
              f"ukf rel err {rep['ukf_mean']:.4f} +- {rep['ukf_std']:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ReachmonError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
