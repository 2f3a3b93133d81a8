"""Command-line interface.

Subcommands mirror the experiment workflow: ``gen``, ``train``, ``eval``,
``active``, ``anomaly``, ``compare-se``.  Options can also come from a
``--config`` key-value file; explicit flags win.  Exit codes: 0 ok,
2 configuration error, 3 missing artifact, 4 numeric failure, 5 integrity
failure.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import ExperimentConfig, load_config, normalize_approach, normalize_mode
from .errors import (
    ConfigError,
    FilterDiverged,
    GenerationFailed,
    IntegrationDiverged,
    IntegrityError,
    MissingArtifact,
    NumericalError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4
EXIT_INTEGRITY = 5


def _base_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    return cfg


def _apply(cfg, args, mapping):
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _eps_list(raw):
    return [float(x) for x in raw.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="reachmon",
                                description="Predictive safety monitoring "
                                "of hybrid systems under noisy partial "
                                "observability")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a labeled dataset")
    g.add_argument("--model", required=True)
    g.add_argument("--mode", help="ind|seq (default ind)")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, help="default 0")
    g.add_argument("--windows", type=int, help="windows per trajectory (seq)")
    g.add_argument("--out", required=True)
    g.add_argument("--config")

    t = sub.add_parser("train", help="train a monitor bundle from a dataset")
    t.add_argument("--approach", help="e2e|two-step (default two-step)")
    t.add_argument("--profile", help="desk|paper (default desk)")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, help="default 0")
    t.add_argument("--n-train", type=int)
    t.add_argument("--n-calib", type=int)
    t.add_argument("--n-test", type=int)
    t.add_argument("--config")

    e = sub.add_parser("eval", help="conformal + detection report on a bundle")
    e.add_argument("--bundle", required=True)
    e.add_argument("--eps", type=_eps_list,
                   help="comma-separated list (default 0.05)")
    e.add_argument("--config")

    a = sub.add_parser("active", help="active-learning iterations on a bundle")
    a.add_argument("--bundle", required=True)
    a.add_argument("--pool", type=int, help="default 5000")
    a.add_argument("--iters", type=int, help="default 1")
    a.add_argument("--eps", type=_eps_list,
                   help="comma-separated list (default 0.05)")
    a.add_argument("--cold", action="store_true", help="retrain from scratch")
    a.add_argument("--config")

    an = sub.add_parser("anomaly", help="clean vs noise-rescaled evaluation")
    an.add_argument("--bundle", required=True)
    an.add_argument("--noise-scale", type=float, help="default 10")
    an.add_argument("--eps", type=_eps_list,
                    help="comma-separated list (default 0.05)")
    an.add_argument("--config")

    c = sub.add_parser("compare-se", help="neural estimator vs UKF")
    c.add_argument("--bundle", required=True)
    c.add_argument("--n-points", type=int)
    c.add_argument("--config")
    return p


def run(args) -> int:
    cfg = _base_config(args)
    cmd = args.command
    if cmd == "gen":
        cfg = _apply(cfg, args, {"model": "model", "n": "n", "seed": "seed",
                                 "out": "out", "windows": "windows_per_traj"})
        if args.mode is not None:
            cfg.mode = normalize_mode(args.mode)
        cfg.validate()
        out = pipeline.cmd_gen(cfg)
        print(f"dataset written to {out}")
    elif cmd == "train":
        cfg = _apply(cfg, args, {"data": "data", "out": "out", "seed": "seed",
                                 "profile": "profile", "n_train": "n_train",
                                 "n_calib": "n_calib", "n_test": "n_test"})
        if args.approach is not None:
            cfg.approach = normalize_approach(args.approach)
        cfg.validate()
        out = pipeline.cmd_train(cfg)
        print(f"bundle written to {out}")
    elif cmd == "eval":
        cfg = _apply(cfg, args, {"bundle": "bundle", "eps": "eps"})
        cfg.validate()
        det = pipeline.cmd_eval(cfg)
        for eps in cfg.eps:
            per = det["per_eps"][float(eps)]
            print(f"eps={eps}: accuracy={det['accuracy']:.4f} "
                  f"detection={det['detection_rate']:.4f} "
                  f"rejection={det['rejection_rate']:.4f} "
                  f"coverage={per['coverage']:.4f} "
                  f"efficiency={per['efficiency']:.4f}")
    elif cmd == "active":
        cfg = _apply(cfg, args, {"bundle": "bundle", "pool": "pool",
                                 "iters": "iters", "eps": "eps"})
        if args.cold:
            cfg.warm = False
        cfg.validate()
        history = pipeline.cmd_active(cfg)
        for rec in history:
            print(f"iteration {rec['iteration']}: selected {rec['n_selected']} "
                  f"of {rec['n_pool']}; rejection "
                  f"{rec['before']['rejection_rate']:.4f} -> "
                  f"{rec['after']['rejection_rate']:.4f}")
    elif cmd == "anomaly":
        cfg = _apply(cfg, args, {"bundle": "bundle", "noise_scale": "noise_scale",
                                 "eps": "eps"})
        cfg.validate()
        out = pipeline.cmd_anomaly(cfg)
        for setting in ("clean", "anomaly"):
            det = out[setting]
            print(f"{setting}: accuracy={det['accuracy']:.4f} "
                  f"rejection={det['rejection_rate']:.4f}")
    elif cmd == "compare-se":
        cfg = _apply(cfg, args, {"bundle": "bundle", "n_points": "n_se_points"})
        cfg.validate()
        rep = pipeline.cmd_compare_se(cfg)
        print(f"nse rel err {rep['nse_mean']:.4f} +- {rep['nse_std']:.4f}; "
              f"ukf rel err {rep['ukf_mean']:.4f} +- {rep['ukf_std']:.4f}")
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {cmd!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (NumericalError, IntegrationDiverged, FilterDiverged,
            GenerationFailed) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
