"""Experiment orchestration: the six workflow stages behind the CLI.

Each command reads and writes versioned artifact directories: datasets
(:mod:`reachmon.data` containers) and bundles, which gather the dataset
splits, checkpoints, calibration scores, rejection rule and metrics of one
trained monitor.  Reports are CSV rows with a fixed column schema plus JSON
metric dumps; every row carries the config hash, seed and code version, and
reruns with equal hashes are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np

from . import __version__ as CODE_VERSION
from .active import ALState, al_iteration
from .benchmarks import get_spec
from .config import ExperimentConfig
from .conformal import CalibrationSet
from .data import Dataset, Scaler, gen_independent, gen_sequential, load, save, scale, split
from .detect import RejectionRule, cv_uncertainty_labels, train_rule
from .errors import ConfigError, MissingArtifact
from .evaluate import calibration_scores, dataset_hash, full_report
from .monitor import TrainSchedule, monitor_predict, train_monitor
from .nets import load_model, save_model
from .storage import load_container, save_container
from .ukf import UKFConfig, relative_error, ukf_estimate

REPORT_COLUMNS = ["model", "approach", "setting", "seed", "eps", "accuracy",
                  "detection", "fn", "fp", "rejection", "coverage",
                  "efficiency", "config_hash", "code_version"]

_SPLIT_STREAM = 0x53504C


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(round(value, 10))
    return str(value)


def write_csv(path, columns, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _report_row(cfg: ExperimentConfig, setting, seed, eps, det) -> dict:
    per = det["per_eps"][float(eps)]
    return {
        "model": cfg.model, "approach": cfg.approach, "setting": setting,
        "seed": seed, "eps": eps,
        "accuracy": det["accuracy"],
        "detection": det["detection_rate"],
        "fn": f"{det['fn_detected']}/{det['fn_total']}",
        "fp": f"{det['fp_detected']}/{det['fp_total']}",
        "rejection": det["rejection_rate"],
        "coverage": per["coverage"], "efficiency": per["efficiency"],
        "config_hash": cfg.hash(), "code_version": CODE_VERSION,
    }


# --- gen ----------------------------------------------------------------------

def cmd_gen(cfg: ExperimentConfig) -> str:
    """Generate and persist a labeled dataset; returns the output path."""
    if not cfg.out:
        raise ConfigError("gen requires an output path (--out)")
    spec = get_spec(cfg.model)
    if cfg.mode == "independent":
        ds = gen_independent(spec, cfg.n, seq_len=cfg.seq_len, seed=cfg.seed)
    else:
        if cfg.n % cfg.windows_per_traj:
            raise ConfigError(
                f"sequential n={cfg.n} must be a multiple of "
                f"windows_per_traj={cfg.windows_per_traj}")
        ds = gen_sequential(spec, cfg.n // cfg.windows_per_traj,
                            cfg.windows_per_traj, seq_len=cfg.seq_len,
                            seed=cfg.seed)
    save(ds, cfg.out)
    return cfg.out


# --- train --------------------------------------------------------------------

def _rule_from_monitor(monitor, calib_scaled, k_folds, seed):
    lik = monitor_predict(monitor, calib_scaled)["likelihoods"]
    feats, errs = cv_uncertainty_labels(
        lik, calib_scaled.labels, k_folds,
        np.random.default_rng([seed, 0x4356]))
    return train_rule(feats, errs, seed=seed)


def cmd_train(cfg: ExperimentConfig) -> str:
    """Split, scale, train, calibrate and fit the rejection rule; writes a
    bundle directory and returns its path."""
    if not cfg.data or not cfg.out:
        raise ConfigError("train requires --data and --out")
    dataset = load(cfg.data)
    # the dataset, not the config (``train`` has no --model), names the model
    cfg = replace(cfg, model=dataset.model_name)
    rng = np.random.default_rng([cfg.seed, _SPLIT_STREAM])
    train_ds, calib_ds, test_ds = split(dataset, cfg.n_train, cfg.n_calib,
                                        cfg.n_test, rng)
    scaler = Scaler.fit(train_ds)
    train_scaled = scale(train_ds, scaler)
    calib_scaled = scale(calib_ds, scaler)

    schedule = TrainSchedule.for_profile(cfg.profile, seed=cfg.seed,
                                         epochs_scale=cfg.epochs_scale)
    monitor = train_monitor(train_scaled, cfg.approach, schedule)
    calib = calibration_scores(monitor, calib_scaled)
    rule = _rule_from_monitor(monitor, calib_scaled, cfg.k_folds, cfg.seed)

    bundle = cfg.out
    save(train_ds, os.path.join(bundle, "datasets", "train"))
    save(calib_ds, os.path.join(bundle, "datasets", "calib"))
    save(test_ds, os.path.join(bundle, "datasets", "test"))
    save_model(monitor, os.path.join(bundle, "checkpoint"))
    save_container(os.path.join(bundle, "calibration"),
                   {"kind": "calibration", "size": calib.size},
                   {"scores": calib.scores})
    _write_json(os.path.join(bundle, "bundle.json"), {
        "kind": "bundle", "code_version": CODE_VERSION,
        "model": cfg.model, "mode": dataset.mode, "approach": cfg.approach,
        "profile": cfg.profile, "seed": cfg.seed,
        "counts": {"train": train_ds.n, "calib": calib_ds.n, "test": test_ds.n},
        "scaler": scaler.to_dict(), "rule": rule.to_dict(),
        "config_hash": cfg.hash(), "test_hash": dataset_hash(test_ds),
        "data_path": os.path.abspath(cfg.data),
        "loss_history": monitor.meta.get("loss_history", {}),
    })
    return bundle


# --- bundle loading -----------------------------------------------------------

class Bundle:
    """In-memory view of a bundle directory."""

    def __init__(self, path):
        meta_path = os.path.join(path, "bundle.json")
        if not os.path.isfile(meta_path):
            raise MissingArtifact(f"no bundle at {path}")
        with open(meta_path) as fh:
            self.meta = json.load(fh)
        self.path = path
        self.monitor = load_model(os.path.join(path, "checkpoint"))
        cal_meta, cal_arrays = load_container(os.path.join(path, "calibration"))
        self.calib = CalibrationSet(cal_arrays["scores"])
        self.scaler = Scaler.from_dict(self.meta["scaler"])
        self.rule = RejectionRule.from_dict(self.meta["rule"])
        self.train_ds = load(os.path.join(path, "datasets", "train"))
        self.calib_ds = load(os.path.join(path, "datasets", "calib"))
        self.test_ds = load(os.path.join(path, "datasets", "test"))

    @property
    def spec(self):
        return get_spec(self.meta["model"])

    def config(self, base: ExperimentConfig | None = None) -> ExperimentConfig:
        cfg = base or ExperimentConfig()
        cfg.model = self.meta["model"]
        cfg.mode = self.meta["mode"]
        cfg.approach = self.meta["approach"]
        cfg.profile = self.meta["profile"]
        cfg.seed = self.meta["seed"]
        return cfg


# --- eval ---------------------------------------------------------------------

def cmd_eval(cfg: ExperimentConfig) -> dict:
    """Evaluate a bundle on its test split at the configured epsilons."""
    if not cfg.bundle:
        raise ConfigError("eval requires --bundle")
    b = Bundle(cfg.bundle)
    cfg = b.config(cfg)
    test_scaled = scale(b.test_ds, b.scaler)
    det = full_report(b.monitor, b.calib, b.rule, test_scaled, cfg.eps,
                      seed=cfg.seed)
    rows = [_report_row(cfg, "initial", cfg.seed, eps, det) for eps in cfg.eps]
    write_csv(os.path.join(b.path, "reports", "eval.csv"), REPORT_COLUMNS, rows)
    sweep = [{"eps": eps,
              "coverage": det["per_eps"][float(eps)]["coverage"],
              "efficiency": det["per_eps"][float(eps)]["efficiency"]}
             for eps in cfg.eps]
    write_csv(os.path.join(b.path, "reports", "sweep.csv"),
              ["eps", "coverage", "efficiency"], sweep)
    _write_json(os.path.join(b.path, "reports", "eval.json"), {
        "config_hash": cfg.hash(), "code_version": CODE_VERSION,
        "seed": cfg.seed, "metrics": {k: v for k, v in det.items() if k != "_eval"},
        "thetas": det["_eval"]["thetas"],
    })
    return det


# --- active -------------------------------------------------------------------

def cmd_active(cfg: ExperimentConfig) -> list:
    """Run active-learning iterations on a bundle; returns the history."""
    if not cfg.bundle:
        raise ConfigError("active requires --bundle")
    b = Bundle(cfg.bundle)
    cfg = b.config(cfg)
    spec = b.spec
    schedule = TrainSchedule.for_profile(cfg.profile, seed=cfg.seed,
                                         epochs_scale=cfg.epochs_scale)
    state = ALState(monitor=b.monitor, calib=b.calib, rule=b.rule,
                    train_ds=b.train_ds, calib_ds=b.calib_ds, scaler=b.scaler,
                    approach=cfg.approach, schedule=schedule, seed=cfg.seed,
                    k_folds=cfg.k_folds)
    frac = None if cfg.split_fraction < 0 else cfg.split_fraction
    for it in range(cfg.iters):
        pool = gen_independent(spec, cfg.pool,
                               seed=int(np.random.default_rng(
                                   [cfg.seed, 0x504F4F, it]).integers(2 ** 31)))
        state = al_iteration(state, pool, b.test_ds, cfg.eps,
                             split_fraction=frac, warm=cfg.warm)

    out_dir = os.path.join(b.path, "active")
    save_model(state.monitor, os.path.join(out_dir, "checkpoint"))
    save_container(os.path.join(out_dir, "calibration"),
                   {"kind": "calibration", "size": state.calib.size},
                   {"scores": state.calib.scores})
    _write_json(os.path.join(out_dir, "state.json"),
                {"rule": state.rule.to_dict(), "iterations": state.iteration,
                 "n_train": state.train_ds.n, "n_calib": state.calib_ds.n})
    _write_json(os.path.join(b.path, "reports", "active.json"), {
        "config_hash": cfg.hash(), "code_version": CODE_VERSION,
        "history": state.history,
    })
    rows = []
    for rec in state.history:
        for phase in ("before", "after"):
            for eps in cfg.eps:
                rows.append({
                    "model": cfg.model, "approach": cfg.approach,
                    "setting": f"active_it{rec['iteration']}_{phase}",
                    "seed": cfg.seed, "eps": eps,
                    "accuracy": rec[phase]["accuracy"],
                    "detection": rec[phase]["detection_rate"],
                    "fn": "-", "fp": "-",
                    "rejection": rec[phase]["rejection_rate"],
                    "coverage": rec[phase][f"coverage@{eps}"],
                    "efficiency": rec[phase][f"efficiency@{eps}"],
                    "config_hash": cfg.hash(), "code_version": CODE_VERSION,
                })
    write_csv(os.path.join(b.path, "reports", "active.csv"), REPORT_COLUMNS, rows)
    return state.history


# --- anomaly ------------------------------------------------------------------

def anomalous_copy(ds: Dataset, spec, noise_scale: float) -> Dataset:
    """Test split with measurement noise rescaled by ``noise_scale``.

    The stored noise realization is recovered as (obs - observe_fn(state))
    and multiplied by the scale, so a scale of 1.0 reproduces the clean
    observations exactly.
    """
    n, L, _ = ds.obs.shape
    clean = spec.observe_fn(
        ds.states.astype(np.float64).reshape(n * L, -1),
        ds.modes.astype(np.int64).reshape(n * L),
    ).reshape(n, L, -1)
    noise = ds.obs.astype(np.float64) - clean
    return replace(ds, obs=(clean + noise_scale * noise).astype(np.float32))


def cmd_anomaly(cfg: ExperimentConfig) -> dict:
    """Paired clean / anomalous evaluation under rescaled observation noise."""
    if not cfg.bundle:
        raise ConfigError("anomaly requires --bundle")
    b = Bundle(cfg.bundle)
    cfg = b.config(cfg)
    spec = b.spec
    clean_scaled = scale(b.test_ds, b.scaler)
    anom_scaled = scale(anomalous_copy(b.test_ds, spec, cfg.noise_scale), b.scaler)
    det_clean = full_report(b.monitor, b.calib, b.rule, clean_scaled, cfg.eps,
                            seed=cfg.seed)
    det_anom = full_report(b.monitor, b.calib, b.rule, anom_scaled, cfg.eps,
                           seed=cfg.seed)
    rows = []
    for setting, det in (("clean", det_clean), ("anomaly", det_anom)):
        rows.extend(_report_row(cfg, setting, cfg.seed, eps, det)
                    for eps in cfg.eps)
    write_csv(os.path.join(b.path, "reports", "anomaly.csv"),
              REPORT_COLUMNS, rows)
    _write_json(os.path.join(b.path, "reports", "anomaly.json"), {
        "config_hash": cfg.hash(), "code_version": CODE_VERSION,
        "noise_scale": cfg.noise_scale,
        "clean": {k: v for k, v in det_clean.items() if k != "_eval"},
        "anomaly": {k: v for k, v in det_anom.items() if k != "_eval"},
    })
    return {"clean": det_clean, "anomaly": det_anom}


# --- compare state estimators ---------------------------------------------------

def cmd_compare_se(cfg: ExperimentConfig) -> dict:
    """Relative reconstruction error of the neural estimator vs the UKF."""
    if not cfg.bundle:
        raise ConfigError("compare-se requires --bundle")
    b = Bundle(cfg.bundle)
    cfg = b.config(cfg)
    if b.monitor.kind != "two_step":
        raise ConfigError("compare-se needs a two-step bundle (no estimator "
                          "in an end-to-end monitor)")
    spec = b.spec
    n_points = min(cfg.n_se_points, b.test_ds.n)
    subset = b.test_ds.subset(np.arange(n_points))
    sub_scaled = scale(subset, b.scaler)

    pred = monitor_predict(b.monitor, sub_scaled)
    est_scaled = pred["states_hat"].transpose(0, 2, 1)   # (N, L, state_dim)
    nse_states = b.scaler.unscale_states(est_scaled)
    ranges = b.scaler.state_ranges()

    ukf_cfg = UKFConfig()
    nse_err = np.empty(n_points)
    ukf_err = np.empty(n_points)
    for i in range(n_points):
        true_states = subset.states[i].astype(np.float64)
        nse_err[i] = relative_error(true_states, nse_states[i], ranges)
        ukf_states = ukf_estimate(spec, subset.obs[i].astype(np.float64), ukf_cfg)
        ukf_err[i] = relative_error(true_states, ukf_states, ranges)

    report = {
        "n_points": int(n_points),
        "nse_mean": float(nse_err.mean()), "nse_std": float(nse_err.std()),
        "ukf_mean": float(ukf_err.mean()), "ukf_std": float(ukf_err.std()),
    }
    write_csv(os.path.join(b.path, "reports", "compare_se.csv"),
              ["model", "estimator", "rel_err_mean", "rel_err_std", "n",
               "config_hash", "code_version"],
              [{"model": cfg.model, "estimator": "nse",
                "rel_err_mean": report["nse_mean"], "rel_err_std": report["nse_std"],
                "n": n_points, "config_hash": cfg.hash(),
                "code_version": CODE_VERSION},
               {"model": cfg.model, "estimator": "ukf",
                "rel_err_mean": report["ukf_mean"], "rel_err_std": report["ukf_std"],
                "n": n_points, "config_hash": cfg.hash(),
                "code_version": CODE_VERSION}])
    _write_json(os.path.join(b.path, "reports", "compare_se.json"),
                {"config_hash": cfg.hash(), "code_version": CODE_VERSION,
                 **report})
    return report
