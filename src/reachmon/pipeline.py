"""Experiment orchestration: the six workflow stages behind the CLI.

Each command reads and writes versioned artifact directories: datasets
(:mod:`reachmon.data` containers) and bundles, which gather the dataset
splits, checkpoints, calibration scores, rejection rule and metrics of one
trained monitor.  A command's report is a JSON document and CSV rows read
from it, both stamped with the config hash and code version by one writer;
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
from .data import (SEQUENCE_LEN, Dataset, Scaler, gen_independent, gen_sequential,
                   load, save, scale, split)
from .detect import RejectionRule, check_folds
from .errors import ConfigError, InsufficientData, IntegrityError, MissingArtifact
from .evaluate import (RULE_STREAM, calibrate, dataset_hash, draw_thetas,
                       full_report, metric_row)
# unused here, but perfbench/selftest.py patches pipeline.monitor_predict
from .monitor import TrainSchedule, monitor_predict, obs_windows, train_monitor
from .nets import load_model, save_model
from .storage import load_container, read_json, require_keys, save_container
from .ukf import relative_error, ukf_estimate

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


def _stamp(cfg: ExperimentConfig) -> dict:
    return {"config_hash": cfg.hash(), "code_version": CODE_VERSION}


def _write_reports(bundle, name, cfg: ExperimentConfig, doc, rows,
                   columns=REPORT_COLUMNS):
    """``reports/<name>.json`` holding ``doc`` and ``reports/<name>.csv``
    holding ``rows``, each stamped with the config hash and code version."""
    stamp = _stamp(cfg)
    path = os.path.join(bundle, "reports", name)
    write_csv(path + ".csv", columns, [{**row, **stamp} for row in rows])
    _write_json(path + ".json", {**stamp, **doc})


def _report_rows(cfg: ExperimentConfig, setting, metrics, fn="-", fp="-") -> list:
    """One :data:`REPORT_COLUMNS` row per ε of ``cfg`` from a flat metric
    row (:func:`~reachmon.evaluate.metric_row`)."""
    return [{"model": cfg.model, "approach": cfg.approach, "setting": setting,
             "seed": cfg.seed, "eps": eps, "accuracy": metrics["accuracy"],
             "detection": metrics["detection_rate"], "fn": fn, "fp": fp,
             "rejection": metrics["rejection_rate"],
             "coverage": metrics[f"coverage@{eps}"],
             "efficiency": metrics[f"efficiency@{eps}"]} for eps in cfg.eps]


def _detection_rows(cfg: ExperimentConfig, setting, det) -> list:
    """:func:`_report_rows` of a full report, with its detected counts of
    false negatives and false positives."""
    fn, fp = (f"{det[k + '_detected']}/{det[k + '_total']}" for k in ("fn", "fp"))
    return _report_rows(cfg, setting, metric_row(det, cfg.eps), fn, fp)


def _schedule(cfg: ExperimentConfig) -> TrainSchedule:
    return TrainSchedule.for_profile(cfg.profile, seed=cfg.seed,
                                     epochs_scale=cfg.epochs_scale)


def _save_monitor(out_dir, monitor, calib: CalibrationSet):
    """The monitor's checkpoint and calibration scores under ``out_dir``."""
    save_model(monitor, os.path.join(out_dir, "checkpoint"))
    save_container(os.path.join(out_dir, "calibration"),
                   {"kind": "calibration", "size": calib.size},
                   {"scores": calib.scores})


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

def cmd_train(cfg: ExperimentConfig) -> str:
    """Split, scale, train, calibrate and fit the rejection rule; writes a
    bundle directory and returns its path."""
    if not cfg.data or not cfg.out:
        raise ConfigError("train requires --data and --out")
    check_folds(cfg.n_calib, cfg.k_folds)  # fail before training, not after
    if cfg.n_train == 0:
        raise InsufficientData("train needs a nonempty training split "
                               "(n_train = 0)")
    dataset = load(cfg.data)
    if dataset.scaled:
        raise ConfigError(f"{cfg.data} holds a scaled dataset; train takes "
                          "gen's unscaled one")
    # the dataset, not the config (``train`` has no --model), names the model
    cfg = replace(cfg, model=dataset.model_name)
    rng = np.random.default_rng([cfg.seed, _SPLIT_STREAM])
    train_ds, calib_ds, test_ds = split(dataset, cfg.n_train, cfg.n_calib,
                                        cfg.n_test, rng)
    scaler = Scaler.fit(train_ds)
    train_scaled = scale(train_ds, scaler)

    monitor = train_monitor(train_scaled, cfg.approach, _schedule(cfg))
    calib, rule = calibrate(monitor, scale(calib_ds, scaler), cfg.k_folds,
                            np.random.default_rng([cfg.seed, RULE_STREAM]),
                            cfg.seed)

    bundle = cfg.out
    save(train_ds, os.path.join(bundle, "datasets", "train"))
    save(calib_ds, os.path.join(bundle, "datasets", "calib"))
    save(test_ds, os.path.join(bundle, "datasets", "test"))
    _save_monitor(bundle, monitor, calib)
    _write_json(os.path.join(bundle, "bundle.json"), {
        **_stamp(cfg), "kind": "bundle", "model": cfg.model, "mode": dataset.mode,
        "approach": cfg.approach, "profile": cfg.profile, "seed": cfg.seed,
        "counts": {"train": train_ds.n, "calib": calib_ds.n, "test": test_ds.n},
        "scaler": scaler.to_dict(), "rule": rule.to_dict(),
        "test_hash": dataset_hash(test_ds),
        "data_path": os.path.abspath(cfg.data),
        "loss_history": monitor.meta.get("loss_history", {}),
    })
    return bundle


# --- bundle loading -----------------------------------------------------------

# what a bundle was trained with, which its commands run with
_RUN_KEYS = ("model", "mode", "approach", "profile", "seed")


class Bundle:
    """In-memory view of a bundle directory; a ``bundle.json`` that is not
    JSON, lacks a key or holds a value that does not load, a scaler or rule
    array whose length does not fit the checkpoint, or a calibration
    container without scores, raises ``IntegrityError``."""

    def __init__(self, path):
        meta_path = os.path.join(path, "bundle.json")
        if not os.path.isfile(meta_path):
            raise MissingArtifact(f"no bundle at {path}")
        self.meta = read_json(meta_path)
        require_keys(self.meta, ("scaler", "rule", *_RUN_KEYS), meta_path)
        self.path = path
        self.monitor = load_model(os.path.join(path, "checkpoint"))
        cal_path = os.path.join(path, "calibration")
        _, cal_arrays = load_container(cal_path)
        require_keys(cal_arrays, ("scores",), cal_path)
        self.calib = CalibrationSet(cal_arrays["scores"])
        self.train_ds = load(os.path.join(path, "datasets", "train"))
        self.calib_ds = load(os.path.join(path, "datasets", "calib"))
        self.test_ds = load(os.path.join(path, "datasets", "test"))
        try:
            self.scaler = Scaler.from_dict(self.meta["scaler"])
            self.rule = RejectionRule.from_dict(self.meta["rule"])
            self._check_shapes()
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"{meta_path}: malformed scaler or rule: "
                                 f"{exc!r}") from None

    def _check_shapes(self):
        """Raise ``ValueError`` unless each scaler array has one entry per
        observation or state channel of the checkpoint and each rule array
        one per rule feature; a short array would broadcast."""
        nets = self.monitor.nets
        obs = nets["nse" if "nse" in nets else "classifier"].spec["input_channels"]
        # an end-to-end checkpoint has no state channels: the scaler's state
        # arrays were fitted on the train split's
        state = (nets["nsc"].spec["input_channels"] if "nsc" in nets
                 else self.train_ds.state_dim)
        want = {"obs_min": obs, "obs_max": obs, "state_min": state,
                "state_max": state, "w": 2, "feat_mean": 2, "feat_std": 2}
        arrays = {**vars(self.scaler), "w": self.rule.w,
                  "feat_mean": self.rule.feat_mean, "feat_std": self.rule.feat_std}
        bad = {k: arrays[k].shape for k, n in want.items() if arrays[k].shape != (n,)}
        if bad:
            raise ValueError(f"array shapes {bad}; the checkpoint needs {want}")

    @property
    def spec(self):
        return get_spec(self.meta["model"])

    @classmethod
    def open(cls, cfg: ExperimentConfig, command: str):
        """The bundle ``cfg`` names, and a copy of ``cfg`` with the model,
        mode, approach, profile and seed the bundle was trained with; a run
        value that the config would reject, or a seed that is not an
        integer, raises ``IntegrityError``."""
        if not cfg.bundle:
            raise ConfigError(f"{command} requires --bundle")
        b = cls(cfg.bundle)
        try:
            if type(b.meta["seed"]) is not int:
                raise ConfigError(f"seed must be an integer, got "
                                  f"{b.meta['seed']!r}")
            run = ExperimentConfig(**{k: b.meta[k] for k in _RUN_KEYS}).validate()
        except (ConfigError, TypeError, AttributeError) as exc:
            raise IntegrityError(f"{os.path.join(cfg.bundle, 'bundle.json')}: "
                                 f"{exc}") from None
        return b, replace(cfg, **{k: getattr(run, k) for k in _RUN_KEYS})


# --- eval ---------------------------------------------------------------------

def cmd_eval(cfg: ExperimentConfig) -> dict:
    """Evaluate a bundle on its test split at the configured epsilons."""
    b, cfg = Bundle.open(cfg, "eval")
    test_scaled = scale(b.test_ds, b.scaler)
    det = full_report(b.monitor, b.calib, b.rule, test_scaled, cfg.eps,
                      seed=cfg.seed)
    _write_reports(b.path, "eval", cfg, {
        "seed": cfg.seed, "metrics": det,
        "thetas": draw_thetas(cfg.seed, test_scaled.n),
    }, _detection_rows(cfg, "initial", det))
    # the ε columns alone; ``perfbench/workloads.py: REPORTS`` lists the file
    write_csv(os.path.join(b.path, "reports", "sweep.csv"),
              ["eps", "coverage", "efficiency"],
              [{"eps": eps, **per} for eps, per in det["per_eps"].items()])
    return det


# --- active -------------------------------------------------------------------

def cmd_active(cfg: ExperimentConfig) -> list:
    """Run active-learning iterations on a bundle; returns the history."""
    b, cfg = Bundle.open(cfg, "active")
    state = ALState(monitor=b.monitor, calib=b.calib, rule=b.rule,
                    train_ds=b.train_ds, calib_ds=b.calib_ds, scaler=b.scaler,
                    schedule=_schedule(cfg), seed=cfg.seed, k_folds=cfg.k_folds)
    # the pool windows end as far from the initial box as the bundle's do:
    # at its seq_len, or SEQUENCE_LEN for a dataset saved without one; a
    # sequential bundle still gets independent windows
    seq_len = b.train_ds.generation.get("seq_len", SEQUENCE_LEN)
    for it in range(cfg.iters):
        pool = gen_independent(b.spec, cfg.pool, seq_len=seq_len,
                               seed=int(np.random.default_rng(
                                   [cfg.seed, 0x504F4F, it]).integers(2 ** 31)))
        state = al_iteration(state, pool, b.test_ds, cfg.eps,
                             split_fraction=cfg.split_fraction, warm=cfg.warm)

    out_dir = os.path.join(b.path, "active")
    _save_monitor(out_dir, state.monitor, state.calib)
    _write_json(os.path.join(out_dir, "state.json"),
                {"rule": state.rule.to_dict(), "iterations": state.iteration,
                 "n_train": state.train_ds.n, "n_calib": state.calib_ds.n})
    rows = [row for rec in state.history for phase in ("before", "after")
            for row in _report_rows(cfg, f"active_it{rec['iteration']}_{phase}",
                                    rec[phase])]
    _write_reports(b.path, "active", cfg, {"history": state.history}, rows)
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
    b, cfg = Bundle.open(cfg, "anomaly")
    if b.test_ds.n == 0:
        raise InsufficientData("anomaly needs a bundle with a nonempty test "
                               "split")
    splits = {"clean": b.test_ds,
              "anomaly": anomalous_copy(b.test_ds, b.spec, cfg.noise_scale)}
    dets = {setting: full_report(b.monitor, b.calib, b.rule, scale(ds, b.scaler),
                                 cfg.eps, seed=cfg.seed)
            for setting, ds in splits.items()}
    _write_reports(b.path, "anomaly", cfg, {"noise_scale": cfg.noise_scale, **dets},
                   [row for setting, det in dets.items()
                    for row in _detection_rows(cfg, setting, det)])
    return dets


# --- compare state estimators ---------------------------------------------------

def cmd_compare_se(cfg: ExperimentConfig) -> dict:
    """Relative reconstruction error of the neural estimator vs the UKF.

    Both estimators see the first ``n_se_points`` test windows: the NSE net
    runs once and the classifier not at all, the UKF in one lockstep bank.
    Each estimator's (N,) errors come from one :func:`relative_error` call
    on the whole stack; the report holds their mean and standard deviation.
    """
    b, cfg = Bundle.open(cfg, "compare-se")
    if b.monitor.kind != "two_step":
        raise ConfigError("compare-se needs a two-step bundle (no estimator "
                          "in an end-to-end monitor)")
    n_points = min(cfg.n_se_points, b.test_ds.n)
    if n_points == 0:
        raise InsufficientData("compare-se needs a bundle with a nonempty "
                               "test split")
    subset = b.test_ds.subset(np.arange(n_points))
    sub_scaled = scale(subset, b.scaler)

    est_scaled = b.monitor.nets["nse"].forward(
        obs_windows(sub_scaled)).transpose(0, 2, 1)   # (N, L, state_dim)
    nse_states = b.scaler.unscale_states(est_scaled)
    ranges = b.scaler.state_ranges()

    ukf_states = ukf_estimate(b.spec, subset.obs)
    true_states = subset.states.astype(np.float64)
    nse_err = relative_error(true_states, nse_states, ranges)
    ukf_err = relative_error(true_states, ukf_states, ranges)

    report = {
        "n_points": int(n_points),
        "nse_mean": float(nse_err.mean()), "nse_std": float(nse_err.std()),
        "ukf_mean": float(ukf_err.mean()), "ukf_std": float(ukf_err.std()),
    }
    _write_reports(b.path, "compare_se", cfg, report,
                   [{"model": cfg.model, "estimator": name,
                     "rel_err_mean": report[f"{name}_mean"],
                     "rel_err_std": report[f"{name}_std"],
                     "n": report["n_points"]} for name in ("nse", "ukf")],
                   ["model", "estimator", "rel_err_mean", "rel_err_std", "n",
                    "config_hash", "code_version"])
    return report
