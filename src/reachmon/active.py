"""Uncertainty-aware active learning.

The rejection rule is the query strategy: pool points whose cross-conformal
uncertainty it flags are added to the training and calibration sets at a
fixed split fraction (preserving the train:calibration ratio), the monitor
is retrained (warm-started by default), calibration scores are recomputed
from scratch, and the rule is refit.  The untouched test set is hashed each
iteration to rule out contamination.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .conformal import CalibrationSet
from .data import Dataset, Scaler, scale
from .detect import RejectionRule, reject_batch
from .evaluate import (QUERY_STREAM, RULE_STREAM, calibrate, cp_evaluate,
                       dataset_hash, full_report, metric_row)
from .monitor import MonitorModel, TrainSchedule, continue_training, train_monitor


@dataclass
class ALState:
    """Everything the retraining loop owns, plus its metric history."""

    monitor: MonitorModel
    calib: CalibrationSet
    rule: RejectionRule
    train_ds: Dataset
    calib_ds: Dataset
    scaler: Scaler
    schedule: TrainSchedule
    seed: int
    k_folds: int = 5
    iteration: int = 0
    test_hash: str | None = None
    history: list = field(default_factory=list)


def query(state: ALState, pool_ds: Dataset) -> np.ndarray:
    """Indices of pool points the current rule rejects (ascending order)."""
    if pool_ds.n == 0:
        raise ValueError("empty pool")
    pool_scaled = scale(pool_ds, state.scaler)
    ev = cp_evaluate(state.monitor, state.calib, pool_scaled, [],
                     seed=_query_seed(state))
    rejected = reject_batch(state.rule, ev["features"])
    return np.flatnonzero(rejected)


def _query_seed(state: ALState) -> int:
    return int(np.random.default_rng(
        [state.seed, QUERY_STREAM, state.iteration]).integers(2 ** 31))


def al_iteration(state: ALState, pool_ds: Dataset, test_ds: Dataset,
                 eps_list, split_fraction: float = -1.0,
                 warm: bool = True) -> ALState:
    """One retraining round; returns the advanced state.

    ``split_fraction`` is the share of queried points added to the training
    set; a negative value, the default, keeps the current train:(train+calib)
    ratio.  An empty selection is recorded as a no-op iteration.
    The ``before`` metrics of every round after the first are the previous
    round's ``after`` metrics, so all rounds of one state take the same
    ``eps_list``.
    """
    test_scaled = scale(test_ds, state.scaler)
    t_hash = dataset_hash(test_ds)
    if state.test_hash is None:
        state.test_hash = t_hash
    elif state.test_hash != t_hash:
        raise ValueError("test set changed between iterations")

    if state.history:
        # the previous round scored this monitor, calibration and rule on
        # the same test split with the same seed
        before_row = state.history[-1]["after"]
    else:
        before_row = metric_row(
            full_report(state.monitor, state.calib, state.rule, test_scaled,
                        eps_list, seed=state.seed), eps_list)
    selected = query(state, pool_ds)

    if split_fraction < 0:
        split_fraction = state.train_ds.n / (state.train_ds.n + state.calib_ds.n)

    row = {
        "iteration": state.iteration + 1,
        "n_pool": pool_ds.n,
        "n_selected": int(len(selected)),
        "selected_fraction": float(len(selected) / pool_ds.n),
        "split_fraction": float(split_fraction),
        "warm": warm,
        "test_hash": t_hash,
        "before": before_row,
    }

    if len(selected) == 0:
        row["after"] = row["before"]
        row["n_train"], row["n_calib"] = state.train_ds.n, state.calib_ds.n
        state.history.append(row)
        state.iteration += 1
        return state

    rng = np.random.default_rng([state.seed, QUERY_STREAM, state.iteration, 1])
    order = rng.permutation(len(selected))
    n_to_train = int(round(len(selected) * split_fraction))
    to_train = selected[np.sort(order[:n_to_train])]
    to_calib = selected[np.sort(order[n_to_train:])]

    state.train_ds = state.train_ds.concat(pool_ds.subset(to_train))
    state.calib_ds = state.calib_ds.concat(pool_ds.subset(to_calib))

    train_scaled = scale(state.train_ds, state.scaler)
    if warm:
        row["retrain"] = continue_training(state.monitor, train_scaled,
                                           state.schedule)
    else:
        seed = state.seed + state.iteration + 1
        s = state.schedule
        cold = replace(s, classifier=replace(s.classifier, seed=seed),
                       estimator=replace(s.estimator, seed=seed),
                       finetune=replace(s.finetune, seed=seed))
        state.monitor = train_monitor(train_scaled, state.monitor.kind, cold)
        row["retrain"] = {k: state.monitor.meta[k]
                          for k in ("loss_history", "finetune")
                          if k in state.monitor.meta}
    state.monitor.meta.update(row["retrain"])  # checkpoints show the last retrain

    state.calib, state.rule = calibrate(
        state.monitor, scale(state.calib_ds, state.scaler), state.k_folds,
        np.random.default_rng([state.seed, RULE_STREAM, state.iteration]),
        state.seed)

    after = full_report(state.monitor, state.calib, state.rule,
                        test_scaled, eps_list, seed=state.seed)
    row["after"] = metric_row(after, eps_list)
    row["n_train"], row["n_calib"] = state.train_ds.n, state.calib_ds.n
    row["ratio_before"] = float(row["n_train"] - len(to_train)) / max(
        1, row["n_calib"] - len(to_calib))
    row["ratio_after"] = row["n_train"] / max(1, row["n_calib"])
    state.history.append(row)
    state.iteration += 1
    return state
