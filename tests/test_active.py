from dataclasses import replace

import numpy as np
import pytest

from reachmon.active import ALState, al_iteration, query
from reachmon.data import Scaler, gen_independent, scale
from reachmon.detect import RejectionRule, cv_uncertainty_labels, train_rule
from reachmon.errors import NumericalError
from reachmon.evaluate import calibration_scores
from reachmon.monitor import (TrainSchedule, continue_training, monitor_predict,
                              train_monitor)
from reachmon.nets import MonitorModel, Network, build_classifier_spec


@pytest.fixture(scope="module")
def al_setup(small_ip_splits_module):
    return small_ip_splits_module


@pytest.fixture(scope="module")
def small_ip_splits_module():
    from reachmon import get_spec
    from reachmon.data import split
    ds = gen_independent(get_spec("ip"), 1600, seed=21)
    rng = np.random.default_rng(21)
    tr, ca, te = split(ds, 800, 400, 400, rng)
    sc = Scaler.fit(tr)
    sched = TrainSchedule.for_profile("desk", seed=21)
    sched.classifier.epochs = 20
    monitor = train_monitor(scale(tr, sc), "end_to_end", sched)
    calib = calibration_scores(monitor, scale(ca, sc))
    lik = monitor_predict(monitor, scale(ca, sc))["likelihoods"]
    feats, errs = cv_uncertainty_labels(lik, ca.labels, 5,
                                        np.random.default_rng(77))
    rule = train_rule(feats, errs, seed=21)
    pool = gen_independent(get_spec("ip"), 600, seed=900)
    return {"train": tr, "calib": ca, "test": te, "scaler": sc,
            "monitor": monitor, "calibset": calib, "rule": rule,
            "schedule": sched, "pool": pool}


def _fresh_state(s, rule=None):
    return ALState(monitor=s["monitor"], calib=s["calibset"],
                   rule=rule if rule is not None else s["rule"],
                   train_ds=s["train"], calib_ds=s["calib"],
                   scaler=s["scaler"], approach="end_to_end",
                   schedule=s["schedule"], seed=21)


def _constant_rule(reject_all):
    return RejectionRule(w=np.zeros(2), b=1.0 if reject_all else -1.0,
                         feat_mean=np.zeros(2), feat_std=np.ones(2),
                         degenerate=True)


class TestQuery:
    def test_reject_nothing_empty_selection(self, al_setup):
        state = _fresh_state(al_setup, rule=_constant_rule(False))
        assert len(query(state, al_setup["pool"])) == 0

    def test_reject_everything_selects_pool(self, al_setup):
        state = _fresh_state(al_setup, rule=_constant_rule(True))
        sel = query(state, al_setup["pool"])
        assert len(sel) == al_setup["pool"].n

    def test_empty_pool_rejected(self, al_setup):
        state = _fresh_state(al_setup)
        with pytest.raises(ValueError):
            query(state, al_setup["pool"].subset([]))

    def test_selection_deterministic(self, al_setup):
        state = _fresh_state(al_setup)
        a = query(state, al_setup["pool"])
        b = query(state, al_setup["pool"])
        assert np.array_equal(a, b)
        assert (np.diff(a) > 0).all()  # ascending order


class TestIteration:
    def test_noop_iteration(self, al_setup):
        state = _fresh_state(al_setup, rule=_constant_rule(False))
        n_tr, n_ca = state.train_ds.n, state.calib_ds.n
        state = al_iteration(state, al_setup["pool"], al_setup["test"], [0.05])
        assert state.iteration == 1
        rec = state.history[0]
        assert rec["n_selected"] == 0
        assert rec["before"] == rec["after"]
        assert (state.train_ds.n, state.calib_ds.n) == (n_tr, n_ca)

    def test_growth_and_ratio(self, al_setup):
        state = _fresh_state(al_setup, rule=_constant_rule(True))
        ratio_before = state.train_ds.n / state.calib_ds.n
        state = al_iteration(state, al_setup["pool"], al_setup["test"], [0.05])
        rec = state.history[0]
        assert rec["n_selected"] == al_setup["pool"].n
        assert state.train_ds.n + state.calib_ds.n == 1200 + 600
        ratio_after = state.train_ds.n / state.calib_ds.n
        assert abs(ratio_after - ratio_before) / ratio_before < 0.01

    def test_calibration_recomputed_over_enlarged_set(self, al_setup):
        state = _fresh_state(al_setup, rule=_constant_rule(True))
        old_calib_n = state.calib.size
        state = al_iteration(state, al_setup["pool"], al_setup["test"], [0.05])
        added = state.calib_ds.n - al_setup["calib"].n
        assert state.calib.size == old_calib_n + added

    def test_test_contamination_guard(self, al_setup):
        state = _fresh_state(al_setup, rule=_constant_rule(False))
        state = al_iteration(state, al_setup["pool"], al_setup["test"], [0.05])
        with pytest.raises(ValueError):
            al_iteration(state, al_setup["pool"],
                         al_setup["test"].subset(np.arange(100)), [0.05])

    def test_history_metrics_present(self, al_setup):
        state = _fresh_state(al_setup)
        state = al_iteration(state, al_setup["pool"], al_setup["test"],
                             [0.05, 0.1])
        rec = state.history[0]
        for phase in ("before", "after"):
            for key in ("accuracy", "detection_rate", "rejection_rate",
                        "coverage@0.05", "efficiency@0.1"):
                assert key in rec[phase]


class TestContinueTraining:
    def test_divergence_aborts(self, small_ip_splits):
        # as for train_classifier, only extreme magnitudes make Adam's
        # bounded steps drive the scores non-finite
        ds = small_ip_splits["train_scaled"]
        ds = replace(ds, obs=ds.obs * np.float32(1e30))
        sched = TrainSchedule.for_profile("desk", seed=0)
        sched.classifier.lr, sched.classifier.epochs = 1e120, 5
        net = Network(build_classifier_spec(ds.obs_dim, ds.window_len, "desk"))
        model = MonitorModel(kind="end_to_end", nets={"classifier": net})
        with pytest.raises(NumericalError), np.errstate(all="ignore"):
            continue_training(model, ds, sched)
