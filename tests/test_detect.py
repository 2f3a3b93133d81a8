import numpy as np
import pytest

from reachmon.detect import (
    DegenerateRule,
    RejectionRule,
    cv_uncertainty_labels,
    detection_metrics,
    reject_batch,
    train_rule,
)
from reachmon.errors import InsufficientData, ShapeError


def _clouds(n=400, seed=0, gap=2.0):
    """Linearly separable (confidence, credibility) clouds."""
    rng = np.random.default_rng(seed)
    good = rng.normal([0.95, 0.8], 0.03, size=(n, 2))
    bad = rng.normal([0.95 - gap * 0.1, 0.8 - gap * 0.3], 0.03, size=(n // 8, 2))
    X = np.vstack([good, bad])
    y = np.concatenate([np.zeros(n, dtype=np.uint8),
                        np.ones(n // 8, dtype=np.uint8)])
    return X, y


class TestCvLabels:
    def _calib(self, n=500, err_rate=0.1, seed=0):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        lik = np.zeros((n, 2))
        wrong = rng.random(n) < err_rate
        conf = rng.uniform(0.7, 1.0, n)
        pred = np.where(wrong, 1 - labels, labels)
        lik[np.arange(n), pred] = conf
        lik[np.arange(n), 1 - pred] = 1 - conf
        return lik, labels, wrong

    def test_perfect_monitor_all_zero_bits(self):
        lik, labels, _ = self._calib(err_rate=0.0)
        _, errors = cv_uncertainty_labels(lik, labels, 5,
                                          np.random.default_rng(0))
        assert (errors == 0).all()

    def test_anti_monitor_all_one_bits(self):
        lik, labels, _ = self._calib(err_rate=1.0)
        _, errors = cv_uncertainty_labels(lik, labels, 5,
                                          np.random.default_rng(0))
        assert (errors == 1).all()

    def test_fold_partition(self):
        lik, labels, _ = self._calib(n=600)
        feats, errors = cv_uncertainty_labels(lik, labels, 5,
                                              np.random.default_rng(1))
        # every point scored exactly once: all features populated and valid
        assert feats.shape == (600, 2)
        assert np.isfinite(feats).all()
        assert (feats >= 0).all() and (feats <= 1).all()

    def test_small_fold_rejected(self):
        lik, labels, _ = self._calib(n=120)
        with pytest.raises(InsufficientData):
            cv_uncertainty_labels(lik, labels, 5, np.random.default_rng(0))

    def test_k_validation(self):
        lik, labels, _ = self._calib()
        with pytest.raises(ValueError):
            cv_uncertainty_labels(lik, labels, 1, np.random.default_rng(0))


def _ref_rule(X, y, reg=1e-3, lr=0.1, epochs=200, seed=0):
    """(w, b, meta) of the rule fit with a fancy-index gather per minibatch,
    which ``train_rule`` must reproduce exactly."""
    mean, std = X.mean(axis=0), X.std(axis=0)
    std[std == 0] = 1.0
    Xs = (X - mean) / std
    counts = np.bincount(y, minlength=2)
    t = np.where(y == 1, 1.0, -1.0)
    sample_w = (len(y) / (2.0 * counts))[y]
    rng = np.random.default_rng([seed, 0x5643])
    w, b, n, step = np.zeros(X.shape[1]), 0.0, len(y), 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, 64):
            idx = order[start:start + 64]
            step += 1
            eta = lr / (1.0 + lr * reg * step)
            margin = t[idx] * (Xs[idx] @ w + b)
            active = margin < 1.0
            coef = (sample_w[idx] * t[idx] * active) / len(idx)
            w = (1.0 - eta * reg) * w + eta * (coef @ Xs[idx])
            b = b + eta * coef.sum()
    return w, b, {"n": int(n), "n_errors": int(counts[1]), "reg": reg,
                  "epochs": epochs, "seed": seed}


class TestTrainRule:
    @pytest.mark.parametrize("n", [1000, 4000])
    @pytest.mark.parametrize("err_rate", [0.01, 0.05, 0.2])
    def test_matches_minibatch_gather_reference(self, n, err_rate):
        rng = np.random.default_rng(int(n * err_rate))
        y = (rng.uniform(size=n) < err_rate).astype(np.uint8)
        # overlapping clouds, so the hinge's active set changes from step to step
        X = rng.normal(size=(n, 2)) * 0.05 + np.array([0.9, 0.7]) \
            - 0.08 * y[:, None]
        rule = train_rule(X, y, seed=11)
        w, b, meta = _ref_rule(X, y, seed=11)
        assert np.array_equal(rule.w, w) and rule.b == b and rule.meta == meta

    def test_separable_clouds_zero_training_error(self):
        X, y = _clouds()
        rule = train_rule(X, y, seed=0)
        assert not rule.degenerate
        pred = reject_batch(rule, X)
        assert (pred == y.astype(bool)).mean() == 1.0

    def test_all_correct_monitor_degenerate_accepts(self):
        X, _ = _clouds()
        y = np.zeros(len(X), dtype=np.uint8)
        with pytest.warns(DegenerateRule):
            rule = train_rule(X, y, seed=0)
        assert rule.degenerate
        assert not reject_batch(rule, X).any()

    def test_all_error_degenerate_rejects(self):
        X, _ = _clouds()
        y = np.ones(len(X), dtype=np.uint8)
        with pytest.warns(DegenerateRule):
            rule = train_rule(X, y, seed=0)
        assert reject_batch(rule, X).all()

    def test_standardization_absorbs_feature_scaling(self):
        X, y = _clouds(seed=3)
        r1 = train_rule(X, y, seed=0)
        r2 = train_rule(X * 7.5, y, seed=0)
        assert np.array_equal(reject_batch(r1, X), reject_batch(r2, X * 7.5))

    def test_deterministic(self):
        X, y = _clouds(seed=4)
        r1 = train_rule(X, y, seed=5)
        r2 = train_rule(X, y, seed=5)
        assert np.array_equal(r1.w, r2.w) and r1.b == r2.b

    def test_serialization_round_trip(self):
        X, y = _clouds(seed=5)
        rule = train_rule(X, y, seed=0)
        back = RejectionRule.from_dict(rule.to_dict())
        assert np.array_equal(reject_batch(back, X), reject_batch(rule, X))

    def test_reject_batch_flags_each_row(self):
        X, y = _clouds(seed=6)
        rule = train_rule(X, y, seed=0)
        flags = reject_batch(rule, [[0.6, 0.1], [0.95, 0.8]])
        assert flags.dtype == bool and flags.tolist() == [True, False]


class TestDetectionMetrics:
    def test_reject_everything(self):
        pred = np.array([0, 1, 0, 1])
        true = np.array([0, 0, 1, 1])
        m = detection_metrics(pred, true, np.ones(4, dtype=bool))
        assert m["detection_rate"] == 1.0
        assert m["rejection_rate"] == 1.0

    def test_reject_nothing(self):
        pred = np.array([0, 1, 0, 1])
        true = np.array([0, 0, 1, 1])
        m = detection_metrics(pred, true, np.zeros(4, dtype=bool))
        assert m["detection_rate"] == 0.0
        assert m["rejection_rate"] == 0.0

    def test_confusion_decomposition_consistent(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 2, 500)
        true = rng.integers(0, 2, 500)
        rej = rng.random(500) < 0.3
        m = detection_metrics(pred, true, rej)
        assert m["fn_total"] + m["fp_total"] == m["n_errors"]
        detected = m["fn_detected"] + m["fp_detected"]
        assert detected == round(m["detection_rate"] * m["n_errors"])
        # accepted/rejected partition the test set
        accepted_errors = m["accepted_error_rate"] * (1 - m["rejection_rate"]) * m["n"]
        assert round(accepted_errors + detected) == m["n_errors"]

    def test_fn_fp_split(self):
        pred = np.array([0, 0, 1, 1, 0])
        true = np.array([1, 1, 0, 1, 0])
        rej = np.array([True, False, True, False, False])
        m = detection_metrics(pred, true, rej)
        assert (m["fn_detected"], m["fn_total"]) == (1, 2)
        assert (m["fp_detected"], m["fp_total"]) == (1, 1)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientData):
            detection_metrics([], [], [])
        with pytest.raises(ShapeError):
            detection_metrics([0], [0, 1], [False])
