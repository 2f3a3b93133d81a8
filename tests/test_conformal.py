from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachmon import evaluate
from reachmon.conformal import (
    CalibrationSet,
    classification_p_values,
    classify_region,
    confidence_credibility,
    coverage,
    efficiency_classification,
    ncf_classification_batch,
    p_values_batch,
)
from reachmon.errors import InsufficientData, InvalidLikelihoods


def p_value_oracle(scores, alpha_star, theta):
    """Direct counting evaluation of the smoothed p-value formula."""
    n_gt = sum(1 for a in scores if a > alpha_star)
    n_eq = sum(1 for a in scores if a == alpha_star)
    return (n_gt + theta * (n_eq + 1)) / (len(scores) + 1)


class TestNcf:
    def test_perfect_prediction(self):
        assert ncf_classification_batch([[1.0, 0.0]], [0])[0] == 0.0

    def test_direct_formula(self):
        assert ncf_classification_batch([[0.3, 0.7]], [0])[0] == pytest.approx(0.7)

    def test_symmetric(self):
        assert list(ncf_classification_batch([[0.5, 0.5]] * 2, [0, 1])) == [0.5, 0.5]

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidLikelihoods):
            ncf_classification_batch([[0.3, 0.7], [0.5, 0.6]], [0, 0])
        with pytest.raises(InvalidLikelihoods):
            ncf_classification_batch([[1.2, -0.2]], [0])
        with pytest.raises(InvalidLikelihoods):
            ncf_classification_batch([0.3, 0.7], [0])
        with pytest.raises(InvalidLikelihoods):
            ncf_classification_batch([[0.3, 0.7]], [2])

    @pytest.mark.parametrize("row", [[np.nan, 0.5], [np.inf, 0.0],
                                     [0.5, -np.inf]])
    def test_non_finite_rejected(self, row):
        # comparisons with nan are false, so a nan row would pass both the
        # sign and the normalisation check and give a nan score
        with pytest.raises(InvalidLikelihoods, match="non-finite"):
            ncf_classification_batch([[0.3, 0.7], row], [0, 1])


class TestPValue:
    def test_quarter(self):
        calib = CalibrationSet([0.1, 0.2, 0.3])
        assert p_values_batch(calib, [0.25], [0.0])[0] == pytest.approx(0.25)

    def test_tie_case(self):
        calib = CalibrationSet([0.1, 0.2, 0.3])
        assert p_values_batch(calib, [0.2], [1.0])[0] == pytest.approx(0.75)

    def test_extreme_score(self):
        # score above every calibration value: no counts survive except the
        # smoothing term, so p = theta / (n + 1)
        calib = CalibrationSet([0.1, 0.2, 0.3])
        p = p_values_batch(calib, [0.9, 0.9], [0.0, 1.0])
        assert p[0] == 0.0 and p[1] == pytest.approx(0.25)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=200),
           st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_bitwise(self, scores, alpha, theta):
        calib = CalibrationSet(scores)
        assert (p_values_batch(calib, [alpha], [theta])[0]
                == p_value_oracle(scores, alpha, theta))

    def test_batch_matches_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=500)
        calib = CalibrationSet(scores)
        alphas = np.concatenate([rng.normal(size=100), scores[:20]])
        thetas = rng.uniform(size=120)
        batch = p_values_batch(calib, alphas, thetas)
        for i in range(120):
            assert batch[i] == p_value_oracle(scores, alphas[i], thetas[i])

    @pytest.mark.parametrize("k", [2, 3])
    def test_classification_matches_per_label_oracle(self, k):
        rng = np.random.default_rng(3)
        lik = rng.dirichlet(np.ones(k), size=200)
        # 1 - lik of the first 40 points are calibration scores: exact ties
        calib = CalibrationSet(np.concatenate(
            [rng.uniform(size=300), (1.0 - lik[:40]).ravel()]))
        thetas = rng.uniform(size=200)
        thetas[::7], thetas[3::7] = 0.0, 1.0
        oracle = np.stack([p_values_batch(calib, 1.0 - lik[:, j], thetas)
                           for j in range(k)], axis=1)
        pv = classification_p_values(calib, lik, thetas)
        assert pv.dtype == oracle.dtype and np.array_equal(pv, oracle)
        n_eq = [(calib.scores == a).sum() for a in (1.0 - lik[:40]).ravel()]
        assert min(n_eq) >= 1


def frozenset_regions(p_values, eps):
    """Reference regions: one frozenset of labels per window."""
    return [frozenset(j for j, p in enumerate(row) if p > eps)
            for row in p_values]


class TestRegions:
    def test_classification_cases(self):
        pv = [[0.8, 0.1]]
        assert classify_region(pv, 0.05).tolist() == [[True, True]]
        assert classify_region(pv, 0.2).tolist() == [[True, False]]
        assert classify_region(pv, 0.9).tolist() == [[False, False]]

    def test_nesting_classification(self):
        pv = np.random.default_rng(3).uniform(size=(200, 2))
        prev = np.ones(pv.shape, dtype=bool)
        for eps in np.linspace(0.01, 0.99, 25):
            cur = classify_region(pv, eps)
            assert not (cur & ~prev).any()
            prev = cur

    def test_cp_evaluate_matches_frozenset_regions(self, monkeypatch):
        # ties p == eps must fall outside the region, at every eps
        rng = np.random.default_rng(12)
        eps_list = [0.05, 0.1, 0.25, 0.5]
        pv = rng.uniform(size=(300, 2))
        pv[:60] = rng.choice(eps_list, size=(60, 2))
        truths = rng.integers(0, 2, size=300)
        monkeypatch.setattr(evaluate, "monitor_predict", lambda model, ds: {
            "labels": truths, "likelihoods": np.full((300, 2), 0.5)})
        monkeypatch.setattr(evaluate, "classification_p_values",
                            lambda calib, lik, thetas: pv)
        ds = SimpleNamespace(n=300, labels=truths.astype(np.uint8))
        per_eps = evaluate.cp_evaluate(None, None, ds, eps_list, seed=0)["per_eps"]
        for eps in eps_list:
            regions = frozenset_regions(pv, eps)
            assert per_eps[eps] == {
                "coverage": float(np.mean([t in r for r, t in zip(regions, truths)])),
                "efficiency": float(np.mean([len(r) == 1 for r in regions]))}


class TestUncertainty:
    def test_definitional(self):
        (confidence, credibility), = confidence_credibility([[0.8, 0.1]])
        assert confidence == pytest.approx(0.9)
        assert credibility == pytest.approx(0.8)

    def test_maximal_ambiguity(self):
        assert confidence_credibility([[0.5, 0.5]]).tolist() == [[0.5, 0.5]]

    def test_credibility_bounds_gamma(self):
        u = confidence_credibility(np.random.default_rng(5).uniform(size=(500, 2)))
        assert (u[:, 1] >= 1.0 - u[:, 0]).all()

    def test_singleton_band(self):
        # for eps in [gamma, credibility) the region is exactly the
        # predicted singleton
        rng = np.random.default_rng(6)
        for _ in range(1000):
            p0, p1 = rng.uniform(size=2)
            gamma, cred = min(p0, p1), max(p0, p1)
            predicted = int(p1 > p0)
            for eps in np.linspace(gamma, cred, 5, endpoint=False):
                if eps <= 0 or eps >= 1:
                    continue
                region = classify_region([[p0, p1]], eps)
                assert region.tolist() == [[predicted == 0, predicted == 1]]


class TestSharedTheta:
    def test_credibility_is_predicted_class_p_value(self):
        # one theta per test point, shared across labels: the predicted
        # class always carries the largest p-value
        rng = np.random.default_rng(7)
        calib = CalibrationSet(rng.uniform(size=300))
        lik = rng.dirichlet((1.0, 1.0), size=400)
        thetas = rng.uniform(size=400)
        pv = classification_p_values(calib, lik, thetas)
        predicted = lik.argmax(axis=1)
        assert (pv[np.arange(400), predicted]
                >= pv[np.arange(400), 1 - predicted]).all()


class TestValidityAndMetrics:
    def test_smoothed_p_values_uniform(self):
        rng = np.random.default_rng(8)
        calib = CalibrationSet(rng.exponential(size=5000))
        test = rng.exponential(size=10_000)
        thetas = rng.uniform(size=10_000)
        p = p_values_batch(calib, test, thetas)
        assert 0.48 <= p.mean() <= 0.52
        grid = np.linspace(0, 1, 200)
        ks = np.abs(np.searchsorted(np.sort(p), grid) / p.size - grid).max()
        assert ks < 0.03

    def test_classification_validity_monte_carlo(self):
        rng = np.random.default_rng(9)
        for eps in (0.05, 0.1):
            covered = []
            for _ in range(20):
                calib = CalibrationSet(rng.uniform(size=2000))
                test = rng.uniform(size=2000)
                thetas = rng.uniform(size=2000)
                p_true = p_values_batch(calib, test, thetas)
                covered.append((p_true > eps).mean())
            assert abs(np.mean(covered) - (1 - eps)) < 0.02

    def test_metric_extremes(self):
        full = classify_region(np.full((10, 2), 0.9), 0.5)
        assert coverage(full, [0, 1] * 5) == 1.0
        assert efficiency_classification(full) == 0.0
        singles = classify_region(np.tile([0.9, 0.1], (10, 1)), 0.5)
        assert coverage(singles, [0] * 10) == 1.0
        assert efficiency_classification(singles) == 1.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(InsufficientData):
            coverage([], [])
        with pytest.raises(InsufficientData):
            efficiency_classification([])
