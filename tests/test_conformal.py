import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachmon.conformal import (
    CalibrationSet,
    classification_p_values,
    classify_region,
    confidence_credibility,
    coverage,
    efficiency_classification,
    efficiency_regression,
    ncf_classification_batch,
    ncf_regression,
    p_values_batch,
    regress_region,
    regression_radius,
)
from reachmon.errors import InsufficientData, InvalidLikelihoods, ShapeError


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

    def test_regression_zero(self):
        x = np.arange(6.0).reshape(2, 3)
        assert ncf_regression(x, x) == 0.0

    def test_regression_345(self):
        assert ncf_regression(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(5.0)

    def test_regression_matches_recomputation(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        want = float(np.sqrt(((a - b) ** 2).sum()))
        assert abs(ncf_regression(a, b) - want) < 1e-12

    def test_regression_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ncf_regression(np.zeros(3), np.zeros(4))


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


class TestRegions:
    def test_classification_cases(self):
        assert classify_region(0.8, 0.1, 0.05).labels == {0, 1}
        assert classify_region(0.8, 0.1, 0.2).labels == {0}
        assert classify_region(0.8, 0.1, 0.9).labels == set()

    def test_regression_interval(self):
        calib = CalibrationSet(np.linspace(0.05, 1.0, 20))
        radius, unbounded = regression_radius(calib, 0.5)
        region = regress_region(np.array([2.0]), calib, 0.5)
        assert not unbounded
        assert region.width == pytest.approx(2 * radius)
        assert np.array([2.0 + radius - 1e-12]) in region
        assert np.array([2.0 + radius + 1e-3]) not in region

    def test_rank_arithmetic(self):
        calib = CalibrationSet(np.arange(1.0, 20.0))  # n = 19
        radius, unbounded = regression_radius(calib, 0.05)
        assert not unbounded and radius == 19.0

    def test_unbounded_flag(self):
        calib = CalibrationSet(np.arange(1.0, 11.0))  # n = 10
        radius, unbounded = regression_radius(calib, 0.05)
        assert unbounded and radius == np.inf
        region = regress_region(np.zeros(1), calib, 0.05)
        assert region.unbounded and np.array([1e9]) in region

    def test_empty_calibration(self):
        with pytest.raises(InsufficientData):
            regression_radius(CalibrationSet([]), 0.1)

    def test_regression_coverage_monte_carlo(self):
        rng = np.random.default_rng(2)
        calib = CalibrationSet(np.abs(rng.normal(size=2000)))
        test = np.abs(rng.normal(size=100_000))
        radius, _ = regression_radius(calib, 0.1)
        cov = (test <= radius).mean()
        assert 0.89 <= cov <= 0.91

    def test_nesting_classification(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p0, p1 = rng.uniform(size=2)
            prev = {0, 1}
            for eps in np.linspace(0.01, 0.99, 25):
                cur = classify_region(p0, p1, eps).labels
                assert cur <= prev
                prev = cur

    def test_nesting_regression(self):
        rng = np.random.default_rng(4)
        calib = CalibrationSet(rng.exponential(size=300))
        prev = np.inf
        for eps in np.linspace(0.01, 0.99, 50):
            radius, _ = regression_radius(calib, eps)
            assert radius <= prev
            prev = radius


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
                region = classify_region(p0, p1, eps)
                assert region.labels == {predicted}


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
        full = [classify_region(0.9, 0.9, 0.5) for _ in range(10)]
        assert coverage(full, [0, 1] * 5) == 1.0
        assert efficiency_classification(full) == 0.0
        singles = [classify_region(0.9, 0.1, 0.5) for _ in range(10)]
        assert coverage(singles, [0] * 10) == 1.0
        assert efficiency_classification(singles) == 1.0

    def test_efficiency_regression_mean_width(self):
        calib = CalibrationSet(np.linspace(0.1, 1.0, 100))
        regions = [regress_region(np.zeros(1), calib, e) for e in (0.2, 0.4)]
        want = np.mean([r.width for r in regions])
        assert efficiency_regression(regions) == pytest.approx(want)

    def test_empty_inputs_rejected(self):
        with pytest.raises(InsufficientData):
            coverage([], [])
        with pytest.raises(InsufficientData):
            efficiency_classification([])
