"""Inductive conformal prediction for classification and regression.

Nonconformity scores from a held-out calibration set are ranked against a
test score to produce smoothed p-values

    p = (#{a_i > a*} + theta * (#{a_i = a*} + 1)) / (n + 1),

with a single tie-breaking ``theta`` drawn per test point and shared across
the candidate labels, which makes credibility exactly the p-value of the
predicted class.  Prediction regions keep the labels whose p-value exceeds
the significance level; regression regions are symmetric intervals around
the prediction with half-width equal to the floor(eps * (n+1))-th largest
calibration score (an explicit unbounded flag when that index falls below
one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidLikelihoods, ShapeError


@dataclass(frozen=True)
class CalibrationSet:
    """Sorted nonconformity scores of a calibration sample."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.scores, dtype=np.float64))
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("calibration scores must be finite")
        object.__setattr__(self, "scores", arr)

    @property
    def size(self):
        return int(self.scores.size)


@dataclass(frozen=True)
class ClassRegion:
    """Classification prediction region: a subset of {0, 1}."""

    labels: frozenset

    def __contains__(self, label):
        return label in self.labels

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class IntervalRegion:
    """Regression prediction region: center +- radius, possibly unbounded."""

    center: np.ndarray
    radius: float
    unbounded: bool = False

    @property
    def width(self):
        return np.inf if self.unbounded else 2.0 * self.radius

    def __contains__(self, value):
        if self.unbounded:
            return True
        return float(np.linalg.norm(np.asarray(value) - self.center)) <= self.radius


def ncf_classification_batch(likelihoods, labels) -> np.ndarray:
    """1 minus the likelihood each row of ``likelihoods`` (N, K) assigns to
    its label."""
    lik = np.asarray(likelihoods, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if (lik.ndim != 2 or (lik < -1e-9).any()
            or (np.abs(lik.sum(axis=1) - 1.0) > 1e-6).any()):
        raise InvalidLikelihoods("not normalized likelihood vectors")
    if ((labels < 0) | (labels >= lik.shape[1])).any():
        raise InvalidLikelihoods(f"labels out of range 0..{lik.shape[1] - 1}")
    return 1.0 - lik[np.arange(lik.shape[0]), labels]


def ncf_regression(predicted_seq, true_seq) -> float:
    """Euclidean norm of the flattened difference."""
    a = np.asarray(predicted_seq, dtype=np.float64)
    b = np.asarray(true_seq, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"sequence shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm((a - b).ravel()))


def p_values_batch(calib: CalibrationSet, alpha_stars, thetas) -> np.ndarray:
    """Smoothed p-values of test scores against the calibration set, one
    tie-breaking theta per score."""
    s = calib.scores
    a = np.asarray(alpha_stars, dtype=np.float64)
    t = np.asarray(thetas, dtype=np.float64)
    n_gt = s.size - np.searchsorted(s, a, side="right")
    n_eq = (s.size - np.searchsorted(s, a, side="left")) - n_gt
    return (n_gt + t * (n_eq + 1)) / (s.size + 1)


def classify_region(p0: float, p1: float, eps: float) -> ClassRegion:
    """Labels whose p-value exceeds the significance level."""
    return ClassRegion(frozenset(
        j for j, p in enumerate((p0, p1)) if p > eps))


def regression_radius(calib: CalibrationSet, eps: float) -> tuple[float, bool]:
    """Half-width for significance ``eps``: the floor(eps*(n+1))-th largest
    calibration score; (inf, True) when the rank falls below one."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    if calib.size == 0:
        raise InsufficientData("empty calibration set")
    k = int(np.floor(eps * (calib.size + 1)))
    if k < 1:
        return np.inf, True
    k = min(k, calib.size)
    return float(calib.scores[calib.size - k]), False


def regress_region(prediction, calib: CalibrationSet, eps: float) -> IntervalRegion:
    radius, unbounded = regression_radius(calib, eps)
    return IntervalRegion(center=np.asarray(prediction, dtype=np.float64),
                          radius=radius, unbounded=unbounded)


def confidence_credibility(p_values) -> np.ndarray:
    """Binary-case (confidence, credibility) rows from (N, 2) p-values:
    credibility is the larger p-value, confidence one minus the smaller."""
    pv = np.asarray(p_values, dtype=np.float64)
    return np.stack([1.0 - pv.min(axis=1), pv.max(axis=1)], axis=1)


def classification_p_values(calib: CalibrationSet, likelihoods,
                            thetas) -> np.ndarray:
    """P-values for every label of each test point, in one broadcast pass;
    one shared theta per point.  Returns (N, K)."""
    lik = np.asarray(likelihoods, dtype=np.float64)
    t = np.asarray(thetas, dtype=np.float64)
    return p_values_batch(calib, 1.0 - lik, t[:, None])


def coverage(regions, truths) -> float:
    """Fraction of regions containing the true target."""
    if len(regions) == 0:
        raise InsufficientData("no regions to score")
    if len(regions) != len(truths):
        raise ShapeError("regions and truths differ in length")
    return float(np.mean([t in r for r, t in zip(regions, truths)]))


def efficiency_classification(regions) -> float:
    """Fraction of singleton regions (higher is tighter)."""
    if len(regions) == 0:
        raise InsufficientData("no regions to score")
    return float(np.mean([len(r) == 1 for r in regions]))


def efficiency_regression(regions) -> float:
    """Mean interval width (smaller is tighter)."""
    if len(regions) == 0:
        raise InsufficientData("no regions to score")
    return float(np.mean([r.width for r in regions]))
