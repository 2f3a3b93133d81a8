"""reachmon: learning-based predictive safety monitoring of hybrid systems
under noisy partial observability, with conformal guarantees."""

__version__ = "0.1.0"

from .benchmarks import get_spec, load_linear_system
from .conformal import (
    CalibrationSet,
    classify_region,
    confidence_credibility,
    coverage,
    efficiency_classification,
    efficiency_regression,
    ncf_regression,
    regress_region,
)
from .data import Dataset, Scaler, gen_independent, gen_sequential, load, save, scale, split, unscale
from .reach import label_window, reach_label
from .systems import HybridState, HybridSystemSpec, Trajectory, observe, sample_initial, simulate, step

__all__ = [
    "__version__", "get_spec", "load_linear_system", "CalibrationSet",
    "classify_region", "confidence_credibility", "coverage",
    "efficiency_classification", "efficiency_regression", "ncf_regression",
    "regress_region",
    "Dataset", "Scaler", "gen_independent", "gen_sequential", "load", "save",
    "scale", "split", "unscale", "label_window", "reach_label",
    "HybridState", "HybridSystemSpec", "Trajectory", "observe",
    "sample_initial", "simulate", "step",
]
