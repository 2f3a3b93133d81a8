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
)
from .data import Dataset, Scaler, gen_independent, gen_sequential, load, save, scale, split
from .systems import HybridSystemSpec

__all__ = [
    "__version__", "get_spec", "load_linear_system", "CalibrationSet",
    "classify_region", "confidence_credibility", "coverage",
    "efficiency_classification",
    "Dataset", "Scaler", "gen_independent", "gen_sequential", "load", "save",
    "scale", "split", "HybridSystemSpec",
]
