"""Experiment configuration: a flat key-value text format, schema-validated.

Files hold one ``key = value`` assignment per line (``#`` starts a comment);
lists are comma-separated.  Example::

    model = ip
    mode = independent
    approach = two_step
    profile = desk
    seed = 0
    eps = 0.05, 0.1

Unknown keys, malformed values and out-of-range settings raise
:class:`ConfigError` so the CLI can exit with its config error code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

from .errors import ConfigError

_APPROACH_ALIASES = {"e2e": "end_to_end", "end-to-end": "end_to_end",
                     "end_to_end": "end_to_end", "two-step": "two_step",
                     "two_step": "two_step", "2step": "two_step"}
_MODE_ALIASES = {"ind": "independent", "independent": "independent",
                 "seq": "sequential", "sequential": "sequential"}


@dataclass
class ExperimentConfig:
    model: str = "ip"
    mode: str = "independent"
    approach: str = "two_step"
    profile: str = "desk"
    seed: int = 0
    eps: list = field(default_factory=lambda: [0.05])
    n: int = 7000
    windows_per_traj: int = 50
    seq_len: int = 32
    n_train: int = 5000
    n_calib: int = 1000
    n_test: int = 1000
    pool: int = 5000
    iters: int = 1
    warm: bool = True
    split_fraction: float = -1.0   # <0: preserve current ratio
    noise_scale: float = 10.0  # multiplies the observation-noise std
    k_folds: int = 5
    epochs_scale: float = 1.0
    n_se_points: int = 200
    data: str = ""
    bundle: str = ""
    out: str = ""

    def validate(self):
        if self.mode not in _MODE_ALIASES.values():
            raise ConfigError(f"mode must be independent|sequential, got {self.mode!r}")
        if self.approach not in _APPROACH_ALIASES.values():
            raise ConfigError(f"approach must be end_to_end|two_step, got {self.approach!r}")
        if self.profile not in ("desk", "paper"):
            raise ConfigError(f"profile must be desk|paper, got {self.profile!r}")
        for e in self.eps:
            if not 0.0 < e < 1.0:
                raise ConfigError(f"eps values must lie in (0, 1), got {e}")
        for key in ("n", "n_train", "n_calib", "n_test", "iters", "k_folds",
                    "seq_len"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be nonnegative")
        for key in ("windows_per_traj", "pool", "n_se_points"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        # comparisons with nan are false, so test finiteness first
        if not math.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise ConfigError(f"noise_scale must be finite and nonnegative, "
                              f"got {self.noise_scale}")
        if not self.model.startswith("linear:"):
            from .benchmarks import REGISTRY
            if self.model not in REGISTRY:
                raise ConfigError(f"unknown model {self.model!r}")
        return self

    def hash(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]


_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


def _coerce(key, raw, target):
    raw = raw.strip()
    try:
        if isinstance(target, bool):
            if raw.lower() not in _BOOL:
                raise ValueError(raw)
            return _BOOL[raw.lower()]
        if isinstance(target, int):
            return int(raw)
        if isinstance(target, float):
            return float(raw)
        if isinstance(target, list):
            items = [x.strip() for x in raw.split(",") if x.strip()]
            elem = target[0] if target else 0.0
            return [type(elem)(x) for x in items]
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from None


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse the key-value document into a validated config."""
    cfg = base or ExperimentConfig()
    defaults = ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, raw = line.partition("=")
        elif ":" in line:
            key, _, raw = line.partition(":")
        else:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if not hasattr(defaults, key):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        value = _coerce(key, raw, getattr(defaults, key))
        if key == "approach":
            value = _APPROACH_ALIASES.get(value, value)
        if key == "mode":
            value = _MODE_ALIASES.get(value, value)
        setattr(cfg, key, value)
    return cfg.validate()


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, base)


def normalize_approach(value: str) -> str:
    if value not in _APPROACH_ALIASES:
        raise ConfigError(f"approach must be one of {sorted(_APPROACH_ALIASES)}")
    return _APPROACH_ALIASES[value]


def normalize_mode(value: str) -> str:
    if value not in _MODE_ALIASES:
        raise ConfigError(f"mode must be one of {sorted(_MODE_ALIASES)}")
    return _MODE_ALIASES[value]
