"""Experiment configuration: a flat key-value text format, schema-validated.

Files hold one ``key = value`` assignment per line (``#`` starts a comment);
lists are comma-separated.  Example::

    model = ip
    mode = independent
    approach = two_step
    profile = desk
    seed = 0
    eps = 0.05, 0.1

Each field's accepted spellings live in :data:`CHOICES` and each numeric
field's closed range in :data:`RANGES`; :meth:`ExperimentConfig.validate`
checks ``model`` and ``eps`` itself, and ``warm`` and the paths are free-form.
Unknown keys, malformed values and out-of-range settings raise
:class:`ConfigError` so the CLI can exit with its config error code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

from .errors import ConfigError

# field -> {accepted spelling: canonical value}
CHOICES = {
    "mode": {"ind": "independent", "independent": "independent",
             "seq": "sequential", "sequential": "sequential"},
    "approach": {"e2e": "end_to_end", "end-to-end": "end_to_end",
                 "end_to_end": "end_to_end", "two-step": "two_step",
                 "two_step": "two_step", "2step": "two_step"},
    "profile": {"desk": "desk", "paper": "paper"},
}

# field -> (lo, hi), both included; every value must also be finite
RANGES = {
    "seed": (0, math.inf),
    "n": (0, math.inf),
    "windows_per_traj": (1, math.inf),
    "seq_len": (0, math.inf),
    "n_train": (0, math.inf),
    "n_calib": (0, math.inf),
    "n_test": (0, math.inf),
    "pool": (1, math.inf),
    "iters": (0, math.inf),
    "split_fraction": (-math.inf, 1.0),   # negative: keep the train:calib ratio
    "noise_scale": (0.0, math.inf),       # multiplies the observation-noise std
    "k_folds": (2, math.inf),
    "epochs_scale": (0.0, math.inf),
    "n_se_points": (1, math.inf),
}


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
    split_fraction: float = -1.0
    noise_scale: float = 10.0
    k_folds: int = 5
    epochs_scale: float = 1.0
    n_se_points: int = 200
    data: str = ""
    bundle: str = ""
    out: str = ""

    def validate(self):
        """Check every field against the tables and canonicalise each
        choice in place; returns ``self``."""
        for key, spellings in CHOICES.items():
            value = getattr(self, key)
            if value not in spellings:
                raise ConfigError(f"{key} must be one of "
                                  f"{'|'.join(spellings)}, got {value!r}")
            setattr(self, key, spellings[value])
        for key, (lo, hi) in RANGES.items():
            value = getattr(self, key)
            # nan fails every comparison; abs() < inf rejects +-inf without
            # the float conversion that overflows on a huge int
            if not (lo <= value <= hi and abs(value) < math.inf):
                raise ConfigError(f"{key} must be finite and in [{lo}, {hi}], "
                                  f"got {value!r}")
        if not self.eps:
            raise ConfigError("eps must list at least one value")
        if len(set(self.eps)) != len(self.eps):
            raise ConfigError(f"eps values must not repeat, got {self.eps}")
        for e in self.eps:
            if not 0.0 < e < 1.0:
                raise ConfigError(f"eps values must lie in (0, 1), got {e}")
        if not self.model.startswith("linear:"):
            from .benchmarks import REGISTRY
            if self.model not in REGISTRY:
                raise ConfigError(f"unknown model {self.model!r}")
        return self

    def hash(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]


def float_list(raw: str) -> list:
    """A comma-separated list of floats; blank items are skipped."""
    return [float(x) for x in raw.split(",") if x.strip()]


_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}
_PARSE = {bool: lambda raw: _BOOL[raw.lower()], list: float_list}


def _coerce(key, raw, target):
    """Parse ``raw`` by the type of the field's default ``target``."""
    parse = _PARSE.get(type(target), type(target))
    try:
        return parse(raw.strip())
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse value {raw.strip()!r} for key "
                          f"{key!r}") from None


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
        setattr(cfg, key, _coerce(key, raw, getattr(defaults, key)))
    return cfg.validate()


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, base)
