"""Dataset generation, scaling, splitting and persistence.

Samples are windows of ``H_p + 1`` aligned (state, observation) pairs plus a
reachability label for the window's last state.  Two generation modes are
supported: *independent*, where every window comes from a freshly sampled
initial state, and *sequential*, where overlapping windows slide along long
trajectories and therefore stay temporally correlated.

Randomness is organized as one substream per sample (or per trajectory),
derived from ``(seed, index, attempt)``, so generation is order-independent,
parallelizable and reproducible: permuting the generation order yields the
same multiset of samples.  A substream draws what
``np.random.default_rng([seed, index, attempt, stream])`` draws: the
SeedSequence hash of every sample in a draw is computed at once on uint32
arrays, and each sample's PCG64 is seeded from its row of the result.

Datasets are persisted unscaled, in physical units, as float32 containers;
:func:`scale` produces an in-memory float64 working copy mapped onto
``[-1, 1]`` with an affine per-dimension transform fitted on the training
split only.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConfigError, GenerationFailed, InsufficientData, IntegrityError,
                     ShapeError)
from .reach import reach_label_batch
from .storage import load_container, require_keys, save_container
from .systems import HybridSystemSpec, step_batch

SEQUENCE_LEN = 32  # states per generated sequence; windows are its tail
MAX_RETRIES = 20

_INIT_STREAM = 0
_NOISE_STREAM = 1


@dataclass
class Scaler:
    """Per-dimension (min, max) affine map onto [-1, 1] for states and
    observations; degenerate dimensions (max == min) map to 0."""

    state_min: np.ndarray
    state_max: np.ndarray
    obs_min: np.ndarray
    obs_max: np.ndarray

    def to_dict(self):
        return {k: getattr(self, k).tolist()
                for k in ("state_min", "state_max", "obs_min", "obs_max")}

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: np.asarray(d[k], dtype=np.float64) for k in d})

    @classmethod
    def fit(cls, dataset: "Dataset") -> "Scaler":
        if dataset.n == 0:   # the identity on [-1, 1]
            s, y = np.ones(dataset.state_dim), np.ones(dataset.obs_dim)
            return cls(-s, s, -y, y)
        s = dataset.states.reshape(-1, dataset.state_dim).astype(np.float64)
        y = dataset.obs.reshape(-1, dataset.obs_dim).astype(np.float64)
        return cls(s.min(axis=0), s.max(axis=0), y.min(axis=0), y.max(axis=0))

    @staticmethod
    def _apply(x, lo, hi):
        span = hi - lo
        ok = span > 0
        if ok.all():   # the same arithmetic, without the gather and scatter
            return -1.0 + 2.0 * (x - lo) / span
        out = np.zeros_like(x, dtype=np.float64)
        out[..., ok] = -1.0 + 2.0 * (x[..., ok] - lo[ok]) / span[ok]
        return out

    @staticmethod
    def _invert(x, lo, hi):
        return lo + (x + 1.0) * (hi - lo) / 2.0

    def scale_states(self, states):
        return self._apply(np.asarray(states, dtype=np.float64),
                           self.state_min, self.state_max)

    def unscale_states(self, states):
        return self._invert(np.asarray(states, dtype=np.float64),
                            self.state_min, self.state_max)

    def scale_obs(self, obs):
        return self._apply(np.asarray(obs, dtype=np.float64),
                           self.obs_min, self.obs_max)

    def state_ranges(self):
        return self.state_max - self.state_min


# the arrays of a dataset and their dimensions: N first; obs, states and
# modes then L
_DATASET_NDIM = {"obs": 3, "states": 3, "labels": 1, "modes": 2, "traj_ids": 1}


@dataclass
class Dataset:
    """Aligned windows of observations and states with reachability labels.

    ``obs``: (N, H_p+1, obs_dim); ``states``: (N, H_p+1, state_dim);
    ``labels``: (N,); ``modes``: (N, H_p+1) discrete modes backing each
    state; ``traj_ids`` groups windows that share a source trajectory.
    ``generation`` records how the windows were drawn: ``seq_len``, the
    ``windows_per_traj`` of a sequential dataset and ``retries``, the number
    of samples redrawn after a diverged simulation; subsets and
    concatenations keep the record of the dataset they start from.
    """

    model_name: str
    mode: str
    obs: np.ndarray
    states: np.ndarray
    labels: np.ndarray
    modes: np.ndarray
    traj_ids: np.ndarray
    seed: int
    scaler: Scaler | None = None
    generation: dict = field(default_factory=dict)

    @property
    def scaled(self):
        return self.scaler is not None

    @property
    def n(self):
        return self.obs.shape[0]

    @property
    def window_len(self):
        return self.obs.shape[1]

    @property
    def obs_dim(self):
        return self.obs.shape[2]

    @property
    def state_dim(self):
        return self.states.shape[2]

    def subset(self, idx) -> "Dataset":
        """Windows selected by integer indices or a boolean mask."""
        idx = np.asarray(idx)
        if idx.size == 0:
            idx = idx.astype(np.intp)  # ``np.asarray([])`` is float64
        return replace(self, **{k: getattr(self, k)[idx] for k in _DATASET_NDIM})

    def concat(self, other: "Dataset") -> "Dataset":
        if other.n == 0:
            return self
        if self.scaled != other.scaled or self.model_name != other.model_name:
            raise ShapeError("cannot concatenate incompatible datasets")
        return replace(self, **{k: np.concatenate([getattr(self, k),
                                                   getattr(other, k)])
                                for k in _DATASET_NDIM})


def _simulate_tolerant(spec, V0, Q0, n_steps):
    """Batch simulation that flags diverged rows instead of raising.

    Each transition is :func:`systems.step_batch`; a row it flags goes on
    from the zero it jumped from and is false in ``ok``, so the caller
    redraws it.  Returns ``(states, modes, ok)``.
    """
    B = V0.shape[0]
    Vs = np.empty((n_steps + 1, B, spec.state_dim), dtype=np.float64)
    Qs = np.empty((n_steps + 1, B), dtype=np.int64)
    Vs[0], Qs[0] = V0, Q0
    V, Q = V0, Q0
    ok = np.ones(B, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            V, Q, ok_k = step_batch(spec, V, Q)
            ok &= ok_k
            Vs[k + 1], Qs[k + 1] = V, Q
    return Vs, Qs, ok


def seed_words(seed) -> list:
    """A non-negative int seed as little-endian 32-bit words, the entropy
    ``np.random.SeedSequence`` takes from it (``0 -> [0]``)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return [(seed >> k) & 0xFFFFFFFF for k in range(0, seed.bit_length() or 1, 32)]


# the constants of numpy's SeedSequence hash (O'Neill's seed_seq alternative)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16


def _seed_states(words, indices, attempts, stream):
    """``(n, 4)`` uint64; row ``r`` equals ``SeedSequence([*words,
    indices[r], attempts[r], stream]).generate_state(4, np.uint64)``, the
    words PCG64 seeds itself from.  numpy's hash runs word by word, but its
    running constant does not depend on the entropy, so each step hashes
    one uint32 column of every row at once."""
    n = len(indices)
    entropy = [np.full(n, w, np.uint32) for w in words] + [
        np.asarray(indices).astype(np.uint32),
        np.asarray(attempts).astype(np.uint32), np.full(n, stream, np.uint32)]
    const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value *= const
        return value ^ value >> _XSHIFT

    def mix(x, y):
        out = x * _MIX_MULT_L - y * _MIX_MULT_R
        return out ^ out >> _XSHIFT

    pool = [hashmix(e) for e in entropy[:4]]   # a pool of 4 words
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    const, mult = _INIT_B, _MULT_B
    state = np.empty((n, 8), "<u4")   # 8 uint32 words make 4 uint64
    for i in range(8):
        state[:, i] = hashmix(pool[i % 4])
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _generator_factory():
    """``state -> Generator(PCG64(s))`` where ``s.generate_state`` returns
    the C-contiguous uint64 row ``state`` (PCG64 reads its raw buffer).
    Built on first use, so importing reachmon does not import numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return lambda state: Generator(PCG64(State(state)))


def _substreams(seed, indices, attempts, stream):
    """The generators of ``default_rng([seed, indices[r], attempts[r],
    stream])`` for every row ``r``, from one :func:`_seed_states` pass."""
    make = _generator_factory()
    return map(make, _seed_states(seed_words(seed), indices, attempts, stream))


def _draw_initials(spec, seed, indices, attempts):
    """Initial states and modes of samples ``indices`` at ``attempts``.

    Row ``r`` is ``lo + (hi - lo) * random(state_dim)`` on the substream
    ``(seed, indices[r], attempts[r], _INIT_STREAM)``, the arithmetic of
    ``Generator.uniform(lo, hi)``; the spec guarantees a finite range.
    """
    span = spec.init_hi - spec.init_lo
    U = np.empty((len(indices), spec.state_dim))
    for row, rng in zip(U, _substreams(seed, indices, attempts, _INIT_STREAM)):
        row[:] = rng.random(spec.state_dim)
    V = spec.init_lo + span * U
    return V, spec.init_mode(V)


def _draw_noise(spec, seed, indices, attempts, n_obs):
    """``(n, n_obs, obs_dim)`` noise of samples or trajectories ``indices``
    at ``attempts``: row ``r`` comes from the substream ``(seed, indices[r],
    attempts[r], _NOISE_STREAM)``; ``normal(0, 1)``, since
    ``standard_normal`` can differ in the sign of zero."""
    out = np.empty((len(indices), n_obs, spec.obs_dim))
    for row, rng in zip(out, _substreams(seed, indices, attempts, _NOISE_STREAM)):
        row[:] = rng.normal(0.0, 1.0, size=(n_obs, spec.obs_dim))
    out *= spec.noise_std
    return out


def _generate(spec, mode, seed, n, n_states, keep, W):
    """``W`` stride-1 windows cut from the last ``keep`` of each of ``n``
    simulated ``n_states``-state sequences, the windows ending at the last
    ``W`` kept states; each sequence's noise is one draw.

    A diverged simulation is redrawn from the sample's next substream, up to
    ``MAX_RETRIES`` attempts.  One ``observe_fn`` call covers every kept
    state, and one gather per output array cuts every window.  ``W < 1``, or
    windows of fewer than ``H_p + 1`` states, raise ``ConfigError``.
    """
    L = spec.window_len
    if W < 1 or n_states - W + 1 < L:
        raise ConfigError(f"{spec.name} windows need seq_len >= {L} and windows_per_traj"
                          f" >= 1, got {n_states - W + 1} and {W}")
    trajs = np.empty((n, keep, spec.state_dim))
    traj_modes = np.empty((n, keep), dtype=np.int64)
    attempts = np.zeros(n, dtype=np.int64)
    pending = np.arange(n)
    while len(pending):
        if (attempts[pending] >= MAX_RETRIES).any():
            raise GenerationFailed(
                f"{spec.name}: sample diverged {MAX_RETRIES} times in a row")
        V0, Q0 = _draw_initials(spec, seed, pending, attempts[pending])
        Vs, Qs, ok = _simulate_tolerant(spec, V0, Q0, n_states - 1)
        rows = np.flatnonzero(ok)
        trajs[pending[ok]] = Vs[-keep:, rows].transpose(1, 0, 2)
        traj_modes[pending[ok]] = Qs[-keep:, rows].T
        attempts[pending[~ok]] += 1
        pending = pending[~ok]

    obs = _draw_noise(spec, seed, np.arange(n), attempts, keep)
    obs += spec.observe_fn(trajs.reshape(-1, spec.state_dim),
                           traj_modes.reshape(-1)).reshape(obs.shape)
    # kept state t of sequence i is row i * keep + t of the flattened arrays
    t = np.arange(W)[:, None] + np.arange(keep - W - L + 1, keep - W + 1)
    rows = (np.arange(n)[:, None, None] * keep + t).reshape(-1, L)
    states = trajs.reshape(-1, spec.state_dim)[rows]
    modes = traj_modes.reshape(-1)[rows]
    return Dataset(
        model_name=spec.name, mode=mode,
        obs=obs.reshape(-1, spec.obs_dim)[rows].astype(np.float32),
        states=states.astype(np.float32),
        labels=reach_label_batch(spec, states[:, -1], modes[:, -1]),
        modes=modes.astype(np.int32),
        traj_ids=np.repeat(np.arange(n, dtype=np.int32), W), seed=seed,
        generation={"seq_len": n_states - W + 1,
                    "retries": int(np.count_nonzero(attempts)),
                    **({"windows_per_traj": W} if mode == "sequential" else {})},
    )


def gen_independent(spec: HybridSystemSpec, n: int, seq_len: int = SEQUENCE_LEN,
                    seed: int = 0) -> Dataset:
    """``n`` mutually independent samples.

    Each sample starts from a fresh initial state, is simulated for a
    ``seq_len``-state sequence, and keeps the trailing ``H_p + 1`` window;
    the label is the reach label of the window's last state.
    """
    return _generate(spec, "independent", seed, n, seq_len, spec.window_len, 1)


def gen_sequential(spec: HybridSystemSpec, n_init: int, windows_per_traj: int,
                   seq_len: int = SEQUENCE_LEN, seed: int = 0) -> Dataset:
    """Temporally correlated samples from sliding windows.

    Each of ``n_init`` initial states yields one trajectory of
    ``windows_per_traj - 1 + seq_len`` states, from which
    ``windows_per_traj`` overlapping ``seq_len``-state windows are cut at
    stride 1; consecutive windows share all but one underlying state and
    their observation noise, exactly as a runtime monitor would see them.
    Each trajectory's noise is one draw, and the windows are one gather.
    """
    traj_len = windows_per_traj - 1 + seq_len
    return _generate(spec, "sequential", seed, n_init, traj_len, traj_len,
                     windows_per_traj)


def scale(dataset: Dataset, scaler: Scaler) -> Dataset:
    """Scaled float64 working copy under ``scaler`` (fitted on the training
    split, applied to every split)."""
    if dataset.scaled:
        raise ValueError("dataset is already scaled")
    return replace(dataset,
                   obs=scaler.scale_obs(dataset.obs),
                   states=scaler.scale_states(dataset.states),
                   scaler=scaler)


def split(dataset: Dataset, n_train: int, n_calib: int, n_test: int,
          rng: np.random.Generator):
    """Disjoint train/calibration/test subsets.

    Independent datasets are split by shuffled sample index; sequential
    datasets are split by source trajectory so that no trajectory leaks
    across splits, which requires the counts to be multiples of the
    windows-per-trajectory.
    """
    counts = (n_train, n_calib, n_test)
    if sum(counts) > dataset.n:
        raise InsufficientData(
            f"requested {sum(counts)} samples, dataset has {dataset.n}")
    if dataset.mode == "sequential":
        ids = np.unique(dataset.traj_ids)
        per_traj = dataset.n // len(ids)
        if any(c % per_traj for c in counts):
            raise InsufficientData(
                f"sequential split counts must be multiples of {per_traj} "
                "(windows per trajectory)")
        order = rng.permutation(ids)
        out, used = [], 0
        for c in counts:
            take = order[used:used + c // per_traj]
            used += c // per_traj
            mask = np.isin(dataset.traj_ids, take)
            out.append(dataset.subset(np.flatnonzero(mask)))
        return tuple(out)
    order = rng.permutation(dataset.n)
    offsets = np.cumsum((0,) + counts)
    return tuple(dataset.subset(order[offsets[i]:offsets[i + 1]])
                 for i in range(3))


def save(dataset: Dataset, path):
    """Persist to a checksummed container directory (lossless round-trip)."""
    meta = {
        "kind": "dataset",
        "model_name": dataset.model_name,
        "mode": dataset.mode,
        "seed": int(dataset.seed),
        "scaled": bool(dataset.scaled),
        "scaler": dataset.scaler.to_dict() if dataset.scaler else None,
        "counts": {"n": int(dataset.n)},
        **dataset.generation,
    }
    save_container(path, meta, {k: getattr(dataset, k) for k in _DATASET_NDIM})


def load(path) -> Dataset:
    """The saved dataset; missing arrays or meta keys, arrays that disagree
    in dimensions, N or L, a seed that is not an int, a mode other than the
    two, a model name that is not a str, a scaler that does not load, or a
    generation record that is not integers (``seq_len`` at least L,
    ``windows_per_traj`` at least 1), raise ``IntegrityError``.  A dataset
    saved without the record loads with an empty one."""
    meta, arrays = load_container(path)
    if meta.get("kind") != "dataset":
        raise ShapeError(f"{path} is not a dataset container")
    shapes = {k: arrays[k].shape for k in _DATASET_NDIM if k in arrays}
    if len(shapes) < len(_DATASET_NDIM) \
            or any(len(shapes[k]) != d for k, d in _DATASET_NDIM.items()) \
            or len({s[0] for s in shapes.values()}) != 1 \
            or len({shapes[k][1] for k in ("obs", "states", "modes")}) != 1:
        raise IntegrityError(f"{path}: dataset arrays {shapes} do not agree")
    require_keys(meta, ("model_name", "mode", "seed", "scaler"), path)
    if type(meta["seed"]) is not int or type(meta["model_name"]) is not str \
            or meta["mode"] not in ("independent", "sequential"):
        raise IntegrityError(f"{path}: dataset seed, mode or model name is "
                             f"malformed: {meta['seed']!r}, {meta['mode']!r}, "
                             f"{meta['model_name']!r}")
    try:
        scaler = None if meta["scaler"] is None else Scaler.from_dict(meta["scaler"])
    except (LookupError, TypeError, ValueError) as exc:
        raise IntegrityError(f"{path}: scaler does not load: {exc!r}") from None
    lowest = {"seq_len": shapes["obs"][1], "windows_per_traj": 1, "retries": 0}
    generation = {k: meta[k] for k in lowest if k in meta}
    if any(type(v) is not int or v < lowest[k] for k, v in generation.items()):
        raise IntegrityError(f"{path}: generation record {generation} is not "
                             f"one of windows of {shapes['obs'][1]} states")
    return Dataset(
        model_name=meta["model_name"], mode=meta["mode"], seed=meta["seed"],
        scaler=scaler, generation=generation, **{k: arrays[k] for k in _DATASET_NDIM})
