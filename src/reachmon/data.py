"""Dataset generation, scaling, splitting and persistence.

Samples are windows of ``H_p + 1`` aligned (state, observation) pairs plus a
reachability label for the window's last state.  Two generation modes are
supported: *independent*, where every window comes from a freshly sampled
initial state, and *sequential*, where overlapping windows slide along long
trajectories and therefore stay temporally correlated.

Randomness is organized as one substream per sample (or per trajectory),
derived from ``(seed, index, attempt)``, so generation is order-independent,
parallelizable and reproducible: permuting the generation order yields the
same multiset of samples.

Datasets are persisted unscaled, in physical units, as float32 containers;
:func:`scale` produces an in-memory float64 working copy mapped onto
``[-1, 1]`` with an affine per-dimension transform fitted on the training
split only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import GenerationFailed, InsufficientData, ShapeError
from .reach import reach_label_batch
from .storage import load_container, save_container
from .systems import HybridSystemSpec, flow

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
    def placeholder(cls, state_dim, obs_dim):
        return cls(-np.ones(state_dim), np.ones(state_dim),
                   -np.ones(obs_dim), np.ones(obs_dim))

    @classmethod
    def fit(cls, dataset: "Dataset") -> "Scaler":
        if dataset.n == 0:
            return cls.placeholder(dataset.state_dim, dataset.obs_dim)
        s = dataset.states.reshape(-1, dataset.state_dim).astype(np.float64)
        y = dataset.obs.reshape(-1, dataset.obs_dim).astype(np.float64)
        return cls(s.min(axis=0), s.max(axis=0), y.min(axis=0), y.max(axis=0))

    @staticmethod
    def _apply(x, lo, hi):
        span = hi - lo
        out = np.zeros_like(x, dtype=np.float64)
        ok = span > 0
        out[..., ok] = -1.0 + 2.0 * (x[..., ok] - lo[ok]) / span[ok]
        return out

    @staticmethod
    def _invert(x, lo, hi):
        span = hi - lo
        out = np.broadcast_to(lo, x.shape).astype(np.float64).copy()
        ok = span > 0
        out[..., ok] = lo[ok] + (x[..., ok] + 1.0) * span[ok] / 2.0
        return out

    def scale_states(self, states):
        return self._apply(np.asarray(states, dtype=np.float64),
                           self.state_min, self.state_max)

    def unscale_states(self, states):
        return self._invert(np.asarray(states, dtype=np.float64),
                            self.state_min, self.state_max)

    def scale_obs(self, obs):
        return self._apply(np.asarray(obs, dtype=np.float64),
                           self.obs_min, self.obs_max)

    def unscale_obs(self, obs):
        return self._invert(np.asarray(obs, dtype=np.float64),
                            self.obs_min, self.obs_max)

    def state_ranges(self):
        return self.state_max - self.state_min


@dataclass
class Dataset:
    """Aligned windows of observations and states with reachability labels.

    ``obs``: (N, H_p+1, obs_dim); ``states``: (N, H_p+1, state_dim);
    ``labels``: (N,); ``modes``: (N, H_p+1) discrete modes backing each
    state; ``traj_ids`` groups windows that share a source trajectory.
    """

    model_name: str
    mode: str
    obs: np.ndarray
    states: np.ndarray
    labels: np.ndarray
    modes: np.ndarray
    traj_ids: np.ndarray
    seed: int
    scaled: bool = False
    scaler: Scaler | None = None

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
        return replace(self, obs=self.obs[idx], states=self.states[idx],
                       labels=self.labels[idx], modes=self.modes[idx],
                       traj_ids=self.traj_ids[idx])

    def concat(self, other: "Dataset") -> "Dataset":
        if other.n == 0:
            return self
        if self.scaled != other.scaled or self.model_name != other.model_name:
            raise ShapeError("cannot concatenate incompatible datasets")
        return replace(
            self,
            obs=np.concatenate([self.obs, other.obs]),
            states=np.concatenate([self.states, other.states]),
            labels=np.concatenate([self.labels, other.labels]),
            modes=np.concatenate([self.modes, other.modes]),
            traj_ids=np.concatenate([self.traj_ids, other.traj_ids]),
        )


def _empty_dataset(spec: HybridSystemSpec, mode: str, seed: int) -> Dataset:
    L = spec.window_len
    return Dataset(
        model_name=spec.name, mode=mode,
        obs=np.zeros((0, L, spec.obs_dim), dtype=np.float32),
        states=np.zeros((0, L, spec.state_dim), dtype=np.float32),
        labels=np.zeros(0, dtype=np.uint8),
        modes=np.zeros((0, L), dtype=np.int32),
        traj_ids=np.zeros(0, dtype=np.int32),
        seed=seed, scaled=False,
        scaler=Scaler.placeholder(spec.state_dim, spec.obs_dim),
    )


def _simulate_tolerant(spec, V0, Q0, n_steps):
    """Batch simulation that flags diverged rows instead of raising.

    Each transition is :func:`systems.flow` from time ``k * dt``, as in
    :func:`systems.simulate_batch`; a row whose state turns non-finite is
    parked at zero and masked out, then the jump rule runs on every row.
    Returns ``(states, modes, ok)``.
    """
    B = V0.shape[0]
    Vs = np.empty((n_steps + 1, B, spec.state_dim), dtype=np.float64)
    Qs = np.empty((n_steps + 1, B), dtype=np.int64)
    Vs[0], Qs[0] = V0, Q0
    V, Q = V0, Q0
    ok = np.ones(B, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            V = flow(spec, V, Q, k * spec.dt)
            bad = ~np.isfinite(V).all(axis=1)
            if bad.any():
                ok &= ~bad
                V[bad] = 0.0  # parked; rows are discarded via the mask
            V, Q = spec.jump(V, Q)
            Vs[k + 1], Qs[k + 1] = V, Q
    return Vs, Qs, ok


def seed_words(seed) -> list:
    """A non-negative int seed as little-endian 32-bit words, the entropy
    ``np.random.SeedSequence`` takes from it (``0 -> [0]``)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return [(seed >> k) & 0xFFFFFFFF for k in range(0, seed.bit_length() or 1, 32)]


def _substream(words, index, attempt, stream):
    """The generator of ``default_rng([seed, index, attempt, stream])``,
    seeded from one uint32 array, which is cheaper to coerce."""
    return np.random.default_rng(
        np.array([*words, index, attempt, stream], dtype=np.uint32))


def _draw_initials(spec, seed, indices, attempts):
    """Initial states and modes of samples ``indices`` at ``attempts``.

    Row ``r`` is ``lo + (hi - lo) * random(state_dim)`` on the substream
    ``(seed, indices[r], attempts[r], _INIT_STREAM)``, the arithmetic of
    ``Generator.uniform(lo, hi)``; its check for a non-finite range runs
    once per call.
    """
    span = spec.init_hi - spec.init_lo
    if not np.isfinite(span).all():
        raise OverflowError(f"{spec.name}: init range exceeds valid bounds")
    words = seed_words(seed)
    U = np.empty((len(indices), spec.state_dim))
    for row, (i, a) in enumerate(zip(indices, attempts)):
        U[row] = _substream(words, i, a, _INIT_STREAM).random(spec.state_dim)
    V = spec.init_lo + span * U
    return V, spec.init_mode(V)


def _draw_noise(spec, seed, index, attempt, n_obs):
    """``(n_obs, obs_dim)`` noise of one sample or trajectory from the
    substream ``(seed, index, attempt, _NOISE_STREAM)``; ``normal(0, 1)``,
    since ``standard_normal`` can differ in the sign of zero."""
    rng = _substream(seed_words(seed), index, attempt, _NOISE_STREAM)
    return rng.normal(0.0, 1.0, size=(n_obs, spec.obs_dim)) * spec.noise_std


def _generate(spec, mode, seed, n, n_states, keep, W):
    """``W`` stride-1 windows cut from the last ``keep`` of each of ``n``
    simulated ``n_states``-state sequences, the windows ending at the last
    ``W`` kept states; each sequence's noise is one draw.

    A diverged simulation is redrawn from the sample's next substream, up to
    ``MAX_RETRIES`` attempts.  One ``observe_fn`` call covers every kept
    state, and one gather per output array cuts every window.
    """
    L = spec.window_len
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

    obs = np.empty((n, keep, spec.obs_dim))
    for i in range(n):
        obs[i] = _draw_noise(spec, seed, i, attempts[i], keep)
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
        scaled=False, scaler=None,
    )


def gen_independent(spec: HybridSystemSpec, n: int, seq_len: int = SEQUENCE_LEN,
                    seed: int = 0) -> Dataset:
    """``n`` mutually independent samples.

    Each sample starts from a fresh initial state, is simulated for a
    ``seq_len``-state sequence, and keeps the trailing ``H_p + 1`` window;
    the label is the reach label of the window's last state.
    """
    if seq_len < spec.window_len:
        raise ValueError(f"seq_len must be >= H_p+1 = {spec.window_len}")
    if n == 0:
        return _empty_dataset(spec, "independent", seed)
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
    if windows_per_traj < 1:
        raise ValueError("windows_per_traj must be >= 1")
    if seq_len < spec.window_len:
        raise ValueError(f"seq_len must be >= H_p+1 = {spec.window_len}")
    if n_init == 0:
        return _empty_dataset(spec, "sequential", seed)
    traj_len = windows_per_traj - 1 + seq_len
    return _generate(spec, "sequential", seed, n_init, traj_len, traj_len,
                     windows_per_traj)


def scale(dataset: Dataset, scaler: Scaler | None = None) -> Dataset:
    """Scaled float64 working copy; fits the scaler on ``dataset`` when one
    is not supplied (fit on the training split, apply everywhere else)."""
    if dataset.scaled:
        raise ValueError("dataset is already scaled")
    sc = scaler if scaler is not None else Scaler.fit(dataset)
    return replace(dataset,
                   obs=sc.scale_obs(dataset.obs),
                   states=sc.scale_states(dataset.states),
                   scaled=True, scaler=sc)


def unscale(dataset: Dataset) -> Dataset:
    """Inverse of :func:`scale`; returns physical units."""
    if not dataset.scaled:
        raise ValueError("dataset is not scaled")
    sc = dataset.scaler
    return replace(dataset,
                   obs=sc.unscale_obs(dataset.obs),
                   states=sc.unscale_states(dataset.states),
                   scaled=False, scaler=sc)


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
    }
    save_container(path, meta, {
        "obs": dataset.obs, "states": dataset.states,
        "labels": dataset.labels, "modes": dataset.modes,
        "traj_ids": dataset.traj_ids,
    })


def load(path) -> Dataset:
    meta, arrays = load_container(path)
    if meta.get("kind") != "dataset":
        raise ShapeError(f"{path} is not a dataset container")
    return Dataset(
        model_name=meta["model_name"], mode=meta["mode"],
        obs=arrays["obs"], states=arrays["states"], labels=arrays["labels"],
        modes=arrays["modes"], traj_ids=arrays["traj_ids"],
        seed=meta["seed"], scaled=meta["scaled"],
        scaler=Scaler.from_dict(meta["scaler"]) if meta["scaler"] else None,
    )
