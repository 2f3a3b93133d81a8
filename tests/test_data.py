from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_linear_file
from reachmon import get_spec
from reachmon.data import (
    MAX_RETRIES,
    SEQUENCE_LEN,
    Dataset,
    Scaler,
    _draw_initials,
    _draw_noise,
    _generator_factory,
    _seed_states,
    _simulate_tolerant,
    gen_independent,
    gen_sequential,
    load,
    save,
    scale,
    seed_words,
    split,
)
from reachmon.errors import ConfigError, InsufficientData, IntegrityError, ShapeError
from reachmon.reach import reach_label_batch


class TestGenIndependent:
    def test_empty(self, ip_spec):
        ds = gen_independent(ip_spec, 0, seed=0)
        assert ds.n == 0
        assert ds.scaler is None  # as for every unscaled dataset

    def test_noiseless_obs_equal_map(self):
        twt = get_spec("twt")
        spec = replace(twt, noise_std=0 * twt.noise_std)
        ds = gen_independent(spec, 100, seed=1)
        assert np.allclose(ds.obs, ds.states, atol=1e-6)

    def test_both_classes_present(self, small_ip_dataset):
        frac = small_ip_dataset.labels.mean()
        assert 0.0 < frac < 1.0

    def test_shapes(self, small_ip_dataset, ip_spec):
        ds = small_ip_dataset
        L = ip_spec.window_len
        assert ds.obs.shape == (ds.n, L, ip_spec.obs_dim)
        assert ds.states.shape == (ds.n, L, ip_spec.state_dim)
        assert ds.obs.dtype == np.float32

    def test_label_consistency(self, small_ip_dataset, ip_spec):
        ds = small_ip_dataset
        recomputed = reach_label_batch(
            ip_spec, ds.states[:, -1].astype(np.float64),
            ds.modes[:, -1].astype(np.int64))
        assert np.array_equal(recomputed, ds.labels)

    def test_order_independence(self, ip_spec):
        # per-sample substreams: the same indices give the same samples
        # regardless of batch composition
        full = gen_independent(ip_spec, 50, seed=9)
        again = gen_independent(ip_spec, 30, seed=9)
        assert np.array_equal(full.obs[:30], again.obs)
        assert np.array_equal(full.states[:30], again.states)

    def test_noise_statistics(self, ip_spec):
        ds = gen_independent(ip_spec, 10_000, seed=3)
        clean = ip_spec.observe_fn(
            ds.states.reshape(-1, 2).astype(np.float64),
            ds.modes.reshape(-1).astype(np.int64)).reshape(ds.obs.shape)
        resid = ds.obs.astype(np.float64) - clean
        std = resid.reshape(-1, ip_spec.obs_dim).std(axis=0)
        assert np.abs(std - ip_spec.noise_std).max() < 0.05 * ip_spec.noise_std.max()


class TestGenSequential:
    def test_degenerate_single_window(self, ip_spec):
        seq = gen_sequential(ip_spec, 1, 1, seed=5)
        ind = gen_independent(ip_spec, 1, seed=5)
        assert seq.n == 1
        # same construction: one initial state, one trailing window
        assert seq.states.shape == ind.states.shape

    def test_stride_one_overlap(self, twt_spec):
        ds = gen_sequential(twt_spec, 3, 10, seed=2)
        for i in (0, 1, 11):
            a, b = ds.states[i], ds.states[i + 1]
            assert np.array_equal(a[1:], b[:-1])

    def test_labels_match_recomputation(self, twt_spec):
        ds = gen_sequential(twt_spec, 50, 100, seed=4)
        assert ds.n == 5000
        recomputed = reach_label_batch(
            twt_spec, ds.states[:, -1].astype(np.float64),
            ds.modes[:, -1].astype(np.int64))
        assert np.array_equal(recomputed, ds.labels)

    def test_traj_ids(self, twt_spec):
        ds = gen_sequential(twt_spec, 4, 7, seed=1)
        assert np.array_equal(np.unique(ds.traj_ids), np.arange(4))
        assert (np.bincount(ds.traj_ids) == 7).all()


# Reference generation: one ``default_rng([seed, i, attempt, stream])`` per
# draw, ``uniform(lo, hi)`` for initial states and a per-window copy loop for
# sequential windows.  ``gen_independent`` and ``gen_sequential`` must
# reproduce it byte for byte.

def _ref_initials(spec, seed, indices, attempts):
    V = np.empty((len(indices), spec.state_dim))
    for row, (i, a) in enumerate(zip(indices, attempts)):
        rng = np.random.default_rng([seed, int(i), int(a), 0])
        V[row] = rng.uniform(spec.init_lo, spec.init_hi)
    return V, spec.init_mode(V)


def _ref_noise(spec, seed, index, attempt, n_obs):
    rng = np.random.default_rng([seed, int(index), int(attempt), 1])
    return rng.normal(0.0, 1.0, size=(n_obs, spec.obs_dim)) * spec.noise_std


def _ref_trajectories(spec, seed, n, n_states):
    """(states (n_states, n, d), modes (n_states, n), attempts (n,))."""
    trajs = np.empty((n_states, n, spec.state_dim))
    traj_modes = np.empty((n_states, n), dtype=np.int64)
    attempts = np.zeros(n, dtype=np.int64)
    pending = np.arange(n)
    while len(pending):
        V0, Q0 = _ref_initials(spec, seed, pending, attempts[pending])
        Vs, Qs, ok = _simulate_tolerant(spec, V0, Q0, n_states - 1)
        rows = np.flatnonzero(ok)
        trajs[:, pending[ok]] = Vs[:, rows]
        traj_modes[:, pending[ok]] = Qs[:, rows]
        attempts[pending[~ok]] += 1
        pending = pending[~ok]
    return trajs, traj_modes, attempts


def _ref_independent(spec, n, seed):
    L = spec.window_len
    trajs, traj_modes, attempts = _ref_trajectories(spec, seed, n, SEQUENCE_LEN)
    states = np.ascontiguousarray(trajs[-L:].transpose(1, 0, 2))
    modes = np.ascontiguousarray(traj_modes[-L:].T)
    labels = np.empty(n, dtype=np.uint8)
    labels[:] = reach_label_batch(spec, states[:, -1], modes[:, -1])
    obs = np.empty((n, L, spec.obs_dim))
    obs_clean = spec.observe_fn(
        states.reshape(-1, spec.state_dim), modes.reshape(-1)
    ).reshape(n, L, spec.obs_dim)
    for i in range(n):
        obs[i] = obs_clean[i] + _ref_noise(spec, seed, i, attempts[i], L)
    return {"obs": obs.astype(np.float32), "states": states.astype(np.float32),
            "labels": labels, "modes": modes.astype(np.int32),
            "traj_ids": np.arange(n, dtype=np.int32)}, attempts


def _ref_sequential(spec, n_init, W, seed):
    L = spec.window_len
    traj_len = W - 1 + SEQUENCE_LEN
    n = n_init * W
    trajs, traj_modes, attempts = _ref_trajectories(spec, seed, n_init, traj_len)
    states = np.empty((n, L, spec.state_dim))
    modes = np.empty((n, L), dtype=np.int64)
    obs = np.empty((n, L, spec.obs_dim))
    for i in range(n_init):
        noise = _ref_noise(spec, seed, i, attempts[i], traj_len)
        traj_obs = spec.observe_fn(trajs[:, i], traj_modes[:, i]) + noise
        for w in range(W):
            j = i * W + w
            end = w + SEQUENCE_LEN - 1
            states[j] = trajs[end - L + 1:end + 1, i]
            modes[j] = traj_modes[end - L + 1:end + 1, i]
            obs[j] = traj_obs[end - L + 1:end + 1]
    labels = reach_label_batch(spec, states[:, -1], modes[:, -1])
    return {"obs": obs.astype(np.float32), "states": states.astype(np.float32),
            "labels": labels, "modes": modes.astype(np.int32),
            "traj_ids": np.repeat(np.arange(n_init, dtype=np.int32), W)}, attempts


def _pair(spec, mode, seed, n=None):
    """Generated and reference data of ``n`` samples (independent, default
    40) or of ``n`` trajectories of 5 windows (sequential, default 6)."""
    if mode == "independent":
        n = 40 if n is None else n
        return gen_independent(spec, n, seed=seed), _ref_independent(spec, n, seed)
    n = 6 if n is None else n
    return gen_sequential(spec, n, 5, seed=seed), _ref_sequential(spec, n, 5, seed)


def _assert_same(ds, ref):
    for field, expected in ref.items():
        got = getattr(ds, field)
        assert got.dtype == expected.dtype, field
        assert np.array_equal(got, expected), field


@pytest.fixture(scope="module")
def linear_model(tmp_path_factory):
    path = write_linear_file(
        tmp_path_factory.mktemp("lin") / "osc.txt", dim=2,
        a=[[0.0, 1.0], [-1.0, -0.1]], obs=(0,), unsafe=(0, "ge", 0.8),
        hp=3, noise=(0.05,))
    return f"linear:{path}"


class TestGenBitExact:
    @pytest.mark.parametrize("mode", ["independent", "sequential"])
    @pytest.mark.parametrize("seed", [0, 5, 2 ** 32, 2 ** 33 + 7])
    @pytest.mark.parametrize("model", ["ip", "sn", "cvdp", "lalo", "twt", "linear"])
    def test_matches_reference(self, model, seed, mode, linear_model):
        spec = get_spec(linear_model if model == "linear" else model)
        ds, (ref, _) = _pair(spec, mode, seed)
        _assert_same(ds, ref)

    @pytest.mark.parametrize("mode", ["independent", "sequential"])
    @pytest.mark.parametrize("model", ["ip", "sn", "cvdp", "lalo", "twt", "linear"])
    def test_empty_matches_reference(self, model, mode, linear_model):
        # zero rows, with the trailing shapes and dtypes of the reference
        spec = get_spec(linear_model if model == "linear" else model)
        ds, (ref, _) = _pair(spec, mode, 0, n=0)
        assert ds.n == 0
        _assert_same(ds, ref)

    @pytest.mark.parametrize("seed", [0, 2 ** 33 + 7])
    @pytest.mark.parametrize("model", ["ip", "lalo", "twt"])
    def test_float64_draws_match_reference(self, model, seed):
        # the datasets are float32; compare the float64 draws as well
        spec = get_spec(model)
        idx = np.arange(50)
        V, Q = _draw_initials(spec, seed, idx, idx % 3)
        V_ref, Q_ref = _ref_initials(spec, seed, idx, idx % 3)
        assert np.array_equal(V, V_ref) and np.array_equal(Q, Q_ref)
        assert np.array_equal(_draw_noise(spec, seed, [7], [2], 9)[0],
                              _ref_noise(spec, seed, 7, 2, 9))

    @staticmethod
    def _diverging(spec):
        def drift(V, A, Q):  # diverges once theta passes 0.5
            out = spec.drift(V, A, Q)
            out[V[:, 0] > 0.5] = np.inf
            return out
        return replace(spec, drift=drift)

    @pytest.mark.parametrize("mode", ["independent", "sequential"])
    def test_retried_samples_match_reference(self, ip_spec, mode):
        ds, (ref, attempts) = _pair(self._diverging(ip_spec), mode, 3)
        assert attempts.max() >= 1
        _assert_same(ds, ref)

    @pytest.mark.parametrize("mode", ["independent", "sequential"])
    def test_retries_recorded(self, ip_spec, mode, tmp_path):
        ds, (_, attempts) = _pair(self._diverging(ip_spec), mode, 3)
        assert ds.generation["retries"] == np.count_nonzero(attempts) > 0
        save(ds, tmp_path / "ds")
        assert load(tmp_path / "ds").generation == ds.generation

    @pytest.mark.parametrize("mode", ["independent", "sequential"])
    def test_generation_record(self, ip_spec, mode):
        ds, _ = _pair(ip_spec, mode, 3)
        want = {"seq_len": SEQUENCE_LEN, "retries": 0}
        if mode == "sequential":
            want["windows_per_traj"] = 5
        assert ds.generation == want

    @pytest.mark.parametrize("gen", [
        lambda spec, seed: gen_independent(spec, 4, seed=seed),
        lambda spec, seed: gen_sequential(spec, 2, 3, seed=seed)])
    def test_negative_seed_rejected(self, ip_spec, gen):
        with pytest.raises(ValueError):
            gen(ip_spec, -1)

    @pytest.mark.parametrize("gen", [
        lambda spec: gen_independent(spec, 4, seq_len=1),
        lambda spec: gen_sequential(spec, 2, 3, seq_len=1),
        lambda spec: gen_sequential(spec, 2, 0)],
        ids=["independent-seq_len", "sequential-seq_len", "sequential-windows"])
    def test_window_length_is_a_config_error(self, ip_spec, gen):
        # ip windows are 2 states long; _generate states the rule once
        with pytest.raises(ConfigError, match="seq_len"):
            gen(ip_spec)

    @pytest.mark.parametrize("build", [
        lambda spec: replace(spec, init_lo=np.array([-1e308, -1.5]),
                             init_hi=np.array([1e308, 1.5])),
        lambda spec: replace(spec, init_lo=np.array([-np.inf, -1.5])),
        lambda spec: replace(spec, init_hi=np.array([np.nan, 1.5]))])
    def test_non_finite_init_range_rejected(self, ip_spec, build):
        # a spec whose init box has no finite width is refused when it is
        # built, before any generation draws from it
        with pytest.raises(ValueError, match="finite width"):
            build(ip_spec)

    @pytest.mark.parametrize("seed,words", [
        (0, [0]), (5, [5]), (2 ** 32 - 1, [2 ** 32 - 1]), (2 ** 32, [0, 1]),
        (2 ** 33 + 7, [7, 2]), (2 ** 64, [0, 0, 1]), (np.int64(9), [9])])
    def test_seed_words(self, seed, words):
        assert seed_words(seed) == words


class TestSeedStates:
    """The batched SeedSequence hash against numpy's, and the generators
    seeded from it against ``default_rng``."""

    # entropy of 4, 5 and 6 words; every attempt; the largest uint32 index
    SEEDS = [0, 5, 2 ** 32 + 1, 2 ** 64 + 3]
    INDICES = np.tile([0, 1, 7, 2 ** 32 - 1], MAX_RETRIES)
    ATTEMPTS = np.repeat(np.arange(MAX_RETRIES), 4)

    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_seed_sequence(self, seed, stream):
        words = seed_words(seed)
        got = _seed_states(words, self.INDICES, self.ATTEMPTS, stream)
        ref = np.array([np.random.SeedSequence([*words, int(i), int(a), stream])
                        .generate_state(4, np.uint64)
                        for i, a in zip(self.INDICES, self.ATTEMPTS)])
        assert got.dtype == np.uint64 and np.array_equal(got, ref)

    def test_empty(self):
        assert _seed_states([0], [], [], 0).shape == (0, 4)

    @staticmethod
    def _draws(rng):
        return rng.random(3), rng.normal(0.0, 1.0, size=(4, 2))

    def _same_draws(self, rows, seed, stream):
        make = _generator_factory()
        return all(
            all(np.array_equal(x, y) for x, y in zip(
                self._draws(make(row)),
                self._draws(np.random.default_rng([seed, int(i), int(a), stream]))))
            for row, i, a in zip(rows, self.INDICES, self.ATTEMPTS))

    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("seed", [5, 2 ** 64 + 3])
    def test_generators_draw_as_default_rng(self, seed, stream):
        rows = _seed_states(seed_words(seed), self.INDICES, self.ATTEMPTS, stream)
        assert self._same_draws(rows, seed, stream)

    def test_strided_rows_fail_the_oracle(self):
        # PCG64 reads the raw buffer of the state it is given, so a strided
        # view seeds it from the words in between; the oracle must see that
        rows = _seed_states(seed_words(5), self.INDICES, self.ATTEMPTS, 0)
        wide = np.zeros((len(rows), 8), dtype=np.uint64)
        wide[:, ::2] = rows
        assert not self._same_draws(wide[:, ::2], 5, 0)


class TestScaling:
    def test_simple_values(self):
        sc = Scaler(state_min=np.array([0.0]), state_max=np.array([10.0]),
                    obs_min=np.array([0.0]), obs_max=np.array([10.0]))
        out = sc.scale_states(np.array([[0.0], [5.0], [10.0]]))
        assert np.allclose(out, [[-1.0], [0.0], [1.0]])

    def test_degenerate_dimension(self):
        sc = Scaler(state_min=np.array([3.0]), state_max=np.array([3.0]),
                    obs_min=np.array([0.0]), obs_max=np.array([1.0]))
        out = sc.scale_states(np.array([[3.0], [3.0]]))
        assert (out == 0.0).all()
        back = sc.unscale_states(out)
        assert (back == 3.0).all()

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_apply_matches_masked_formula(self, degenerate):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 6, 3)) * 4.0
        lo, hi = x.min(axis=(0, 1)), x.max(axis=(0, 1))
        if degenerate:
            hi[1] = lo[1]
        span = hi - lo
        ok = span > 0
        want = np.zeros_like(x)
        want[..., ok] = -1.0 + 2.0 * (x[..., ok] - lo[ok]) / span[ok]
        got = Scaler._apply(x, lo, hi)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        assert (got[..., 1] == 0.0).all() == degenerate

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_invert_matches_masked_formula(self, degenerate):
        # the former masked form: degenerate dimensions give back ``lo``
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.0, 1.0, size=(50, 6, 3))
        lo = rng.normal(size=3) * 4.0
        hi = lo + rng.uniform(0.5, 3.0, size=3)
        if degenerate:
            hi[1] = lo[1]
        span = hi - lo
        ok = span > 0
        want = np.broadcast_to(lo, x.shape).copy()
        want[..., ok] = lo[ok] + (x[..., ok] + 1.0) * span[ok] / 2.0
        got = Scaler._invert(x, lo, hi)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        assert (got[..., 1] == lo[1]).all() == degenerate

    def test_fit_covers_data(self, small_ip_splits):
        tr = small_ip_splits["train_scaled"]
        assert tr.states.min() >= -1.0 - 1e-12
        assert tr.states.max() <= 1.0 + 1e-12
        assert tr.obs.min() >= -1.0 - 1e-12
        assert tr.obs.max() <= 1.0 + 1e-12

    def test_round_trip(self, small_ip_splits):
        tr, sc = small_ip_splits["train"], small_ip_splits["scaler"]
        scaled = scale(tr, sc)
        states = sc.unscale_states(scaled.states)
        obs = Scaler._invert(scaled.obs, sc.obs_min, sc.obs_max)
        assert np.abs(states - tr.states.astype(np.float64)).max() < 1e-12
        assert np.abs(obs - tr.obs.astype(np.float64)).max() < 1e-12

    def test_scaled_copy_is_not_scaled_again(self, small_ip_splits):
        tr, sc = small_ip_splits["train"], small_ip_splits["scaler"]
        scaled = small_ip_splits["train_scaled"]
        assert not tr.scaled and tr.scaler is None
        assert scaled.scaled and scaled.scaler is sc
        with pytest.raises(ValueError, match="already scaled"):
            scale(scaled, sc)

    def test_scaled_and_unscaled_do_not_concatenate(self, small_ip_splits):
        scaled, unscaled = small_ip_splits["train_scaled"], small_ip_splits["calib"]
        for a, b in ((scaled, unscaled), (unscaled, scaled)):
            with pytest.raises(ShapeError, match="incompatible"):
                a.concat(b)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
           st.floats(0.1, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, values, span):
        x = np.array(values, dtype=np.float64)[:, None, None]
        lo, hi = x.min(), x.max() + span
        sc = Scaler(state_min=np.array([lo]), state_max=np.array([hi]),
                    obs_min=np.array([lo]), obs_max=np.array([hi]))
        back = sc.unscale_states(sc.scale_states(x))
        assert np.abs(back - x).max() < 1e-12 * max(1.0, abs(hi), abs(lo))


class TestSplit:
    def test_disjoint_union(self, small_ip_dataset):
        rng = np.random.default_rng(1)
        tr, ca, te = split(small_ip_dataset, 500, 300, 200, rng)
        assert (tr.n, ca.n, te.n) == (500, 300, 200)
        ids = np.concatenate([tr.traj_ids, ca.traj_ids, te.traj_ids])
        assert len(np.unique(ids)) == 1000  # traj_ids are sample ids here

    def test_sequential_no_leakage(self, twt_spec):
        ds = gen_sequential(twt_spec, 20, 10, seed=6)
        rng = np.random.default_rng(2)
        tr, ca, te = split(ds, 100, 50, 50, rng)
        sets = [set(d.traj_ids.tolist()) for d in (tr, ca, te)]
        assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) \
            and not (sets[1] & sets[2])

    def test_sequential_count_granularity(self, twt_spec):
        ds = gen_sequential(twt_spec, 20, 10, seed=6)
        with pytest.raises(InsufficientData):
            split(ds, 95, 50, 50, np.random.default_rng(0))

    def test_insufficient(self, small_ip_dataset):
        with pytest.raises(InsufficientData):
            split(small_ip_dataset, 1000, 300, 300, np.random.default_rng(0))

    def test_paper_profile_counts_accepted(self, ip_spec):
        # the published split sizes pass validation given enough samples
        ds = gen_independent(ip_spec, 80, seed=0)
        big = Dataset(model_name=ds.model_name, mode=ds.mode,
                      obs=np.repeat(ds.obs, 860, axis=0),
                      states=np.repeat(ds.states, 860, axis=0),
                      labels=np.repeat(ds.labels, 860),
                      modes=np.repeat(ds.modes, 860, axis=0),
                      traj_ids=np.arange(80 * 860, dtype=np.int32),
                      seed=0)
        tr, ca, te = split(big, 50_000, 8_500, 10_000,
                           np.random.default_rng(0))
        assert (tr.n, ca.n, te.n) == (50_000, 8_500, 10_000)


class TestSubset:
    @pytest.mark.parametrize("idx", [[], np.array([], dtype=int)],
                             ids=["list", "int_array"])
    def test_empty_keeps_layout(self, small_ip_dataset, idx):
        ds = small_ip_dataset
        sub = ds.subset(idx)
        assert sub.n == 0
        assert (sub.window_len, sub.obs_dim, sub.state_dim) == \
            (ds.window_len, ds.obs_dim, ds.state_dim)
        for name in ("obs", "states", "labels", "modes", "traj_ids"):
            assert getattr(sub, name).dtype == getattr(ds, name).dtype

    def test_boolean_mask_selects_rows(self, small_ip_dataset):
        ds = small_ip_dataset
        mask = ds.labels == 1
        sub = ds.subset(mask)
        assert 0 < sub.n < ds.n
        assert np.array_equal(sub.obs, ds.obs[mask])
        assert np.array_equal(sub.traj_ids, np.flatnonzero(mask))


class TestPersistence:
    def test_bitwise_round_trip(self, small_ip_dataset, tmp_path):
        path = tmp_path / "ds"
        save(small_ip_dataset, path)
        back = load(path)
        assert np.array_equal(back.obs, small_ip_dataset.obs)
        assert np.array_equal(back.states, small_ip_dataset.states)
        assert np.array_equal(back.labels, small_ip_dataset.labels)
        assert back.model_name == "ip" and back.mode == "independent"

    def test_scaled_round_trip(self, small_ip_splits, tmp_path):
        scaled = small_ip_splits["train_scaled"]
        save(scaled, tmp_path / "ds")
        back = load(tmp_path / "ds")
        assert back.scaled
        assert back.scaler.to_dict() == scaled.scaler.to_dict()
        assert back.obs.dtype == np.float64 and np.array_equal(back.obs, scaled.obs)
        assert np.array_equal(back.states, scaled.states)

    def test_truncation_detected(self, small_ip_dataset, tmp_path):
        path = tmp_path / "ds"
        save(small_ip_dataset, path)
        f = path / "obs.bin"
        f.write_bytes(f.read_bytes()[:-8])
        with pytest.raises(IntegrityError):
            load(path)

    @pytest.mark.parametrize("key, value", [
        ("seq_len", "32"), ("seq_len", 1), ("seq_len", 32.0), ("retries", -1),
        ("retries", True), ("windows_per_traj", 0)])
    def test_bad_generation_record_rejected(self, small_ip_dataset, tmp_path,
                                            key, value):
        # ip windows are 2 states long, so a seq_len of 1 cannot be theirs
        path = tmp_path / "ds"
        save(replace(small_ip_dataset, generation={key: value}), path)
        with pytest.raises(IntegrityError, match="generation record"):
            load(path)

    def test_record_absent_loads_empty(self, small_ip_dataset, tmp_path):
        save(replace(small_ip_dataset, generation={}), tmp_path / "ds")
        assert load(tmp_path / "ds").generation == {}

    def test_round_trip_speed(self, ip_spec, tmp_path):
        import time
        ds = gen_independent(ip_spec, 10_000, seed=8)
        t0 = time.time()
        save(ds, tmp_path / "big")
        back = load(tmp_path / "big")
        assert time.time() - t0 < 1.0
        assert back.n == 10_000
