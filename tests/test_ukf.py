from dataclasses import replace

import numpy as np
import pytest

from conftest import write_linear_file
from reachmon import get_spec, load_linear_system
from reachmon.data import _draw_noise, _simulate_tolerant, gen_independent
from reachmon.errors import FilterDiverged, ShapeError
from reachmon.systems import step_batch
from reachmon.ukf import UKFConfig, relative_error, ukf_estimate


def _nan_drift(spec, bad_modes):
    def drift(V, A, Q):
        dV = spec.drift(V, A, Q)
        dV[np.isin(Q, list(bad_modes))] = np.nan
        return dV
    return drift


# --- oracle: the bank as one filter run per (window, starting mode) --------

def _chol_reference(P, cfg):
    jitter = cfg.jitter
    for _ in range(cfg.max_jitter_tries):
        try:
            return np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            P = P + jitter * np.eye(P.shape[0])
            jitter *= 10.0
    raise FilterDiverged("covariance lost positive definiteness")


def _filter_reference(spec, Y, q, cfg, score):
    """One UKF run on one window whose mode starts at ``q``; returns
    ``(estimates, log_likelihood)``."""
    n = spec.state_dim
    lam = cfg.alpha ** 2 * (n + cfg.kappa) - n
    wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = wm[0] + (1.0 - cfg.alpha ** 2 + cfg.beta)
    x = (spec.init_lo + spec.init_hi) / 2.0
    P = np.diag(((spec.init_hi - spec.init_lo) ** 2) / 12.0 + cfg.meas_noise_floor)
    R = np.diag(np.maximum(spec.noise_std ** 2, cfg.meas_noise_floor))
    Qproc = cfg.process_noise * np.eye(n)
    loglik = 0.0
    estimates = np.empty((Y.shape[0], n))
    with np.errstate(all="ignore"):
        for t in range(Y.shape[0]):
            L = _chol_reference((n + lam) * P, cfg)
            pts = np.empty((2 * n + 1, n))
            pts[0] = x
            pts[1:n + 1] = x + L.T
            pts[n + 1:] = x - L.T
            if t > 0:
                Qs = np.full(pts.shape[0], q, dtype=np.int64)
                pts, Qs, ok = step_batch(spec, pts, Qs)
                if not ok.all():
                    raise FilterDiverged("sigma point became non-finite")
                x = wm @ pts
                d = pts - x
                P = (d.T * wc) @ d + Qproc
                P = 0.5 * (P + P.T)
                q = int(Qs[0])
            Qs = np.full(pts.shape[0], q, dtype=np.int64)
            Z = spec.observe_fn(pts, Qs)
            z_hat = wm @ Z
            dz = Z - z_hat
            dx = pts - x
            S = (dz.T * wc) @ dz + R
            C = (dx.T * wc) @ dz
            v = Y[t] - z_hat
            try:
                K = np.linalg.solve(S.T, C.T).T
                if score:
                    Ls = np.linalg.cholesky(S)
                    w = np.linalg.solve(Ls, v)
                    loglik -= 0.5 * (w @ w) + np.log(np.diag(Ls)).sum()
            except np.linalg.LinAlgError:
                raise FilterDiverged("innovation covariance is singular") from None
            x = x + K @ v
            P = P - K @ S @ K.T
            P = 0.5 * (P + P.T)
            if not np.isfinite(x).all():
                raise FilterDiverged("filter state became non-finite")
            estimates[t] = x
    return estimates, loglik


def ukf_reference(spec, obs, cfg=None):
    """Per-window loop over the mode bank; the first most likely finite
    hypothesis wins."""
    cfg = cfg or UKFConfig()
    out = []
    for Y in np.asarray(obs, dtype=np.float64):
        if len(spec.modes) == 1:
            out.append(_filter_reference(spec, Y, spec.modes[0], cfg, False)[0])
            continue
        best, best_ll = None, -np.inf
        for q in spec.modes:
            try:
                est, ll = _filter_reference(spec, Y, q, cfg, True)
            except FilterDiverged:
                continue
            if ll > best_ll:
                best, best_ll = est, ll
        if best is None:
            raise FilterDiverged(f"{spec.name}: every mode hypothesis diverged")
        out.append(best)
    return np.stack(out)


def _oscillator(tmp_path):
    path = write_linear_file(tmp_path / "osc.txt", dim=2,
                             a=[[0.0, 1.0], [-1.0, 0.0]], obs=(0,),
                             unsafe=(0, "le", -10.0), hp=14, hf=1,
                             dt=0.1, noise=(0.05,),
                             init=[(-1.0, 1.0), (-1.0, 1.0)])
    return load_linear_system(path)


class TestUkfBitExact:
    @pytest.mark.parametrize("name", ["ip", "sn", "cvdp", "lalo", "twt", "linear"])
    def test_matches_per_window_reference(self, name, tmp_path):
        spec = _oscillator(tmp_path) if name == "linear" else get_spec(name)
        obs = gen_independent(spec, 40, seed=4).obs
        assert np.array_equal(ukf_estimate(spec, obs), ukf_reference(spec, obs))

    def test_one_nan_mode(self, twt_spec):
        spec = replace(twt_spec, drift=_nan_drift(twt_spec, {7}))
        obs = gen_independent(twt_spec, 40, seed=0).obs
        assert np.array_equal(ukf_estimate(spec, obs), ukf_reference(spec, obs))

    def test_singular_innovation_and_jitter_rows(self, twt_spec):
        # rows whose stacked LAPACK call fails are retried alone: mode 3
        # observes a constant, so its S is singular and the hypothesis is
        # dropped; a zero-width prior on tank 2 needs the Cholesky jitter
        def observe_fn(V, Q):
            Z = V.copy()
            Z[Q == 3] = 0.0
            return Z
        spec = replace(twt_spec, noise_std=np.zeros(3), observe_fn=observe_fn,
                       init_lo=np.array([4.0, 5.0, 4.0]),
                       init_hi=np.array([6.0, 5.0, 6.0]))
        cfg = UKFConfig(meas_noise_floor=0.0, process_noise=0.0)
        obs = gen_independent(twt_spec, 40, seed=0).obs
        assert np.array_equal(ukf_estimate(spec, obs, cfg),
                              ukf_reference(spec, obs, cfg))

    @pytest.mark.parametrize("name", ["sn", "twt"])
    def test_one_window_diverges_in_every_mode(self, name):
        spec = get_spec(name)
        obs = gen_independent(spec, 20, seed=5).obs.astype(np.float64)
        obs[3, -1, 0] = np.nan
        others = np.delete(obs, 3, axis=0)
        assert np.array_equal(ukf_estimate(spec, others),
                              ukf_reference(spec, others))
        with pytest.raises(FilterDiverged):
            ukf_reference(spec, obs[3:4])
        with pytest.raises(FilterDiverged):
            ukf_estimate(spec, obs)

    def test_empty_batch(self, twt_spec):
        assert ukf_estimate(twt_spec, np.zeros((0, 2, 3))).shape == (0, 2, 3)


class TestUkf:
    def test_linear_noiseless_convergence(self, tmp_path):
        # harmonic oscillator, position observed, no noise: estimates lock
        # onto the closed-form trajectory within ten updates
        path = write_linear_file(tmp_path / "osc.txt", dim=2,
                                 a=[[0.0, 1.0], [-1.0, 0.0]], obs=(0,),
                                 unsafe=(0, "le", -10.0), hp=14, hf=1,
                                 dt=0.1, noise=(0.0,),
                                 init=[(-1.0, 1.0), (-1.0, 1.0)])
        spec = load_linear_system(path)
        truth, _, _ = _simulate_tolerant(spec, np.array([[0.4, -0.3]]),
                                         np.zeros(1, dtype=np.int64), 14)
        obs_seq = truth[:, 0, :1]
        est = ukf_estimate(spec, obs_seq[None], UKFConfig(process_noise=1e-10))[0]
        err = np.abs(est[10:, 0] - truth[10:, 0, 0])
        assert err.max() < 1e-3

    def test_identity_observation_tracks_levels(self, twt_spec):
        spec = twt_spec
        rng = np.random.default_rng(0)
        ds = gen_independent(spec, 30, seed=0)
        est = ukf_estimate(spec, ds.obs[:10])
        err = np.abs(est - ds.states[:10].astype(np.float64))
        assert err.max() < 3.0 * spec.noise_std.max() + 0.05

    def test_deterministic(self, twt_spec):
        ds = gen_independent(twt_spec, 2, seed=1)
        a = ukf_estimate(twt_spec, ds.obs)
        b = ukf_estimate(twt_spec, ds.obs)
        assert np.array_equal(a, b)

    def test_shape_validation(self, twt_spec):
        with pytest.raises(ShapeError):
            ukf_estimate(twt_spec, np.zeros((1, 2, 5)))
        with pytest.raises(ShapeError):
            ukf_estimate(twt_spec, np.zeros((2, 3)))

    def test_diverging_mode_hypothesis_dropped(self, twt_spec):
        # drift is NaN in mode 7, so that hypothesis diverges on every
        # window; the other seven still give finite estimates that track
        # windows starting in another mode.  twt windows are 2 states long,
        # so the one transition is one RK4 flow: 4 drift calls, the
        # diverging sigma points integrated once with the others
        bad, calls = 7, []
        nan_drift = _nan_drift(twt_spec, {bad})

        def drift(V, A, Q):
            calls.append(len(V))
            return nan_drift(V, A, Q)
        spec = replace(twt_spec, drift=drift)
        ds = gen_independent(twt_spec, 40, seed=0)
        est = ukf_estimate(spec, ds.obs)[:10]
        assert len(calls) == 4
        assert np.isfinite(est).all()
        good = ds.modes[:10, 0] != bad
        err = np.abs(est[good] - ds.states[:10][good].astype(np.float64))
        assert err.max() < 3.0 * spec.noise_std.max() + 0.05

    def test_all_mode_hypotheses_diverge(self, twt_spec):
        spec = replace(twt_spec, drift=_nan_drift(twt_spec, set(twt_spec.modes)))
        ds = gen_independent(twt_spec, 2, seed=1)
        with pytest.raises(FilterDiverged):
            ukf_estimate(spec, ds.obs[:1])

    def test_runs_through_sn_jump(self):
        # sigma points pass through the reset logic without diverging
        spec = get_spec("sn")
        Vs, Qs, _ = _simulate_tolerant(spec, np.array([[29.5, 10.0]]),
                                       np.zeros(1, dtype=np.int64), spec.past_horizon)
        obs_seq = (spec.observe_fn(Vs[:, 0], Qs[:, 0])
                   + _draw_noise(spec, 3, [0], [0], spec.window_len)[0])
        est = ukf_estimate(spec, obs_seq[None])
        assert np.isfinite(est).all()


def _relative_error_per_window(true, est, ranges):
    """Reference: one ``np.linalg.norm`` per window."""
    keep = ranges > 0
    return np.array([np.linalg.norm((a - b)[..., keep].ravel()) / ranges[keep].max()
                     for a, b in zip(true, est)])


class TestRelativeError:
    def test_zero_for_equal(self):
        x = np.random.default_rng(0).normal(size=(4, 5, 3))
        r = relative_error(x, x, np.ones(3))
        assert r.shape == (4,)
        assert (r == 0.0).all()

    def test_constant_offset_closed_form(self):
        # offset of one full range unit on one dimension over L steps:
        # norm = range * sqrt(L), denominator = max range
        N, L = 3, 6
        true = np.zeros((N, L, 2))
        est = true.copy()
        ranges = np.array([2.0, 5.0])
        est[:, :, 0] += ranges[0]
        want = ranges[0] * np.sqrt(L) / ranges.max()
        r = relative_error(true, est, ranges)
        assert r.shape == (N,)
        assert r == pytest.approx(np.full(N, want))

    def test_zero_range_dimension_excluded(self):
        true = np.zeros((3, 4, 2))
        est = np.ones((3, 4, 2))
        with pytest.warns(UserWarning) as record:
            v = relative_error(true, est, np.array([0.0, 2.0]))
        assert len(record) == 1   # once per call, not once per window
        assert v == pytest.approx(np.full(3, np.sqrt(4.0) / 2.0))

    def test_nonnegative_and_definite(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(20, 3, 2))
        b = rng.normal(size=(20, 3, 2))
        b[::4] = a[::4]
        r = relative_error(a, b, np.array([1.0, 1.0]))
        assert (r >= 0.0).all()
        assert np.array_equal(r == 0.0, (a == b).all(axis=(1, 2)))

    @pytest.mark.parametrize("shape", [(1, 7, 3), (50, 7, 3), (13, 15, 7),
                                       (200, 10, 2)],
                             ids=["one-window", "odd-Ln", "wide", "many"])
    def test_equals_per_window_norm_exactly(self, shape):
        rng = np.random.default_rng(sum(shape))
        true = rng.normal(size=shape) * 30.0
        est = true + rng.normal(size=shape)
        ranges = rng.uniform(0.5, 40.0, size=shape[-1])
        got = relative_error(true, est, ranges)
        assert got.shape == (shape[0],)
        assert (got == _relative_error_per_window(true, est, ranges)).all()

    def test_zero_range_equals_per_window_norm_exactly(self):
        rng = np.random.default_rng(7)
        true = rng.normal(size=(9, 11, 3))
        est = true + rng.normal(size=(9, 11, 3))
        ranges = np.array([1.5, 0.0, 4.0])
        with pytest.warns(UserWarning, match="1 zero-range") as record:
            got = relative_error(true, est, ranges)
        assert len(record) == 1
        assert (got == _relative_error_per_window(true, est, ranges)).all()

    def test_empty_stack(self):
        r = relative_error(np.zeros((0, 4, 2)), np.zeros((0, 4, 2)), np.ones(2))
        assert r.shape == (0,)

    def test_shape_validation(self):
        ones = np.ones(2)
        with pytest.raises(ShapeError, match="differ"):
            relative_error(np.zeros((2, 4, 2)), np.zeros((2, 5, 2)), ones)
        with pytest.raises(ShapeError, match="stacks"):
            relative_error(np.zeros((4, 2)), np.zeros((4, 2)), ones)
        with pytest.raises(ShapeError, match="state_range"):
            relative_error(np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), np.ones(3))
        with pytest.raises(ShapeError, match="all state dimensions"), \
                pytest.warns(UserWarning):
            relative_error(np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), np.zeros(2))
