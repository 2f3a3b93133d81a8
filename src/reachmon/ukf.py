"""Unscented Kalman filter baseline for window state estimation.

The filter runs the spec's full transition, :func:`systems.step_batch`, as
its process model and the spec's observation map as its measurement model.
The prior is the moment-matched Gaussian of the uniform initial-state box.

A window's starting mode is not known: windows are the tail of longer
sequences, so on a hybrid model such as ``twt`` the mode comes from the
switching history rather than from a formula on the state.  The filter is
therefore a static bank of mode hypotheses, one per mode in ``spec.modes``.
Each hypothesis starts in its mode and advances it through the jump rule of
the central sigma point; that mode is shared by all its sigma points.  Each
is scored by the Gaussian log-likelihood of its innovations,
``sum_t -(v_t' S_t^-1 v_t + log det S_t) / 2``, and the estimates of the
most likely hypothesis are returned.  A hypothesis whose covariance breaks
down or whose state or sigma point becomes non-finite is dropped.

Cost: one call filters a whole batch of windows.  Every (window, starting
mode) hypothesis runs in one lockstep pass over time, with stacked LAPACK
calls and one transition and one observation call per step on all sigma
points.  A single-mode model has nothing to compare, so it skips the
likelihood altogether.  Mode probabilities do not interact between
hypotheses (this is not an IMM filter).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FilterDiverged, ShapeError
from .systems import HybridSystemSpec, step_batch


@dataclass
class UKFConfig:
    alpha: float = 1e-3
    beta: float = 2.0
    kappa: float = 0.0
    process_noise: float = 1e-4   # diagonal process covariance
    meas_noise_floor: float = 1e-10
    jitter: float = 1e-9
    max_jitter_tries: int = 8


def _chol(P, cfg: UKFConfig):
    jitter = cfg.jitter
    for _ in range(cfg.max_jitter_tries):
        try:
            return np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            P = P + jitter * np.eye(P.shape[0])
            jitter *= 10.0
    raise FilterDiverged("covariance lost positive definiteness")


def _stacked(fn, *stacks, retry=None):
    """``fn`` on stacks of matrices, as one call.  When that call raises,
    each row is retried alone with ``retry`` (default ``fn``).  Returns
    ``(out, ok)``; a row that raises again is NaN in ``out`` and false in
    ``ok``.  ``out`` has the shape of the last stack, as for ``solve`` and
    ``cholesky``."""
    ok = np.ones(len(stacks[0]), dtype=bool)
    try:
        return fn(*stacks), ok
    except np.linalg.LinAlgError:
        pass
    out = np.full(stacks[-1].shape, np.nan)
    for i in range(len(ok)):
        try:
            out[i] = (retry or fn)(*(s[i] for s in stacks))
        except (np.linalg.LinAlgError, FilterDiverged):
            ok[i] = False
    return out, ok


def _weighted_outer(a, w, b):
    """``sum_k w_k a_k b_k'`` per hypothesis for (M, K, .) stacks."""
    return (a * w[:, None]).transpose(0, 2, 1) @ b


def ukf_estimate(spec: HybridSystemSpec, obs, cfg: UKFConfig | None = None
                 ) -> np.ndarray:
    """Forward filtered state estimates for a batch of observation windows.

    ``obs`` is (N, H_p+1, obs_dim) in physical units; returns the
    (N, H_p+1, state_dim) posterior state means.  Each window gets one
    hypothesis per starting mode in ``spec.modes``, and the estimates of the
    hypothesis with the largest innovation log-likelihood are returned; a
    single-mode model skips the likelihood.  All ``N * len(spec.modes)``
    hypotheses run in one lockstep pass.  Hypotheses that diverge are
    dropped; :class:`FilterDiverged` is raised when every hypothesis of some
    window does.
    """
    cfg = cfg or UKFConfig()
    Y = np.asarray(obs, dtype=np.float64)
    if Y.ndim != 3 or Y.shape[2] != spec.obs_dim:
        raise ShapeError(f"obs shape {Y.shape} != (N, L, {spec.obs_dim})")
    N, L, _ = Y.shape
    n, K = spec.state_dim, 2 * spec.state_dim + 1
    n_modes = len(spec.modes)
    score = n_modes > 1

    lam = cfg.alpha ** 2 * (n + cfg.kappa) - n
    wm = np.full(K, 1.0 / (2.0 * (n + lam)))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = wm[0] + (1.0 - cfg.alpha ** 2 + cfg.beta)
    R = np.diag(np.maximum(spec.noise_std ** 2, cfg.meas_noise_floor))
    Qproc = cfg.process_noise * np.eye(n)

    # One row per live hypothesis, ``hyp = window * n_modes + mode index``;
    # a hypothesis that diverges is removed from every per-row array.
    M = N * n_modes
    hyp = np.arange(M)
    q = np.tile(np.asarray(spec.modes, dtype=np.int64), N)
    x = np.tile((spec.init_lo + spec.init_hi) / 2.0, (M, 1))
    P = np.tile(np.diag(((spec.init_hi - spec.init_lo) ** 2) / 12.0
                        + cfg.meas_noise_floor), (M, 1, 1))
    loglik = np.zeros(M)
    estimates = np.empty((M, L, n))

    with np.errstate(all="ignore"):
        for t in range(L):
            # sigma points; a factor that fails even with jitter leaves NaN
            # points, so its hypothesis is dropped further on
            Lc, _ = _stacked(np.linalg.cholesky, (n + lam) * P,
                             retry=lambda A: _chol(A, cfg))
            Lt = Lc.transpose(0, 2, 1)
            pts = np.empty((len(hyp), K, n))
            pts[:, 0] = x
            pts[:, 1:n + 1] = x[:, None] + Lt
            pts[:, n + 1:] = x[:, None] - Lt
            Qs = np.repeat(q, K)
            if t > 0:
                V, Qs, ok = step_batch(spec, pts.reshape(-1, n), Qs)
                if not ok.all():   # drop each hypothesis with a flagged sigma point
                    ok = ok.reshape(len(hyp), K).all(axis=1)
                    hyp, q, loglik = hyp[ok], q[ok], loglik[ok]
                    V, Qs = (a[np.repeat(ok, K)] for a in (V, Qs))
                pts = V.reshape(-1, K, n)
                x = wm @ pts
                d = pts - x[:, None]
                P = _weighted_outer(d, wc, d) + Qproc
                P = 0.5 * (P + P.transpose(0, 2, 1))
                q = Qs[::K]
                Qs = np.repeat(q, K)

            # measurement update; a singular S leaves NaN in the row
            Z = spec.observe_fn(pts.reshape(-1, n), Qs)
            Z = Z.reshape(len(hyp), K, spec.obs_dim)
            z_hat = wm @ Z
            dz = Z - z_hat[:, None]
            S = _weighted_outer(dz, wc, dz) + R
            C = _weighted_outer(pts - x[:, None], wc, dz)
            v = Y[hyp // n_modes, t] - z_hat
            # the gain is the transposed view of a C-ordered (M, obs_dim, n)
            # solution, the memory layout the matrix products depend on
            Kt, ok = _stacked(np.linalg.solve, S.transpose(0, 2, 1),
                              C.transpose(0, 2, 1))
            Kg = Kt.transpose(0, 2, 1)
            if score:
                Ls, ok_s = _stacked(np.linalg.cholesky, S)
                w, ok_w = _stacked(np.linalg.solve, Ls, v[:, :, None])
                ok &= ok_s & ok_w
                logdet = np.log(np.diagonal(Ls, axis1=1, axis2=2)).sum(axis=1)
                loglik = loglik - (0.5 * (w.transpose(0, 2, 1) @ w)[:, 0, 0]
                                   + logdet)
            x = x + (Kg @ v[:, :, None])[:, :, 0]
            P = P - Kg @ S @ Kt
            P = 0.5 * (P + P.transpose(0, 2, 1))
            ok &= np.isfinite(x).all(axis=1)
            if not ok.all():
                hyp, q, x, P, loglik = (a[ok] for a in (hyp, q, x, P, loglik))
            estimates[hyp, t] = x

    if not score:
        if len(hyp) < M:
            raise FilterDiverged(f"{spec.name}: the filter diverged")
        return estimates
    # per window, the first hypothesis with the largest finite log-likelihood
    ll = np.full(M, -np.inf)
    ll[hyp] = np.where(loglik > -np.inf, loglik, -np.inf)
    ll = ll.reshape(N, n_modes)
    if not (ll > -np.inf).any(axis=1).all():
        raise FilterDiverged(f"{spec.name}: every mode hypothesis diverged")
    best = np.argmax(ll, axis=1)
    return estimates.reshape(N, n_modes, L, n)[np.arange(N), best]


def relative_error(true_seqs, est_seqs, state_range) -> np.ndarray:
    """Relative reconstruction error of each of N state sequences.

    ``true_seqs`` and ``est_seqs`` are (N, L, n) stacks.  Row ``i`` of the
    (N,) result is the Euclidean norm of ``true_seqs[i] - est_seqs[i]`` over
    the dimensions of nonzero range, divided by the largest range.
    Zero-range dimensions are excluded with one warning per call.

    Each row's squared norm is one BLAS dot, reached through a stacked
    (N, 1, K) @ (N, K, 1) matmul: the same dot ``np.linalg.norm`` takes on
    the flattened row, so every error equals the per-sequence norm bit for
    bit (``einsum`` or ``(d * d).sum`` would sum in another order).
    """
    a = np.asarray(true_seqs, dtype=np.float64)
    b = np.asarray(est_seqs, dtype=np.float64)
    r = np.asarray(state_range, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"sequence shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 3:
        raise ShapeError(f"expected (N, L, n) stacks, got shape {a.shape}")
    if a.shape[-1] != r.size:
        raise ShapeError("state_range length does not match state dimension")
    keep = r > 0
    if not keep.all():
        warnings.warn(f"excluding {int((~keep).sum())} zero-range dimension(s) "
                      "from relative error")
    if not keep.any():
        raise ShapeError("all state dimensions have zero range")
    N, L, _ = a.shape
    d = (a[..., keep] - b[..., keep]).reshape(N, 1, L * int(keep.sum()))
    sq = (d @ d.transpose(0, 2, 1)).reshape(N)
    return np.sqrt(sq) / r[keep].max()
