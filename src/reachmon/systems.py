"""Discrete-time deterministic hybrid systems with noisy observation.

A system is described by a :class:`HybridSystemSpec` holding vectorized
callables for the mode-dependent continuous dynamics ``drift(V, A, Q)``, the
control law, the jump/reset rule, the observation map and the unsafe-set
predicate.  One transition integrates the dynamics over ``dt`` with a
fixed-step classic Runge-Kutta scheme, holding the control computed at the
step start constant, and then applies the jump rule once to the
post-integration state.
:func:`flow` is the one integrator and :func:`step_batch` the one transition;
reach labels, generation and the UKF each decide what to do with its flags.

All callables operate on batches: states are ``(B, state_dim)`` arrays and
modes are ``(B,)`` integer arrays, so large numbers of trajectories are
simulated in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class HybridSystemSpec:
    """A benchmark model: dynamics, control, jumps, observation and horizons.

    The callables are batched:

    - ``drift(V, A, Q) -> dV``          continuous dynamics per mode
    - ``control(V, Q) -> A``            control input, held constant per step
    - ``observe_fn(V, Q) -> Y``         noise-free observation map
    - ``jump(V, Q) -> (V', Q')``        resets / mode switches, applied once
      after integration
    - ``unsafe(V, Q) -> bool array``    unsafe-set membership
    - ``init_mode(V) -> Q``             mode convention for sampled initials
    """

    name: str
    state_dim: int
    obs_dim: int
    modes: tuple[int, ...]
    dt: float
    past_horizon: int
    future_horizon: int
    noise_std: np.ndarray
    init_lo: np.ndarray
    init_hi: np.ndarray
    drift: Callable
    control: Callable
    observe_fn: Callable
    jump: Callable
    unsafe: Callable
    init_mode: Callable

    def __post_init__(self):
        object.__setattr__(self, "noise_std", np.asarray(self.noise_std, dtype=np.float64))
        object.__setattr__(self, "init_lo", np.asarray(self.init_lo, dtype=np.float64))
        object.__setattr__(self, "init_hi", np.asarray(self.init_hi, dtype=np.float64))
        if self.past_horizon < 1 or self.future_horizon < 1:
            raise ValueError("horizons must be >= 1")
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not (self.noise_std >= 0).all():
            raise ValueError("noise_std must be componentwise >= 0")
        if (self.init_hi < self.init_lo).any():
            raise ValueError("init_domain is empty")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.init_hi - self.init_lo).all():
                raise ValueError("init_domain must have a finite width")

    @property
    def window_len(self) -> int:
        return self.past_horizon + 1


def _rk4(spec, V, A, Q, h):
    k1 = spec.drift(V, A, Q)
    k2 = spec.drift(V + 0.5 * h * k1, A, Q)
    k3 = spec.drift(V + 0.5 * h * k2, A, Q)
    k4 = spec.drift(V + h * k3, A, Q)
    return V + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow(spec: HybridSystemSpec, V: np.ndarray, Q: np.ndarray,
         substeps: int = 1) -> np.ndarray:
    """Continuous part of one transition for a batch of states: control is
    evaluated at the step start and held over ``substeps`` Runge-Kutta
    steps of ``dt / substeps``.  Sub-steps only refine the frozen-input flow;
    the control/jump cadence is part of the discrete-time model."""
    A = spec.control(V, Q)
    h = spec.dt / substeps
    for _ in range(substeps):
        V = _rk4(spec, V, A, Q, h)
    return V


def step_batch(spec: HybridSystemSpec, V: np.ndarray, Q: np.ndarray):
    """One transition for a batch of states: :func:`flow`, then the row-wise
    jump rule.  Returns ``(V', Q', ok)``: a row whose flow is not finite is
    false in ``ok`` and jumps from zero, for the caller to raise on, mask or drop."""
    V1 = flow(spec, V, Q)
    finite = np.isfinite(V1)   # reduced by row only when needed: all(axis=1) is slow
    ok = np.ones(len(V1), dtype=bool) if finite.all() else finite.all(axis=1)
    V1[~ok] = 0.0
    return (*spec.jump(V1, Q), ok)

