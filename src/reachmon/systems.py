"""Discrete-time deterministic hybrid systems with noisy observation.

A system is described by a :class:`HybridSystemSpec` holding vectorized
callables for the mode-dependent continuous dynamics, the control law, the
jump/reset rule, the observation map and the unsafe-set predicate.  One
transition integrates the dynamics over ``dt`` with a fixed-step classic
Runge-Kutta scheme, holding the control computed at the step start constant,
and then applies the jump rule once to the post-integration state.
:func:`flow` is the one integrator: :func:`step_batch` (simulation, reach
labels, the UKF) and dataset generation both call it.

All callables operate on batches: states are ``(B, state_dim)`` arrays and
modes are ``(B,)`` integer arrays, so large numbers of trajectories can be
simulated in lockstep.  Scalar wrappers (:func:`step`, :func:`simulate`,
:func:`observe`) expose the single-state API on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import IntegrationDiverged, ShapeError


@dataclass(frozen=True)
class HybridState:
    """Continuous variables plus discrete mode."""

    v: np.ndarray
    q: int = 0

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))


@dataclass(frozen=True)
class HybridSystemSpec:
    """A benchmark model: dynamics, control, jumps, observation and horizons.

    The callables are batched:

    - ``drift(V, A, t, Q) -> dV``       continuous dynamics per mode
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
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "noise_std", np.asarray(self.noise_std, dtype=np.float64))
        object.__setattr__(self, "init_lo", np.asarray(self.init_lo, dtype=np.float64))
        object.__setattr__(self, "init_hi", np.asarray(self.init_hi, dtype=np.float64))
        if self.past_horizon < 1 or self.future_horizon < 1:
            raise ValueError("horizons must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if (self.noise_std < 0).any():
            raise ValueError("noise_std must be componentwise >= 0")
        if (self.init_hi < self.init_lo).any():
            raise ValueError("init_domain is empty")

    def with_noise_scale(self, scale: float) -> "HybridSystemSpec":
        """Copy of the spec with observation noise std multiplied by ``scale``."""
        return replace(self, noise_std=self.noise_std * float(scale))

    @property
    def window_len(self) -> int:
        return self.past_horizon + 1


@dataclass(frozen=True)
class Trajectory:
    """Ordered states produced by :func:`simulate`."""

    states: tuple
    t0: float
    dt: float

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]


def _check_state(spec: HybridSystemSpec, s: HybridState):
    if s.v.shape != (spec.state_dim,):
        raise ShapeError(
            f"{spec.name}: state has shape {s.v.shape}, expected ({spec.state_dim},)"
        )
    if s.q not in spec.modes:
        raise ShapeError(f"{spec.name}: mode {s.q} not in mode set {spec.modes}")


def _rk4(spec, V, A, Q, t, h):
    k1 = spec.drift(V, A, t, Q)
    k2 = spec.drift(V + 0.5 * h * k1, A, t + 0.5 * h, Q)
    k3 = spec.drift(V + 0.5 * h * k2, A, t + 0.5 * h, Q)
    k4 = spec.drift(V + h * k3, A, t + h, Q)
    return V + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow(spec: HybridSystemSpec, V: np.ndarray, Q: np.ndarray, t: float,
         substeps: int = 1) -> np.ndarray:
    """Continuous part of one transition for a batch of states: control is
    evaluated at the step start ``t`` and held over ``substeps`` Runge-Kutta
    steps of ``dt / substeps``.  Sub-steps only refine the frozen-input flow;
    the control/jump cadence is part of the discrete-time model."""
    A = spec.control(V, Q)
    h = spec.dt / substeps
    for i in range(substeps):
        V = _rk4(spec, V, A, Q, t + i * h, h)
    return V


def step_batch(spec: HybridSystemSpec, V: np.ndarray, Q: np.ndarray,
               t: float = 0.0, substeps: int = 1):
    """One transition for a batch of states: :func:`flow`, which must stay
    finite, then the jump rule once; returns ``(V', Q')``."""
    V1 = flow(spec, V, Q, t, substeps)
    if not np.isfinite(V1).all():
        raise IntegrationDiverged(f"{spec.name}: non-finite state after integration")
    return spec.jump(V1, Q)


def simulate_batch(spec: HybridSystemSpec, V0: np.ndarray, Q0: np.ndarray,
                   n_steps: int, t0: float = 0.0, substeps: int = 1):
    """Simulate a batch of trajectories; returns ``(n_steps+1, B, dim)`` states
    and ``(n_steps+1, B)`` modes."""
    B = V0.shape[0]
    Vs = np.empty((n_steps + 1, B, spec.state_dim), dtype=np.float64)
    Qs = np.empty((n_steps + 1, B), dtype=np.int64)
    Vs[0], Qs[0] = V0, Q0
    V, Q = V0, Q0
    for k in range(n_steps):
        try:
            V, Q = step_batch(spec, V, Q, t0 + k * spec.dt, substeps=substeps)
        except IntegrationDiverged as exc:
            raise IntegrationDiverged(str(exc), step_index=k) from None
        Vs[k + 1], Qs[k + 1] = V, Q
    return Vs, Qs


def step(spec: HybridSystemSpec, s: HybridState, substeps: int = 1) -> HybridState:
    """One deterministic transition of a single state."""
    _check_state(spec, s)
    V, Q = step_batch(spec, s.v[None, :], np.array([s.q], dtype=np.int64),
                      substeps=substeps)
    return HybridState(V[0], int(Q[0]))


def simulate(spec: HybridSystemSpec, s0: HybridState, n_steps: int,
             t0: float = 0.0, substeps: int = 1) -> Trajectory:
    """Trajectory of ``n_steps + 1`` states starting at ``s0``."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    _check_state(spec, s0)
    Vs, Qs = simulate_batch(spec, s0.v[None, :], np.array([s0.q], dtype=np.int64),
                            n_steps, t0, substeps=substeps)
    states = tuple(HybridState(Vs[k, 0], int(Qs[k, 0])) for k in range(n_steps + 1))
    return Trajectory(states=states, t0=t0, dt=spec.dt)


def observe_batch(spec: HybridSystemSpec, V: np.ndarray, Q: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Noisy observations for a batch of states."""
    Y = spec.observe_fn(V, Q)
    if (spec.noise_std > 0).any():
        Y = Y + rng.normal(0.0, 1.0, size=Y.shape) * spec.noise_std
    return Y


def observe(spec: HybridSystemSpec, s: HybridState,
            rng: np.random.Generator) -> np.ndarray:
    """Observation of one state: the observation map plus Gaussian noise."""
    _check_state(spec, s)
    return observe_batch(spec, s.v[None, :], np.array([s.q], dtype=np.int64), rng)[0]


def sample_initial_batch(spec: HybridSystemSpec, n: int,
                         rng: np.random.Generator):
    """``n`` initial states: continuous part uniform over the init box, modes
    per the model convention."""
    V = rng.uniform(spec.init_lo, spec.init_hi, size=(n, spec.state_dim))
    Q = spec.init_mode(V)
    return V, Q


def sample_initial(spec: HybridSystemSpec, rng: np.random.Generator) -> HybridState:
    V, Q = sample_initial_batch(spec, 1, rng)
    return HybridState(V[0], int(Q[0]))
