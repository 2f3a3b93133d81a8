"""Benchmark hybrid systems and the generic linear-system loader.

The registry maps short names to builders: ``ip`` (inverted pendulum on a
cart), ``sn`` (spiking neuron action potential), ``cvdp`` (coupled Van der
Pol oscillators), ``lalo`` (Laub-Loomis enzymatic network), ``twt`` (triple
water tank), plus ``linear:<path>`` for user-supplied linear systems.

Where the literature leaves constants unspecified (integration step, water
tank geometry, initial boxes for the higher-dimensional models) the defaults
below were tuned so that datasets sampled from the init box contain both
safety classes and the fixed-step integrator passes a dt-halving convergence
check; all of them can be overridden via ``dataclasses.replace`` or the
``overrides`` argument of :func:`get_spec`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError
from .systems import HybridSystemSpec


def _single_mode(V):
    return np.zeros(V.shape[0], dtype=np.int64)


def _identity_jump(V, Q):
    return V, Q


def _no_control(V, Q):
    return None


# --- Inverted pendulum on a cart ------------------------------------------

def ip_spec(dt: float = 0.1) -> HybridSystemSpec:
    """Two-dimensional pendulum (angle, angular velocity) with an
    energy-based swing-up/stabilize controller and a scalar energy
    observation ``y = omega/2 + cos(theta) - 1``."""

    def control(V, Q):
        th, om = V[:, 0], V[:, 1]
        energy = 0.5 * om + (np.cos(th) - 1.0)
        u = np.where(
            energy < -1.0,
            om / (1.0 + np.abs(om)) * np.cos(th),
            np.where(
                energy > 1.0,
                -om / (1.0 + np.abs(om)) * np.cos(th),
                np.where(
                    np.abs(om) + np.abs(th) <= 1.85,
                    (2.0 * om + th + np.sin(th)) / np.cos(th),
                    0.0,
                ),
            ),
        )
        return u[:, None]

    def drift(V, A, t, Q):
        th, om = V[:, 0], V[:, 1]
        u = A[:, 0]
        return np.stack([om, np.sin(th) - np.cos(th) * u], axis=1)

    def observe_fn(V, Q):
        return (0.5 * V[:, 1] + np.cos(V[:, 0]) - 1.0)[:, None]

    def unsafe(V, Q):
        return np.abs(V[:, 0]) >= np.pi / 6.0

    return HybridSystemSpec(
        name="ip", state_dim=2, obs_dim=1, modes=(0,), dt=dt,
        past_horizon=1, future_horizon=5,
        noise_std=[0.005],
        init_lo=[-np.pi / 4.0, -1.5], init_hi=[np.pi / 4.0, 1.5],
        drift=drift, control=control, observe_fn=observe_fn,
        jump=_identity_jump, unsafe=unsafe, init_mode=_single_mode,
    )


# --- Spiking neuron ---------------------------------------------------------

SN_PARAMS = {"a": 0.02, "b": 0.2, "c": -65.0, "d": 8.0, "current": 40.0}


def sn_spec(dt: float = 0.01) -> HybridSystemSpec:
    """Action-potential model, state (potential, recovery).  The potential
    follows the quadratic ODE and is reset to ``c`` when it crosses 30, with
    the recovery bumped by ``d``; only the recovery channel is observed."""
    p = SN_PARAMS

    def drift(V, A, t, Q):
        pot, rec = V[:, 0], V[:, 1]
        dpot = 0.04 * pot * pot + 5.0 * pot + 140.0 - rec + p["current"]
        drec = p["a"] * (p["b"] * pot - rec)
        return np.stack([dpot, drec], axis=1)

    def jump(V, Q):
        fired = V[:, 0] >= 30.0
        if fired.any():
            V = V.copy()
            V[fired, 0] = p["c"]
            V[fired, 1] = V[fired, 1] + p["d"]
        return V, Q

    def observe_fn(V, Q):
        return V[:, 1:2]

    def unsafe(V, Q):
        return V[:, 0] <= -68.5

    return HybridSystemSpec(
        name="sn", state_dim=2, obs_dim=1, modes=(0,), dt=dt,
        past_horizon=4, future_horizon=16,
        noise_std=[0.1],
        init_lo=[-68.5, 0.0], init_hi=[30.0, 25.0],
        drift=drift, control=_no_control, observe_fn=observe_fn,
        jump=jump, unsafe=unsafe, init_mode=_single_mode,
        params=dict(p),
    )


# --- Coupled Van der Pol oscillators ----------------------------------------

def cvdp_spec(dt: float = 0.05) -> HybridSystemSpec:
    """Two coupled oscillators; positions of both are observed, the unsafe
    set requires both velocities to exceed 2.75 simultaneously."""

    def drift(V, A, t, Q):
        s1, s2, s3, s4 = V[:, 0], V[:, 1], V[:, 2], V[:, 3]
        return np.stack([
            s2,
            (1.0 - s1 * s1) * s2 - 2.0 * s1 + s3,
            s4,
            (1.0 - s3 * s3) * s4 - 2.0 * s3 + s1,
        ], axis=1)

    def observe_fn(V, Q):
        return V[:, [0, 2]]

    def unsafe(V, Q):
        return (V[:, 1] >= 2.75) & (V[:, 3] >= 2.75)

    return HybridSystemSpec(
        name="cvdp", state_dim=4, obs_dim=2, modes=(0,), dt=dt,
        past_horizon=8, future_horizon=7,
        noise_std=[0.01, 0.01],
        init_lo=[1.25] * 4, init_hi=[1.55] * 4,
        drift=drift, control=_no_control, observe_fn=observe_fn,
        jump=_identity_jump, unsafe=unsafe, init_mode=_single_mode,
    )


# --- Laub-Loomis -------------------------------------------------------------

def lalo_spec(dt: float = 0.05) -> HybridSystemSpec:
    """Seven-dimensional enzymatic network; every variable except the
    safety-critical fourth one is observed."""

    def drift(V, A, t, Q):
        s1, s2, s3, s4, s5, s6, s7 = (V[:, i] for i in range(7))
        return np.stack([
            1.4 * s3 - 0.9 * s1,
            2.5 * s5 - 1.5 * s2,
            0.6 * s7 - 0.8 * s2 * s3,
            2.0 - 1.3 * s3 * s4,
            0.7 * s1 - s4 * s5,
            0.3 * s1 - 3.1 * s6,
            1.8 * s6 - 1.5 * s2 * s7,
        ], axis=1)

    def observe_fn(V, Q):
        return V[:, [0, 1, 2, 4, 5, 6]]

    def unsafe(V, Q):
        return V[:, 3] >= 4.5

    return HybridSystemSpec(
        name="lalo", state_dim=7, obs_dim=6, modes=(0,), dt=dt,
        past_horizon=5, future_horizon=20,
        noise_std=[0.01] * 6,
        init_lo=[0.5, 0.5, 0.1, 2.0, 0.5, 0.0, 0.1],
        init_hi=[1.5, 1.5, 1.0, 4.5, 1.5, 0.5, 0.7],
        drift=drift, control=_no_control, observe_fn=observe_fn,
        jump=_identity_jump, unsafe=unsafe, init_mode=_single_mode,
    )


# --- Triple water tank -------------------------------------------------------

TWT_PARAMS = {
    "area": 1.0, "inflow_coef": 0.1, "outflow_coef": 0.1, "gravity": 9.81,
    "pump_rate": 2.0, "pump_on_level": 4.6, "pump_off_level": 5.4,
    "safe_lo": 4.5, "safe_hi": 5.5,
}


def twt_spec(dt: float = 0.1) -> HybridSystemSpec:
    """Three cascaded tanks, each with an on/off pump.  The mode is the pump
    configuration encoded as a 3-bit mask; pumps switch on when a level falls
    to ``pump_on_level`` and off when it reaches ``pump_off_level``, so the
    levels sweep the safe band and occasionally overshoot it."""
    p = TWT_PARAMS

    def _pump_bits(Q):
        return np.stack([(Q >> i) & 1 for i in range(3)], axis=1).astype(np.float64)

    def drift(V, A, t, Q):
        pumps = _pump_bits(Q)
        prev = np.concatenate([np.zeros((V.shape[0], 1)), V[:, :2]], axis=1)
        inflow = p["inflow_coef"] * np.sqrt(np.maximum(2.0 * p["gravity"] * prev, 0.0))
        outflow = p["outflow_coef"] * np.sqrt(np.maximum(2.0 * p["gravity"] * V, 0.0))
        return (inflow - outflow + p["pump_rate"] * pumps) / p["area"]

    def jump(V, Q):
        bits = np.stack([(Q >> i) & 1 for i in range(3)], axis=1).astype(bool)
        bits = np.where(V <= p["pump_on_level"], True,
                        np.where(V >= p["pump_off_level"], False, bits))
        Qn = (bits[:, 0].astype(np.int64)
              | (bits[:, 1].astype(np.int64) << 1)
              | (bits[:, 2].astype(np.int64) << 2))
        return V, Qn

    def observe_fn(V, Q):
        return V.copy()

    def unsafe(V, Q):
        return ((V < p["safe_lo"]) | (V > p["safe_hi"])).any(axis=1)

    def init_mode(V):
        bits = V < 5.0
        return (bits[:, 0].astype(np.int64)
                | (bits[:, 1].astype(np.int64) << 1)
                | (bits[:, 2].astype(np.int64) << 2))

    return HybridSystemSpec(
        name="twt", state_dim=3, obs_dim=3, modes=tuple(range(8)), dt=dt,
        past_horizon=1, future_horizon=1,
        noise_std=[0.01] * 3,
        init_lo=[4.5] * 3, init_hi=[5.5] * 3,
        drift=drift, control=_no_control, observe_fn=observe_fn,
        jump=jump, unsafe=unsafe, init_mode=init_mode,
        params=dict(p),
    )


# --- Generic linear system ---------------------------------------------------

def load_linear_system(path) -> HybridSystemSpec:
    """Build a spec from a plain-text linear-system file.

    Format (``#`` comments allowed, keys in any order before the matrix)::

        dim 2
        obs 0
        unsafe 0 le 0.0
        hp 5
        hf 5
        dt 0.1
        noise 1.0
        init -1.0 1.0
        init -1.0 1.0
        A
        0.0  1.0
        -1.0 0.0

    ``obs`` lists the observed coordinate indices; ``unsafe`` is a threshold
    predicate ``<coord> <le|ge> <value>``; one ``init <lo> <hi>`` line per
    state dimension in order; ``A`` is followed by the row-major ``dim x dim``
    matrix, whitespace separated.  Dynamics are ``dv/dt = A v`` with no jumps
    and identity (absent) control.
    """
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read linear-system file {path}: {exc}") from None

    lines = []
    for ln in raw_lines:
        ln = ln.split("#", 1)[0].strip()
        if ln:
            lines.append(ln)

    header: dict = {"init": []}
    matrix_rows: list[list[float]] = []
    in_matrix = False
    for ln in lines:
        if in_matrix:
            matrix_rows.append([float(x) for x in ln.split()])
            continue
        key, *rest = ln.split()
        if key == "A":
            in_matrix = True
        elif key == "init":
            header["init"].append((float(rest[0]), float(rest[1])))
        elif key in ("dim", "hp", "hf"):
            header[key] = int(rest[0])
        elif key == "dt":
            header["dt"] = float(rest[0])
        elif key == "obs":
            header["obs"] = [int(x) for x in rest]
        elif key == "noise":
            header["noise"] = [float(x) for x in rest]
        elif key == "unsafe":
            header["unsafe"] = (int(rest[0]), rest[1], float(rest[2]))
        else:
            raise ConfigError(f"linear-system file: unknown key {key!r}")

    for req in ("dim", "obs", "unsafe", "hp", "hf", "dt"):
        if req not in header:
            raise ConfigError(f"linear-system file: missing key {req!r}")
    n = header["dim"]
    A = np.array(matrix_rows, dtype=np.float64)
    if A.shape != (n, n):
        raise ConfigError(f"linear-system file: A has shape {A.shape}, expected ({n}, {n})")
    obs_idx = header["obs"]
    if any(i < 0 or i >= n for i in obs_idx):
        raise ConfigError("linear-system file: obs index out of range")
    coord, op, thr = header["unsafe"]
    if op not in ("le", "ge") or coord < 0 or coord >= n:
        raise ConfigError("linear-system file: bad unsafe predicate")
    init = header["init"] if header["init"] else [(-1.0, 1.0)] * n
    if len(init) != n:
        raise ConfigError("linear-system file: need one init line per dimension")
    noise = header.get("noise", [0.0])
    if len(noise) == 1:
        noise = noise * len(obs_idx)
    if len(noise) != len(obs_idx):
        raise ConfigError("linear-system file: noise length mismatch")

    def drift(V, A_in, t, Q):
        return V @ A.T

    def observe_fn(V, Q):
        return V[:, obs_idx]

    if op == "le":
        def unsafe(V, Q):
            return V[:, coord] <= thr
    else:
        def unsafe(V, Q):
            return V[:, coord] >= thr

    return HybridSystemSpec(
        name="linear", state_dim=n, obs_dim=len(obs_idx), modes=(0,),
        dt=header["dt"], past_horizon=header["hp"], future_horizon=header["hf"],
        noise_std=noise,
        init_lo=[lo for lo, _ in init], init_hi=[hi for _, hi in init],
        drift=drift, control=_no_control, observe_fn=observe_fn,
        jump=_identity_jump, unsafe=unsafe, init_mode=_single_mode,
    )


REGISTRY = {
    "ip": ip_spec,
    "sn": sn_spec,
    "cvdp": cvdp_spec,
    "lalo": lalo_spec,
    "twt": twt_spec,
}


def get_spec(name: str, dt: float | None = None, **overrides) -> HybridSystemSpec:
    """Look up a benchmark by name; ``linear:<path>`` loads from file."""
    if name.startswith("linear:"):
        # named by the full string, so a dataset or bundle can reload it
        spec = dataclasses.replace(load_linear_system(name.split(":", 1)[1]),
                                   name=name)
    elif name in REGISTRY:
        spec = REGISTRY[name]() if dt is None else REGISTRY[name](dt=dt)
    else:
        raise ConfigError(
            f"unknown model {name!r}; available: {sorted(REGISTRY)} or linear:<path>")
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec
