"""Simulation-based reachability oracle providing supervision labels.

A state is labeled positive (1) when the system, simulated forward for the
spec's future horizon, visits the unsafe set at any offset including zero:
a state that is already unsafe must be flagged by any monitor.  A state
that turns non-finite raises :class:`IntegrationDiverged`.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationDiverged
from .systems import HybridSystemSpec, step_batch


def reach_label_batch(spec: HybridSystemSpec, V: np.ndarray, Q: np.ndarray,
                      horizon: int | None = None) -> np.ndarray:
    """Labels for a batch of states; returns ``(B,)`` uint8 array."""
    h = spec.future_horizon if horizon is None else horizon
    hit = spec.unsafe(V, Q).copy()
    for _ in range(h):
        if hit.all():
            break
        V, Q, ok = step_batch(spec, V, Q)
        if not ok.all():
            raise IntegrationDiverged(f"{spec.name}: non-finite state after integration")
        hit |= spec.unsafe(V, Q)
    return hit.astype(np.uint8)

