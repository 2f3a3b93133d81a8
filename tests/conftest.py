import numpy as np
import pytest

from reachmon import get_spec
from reachmon.data import _draw_initials, gen_independent, scale, split
from reachmon.data import Scaler
from reachmon.systems import flow


@pytest.fixture(scope="session")
def ip_spec():
    return get_spec("ip")


@pytest.fixture(scope="session")
def twt_spec():
    return get_spec("twt")


@pytest.fixture(scope="session")
def small_ip_dataset():
    """1.2K-sample independent inverted-pendulum dataset, reused across
    module tests to keep the suite fast."""
    return gen_independent(get_spec("ip"), 1200, seed=42)


@pytest.fixture(scope="session")
def small_ip_splits(small_ip_dataset):
    rng = np.random.default_rng(42)
    tr, ca, te = split(small_ip_dataset, 600, 300, 300, rng)
    sc = Scaler.fit(tr)
    return {
        "train": tr, "calib": ca, "test": te, "scaler": sc,
        "train_scaled": scale(tr, sc), "calib_scaled": scale(ca, sc),
        "test_scaled": scale(te, sc),
    }


def write_linear_file(path, dim=1, a=None, obs=(0,), unsafe=(0, "le", 0.0),
                      hp=5, hf=5, dt=0.1, noise=(0.0,), init=None):
    a = a if a is not None else [[-1.0]]
    init = init if init is not None else [(-1.0, 1.0)] * dim
    lines = [f"dim {dim}", "obs " + " ".join(str(i) for i in obs),
             f"unsafe {unsafe[0]} {unsafe[1]} {unsafe[2]}",
             f"hp {hp}", f"hf {hf}", f"dt {dt}",
             "noise " + " ".join(str(x) for x in noise)]
    lines += [f"init {lo} {hi}" for lo, hi in init]
    lines.append("A")
    lines += [" ".join(str(x) for x in row) for row in a]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def draw_states(spec, n, seed=0):
    """``n`` initial states and modes drawn as dataset generation draws them."""
    return _draw_initials(spec, seed, np.arange(n), np.zeros(n, dtype=np.int64))


def rollout(spec, V, Q, n_steps, substeps=1):
    """``n_steps`` transitions of a batch: the flow refined by ``substeps``,
    then the jump rule.  Returns ``(n_steps + 1, B, state_dim)`` states and
    ``(n_steps + 1, B)`` modes."""
    Vs, Qs = [V], [Q]
    for _ in range(n_steps):
        V, Q = spec.jump(flow(spec, V, Q, substeps), Q)
        Vs.append(V)
        Qs.append(Q)
    return np.stack(Vs), np.stack(Qs)
