import numpy as np
import pytest

from conftest import draw_states
from reachmon import gen_sequential, get_spec
from reachmon.data import _simulate_tolerant
from reachmon.reach import reach_label_batch


def label(spec, v, q=0, horizon=None):
    return int(reach_label_batch(spec, np.array([v], dtype=np.float64),
                                 np.array([q], dtype=np.int64), horizon)[0])


def test_already_unsafe_ip(ip_spec):
    assert label(ip_spec, [0.6, 0.0]) == 1


def test_already_unsafe_twt(twt_spec):
    assert label(twt_spec, [4.0, 5.0, 5.0], q=7) == 1


def test_ip_equilibrium_safe(ip_spec):
    # oracle: simulate the horizon and confirm every state stays at zero
    Vs, _, _ = _simulate_tolerant(ip_spec, np.zeros((1, 2)), np.zeros(1, dtype=np.int64),
                                  ip_spec.future_horizon)
    assert (np.abs(Vs[..., 0]) < np.pi / 6).all()
    assert label(ip_spec, [0.0, 0.0]) == 0


def test_label_window_uses_last_state(ip_spec):
    # a sequential window's label is the reach label of its last state
    ds = gen_sequential(ip_spec, 20, 10, seed=0)
    last = reach_label_batch(ip_spec, ds.states[:, -1].astype(np.float64),
                             ds.modes[:, -1].astype(np.int64))
    assert np.array_equal(ds.labels, last)


def test_window_of_unsafe_state(ip_spec):
    # an unsafe state is labelled unsafe at horizon 0, a safe one is not
    V = np.array([[0.0, 0.0], [0.7, 0.0]])
    labels = reach_label_batch(ip_spec, V, np.zeros(2, dtype=np.int64), horizon=0)
    assert labels.tolist() == [0, 1]


@pytest.mark.parametrize("name", ["ip", "sn", "twt", "lalo", "cvdp"])
def test_horizon_monotonicity_and_membership(name):
    spec = get_spec(name)
    V, Q = draw_states(spec, 400, seed=11)
    in_u = spec.unsafe(V, Q)
    prev = None
    for h in range(spec.future_horizon + 1):
        lab = reach_label_batch(spec, V, Q, horizon=h)
        assert (lab[in_u] == 1).all()
        if prev is not None:
            assert (lab >= prev).all(), f"{name}: horizon monotonicity violated"
        prev = lab


def test_determinism(twt_spec):
    V, Q = draw_states(twt_spec, 100, seed=3)
    a = reach_label_batch(twt_spec, V, Q)
    b = reach_label_batch(twt_spec, V, Q)
    assert np.array_equal(a, b)
