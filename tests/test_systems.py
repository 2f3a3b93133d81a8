from dataclasses import replace

import numpy as np
import pytest

from conftest import draw_states, rollout, write_linear_file
from reachmon import get_spec, load_linear_system
from reachmon.benchmarks import SN_PARAMS, TWT_PARAMS
from reachmon.data import _draw_noise, _simulate_tolerant
from reachmon.errors import ConfigError, IntegrationDiverged
from reachmon.systems import step_batch


def rk4_oracle(f, v, dt, substeps):
    """Independent fixed-step RK4 reference at a finer grid."""
    h = dt / substeps
    v = np.array(v, dtype=np.float64)
    for _ in range(substeps):
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v = v + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def one(v, q=0):
    """A batch of one state and its mode."""
    return np.array([v], dtype=np.float64), np.array([q], dtype=np.int64)


class TestStep:
    def test_ip_equilibrium_unchanged(self, ip_spec):
        V, _ = step_batch(ip_spec, *one([0.0, 0.0]))
        assert np.array_equal(V, [[0.0, 0.0]])

    def test_sn_jump_reset(self):
        spec = get_spec("sn")
        # potential just below the firing threshold with huge upward drift
        V, _ = step_batch(spec, *one([29.99, 10.0]))
        assert V[0, 0] == SN_PARAMS["c"]
        # recovery integrates slightly, then gains the reset increment
        assert 10.0 + SN_PARAMS["d"] - 0.1 < V[0, 1] < 10.0 + SN_PARAMS["d"] + 0.1

    def test_lalo_step_matches_fine_rk4_oracle(self):
        spec = get_spec("lalo")
        v0 = np.ones(7)

        def f(v):
            V = v[None, :]
            return spec.drift(V, None, np.zeros(1, dtype=np.int64))[0]

        expected = rk4_oracle(f, v0, spec.dt, 10)
        got = step_batch(spec, *one(v0))[0][0]
        # single-step truncation gap vs the 10x-finer reference is ~1e-6
        assert np.abs(got - expected).max() < 2e-6
        # the refined flow is that reference
        refined = rollout(spec, *one(v0), 1, substeps=10)[0][-1, 0]
        assert np.abs(refined - expected).max() < 1e-12

    def test_step_is_pure(self, ip_spec):
        V0, Q0 = draw_states(ip_spec, 50, seed=1)
        V0c, Q0c = V0.copy(), Q0.copy()
        a = step_batch(ip_spec, V0, Q0)
        b = step_batch(ip_spec, V0, Q0)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert np.array_equal(V0, V0c) and np.array_equal(Q0, Q0c)

    def test_divergence_raises(self, tmp_path):
        # exploding linear system: dv/dt = 1000 v overflows within 60 steps
        path = write_linear_file(tmp_path / "boom.txt", a=[[1000.0]], dt=1.0)
        spec = load_linear_system(path)
        V, Q = one([1.0])
        with pytest.raises(IntegrationDiverged), np.errstate(over="ignore"):
            for _ in range(500):
                V, Q = step_batch(spec, V, Q)


class TestSimulate:
    def test_zero_steps(self, ip_spec):
        Vs, Qs, ok = _simulate_tolerant(ip_spec, *one([0.1, 0.2]), 0)
        assert Vs.shape == (1, 1, 2) and ok.all()
        assert np.array_equal(Vs[0, 0], [0.1, 0.2])

    def test_ip_fixed_point(self, ip_spec):
        Vs, _, _ = _simulate_tolerant(ip_spec, *one([0.0, 0.0]), 10)
        assert Vs.shape == (11, 1, 2) and (Vs == 0.0).all()

    def test_twt_containment_matches_fine_oracle(self, twt_spec):
        V0 = np.array([[5.0, 5.0, 5.0]])
        Q0 = twt_spec.init_mode(V0)
        Vs, _, _ = _simulate_tolerant(twt_spec, V0, Q0, 20)
        oracle, _ = rollout(twt_spec, V0, Q0, 20, substeps=10)
        lo, hi = TWT_PARAMS["safe_lo"], TWT_PARAMS["safe_hi"]
        assert np.abs(Vs - oracle).max() < 1e-6
        assert (oracle >= lo).all() and (oracle <= hi).all()

    def test_substep_halving_all_models(self):
        # integrator refinement within a step: control and jump cadence fixed
        for name in ("ip", "sn", "cvdp", "lalo", "twt"):
            spec = get_spec(name)
            V0, Q0 = draw_states(spec, 20, seed=7)
            V1, _ = rollout(spec, V0, Q0, 16, substeps=1)
            V2, _ = rollout(spec, V0, Q0, 16, substeps=2)
            assert np.abs(V1[-1] - V2[-1]).max() < 1e-3, name


class TestObserve:
    def test_ip_zero_energy(self, ip_spec):
        y = ip_spec.observe_fn(*one([0.0, 0.0]))
        assert y.shape == (1, 1) and y[0, 0] == 0.0

    def test_ip_energy_formula(self, ip_spec):
        y = ip_spec.observe_fn(*one([0.0, 2.0]))
        assert y[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_twt_identity(self, twt_spec):
        y = twt_spec.observe_fn(*one([5.0, 5.0, 5.0]))
        assert np.array_equal(y, [[5.0, 5.0, 5.0]])

    def test_zero_noise_deterministic(self, ip_spec):
        spec = replace(ip_spec, noise_std=0 * ip_spec.noise_std)
        n1 = _draw_noise(spec, 1, [0], [0], 5)[0]
        n2 = _draw_noise(spec, 2, [0], [0], 5)[0]
        assert np.array_equal(n1, n2) and (n1 == 0.0).all()

    def test_noise_statistics(self, twt_spec):
        noise = _draw_noise(twt_spec, 3, [0], [0], 4000)[0]
        std = noise.std(axis=0)
        assert np.abs(std - twt_spec.noise_std).max() < 0.05 * twt_spec.noise_std.max() + 1e-3


class TestSampleInitial:
    def test_ip_box(self, ip_spec):
        V, _ = draw_states(ip_spec, 100)
        assert (-np.pi / 4 <= V[:, 0]).all() and (V[:, 0] <= np.pi / 4).all()
        assert (-1.5 <= V[:, 1]).all() and (V[:, 1] <= 1.5).all()

    def test_twt_box_and_pump_convention(self, twt_spec):
        V, Q = draw_states(twt_spec, 100)
        assert (V >= 4.5).all() and (V <= 5.5).all()
        # pump i is on (bit i of the mode) iff tank i starts below 5
        bits = (Q[:, None] >> np.arange(3)) & 1
        assert np.array_equal(bits, (V < 5.0).astype(bits.dtype))

    def test_mean_concentration(self, ip_spec):
        V, _ = draw_states(ip_spec, 10_000, seed=5)
        assert abs(V[:, 0].mean()) < 0.02


class TestTwtModes:
    """``jump`` and ``init_mode`` against a per-bit reference: every mode,
    and levels below, on and inside the pump band's edges, above it and NaN."""

    LEVELS = [4.0, TWT_PARAMS["pump_on_level"], 5.0,
              TWT_PARAMS["pump_off_level"], 6.0, np.nan]

    def _grid(self):
        levels = np.array(self.LEVELS)
        V = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"),
                     axis=-1).reshape(-1, 3)
        V = np.repeat(V, 8, axis=0)
        Q = np.tile(np.arange(8, dtype=np.int64), len(V) // 8)
        return V, Q

    def test_jump_matches_per_bit_reference(self, twt_spec):
        V, Q = self._grid()
        want = []
        for v, q in zip(V, Q):
            mode = 0
            for i in range(3):
                bit = (int(q) >> i) & 1
                if v[i] <= TWT_PARAMS["pump_on_level"]:
                    bit = 1
                elif v[i] >= TWT_PARAMS["pump_off_level"]:
                    bit = 0
                mode |= bit << i
            want.append(mode)
        V1, Q1 = twt_spec.jump(V, Q)
        assert Q1.dtype == np.int64 and np.array_equal(Q1, want)
        assert np.array_equal(V1, V, equal_nan=True)

    def test_init_mode_matches_per_bit_reference(self, twt_spec):
        V, _ = self._grid()
        want = [sum(int(v[i] < 5.0) << i for i in range(3)) for v in V]
        Q = twt_spec.init_mode(V)
        assert Q.dtype == np.int64 and np.array_equal(Q, want)


class TestIPControlBranches:
    def test_guard_selection(self, ip_spec):
        # branch guards evaluated exactly as specified
        cases = [
            ((0.1, 0.2), "swingup"),       # E in [-1,1], |w|+|th| <= 1.85
            ((0.7, 1.4), "coast"),         # E in [-1,1], |w|+|th| > 1.85
            ((0.0, -2.5), "pump_up"),      # E < -1
            ((0.0, 4.2), "pump_down"),     # E > 1
        ]
        for (th, om), kind in cases:
            energy = 0.5 * om + (np.cos(th) - 1.0)
            u = ip_spec.control(np.array([[th, om]]), np.zeros(1, dtype=np.int64))[0, 0]
            if kind == "swingup":
                assert -1 <= energy <= 1 and abs(om) + abs(th) <= 1.85
                assert u == pytest.approx((2 * om + th + np.sin(th)) / np.cos(th))
            elif kind == "coast":
                assert -1 <= energy <= 1 and abs(om) + abs(th) > 1.85
                assert u == 0.0
            elif kind == "pump_up":
                assert energy < -1
                assert u == pytest.approx(om / (1 + abs(om)) * np.cos(th))
            else:
                assert energy > 1
                assert u == pytest.approx(-om / (1 + abs(om)) * np.cos(th))


class TestLinearLoader:
    def test_zero_matrix_constant_trajectory(self, tmp_path):
        path = write_linear_file(tmp_path / "zero.txt", dim=2,
                                 a=[[0.0, 0.0], [0.0, 0.0]], obs=(0, 1),
                                 noise=(0.0, 0.0))
        spec = load_linear_system(path)
        Vs, _, _ = _simulate_tolerant(spec, *one([0.3, -0.4]), 5)
        assert (Vs == np.array([0.3, -0.4])).all()

    def test_decay_rk4_value(self, tmp_path):
        path = write_linear_file(tmp_path / "decay.txt", a=[[-1.0]], dt=0.1)
        spec = load_linear_system(path)
        V, _ = step_batch(spec, *one([1.0]))
        assert V[0, 0] == pytest.approx(0.9048375, abs=1e-9)
        assert V[0, 0] == pytest.approx(np.exp(-0.1), abs=1e-6)

    def test_unsafe_threshold_predicate(self, tmp_path):
        path = write_linear_file(tmp_path / "alt.txt", dim=2,
                                 a=[[0.0, 1.0], [0.0, 0.0]], obs=(1,),
                                 unsafe=(0, "le", 0.0), noise=(1.0,),
                                 init=[(-1, 1), (-1, 1)])
        spec = load_linear_system(path)
        assert spec.unsafe(np.array([[0.0, 5.0]]), np.zeros(1, dtype=np.int64))[0]
        assert spec.unsafe(np.array([[-0.1, 5.0]]), np.zeros(1, dtype=np.int64))[0]
        assert not spec.unsafe(np.array([[0.1, 5.0]]), np.zeros(1, dtype=np.int64))[0]

    def test_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("dim 2\nobs 0\nunsafe 0 le 0\nhp 1\nhf 1\ndt 0.1\nA\n1 0\n")
        with pytest.raises(ConfigError):
            load_linear_system(bad)  # matrix dimension mismatch
        with pytest.raises(ConfigError):
            load_linear_system(tmp_path / "missing.txt")

    def test_registry_key(self, tmp_path):
        path = write_linear_file(tmp_path / "sys.txt")
        spec = get_spec(f"linear:{path}")
        assert spec.state_dim == 1 and spec.name == f"linear:{path}"
        assert get_spec(spec.name).state_dim == 1
        with pytest.raises(ConfigError):
            get_spec("nope")
