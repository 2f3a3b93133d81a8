import numpy as np
import pytest

from conftest import write_linear_file
from reachmon import HybridState, get_spec, load_linear_system, observe, sample_initial, simulate, step
from reachmon.benchmarks import SN_PARAMS, TWT_PARAMS
from reachmon.errors import ConfigError, IntegrationDiverged, ShapeError
from reachmon.systems import sample_initial_batch, simulate_batch, step_batch


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


class TestStep:
    def test_ip_equilibrium_unchanged(self, ip_spec):
        s = step(ip_spec, HybridState([0.0, 0.0]))
        assert np.array_equal(s.v, [0.0, 0.0])

    def test_sn_jump_reset(self):
        spec = get_spec("sn")
        # potential just below the firing threshold with huge upward drift
        s = step(spec, HybridState([29.99, 10.0]))
        assert s.v[0] == SN_PARAMS["c"]
        # recovery integrates slightly, then gains the reset increment
        assert 10.0 + SN_PARAMS["d"] - 0.1 < s.v[1] < 10.0 + SN_PARAMS["d"] + 0.1

    def test_lalo_step_matches_fine_rk4_oracle(self):
        spec = get_spec("lalo")
        v0 = np.ones(7)

        def f(v):
            V = v[None, :]
            return spec.drift(V, None, 0.0, np.zeros(1, dtype=np.int64))[0]

        expected = rk4_oracle(f, v0, spec.dt, 10)
        got = step(spec, HybridState(v0)).v
        # single-step truncation gap vs the 10x-finer reference is ~1e-6
        assert np.abs(got - expected).max() < 2e-6

    def test_step_is_pure(self, ip_spec):
        s = HybridState([0.3, -0.7])
        a = step(ip_spec, s)
        b = step(ip_spec, s)
        assert np.array_equal(a.v, b.v) and a.q == b.q

    def test_wrong_dim_rejected(self, ip_spec):
        with pytest.raises(ShapeError):
            step(ip_spec, HybridState([0.0, 0.0, 0.0]))

    def test_divergence_raises(self, tmp_path):
        # exploding linear system: dv/dt = 1000 v overflows within 60 steps
        path = write_linear_file(tmp_path / "boom.txt", a=[[1000.0]], dt=1.0)
        spec = load_linear_system(path)
        with pytest.raises(IntegrationDiverged) as exc, np.errstate(over="ignore"):
            simulate(spec, HybridState([1.0]), 500)
        assert exc.value.step_index is not None


class TestSimulate:
    def test_zero_steps(self, ip_spec):
        traj = simulate(ip_spec, HybridState([0.1, 0.2]), 0)
        assert len(traj) == 1
        assert np.array_equal(traj[0].v, [0.1, 0.2])

    def test_ip_fixed_point(self, ip_spec):
        traj = simulate(ip_spec, HybridState([0.0, 0.0]), 10)
        for s in traj.states:
            assert np.array_equal(s.v, [0.0, 0.0])

    def test_twt_containment_matches_fine_oracle(self, twt_spec):
        q0 = int(twt_spec.init_mode(np.array([[5.0, 5.0, 5.0]]))[0])
        s0 = HybridState([5.0, 5.0, 5.0], q=q0)
        traj = simulate(twt_spec, s0, 20)
        oracle = simulate(twt_spec, s0, 20, substeps=10)
        lo, hi = TWT_PARAMS["safe_lo"], TWT_PARAMS["safe_hi"]
        for s, o in zip(traj.states, oracle.states):
            assert np.abs(s.v - o.v).max() < 1e-6
            assert (o.v >= lo).all() and (o.v <= hi).all()

    def test_substep_halving_all_models(self):
        # integrator refinement within a step: control and jump cadence fixed
        for name in ("ip", "sn", "cvdp", "lalo", "twt"):
            spec = get_spec(name)
            rng = np.random.default_rng(7)
            V0, Q0 = sample_initial_batch(spec, 20, rng)
            V1, _ = simulate_batch(spec, V0, Q0, 16, substeps=1)
            V2, _ = simulate_batch(spec, V0, Q0, 16, substeps=2)
            assert np.abs(V1[-1] - V2[-1]).max() < 1e-3, name


class TestObserve:
    def test_ip_zero_energy(self, ip_spec):
        spec = ip_spec.with_noise_scale(0.0)
        y = observe(spec, HybridState([0.0, 0.0]), np.random.default_rng(0))
        assert y.shape == (1,) and y[0] == 0.0

    def test_ip_energy_formula(self, ip_spec):
        spec = ip_spec.with_noise_scale(0.0)
        y = observe(spec, HybridState([0.0, 2.0]), np.random.default_rng(0))
        assert y[0] == pytest.approx(1.0, abs=1e-12)

    def test_twt_identity(self, twt_spec):
        spec = twt_spec.with_noise_scale(0.0)
        y = observe(spec, HybridState([5.0, 5.0, 5.0], q=0),
                    np.random.default_rng(0))
        assert np.array_equal(y, [5.0, 5.0, 5.0])

    def test_zero_noise_deterministic(self, ip_spec):
        spec = ip_spec.with_noise_scale(0.0)
        s = HybridState([0.3, 0.4])
        y1 = observe(spec, s, np.random.default_rng(1))
        y2 = observe(spec, s, np.random.default_rng(2))
        assert np.array_equal(y1, y2)

    def test_noise_statistics(self, twt_spec):
        rng = np.random.default_rng(3)
        s = HybridState([5.0, 5.0, 5.0], q=0)
        ys = np.array([observe(twt_spec, s, rng) for _ in range(4000)])
        std = (ys - 5.0).std(axis=0)
        assert np.abs(std - twt_spec.noise_std).max() < 0.05 * twt_spec.noise_std.max() + 1e-3


class TestSampleInitial:
    def test_ip_box(self, ip_spec):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = sample_initial(ip_spec, rng)
            assert -np.pi / 4 <= s.v[0] <= np.pi / 4
            assert -1.5 <= s.v[1] <= 1.5

    def test_twt_box_and_pump_convention(self, twt_spec):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = sample_initial(twt_spec, rng)
            assert (s.v >= 4.5).all() and (s.v <= 5.5).all()
            expected_q = int(twt_spec.init_mode(s.v[None, :])[0])
            assert s.q == expected_q

    def test_mean_concentration(self, ip_spec):
        rng = np.random.default_rng(5)
        V, _ = sample_initial_batch(ip_spec, 10_000, rng)
        assert abs(V[:, 0].mean()) < 0.02


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
        traj = simulate(spec, HybridState([0.3, -0.4]), 5)
        for s in traj.states:
            assert np.array_equal(s.v, [0.3, -0.4])

    def test_decay_rk4_value(self, tmp_path):
        path = write_linear_file(tmp_path / "decay.txt", a=[[-1.0]], dt=0.1)
        spec = load_linear_system(path)
        s = step(spec, HybridState([1.0]))
        assert s.v[0] == pytest.approx(0.9048375, abs=1e-9)
        assert s.v[0] == pytest.approx(np.exp(-0.1), abs=1e-6)

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
