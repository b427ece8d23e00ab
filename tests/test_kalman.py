import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbatch import (
    DimensionMismatch,
    InvalidConfig,
    KalmanConfig,
    MomentStats,
    ema_step,
    kalman_init,
    kalman_step,
    steady_state_gain,
)
from oracles import filtered_estimates, iterate_gain, kalman_trace


def stats(mean, std):
    return MomentStats(mean=np.asarray(mean, dtype=np.float64),
                       std=np.asarray(std, dtype=np.float64))


def unit_obs(d=3):
    return stats(np.zeros(d), np.ones(d))


class TestConfigAndInit:
    def test_paper_default_config_accepted(self):
        KalmanConfig(q=1.0, p0=1.0, r=0.01).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(p0=0.0), dict(p0=-1.0), dict(q=0.0), dict(r=-0.5), dict(gain_interval=0),
         dict(q=np.inf), dict(r=np.inf), dict(p0=np.inf),
         dict(q=np.nan), dict(r=np.nan), dict(p0=np.nan)],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(InvalidConfig):
            KalmanConfig(**kwargs).validate()

    def test_init_copies_observation(self):
        state = kalman_init(unit_obs(), KalmanConfig(p0=1.0))
        np.testing.assert_array_equal(state.mean_est, np.zeros(3))
        np.testing.assert_array_equal(state.std_est, np.ones(3))
        assert state.p == 1.0
        assert state.step == 0

    def test_init_is_a_copy(self):
        obs = unit_obs()
        state = kalman_init(obs, KalmanConfig())
        state.mean_est[0] = 99.0
        assert obs.mean[0] == 0.0


class TestKalmanStep:
    def test_zero_measurement_noise_copies_observation(self):
        cfg = KalmanConfig(q=1.0, r=0.0, p0=1.0, gain_interval=1)
        state = kalman_init(unit_obs(), cfg)
        rng = np.random.default_rng(0)
        for _ in range(5):
            obs = stats(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
            state = kalman_step(state, obs, batch_size=16, config=cfg)
            assert state.gain == 1.0
            np.testing.assert_array_equal(state.mean_est, obs.mean)
            np.testing.assert_array_equal(state.std_est, obs.std)

    def test_hand_trace_first_two_steps(self):
        # q=1, p0=1, effective measurement noise 1:
        # step 1: p_pred=2, gain=2/3, p=2/3; step 2: p_pred=5/3, gain=5/8, p=5/8
        cfg = KalmanConfig(q=1.0, r=1.0, p0=1.0, gain_interval=1)
        state = kalman_init(unit_obs(), cfg)
        state = kalman_step(state, unit_obs(), batch_size=1, config=cfg)
        assert state.gain == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert state.p == pytest.approx(2.0 / 3.0, abs=1e-15)
        state = kalman_step(state, unit_obs(), batch_size=1, config=cfg)
        assert state.gain == pytest.approx(5.0 / 8.0, abs=1e-15)
        assert state.p == pytest.approx(5.0 / 8.0, abs=1e-15)

    def test_ten_step_trace_matches_exact_recursion(self):
        cfg = KalmanConfig(q=1.0, r=1.0, p0=1.0, gain_interval=1)
        trace = kalman_trace(10, q=1, r_eff=1, p0=1)
        rng = np.random.default_rng(42)
        observations = [rng.normal(size=4) for _ in range(11)]
        state = kalman_init(stats(observations[0], np.ones(4)), cfg)
        gains = []
        for obs_mean in observations[1:]:
            state = kalman_step(state, stats(obs_mean, np.ones(4)), batch_size=1, config=cfg)
            gains.append(state.gain)
        for got, want in zip(gains, trace):
            assert got == pytest.approx(float(want["gain"]), abs=1e-12)
        assert state.p == pytest.approx(float(trace[-1]["p"]), abs=1e-12)
        # innovation recursion with the oracle gains lands on the same estimate
        expected = filtered_estimates(observations, gains)
        np.testing.assert_allclose(state.mean_est, expected, rtol=1e-12)

    def test_zero_innovation_leaves_estimate(self):
        cfg = KalmanConfig(q=2.0, r=0.5, p0=1.0)
        obs = stats([1.0, -2.0], [0.7, 1.3])
        state = kalman_init(obs, cfg)
        state = kalman_step(state, obs, batch_size=8, config=cfg)
        np.testing.assert_array_equal(state.mean_est, obs.mean)
        np.testing.assert_array_equal(state.std_est, obs.std)

    def test_gain_frozen_between_recomputations(self):
        cfg = KalmanConfig(q=1.0, r=0.5, p0=1.0, gain_interval=3)
        state = kalman_init(unit_obs(1), cfg)
        rng = np.random.default_rng(1)
        gains, ps = [], []
        for _ in range(9):
            obs = stats(rng.normal(size=1), rng.uniform(0.5, 2.0, size=1))
            state = kalman_step(state, obs, batch_size=4, config=cfg)
            gains.append(state.gain)
            ps.append(state.p)
        assert gains[0] == gains[1] == gains[2]
        assert gains[3] == gains[4] == gains[5]
        assert gains[0] != gains[3]
        assert ps[0] == ps[1] == ps[2] and ps[3] == ps[4] == ps[5]

    def test_dimension_mismatch(self):
        cfg = KalmanConfig()
        state = kalman_init(unit_obs(3), cfg)
        with pytest.raises(DimensionMismatch):
            kalman_step(state, unit_obs(4), batch_size=4, config=cfg)

    def test_batch_size_scales_noise(self):
        # larger batch -> smaller effective noise -> larger gain
        cfg = KalmanConfig(q=1.0, r=1.0, p0=1.0)
        state = kalman_init(unit_obs(1), cfg)
        small = kalman_step(state, unit_obs(1), batch_size=1, config=cfg)
        large = kalman_step(state, unit_obs(1), batch_size=64, config=cfg)
        assert large.gain > small.gain


class TestEmaStep:
    def test_momentum_zero_copies_observation(self):
        state = kalman_init(unit_obs(), KalmanConfig())
        obs = stats([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        out = ema_step(state, obs, momentum=0.0)
        np.testing.assert_array_equal(out.mean_est, obs.mean)
        np.testing.assert_array_equal(out.std_est, obs.std)

    def test_momentum_one_never_moves(self):
        state = kalman_init(unit_obs(), KalmanConfig())
        obs = stats([9.0, 9.0, 9.0], [2.0, 2.0, 2.0])
        out = ema_step(state, obs, momentum=1.0)
        np.testing.assert_array_equal(out.mean_est, state.mean_est)
        np.testing.assert_array_equal(out.std_est, state.std_est)
        assert out.p == state.p

    @pytest.mark.parametrize("momentum", [-0.1, 1.5])
    def test_momentum_out_of_range(self, momentum):
        state = kalman_init(unit_obs(), KalmanConfig())
        with pytest.raises(InvalidConfig):
            ema_step(state, unit_obs(), momentum=momentum)

    def test_matches_frozen_gain_kalman_step(self):
        # an ema update with gain g is a kalman step whose gain is frozen at g
        from dataclasses import replace

        g = 0.35
        cfg = KalmanConfig(q=1.0, r=0.5, p0=1.0, gain_interval=10)
        rng = np.random.default_rng(9)
        obs = stats(rng.normal(size=4), rng.uniform(0.5, 2.0, size=4))
        base = kalman_init(unit_obs(4), cfg)
        frozen = replace(base, gain=g, step=1)  # step 1 mod 10 != 0: no recompute
        via_kalman = kalman_step(frozen, obs, batch_size=4, config=cfg)
        via_ema = ema_step(frozen, obs, momentum=1.0 - g)
        np.testing.assert_array_equal(via_kalman.mean_est, via_ema.mean_est)
        np.testing.assert_array_equal(via_kalman.std_est, via_ema.std_est)


class TestSteadyStateGain:
    def test_zero_noise_gain_one(self):
        assert steady_state_gain(KalmanConfig(r=0.0), batch_size=4) == 1.0

    def test_matches_fixed_point_iteration(self):
        cfg = KalmanConfig(q=1.0, r=1.0, p0=1.0)
        k_star = steady_state_gain(cfg, batch_size=1)
        k_iter = iterate_gain(q=1.0, r_eff=1.0, p0=1.0, n_iters=10_000)
        assert k_star == pytest.approx(k_iter, abs=1e-10)

    def test_depends_only_on_noise_ratio(self):
        a = steady_state_gain(KalmanConfig(q=1.0, r=0.25), batch_size=2)
        b = steady_state_gain(KalmanConfig(q=10.0, r=2.5), batch_size=2)
        assert a == pytest.approx(b, abs=1e-10)

    def test_gain_sequence_converges_monotonically(self):
        cfg = KalmanConfig(q=1.0, r=2.0, p0=7.0, gain_interval=1)
        k_star = steady_state_gain(cfg, batch_size=1)
        state = kalman_init(unit_obs(1), cfg)
        errors = []
        for _ in range(50):
            state = kalman_step(state, unit_obs(1), batch_size=1, config=cfg)
            errors.append(abs(state.gain - k_star))
        assert errors[-1] < 1e-8
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev + 1e-15


@given(
    momentum=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_estimate_is_convex_combination(momentum, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    est = stats(rng.normal(size=d), rng.uniform(0.1, 2.0, size=d))
    obs = stats(rng.normal(size=d), rng.uniform(0.1, 2.0, size=d))
    state = kalman_init(est, KalmanConfig())
    out = ema_step(state, obs, momentum=momentum)
    lo = np.minimum(est.mean, obs.mean) - 1e-12
    hi = np.maximum(est.mean, obs.mean) + 1e-12
    assert np.all(out.mean_est >= lo) and np.all(out.mean_est <= hi)


@given(
    interval=st.integers(min_value=1, max_value=7),
    n_steps=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_property_gain_changes_only_on_interval_boundaries(interval, n_steps, seed):
    cfg = KalmanConfig(q=1.0, r=0.7, p0=2.0, gain_interval=interval)
    rng = np.random.default_rng(seed)
    state = kalman_init(unit_obs(2), cfg)
    for _ in range(n_steps):
        before = (state.gain, state.p, state.step)
        obs = stats(rng.normal(size=2), rng.uniform(0.5, 1.5, size=2))
        state = kalman_step(state, obs, batch_size=3, config=cfg)
        if before[2] % interval != 0:
            assert state.gain == before[0] and state.p == before[1]
