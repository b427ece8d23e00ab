"""Scalar-gain Kalman filter tracking dataset-level embedding statistics.

Per-minibatch moment estimates are treated as noisy observations of slowly
drifting dataset statistics. One scalar estimation variance p and one gain K
are shared across all dimensions; the mean and std estimates are filtered
with the same gain. Measurement noise for a step is r / batch_size, so larger
batches count as more reliable observations. The gain (and p with it) may be
recomputed only every gain_interval steps; the innovation updates run every
step regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .moments import EPS_STD, MomentStats

__all__ = [
    "KalmanConfig",
    "KalmanState",
    "kalman_init",
    "kalman_step",
    "ema_step",
    "steady_state_gain",
]


@dataclass(frozen=True)
class KalmanConfig:
    q: float = 1.0  # process-noise variance
    r: float = 0.01  # base measurement-noise variance, scaled by 1/batch_size per step
    p0: float = 1.0  # initial estimation variance
    gain_interval: int = 1  # steps between gain recomputations

    def validate(self) -> None:
        if not 0 < self.q < math.inf:
            raise InvalidConfig(f"q must be finite and > 0, got {self.q}")
        if not 0 <= self.r < math.inf:
            raise InvalidConfig(f"r must be finite and >= 0, got {self.r}")
        if not 0 < self.p0 < math.inf:
            raise InvalidConfig(f"p0 must be finite and > 0, got {self.p0}")
        if not isinstance(self.gain_interval, int) or self.gain_interval < 1:
            raise InvalidConfig(f"gain_interval must be an integer >= 1, got {self.gain_interval}")


@dataclass(frozen=True)
class KalmanState:
    mean_est: np.ndarray
    std_est: np.ndarray
    p: float  # estimation variance, shared across dimensions
    gain: float  # in [0, 1]
    step: int

    @property
    def dim(self) -> int:
        return self.mean_est.shape[0]

    def to_stats(self) -> MomentStats:
        """Current estimates as moment statistics usable as a transform target."""
        return MomentStats(mean=self.mean_est.copy(), std=self.std_est.copy())


def kalman_init(first_obs: MomentStats, config: KalmanConfig) -> KalmanState:
    """State initialized from the first observed minibatch statistics.

    p starts at p0 and the stored gain is a preview of one predict/gain cycle
    (with unscaled r); the first kalman_step recomputes both before they are
    used, since step 0 always falls on a recomputation boundary.
    """
    config.validate()
    p_pred = config.p0 + config.q
    gain = p_pred / (p_pred + config.r)
    return KalmanState(
        mean_est=first_obs.mean.copy(),
        std_est=np.maximum(EPS_STD, first_obs.std),
        p=config.p0,
        gain=gain,
        step=0,
    )


def _innovation(estimate: np.ndarray, observed: np.ndarray, gain: float) -> np.ndarray:
    # gain 1 must reproduce the observation exactly, not up to rounding: xbn
    # runs as the ema filter at momentum 0 through this path, and the
    # zero-measurement-noise reduction is asserted bit-for-bit downstream.
    if gain == 1.0:
        return observed.copy()
    return estimate + gain * (observed - estimate)


def _advance(state: KalmanState, obs: MomentStats, gain: float, p: float) -> KalmanState:
    """The next state: both estimates moved by one innovation at this gain."""
    if obs.dim != state.dim:
        raise DimensionMismatch(f"observation dim {obs.dim} != state dim {state.dim}")
    return KalmanState(
        mean_est=_innovation(state.mean_est, obs.mean, gain),
        std_est=np.maximum(EPS_STD, _innovation(state.std_est, obs.std, gain)),
        p=p,
        gain=gain,
        step=state.step + 1,
    )


def kalman_step(
    state: KalmanState, obs: MomentStats, batch_size: int, config: KalmanConfig
) -> KalmanState:
    """One filter update from a minibatch observation.

    On recomputation steps (state.step divisible by gain_interval):
    p_pred = p + q, gain = p_pred / (p_pred + r / batch_size), p = (1 - gain) * p_pred.
    Between recomputations both gain and p are frozen. The mean/std innovation
    updates run every step; std estimates stay floored at EPS_STD.
    """
    config.validate()
    if batch_size < 1:
        raise InvalidConfig(f"batch_size must be >= 1, got {batch_size}")
    if state.step % config.gain_interval == 0:
        p_pred = state.p + config.q
        gain = p_pred / (p_pred + config.r / batch_size)
        return _advance(state, obs, gain, (1.0 - gain) * p_pred)
    return _advance(state, obs, state.gain, state.p)


def ema_step(state: KalmanState, obs: MomentStats, momentum: float) -> KalmanState:
    """Exponential-moving-average update: a filter step with gain fixed to 1 - momentum.

    p is left untouched. momentum 0 copies the observation (moment-matching to
    the raw minibatch); momentum 1 never moves the estimate.
    """
    if not 0.0 <= momentum <= 1.0:
        raise InvalidConfig(f"momentum must be in [0, 1], got {momentum}")
    return _advance(state, obs, 1.0 - momentum, state.p)


def steady_state_gain(config: KalmanConfig, batch_size: int) -> float:
    """Fixed point K* of the gain recursion with effective noise r' = r / batch_size.

    At the fixed point the predicted variance P solves P^2 - qP - qr' = 0, so
    P = (q + sqrt(q^2 + 4qr')) / 2 and K* = P / (P + r'). Depends on the config
    only through r'/q; equals 1 when r' = 0.
    """
    config.validate()
    if batch_size < 1:
        raise InvalidConfig(f"batch_size must be >= 1, got {batch_size}")
    r_eff = config.r / batch_size
    if r_eff == 0.0:
        return 1.0
    p_pred = 0.5 * (config.q + math.sqrt(config.q**2 + 4.0 * config.q * r_eff))
    return p_pred / (p_pred + r_eff)
