"""Scalar-gain Kalman filter tracking dataset-level embedding statistics.

Per-minibatch moment estimates are treated as noisy observations of slowly
drifting dataset statistics. One scalar estimation variance p and one gain K
are shared across all dimensions; the mean and std estimates are filtered
with the same gain. Measurement noise for a step is r / batch_size, so larger
batches count as more reliable observations. Every step recomputes the gain
and p before moving the estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .moments import EPS_STD, MomentStats

if TYPE_CHECKING:
    from .training import TrainConfig

__all__ = [
    "KalmanState",
    "kalman_init",
    "kalman_step",
    "ema_step",
    "steady_state_gain",
]


@dataclass(frozen=True)
class KalmanState:
    mean_est: np.ndarray
    std_est: np.ndarray
    p: float  # estimation variance, shared across dimensions
    gain: float  # in [0, 1]

    @property
    def dim(self) -> int:
        return self.mean_est.shape[0]


def kalman_init(first_obs: MomentStats, config: TrainConfig) -> KalmanState:
    """State initialized from the first observed minibatch statistics.

    The estimates are the observation itself, hence gain 1; p starts at p0.
    """
    return KalmanState(
        mean_est=first_obs.mean.copy(),
        std_est=np.maximum(EPS_STD, first_obs.std),
        p=config.p0,
        gain=1.0,
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
    )


def kalman_step(
    state: KalmanState, obs: MomentStats, batch_size: int, config: TrainConfig
) -> KalmanState:
    """One filter update from a minibatch observation.

    p_pred = p + q, gain = p_pred / (p_pred + r / batch_size), p = (1 - gain) * p_pred;
    both estimates then move by one innovation at that gain, and the std
    estimates stay floored at EPS_STD.
    """
    if batch_size < 1:
        raise InvalidConfig(f"batch_size must be >= 1, got {batch_size}")
    p_pred = state.p + config.q
    gain = p_pred / (p_pred + config.r / batch_size)
    return _advance(state, obs, gain, (1.0 - gain) * p_pred)


def ema_step(state: KalmanState, obs: MomentStats, momentum: float) -> KalmanState:
    """Exponential-moving-average update: a filter step with gain fixed to 1 - momentum.

    p is left untouched. momentum 0 copies the observation (moment-matching to
    the raw minibatch); momentum 1 never moves the estimate.
    """
    if not 0.0 <= momentum <= 1.0:
        raise InvalidConfig(f"momentum must be in [0, 1], got {momentum}")
    return _advance(state, obs, 1.0 - momentum, state.p)


def steady_state_gain(config: TrainConfig, batch_size: int) -> float:
    """Fixed point K* of the gain recursion with effective noise r' = r / batch_size.

    At the fixed point the predicted variance P solves P^2 - qP - qr' = 0, so
    P = (q + sqrt(q^2 + 4qr')) / 2 and K* = P / (P + r'). Depends on the config
    only through r'/q; equals 1 when r' = 0.
    """
    if batch_size < 1:
        raise InvalidConfig(f"batch_size must be >= 1, got {batch_size}")
    r_eff = config.r / batch_size
    if r_eff == 0.0:
        return 1.0
    p_pred = 0.5 * (config.q + math.sqrt(config.q**2 + 4.0 * config.q * r_eff))
    return p_pred / (p_pred + r_eff)
