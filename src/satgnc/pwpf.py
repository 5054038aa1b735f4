"""Pulse-width pulse-frequency thruster modulation.

Per axis: the continuous torque command is scaled, passed through a
first-order lag (exact exponential discretization), and fed to a Schmitt
trigger whose output commands one thruster pair at -1/0/+1.  The thruster
output feeds back into the lag input, which is what produces pulse trains
whose duty cycle tracks the demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dynamics import Torque

__all__ = ["PwpfParams", "PwpfState", "pwpf_step"]


@dataclass(frozen=True)
class PwpfParams:
    km: float = 4.5          # pre-filter gain
    tm: float = 0.15         # filter time constant, s
    u_on: float = 0.45       # trigger-on threshold
    u_off: float = 0.15      # trigger-off threshold
    thrust: float = 1.0      # torque magnitude of one thruster pair, N*m

    def __post_init__(self):
        if not math.isfinite(self.km):
            raise ValueError(f"pre-filter gain must be finite, got {self.km}")
        if not 0.0 < self.tm < math.inf:
            raise ValueError("filter time constant must be positive and finite")
        if not 0.0 < self.u_off < self.u_on < math.inf:
            raise ValueError("thresholds must satisfy 0 < u_off < u_on < inf")
        if not 0.0 < self.thrust < math.inf:
            raise ValueError("thrust must be positive and finite")


@dataclass
class PwpfState:
    """Modulator state; a fresh one has the filter discharged, thrusters off."""
    f: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    firing: list[int] = field(default_factory=lambda: [0, 0, 0])


def pwpf_step(state: PwpfState, command: Torque, dt: float,
              params: PwpfParams) -> tuple[PwpfState, Torque]:
    """Advance the three axis state machines by dt and emit the thruster torque."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > params.tm / 5.0:
        raise ValueError(f"dt={dt} too coarse for filter time constant {params.tm}")
    decay = math.exp(-dt / params.tm)
    out = [0.0, 0.0, 0.0]
    for i in range(3):
        e = params.km * command[i] - params.thrust * state.firing[i]
        # exact step response of Tm*f' = e - f with e held constant
        f = e + (state.f[i] - e) * decay
        firing = state.firing[i]
        if firing == 0:
            if abs(f) >= params.u_on:
                firing = 1 if f > 0.0 else -1
        elif firing * f <= params.u_off:
            # drop out on crossing u_off toward zero -- or on sign reversal
            firing = 0
        state.f[i] = f
        state.firing[i] = firing
        out[i] = params.thrust * firing
    return state, Torque(*out)
