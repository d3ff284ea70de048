"""Measured impulse response handling: the four-speaker set, microphone
pair averaging and the level-balance gains."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, ImpulseResponse, rms_energy
from .errors import ContractError, DegenerateMeasurementError

CHANNEL_NAMES = ("primary_left", "primary_right", "support_left", "support_right")

#: Balancing reference channel; its gain is exactly 1.0 by definition.
REFERENCE_CHANNEL = "primary_left"


@dataclass
class RirSet:
    """One impulse response per loudspeaker, as measured."""

    primary_left: ImpulseResponse
    primary_right: ImpulseResponse
    support_left: ImpulseResponse
    support_right: ImpulseResponse

    def __post_init__(self):
        rates = {ir.sample_rate for ir in self.responses.values()}
        if len(rates) != 1:
            raise ContractError("all impulse responses must share one sample rate")
        for name, ir in self.responses.items():
            if not np.isfinite(ir.data).all():
                raise ContractError("impulse response %r has non-finite samples" % name)

    @property
    def responses(self) -> dict:
        return {name: getattr(self, name) for name in CHANNEL_NAMES}

    @property
    def sample_rate(self) -> int:
        return self.primary_left.sample_rate


def average_pair(a: ImpulseResponse, b: ImpulseResponse) -> ImpulseResponse:
    """Sample-wise mean of two microphone captures of the same speaker.

    The shorter capture is zero padded to the longer one first.
    """
    if a.sample_rate != b.sample_rate:
        raise ContractError("sample rate mismatch between microphone captures")
    n = max(a.data.size, b.data.size)
    out = np.zeros(n)
    out[: a.data.size] += a.data
    out[: b.data.size] += b.data
    out *= 0.5
    return ImpulseResponse(AudioBuffer(out, a.sample_rate))


def balance_levels(rirs: RirSet) -> dict:
    """Per-speaker gains, {channel: gain}, that equalise total energy to
    the primary-left reference, emulating the level calibration a real
    installation does with amplifier trims.

    gain_k = sqrt(E_ref / E_k); the reference gain is exactly 1.0.
    A response with no energy cannot be balanced and raises
    DegenerateMeasurementError.
    """
    energies = {}
    for name, ir in rirs.responses.items():
        e = rms_energy(ir.buffer)
        if e <= 0.0:
            raise DegenerateMeasurementError(
                "impulse response %r is silent, cannot balance" % name
            )
        energies[name] = e
    ref = energies[REFERENCE_CHANNEL]
    gains = {name: float(np.sqrt(ref / e)) for name, e in energies.items()}
    gains[REFERENCE_CHANNEL] = 1.0
    return gains
