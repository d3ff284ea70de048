"""Sloped spectral target: a straight line in log-frequency, anchored by a
solved offset, converted to per-band energy goals."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_finite
from .gammatone import FilterbankSpec, impulse_band_energies


@dataclass(frozen=True)
class TargetFunction:
    """Level falls linearly in log2(f) by slope_db across the reference
    span. offset_db anchors the absolute level and is usually solved
    against a measured profile rather than chosen by hand."""

    slope_db: float = 5.0
    f_ref_low: float = 20.0
    f_ref_high: float = 20000.0
    offset_db: float = 0.0

    def __post_init__(self):
        check_finite(self, "slope_db", "f_ref_low", "f_ref_high", "offset_db")
        if self.f_ref_low <= 0 or self.f_ref_high <= self.f_ref_low:
            raise ContractError("need 0 < f_ref_low < f_ref_high")

    def with_offset(self, offset_db: float) -> "TargetFunction":
        return TargetFunction(
            self.slope_db, self.f_ref_low, self.f_ref_high, float(offset_db)
        )


def level_at(target: TargetFunction, freq_hz: float) -> float:
    """Target level in dB at one frequency.

    level(f_ref_low) == offset_db and the drop across the full reference
    span is exactly slope_db.
    """
    if freq_hz <= 0:
        raise ContractError("frequency must be positive")
    span = math.log2(target.f_ref_high / target.f_ref_low)
    return target.offset_db - target.slope_db * math.log2(freq_hz / target.f_ref_low) / span


def band_targets(target: TargetFunction, spec: FilterbankSpec) -> np.ndarray:
    """Per-band energy goals.

    The shape comes from sampling the sloped line at each band centre and
    the absolute scale from the bank's own unit-impulse band energies, so
    a flat bank response at offset 0 dB would meet the target exactly.
    """
    ref = impulse_band_energies(spec)
    levels = np.array([level_at(target, f) for f in spec.center_freqs])
    return np.power(10.0, levels / 10.0) * ref
