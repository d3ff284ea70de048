"""Sloped spectral target: a straight line in log-frequency, anchored by a
solved offset, converted to per-band energy goals."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_finite
from .gammatone import FilterbankSpec, impulse_band_energies

#: The reference span: the target falls by slope_db from F_REF_LOW to
#: F_REF_HIGH.
F_REF_LOW = 20.0
F_REF_HIGH = 20000.0


@dataclass(frozen=True)
class TargetFunction:
    """Level falls linearly in log2(f), by slope_db from F_REF_LOW to
    F_REF_HIGH. The absolute level is solved against a measured profile
    (solver.anchor_target), so the slope is all a design chooses."""

    slope_db: float = 5.0

    def __post_init__(self):
        check_finite(self, "slope_db")


def level_at(target: TargetFunction, freq_hz: float) -> float:
    """Target level in dB at one frequency, before anchoring.

    level(F_REF_LOW) == 0 and the drop across the full reference span is
    exactly slope_db.
    """
    if freq_hz <= 0:
        raise ContractError("frequency must be positive")
    span = math.log2(F_REF_HIGH / F_REF_LOW)
    return -target.slope_db * math.log2(freq_hz / F_REF_LOW) / span


def band_targets(target: TargetFunction, spec: FilterbankSpec) -> np.ndarray:
    """Per-band energy goals before anchoring.

    The shape comes from sampling the sloped line at each band centre and
    the absolute scale from the bank's own unit-impulse band energies, so
    a flat bank response would meet a flat target exactly.
    """
    ref = impulse_band_energies(spec)
    levels = np.array([level_at(target, f) for f in spec.center_freqs])
    return np.power(10.0, levels / 10.0) * ref
