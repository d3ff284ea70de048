import math

import numpy as np
import pytest

from roomfill.errors import ContractError
from roomfill.gammatone import impulse_band_energies
from roomfill.solver import _anchored_targets
from roomfill.target import F_REF_HIGH, F_REF_LOW, TargetFunction, band_targets, level_at


def test_default_slope_spans_exactly_five_db():
    t = TargetFunction()
    assert level_at(t, F_REF_LOW) - level_at(t, F_REF_HIGH) == pytest.approx(5.0, abs=0.0)


def test_level_is_linear_in_log_frequency():
    t = TargetFunction(slope_db=6.0)
    # log2(1000) octaves from 20 Hz to 20 kHz
    octave = 6.0 / math.log2(1000.0)
    assert level_at(t, 40.0) == pytest.approx(level_at(t, 20.0) - octave, abs=1e-12)
    assert level_at(t, 20.0) == 0.0


def test_zero_slope_is_constant():
    t = TargetFunction(slope_db=0.0)
    for f in (20.0, 300.0, 4000.0, 20000.0):
        assert level_at(t, f) == 0.0


def test_level_rejects_nonpositive_frequency():
    with pytest.raises(ContractError):
        level_at(TargetFunction(), 0.0)


def test_reference_span_validation():
    """The span is fixed at 20 Hz - 20 kHz: a target cannot move it, and
    only its slope is checked."""
    assert (F_REF_LOW, F_REF_HIGH) == (20.0, 20000.0)
    for key in ("f_ref_low", "f_ref_high", "offset_db"):
        with pytest.raises(TypeError, match=key):
            TargetFunction(**{key: 100.0})
    for slope in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractError, match="slope_db must be finite"):
            TargetFunction(slope_db=slope)


def test_flat_zero_target_equals_bank_reference(spec48):
    """A 0 dB flat target asks for exactly the bank's own unit-impulse
    band energies, so a bit-perfect system needs no correction."""
    t = TargetFunction(slope_db=0.0)
    assert np.array_equal(band_targets(t, spec48), impulse_band_energies(spec48))


def test_offset_scales_targets_by_power_ratio(spec48):
    """The solver anchors the target by an offset in dB, which scales
    every band's energy goal by the same power ratio."""
    base = band_targets(TargetFunction(), spec48)
    offset, up = _anchored_targets(TargetFunction(), spec48, 10.0)
    assert offset == 10.0
    assert np.allclose(up / base, 10.0, rtol=1e-12)
