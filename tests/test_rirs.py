import numpy as np
import pytest

from roomfill.audio import AudioBuffer, ImpulseResponse, rms_energy
from roomfill.errors import ContractError, DegenerateMeasurementError
from roomfill.rirs import RirSet, average_pair, balance_levels


def _ir(data, rate=48000):
    return ImpulseResponse(AudioBuffer(np.asarray(data, dtype=float), rate))


def test_average_pair_idempotent(rng):
    x = _ir(rng.standard_normal(500))
    avg = average_pair(x, x)
    assert np.array_equal(avg.data, x.data)


def test_average_pair_cancellation(rng):
    x = rng.standard_normal(300)
    avg = average_pair(_ir(x), _ir(-x))
    assert np.all(avg.data == 0.0)


def test_average_pair_zero_pads_shorter_capture():
    avg = average_pair(_ir([2.0, 2.0, 2.0, 2.0]), _ir([4.0, 4.0]))
    assert np.array_equal(avg.data, [3.0, 3.0, 1.0, 1.0])


def test_average_pair_rejects_rate_mismatch():
    with pytest.raises(ContractError):
        average_pair(_ir([1.0], 48000), _ir([1.0], 44100))


def _quad(rng, scale=(1.0, 2.0, 0.5, 3.0)):
    irs = [_ir(rng.standard_normal(400) * s) for s in scale]
    return RirSet(*irs)


def test_balance_equalises_energy_to_reference(rng):
    rirs = _quad(rng)
    gains = balance_levels(rirs)
    assert gains["primary_left"] == 1.0
    energies = [
        rms_energy(AudioBuffer(ir.data * gains[name], ir.sample_rate))
        for name, ir in rirs.responses.items()
    ]
    ref = energies[0]
    for e in energies[1:]:
        assert abs(10.0 * np.log10(e / ref)) <= 0.01


def test_balance_rejects_silent_channel(rng):
    rirs = _quad(rng)
    rirs.support_right.buffer.samples[:] = 0.0
    with pytest.raises(DegenerateMeasurementError):
        balance_levels(rirs)


def test_rirset_rejects_mixed_rates(rng):
    a = _ir(rng.standard_normal(100))
    b = _ir(rng.standard_normal(100), rate=44100)
    with pytest.raises(ContractError):
        RirSet(a, a, a, b)


def test_rirset_rejects_non_finite_samples_naming_speaker(rng):
    a = _ir(rng.standard_normal(100))
    bad = rng.standard_normal(100)
    bad[3] = np.nan
    with pytest.raises(ContractError, match="support_left"):
        RirSet(a, a, _ir(bad), a)
