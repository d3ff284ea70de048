import math

import numpy as np
import pytest

from roomfill import pipeline
from roomfill.audio import AudioBuffer, ImpulseResponse, convolve
from roomfill.errors import ContractError
from roomfill.gammatone import EQ_IR_LEN, band_gain_eq, make_spec, synthesis_latency
from roomfill.render import (
    DEFAULT_DECORRELATOR_LEN,
    DEFAULT_SEED_LEFT,
    DEFAULT_SEED_RIGHT,
    RENDER_MODES,
    EqualisationDesign,
    SupportChain,
    _support_chain_kernel,
    design_decorrelator,
    render,
    support_chain_latency,
)
from roomfill.solver import BandGainSet, ChannelSolve, SolverConfig
from roomfill.target import TargetFunction


def _solve(gains):
    gains = np.asarray(gains, dtype=float)
    return ChannelSolve(
        gains=gains,
        offset_db=0.0,
        residual_db=np.zeros(gains.size),
        iterations_used=0,
        converged=True,
    )


def _design(spec, gains=None, front_gains=None, **kwargs):
    ones = np.ones(spec.num_bands)
    g = ones if gains is None else gains
    f = ones if front_gains is None else front_gains
    return EqualisationDesign(
        spec=spec,
        gains=BandGainSet(spec, _solve(g), _solve(g)),
        front_gains=BandGainSet(spec, _solve(f), _solve(f)),
        target=TargetFunction(),
        **kwargs,
    )


def test_decorrelator_length_must_be_power_of_two():
    for bad in (255, 100, 1000, 1536):
        with pytest.raises(ContractError):
            design_decorrelator(bad, 1)
    assert design_decorrelator(256, 1).taps.size == 256


def test_decorrelator_is_allpass_and_energy_preserving():
    d = design_decorrelator(1024, DEFAULT_SEED_LEFT)
    spectrum = np.fft.rfft(d.taps)
    mag_db = 20.0 * np.log10(np.abs(spectrum))
    assert np.max(np.abs(mag_db)) <= 0.01
    assert spectrum[0] == pytest.approx(1.0, abs=1e-12)  # zero phase at DC
    assert spectrum[-1] == pytest.approx(1.0, abs=1e-12)  # and at Nyquist
    assert abs(math.fsum(d.taps**2) - 1.0) <= 1e-6


def test_decorrelator_deterministic_per_seed():
    a = design_decorrelator(1024, 77)
    b = design_decorrelator(1024, 77)
    c = design_decorrelator(1024, 78)
    assert np.array_equal(a.taps, b.taps)
    assert not np.array_equal(a.taps, c.taps)


def test_default_seed_pair_is_decorrelated():
    left = design_decorrelator(1024, DEFAULT_SEED_LEFT).taps
    right = design_decorrelator(1024, DEFAULT_SEED_RIGHT).taps
    xcorr = np.correlate(left, right, mode="full")
    peak = np.max(np.abs(xcorr)) / math.sqrt(np.sum(left**2) * np.sum(right**2))
    assert peak < 0.3


def test_decorrelator_centroid_within_support():
    d = design_decorrelator(1024, 5)
    assert 0.0 <= d.group_delay_centroid < 1024.0


def test_design_validates_delay_window(spec48):
    for bad in (1.99, 50.01, 0.0):
        with pytest.raises(ContractError):
            _design(spec48, chain=SupportChain(delay_ms=bad))
    _design(spec48, chain=SupportChain(delay_ms=2.0))
    _design(spec48, chain=SupportChain(delay_ms=50.0))


def test_every_chain_plays_the_pinned_decorrelator_pair(spec48):
    """The decorrelators are not a setting: at any delay each side plays
    the pinned filter of its seed, the pair whose cross-correlation
    test_default_seed_pair_is_decorrelated bounds."""
    for delay_ms in (2.0, 10.0, 50.0):
        design = _design(spec48, chain=SupportChain(delay_ms=delay_ms))
        for side, seed in (("left", DEFAULT_SEED_LEFT), ("right", DEFAULT_SEED_RIGHT)):
            want = design_decorrelator(DEFAULT_DECORRELATOR_LEN, seed).taps
            assert np.array_equal(design.decorrelator(side).taps, want)


def test_solve_design_rejects_bad_chain_before_solving(monkeypatch, fixture_rirs, spec48):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the chain was checked")

    monkeypatch.setattr(pipeline, "solve_gains", no_solve)
    monkeypatch.setattr(pipeline, "solve_front_gains", no_solve)
    for bad in (1.0, 50.5):
        with pytest.raises(ContractError):
            pipeline.solve_design(
                fixture_rirs, spec48, TargetFunction(), SolverConfig(), SupportChain(bad)
            )


def test_design_defaults_balance_to_unity(spec48):
    d = _design(spec48)
    assert d.balance_gains == {
        "primary_left": 1.0,
        "primary_right": 1.0,
        "support_left": 1.0,
        "support_right": 1.0,
    }


def test_chain_latency_metadata_matches_measured_peak(spec48):
    """The nominal latency (bulk delay + EQ alignment + decorrelator
    centroid) must land on the actual peak of the rendered chain for the
    default unity design."""
    design = _design(spec48)
    imp = np.zeros((2, 1))
    imp[0, 0] = 1.0
    result = render(AudioBuffer(imp, 48000), design, "proposed")
    rear = result.buffer.samples[2]
    assert result.latency_samples["SL"] == support_chain_latency(design, "left")
    assert abs(int(np.argmax(np.abs(rear))) - result.latency_samples["SL"]) <= 1
    assert result.latency_samples["FL"] == 0
    assert result.latency_samples["FR"] == 0


def test_proposed_onset_lag_is_the_configured_delay():
    for rate in (44100, 48000):
        spec = make_spec(rate, 80.0, 16000.0)
        design = _design(spec)  # 10 ms default
        imp = np.zeros((2, 8))
        imp[:, 0] = 1.0
        result = render(AudioBuffer(imp, rate), design, "proposed")
        want = int(round(0.010 * rate))
        for row in (result.buffer.samples[2], result.buffer.samples[3]):
            onset = int(np.flatnonzero(row)[0])
            assert abs(onset - want) <= 1


def test_proposed_mode_leaves_fronts_bit_identical(spec48, rng):
    sig = rng.standard_normal((2, 3000)) * 0.3
    result = render(AudioBuffer(sig, 48000), _design(spec48), "proposed")
    n = sig.shape[1]
    assert np.array_equal(result.buffer.samples[0, :n], sig[0])
    assert np.array_equal(result.buffer.samples[1, :n], sig[1])
    assert np.all(result.buffer.samples[0, n:] == 0.0)
    assert np.all(result.buffer.samples[1, n:] == 0.0)


def test_proposed_mode_applies_support_trim(spec48, rng):
    sig = rng.standard_normal((2, 1000)) * 0.1
    balance = {
        "primary_left": 1.0,
        "primary_right": 1.0,
        "support_left": 0.5,
        "support_right": 2.0,
    }
    plain = render(AudioBuffer(sig, 48000), _design(spec48), "proposed")
    trimmed = render(
        AudioBuffer(sig, 48000), _design(spec48, balance_gains=balance), "proposed"
    )
    assert np.allclose(trimmed.buffer.samples[2], 0.5 * plain.buffer.samples[2], atol=0)
    assert np.allclose(trimmed.buffer.samples[3], 2.0 * plain.buffer.samples[3], atol=0)


def test_stereo_mode_rears_digitally_silent(spec48, rng):
    sig = rng.standard_normal((2, 500))
    result = render(AudioBuffer(sig, 48000), _design(spec48), "stereo")
    assert np.array_equal(result.buffer.samples[0], sig[0])
    assert np.array_equal(result.buffer.samples[1], sig[1])
    assert np.all(result.buffer.samples[2:] == 0.0)


def test_rear_stereo_mode_duplicates_fronts(spec48, rng):
    sig = rng.standard_normal((2, 500))
    result = render(AudioBuffer(sig, 48000), _design(spec48), "rear_stereo")
    assert np.array_equal(result.buffer.samples[2], result.buffer.samples[0])
    assert np.array_equal(result.buffer.samples[3], result.buffer.samples[1])


def test_front_eq_mode_replaces_fronts(spec48, rng):
    sig = rng.standard_normal((2, 500))
    result = render(AudioBuffer(sig, 48000), _design(spec48), "front_eq")
    assert np.all(result.buffer.samples[2:] == 0.0)
    assert np.any(result.buffer.samples[0] != 0.0)
    lat = synthesis_latency(spec48)
    assert result.latency_samples["FL"] == lat
    assert result.latency_samples["FR"] == lat


@pytest.mark.parametrize("rate", (44100, 48000))
@pytest.mark.parametrize("mode", RENDER_MODES)
def test_render_lengths_and_wet_channels(mode, rate, rng):
    """Output length per mode, and the wet channels against a direct
    np.convolve of the same chain: the proposed rears are the input through
    EQ and decorrelator, delayed 10 ms and trimmed; the front_eq fronts
    are the input through the front EQ, trimmed."""
    spec = make_spec(rate, 80.0, 16000.0)
    bands = spec.num_bands
    balance = {
        "primary_left": 0.8,
        "primary_right": 1.25,
        "support_left": 0.5,
        "support_right": 2.0,
    }
    design = _design(
        spec,
        gains=np.linspace(0.25, 2.0, bands),
        front_gains=np.linspace(1.5, 0.5, bands),
        balance_gains=balance,
    )
    n = 700
    sig = rng.standard_normal((2, n))
    out = render(AudioBuffer(sig, rate), design, mode).buffer.samples
    delay = rate // 100
    kernel_len = EQ_IR_LEN + DEFAULT_DECORRELATOR_LEN - 1
    want = {
        "stereo": n,
        "rear_stereo": n,
        "front_eq": n + EQ_IR_LEN - 1,
        "proposed": max(n, delay + n + kernel_len - 1),
    }[mode]
    assert out.shape == (4, want)

    def close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    for i, side in enumerate(("left", "right")):
        if mode == "proposed":
            kernel = np.convolve(
                band_gain_eq(design.gains.left.gains, spec).data,
                design.decorrelator(side).taps,
            )
            ref = balance["support_" + side] * np.convolve(sig[i], kernel)
            assert ref.size == n + kernel_len - 1
            assert np.all(out[2 + i, :delay] == 0.0)
            close(out[2 + i, delay:], ref)
        if mode == "front_eq":
            eq = band_gain_eq(design.front_gains.left.gains, spec).data
            close(out[i], balance["primary_" + side] * np.convolve(sig[i], eq))


@pytest.mark.parametrize("rate", (44100, 48000))
@pytest.mark.parametrize("mode", RENDER_MODES)
def test_render_of_empty_programme_has_no_frames(mode, rate):
    """A 0-frame programme renders to 0 frames in every mode: a row with
    no samples adds no frames, the proposed rears' bulk delay included."""
    design = _design(make_spec(rate, 80.0, 16000.0))
    out = render(AudioBuffer(np.zeros((2, 0)), rate), design, mode).buffer
    assert out.samples.shape == (4, 0)


def test_render_input_validation(spec48):
    design = _design(spec48)
    with pytest.raises(ContractError):
        render(AudioBuffer(np.zeros((1, 10)), 48000), design, "proposed")
    with pytest.raises(ContractError):
        render(AudioBuffer(np.zeros((2, 10)), 44100), design, "proposed")
    with pytest.raises(ContractError):
        render(AudioBuffer(np.zeros((2, 10)), 48000), design, "mono")


@pytest.mark.parametrize("mode", ("proposed", "front_eq"))
def test_render_rows_are_each_sides_convolve_bit_for_bit(mode, rng):
    """Both sides share one 2-row FFT per block, yet every processed row is
    exactly audio.convolve of its side with the chain, times the balance
    gain, at its offset: signed zeros included, for a programme of several
    blocks with silent stretches."""
    spec = make_spec(48000, 80.0, 16000.0)
    balance = {"primary_left": 0.8, "primary_right": 1.25,
               "support_left": 0.5, "support_right": 2.0}
    design = _design(spec, gains=np.linspace(0.25, 2.0, spec.num_bands),
                     front_gains=np.linspace(1.5, 0.5, spec.num_bands),
                     balance_gains=balance)
    sig = rng.standard_normal((2, 70001))
    sig[:, 30000:40000] = 0.0
    out = render(AudioBuffer(sig, 48000), design, mode).buffer.samples
    for i, side in enumerate(("left", "right")):
        if mode == "proposed":
            kernel = _support_chain_kernel(design, side)
            row, offset, gain = 2 + i, design.delay_samples(), balance["support_" + side]
        else:
            kernel = band_gain_eq(getattr(design.front_gains, side).gains, spec).data
            row, offset, gain = i, 0, balance["primary_" + side]
        want = convolve(AudioBuffer(sig[i], 48000),
                        ImpulseResponse(AudioBuffer(kernel, 48000))).mono * gain
        assert kernel.size == (EQ_IR_LEN + DEFAULT_DECORRELATOR_LEN - 1
                               if mode == "proposed" else EQ_IR_LEN)
        assert out[row, offset:].tobytes() == want.tobytes()
