import math

import numpy as np
import pytest
from scipy.special import gammainccinv

from roomfill.audio import AudioBuffer, ImpulseResponse, _next_fast_len
from roomfill.errors import ContractError
from roomfill.gammatone import (
    DESIGN_LEN,
    EQ_IR_LEN,
    ORDER,
    RESPONSE_TAIL_Q,
    BandSignals,
    FilterbankSpec,
    _band_energy_meter,
    _gamma_upper_quantile,
    _impulse_bands,
    _meter_weights,
    _pole_coefficients,
    _refined_lstsq,
    _ring_tail,
    analyze,
    band_energies,
    band_gain_eq,
    erb_number,
    erb_of,
    impulse_band_energies,
    make_spec,
    min_response_length,
    synthesis_latency,
    synthesize,
)
from roomfill.simulate import SyntheticRirParams, synth_rir

from conftest import FIXTURE_SUITE


def _impulse(n, rate=48000):
    d = np.zeros(n)
    d[0] = 1.0
    return AudioBuffer(d, rate)


def _filterbank_energies(x, spec, pad=0):
    """The slow reference: band energies of the time-domain filterbank
    run over x followed by `pad` zeros."""
    padded = np.concatenate([x, np.zeros(pad)])
    bands = analyze(AudioBuffer(padded, spec.sample_rate), spec).data
    return np.sum(bands.real**2 + bands.imag**2, axis=1)


def _magnitude_db(data, rate, f_lo=100.0, f_hi=12800.0):
    h = np.fft.rfft(data)
    f = np.fft.rfftfreq(data.size, 1.0 / rate)
    sel = (f >= f_lo) & (f <= f_hi)
    return 20.0 * np.log10(np.abs(h[sel]))


def test_erb_of_known_value():
    # 24.7 * (4.37 + 1) at 1 kHz
    assert erb_of(1000.0) == pytest.approx(132.639, abs=1e-9)


def test_erb_of_is_scalar_only():
    with pytest.raises((ContractError, ValueError, TypeError)):
        erb_of(np.array([100.0, 200.0]))
    with pytest.raises(ContractError):
        erb_of(0.0)
    with pytest.raises(ContractError):
        erb_of(-10.0)


def test_default_spec_band_layout(spec48):
    assert spec48.num_bands == 37
    assert spec48.center_freqs[0] == pytest.approx(80.0, abs=1e-9)
    assert spec48.center_freqs[-1] == pytest.approx(14813.2115, abs=0.01)
    assert spec48.bandwidths[0] == pytest.approx(erb_of(80.0), abs=1e-12)


def test_spec_layout_cannot_be_supplied(spec48):
    """A bank is its parameters: a caller cannot hand it a layout that
    differs from the one they determine."""
    layout = (spec48.center_freqs, spec48.bandwidths)
    with pytest.raises(TypeError):
        FilterbankSpec(48000, 80.0, 16000.0, *layout)
    with pytest.raises(TypeError):
        FilterbankSpec(48000, 80.0, 16000.0, center_freqs=layout[0])


def test_degenerate_span_gives_single_band():
    spec = make_spec(48000, 1000.0, 1000.0)
    assert spec.num_bands == 1
    assert spec.center_freqs == (1000.0,)


def test_make_spec_rejects_bad_arguments():
    with pytest.raises(ContractError):
        make_spec(48000, 0.0, 16000.0)
    with pytest.raises(ContractError):
        make_spec(48000, 16000.0, 80.0)
    for rate in (48000, 0, -48000):  # at or above Nyquist, or no rate
        with pytest.raises(ContractError, match="Nyquist"):
            make_spec(rate, 80.0, 30000.0 if rate > 0 else 16000.0)
    for args in ((math.nan, 16000.0), (80.0, math.inf)):
        with pytest.raises(ContractError, match="must be finite"):
            make_spec(48000, *args)
    # a fractional rate is refused, not truncated to another bank
    for rate in (48000.7, math.nan, math.inf):
        with pytest.raises(ContractError, match="sample_rate must be a whole number"):
            make_spec(rate, 80.0, 16000.0)
    assert make_spec(48000.0, 80.0, 16000.0) == make_spec(48000, 80.0, 16000.0)


@pytest.mark.parametrize("bands_per_erb, count", ((1.0, 37),))
def test_make_spec_lays_out_banks_up_to_the_density_cap(bands_per_erb, count):
    """Only the layout is built here: no fit, no meter. The density is
    fixed at one band per ERB, which is also its cap."""
    spec = make_spec(48000, 80.0, 16000.0)
    assert spec.num_bands == count
    steps = np.diff([erb_number(f) for f in spec.center_freqs])
    assert np.allclose(steps, 1.0 / bands_per_erb, rtol=0.0, atol=1e-12)


def test_analyze_shape_and_determinism(spec48, rng):
    buf = AudioBuffer(rng.standard_normal(2048), 48000)
    one = analyze(buf, spec48)
    two = analyze(buf, spec48)
    assert one.data.shape == (37, 2048)
    assert one.data.dtype == np.complex128
    assert np.array_equal(one.data, two.data)


def test_band_filters_peak_at_unity_and_hit_half_power_points(spec48):
    """Each band filter has unit gain at its centre and falls to -3 dB
    half a (0.886-wide) equivalent rectangular bandwidth away."""
    n = 65536
    rows = analyze(_impulse(n), spec48).data
    spectra = np.fft.fft(rows, axis=1)[:, : n // 2]
    freqs = np.arange(n // 2) * 48000.0 / n
    for b in (2, 10, 18, 30, 36):
        fc = spec48.center_freqs[b]
        mag = np.abs(spectra[b])
        peak = mag.max()
        at_fc = mag[np.argmin(np.abs(freqs - fc))]
        assert at_fc == pytest.approx(1.0, abs=2e-3)
        assert peak == pytest.approx(1.0, abs=2e-3)
        for sign in (-1.0, 1.0):
            probe = fc + sign * 0.443 * erb_of(fc)
            got = mag[np.argmin(np.abs(freqs - probe))] / peak
            assert got == pytest.approx(2.0 ** -0.5, abs=0.01)


def test_reconstruction_flat_within_one_db(spec48):
    rec = synthesize(analyze(_impulse(16384), spec48)).mono
    db = _magnitude_db(rec, 48000)
    assert db.min() >= -1.0
    assert db.max() <= 1.0


def test_reconstruction_flat_at_44100():
    spec = make_spec(44100, 80.0, 16000.0)
    rec = synthesize(analyze(_impulse(16384, 44100), spec)).mono
    db = _magnitude_db(rec, 44100)
    assert db.min() >= -1.0
    assert db.max() <= 1.0


def test_reconstruction_peaks_at_alignment_latency(spec48):
    assert synthesis_latency(spec48) == 192  # 4 ms at 48 kHz
    assert synthesis_latency(make_spec(44100, 80.0, 16000.0)) == 176
    rec = synthesize(analyze(_impulse(16384), spec48)).mono
    assert int(np.argmax(np.abs(rec))) == 192


@pytest.mark.parametrize("n", (1, 60, 100, 175, 176, 400))
def test_synthesize_of_short_bands_is_a_prefix(spec48, n):
    """Resynthesis is causal: band signals of n samples give the first n
    samples of the long signal's reconstruction, also where n is shorter
    than some bands' alignment delays (up to 175 samples here)."""
    rec = synthesize(analyze(_impulse(1000), spec48)).mono
    short = synthesize(analyze(_impulse(n), spec48)).mono
    assert short.size == n
    assert np.max(np.abs(short - rec[:n]), initial=0.0) <= 1e-14 * np.max(np.abs(rec))


def test_unity_eq_is_a_delayed_near_delta(spec48):
    eq = band_gain_eq(np.ones(37), spec48)
    assert eq.data.size == EQ_IR_LEN
    assert int(np.argmax(np.abs(eq.data))) == synthesis_latency(spec48)
    db = _magnitude_db(eq.data, 48000)
    assert db.min() >= -1.0
    assert db.max() <= 1.0


def test_eq_is_linear_in_gains(spec48, rng):
    g = rng.uniform(0.1, 3.0, size=37)
    doubled = band_gain_eq(2.0 * g, spec48).data
    assert np.allclose(doubled, 2.0 * band_gain_eq(g, spec48).data, atol=0.0)
    assert np.all(band_gain_eq(np.zeros(37), spec48).data == 0.0)


def test_single_band_boost_measured_through_band_energies(spec48):
    """Doubling one mid band's amplitude raises that band's measured
    energy by 4.06 dB, not the 6.02 dB a leak-free bank would show:
    neighbouring bands overlap at one per ERB and their unity-gain
    spill dilutes the boost. Pinned measurement."""
    g = np.ones(37)
    g[14] = 2.0
    boosted = band_energies(band_gain_eq(g, spec48), spec48)
    flat = band_energies(band_gain_eq(np.ones(37), spec48), spec48)
    delta = 10.0 * np.log10(boosted[14] / flat[14])
    assert delta == pytest.approx(4.06, abs=0.1)


def test_eq_rejects_bad_gain_vectors(spec48):
    with pytest.raises(ContractError):
        band_gain_eq(np.ones(36), spec48)
    with pytest.raises(ContractError):
        band_gain_eq(-np.ones(37), spec48)


def test_impulse_band_energies_reference(spec48):
    ref = impulse_band_energies(spec48)
    assert ref.shape == (37,)
    assert np.all(ref > 0)
    ref[0] = -1.0  # caller's copy, the cached reference must not change
    assert impulse_band_energies(spec48)[0] > 0
    # the cached vector is exactly the slow path: a fresh impulse analysis
    fresh = band_energies(ImpulseResponse(_impulse(DESIGN_LEN)), spec48)
    assert np.array_equal(impulse_band_energies(spec48), fresh)


def test_eq_matches_fresh_impulse_resynthesis(spec48, rng):
    """band_gain_eq is a product with a basis built from the design's
    impulse bands; it must equal resynthesising the bands of a fresh
    EQ_IR_LEN impulse. Each one-band EQ, a row of the basis, is
    equal exactly. Any other g sums 37 rows in another order than
    synthesize does: the rows' absolute values add up to under twice the
    EQ's peak, so the two agree within a few ulps of it.
    test_closed_form_impulse_bands_match_analyze ties the bands to the
    time-domain filterbank."""
    fresh = _impulse_bands(spec48, EQ_IR_LEN)

    def slow(g):
        return synthesize(BandSignals(spec48, fresh * g[:, None])).mono

    for g in np.eye(37):
        assert np.array_equal(band_gain_eq(g, spec48).data, slow(g))
    for _ in range(3):
        g = rng.uniform(0.0, 3.0, size=37)
        fast = band_gain_eq(g, spec48).data
        assert np.max(np.abs(fast - slow(g))) <= 1e-14 * np.max(np.abs(fast))


@pytest.mark.parametrize("order", (1, 2, 3, 4), indirect=True)
@pytest.mark.parametrize("rate", (44100, 48000, 96000))
def test_closed_form_impulse_bands_match_analyze(rate, order):
    """The design's impulse bands come from the cascade's closed form, not
    from running it; the filterbank run over a unit impulse is their
    reference. Orders 1-4 exercise the binomial factor."""
    spec = make_spec(rate, 80.0, 16000.0)
    fast = _impulse_bands(spec, DESIGN_LEN)
    slow = analyze(_impulse(DESIGN_LEN, rate), spec).data
    peak = np.abs(slow).max(axis=1)
    assert np.all(np.abs(fast - slow).max(axis=1) <= 1e-14 * peak)


def _tall_system(cond, seed, rows=4000, cols=37):
    """A random rows x cols matrix with singular values spaced
    geometrically from 1 down to 1/cond, and a right-hand side it fits to
    within a 5% residual, as the resynthesis magnitude fit does."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    a = (u * np.geomspace(1.0, 1.0 / cond, cols)) @ v.T
    fit = a @ rng.standard_normal(cols)
    noise = rng.standard_normal(rows)
    return a, fit + 0.05 * noise * np.linalg.norm(fit) / np.linalg.norm(noise)


@pytest.mark.parametrize("cond", (10, 100, 1000))
def test_refined_normal_equations_match_svd_least_squares(cond):
    for seed in range(3):
        a, b = _tall_system(cond, seed)
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        got = _refined_lstsq(a, b, a.T @ a)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # as the resynthesis fit calls it: a stored as the rows of a.T
        a_t = np.ascontiguousarray(a.T)
        got = _refined_lstsq(a_t.T, b, a_t @ a_t.T)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_normal_equations_need_the_refinement_step():
    """Without its refinement step the normal-equation solve misses the
    bound above at condition number 1000: its error grows as cond**2."""
    a, b = _tall_system(1000, 0)
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    plain = np.linalg.solve(a.T @ a, a.T @ b)
    assert np.linalg.norm(plain - want) > 1e-12 * np.linalg.norm(want)


def _energy_cases():
    spec48 = make_spec(48000, 80.0, 16000.0)
    for name, params in FIXTURE_SUITE:
        yield pytest.param(spec48, synth_rir(params).data, id=name)
    pinned = SyntheticRirParams(
        44100, 1000.0, 300.0, direct_delay_ms=3.0,
        coloration=("notch", 1000.0, 15.0, 3.0), seed=201,
    )
    yield pytest.param(
        make_spec(44100, 80.0, 16000.0), synth_rir(pinned).data, id="pinned_44k1"
    )
    # noise cut off abruptly: the most ringing past the end a signal can leave
    noise = np.random.default_rng(96).standard_normal(9600)
    yield pytest.param(make_spec(96000, 80.0, 16000.0), noise, id="noise_96k")


@pytest.mark.parametrize("spec, x", _energy_cases())
def test_band_energies_match_padded_filterbank(spec, x):
    """The closed-form band energies are the filterbank's energies of the
    signal followed by the ring-out tail."""
    fast = band_energies(ImpulseResponse(AudioBuffer(x, spec.sample_rate)), spec)
    slow = _filterbank_energies(x, spec, pad=_ring_tail(spec))
    assert np.allclose(fast, slow, rtol=1e-9, atol=0.0)


def test_ring_tail_lets_the_slowest_band_ring_out():
    """Less than 1e-30 of a unit impulse's energy in any band lies past the
    tail. DESIGN_LEN is the tail at 44.1 and 48 kHz; at 96 kHz the lowest
    band decays too slowly for it and the tail grows."""
    for rate in (44100, 48000):
        assert _ring_tail(make_spec(rate, 80.0, 16000.0)) == DESIGN_LEN
    spec = make_spec(96000, 80.0, 16000.0)
    tail = _ring_tail(spec)
    assert tail > DESIGN_LEN
    bands = analyze(_impulse(2 * tail, 96000), spec).data
    energy = bands.real**2 + bands.imag**2
    past = energy[:, tail:].sum(axis=1) / energy.sum(axis=1)
    assert past.max() < 1e-30


@pytest.mark.parametrize("a", range(1, 16))
def test_gamma_upper_quantile_matches_scipy(a):
    """The closed-form Newton quantile agrees with scipy's inverse of the
    regularised upper incomplete gamma function to 1e-14 relative."""
    for q in (1e-30, 1e-15, 1e-6, 0.01, 0.5, 0.9):
        want = float(gammainccinv(a, q))
        assert abs(_gamma_upper_quantile(a, q) - want) <= 1e-14 * want, q


def test_ring_tail_matches_scipy_quantile():
    """_ring_tail is unchanged from its scipy-based form on 9 specs:
    three rates and three f_low."""
    for rate in (44100, 48000, 96000):
        for f_low in (20.0, 80.0, 200.0):
            spec = make_spec(rate, f_low, 16000.0)
            lam = _pole_coefficients(spec)[0]
            rate_per_sample = -2.0 * math.log(float(lam.max()))
            quantile = float(gammainccinv(2 * ORDER - 1, 1e-30))
            want = max(DESIGN_LEN, math.ceil(quantile / rate_per_sample))
            assert _ring_tail(spec) == want, (rate, f_low)


def test_min_response_length_leaves_q_of_the_slowest_band():
    """A response of min_response_length samples holds all but
    RESPONSE_TAIL_Q of the lowest band's impulse energy; the rule is the
    gamma density's quantile, which the sampled envelope meets to within
    one sample."""
    for rate, want in ((44100, 1867), (48000, 2032)):
        spec = make_spec(rate, 80.0, 16000.0)
        n = min_response_length(spec)
        assert n == want
        energy = np.abs(_impulse_bands(spec, 4 * DESIGN_LEN)[0]) ** 2
        past = np.cumsum(energy[::-1])[::-1] / energy.sum()  # share from sample k on
        assert past[n] < RESPONSE_TAIL_Q < past[n - 2]


def test_short_ir_band_energies_include_ringing(spec48):
    """A 6 ms response counts its low bands in full: its band energies
    equal those of the same response zero-padded to 1 s. The filterbank
    run over the response's own length misses most of the lowest bands'
    ringing."""
    ir = synth_rir(SyntheticRirParams(48000, 6.0, 2.0, seed=6))
    padded = np.concatenate([ir.data, np.zeros(48000 - ir.data.size)])
    got = band_energies(ir, spec48)
    want = band_energies(ImpulseResponse(AudioBuffer(padded, 48000)), spec48)
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)
    truncated = _filterbank_energies(ir.data, spec48)
    assert 10.0 * np.log10(got[0] / truncated[0]) > 10.0


def test_meter_does_not_depend_on_its_size(spec48, rng):
    """A meter sized for longer signals measures a short one the same, so
    one meter serves every signal of a solve."""
    x = rng.standard_normal(3000)
    exact = _band_energy_meter(spec48, x.size)
    roomy = _band_energy_meter(spec48, 40000)
    assert np.allclose(
        roomy.energies(roomy.spectrum(x)),
        exact.energies(exact.spectrum(x)),
        rtol=1e-9,
        atol=0.0,
    )
    with pytest.raises(ContractError):
        _band_energy_meter(spec48, x.size - 1).spectrum(x)


def _power_reference_weights(spec, m):
    """The meter weights with each term taken as den ** -ORDER."""
    lam, theta, norm = _pole_coefficients(spec)
    half_w = math.pi * np.arange(m // 2 + 1) / m
    sin_w, cos_w = np.sin(half_w), np.cos(half_w)
    weights = np.zeros((spec.num_bands, half_w.size))
    for k in range(spec.num_bands):
        a = sin_w * math.cos(0.5 * theta[k])
        b = cos_w * math.sin(0.5 * theta[k])
        for den in (a - b, a + b):
            den *= den
            den *= 4.0 * lam[k]
            den += (1.0 - lam[k]) ** 2
            weights[k] += den ** -ORDER
        weights[k] *= norm[k] ** 2 / m
    weights[:, 0] *= 0.5
    if m % 2 == 0:
        weights[:, -1] *= 0.5
    return weights


@pytest.mark.parametrize("rate", (44100, 48000))
def test_meter_weights_match_the_power_they_replace(rate):
    """The weights raise each band's denominator to -ORDER by two
    squarings and one reciprocal instead of a power: equal to 1e-15
    relative, for the meter of a 1 s response (even m) and an odd m."""
    spec = make_spec(rate, 80.0, 16000.0)
    for m in (_next_fast_len(rate + _ring_tail(spec)), 30375):
        want = _power_reference_weights(spec, m)
        got = _meter_weights(spec, m)
        assert np.max(np.abs(got - want) / want) <= 1e-15
