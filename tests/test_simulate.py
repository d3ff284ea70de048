import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve, lfilter

from roomfill.audio import AudioBuffer, ImpulseResponse
from roomfill.errors import ContractError
from roomfill.gammatone import band_energies, band_gain_eq, erb_number, impulse_band_energies
from roomfill.pipeline import solve_design
from roomfill.render import DELAY_RANGE_MS, SupportChain, render
from roomfill.rirs import RirSet
from roomfill.simulate import (
    MAX_NOTCH_DB,
    REPORT_HEADER,
    SyntheticRirParams,
    VerificationReport,
    _peaking_cut,
    export_report,
    simulate_total,
    synth_rir,
)
from roomfill.solver import BandGainSet
from roomfill.target import TargetFunction

from conftest import FIXTURE_SUITE, report_csv


def _params(**kw):
    base = dict(sample_rate=48000, length_ms=800.0, t60_ms=200.0, seed=1)
    base.update(kw)
    return SyntheticRirParams(**base)


def test_params_validation():
    with pytest.raises(ContractError):
        _params(t60_ms=0.0)
    with pytest.raises(ContractError):
        _params(length_ms=-1.0)
    with pytest.raises(ContractError):
        _params(direct_amplitude=0.0)
    with pytest.raises(ContractError):
        _params(direct_delay_ms=-0.1)
    # a notch must be one the biquad can build: three finite numbers, a
    # centre strictly inside (0, Nyquist), a positive q and a depth within
    # MAX_NOTCH_DB (+-20000 dB overflows the coefficients, -1000 dB blows
    # the response up)
    for notch in (
        (1000.0,),
        (1000.0, math.nan, 3.0),
        (1000.0, 15.0, 0.0),
        (1000.0, 15.0, -3.0),
        (0.0, 15.0, 3.0),
        (24000.0, 15.0, 3.0),
        (30000.0, 15.0, 3.0),
        (1000.0, -20000.0, 3.0),
        (1000.0, 20000.0, 3.0),
        (1000.0, -1000.0, 3.0),
        (1000.0, MAX_NOTCH_DB + 0.5, 3.0),
    ):
        with pytest.raises(ContractError, match="notch"):
            _params(notch=notch)
    # a negative depth is a stable boost, up to the bound
    assert _params(notch=(1000.0, -6.0, 3.0)).coloration_summary() == (
        "notch 1000 Hz, depth -6 dB, q 3"
    )
    for depth in (MAX_NOTCH_DB, -MAX_NOTCH_DB):
        assert np.isfinite(synth_rir(_params(notch=(1000.0, depth, 3.0))).data).all()



def test_short_fixture_warns():
    with pytest.warns(UserWarning):
        _params(length_ms=400.0, t60_ms=200.0)


def test_synth_rir_deterministic_and_seed_sensitive():
    a = synth_rir(_params(seed=9))
    b = synth_rir(_params(seed=9))
    c = synth_rir(_params(seed=10))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


@settings(max_examples=20)
@given(
    rate=st.sampled_from((44100, 48000)),
    seed=st.integers(0, 2**32 - 1),
    notch=st.tuples(st.floats(40.0, 16000.0), st.floats(0.0, 30.0), st.floats(0.3, 10.0)),
)
def test_coloration_is_lfilter_bit_for_bit(rate, seed, notch):
    """synth_rir runs its own biquad, not scipy's: the notched response
    is scipy.signal.lfilter of the uncoloured one with the same seed, to
    the last bit."""
    params = _params(
        sample_rate=rate, length_ms=200.0, t60_ms=50.0, direct_delay_ms=1.0,
        notch=notch, seed=seed,
    )
    flat = synth_rir(dataclasses.replace(params, notch=()))
    b, a = _peaking_cut(*notch, rate=rate)
    assert synth_rir(params).data.tobytes() == lfilter(b, a, flat.data).tobytes()


def test_direct_sound_placement():
    ir = synth_rir(_params(direct_delay_ms=5.0, direct_amplitude=0.7))
    d = int(round(5.0 * 48.0))
    assert np.all(ir.data[:d] == 0.0)
    assert ir.data[d] == 0.7


def test_direct_delay_beyond_length_rejected():
    with pytest.raises(ContractError):
        synth_rir(_params(length_ms=100.0, t60_ms=30.0, direct_delay_ms=150.0))


def test_tail_decays_sixty_db_per_t60():
    """Energy in [t60, 2*t60] sits one million times below [0+, t60]."""
    ir = synth_rir(FIXTURE_SUITE[0][1])  # flat, t60 = 200 ms
    n60 = int(0.2 * 48000)
    first = ir.data[1 : 1 + n60]
    second = ir.data[1 + n60 : 1 + 2 * n60]
    ratio_db = 10.0 * math.log10(np.sum(second**2) / np.sum(first**2))
    assert ratio_db == pytest.approx(-60.0, abs=1.0)


def test_notch_fixture_band_profile(spec48):
    """Both pinned notched fixtures dip hardest in the band nearest 1 kHz,
    with 8+ dB of contrast against the bands 3 ERBs away (the biquad's
    skirts and band leakage keep it under the notch's nominal 15 dB)."""
    en = [erb_number(f) for f in spec48.center_freqs]
    for name in ("notch1k_t200", "notch1k_t500"):
        params = dict(FIXTURE_SUITE)[name]
        prof = band_energies(synth_rir(params), spec48)
        b = int(np.argmin(prof))
        assert abs(spec48.center_freqs[b] - 1000.0) < 0.5 * spec48.bandwidths[b]
        lo = int(np.argmin([abs(e - (en[b] - 3.0)) for e in en]))
        hi = int(np.argmin([abs(e - (en[b] + 3.0)) for e in en]))
        for neighbor in (lo, hi):
            contrast = 10.0 * np.log10(prof[neighbor] / prof[b])
            assert contrast >= 7.0


def test_fixture_suite_is_pinned():
    names = [name for name, _ in FIXTURE_SUITE]
    assert len(names) == len(set(names)) == 4
    assert all(p.sample_rate == 48000 for _, p in FIXTURE_SUITE)
    assert all(p.length_ms >= 3.0 * p.t60_ms for _, p in FIXTURE_SUITE)


def _with_gain_factor(design, factor):
    def scaled(solve):
        return dataclasses.replace(solve, gains=solve.gains * factor)

    gains = BandGainSet(design.spec, scaled(design.gains.left), scaled(design.gains.right))
    return dataclasses.replace(design, gains=gains)


def test_zero_gains_leave_total_at_primary(solved_design, fixture_rirs):
    silent = _with_gain_factor(solved_design, 0.0)
    report, _ = simulate_total(silent, fixture_rirs)
    assert np.array_equal(report.total_db, report.primary_db)
    assert report.unfilled_band_count == report.center_freqs.size


def test_doubling_fill_gains_adds_six_db_to_fill(solved_design, fixture_rirs):
    # the fill path is linear in the gain vector, so the shift is exact
    base, _ = simulate_total(solved_design, fixture_rirs)
    loud, _ = simulate_total(_with_gain_factor(solved_design, 2.0), fixture_rirs)
    shift = loud.fill_db - base.fill_db
    assert np.allclose(shift, 20.0 * math.log10(2.0), atol=1e-6)


def test_simulation_deviation_matches_solver_residual(solved_design, fixture_rirs):
    """The solver measures through the same chain the renderer plays, so
    its residual and the simulated deviation are the same numbers."""
    for channel, report in zip(("left", "right"), simulate_total(solved_design, fixture_rirs)):
        solve = getattr(solved_design.gains, channel)
        assert np.allclose(report.deviation_db, solve.residual_db, atol=1e-6)
        live = solve.gains > 0
        assert report.max_abs_deviation_filled_bands_db <= 0.5
        assert report.unfilled_band_count == int(np.count_nonzero(~live))


@settings(max_examples=6)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=4, unique=True),
    notch=st.tuples(st.floats(200.0, 8000.0), st.floats(3.0, 20.0), st.floats(0.7, 6.0)),
    amplitudes=st.lists(st.floats(0.25, 1.0), min_size=4, max_size=4),
    delay_ms=st.floats(*DELAY_RANGE_MS),
)
def test_simulated_deviation_is_the_solver_residual_on_drawn_rooms(
    spec48, seeds, notch, amplitudes, delay_ms
):
    """On any room the supports can fill, the simulation of a design
    reproduces the residual its solve reported, band by band, to 1e-6 dB:
    solve and simulation measure the same chain at the same levels."""
    notches = [notch] * 2 + [()] * 2
    rirs = RirSet(*(
        synth_rir(_params(length_ms=300.0, t60_ms=100.0, direct_delay_ms=2.0, seed=seed,
                          direct_amplitude=amp, notch=room_notch))
        for seed, amp, room_notch in zip(seeds, amplitudes, notches)
    ))
    design = solve_design(
        rirs, spec48, TargetFunction(), chain=SupportChain(delay_ms=delay_ms)
    )
    for channel, report in zip(("left", "right"), simulate_total(design, rirs)):
        solve = getattr(design.gains, channel)
        assert np.max(np.abs(report.deviation_db - solve.residual_db)) <= 1e-6


def test_odd_delay_simulates_to_the_solver_residual(fixture_rirs, spec48):
    """20.96875 ms is 1006.5 samples at 48 kHz, where two roundings of the
    bulk delay can differ by one sample; the solve must measure the delay
    that render plays."""
    design = solve_design(
        fixture_rirs,
        spec48,
        TargetFunction(),
        chain=SupportChain(delay_ms=20.96875),
    )
    for channel, report in zip(("left", "right"), simulate_total(design, fixture_rirs)):
        solve = getattr(design.gains, channel)
        assert np.allclose(report.deviation_db, solve.residual_db, atol=1e-6)


def test_fill_never_cancels_primary(solved_design, fixture_rirs):
    for report in simulate_total(solved_design, fixture_rirs):
        assert np.all(report.total_db >= report.primary_db - 0.2)


def test_cross_term_stays_bounded(solved_design, fixture_rirs):
    """Decorrelation keeps the coherent/incoherent energy gap small in
    the bulk: the median band's cross-term is a few percent. Low bands
    see larger excursions (pinned at 0.45 max) because a 1024-tap filter
    has roughly one spectral degree of freedom per ERB down there."""
    for report in simulate_total(solved_design, fixture_rirs):
        p = 10.0 ** (report.primary_db / 10.0)
        f = 10.0 ** (report.fill_db / 10.0)
        t = 10.0 ** (report.total_db / 10.0)
        frac = np.abs(t - (p + f)) / t
        assert float(np.median(frac)) <= 0.15
        assert float(np.max(frac)) <= 0.45


def test_spectral_simulation_matches_time_domain_paths(solved_design, fixture_rirs):
    """simulate_total multiplies spectra of one two-sided impulse render;
    rendering each side's impulse alone, convolving it with the responses
    in time and summing gives the same band levels."""
    rate = solved_design.sample_rate
    reports = simulate_total(solved_design, fixture_rirs)
    for i, (channel, report) in enumerate(zip(("left", "right"), reports)):
        imp = np.zeros((2, 1))
        imp[i, 0] = 1.0
        out = render(AudioBuffer(imp, rate), solved_design, "proposed").samples
        primary = getattr(fixture_rirs, "primary_" + channel).data
        primary = primary * solved_design.balance_gains["primary_" + channel]
        primary_path = fftconvolve(out[i], primary)
        fill_path = fftconvolve(out[2 + i], getattr(fixture_rirs, "support_" + channel).data)
        total = np.zeros(max(primary_path.size, fill_path.size))
        total[: primary_path.size] += primary_path
        total[: fill_path.size] += fill_path
        for got, path in (
            (report.primary_db, primary_path),
            (report.fill_db, fill_path),
            (report.total_db, total),
        ):
            energies = band_energies(ImpulseResponse(AudioBuffer(path, rate)), solved_design.spec)
            assert np.allclose(got, 10.0 * np.log10(energies), rtol=0.0, atol=1e-8)


def test_simulation_is_deterministic(solved_design, fixture_rirs):
    _, a = simulate_total(solved_design, fixture_rirs)
    _, b = simulate_total(solved_design, fixture_rirs)
    assert np.array_equal(a.total_db, b.total_db)
    assert np.array_equal(a.deviation_db, b.deviation_db)


def test_no_meter_outlives_its_command(spec48):
    """A band-energy meter's weights (about 5 MB here) are shared only
    within one design or one simulation of both channels and freed when
    it returns: with the bank's first use done, solve_design and
    simulate_total leave under 1 MB behind. A room length no other test
    uses keeps a cache across calls from having been filled already."""
    notch = (1000.0, 15.0, 3.0)
    rirs = RirSet(**{
        name: synth_rir(_params(length_ms=320.0, t60_ms=100.0, seed=seed,
                                notch=notch if name.startswith("primary") else ()))
        for name, seed in (("primary_left", 91), ("primary_right", 92),
                           ("support_left", 93), ("support_right", 94))
    })
    impulse_band_energies(spec48)
    band_gain_eq(np.ones(spec48.num_bands), spec48)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        design = solve_design(rirs, spec48, TargetFunction())
        designed = tracemalloc.get_traced_memory()[0]
        reports = simulate_total(design, rirs)
        simulated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert designed - start < 2**20
    assert simulated - designed < 2**20
    assert all(r.center_freqs.size == spec48.num_bands for r in reports)


def test_report_round_trip_six_significant_digits(tmp_path, solved_design, fixture_rirs):
    report, _ = simulate_total(solved_design, fixture_rirs)
    path = tmp_path / "report.csv"
    export_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 1 + report.center_freqs.size + 3
    assert sum(1 for ln in lines if ln.startswith("#")) == 3

    rows, summary = report_csv(path)
    assert rows.shape == (report.center_freqs.size, 6)
    for got, want in (
        (rows[:, 3], report.total_db),
        (rows[:, 5], report.deviation_db),
        (rows[:, 0], report.center_freqs),
    ):
        printed = np.array([float("%.6g" % v) for v in want])
        assert np.array_equal(got, printed)
    assert float(summary["max_abs_deviation_filled_bands_db"]) == pytest.approx(
        report.max_abs_deviation_filled_bands_db, rel=1e-5
    )
    assert int(summary["unfilled_band_count"]) == report.unfilled_band_count


def test_empty_report_is_header_and_summary_only(tmp_path):
    empty = VerificationReport.build(
        np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, bool)
    )
    path = tmp_path / "empty.csv"
    export_report(empty, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    with pytest.warns(UserWarning, match="no data"):
        rows, summary = report_csv(path)
    assert rows.size == 0
    assert float(summary["max_abs_deviation_filled_bands_db"]) == 0.0


def test_report_with_silent_fill_path_round_trips(tmp_path):
    """export_report writes -inf for a silent path's level, and it reads
    back as -inf."""
    silent = VerificationReport.build(
        center_freqs=[80.0, 100.0],
        primary_db=[-3.0, -4.0],
        fill_db=[-np.inf, -np.inf],
        total_db=[-3.0, -4.0],
        target_db=[-2.5, -4.5],
        filled=[False, False],
    )
    path = tmp_path / "silent.csv"
    export_report(silent, path)
    assert "80,-3,-inf,-3,-2.5,-0.5" in path.read_text().splitlines()
    rows, summary = report_csv(path)
    assert np.array_equal(rows[:, 2], silent.fill_db)
    assert np.array_equal(rows[:, 5], silent.deviation_db)
    assert int(summary["unfilled_band_count"]) == 2
