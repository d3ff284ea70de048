"""The resynthesis fit against the FFT-based fit it replaced
(reference_fit.fft_synthesis_design), and what the fit may and may not
depend on."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import roomfill
from roomfill import gammatone
from roomfill.gammatone import (
    DESIGN_LEN,
    EQ_IR_LEN,
    _band_spectra,
    _dft_phasors,
    _fit_grid,
    _pole_coefficients,
    _ring_tail,
    _synthesis_design,
    erb_number,
    make_spec,
)

from reference_fit import fft_synthesis_design

#: Largest relative difference allowed between the two fits' gains (2-norm)
#: and EQ bases (largest entry), fixed before the closed-form fit was
#: written. The fit solves normal equations, so a rounding-level change in
#: its matrix moves the gains by up to about cond**2 ulps; cond is about 7
#: at one band per ERB.
FIT_TOLERANCE = 2e-12


def _window_tails(spec, delays, order):
    """Per band, the sum of |h[t]| over the samples a DESIGN_LEN window
    drops once the band is delayed by its delay: a bound on how far an FFT
    of that window can lie from the band's whole spectrum at any bin.
    Below 1e-15 where DESIGN_LEN holds the bank's ring-out; order 1 at
    44.1 and 48 kHz and every order at 96 kHz ring longer."""
    lam, _, norm = _pole_coefficients(spec)
    tails = np.empty(spec.num_bands)
    for b, d in enumerate(delays):
        t = np.arange(DESIGN_LEN - d, DESIGN_LEN + _ring_tail(spec), dtype=np.float64)
        binom = np.ones(t.size)
        for j in range(1, order):
            binom = binom * (t + j) / j
        tails[b] = np.sum(norm[b] * binom * np.exp(t * np.log(lam[b])))
    return tails


@pytest.mark.parametrize("bands_per_erb", (1.0,))
@pytest.mark.parametrize("order", (1, 2, 3, 4), indirect=True)
@pytest.mark.parametrize("rate", (44100, 48000, 96000))
def test_closed_form_fit_matches_the_fft_fit(rate, order, bands_per_erb):
    """Delays and latency are equal exactly. The closed-form spectra match
    the reference's FFT bins to 1e-12 of the band's peak, plus what the
    reference's DESIGN_LEN window drops of a band that rings past it.
    Gains and EQ basis match within FIT_TOLERANCE, plus ten times that
    dropped tail: a fit this well conditioned moves by a small multiple
    of a change in its spectra (at most 2.2 times, measured). The bank is
    the fixed one of bands_per_erb bands per ERB."""
    spec = make_spec(rate, 80.0, 16000.0)
    steps = np.diff([erb_number(f) for f in spec.center_freqs])
    assert np.allclose(steps, 1.0 / bands_per_erb, rtol=0.0, atol=1e-12)
    new = _synthesis_design.__wrapped__(spec)  # leaves the cache to the other tests
    ref = fft_synthesis_design(spec)
    assert np.array_equal(new.delays, ref.delays)
    assert new.latency == ref.latency

    cross_bins, fit_bins, _ = _fit_grid(spec)
    assert np.array_equal(cross_bins, ref.cross_bins)
    assert np.array_equal(fit_bins, ref.fit_bins)
    bins = np.concatenate([fit_bins, cross_bins])
    closed = _band_spectra(spec, bins) * _dft_phasors(bins, ref.delays)
    fft = ref.spectra[:, bins]
    tails = _window_tails(spec, ref.delays, order)
    peak = np.abs(ref.spectra).max(axis=1)
    assert np.all(np.abs(closed - fft).max(axis=1) <= 1e-12 * peak + tails)

    tol = FIT_TOLERANCE + 10.0 * tails.max()
    assert np.linalg.norm(new.gains - ref.gains) <= tol * np.linalg.norm(ref.gains)
    eq_error = np.abs(new.eq_basis - ref.eq_basis).max()
    assert eq_error <= tol * np.abs(ref.eq_basis).max()


@pytest.mark.parametrize("rate", (44100, 48000))
def test_cold_fit_builds_impulse_bands_no_longer_than_the_eq(monkeypatch, rate):
    """The fit reads the first EQ_IR_LEN samples of the impulse bands and
    takes their spectra in closed form, so it never builds the
    DESIGN_LEN-sample bands the FFT fit transformed."""
    lengths = []
    real = gammatone._impulse_bands

    def spy(spec, n):
        lengths.append(n)
        return real(spec, n)

    monkeypatch.setattr(gammatone, "_impulse_bands", spy)
    _synthesis_design.__wrapped__(make_spec(rate, 80.0, 16000.0))  # bypass the cache
    assert lengths and max(lengths) <= EQ_IR_LEN


@pytest.mark.parametrize("rate, f_low, latency, builds", (
    (48000, 80.0, 192, 3),
    (44100, 80.0, 176, 2),
    (48000, 50.0, 193, 4),
))
def test_latency_search_stops_where_its_delay_sets_cycle(monkeypatch, rate, f_low,
                                                         latency, builds):
    """The default banks reach the 4 ms sample (192 and 176 samples). On
    the 48 kHz 50-16000 Hz bank the builds land at 198, 193, 190 and 194,
    and the next shift would rebuild the delays of 190, after which the
    builds would alternate 190 and 194. The search stops there and keeps
    193, the build nearest 192. Each build runs 16 refined solves."""
    calls = []
    real = gammatone._refined_lstsq

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(gammatone, "_refined_lstsq", spy)
    fit = _synthesis_design.__wrapped__(make_spec(rate, f_low, 16000.0))  # bypass the cache
    assert (fit.latency, len(calls)) == (latency, 16 * builds)


_FIT_BYTES = """
import hashlib, json
import numpy as np
from roomfill.gammatone import _synthesis_design, make_spec
out = {}
for rate in (44100, 48000):
    fit = _synthesis_design(make_spec(rate, 80.0, 16000.0))
    out[rate] = {name: hashlib.sha256(np.ascontiguousarray(getattr(fit, name)).tobytes()).hexdigest()
                 for name in ("delays", "phases", "gains", "latency", "eq_basis")}
print(json.dumps(out))
"""


def test_fit_does_not_depend_on_the_blas_thread_count():
    """Fresh processes at 1, 2 and 4 BLAS threads fit the 44.1 and 48 kHz
    default banks to the same bytes. impulse_energies is left out: it is
    the band-energy meter's weights @ power, a BLAS gemv whose sums change
    with the thread count (the 48 kHz vector differs between 1 and 2
    threads), which is the meter's dependence, not the fit's."""
    src = os.path.dirname(os.path.dirname(roomfill.__file__))
    digests = []
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", _FIT_BYTES], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert digests[0] == digests[1] == digests[2]
