"""The FFT-based resynthesis fit that gammatone._synthesis_design replaced,
kept beside the tests that check the closed-form fit against it.

It builds every band's DESIGN_LEN-sample impulse response, delays it,
takes a full complex FFT per build and reads the fit-grid and crossover
bins from that; the fit itself (the 16 IRLS steps, the latency loop) is
the one gammatone runs. It knows nothing of gammatone's closed-form
spectra.
"""
from collections import namedtuple

import numpy as np

from roomfill.gammatone import (
    _ERB_RATE,
    _ERB_SCALE,
    ALIGN_LATENCY_S,
    DESIGN_LEN,
    EQ_IR_LEN,
    FilterbankSpec,
    _add_band,
    _impulse_bands,
    _refined_lstsq,
    erb_number,
    erb_number_inverse,
)

ReferenceFit = namedtuple(
    "ReferenceFit", "delays phases gains latency eq_basis fit_bins cross_bins spectra"
)


def fft_synthesis_design(spec: FilterbankSpec) -> ReferenceFit:
    """Delays, phases, gains, latency and EQ basis as the FFT-based fit
    computes them, with the fit-grid bins, the crossover bins and the
    final build's DESIGN_LEN-point spectra (num_bands, DESIGN_LEN // 2 + 1)
    of the delayed bands."""
    fs = spec.sample_rate
    n_bands = spec.num_bands
    target_latency = int(round(ALIGN_LATENCY_S * fs))
    bands = _impulse_bands(spec, DESIGN_LEN)
    peaks = np.argmax(np.abs(bands), axis=1)
    delays = np.maximum(0, target_latency - peaks).astype(int)

    freqs = np.fft.rfftfreq(DESIGN_LEN, 1.0 / fs)
    half = freqs.size
    bin_hz = fs / DESIGN_LEN

    centers = np.asarray(spec.center_freqs)
    cross_bins = np.empty(0, dtype=int)
    if n_bands > 1:
        mids = [
            erb_number_inverse(0.5 * (erb_number(centers[i]) + erb_number(centers[i + 1])))
            for i in range(n_bands - 1)
        ]
        cross_bins = np.clip(np.round(np.array(mids) / bin_hz).astype(int), 0, half - 1)

    fit_lo = 1.125 * spec.f_low
    fit_hi = 0.9 * spec.f_high
    if fit_hi <= fit_lo:
        fit_lo = 0.8 * centers[0]
        fit_hi = min(1.25 * centers[-1], 0.49 * fs)
    sel = (freqs >= fit_lo) & (freqs <= fit_hi)
    if not np.any(sel):
        first = int(np.argmin(np.abs(freqs - centers[0])))
        sel = np.zeros(half, dtype=bool)
        sel[first] = True
    base_w = 1.0 / np.sqrt(_ERB_SCALE * (_ERB_RATE * np.maximum(freqs[sel], 1.0) / 1000.0 + 1.0))

    def build(cur_delays):
        shifted = np.zeros_like(bands)
        for b, d in enumerate(cur_delays):
            shifted[b, d:] = bands[b, : DESIGN_LEN - d]
        spectra = np.fft.fft(shifted, axis=1)[:, :half]

        phases = np.zeros(n_bands)
        phases[0] = -np.angle(shifted[0, target_latency])
        for i in range(n_bands - 1):
            step = np.angle(spectra[i, cross_bins[i]]) - np.angle(
                spectra[i + 1, cross_bins[i]]
            )
            phases[i + 1] = phases[i] + step

        a_mat = 0.5 * (spectra[:, sel] * np.exp(1j * phases)[:, None]).T
        a_stack = np.concatenate([a_mat.real, a_mat.imag])
        gains = np.ones(n_bands)
        w = base_w
        for k in range(16):
            resp = a_mat @ gains
            mag_err = np.abs(np.abs(resp) - 1.0)
            if k > 3:
                w = base_w * (1.0 + 4.0 * mag_err / max(mag_err.max(), 1e-12))
            rhs = resp / np.maximum(np.abs(resp), 1e-12) * w
            rows_w = np.concatenate([w, w])[:, None]
            a_w = a_stack * rows_w
            gains = _refined_lstsq(a_w, np.concatenate([rhs.real, rhs.imag]), a_w.T @ a_w)
        recon = np.zeros(DESIGN_LEN)
        for b, d in enumerate(cur_delays):
            _add_band(recon, bands[b], d, phases[b], gains[b])
        return phases, gains, int(np.argmax(np.abs(recon))), spectra

    phases, gains, latency, spectra = build(delays)
    for _ in range(5):
        miss = latency - target_latency
        movable = delays > 0
        if miss == 0 or not np.any(movable):
            break
        delays = np.where(movable, np.maximum(0, delays - miss), delays)
        phases, gains, latency, spectra = build(delays)

    eq_basis = np.zeros((n_bands, EQ_IR_LEN))
    for b in range(n_bands):
        _add_band(eq_basis[b], bands[b, :EQ_IR_LEN], delays[b], phases[b], gains[b])
    return ReferenceFit(
        delays, phases, gains, latency, eq_basis, np.flatnonzero(sel), cross_bins, spectra
    )
