"""Synthetic room fixtures and end-to-end playback simulation.

The desk-scale substitute for a listening room: generate impulse
responses with known decay and coloration, push an impulse through the
full supporting chain, convolve with the fixtures and tabulate achieved
band energies against the target.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, ImpulseResponse
from .errors import ContractError, check_finite
from .rirs import RirSet
from .pipeline import room_meter
from .render import EqualisationDesign, render
from .solver import _anchored_targets, _profile_db

#: Noise-tail RMS just after the direct sound, relative to the direct
#: amplitude. Pinned so fixture band profiles are reproducible.
TAIL_LEVEL = 0.1

#: Deepest notch cut or boost, in dB: twice the deepest any test draws.
#: Far deeper ones overflow the biquad's coefficients or its output.
MAX_NOTCH_DB = 60.0

# 60 dB of amplitude decay: ln(10**3), the -6.9078 exponent reached at t60
_DECAY = 6.907755278982137

REPORT_HEADER = "f_c_hz,primary_db,fill_db,total_db,target_db,deviation_db"


@dataclass(frozen=True)
class SyntheticRirParams:
    """Recipe for a synthetic impulse response.

    notch is empty (no coloration) or (f0_hz, depth_db, q): a peaking cut
    of depth_db at f0_hz, a boost where depth_db is negative.
    """

    sample_rate: int
    length_ms: float
    t60_ms: float
    direct_amplitude: float = 1.0
    direct_delay_ms: float = 0.0
    notch: tuple = ()
    seed: int = 0

    def __post_init__(self):
        check_finite(self, "length_ms", "t60_ms", "direct_amplitude", "direct_delay_ms")
        if self.sample_rate <= 0:
            raise ContractError("sample_rate must be positive")
        if self.t60_ms <= 0:
            raise ContractError("t60_ms must be positive")
        if self.length_ms <= 0:
            raise ContractError("length_ms must be positive")
        if self.direct_amplitude <= 0:
            raise ContractError("direct_amplitude must be positive")
        if self.direct_delay_ms < 0:
            raise ContractError("direct_delay_ms must be non-negative")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")
        if self.notch:
            if len(self.notch) != 3:
                raise ContractError("notch coloration needs (f0, depth_db, q)")
            if not all(map(math.isfinite, self.notch)):
                raise ContractError("notch coloration parameters must be finite")
            f0, depth_db, q = self.notch
            if not 0.0 < f0 < self.sample_rate / 2.0:
                raise ContractError(
                    "notch centre %g Hz must lie strictly between 0 and the "
                    "Nyquist frequency (%g Hz)" % (f0, self.sample_rate / 2.0)
                )
            if q <= 0:
                raise ContractError("notch q must be positive, got %g" % q)
            if abs(depth_db) > MAX_NOTCH_DB:
                raise ContractError(
                    "notch depth %g dB must lie within +-%g dB" % (depth_db, MAX_NOTCH_DB)
                )
        if self.length_ms < 3.0 * self.t60_ms:
            warnings.warn(
                "fixture length %.0f ms is under 3x t60 (%.0f ms); the decay "
                "tail will be truncated" % (self.length_ms, self.t60_ms)
            )

    def coloration_summary(self) -> str:
        if self.notch:
            return "notch %.6g Hz, depth %.6g dB, q %.6g" % self.notch
        return "none"


def _peaking_cut(f0: float, depth_db: float, q: float, rate: int):
    # biquad peaking EQ with negative gain; exact -depth_db at f0
    a_lin = 10.0 ** (-depth_db / 40.0)
    w = 2.0 * math.pi * f0 / rate
    alpha = math.sin(w) / (2.0 * q)
    b = np.array([1.0 + alpha * a_lin, -2.0 * math.cos(w), 1.0 - alpha * a_lin])
    a = np.array([1.0 + alpha / a_lin, -2.0 * math.cos(w), 1.0 - alpha / a_lin])
    return b / a[0], a / a[0]


def _biquad(b, a, x: np.ndarray) -> np.ndarray:
    """One normalised biquad (a[0] == 1) over x, from rest, in direct form
    II transposed. Each sum is taken in scipy.signal.lfilter's order, so
    the output is bit-identical to lfilter(b, a, x)."""
    b0, b1, b2 = b.tolist()
    _, a1, a2 = a.tolist()
    z1 = z2 = 0.0
    y = []
    for xi in x.tolist():
        yi = z1 + b0 * xi
        z1 = z2 + xi * b1 - yi * a1
        z2 = xi * b2 - yi * a2
        y.append(yi)
    return np.array(y)


def synth_rir(params: SyntheticRirParams) -> ImpulseResponse:
    """Generate a synthetic impulse response: a direct impulse followed by
    a seeded Gaussian tail with exponential 60 dB decay at t60, the whole
    thing shaped by the notch filter if any. Deterministic per seed.
    """
    rate = params.sample_rate
    n = int(round(params.length_ms * rate / 1000.0))
    d = int(round(params.direct_delay_ms * rate / 1000.0))
    if d >= n:
        raise ContractError("direct delay falls beyond the fixture length")

    ir = np.zeros(n)
    ir[d] = params.direct_amplitude

    tail = n - d - 1
    if tail > 0:
        rng = np.random.default_rng(params.seed)
        t = np.arange(1, tail + 1) / rate
        env = np.exp(-_DECAY * t / (params.t60_ms / 1000.0))
        ir[d + 1 :] = (
            rng.standard_normal(tail) * (TAIL_LEVEL * params.direct_amplitude) * env
        )

    if params.notch:
        ir = _biquad(*_peaking_cut(*params.notch, rate=rate), ir)

    return ImpulseResponse(AudioBuffer(ir, rate))


@dataclass
class VerificationReport:
    """Per-band achieved-vs-target table plus the three summary figures."""

    center_freqs: np.ndarray
    primary_db: np.ndarray
    fill_db: np.ndarray
    total_db: np.ndarray
    target_db: np.ndarray
    deviation_db: np.ndarray
    max_abs_deviation_filled_bands_db: float
    rms_deviation_db: float
    unfilled_band_count: int

    @classmethod
    def build(cls, center_freqs, primary_db, fill_db, total_db, target_db, filled):
        deviation = np.asarray(total_db) - np.asarray(target_db)
        filled = np.asarray(filled, dtype=bool)
        if filled.any():
            max_dev = float(np.max(np.abs(deviation[filled])))
        else:
            max_dev = 0.0
        rms = float(np.sqrt(np.mean(deviation**2))) if deviation.size else 0.0
        return cls(
            center_freqs=np.asarray(center_freqs, dtype=np.float64),
            primary_db=np.asarray(primary_db, dtype=np.float64),
            fill_db=np.asarray(fill_db, dtype=np.float64),
            total_db=np.asarray(total_db, dtype=np.float64),
            target_db=np.asarray(target_db, dtype=np.float64),
            deviation_db=deviation,
            max_abs_deviation_filled_bands_db=max_dev,
            rms_deviation_db=rms,
            unfilled_band_count=int(np.count_nonzero(~filled)),
        )


def simulate_total(design: EqualisationDesign, rirs: RirSet) -> tuple:
    """Push one impulse through both channels' proposed-mode chains and
    return the (left, right) reports. For each side, convolve the front
    path with the (balanced) primary response and the supporting path with
    the support response, sum coherently and tabulate band energies
    against the channel's anchored target. Each rendered row comes from
    its own side alone, and the convolutions and the sum are products and
    sums of spectra from pipeline.room_meter, as in the design's solves.

    The front feed is untouched by design, so the primary balance trim is
    applied on the acoustic side; the supporting feed already carries its
    trim digitally.
    """
    if rirs.sample_rate != design.sample_rate:
        raise ContractError(
            "fixture rate %d does not match design rate %d"
            % (rirs.sample_rate, design.sample_rate)
        )

    rows = render(AudioBuffer(np.ones((2, 1)), design.sample_rate), design, "proposed")
    spec = design.spec
    meter = room_meter(spec, rirs, design.chain)
    reports = []
    for i, channel in enumerate(("left", "right")):
        front, rear = rows.samples[i], rows.samples[2 + i]
        trim = design.balance_gains["primary_" + channel]
        primary, support = (getattr(rirs, kind + channel).data for kind in ("primary_", "support_"))
        primary = meter.spectrum(front) * meter.spectrum(primary * trim)
        fill = meter.spectrum(rear) * meter.spectrum(support)
        solve = getattr(design.gains, channel)
        _, targets = _anchored_targets(design.target, spec, solve.offset_db)
        reports.append(VerificationReport.build(
            center_freqs=np.array(spec.center_freqs),
            primary_db=_profile_db(meter.energies(primary)),
            fill_db=_profile_db(meter.energies(fill)),
            total_db=_profile_db(meter.energies(primary + fill)),
            target_db=_profile_db(targets),
            filled=solve.gains > 0,
        ))
    return tuple(reports)


def export_report(report: VerificationReport, path) -> None:
    """Write the report as CSV: pinned header, one row per band, three
    trailing comment lines with the summary figures."""
    table = np.column_stack([
        report.center_freqs, report.primary_db, report.fill_db,
        report.total_db, report.target_db, report.deviation_db,
    ])
    footer = (
        "# max_abs_deviation_filled_bands_db = %.6g\n# rms_deviation_db = %.6g\n"
        "# unfilled_band_count = %d"
        % (report.max_abs_deviation_filled_bands_db, report.rms_deviation_db,
           report.unfilled_band_count)
    )
    np.savetxt(path, table, fmt="%.6g", delimiter=",", header=REPORT_HEADER,
               footer=footer, comments="")
