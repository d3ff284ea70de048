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
from .render import EqualisationDesign, render
from .solver import _anchored_targets, _chain_meter, _profile_db

__all__ = [
    "SyntheticRirParams",
    "VerificationReport",
    "synth_rir",
    "simulate_total",
    "export_report",
    "TAIL_LEVEL",
    "REPORT_HEADER",
]

#: Noise-tail RMS just after the direct sound, relative to the direct
#: amplitude. Pinned so fixture band profiles are reproducible.
TAIL_LEVEL = 0.1

# 60 dB of amplitude decay: ln(10**3), the -6.9078 exponent reached at t60
_DECAY = 6.907755278982137

REPORT_HEADER = "f_c_hz,primary_db,fill_db,total_db,target_db,deviation_db"

_COLORATION_KINDS = ("none", "notch", "lowpass")


@dataclass(frozen=True)
class SyntheticRirParams:
    """Recipe for a synthetic impulse response.

    coloration is a tuple: ("none",), ("notch", f0_hz, depth_db, q) or
    ("lowpass", fc_hz).
    """

    sample_rate: int
    length_ms: float
    t60_ms: float
    direct_amplitude: float = 1.0
    direct_delay_ms: float = 0.0
    coloration: tuple = ("none",)
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
        kind = self.coloration[0] if self.coloration else None
        if kind not in _COLORATION_KINDS:
            raise ContractError("coloration kind must be one of %s" % (_COLORATION_KINDS,))
        if kind == "notch" and len(self.coloration) != 4:
            raise ContractError("notch coloration needs (f0, depth_db, q)")
        if kind == "lowpass" and len(self.coloration) != 2:
            raise ContractError("lowpass coloration needs a cutoff frequency")
        if kind == "none" and len(self.coloration) != 1:
            raise ContractError("coloration 'none' takes no parameters")
        if not all(map(math.isfinite, self.coloration[1:])):
            raise ContractError("coloration parameters must be finite")
        if self.length_ms < 3.0 * self.t60_ms:
            warnings.warn(
                "fixture length %.0f ms is under 3x t60 (%.0f ms); the decay "
                "tail will be truncated" % (self.length_ms, self.t60_ms)
            )

    def coloration_summary(self) -> str:
        kind = self.coloration[0]
        if kind == "notch":
            return "notch %.6g Hz, depth %.6g dB, q %.6g" % self.coloration[1:]
        if kind == "lowpass":
            return "lowpass %.6g Hz" % self.coloration[1]
        return "none"


def _peaking_cut(f0: float, depth_db: float, q: float, rate: int):
    # biquad peaking EQ with negative gain; exact -depth_db at f0
    a_lin = 10.0 ** (-depth_db / 40.0)
    w = 2.0 * math.pi * f0 / rate
    alpha = math.sin(w) / (2.0 * q)
    b = np.array([1.0 + alpha * a_lin, -2.0 * math.cos(w), 1.0 - alpha * a_lin])
    a = np.array([1.0 + alpha / a_lin, -2.0 * math.cos(w), 1.0 - alpha / a_lin])
    return b / a[0], a / a[0]


def _lowpass(fc: float, rate: int):
    # 2nd-order Butterworth (biquad with q = 1/sqrt(2))
    w = 2.0 * math.pi * fc / rate
    alpha = math.sin(w) / math.sqrt(2.0)
    cw = math.cos(w)
    b = np.array([(1.0 - cw) / 2.0, 1.0 - cw, (1.0 - cw) / 2.0])
    a = np.array([1.0 + alpha, -2.0 * cw, 1.0 - alpha])
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
    thing shaped by the coloration filter. Deterministic per seed.
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

    kind = params.coloration[0]
    if kind == "notch":
        b, a = _peaking_cut(*params.coloration[1:], rate=rate)
        ir = _biquad(b, a, ir)
    elif kind == "lowpass":
        b, a = _lowpass(params.coloration[1], rate=rate)
        ir = _biquad(b, a, ir)

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

    @property
    def num_bands(self) -> int:
        return self.center_freqs.size


def simulate_total(
    design: EqualisationDesign, rirs: RirSet, channel: str, *, meters: dict = None
) -> VerificationReport:
    """Push an impulse through one channel's proposed-mode chain, convolve
    the front path with the (balanced) primary response and the supporting
    path with the support response, sum coherently and tabulate band
    energies against the channel's anchored target. The convolutions and
    the sum are taken as products and sums of spectra.

    The front feed is untouched by design, so the primary balance trim is
    applied on the acoustic side; the supporting feed already carries its
    trim digitally.

    `meters` maps a size to the band-energy meter built for it on the
    design's spec. Simulations of both channels can share it: the
    smallest meter in it that fits the total is taken, and one is built
    and added only when none fits (see solver._chain_meter). Without it
    the simulation builds its own.
    """
    if channel not in ("left", "right"):
        raise ContractError("channel must be 'left' or 'right'")
    if rirs.sample_rate != design.sample_rate:
        raise ContractError(
            "fixture rate %d does not match design rate %d"
            % (rirs.sample_rate, design.sample_rate)
        )

    i = ("left", "right").index(channel)
    imp = np.zeros((2, 1))
    imp[i, 0] = 1.0
    rendered = render(AudioBuffer(imp, design.sample_rate), design, "proposed")
    front, rear = rendered.buffer.samples[i], rendered.buffer.samples[2 + i]
    trim = design.balance_gains["primary_" + channel]
    primary = getattr(rirs, "primary_" + channel).data * trim
    support = getattr(rirs, "support_" + channel).data
    solve = getattr(design.gains, channel)

    spec = design.spec
    # the rows already carry the EQ: the meter need only fit the total
    n = front.size + max(primary.size, support.size) - 1
    meter = _chain_meter(spec, n, 0, meters)
    primary_path = meter.spectrum(front) * meter.spectrum(primary)
    fill_path = meter.spectrum(rear) * meter.spectrum(support)
    e_primary = meter.energies(primary_path)
    e_fill = meter.energies(fill_path)
    e_total = meter.energies(primary_path + fill_path)
    _, targets = _anchored_targets(design.target, spec, solve.offset_db)

    return VerificationReport.build(
        center_freqs=np.array(spec.center_freqs),
        primary_db=_profile_db(e_primary),
        fill_db=_profile_db(e_fill),
        total_db=_profile_db(e_total),
        target_db=_profile_db(targets),
        filled=solve.gains > 0,
    )


def export_report(report: VerificationReport, path) -> None:
    """Write the report as CSV: pinned header, one row per band, three
    trailing comment lines with the summary figures."""
    lines = [REPORT_HEADER]
    for i in range(report.num_bands):
        lines.append(
            ",".join(
                "%.6g" % v
                for v in (
                    report.center_freqs[i],
                    report.primary_db[i],
                    report.fill_db[i],
                    report.total_db[i],
                    report.target_db[i],
                    report.deviation_db[i],
                )
            )
        )
    lines.append(
        "# max_abs_deviation_filled_bands_db = %.6g"
        % report.max_abs_deviation_filled_bands_db
    )
    lines.append("# rms_deviation_db = %.6g" % report.rms_deviation_db)
    lines.append("# unfilled_band_count = %d" % report.unfilled_band_count)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

