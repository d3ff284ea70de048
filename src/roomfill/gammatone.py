"""Complex one-pole gammatone filterbank: analysis, resynthesis, band energies.

Each band is a cascade of ORDER = 4 identical complex one-pole sections
with pole a = lambda * exp(i*2*pi*f_c/f_s). The cascade is peak-normalised
to unity gain at f_c. Resynthesis delays, phase-rotates and weights the band
signals so their summed real parts reconstruct a broadband impulse with a
flat magnitude response. Band energies come from the cascade's closed-form
response by Parseval, and the resynthesis design from its closed-form
impulse response and spectrum, without running the filters.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .audio import AudioBuffer, ImpulseResponse, _next_fast_len
from .errors import ContractError

#: Sections per band: a 4th-order gammatone (Hohmann 2002).
ORDER = 4

# Glasberg & Moore equivalent rectangular bandwidth constants.
_ERB_SCALE = 24.7
_ERB_RATE = 4.37  # per kHz

#: Common latency the resynthesis aligns band envelopes to, seconds.
ALIGN_LATENCY_S = 0.004

#: DFT length (points) whose bins the resynthesis fit reads, and the length
#: of the unit impulse whose band energies are the reference energies.
DESIGN_LEN = 16384

#: Length of the FIR built by band_gain_eq; ~85 ms at 48 kHz, long enough
#: for the lowest band's ringing to decay well below the energy tolerances.
#: It is also as many samples of the impulse bands as the resynthesis fit
#: builds.
EQ_IR_LEN = 4096


def erb_of(freq_hz: float) -> float:
    """Equivalent rectangular bandwidth in Hz at a given centre frequency."""
    if freq_hz <= 0:
        raise ContractError("frequency must be positive")
    return _ERB_SCALE * (_ERB_RATE * freq_hz / 1000.0 + 1.0)


def erb_number(freq_hz: float) -> float:
    """Position of freq_hz on the ERB-number scale.

    This is the exact antiderivative of df / erb_of(f), so uniform steps
    on this scale are uniform in units of local bandwidth.
    """
    if freq_hz <= 0:
        raise ContractError("frequency must be positive")
    c = 1000.0 / (_ERB_SCALE * _ERB_RATE)
    return c * math.log1p(_ERB_RATE * freq_hz / 1000.0)


def erb_number_inverse(n: float) -> float:
    c = 1000.0 / (_ERB_SCALE * _ERB_RATE)
    return math.expm1(n / c) * 1000.0 / _ERB_RATE


#: Decay-rate multiplier that makes a cascade's rectangular bandwidth equal
#: the nominal bandwidth. For an order-n gammatone the equivalent
#: rectangular bandwidth is pi*(2n-2)! * 2**-(2n-2) / ((n-1)!)**2 times the
#: decay parameter, so the multiplier is the reciprocal of that; 3.2/pi at
#: ORDER.
_BANDWIDTH_FACTOR = 1.0 / (
    math.pi
    * math.factorial(2 * ORDER - 2)
    * 2.0 ** -(2 * ORDER - 2)
    / math.factorial(ORDER - 1) ** 2
)


def check_bank(f_low: float, f_high: float) -> None:
    """ContractError unless FilterbankSpec can lay out this bank at any
    rate whose Nyquist frequency lies above f_high: finite values and
    0 < f_low <= f_high."""
    for name, value in (("f_low", f_low), ("f_high", f_high)):
        if not math.isfinite(value):
            raise ContractError("%s must be finite, got %r" % (name, value))
    if f_low <= 0 or f_high < f_low:
        raise ContractError("need 0 < f_low <= f_high")


@dataclass(frozen=True)
class FilterbankSpec:
    """Frozen description of one analysis/resynthesis bank: its parameters
    and the band layout they determine. Band centres sit one ERB apart
    (unit steps on the ERB-number scale) from f_low up to and including
    f_high (one band if they are equal), each band as wide as the ERB at
    its centre. The parameters must pass check_bank, sample_rate must be
    a whole number of Hz, and f_high must lie below the Nyquist frequency
    (so sample_rate is positive).
    """

    sample_rate: int
    f_low: float
    f_high: float
    center_freqs: tuple = field(init=False)
    bandwidths: tuple = field(init=False)

    def __post_init__(self):
        check_bank(self.f_low, self.f_high)
        rate = self.sample_rate
        if not math.isfinite(rate) or rate != int(rate):
            raise ContractError("sample_rate must be a whole number of Hz, got %r" % (rate,))
        for name, kind in (("sample_rate", int), ("f_low", float), ("f_high", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if self.f_high >= self.sample_rate / 2:
            raise ContractError(
                "f_high %g Hz must be below the Nyquist frequency, %g Hz at %d Hz"
                % (self.f_high, self.sample_rate / 2, self.sample_rate)
            )
        # One band per ERB. Sparser banks do not sum flat: the unity EQ
        # strays 0.79 dB from flat at 0.9 bands per ERB and 5.0 dB at 0.5.
        # Denser ones overlap more: the resynthesis fit's gains turn negative
        # at 3-4 bands per ERB, and at 2 most solves on a notched room hit
        # the iteration cap.
        lo = erb_number(self.f_low)
        count = int(math.floor(erb_number(self.f_high) - lo + 1e-9)) + 1
        centers = [erb_number_inverse(lo + k) for k in range(count)]
        centers[0] = self.f_low  # exact endpoints, no round-trip noise
        if count > 1 and abs(centers[-1] - self.f_high) < 1e-6 * self.f_high:
            centers[-1] = self.f_high
        object.__setattr__(self, "center_freqs", tuple(centers))
        object.__setattr__(self, "bandwidths", tuple(erb_of(f) for f in centers))

    @property
    def num_bands(self) -> int:
        return len(self.center_freqs)


make_spec = FilterbankSpec


def _pole_coefficients(spec: FilterbankSpec):
    """Per-band pole radius lam and angle theta (the pole is
    lam * exp(i*theta)) and the peak-normalisation factor."""
    fc = np.asarray(spec.center_freqs)
    bw = np.asarray(spec.bandwidths)
    lam = np.exp(-2.0 * math.pi * _BANDWIDTH_FACTOR * bw / spec.sample_rate)
    theta = 2.0 * math.pi * fc / spec.sample_rate
    norm = (1.0 - lam) ** ORDER
    return lam, theta, norm


def _poles(spec: FilterbankSpec):
    """Per-band complex pole, rounded once, and the peak-normalisation
    factor: what analyze filters with."""
    lam, theta, norm = _pole_coefficients(spec)
    return lam * np.exp(1j * theta), norm


def analyze(buffer: AudioBuffer, spec: FilterbankSpec) -> np.ndarray:
    """Split a mono buffer of n samples into complex band signals, (num_bands, n).

    This is the time-domain filterbank. Band energies and the impulse
    bands of the resynthesis design are computed in closed form instead
    (see band_energies and _impulse_bands); this stays their reference.
    It runs scipy.signal.lfilter, so it needs the [test] extra; no
    command calls it.
    """
    from scipy.signal import lfilter

    if buffer.sample_rate != spec.sample_rate:
        raise ContractError("buffer/spec sample rate mismatch")
    x = buffer.mono.astype(np.complex128)
    poles, norm = _poles(spec)
    out = np.empty((spec.num_bands, x.size), dtype=np.complex128)
    for b in range(spec.num_bands):
        y = x
        den = np.array([1.0, -poles[b]])
        for _ in range(ORDER):
            y = lfilter([1.0], den, y)
        out[b] = y * norm[b]
    return out


def _impulse_bands(spec: FilterbankSpec, n: int) -> np.ndarray:
    """analyze of an n-sample unit impulse, in closed form.

    A cascade of ORDER sections norm**(1/ORDER) / (1 - p z^-1) has the
    impulse response norm * C(t + ORDER - 1, ORDER - 1) * p**t (Hohmann
    2002). p is the pole as analyze rounds it, so the two agree to a few
    ulps of each band's peak; with the exact pole they would drift apart
    by t ulps. Each sample depends on t alone, so the first k samples for
    any n are the same numbers.
    """
    poles, norm = _poles(spec)
    t = np.arange(n, dtype=np.float64)
    binom = np.ones(n)
    for j in range(1, ORDER):
        binom = binom * (t + j) / j
    return (norm[:, None] * binom) * np.exp(np.log(poles)[:, None] * t)


def _refined_lstsq(a: np.ndarray, b: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Least-squares solution of a x = b for a tall, well-conditioned a:
    the normal equations plus one step of iterative refinement (Bjorck
    1996, section 2.9). The step takes the normal equations' error from
    about cond(a)**2 ulps down to the cond(a) ulps an SVD solve reaches.
    gram is a.T @ a, passed in so that right-hand sides that share a
    share it.
    """
    x = np.linalg.solve(gram, a.T @ b)
    x += np.linalg.solve(gram, a.T @ (b - a @ x))
    return x


def _add_band(out: np.ndarray, band: np.ndarray, delay: int, phase: float, gain: float) -> None:
    """Add one band's share of the resynthesis to out: the complex band
    signal delayed by `delay` samples (zero fill, same length), rotated by
    `phase`, weighted by `gain`, real part. A band signal no longer than
    its delay adds nothing."""
    kept = band[: max(band.size - delay, 0)]
    out[delay:] += gain * (kept * np.exp(1j * phase)).real


def _fit_grid(spec: FilterbankSpec):
    """The DESIGN_LEN-point DFT bins the resynthesis fit reads: one
    crossover bin per pair of adjacent bands (the ERB-scale midpoint of
    their centres), the magnitude-fit bins (slightly wider than the
    guaranteed-flat region) and the fit's base weight per fit bin."""
    fs = spec.sample_rate
    freqs = np.fft.rfftfreq(DESIGN_LEN, 1.0 / fs)
    centers = np.asarray(spec.center_freqs)
    mids = [
        erb_number_inverse(0.5 * (erb_number(lo) + erb_number(hi)))
        for lo, hi in zip(centers[:-1], centers[1:])
    ]
    cross_bins = np.clip(
        np.round(np.array(mids) / (fs / DESIGN_LEN)).astype(int), 0, freqs.size - 1
    )
    fit_lo = 1.125 * spec.f_low
    fit_hi = 0.9 * spec.f_high
    if fit_hi <= fit_lo:
        fit_lo = 0.8 * centers[0]
        fit_hi = min(1.25 * centers[-1], 0.49 * fs)
    fit_bins = np.flatnonzero((freqs >= fit_lo) & (freqs <= fit_hi))
    if fit_bins.size == 0:
        fit_bins = np.array([np.argmin(np.abs(freqs - centers[0]))])
    f = np.maximum(freqs[fit_bins], 1.0)
    base_w = 1.0 / np.sqrt(_ERB_SCALE * (_ERB_RATE * f / 1000.0 + 1.0))
    return cross_bins, fit_bins, base_w


@lru_cache(maxsize=1)
def _dft_roots() -> np.ndarray:
    """exp(-2 pi i k / DESIGN_LEN) for k = 0 .. DESIGN_LEN - 1."""
    return np.exp(-2j * math.pi / DESIGN_LEN * np.arange(DESIGN_LEN))


def _dft_phasors(bins: np.ndarray, delays) -> np.ndarray:
    """exp(-2 pi i bin d / DESIGN_LEN) per delay d (rows) and bin, the
    product reduced modulo DESIGN_LEN first so the angle stays exact."""
    return _dft_roots()[(np.asarray(delays)[:, None] * bins) % DESIGN_LEN]


def _band_spectra(spec: FilterbankSpec, bins: np.ndarray) -> np.ndarray:
    """DESIGN_LEN-point DFT of each undelayed impulse band at the given
    bins, in closed form: norm / (1 - p e^{-iw})**ORDER at
    w = 2 pi bin / DESIGN_LEN, with p the pole as _poles rounds it (and
    _impulse_bands uses). That is the band's whole spectrum; an FFT of a
    DESIGN_LEN window equals it once the band has rung out inside the
    window, and a delay d multiplies it by _dft_phasors(bins, [d])."""
    poles, norm = _poles(spec)
    den = 1.0 - poles[:, None] * _dft_phasors(bins, [1])
    power = den
    for _ in range(ORDER - 1):
        power = power * den
    return norm[:, None] / power


#: What _synthesis_design computes once per spec; see there.
_SynthesisDesign = namedtuple(
    "_SynthesisDesign", "delays phases gains latency impulse_energies eq_basis"
)


@lru_cache(maxsize=16)
def _synthesis_design(spec: FilterbankSpec) -> _SynthesisDesign:
    """Per-band delay, phase and gain for resynthesis, the design's group
    delay in samples, the band energies of a unit impulse, and the EQ
    basis: row k is the EQ_IR_LEN-tap resynthesis of a unit impulse's
    band k alone, so band_gain_eq(g) is g @ eq_basis. Computed once per
    spec.

    Delays pull each band's envelope maximum toward a common 4 ms
    latency; bands whose intrinsic peak falls later stay undelayed.
    Relative phases are chained so adjacent bands add coherently at the
    ERB-scale crossover frequencies, which is what makes the summed
    magnitude flat (a linear-phase target is unreachable for the
    undelayable low bands, but only the magnitude matters). Gains come
    from an iteratively reweighted least-squares fit of |summed response|
    to unity on the DESIGN_LEN-point DFT bins of _fit_grid. The delayed
    bands are then shifted by the latency miss and refitted, at most 5
    times, until the reconstruction peak lands on the 4 ms sample itself.
    On some banks the shifts cycle, so the search stops before it would
    rebuild a delay set already built, and it keeps the build whose
    latency lies nearest the 4 ms sample (the earliest on ties).

    The fit reads only those bins of the band spectra, so it takes them
    in closed form (_band_spectra), and only the first EQ_IR_LEN samples
    of the impulse bands. A band's envelope rises to its peak and then
    decays, so a prefix that holds the 4 ms sample finds every peak that
    sets a delay.
    """
    n_bands = spec.num_bands
    target_latency = int(round(ALIGN_LATENCY_S * spec.sample_rate))
    bands = _impulse_bands(spec, max(EQ_IR_LEN, target_latency + 1))
    peaks = np.argmax(np.abs(bands), axis=1)
    delays = np.maximum(0, target_latency - peaks).astype(int)

    cross_bins, fit_bins, base_w = _fit_grid(spec)
    fit_spectra = _band_spectra(spec, fit_bins)
    cross_spectra = _band_spectra(spec, cross_bins)
    pairs = np.arange(n_bands - 1)

    def resynthesis(cur_delays, phases, gains):
        rows = np.zeros(bands.shape)  # row b: band b's share of an impulse's resynthesis
        for b, d in enumerate(cur_delays):
            _add_band(rows[b], bands[b], d, phases[b], gains[b])
        return rows

    def build(cur_delays):
        cross = cross_spectra * _dft_phasors(cross_bins, cur_delays)
        angles = np.angle(cross)
        first = target_latency - cur_delays[0]
        steps = angles[pairs, pairs] - angles[pairs + 1, pairs]
        phase0 = -np.angle(bands[0, first]) if first >= 0 else 0.0
        phases = np.cumsum(np.concatenate([[phase0], steps]))

        # real-part synthesis response ~ half the analytic sum; the real
        # and imaginary parts of bin j's response are columns j and
        # j + len(fit_bins), so a weight scales along each row
        rotated = fit_spectra * _dft_phasors(fit_bins, cur_delays)
        rotated *= 0.5 * np.exp(1j * phases)[:, None]
        a_t = np.concatenate([rotated.real, rotated.imag], axis=1)
        gains = np.ones(n_bands)
        w = base_w
        scaled = a_t * np.concatenate([w, w])
        gram = scaled @ scaled.T  # steps 0-3 keep the base weights
        for k in range(16):
            re, im = np.split(gains @ a_t, 2)
            mag = np.hypot(re, im)
            if k > 3:
                mag_err = np.abs(mag - 1.0)
                w = base_w * (1.0 + 4.0 * mag_err / max(mag_err.max(), 1e-12))
                scaled = a_t * np.concatenate([w, w])
                gram = scaled @ scaled.T
            scale = w / np.maximum(mag, 1e-12)
            gains = _refined_lstsq(scaled.T, np.concatenate([re * scale, im * scale]), gram)
        resynth = resynthesis(cur_delays, phases, gains)
        return cur_delays, phases, gains, int(np.argmax(np.abs(resynth.sum(axis=0))))

    builds = []  # (delays, phases, gains, latency) per delay set built
    for _ in range(6):  # the first build and at most 5 shifts
        builds.append(build(delays))
        miss = builds[-1][3] - target_latency
        movable = delays > 0
        if miss == 0 or not np.any(movable):
            break
        delays = np.where(movable, np.maximum(0, delays - miss), delays)
        if any(np.array_equal(delays, built[0]) for built in builds):
            break  # the shifts cycle
    delays, phases, gains, latency = min(
        builds, key=lambda built: abs(built[3] - target_latency)
    )

    imp = np.zeros(DESIGN_LEN)
    imp[0] = 1.0
    impulse_energies = _band_energies_array(imp, spec)
    eq_basis = resynthesis(delays, phases, gains)[:, :EQ_IR_LEN]
    for arr in (delays, phases, gains, impulse_energies, eq_basis):
        arr.setflags(write=False)
    return _SynthesisDesign(delays, phases, gains, latency, impulse_energies, eq_basis)


def synthesis_latency(spec: FilterbankSpec) -> int:
    """Group delay of the resynthesis chain in samples: where the
    reconstruction of a unit impulse peaks (the 4 ms alignment sample for
    workable specs)."""
    return _synthesis_design(spec).latency


def synthesize(bands: np.ndarray, spec: FilterbankSpec) -> AudioBuffer:
    """Collapse the (num_bands, n) band signals of bank spec to one channel.

    Applies the per-spec alignment delays, phase rotations and gain
    weights, then sums real parts. Output length equals input length.
    """
    if bands.ndim != 2 or bands.shape[0] != spec.num_bands:
        raise ContractError("band signals must be (%d, n)" % spec.num_bands)
    design = _synthesis_design(spec)
    out = np.zeros(bands.shape[1])
    for b in range(spec.num_bands):
        _add_band(out, bands[b], design.delays[b], design.phases[b], design.gains[b])
    return AudioBuffer(out, spec.sample_rate)


def _check_rate(ir: ImpulseResponse, spec: FilterbankSpec) -> None:
    """Refuse a response at another rate than the bank's: its band
    energies would be plausible numbers for the wrong frequencies."""
    if ir.sample_rate != spec.sample_rate:
        raise ContractError(
            "response sample rate %d does not match the filterbank's (%d)"
            % (ir.sample_rate, spec.sample_rate)
        )


def band_energies(ir: ImpulseResponse, spec: FilterbankSpec) -> np.ndarray:
    """Per-band energy (sum of squared magnitude) of an impulse response,
    including the bank's ringing past its last sample."""
    _check_rate(ir, spec)
    return _band_energies_array(ir.data, spec)


def _gamma_upper_quantile(a: int, q: float) -> float:
    """The x at which a gamma density of integer shape a >= 1 leaves
    q < 1 of its mass above x: Q(a, x) = q, as
    scipy.special.gammainccinv(a, q) gives.

    For integer a, Q(a, x) = exp(-x) * s(x) with s(x) = sum_{k<a} x**k/k!,
    so log Q has slope -(x**(a-1)/(a-1)!) / s(x). log Q is concave, so
    Newton from x0 = a - ln q lands right of the root after one step and
    then falls to it monotonically.
    """
    log_q = math.log(q)
    x = a - log_q
    for _ in range(100):
        terms = [1.0]
        for k in range(1, a):
            terms.append(terms[-1] * x / k)
        s = math.fsum(terms)
        step = (math.log(s) - x - log_q) * s / terms[-1]
        x += step
        if abs(step) <= 1e-15 * x:
            break
    return x


def _ring_length(spec: FilterbankSpec, q: float) -> int:
    """Samples after which the slowest band's impulse response keeps less
    than q of its energy.

    The squared envelope n**(2*ORDER-2) * lam**(2n) of a cascade is a
    gamma density, so the length is its upper quantile
    (_gamma_upper_quantile) over the decay rate.
    """
    lam = _pole_coefficients(spec)[0]
    rate = -2.0 * math.log(float(lam.max()))
    return math.ceil(_gamma_upper_quantile(2 * ORDER - 1, q) / rate)


def _ring_tail(spec: FilterbankSpec) -> int:
    """Samples of zero padding after a signal that let the slowest band
    ring out: less than 1e-30 of its energy lies beyond them, so what
    wraps around a Parseval FFT stays below 1e-15 relative. 9254 samples
    at 44.1 kHz and 10073 at 48 kHz for an 80 Hz lowest band; a lower
    band or a higher rate needs more.
    """
    return _ring_length(spec, 1e-30)


#: Share of the slowest band's impulse energy a response may leave past
#: its end; see min_response_length.
RESPONSE_TAIL_Q = 1e-3


def min_response_length(spec: FilterbankSpec) -> int:
    """Fewest samples a measured response needs on this bank: as many as
    the slowest band takes to ring down to RESPONSE_TAIL_Q of its impulse
    energy (2032 samples, 42.3 ms, for the default bank at 48 kHz). A
    shorter response measures that band's own ringing, not the room."""
    return _ring_length(spec, RESPONSE_TAIL_Q)


#: The two halves of a band-energy meter, its FFT length m and the longest
#: signal n it fits; see _band_energy_meter.
_Meter = namedtuple("_Meter", "spectrum energies size n")


def _meter_weights(spec: FilterbankSpec, m: int) -> np.ndarray:
    """The (num_bands, m // 2 + 1) weights of an m-point meter: per rfft
    bin, |H_k(f)|**2 + |H_k(-f)|**2 over m, with DC and Nyquist halved
    (see _band_energy_meter)."""
    lam, theta, norm = _pole_coefficients(spec)
    half_w = math.pi * np.arange(m // 2 + 1) / m
    sin_w, cos_w = np.sin(half_w), np.cos(half_w)
    weights = np.empty((spec.num_bands, half_w.size))
    a, b, den = np.empty_like(half_w), np.empty_like(half_w), np.empty_like(half_w)
    for k in range(spec.num_bands):
        # |1 - lam e^{id}|**2 = (1 - lam)**2 + 4 lam sin(d/2)**2 has no
        # cancellation near the pole, unlike 1 + lam**2 - 2 lam cos(d).
        # For d = w - theta (positive f) and w + theta (negative f) the
        # half-angle sines come from the angle-sum identity. Its power
        # -ORDER is two squarings and one reciprocal: a fraction of the
        # cost of a power, and the reciprocal taken last rounds fewer
        # times than squaring it.
        np.multiply(sin_w, math.cos(0.5 * theta[k]), out=a)
        np.multiply(cos_w, math.sin(0.5 * theta[k]), out=b)
        for sign, out in ((np.subtract, weights[k]), (np.add, a)):
            sign(a, b, out=den)
            den *= den
            den *= 4.0 * lam[k]
            den += (1.0 - lam[k]) ** 2
            den *= den
            den *= den
            np.reciprocal(den, out=out)
        weights[k] += a
        weights[k] *= norm[k] ** 2 / m
    weights[:, 0] *= 0.5
    if m % 2 == 0:
        weights[:, -1] *= 0.5
    return weights


def _band_energy_meter(spec: FilterbankSpec, n: int) -> _Meter:
    """Return a meter for real signals x of at most n samples:
    meter.spectrum(x) is their m-point rfft (n = meter.n; m = meter.size,
    the next fast length past n + _ring_tail(spec)) and meter.energies of
    that is the band energies analyze gives for x zero-padded by
    _ring_tail(spec) (to rounding), without running the filterbank.

    Band k is norm_k / (1 - p_k z^-1)**ORDER, so by Parseval its energy
    is sum_f |H_k(f)|**2 |X(f)|**2 / m over an m-point FFT of the padded
    signal. The filters are complex, so |H_k(f)|**2 and |H_k(-f)|**2 are
    folded onto the rfft bins (DC and Nyquist once). Zero padding leaves
    a Parseval energy unchanged, so a meter gives the same energies (to
    rounding) for every n it is sized for; the weights live as long as
    the meter. As m exceeds n, a product of spectra is the spectrum of a
    linear convolution of at most n samples, so chains need no convolving.
    """
    m = _next_fast_len(n + _ring_tail(spec))
    weights = _meter_weights(spec, m)

    def spectrum(x: np.ndarray) -> np.ndarray:
        if x.size > n:
            raise ContractError(
                "signal of %d samples exceeds the meter's %d" % (x.size, n)
            )
        return np.fft.rfft(x, m)

    def energies(spectrum: np.ndarray) -> np.ndarray:
        return weights @ (spectrum.real ** 2 + spectrum.imag ** 2)

    return _Meter(spectrum, energies, m, n)


def _band_energies_array(x: np.ndarray, spec: FilterbankSpec) -> np.ndarray:
    meter = _band_energy_meter(spec, x.size)
    return meter.energies(meter.spectrum(x))


def impulse_band_energies(spec: FilterbankSpec) -> np.ndarray:
    """Band energies of a unit impulse: the reference vector that anchors
    absolute target levels."""
    return _synthesis_design(spec).impulse_energies.copy()


def band_gain_eq(gains, spec: FilterbankSpec) -> ImpulseResponse:
    """FIR equaliser (EQ_IR_LEN taps) that weights each band of the bank
    by a linear gain.

    The EQ is the resynthesis of a unit impulse's bands, each scaled by
    its gain. That is linear in the gains, so it is g @ eq_basis, the
    per-spec basis of one-band EQs (see _synthesis_design); synthesize
    stays the reference. Unity gains reproduce the bank's flat
    reconstruction, a delayed near-delta at the alignment latency.
    """
    g = np.asarray(gains, dtype=np.float64)
    if g.shape != (spec.num_bands,):
        raise ContractError(
            "need %d gains, got shape %s" % (spec.num_bands, g.shape)
        )
    if np.any(g < 0):
        raise ContractError("band gains must be >= 0")
    eq = g @ _synthesis_design(spec).eq_basis
    return ImpulseResponse(AudioBuffer(eq, spec.sample_rate))
