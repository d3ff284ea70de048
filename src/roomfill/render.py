"""Supporting-channel processing chain and the four playback conditions.

The proposed chain per side is band-gain EQ, all-pass decorrelation and a
bulk delay inside the precedence-effect window, feeding the supporting
loudspeaker while the front channels pass through untouched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, OverlapAdd
from .errors import ContractError
from .gammatone import FilterbankSpec, band_gain_eq, synthesis_latency
from .rirs import CHANNEL_NAMES
from .solver import BandGainSet
from .target import TargetFunction

__all__ = [
    "DecorrelatorFilter",
    "EqualisationDesign",
    "RenderResult",
    "RenderStream",
    "SupportChain",
    "design_decorrelator",
    "render",
    "DELAY_RANGE_MS",
    "DEFAULT_DELAY_MS",
    "DEFAULT_DECORRELATOR_LEN",
    "DEFAULT_SEED_LEFT",
    "DEFAULT_SEED_RIGHT",
    "RENDER_MODES",
]

#: Precedence-effect window: a supporting source delayed by this much
#: relative to the primary is localised to the primary.
DELAY_RANGE_MS = (2.0, 50.0)
DEFAULT_DELAY_MS = 10.0

DEFAULT_DECORRELATOR_LEN = 1024

# The decorrelator seeds every design plays, pinned after a numeric search
# so the pair meets the cross-correlation and latency-metadata contracts
# with margin (see tests).
DEFAULT_SEED_LEFT = 5240
DEFAULT_SEED_RIGHT = 12002

RENDER_MODES = ("proposed", "stereo", "rear_stereo", "front_eq")

_OUTPUT_CHANNELS = ("FL", "FR", "SL", "SR")


@dataclass
class DecorrelatorFilter:
    """Random-phase all-pass FIR: unit magnitude at every design bin."""

    taps: np.ndarray

    @property
    def group_delay_centroid(self) -> float:
        """Energy centroid of the taps, the filter's mean group delay."""
        h2 = self.taps * self.taps
        return float(np.dot(np.arange(self.taps.size), h2) / np.sum(h2))


def design_decorrelator(length: int, seed: int) -> DecorrelatorFilter:
    """Build an all-pass FIR by inverse-transforming unit-magnitude bins
    with seeded uniform random phase in (-pi, pi].

    DC and Nyquist stay at phase 0 so the taps are real. length must be a
    power of two >= 256.
    """
    if length < 256 or length & (length - 1):
        raise ContractError("decorrelator length must be a power of two >= 256")
    rng = np.random.default_rng(seed)
    # uniform() samples a half-open [lo, hi); negate for (-pi, pi]
    phases = -rng.uniform(-math.pi, math.pi, size=length // 2 - 1)
    spectrum = np.ones(length // 2 + 1, dtype=np.complex128)
    spectrum[1:-1] = np.exp(1j * phases)
    taps = np.fft.irfft(spectrum, n=length)
    return DecorrelatorFilter(taps=taps)


@dataclass(frozen=True)
class SupportChain:
    """The supporting path's one playback parameter: a bulk delay inside
    the precedence-effect window, rejected here if outside DELAY_RANGE_MS.
    Every chain plays the pinned decorrelator pair (DEFAULT_DECORRELATOR_LEN
    taps, seeds DEFAULT_SEED_LEFT and DEFAULT_SEED_RIGHT).
    """

    delay_ms: float = DEFAULT_DELAY_MS

    def __post_init__(self):
        lo, hi = DELAY_RANGE_MS
        if not lo <= self.delay_ms <= hi:
            raise ContractError(
                "delay_ms %.3f outside the precedence-effect window [%g, %g] ms"
                % (self.delay_ms, lo, hi)
            )

    def decorrelator(self, side: str) -> DecorrelatorFilter:
        seed = DEFAULT_SEED_LEFT if side == "left" else DEFAULT_SEED_RIGHT
        return design_decorrelator(DEFAULT_DECORRELATOR_LEN, seed)

    def delay_samples(self, sample_rate: int) -> int:
        """The bulk delay in whole samples. The solve, the renderer and the
        latency metadata all take it from here."""
        return int(round(self.delay_ms * sample_rate / 1000.0))


@dataclass
class EqualisationDesign:
    """Everything a render needs: the bank, both gain sets, chain
    parameters, balance gains and the target that was solved against."""

    spec: FilterbankSpec
    gains: BandGainSet
    front_gains: BandGainSet
    target: TargetFunction
    balance_gains: dict = field(default_factory=dict)
    chain: SupportChain = SupportChain()

    def __post_init__(self):
        if not self.balance_gains:
            self.balance_gains = dict.fromkeys(CHANNEL_NAMES, 1.0)

    @property
    def sample_rate(self) -> int:
        return self.spec.sample_rate

    def decorrelator(self, side: str) -> DecorrelatorFilter:
        return self.chain.decorrelator(side)

    def delay_samples(self) -> int:
        return self.chain.delay_samples(self.sample_rate)


@dataclass
class RenderResult:
    """4-channel output (FL, FR, SL, SR) plus per-channel chain latency."""

    buffer: AudioBuffer
    latency_samples: dict


def _support_chain_kernel(design: EqualisationDesign, side: str):
    eq = band_gain_eq(getattr(design.gains, side).gains, design.spec)
    return np.convolve(eq.data, design.decorrelator(side).taps)


def support_chain_latency(design: EqualisationDesign, side: str) -> int:
    """Nominal supporting-chain latency in samples: bulk delay plus EQ
    alignment delay plus the decorrelator's group-delay centroid."""
    centroid = design.decorrelator(side).group_delay_centroid
    return (
        design.delay_samples()
        + synthesis_latency(design.spec)
        + int(round(centroid))
    )


#: Frames per block of a mode that convolves nothing (stereo, rear_stereo).
_COPY_STEP = 1 << 15


class RenderStream:
    """One render of a stereo programme of `frames` frames, known in
    advance, to the 4-channel (FL, FR, SL, SR) condition, produced block
    by block so that no whole row is ever held.

    Every output channel is silent or carries one row built from the
    same-side input, and the output ends where the last non-empty row ends
    (0 frames for an empty input). stereo: the fronts carry the input,
    rears silent. rear_stereo: the rears carry copies of the fronts.
    proposed: the fronts carry the input bit-exact; each rear carries the
    input through EQ and decorrelation, trimmed by its balance gain, at the
    bulk delay. front_eq: the fronts carry the re-solved band EQ (times
    balance), rears silent.

    The input goes in as consecutive blocks of `step` frames (the last may
    be shorter): the convolution's own block, both sides through one
    OverlapAdd, or _COPY_STEP for a mode without a kernel. `frames_out` is
    the output length and `latency_samples` the per-channel chain latency.
    """

    def __init__(self, design: EqualisationDesign, mode: str, channels: int,
                 frames: int, sample_rate: int):
        if channels != 2:
            raise ContractError("render input must be 2-channel stereo")
        if sample_rate != design.sample_rate:
            raise ContractError(
                "input rate %d does not match design rate %d"
                % (sample_rate, design.sample_rate)
            )
        if mode not in RENDER_MODES:
            raise ContractError("mode must be one of %s" % (RENDER_MODES,))
        self.mode = mode
        self.latency_samples = dict.fromkeys(_OUTPUT_CHANNELS, 0)
        self._delay = 0
        self._ola = None
        kernels = None
        sides = ("left", "right")
        if mode == "front_eq":
            kernels = [
                band_gain_eq(getattr(design.front_gains, side).gains, design.spec).data
                for side in sides
            ]
            gains = [design.balance_gains["primary_" + side] for side in sides]
            for ch in _OUTPUT_CHANNELS[:2]:
                self.latency_samples[ch] = synthesis_latency(design.spec)
        elif mode == "proposed":
            kernels = [_support_chain_kernel(design, side) for side in sides]
            gains = [design.balance_gains["support_" + side] for side in sides]
            self._delay = design.delay_samples()
            for ch, side in zip(_OUTPUT_CHANNELS[2:], sides):
                self.latency_samples[ch] = support_chain_latency(design, side)
        self.frames_out = frames
        self.step = _COPY_STEP
        if kernels is not None:
            self._ola = OverlapAdd(np.array(kernels), frames)
            self._gains = np.array(gains)[:, np.newaxis]
            self.step = self._ola.step
            if frames:  # a row with no samples adds no frames, whatever its offset
                self.frames_out = self._delay + frames + len(kernels[0]) - 1
        self._line = np.zeros((2, self._delay))  # the rears' bulk delay

    def blocks(self, chunks):
        """Render the input, given as an iterable of (2, step) float64
        blocks, and yield the output as (4, m) float64 blocks: one per input
        block, then one for what the kernels and the delay leave past it.
        A stream renders its programme once."""
        start = 0
        for x in chunks:
            wet = None
            if self._ola is not None:
                wet = self._ola.push(x)
                wet *= self._gains
            yield self._output(x, wet, min(self.step, self.frames_out - start))
            start += self.step
        if start < self.frames_out:
            wet = self._ola.flush()
            wet *= self._gains
            yield self._output(None, wet, self.frames_out - start)

    def _output(self, dry, wet, m):
        """The next m output frames, from the input block `dry` and the
        processed block `wet` (None where there is none)."""
        out = np.zeros((len(_OUTPUT_CHANNELS), m))
        fronts = wet if self.mode == "front_eq" else dry
        if fronts is not None:
            width = min(m, fronts.shape[1])
            out[:2, :width] = fronts[:, :width]
        if self.mode == "rear_stereo":
            out[2:] = out[:2]
        elif self.mode == "proposed":
            self._line = np.concatenate((self._line, wet), axis=1)
            width = min(m, self._line.shape[1])
            out[2:, :width] = self._line[:, :width]
            self._line = self._line[:, width:]
        return out


def render(buffer: AudioBuffer, design: EqualisationDesign, mode: str) -> RenderResult:
    """Render stereo input to the 4-channel (FL, FR, SL, SR) condition:
    the blocks of one RenderStream over the buffer, collected."""
    stream = RenderStream(
        design, mode, buffer.num_channels, buffer.num_samples, buffer.sample_rate
    )
    x, step = buffer.samples, stream.step
    out = np.empty((len(_OUTPUT_CHANNELS), stream.frames_out))
    pos = 0
    for block in stream.blocks(x[:, i : i + step] for i in range(0, x.shape[1], step)):
        out[:, pos : pos + block.shape[1]] = block
        pos += block.shape[1]
    return RenderResult(
        buffer=AudioBuffer(out, buffer.sample_rate),
        latency_samples=stream.latency_samples,
    )
