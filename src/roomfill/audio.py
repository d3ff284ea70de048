"""Buffers, WAV file I/O and the small set of time-domain primitives.

All processing happens in float64. Files are plain RIFF/WAVE, little
endian, PCM 16 or 24 bit or IEEE float32, at 44.1 or 48 kHz.
"""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ClippingWarning, ContractError, FormatError

FILE_SAMPLE_RATES = (44100, 48000)


@dataclass
class AudioBuffer:
    """Multichannel sample block, shape (channels, samples), float64."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ContractError("samples must be a (channels, n) array with >= 1 channel")
        if self.sample_rate <= 0:
            raise ContractError("sample_rate must be positive")
        self.samples = arr
        self.sample_rate = int(self.sample_rate)

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def mono(self) -> np.ndarray:
        """The single channel of a 1-channel buffer."""
        if self.num_channels != 1:
            raise ContractError("buffer has %d channels, expected 1" % self.num_channels)
        return self.samples[0]


@dataclass
class ImpulseResponse:
    """A single-channel measured or synthesised impulse response."""

    buffer: AudioBuffer
    label: str = ""

    def __post_init__(self):
        if self.buffer.num_channels != 1:
            raise ContractError("impulse response must be single channel")

    @property
    def data(self) -> np.ndarray:
        return self.buffer.samples[0]

    @property
    def sample_rate(self) -> int:
        return self.buffer.sample_rate


def rms_energy(buffer: AudioBuffer) -> float:
    """Total energy, sum of squared samples over all channels.

    Uses exact (correctly rounded) summation so the value is invariant
    under zero padding, e.g. rms_energy(delay(x, d)) == rms_energy(x).
    """
    return math.fsum(np.square(buffer.samples, dtype=np.float64).ravel().tolist())


def delay(buffer: AudioBuffer, delay_ms: float) -> AudioBuffer:
    """Prepend round(delay_ms * rate / 1000) zero samples to every channel."""
    if delay_ms < 0:
        raise ContractError("delay_ms must be >= 0")
    pad = int(round(delay_ms * buffer.sample_rate / 1000.0))
    if pad == 0:
        return AudioBuffer(buffer.samples.copy(), buffer.sample_rate)
    out = np.zeros((buffer.num_channels, buffer.num_samples + pad))
    out[:, pad:] = buffer.samples
    return AudioBuffer(out, buffer.sample_rate)


def _next_fast_len(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n (n >= 1): the next size a real
    FFT transforms fast, as scipy.fft.next_fast_len(n, real=True) gives."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _block_fft_size(taps: int) -> int:
    """FFT size of convolve's overlap-add blocks: the next power of two at
    least 4 * taps, and at least 4096 so that a short kernel does not cost
    one Python-level FFT pair per few samples."""
    return 1 << (max(4 * taps, 4096) - 1).bit_length()


def convolve(buffer: AudioBuffer, ir: ImpulseResponse) -> AudioBuffer:
    """Full linear convolution of every channel with the impulse response.

    Output length is n + len(ir) - 1 (0 for an empty signal or kernel).
    Computed by overlap-add: the kernel's spectrum is taken once, and
    each block of nfft - len(ir) + 1 input samples is convolved by one
    nfft-point rfft/irfft pair, its tail overlapping the next block. nfft
    follows from the kernel length alone (_block_fft_size); a convolution
    shorter than that is one block of _next_fast_len(n + len(ir) - 1). It
    agrees with direct convolution within 1e-12 of the peak.
    """
    if buffer.sample_rate != ir.sample_rate:
        raise ContractError(
            "sample rate mismatch: signal %d Hz, impulse response %d Hz"
            % (buffer.sample_rate, ir.sample_rate)
        )
    x, h = buffer.samples, ir.data
    n, taps = x.shape[1], h.size
    if n == 0 or taps == 0:
        return AudioBuffer(np.zeros((x.shape[0], 0)), buffer.sample_rate)
    full = n + taps - 1
    nfft = _block_fft_size(taps)
    if full < nfft:  # the whole convolution fits in one shorter block
        nfft = _next_fast_len(full)
    step = nfft - taps + 1
    kernel = np.fft.rfft(h, nfft)
    out = np.zeros((x.shape[0], full))
    for start in range(0, n, step):
        spectrum = np.fft.rfft(x[:, start : start + step], nfft)
        block = np.fft.irfft(spectrum * kernel, nfft)
        stop = min(start + nfft, full)
        out[:, start:stop] += block[:, : stop - start]
    return AudioBuffer(out, buffer.sample_rate)


# ---------------------------------------------------------------------------
# WAV files. Hand rolled because we need 24 bit writes and precise error
# classification, neither of which the stock helpers give us.

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _check_file_rate(rate: int) -> None:
    if rate not in FILE_SAMPLE_RATES:
        raise FormatError(
            "unsupported sample rate %d Hz, expected one of %s"
            % (rate, list(FILE_SAMPLE_RATES))
        )


def read_wav(path) -> AudioBuffer:
    """Read a WAV file into a float64 buffer normalised to +-1.0 full scale.

    Accepts PCM 16/24 bit and IEEE float32 payloads. Integer samples are
    scaled by 1/32768 resp. 1/2**23, so int16 value 32767 reads back as
    32767/32768. Anything else (8 bit, a-law, ...) and NaN or infinite
    float samples raise FormatError; a file that ends mid-chunk raises
    OSError.
    """
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise FormatError("%s is not a RIFF/WAVE file" % path)

        fmt = None
        data = None
        while True:
            chunk_header = fh.read(8)
            if len(chunk_header) == 0:
                break
            if len(chunk_header) < 8:
                raise OSError("truncated chunk header in %s" % path)
            chunk_id, size = struct.unpack("<4sI", chunk_header)
            payload = fh.read(size)
            if len(payload) < size:
                raise OSError("truncated %r chunk in %s" % (chunk_id, path))
            if size % 2:
                fh.read(1)  # chunks are word aligned
            if chunk_id == b"fmt ":
                fmt = payload
            elif chunk_id == b"data":
                data = payload

    if fmt is None or data is None:
        raise FormatError("%s lacks fmt/data chunks" % path)
    if len(fmt) < 16:
        raise FormatError("fmt chunk too short in %s" % path)

    (tag, channels, rate, _byte_rate, _block_align, bits) = struct.unpack(
        "<HHIIHH", fmt[:16]
    )
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 26:
            raise FormatError("extensible fmt chunk too short in %s" % path)
        tag = struct.unpack("<H", fmt[24:26])[0]

    if channels < 1:
        raise FormatError("zero channel count in %s" % path)
    _check_file_rate(rate)

    scale = None
    if tag == _WAVE_FORMAT_PCM and bits == 16:
        frames, scale = np.frombuffer(data, dtype="<i2"), 32768.0
    elif tag == _WAVE_FORMAT_PCM and bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8)
        if raw.size % 3:
            raise OSError("24 bit payload not a whole number of samples in %s" % path)
        triplets = raw.reshape(-1, 3)
        quads = np.zeros((triplets.shape[0], 4), dtype=np.uint8)
        quads[:, :3] = triplets
        quads[:, 3] = np.where(triplets[:, 2] & 0x80, 0xFF, 0)
        frames, scale = quads.view("<i4").ravel(), float(2 ** 23)
    elif tag == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        frames = np.frombuffer(data, dtype="<f4")
    else:
        raise FormatError(
            "unsupported encoding in %s: format tag %d, %d bits" % (path, tag, bits)
        )

    if frames.size % channels:
        raise OSError("payload not a whole number of frames in %s" % path)
    # one conversion straight into channel-major float64 rows
    samples = frames.reshape(-1, channels).T.astype(np.float64, order="C")
    if scale is not None:
        samples /= scale
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        raise FormatError(
            "%s has non-finite samples in channel %d"
            % (path, int(np.flatnonzero(~finite)[0]))
        )
    return AudioBuffer(samples, rate)


def write_wav(path, buffer: AudioBuffer, bit_depth="float32") -> None:
    """Write a buffer as RIFF/WAVE. bit_depth is 16, 24 or "float32".

    Integer formats scale by 32768 resp. 2**23 and clip out-of-range
    samples to full scale with a ClippingWarning. float32 stores samples
    as they are (values beyond +-1.0 survive, and any float32-precision
    buffer round-trips bit exactly).
    """
    _check_file_rate(buffer.sample_rate)
    frames = buffer.samples.T  # interleave

    if bit_depth == 16:
        scaled = np.round(frames * 32768.0)
        lo, hi = -32768.0, 32767.0
        if np.any(scaled < lo) or np.any(scaled > hi):
            warnings.warn(
                "samples clipped to full scale writing %s" % path, ClippingWarning
            )
        payload = np.clip(scaled, lo, hi).astype("<i2").tobytes()
        tag, bits = _WAVE_FORMAT_PCM, 16
    elif bit_depth == 24:
        scaled = np.round(frames * float(2 ** 23))
        lo, hi = -float(2 ** 23), float(2 ** 23 - 1)
        if np.any(scaled < lo) or np.any(scaled > hi):
            warnings.warn(
                "samples clipped to full scale writing %s" % path, ClippingWarning
            )
        quads = (
            np.clip(scaled, lo, hi).astype("<i4", order="C").view(np.uint8).reshape(-1, 4)
        )
        payload = quads[:, :3].tobytes()
        tag, bits = _WAVE_FORMAT_PCM, 24
    elif bit_depth == "float32":
        # a byte view of the interleaved copy, not a second copy as bytes;
        # flat first, so that a buffer with no frames gives an empty view
        payload = np.ascontiguousarray(frames, dtype="<f4").ravel().view(np.uint8)
        tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
    else:
        raise ContractError("bit_depth must be 16, 24 or 'float32'")

    channels = buffer.num_channels
    block_align = channels * bits // 8
    byte_rate = buffer.sample_rate * block_align
    fmt = struct.pack(
        "<HHIIHH", tag, channels, buffer.sample_rate, byte_rate, block_align, bits
    )
    pad = b"\x00" if len(payload) % 2 else b""
    riff_size = 4 + (8 + len(fmt)) + (8 + len(payload) + len(pad))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE"))
        fh.write(struct.pack("<4sI", b"fmt ", len(fmt)))
        fh.write(fmt)
        fh.write(struct.pack("<4sI", b"data", len(payload)))
        fh.write(payload)
        fh.write(pad)
