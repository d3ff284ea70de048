"""Buffers, WAV file I/O and the small set of time-domain primitives.

All processing happens in float64. WAV files are little-endian RIFF/WAVE at
44.1 or 48 kHz, read as PCM 16/24 bit or IEEE float32 and written as float32.
"""
from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError

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
    under zero padding.
    """
    return math.fsum(np.square(buffer.samples, dtype=np.float64).ravel().tolist())


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
    """FFT size of the overlap-add blocks: the least 3 * 2**k at least
    8 * taps, and at least 4096 so that a short kernel does not cost one
    Python-level FFT pair per few samples (1.44 M samples took 5.1 s
    without that floor)."""
    # One rule for both kernels the renders use. Bare FFTs of a 30 s
    # stereo pass (2-vCPU x86 machine): 0.080 s at 49152 points against
    # 0.086 s at 32768 for the 5119-tap support chain, 0.077 s against
    # 0.054 s at 16384 for the 4096-tap EQ. A whole render also reads,
    # converts and writes once per block, and whole renders at 49152
    # took the same as at 16384 and 32768 to within their run-to-run
    # spread.
    need = max(8 * taps, 4096)
    return 3 << ((need + 2) // 3 - 1).bit_length()


class OverlapAdd:
    """Sectioned overlap-add convolution (Stockham 1966) of signal rows
    with fixed kernels, fed one block at a time.

    kernels is (rows, taps): one kernel per signal row, or one row for all
    rows. n, the signal length, fixes the blocks: each push takes `step`
    samples per row (the last block may be shorter) through one nfft-point
    rfft/irfft pair, nfft = _block_fft_size(taps) (49152 points for the
    4096-tap EQ and the 5119-tap support chain), or a single block of
    _next_fast_len(n + taps - 1) when the whole convolution fits in one
    shorter block. Every output sample sums in the order a zeroed
    accumulator would, so any block-by-block consumer gets exactly the
    samples convolve returns.
    """

    def __init__(self, kernels: np.ndarray, n: int):
        taps = kernels.shape[1]
        full = n + taps - 1
        nfft = _block_fft_size(taps)
        if full < nfft:
            nfft = _next_fast_len(full)
        self._nfft = nfft
        self.step = nfft - taps + 1
        self._spectra = np.fft.rfft(kernels, nfft)
        self._tail = None

    def push(self, x: np.ndarray) -> np.ndarray:
        """Convolve the next block, (rows, <= step), and return the step
        output samples per row that it completes, as a fresh array."""
        y = np.fft.irfft(np.fft.rfft(x, self._nfft) * self._spectra, self._nfft)
        y += 0.0  # a zeroed accumulator's first sum turns -0.0 into +0.0
        if self._tail is not None:
            y[:, : self._tail.shape[1]] += self._tail
        self._tail = y[:, self.step :]
        return y[:, : self.step]

    def flush(self) -> np.ndarray:
        """The taps - 1 output samples per row past the last pushed block."""
        return self._tail


def convolve(buffer: AudioBuffer, ir: ImpulseResponse) -> AudioBuffer:
    """Full linear convolution of every channel with the impulse response.

    Output length is n + len(ir) - 1 (0 for an empty signal or kernel),
    collected from the blocks of an OverlapAdd: the kernel's spectrum is
    taken once and each block of nfft - len(ir) + 1 input samples costs
    one nfft-point rfft/irfft pair, nfft = _block_fft_size(len(ir)) or
    one shorter block for a short signal. It agrees with direct convolution
    within 1e-12 of the peak.
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
    ola = OverlapAdd(h[np.newaxis, :], n)
    out = np.empty((x.shape[0], full))
    pos = 0
    for start in range(0, n, ola.step):
        block = ola.push(x[:, start : start + ola.step])
        m = min(ola.step, full - pos)
        out[:, pos : pos + m] = block[:, :m]
        pos += m
    out[:, pos:] = ola.flush()[:, : full - pos]
    return AudioBuffer(out, buffer.sample_rate)


# ---------------------------------------------------------------------------
# WAV files, hand rolled: the stdlib wave module handles PCM only.

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _check_file_rate(rate: int) -> None:
    if rate not in FILE_SAMPLE_RATES:
        raise FormatError(
            "unsupported sample rate %d Hz, expected one of %s"
            % (rate, list(FILE_SAMPLE_RATES))
        )


#: The largest RIFF chunk size: a WAV file holds at most 4 GiB.
_RIFF_LIMIT = 0xFFFFFFFF

#: (format tag, bits) read -> sample dtype and integer full scale (None: float)
_ENCODINGS = {
    (_WAVE_FORMAT_PCM, 16): ("<i2", 32768.0),
    (_WAVE_FORMAT_PCM, 24): (None, float(2 ** 23)),
    (_WAVE_FORMAT_IEEE_FLOAT, 32): ("<f4", None),
}


class WavReader:
    """A WAV file opened for reading in blocks of frames.

    The header is parsed once, seeking from chunk to chunk, so the order
    of the chunks does not matter. Accepts PCM 16/24 bit and IEEE float32
    payloads, plain or extensible; anything else (8 bit, a-law, ...) raises
    FormatError, and a chunk that runs past the end of the file raises
    OSError, before any sample is read. read() scales integer samples by
    1/32768 resp. 1/2**23 (int16 value 32767 reads back as 32767/32768) and
    raises FormatError on NaN or infinite samples and OSError if the file
    ends early.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self._parse_header()
        except BaseException:
            self._fh.close()
            raise
        self._frames_read = 0

    def _parse_header(self) -> None:
        fh, path = self._fh, self.path
        file_size = os.fstat(fh.fileno()).st_size
        header = fh.read(12)
        if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise FormatError("%s is not a RIFF/WAVE file" % path)

        fmt = None
        data = None  # (offset, size)
        pos = 12
        while True:
            fh.seek(pos)
            chunk_header = fh.read(8)
            if len(chunk_header) == 0:
                break
            if len(chunk_header) < 8:
                raise OSError("truncated chunk header in %s" % path)
            chunk_id, size = struct.unpack("<4sI", chunk_header)
            if pos + 8 + size > file_size:
                raise OSError("truncated %r chunk in %s" % (chunk_id, path))
            if chunk_id == b"fmt ":
                fmt = fh.read(size)
            elif chunk_id == b"data":
                data = (pos + 8, size)
            pos += 8 + size + size % 2  # chunks are word aligned

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
        if (tag, bits) not in _ENCODINGS:
            raise FormatError(
                "unsupported encoding in %s: format tag %d, %d bits" % (path, tag, bits)
            )
        self._dtype, self._scale = _ENCODINGS[tag, bits]
        self._block_align = channels * bits // 8
        offset, size = data
        if size % self._block_align:
            raise OSError("payload not a whole number of frames in %s" % path)
        self.num_channels = channels
        self.sample_rate = rate
        self.num_frames = size // self._block_align
        fh.seek(offset)

    def read(self, frames: int) -> np.ndarray:
        """The next min(frames, frames left) frames as channel-major
        float64 rows, shape (channels, m)."""
        frames = min(frames, self.num_frames - self._frames_read)
        raw = self._fh.read(frames * self._block_align)
        if len(raw) < frames * self._block_align:
            raise OSError("truncated %r chunk in %s" % (b"data", self.path))
        if self._dtype is None:  # 24 bit: sign-extend each triplet to int32
            triplets = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
            quads = np.zeros((triplets.shape[0], 4), dtype=np.uint8)
            quads[:, :3] = triplets
            quads[:, 3] = np.where(triplets[:, 2] & 0x80, 0xFF, 0)
            values = quads.view("<i4").ravel()
        else:
            values = np.frombuffer(raw, dtype=self._dtype)
        # one conversion straight into channel-major float64 rows
        samples = values.reshape(-1, self.num_channels).T.astype(np.float64, order="C")
        if self._scale is not None:
            samples /= self._scale
        finite = np.isfinite(samples).all(axis=1)
        if not finite.all():
            raise FormatError(
                "%s has non-finite samples in channel %d"
                % (self.path, int(np.flatnonzero(~finite)[0]))
            )
        self._frames_read += frames
        return samples

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_wav(path) -> AudioBuffer:
    """Read a WAV file into a float64 buffer normalised to +-1.0 full scale:
    one WavReader block of every frame, with its formats and checks."""
    with WavReader(path) as reader:
        return AudioBuffer(reader.read(reader.num_frames), reader.sample_rate)


class WavWriter:
    """An IEEE float32 WAV file of `frames` frames, known in advance,
    written in blocks. Samples are stored as they are: values beyond +-1.0
    survive, and any float32-precision buffer round-trips bit exactly. A
    block with a sample that is not finite as float32 (NaN, inf, beyond
    +-3.4e38) is a ContractError naming the channel: no reader takes such a
    file. An unsupported rate, or a file past the 4 GiB a WAV can describe,
    is refused before anything is created.

    Used as a context manager: the blocks go to a temporary file beside
    `path` that replaces it when the block exits cleanly with every frame
    written, and is removed on any error, so `path` is never left holding
    a partial file. A path that is not a regular file, a device or a
    pipe, is written directly.
    """

    def __init__(self, path, sample_rate: int, channels: int, frames: int):
        _check_file_rate(sample_rate)
        block_align = 4 * channels
        # the RIFF size counts "WAVE", the fmt chunk and the data chunk
        limit = (_RIFF_LIMIT - 4 - (8 + 16) - 8) // block_align
        if frames > limit:
            raise FormatError(
                "%s: %d frames of %d bytes pass the 4 GiB WAV limit of %d frames"
                % (path, frames, block_align, limit)
            )
        data_size = frames * block_align
        self.path = path
        self.channels = channels
        self.frames = frames
        fmt = struct.pack(
            "<HHIIHH", _WAVE_FORMAT_IEEE_FLOAT, channels, sample_rate,
            sample_rate * block_align, block_align, 32,
        )
        riff_size = 4 + (8 + len(fmt)) + (8 + data_size)
        self._header = (
            struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE")
            + struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
            + struct.pack("<4sI", b"data", data_size)
        )
        self._fh = None
        self._tmp = None
        self._written = 0

    def __enter__(self):
        self._dest = os.path.realpath(self.path)
        if os.path.exists(self._dest) and not os.path.isfile(self._dest):
            self._fh = open(self._dest, "wb")
        else:
            self._tmp = "%s.%s.tmp" % (self._dest, os.urandom(4).hex())
            self._fh = open(self._tmp, "xb")
        try:
            self._fh.write(self._header)
        except BaseException:
            self._discard()
            raise
        return self

    def write(self, samples: np.ndarray) -> None:
        """Append a (channels, m) block of float64 samples."""
        if samples.shape[0] != self.channels:
            raise ContractError(
                "block has %d channels, the file %d" % (samples.shape[0], self.channels)
            )
        if self._written + samples.shape[1] > self.frames:
            raise ContractError("more than the %d frames declared for %s" % (self.frames, self.path))
        # interleave one channel at a time: 9-10 ms per 30 s of
        # four-channel 48 kHz output, finite check included, against
        # 13-17 ms for a transposed copy of the block (2-vCPU x86 machine)
        frames = np.empty((samples.shape[1], self.channels), "<f4")
        with np.errstate(over="ignore"):  # past float32 range: inf, refused below
            for c in range(self.channels):
                frames[:, c] = samples[c]
        finite = np.isfinite(frames)
        if not finite.all():  # a whole-array test: all(axis=0) costs 15x more
            raise ContractError("%s: channel %d has samples not finite as float32"
                                % (self.path, int(finite.all(axis=0).argmin())))
        # a byte view of the interleaved copy, not a second copy as bytes;
        # flat first, so that a block with no frames gives an empty view
        self._fh.write(frames.ravel().view(np.uint8))
        self._written += samples.shape[1]

    def _discard(self) -> None:
        self._fh.close()
        if self._tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._tmp)

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._discard()
            return False
        try:
            if self._written != self.frames:
                raise ContractError(
                    "%d of the %d frames declared for %s were written"
                    % (self._written, self.frames, self.path)
                )
            self._fh.close()
            if self._tmp is not None:
                os.replace(self._tmp, self._dest)
        except BaseException:
            self._discard()
            raise
        return False


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write a buffer as an IEEE float32 RIFF/WAVE file: one WavWriter
    block of every frame, with its checks."""
    with WavWriter(path, buffer.sample_rate, buffer.num_channels, buffer.num_samples) as writer:
        writer.write(buffer.samples)
