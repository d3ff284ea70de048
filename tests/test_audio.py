import os
import stat
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import next_fast_len

from roomfill.audio import (
    FILE_SAMPLE_RATES,
    AudioBuffer,
    ImpulseResponse,
    WavWriter,
    _block_fft_size,
    _next_fast_len,
    convolve,
    read_wav,
    rms_energy,
    write_wav,
)
from roomfill.errors import ContractError, FormatError

from conftest import float32_wav, pcm_wav, riff_wav


def test_buffer_promotes_mono_vector():
    buf = AudioBuffer(np.arange(5, dtype=float), 48000)
    assert buf.samples.shape == (1, 5)
    assert buf.num_channels == 1
    assert buf.num_samples == 5


def test_buffer_rejects_bad_shapes_and_rates():
    with pytest.raises(ContractError):
        AudioBuffer(np.zeros((2, 3, 4)), 48000)
    with pytest.raises(ContractError):
        AudioBuffer(np.zeros(4), 0)


def test_mono_property_requires_single_channel():
    stereo = AudioBuffer(np.zeros((2, 8)), 48000)
    with pytest.raises(ContractError):
        stereo.mono


def test_impulse_response_requires_single_channel():
    with pytest.raises(ContractError):
        ImpulseResponse(AudioBuffer(np.zeros((2, 8)), 48000))


def test_float32_wav_round_trip_is_bit_exact(tmp_path, rng):
    data = rng.standard_normal((2, 1000)).astype(np.float32).astype(np.float64)
    path = tmp_path / "f32.wav"
    write_wav(path, AudioBuffer(data, 48000))
    back = read_wav(path)
    assert back.sample_rate == 48000
    assert np.array_equal(back.samples, data)


def test_int16_wav_scaling(tmp_path):
    # full-scale int16 is 32767/32768, not 1.0
    path = tmp_path / "i16.wav"
    pcm_wav(path, [[32767, -32768, 16384, -1]], 2, rate=44100)
    back = read_wav(path)
    assert back.sample_rate == 44100
    assert back.samples.tolist() == [[32767.0 / 32768.0, -1.0, 0.5, -1.0 / 32768.0]]


def test_int24_wav_round_trip_precision(tmp_path, rng):
    """24-bit samples read as value / 2**23 exactly, sign extension and
    both ends of the range included."""
    values = rng.integers(-(2 ** 23), 2 ** 23, size=(2, 500))
    values[:, :4] = [[2 ** 23 - 1, -(2 ** 23), -1, 0], [1, -2, 2 ** 22, -(2 ** 22)]]
    path = tmp_path / "i24.wav"
    pcm_wav(path, values, 3)
    back = read_wav(path)
    assert np.array_equal(back.samples, values / 2.0 ** 23)


@pytest.mark.parametrize("bit_depth, quantum", [(16, 2.0**-15), (24, 2.0**-23), ("float32", None)])
def test_read_wav_gives_channel_major_float64_rows(tmp_path, rng, bit_depth, quantum):
    """Every encoding reads back as C-contiguous float64 rows, one per
    channel, holding exactly the stored samples."""
    path = tmp_path / "three.wav"
    if quantum is None:
        want = rng.uniform(-0.99, 0.99, size=(3, 700)).astype(np.float32).astype(np.float64)
        write_wav(path, AudioBuffer(want, 48000))
    else:
        full = 2 ** (bit_depth - 1)
        values = rng.integers(-full, full, size=(3, 700))
        pcm_wav(path, values, bit_depth // 8)
        want = values * quantum
    back = read_wav(path).samples
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert np.array_equal(back, want)


@given(
    data=st.data(),
    bit_depth=st.sampled_from((16, 24, "float32")),
    rate=st.sampled_from(FILE_SAMPLE_RATES),
    channels=st.integers(1, 8),
    frames=st.integers(0, 2000),
)
def test_wav_round_trip_of_drawn_buffers(tmp_path_factory, data, bit_depth, rate, channels, frames):
    """Any channel count and length, empty included, reads back exactly:
    float32 samples that write_wav wrote bit for bit, and PCM samples that
    the stdlib wave module wrote as value / full scale."""
    shape = (channels, frames)
    path = tmp_path_factory.mktemp("wav") / "drawn.wav"
    if bit_depth == "float32":
        want = data.draw(arrays(np.float32, shape, elements=st.floats(
            allow_nan=False, allow_infinity=False, width=32))).astype(np.float64)
        write_wav(path, AudioBuffer(want, rate))
    else:
        full = 2 ** (bit_depth - 1)
        values = data.draw(arrays(np.int64, shape, elements=st.integers(-full, full - 1)))
        pcm_wav(path, values, bit_depth // 8, rate)
        want = values / float(full)
    back = read_wav(path)
    assert back.sample_rate == rate
    assert back.samples.shape == shape
    assert np.array_equal(back.samples, want)


def _extensible_fmt(subformat, channels, bits, rate=48000):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk whose subformat GUID
    carries the format tag `subformat`."""
    align = channels * bits // 8
    return (struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, rate * align, align, bits,
                        22, bits, 0)
            + struct.pack("<H", subformat)
            + b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71")


def test_extensible_wav_reads_as_its_subformat(tmp_path, rng):
    """A WAVE_FORMAT_EXTENSIBLE file of 24-bit PCM or float32 reads as the
    plain file of its subformat would."""
    path = tmp_path / "ext.wav"
    values = rng.integers(-(2 ** 23), 2 ** 23, size=(2, 300))
    riff_wav(path, _extensible_fmt(1, 2, 24), b"".join(
        int(v).to_bytes(3, "little", signed=True) for v in values.T.ravel()))
    assert np.array_equal(read_wav(path).samples, values / 2.0 ** 23)

    floats = rng.standard_normal((3, 300)).astype("<f4")
    riff_wav(path, _extensible_fmt(3, 3, 32), floats.T.tobytes())
    back = read_wav(path)
    assert back.num_channels == 3
    assert np.array_equal(back.samples, floats.astype(np.float64))


def test_unsupported_encodings_refused_naming_tag_and_bits(tmp_path):
    """8-bit and 32-bit PCM (written by the stdlib wave module) and a-law
    are FormatErrors naming the file, the format tag and the bits."""
    path = tmp_path / "odd.wav"
    for width in (1, 4):
        pcm_wav(path, np.ones((1, 8), dtype=int), width)
        with pytest.raises(FormatError, match=r"odd\.wav: format tag 1, %d bits" % (8 * width)):
            read_wav(path)
    riff_wav(path, struct.pack("<HHIIHH", 6, 1, 48000, 48000, 1, 8), b"\xd5" * 8)
    with pytest.raises(FormatError, match=r"odd\.wav: format tag 6, 8 bits"):
        read_wav(path)


def test_unsupported_rate_rejected(tmp_path):
    with pytest.raises(FormatError):
        write_wav(tmp_path / "r.wav", AudioBuffer(np.zeros((1, 4)), 22050))


def test_non_wav_file_rejected(tmp_path):
    path = tmp_path / "not.wav"
    path.write_bytes(b"definitely not audio data, moving along")
    with pytest.raises(FormatError):
        read_wav(path)


def test_non_finite_float_samples_rejected_naming_channel(tmp_path, rng):
    for bad in (np.nan, np.inf, -np.inf):
        data = rng.standard_normal((3, 50))
        data[1, 7] = bad
        path = tmp_path / "nan.wav"
        float32_wav(path, data)
        with pytest.raises(FormatError, match=r"nan\.wav.*channel 1"):
            read_wav(path)


def test_writer_refuses_samples_not_finite_as_float32(tmp_path, rng):
    """NaN, infinity and a finite float64 past the float32 range (which
    would round to infinity) are refused before the file is replaced,
    naming the path and the channel, and the cast warns of nothing."""
    path = tmp_path / "out.wav"
    path.write_bytes(b"keep")
    for bad in (np.nan, np.inf, -1e39):
        data = rng.standard_normal((3, 50))
        data[2, 9] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match=r"out\.wav: channel 2 "):
                write_wav(path, AudioBuffer(data, 48000))
    assert path.read_bytes() == b"keep"
    assert os.listdir(tmp_path) == ["out.wav"]
    edge = np.array([[3.4028234663852886e38, -3.4028234663852886e38]])  # float32's largest
    write_wav(path, AudioBuffer(edge, 48000))
    assert np.array_equal(read_wav(path).samples, edge)


@pytest.mark.parametrize("channels", (1, 2, 3, 4))
def test_writer_payload_is_the_transposed_float32_block(tmp_path, rng, channels):
    """The writer interleaves one channel at a time into the bytes of a
    transposed float32 copy of each block, which rounds every sample the
    same way: for blocks that hold -0.0, float64 values that land on or
    under float32 subnormals, and values beyond +-1 up to float32's
    largest. With samples that are not finite in two channels, the lower
    channel is named, even where its bad sample comes later."""
    specials = np.array([-0.0, 1e-40, -1e-45, 5e-324, -7.5, 1e5, 3.4028234663852886e38])
    blocks = []
    for m in (0, 1, 9, 1000):
        block = 4.0 * rng.standard_normal((channels, m))
        for c in range(channels):
            width = min(m, specials.size)
            block[c, :width] = np.roll(specials, c)[:width]
        blocks.append(block)
    path = tmp_path / "out.wav"
    with WavWriter(path, 48000, channels, sum(b.shape[1] for b in blocks)) as writer:
        for block in blocks:
            writer.write(block)
    want = b"".join(np.ascontiguousarray(b.T, dtype="<f4").tobytes() for b in blocks)
    assert path.read_bytes()[44:] == want
    if channels > 1:
        bad = rng.standard_normal((channels, 40))
        bad[-1, 3] = np.nan
        bad[channels - 2, 30] = -1e39
        with pytest.raises(ContractError, match=r"out\.wav: channel %d " % (channels - 2)):
            write_wav(path, AudioBuffer(bad, 48000))


def test_truncated_wav_raises_oserror(tmp_path, rng):
    path = tmp_path / "t.wav"
    write_wav(path, AudioBuffer(rng.standard_normal((1, 100)), 48000))
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) - 50])
    with pytest.raises(OSError):
        read_wav(path)


@pytest.mark.parametrize("tag, bits, size", [(1, 16, 19), (1, 24, 10), (3, 32, 14)])
def test_partial_frame_payload_raises_oserror(tmp_path, tag, bits, size):
    """A stereo data chunk that ends inside a frame is a truncated file
    (OSError, so the CLI exits 2), for every encoding."""
    align = 2 * bits // 8
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, tag, 2, 48000, 48000 * align, align, bits)
    body = fmt + struct.pack("<4sI", b"data", size) + b"\x01" * size + b"\x00" * (size % 2)
    path = tmp_path / "partial.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(OSError, match="whole number of frames"):
        read_wav(path)


def test_channel_order_survives_round_trip(tmp_path):
    data = np.vstack([np.full(16, 0.25), np.full(16, -0.25)])
    path = tmp_path / "st.wav"
    write_wav(path, AudioBuffer(data, 48000))
    back = read_wav(path)
    assert np.all(back.samples[0] == 0.25)
    assert np.all(back.samples[1] == -0.25)


def test_rms_energy_invariant_under_delay(rng):
    buf = AudioBuffer(rng.standard_normal((2, 333)), 48000)
    delayed = AudioBuffer(np.pad(buf.samples, ((0, 0), (350, 0))), 48000)
    assert rms_energy(delayed) == rms_energy(buf)


def test_convolve_matches_direct_reference(rng):
    """The overlap-add convolution agrees with numpy's direct reference to
    1e-12 of the peak on every channel: for short and long kernels, for
    signals ending one sample before, on and one sample after a block
    boundary, for a signal many blocks long, for one shorter than the
    kernel, and it keeps (channels, 0) for an empty signal."""
    for taps in (1, 64, 1023, 1025, 4096, 5119):
        kernel = rng.standard_normal(taps)
        ir = ImpulseResponse(AudioBuffer(kernel, 48000))
        step = _block_fft_size(taps) - taps + 1
        lengths = [2 * step - 1, 2 * step, 2 * step + 1, 3 * step + 1, max(taps // 2, 1)]
        if taps < 1024:
            lengths.append(20 * step + 17)
        for n in lengths:
            sig = rng.standard_normal((2, n))
            got = convolve(AudioBuffer(sig, 48000), ir).samples
            assert got.shape == (2, n + taps - 1)
            for ch in range(2):
                want = np.convolve(sig[ch], kernel)
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got[ch] - want)) <= 1e-12 * scale, (taps, n, ch)
        empty = convolve(AudioBuffer(np.zeros((2, 0)), 48000), ir)
        assert empty.samples.shape == (2, 0)


def _accumulated_convolve(x, h):
    """The overlap-add as one zeroed accumulator: every block's irfft is
    added in place, so each sample is 0.0 + first block (+ next block)."""
    n, taps = x.shape[1], h.size
    full = n + taps - 1
    nfft = _block_fft_size(taps)
    if full < nfft:
        nfft = _next_fast_len(full)
    step = nfft - taps + 1
    kernel = np.fft.rfft(h, nfft)
    out = np.zeros((x.shape[0], full))
    for start in range(0, n, step):
        block = np.fft.irfft(np.fft.rfft(x[:, start : start + step], nfft) * kernel, nfft)
        stop = min(start + nfft, full)
        out[:, start:stop] += block[:, : stop - start]
    return out


def test_convolve_is_the_zeroed_accumulator_bit_for_bit():
    """convolve, which streams its blocks through OverlapAdd, equals the
    one-accumulator overlap-add byte for byte, signed zeros included, on
    and around block edges, for one-sample signals and for silence (whose
    irfft holds some -0.0 that the accumulator's 0.0 + turns to +0.0)."""
    rng = np.random.default_rng(7)
    for taps in (1, 64, 4096, 5119):
        kernel = rng.standard_normal(taps)
        ir = ImpulseResponse(AudioBuffer(kernel, 48000))
        step = _block_fft_size(taps) - taps + 1
        for n in (1, 2, 100, step - 1, step, step + 1, 3 * step + 5):
            sig = rng.standard_normal((3, n))
            sig[1] = 0.0
            sig[2, n // 3 :] = 0.0
            got = convolve(AudioBuffer(sig, 48000), ir).samples
            assert got.tobytes() == _accumulated_convolve(sig, kernel).tobytes(), (taps, n)


def test_block_fft_size_is_the_least_three_times_a_power_of_two_past_eight_kernels():
    """Overlap-add blocks are the least 3 * 2**k points at least 8 * taps:
    49152 for the 4096-tap EQ and the 5119-tap support chain. A short
    kernel still gets at least 4096, so a long programme is not cut into
    one Python-level FFT pair per few samples."""
    assert _block_fft_size(4096) == _block_fft_size(5119) == 49152
    assert _block_fft_size(1) >= 4096
    for taps in range(1, 20000):
        size = _block_fft_size(taps)
        power = size // 3
        need = max(8 * taps, 4096)
        assert size == 3 * power and power & (power - 1) == 0, taps
        assert size >= need > size // 2, taps


def test_next_fast_len_is_scipys_real_fft_size():
    """The FFT sizes convolve and the band-energy meter pick are the
    2-3-5-smooth sizes scipy picks for real transforms, for every n up to
    300,000 (more than 6 s of audio at 48 kHz)."""
    first_miss = next(
        (n for n in range(1, 300001) if _next_fast_len(n) != next_fast_len(n, real=True)),
        None,
    )
    assert first_miss is None


def test_convolve_rejects_rate_mismatch():
    buf = AudioBuffer(np.zeros((1, 10)), 48000)
    ir = ImpulseResponse(AudioBuffer(np.zeros(4), 44100))
    with pytest.raises(ContractError):
        convolve(buf, ir)


def test_wav_writer_refuses_past_4_gib_before_creating_the_file(tmp_path):
    """The RIFF sizes are 32 bit: the largest file a writer accepts has
    (2**32 - 1 - 37) // bytes-per-frame frames, and one frame more is a
    FormatError naming that limit, raised before the file exists."""
    for channels in (4, 1, 3, 2):
        limit = (2 ** 32 - 1 - 37) // (channels * 4)
        path = tmp_path / "big.wav"
        WavWriter(path, 48000, channels, limit)  # nothing written yet
        with pytest.raises(FormatError, match="%d frames" % limit):
            WavWriter(path, 48000, channels, limit + 1)
        assert not path.exists()


def test_wav_writer_commits_only_every_declared_frame(tmp_path):
    """Blocks go to a temporary file that replaces the path only when the
    declared frame count was written: too few, too many or an error in
    between leave an existing file as it was and no temporary file."""
    path = tmp_path / "x.wav"
    path.write_bytes(b"keep")
    block = np.zeros((2, 10))
    with pytest.raises(ContractError, match="10 of the 20 frames"):
        with WavWriter(path, 48000, 2, 20) as writer:
            writer.write(block)
    with pytest.raises(ContractError, match="more than the 15 frames"):
        with WavWriter(path, 48000, 2, 15) as writer:
            writer.write(block)
            writer.write(block)
    with pytest.raises(KeyError):
        with WavWriter(path, 48000, 2, 20) as writer:
            writer.write(block)
            raise KeyError("interrupted")
    assert path.read_bytes() == b"keep"
    assert os.listdir(tmp_path) == ["x.wav"]
    with WavWriter(path, 48000, 2, 20) as writer:
        writer.write(block)
        writer.write(block + 0.5)
    assert np.array_equal(read_wav(path).samples, np.hstack([block, block + 0.5]))
    assert os.listdir(tmp_path) == ["x.wav"]


def test_wav_writer_writes_a_pipe_in_place(tmp_path, rng):
    """A path that is not a regular file (a pipe, a device) cannot be
    replaced, so the file goes straight into it."""
    buf = AudioBuffer(rng.standard_normal((2, 300)), 48000)
    write_wav(tmp_path / "file.wav", buf)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_wav(fifo, buf)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [(tmp_path / "file.wav").read_bytes()]
    assert sorted(os.listdir(tmp_path)) == ["file.wav", "pipe"]
