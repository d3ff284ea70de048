import os
import stat
import struct
import threading

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
from roomfill.errors import ClippingWarning, ContractError, FormatError


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
    data = np.array([[1.0 - 1.0 / 32768.0, -1.0, 0.5]])
    path = tmp_path / "i16.wav"
    write_wav(path, AudioBuffer(data, 44100), bit_depth=16)
    back = read_wav(path)
    assert back.samples[0, 0] == pytest.approx(32767.0 / 32768.0, abs=0)
    assert back.samples[0, 1] == -1.0
    assert abs(back.samples[0, 2] - 0.5) <= 0.5 / 32768.0


def test_int24_wav_round_trip_precision(tmp_path, rng):
    data = rng.uniform(-0.99, 0.99, size=(2, 500))
    path = tmp_path / "i24.wav"
    write_wav(path, AudioBuffer(data, 48000), bit_depth=24)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - data)) <= 1.0 / 2**23


@pytest.mark.parametrize("bit_depth, quantum", [(16, 2.0**-15), (24, 2.0**-23), ("float32", None)])
def test_read_wav_gives_channel_major_float64_rows(tmp_path, rng, bit_depth, quantum):
    """Every encoding reads back as C-contiguous float64 rows, one per
    channel, holding exactly the stored samples."""
    data = rng.uniform(-0.99, 0.99, size=(3, 700))
    path = tmp_path / "three.wav"
    write_wav(path, AudioBuffer(data, 48000), bit_depth=bit_depth)
    back = read_wav(path).samples
    assert back.dtype == np.float64 and back.flags.c_contiguous
    if quantum is None:
        want = data.astype(np.float32).astype(np.float64)
    else:
        want = np.round(data / quantum) * quantum
    assert np.array_equal(back, want)


@given(
    data=st.data(),
    bit_depth=st.sampled_from((16, 24, "float32")),
    rate=st.sampled_from(FILE_SAMPLE_RATES),
    channels=st.integers(1, 8),
    frames=st.integers(0, 2000),
)
def test_wav_round_trip_of_drawn_buffers(tmp_path_factory, data, bit_depth, rate, channels, frames):
    """Any channel count and length, empty included, round-trips: float32
    samples bit exactly, in-range PCM samples within half a quantum."""
    shape = (channels, frames)
    if bit_depth == "float32":
        samples = data.draw(arrays(np.float32, shape, elements=st.floats(
            allow_nan=False, allow_infinity=False, width=32))).astype(np.float64)
    else:
        full = 32768.0 if bit_depth == 16 else float(2 ** 23)
        samples = data.draw(arrays(np.float64, shape, elements=st.floats(
            -1.0, (full - 1.0) / full)))
    path = tmp_path_factory.mktemp("wav") / "drawn.wav"
    write_wav(path, AudioBuffer(samples, rate), bit_depth=bit_depth)
    back = read_wav(path)
    assert back.sample_rate == rate
    assert back.samples.shape == shape
    if bit_depth == "float32":
        assert np.array_equal(back.samples, samples)
    else:
        assert np.all(np.abs(back.samples - samples) <= 0.5 / full)


def test_clipping_warns(tmp_path):
    with pytest.warns(ClippingWarning):
        write_wav(tmp_path / "c.wav", AudioBuffer(np.array([[1.5]]), 48000), bit_depth=16)


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
        write_wav(path, AudioBuffer(data, 48000))
        with pytest.raises(FormatError, match=r"nan\.wav.*channel 1"):
            read_wav(path)


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
        if step < 5000:
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
    for channels, bit_depth, width in ((4, "float32", 4), (1, 24, 3), (3, 24, 3), (2, 16, 2)):
        limit = (2 ** 32 - 1 - 37) // (channels * width)
        path = tmp_path / "big.wav"
        WavWriter(path, 48000, channels, limit, bit_depth)  # nothing written yet
        with pytest.raises(FormatError, match="%d frames" % limit):
            WavWriter(path, 48000, channels, limit + 1, bit_depth)
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
