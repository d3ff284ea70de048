import math
import struct
import wave

import numpy as np
import pytest
from hypothesis import settings

from roomfill import gammatone
from roomfill.gammatone import make_spec
from roomfill.pipeline import solve_design
from roomfill.rirs import RirSet
from roomfill.simulate import SyntheticRirParams, synth_rir
from roomfill.target import TargetFunction

NOTCH_1K = (1000.0, 15.0, 3.0)

#: Pinned fixture suite: flat and notched rooms at two decay times each,
#: seeds fixed for reproducible runs.
FIXTURE_SUITE = (
    ("flat_t200", SyntheticRirParams(48000, 800.0, 200.0, seed=101)),
    ("flat_t500", SyntheticRirParams(48000, 1600.0, 500.0, seed=102)),
    ("notch1k_t200", SyntheticRirParams(48000, 800.0, 200.0, notch=NOTCH_1K, seed=103)),
    ("notch1k_t500", SyntheticRirParams(48000, 1600.0, 500.0, notch=NOTCH_1K, seed=104)),
)

# The same examples on every run, and no per-example time limit: a shared
# CI runner's scheduling must not turn into a failure.
settings.register_profile("roomfill", derandomize=True, deadline=None)
settings.load_profile("roomfill")


def pcm_wav(path, values, width, rate=48000):
    """(channels, m) integers as a PCM WAV of `width` bytes per sample,
    encoded one by one and written by the stdlib wave module: a writer
    that shares no code with roomfill's reader."""
    values = np.asarray(values)
    with wave.open(str(path), "wb") as out:
        out.setnchannels(values.shape[0])
        out.setsampwidth(width)
        out.setframerate(rate)
        out.writeframes(b"".join(
            int(v).to_bytes(width, "little", signed=True) for v in values.T.ravel()))


def riff_wav(path, fmt, payload):
    """A RIFF/WAVE file of one fmt chunk, as given, and one data chunk."""
    body = (struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
            + struct.pack("<4sI", b"data", len(payload)) + payload + b"\x00" * (len(payload) % 2))
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def float32_wav(path, samples, rate=48000):
    """(channels, m) samples as a plain IEEE float32 WAV, laid out with
    struct, so that NaN and infinities go in as they are."""
    data = np.asarray(samples, dtype="<f4")
    align = 4 * data.shape[0]
    fmt = struct.pack("<HHIIHH", 3, data.shape[0], rate, rate * align, align, 32)
    riff_wav(path, fmt, data.T.tobytes())


def report_csv(path):
    """A `simulate` report CSV as its per-band rows, one column per header
    name (a silent path's level reads -inf), and its summary lines as
    {name: text}."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    with open(path) as fh:
        summary = dict(ln[2:].rstrip("\n").split(" = ") for ln in fh if ln.startswith("# "))
    return rows, summary


@pytest.fixture
def order(request, monkeypatch):
    """Runs a test on banks of order request.param (used as an indirect
    parameter). The bank is always gammatone.ORDER = 4, but the closed
    forms (_impulse_bands, _band_spectra, _ring_tail) and analyze are
    written for any order, and orders 1-3 check the binomial factor and
    the powers that order 4 alone could get right by accident. ORDER and
    its bandwidth factor are swapped for the test; _meter_weights stays at
    order 4, so such a test must not read band energies, and must leave
    the cached _synthesis_design alone."""
    n = request.param
    factor = 1.0 / (
        math.pi * math.factorial(2 * n - 2) * 2.0 ** -(2 * n - 2) / math.factorial(n - 1) ** 2
    )
    if n == gammatone.ORDER:
        assert factor == gammatone._BANDWIDTH_FACTOR
    monkeypatch.setattr(gammatone, "ORDER", n)
    monkeypatch.setattr(gammatone, "_BANDWIDTH_FACTOR", factor)
    return n


@pytest.fixture(scope="session")
def spec48():
    return make_spec(48000, 80.0, 16000.0)


def _fixture(seed, notch=(), t60_ms=300.0, length_ms=1000.0):
    return synth_rir(
        SyntheticRirParams(
            sample_rate=48000,
            length_ms=length_ms,
            t60_ms=t60_ms,
            direct_delay_ms=3.0,
            notch=notch,
            seed=seed,
        )
    )


@pytest.fixture(scope="session")
def fixture_rirs():
    """The pinned room stand-in: notched primaries, flat supports."""
    return RirSet(
        primary_left=_fixture(201, NOTCH_1K),
        primary_right=_fixture(202, NOTCH_1K),
        support_left=_fixture(203),
        support_right=_fixture(204),
    )


@pytest.fixture(scope="session")
def solved_design(fixture_rirs, spec48):
    return solve_design(fixture_rirs, spec48, TargetFunction())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(4242)
