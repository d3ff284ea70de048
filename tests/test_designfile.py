import os
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roomfill.designfile import (
    FORMAT_VERSION,
    dumps_design,
    load_design,
    loads_design,
    save_design,
)
from roomfill.errors import FormatError
from roomfill.gammatone import make_spec
from roomfill.render import DELAY_RANGE_MS, EqualisationDesign, SupportChain
from roomfill.rirs import CHANNEL_NAMES
from roomfill.solver import G_MAX, BandGainSet, ChannelSolve
from roomfill.target import TargetFunction

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _specs(draw):
    """A bank at a WAV rate over a drawn span: f_low in [20, 1000] Hz and
    f_high in [f_low, 16000] Hz. make_spec runs check_bank and the Nyquist
    check, so a drawn span that either refused would fail the test."""
    f_low = draw(st.floats(20.0, 1000.0))
    f_high = draw(st.floats(f_low, 16000.0))
    return make_spec(draw(st.sampled_from((44100, 48000))), f_low, f_high)


SPECS = _specs()
TARGETS = st.builds(TargetFunction, FINITE)

#: What dumps_design wrote in format versions 1 to 3, for one two-band
#: design: version 2 dropped [filterbank] order and [target] f_ref_low,
#: f_ref_high and offset_db, version 3 [render] decorrelator_len,
#: seed_left and seed_right, and version 4 [filterbank] bands_per_erb.
OLD_DESIGNS = {
    version: os.path.join(os.path.dirname(__file__), "design_v%d.txt" % version)
    for version in (1, 2, 3)
}
CHAINS = st.builds(SupportChain, st.floats(*DELAY_RANGE_MS))


def test_save_load_round_trip(tmp_path, solved_design):
    path = tmp_path / "design.txt"
    save_design(solved_design, path)
    back = load_design(path)

    assert back.spec == solved_design.spec
    assert back.target == solved_design.target
    assert back.chain == solved_design.chain
    assert back.balance_gains == solved_design.balance_gains
    for side in ("left", "right"):
        got = getattr(back.gains, side)
        want = getattr(solved_design.gains, side)
        assert np.array_equal(got.gains, want.gains)
        assert np.array_equal(got.residual_db, want.residual_db)
        assert got.offset_db == want.offset_db
        assert got.converged == want.converged
        assert got.iterations_used == want.iterations_used
        front_got = getattr(back.front_gains, side)
        front_want = getattr(solved_design.front_gains, side)
        assert np.array_equal(front_got.gains, front_want.gains)


def test_redump_of_loaded_design_is_byte_identical(solved_design):
    text = dumps_design(solved_design)
    assert dumps_design(loads_design(text)) == text


def test_unsupported_version_rejected(solved_design):
    text = dumps_design(solved_design).replace("format_version = 4", "format_version = 99")
    with pytest.raises(FormatError, match="format_version 99 is not supported"):
        loads_design(text)


def test_version_1_file_refused_by_its_version():
    """An older file is named by its version before any of its keys that
    later versions dropped are read, and there is no fallback reader: its
    gains must be solved again."""
    assert FORMAT_VERSION == 4
    dropped = {
        1: ("order = 4", "f_ref_low = 20.0"),
        2: ("seed_left = 5240",),
        3: ("bands_per_erb = 1.0",),
    }
    for version, path in OLD_DESIGNS.items():
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        assert "format_version = %d\n" % version in text
        assert all(line in text for line in dropped[version])
        with pytest.raises(FormatError, match=r"format_version %d is not supported "
                           r"\(expected 4\): run `design` again" % version):
            loads_design(text)
        with pytest.raises(FormatError, match="format_version %d" % version):
            load_design(path)


@pytest.mark.parametrize("rate", (96000, 32000))
def test_design_rate_must_be_a_wav_rate(solved_design, tmp_path, rate):
    """Every WAV a design renders or simulates is 44.1 or 48 kHz, so a
    design at another rate is refused on load, naming the key and both
    rates."""
    path = tmp_path / "design.txt"
    path.write_text(dumps_design(solved_design).replace(
        "sample_rate = 48000", "sample_rate = %d" % rate))
    with pytest.raises(FormatError, match=re.escape(
            "[filterbank] sample_rate: %d Hz is not a WAV rate, expected one of "
            "[44100, 48000]" % rate)):
        load_design(path)


def test_missing_section_rejected(solved_design):
    text = dumps_design(solved_design)
    head = text.index("[fill_right]")
    tail = text.index("[front_left]")
    with pytest.raises(FormatError):
        loads_design(text[:head] + text[tail:])


def test_unknown_key_rejected(solved_design):
    text = dumps_design(solved_design).replace(
        "[render]\ndelay_ms", "[render]\nreverb = wet\ndelay_ms"
    )
    with pytest.raises(FormatError):
        loads_design(text)


def test_gain_count_must_match_filterbank(solved_design):
    text = dumps_design(solved_design)
    for line in text.splitlines():
        if line.startswith("gains = "):
            broken = text.replace(line, line + ", 1.0", 1)
            break
    with pytest.raises(FormatError):
        loads_design(broken)


def test_not_a_design_file_rejected():
    with pytest.raises(FormatError):
        loads_design("just some prose, no sections at all")
    with pytest.raises(FormatError):
        loads_design("[design]\nformat_version = 4\n")  # sections missing
    for text in ("[filterbank]\nf_low = 80.0\n", "[design]\nformat_version = two\n"):
        with pytest.raises(FormatError, match=r"no whole-number \[design\] format_version"):
            loads_design(text)


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("gains", "nan", "[fill_left] gains"),
        ("gains", "inf", "[fill_left] gains"),
        ("gains", "-0.5", "[fill_left] gains"),
        ("gains", "abc", "[fill_left] gains"),
        ("iterations_used", "x", "[fill_left] iterations_used"),
        ("support_left", "-1.0", "[balance] support_left"),
        ("support_left", "nan", "[balance] support_left"),
        ("support_left", "0.0", "[balance] support_left"),
        ("sample_rate", "48k", "[filterbank] sample_rate"),
        ("offset_db", "nan", "[fill_left] offset_db"),
        ("offset_db", "inf", "[front_right] offset_db"),
        ("residual_db", "inf", "[fill_left] residual_db"),
        ("residual_db", "nan", "[front_left] residual_db"),
        ("converged", "maybe", "[fill_left] converged"),
        ("slope_db", "nan", "[target] slope_db"),
        ("delay_ms", "-inf", "[render] delay_ms"),
        ("sample_rate", "0", "[filterbank]"),
    ],
)
def test_unplayable_or_unparsable_value_rejected_naming_key(solved_design, key, value, named):
    text = dumps_design(solved_design)
    start = text.index(named[: named.index("]") + 1])
    head, _, rest = text[start:].partition("\n%s = " % key)
    # a per-band row keeps its other entries, so only the edited value is wrong
    tail = rest[rest.index("," if key in ("gains", "residual_db") else "\n") :]
    with pytest.raises(FormatError, match=re.escape(named)):
        loads_design("%s%s\n%s = %s%s" % (text[:start], head, key, value, tail))


@given(
    data=st.data(),
    spec=SPECS,
    chain=CHAINS,
    target=TARGETS,
    balance=st.lists(st.floats(1e-6, 1e6), min_size=4, max_size=4),
)
def test_round_trip_of_drawn_designs(data, spec, chain, target, balance):
    n = spec.num_bands

    def solve():
        return ChannelSolve(
            gains=data.draw(arrays(np.float64, n, elements=st.floats(0.0, G_MAX))),
            offset_db=data.draw(FINITE),
            residual_db=data.draw(arrays(np.float64, n, elements=FINITE)),
            iterations_used=data.draw(st.integers(0, 10**6)),
            converged=data.draw(st.booleans()),
        )

    solves = [solve() for _ in range(4)]
    design = EqualisationDesign(
        spec=spec,
        gains=BandGainSet(spec, solves[0], solves[1]),
        front_gains=BandGainSet(spec, solves[2], solves[3]),
        target=target,
        balance_gains=dict(zip(CHANNEL_NAMES, balance)),
        chain=chain,
    )
    text = dumps_design(design)
    back = loads_design(text)
    assert dumps_design(back) == text
    assert back.spec == design.spec
    assert back.chain == chain
    assert back.target == target
    assert back.balance_gains == design.balance_gains
    loaded = (back.gains.left, back.gains.right, back.front_gains.left, back.front_gains.right)
    for got, want in zip(loaded, solves):
        assert np.array_equal(got.gains, want.gains)
        assert np.array_equal(got.residual_db, want.residual_db)
        assert got.offset_db == want.offset_db
        assert got.iterations_used == want.iterations_used
        assert got.converged == want.converged
