import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomfill import config
from roomfill.audio import AudioBuffer, write_wav
from roomfill.cli import main
from roomfill.config import _DEFAULTS, _IO_KEYS, load_config
from roomfill.errors import ConfigError
from roomfill.render import SupportChain
from roomfill.target import TargetFunction

MINIMAL_IO = """[io]
primary_left = pl.wav
primary_right = pr.wav
support_left = sl.wav
support_right = sr.wav
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_defaults_fill_every_tunable(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL_IO))
    assert cfg.f_low == 80.0
    assert cfg.f_high == 16000.0
    assert cfg.target == TargetFunction(slope_db=5.0)
    assert cfg.chain == SupportChain(delay_ms=10.0)
    assert sum(map(len, _DEFAULTS.values())) == 4


def test_values_override_defaults(tmp_path):
    text = MINIMAL_IO + "\n[target]\nslope_db = 3.5\n\n[render]\ndelay_ms = 12.5\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg.target.slope_db == 3.5
    assert cfg.chain.delay_ms == 12.5
    assert (cfg.f_low, cfg.f_high) == (80.0, 16000.0)  # untouched defaults


@pytest.mark.parametrize(
    "section, line",
    [
        ("render", "delay_ms = 1"),
        ("target", "slope_db = nan"),
        ("render", "delay_ms = nan"),
        ("render", "delay_ms = inf"),
        ("filterbank", "f_low = nan"),
        ("filterbank", "f_low = 0"),
    ],
)
def test_out_of_range_value_fails_at_load_for_every_command(tmp_path, capsys, section, line):
    path = _write(tmp_path, MINIMAL_IO + "\n[%s]\n%s\n" % (section, line))
    with pytest.raises(ConfigError, match=r"^\[%s\] " % section):
        load_config(path)
    # simulate reads the config before the design, and never solves
    rc = main(["simulate", "--design", str(tmp_path / "none.txt"), "--config", str(path)])
    assert rc == 2
    assert "[%s]" % section in capsys.readouterr().err


def test_unknown_section_is_fatal(tmp_path):
    with pytest.raises(ConfigError, match="speakers"):
        load_config(_write(tmp_path, MINIMAL_IO + "\n[speakers]\ncount = 4\n"))


# Keys that earlier configs could set and that no longer exist, with the
# section and a value they took: [target]'s reference span and offset,
# which changed no design but the slope, and the solver's tolerance, cap,
# damping and anchor mode, the decorrelator pair and the bank's bands per
# ERB, which are now constants.
_DROPPED_KEYS = {
    "f_ref_low": ("target", "20.0"),
    "f_ref_high": ("target", "20000.0"),
    "offset_db": ("target", "0.0"),
    "tolerance_db": ("solver", "0.5"),
    "max_iterations": ("solver", "50"),
    "damping": ("solver", "0.7"),
    "anchor_mode": ("solver", "percentile-95"),
    "decorrelator_len": ("render", "1024"),
    "seed_left": ("render", "5240"),
    "seed_right": ("render", "12002"),
    "bands_per_erb": ("filterbank", "1.0"),
}


@pytest.mark.parametrize("key", _DROPPED_KEYS)
def test_dropped_target_keys_are_refused_by_name(tmp_path, capsys, monkeypatch, key):
    """A config that still sets a dropped key, even to the value every run
    now uses, is refused by name rather than read as another design:
    load_config raises, and design and simulate exit 2 before they read a
    WAV. A key of the dropped [solver] section is refused by the section's
    name."""
    section, value = _DROPPED_KEYS[key]
    path = _write(tmp_path, MINIMAL_IO + "\n[%s]\n%s = %s\n" % (section, key, value))
    if section in _DEFAULTS:
        named = "unknown key '%s' in section [%s]" % (key, section)
    else:
        named = "unknown section [%s]" % section
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(path)

    def no_read(path):
        raise AssertionError("read %s" % path)

    monkeypatch.setattr(config, "read_wav", no_read)
    for argv in (["design", "--config", str(path)],
                 ["simulate", "--design", str(tmp_path / "none.txt"), "--config", str(path)]):
        assert main(argv) == 2
        assert named in capsys.readouterr().err


def test_unknown_key_is_fatal_and_named(tmp_path):
    text = MINIMAL_IO + "\n[target]\ntolerence_db = 0.5\n"
    with pytest.raises(ConfigError, match="tolerence_db"):
        load_config(_write(tmp_path, text))


# a valid run.ini with every section present, one line per entry
_FULL_CONFIG = {
    "io": MINIMAL_IO.splitlines()[1:],
    "filterbank": ["f_low = 80.0"],
    "target": ["slope_db = 5.0"],
    "render": ["delay_ms = 10.0"],
}
_KNOWN_KEYS = {"io": set(_IO_KEYS), **{name: set(keys) for name, keys in _DEFAULTS.items()}}


@st.composite
def _unknown_key(draw):
    """A section and a key it does not know: often one that another
    section knows, otherwise any INI-safe name, case kept."""
    section = draw(st.sampled_from(sorted(_FULL_CONFIG)))
    every_key = sorted(set().union(*_KNOWN_KEYS.values()))
    key = draw(
        st.one_of(
            st.sampled_from(every_key),
            st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,15}", fullmatch=True),
        ).filter(lambda k: k not in _KNOWN_KEYS[section])
    )
    return section, key


@settings(max_examples=60)
@given(_unknown_key())
def test_any_unknown_key_in_any_section_is_fatal_and_named(tmp_path_factory, drawn):
    section, key = drawn
    lines = []
    for name, entries in _FULL_CONFIG.items():
        lines.append("[%s]" % name)
        lines.extend(entries)
        if name == section:
            lines.append("%s = 1" % key)
    path = _write(tmp_path_factory.mktemp("fuzz"), "\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert repr(key) in str(err.value)
    assert "[%s]" % section in str(err.value)


def test_unknown_io_key_is_fatal(tmp_path):
    with pytest.raises(ConfigError, match="primary_centre"):
        load_config(_write(tmp_path, MINIMAL_IO + "primary_centre = c.wav\n"))


def test_non_numeric_value_is_fatal(tmp_path):
    text = MINIMAL_IO + "\n[render]\ndelay_ms = many\n"
    with pytest.raises(ConfigError, match="delay_ms"):
        load_config(_write(tmp_path, text))


def test_missing_channel_is_fatal(tmp_path):
    text = MINIMAL_IO.replace("support_right = sr.wav\n", "")
    with pytest.raises(ConfigError, match="support_right"):
        load_config(_write(tmp_path, text))


def test_missing_io_section_is_fatal(tmp_path):
    with pytest.raises(ConfigError, match="io"):
        load_config(_write(tmp_path, "[render]\ndelay_ms = 12.5\n"))


def test_single_path_and_pair_are_mutually_exclusive(tmp_path):
    text = MINIMAL_IO + "support_right_a = a.wav\nsupport_right_b = b.wav\n"
    with pytest.raises(ConfigError, match="support_right"):
        load_config(_write(tmp_path, text))


def test_incomplete_pair_is_fatal(tmp_path):
    text = MINIMAL_IO.replace(
        "support_right = sr.wav\n", "support_right_a = a.wav\n"
    )
    with pytest.raises(ConfigError, match="support_right"):
        load_config(_write(tmp_path, text))


def test_paths_resolve_relative_to_config_file(tmp_path):
    sub = tmp_path / "cfgs"
    sub.mkdir()
    cfg = load_config(_write(sub, MINIMAL_IO + "output_dir = ../results\n"))
    assert cfg.rir_paths["primary_left"] == (str(sub / "pl.wav"),)
    assert cfg.output_dir == str(tmp_path / "results")


def test_microphone_pairs_average_on_load(tmp_path, rng):
    a = rng.standard_normal(2400) * 0.2
    b = rng.standard_normal(2400) * 0.2
    write_wav(tmp_path / "a.wav", AudioBuffer(a, 48000))
    write_wav(tmp_path / "b.wav", AudioBuffer(b, 48000))
    for name in ("pl", "pr", "sl"):
        write_wav(tmp_path / ("%s.wav" % name), AudioBuffer(a, 48000))
    text = MINIMAL_IO.replace(
        "support_right = sr.wav\n",
        "support_right_a = a.wav\nsupport_right_b = b.wav\n",
    )
    rirs = load_config(_write(tmp_path, text)).load_rirs()
    want = 0.5 * (
        a.astype(np.float32).astype(np.float64) + b.astype(np.float32).astype(np.float64)
    )
    assert np.array_equal(rirs.support_right.data, want)


@pytest.mark.parametrize("rate, need", ((44100, 1867), (48000, 2032)))
def test_response_shorter_than_the_bank_needs_is_refused(tmp_path, rate, need):
    """check_lengths refuses a response whose last sample comes before the
    bank's lowest band has rung down to 1e-3 of its energy, naming the
    [io] key, the file and both lengths; one sample more passes."""
    full = np.full(need, 0.1)
    for name in ("pl", "pr", "sl"):
        write_wav(tmp_path / ("%s.wav" % name), AudioBuffer(full, rate))
    cfg = load_config(_write(tmp_path, MINIMAL_IO))
    write_wav(tmp_path / "sr.wav", AudioBuffer(full[1:], rate))
    with pytest.raises(ConfigError, match=r"^\[io\] support_right: sr.wav has %d samples "
                       r".*needs at least %d " % (need - 1, need)):
        cfg.check_lengths(cfg.load_rirs(), cfg.filterbank(rate))
    write_wav(tmp_path / "sr.wav", AudioBuffer(full, rate))
    cfg.check_lengths(cfg.load_rirs(), cfg.filterbank(rate))
    # the need is the given bank's: a higher f_low rings down sooner
    narrow = load_config(_write(tmp_path, MINIMAL_IO + "\n[filterbank]\nf_low = 1000.0\n"))
    write_wav(tmp_path / "sr.wav", AudioBuffer(full[: need // 2], rate))
    narrow.check_lengths(narrow.load_rirs(), narrow.filterbank(rate))
    with pytest.raises(ConfigError, match="needs at least %d " % need):
        narrow.check_lengths(narrow.load_rirs(), cfg.filterbank(rate))


def test_filterbank_accessor_builds_spec(tmp_path):
    text = MINIMAL_IO + "\n[filterbank]\nf_low = 100.0\nf_high = 8000.0\n"
    cfg = load_config(_write(tmp_path, text))
    spec = cfg.filterbank(48000)
    assert spec.center_freqs[0] == 100.0
    assert spec.center_freqs[-1] <= 8000.0
    assert cfg.target.slope_db == 5.0

