import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import lfilter

import roomfill
from roomfill import solver
from roomfill.audio import AudioBuffer, WavReader, read_wav, write_wav
from roomfill.cli import MAX_DEVIATION_DB, main
from roomfill.designfile import load_design, save_design
from roomfill.gammatone import EQ_IR_LEN, band_gain_eq, make_spec
from roomfill.render import (
    DEFAULT_DECORRELATOR_LEN,
    RENDER_MODES,
    EqualisationDesign,
    RenderStream,
    SupportChain,
    render,
    support_chain_latency,
)
from roomfill.simulate import SyntheticRirParams, synth_rir
from roomfill.solver import BandGainSet, ChannelSolve
from roomfill.target import TargetFunction

from conftest import float32_wav, pcm_wav, report_csv

RUN_INI = """[io]
primary_left = pl.wav
primary_right = pr.wav
support_left = sl.wav
support_right = sr.wav
output_dir = out
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small flat fixture quad plus a config, solving in a second or two."""
    root = tmp_path_factory.mktemp("cli")
    for name, seed in (("pl", 301), ("pr", 309), ("sl", 303), ("sr", 304)):
        ir = synth_rir(
            SyntheticRirParams(48000, 500.0, 150.0, direct_delay_ms=2.0, seed=seed)
        )
        write_wav(root / ("%s.wav" % name), ir.buffer)

    # a support with essentially no energy below 2 kHz: unfillable bass
    w = 2.0 * math.pi * 2000.0 / 48000.0
    alpha = math.sin(w) / math.sqrt(2.0)
    cw = math.cos(w)
    b = np.array([(1 + cw) / 2, -(1 + cw), (1 + cw) / 2])
    a = np.array([1 + alpha, -2 * cw, 1 - alpha])
    b, a = b / a[0], a / a[0]
    dull = synth_rir(
        SyntheticRirParams(48000, 500.0, 150.0, direct_delay_ms=2.0, seed=305)
    ).data
    for _ in range(10):
        dull = lfilter(b, a, dull)
    write_wav(root / "bright.wav", AudioBuffer(dull, 48000))

    (root / "run.ini").write_text(RUN_INI)
    return root


@pytest.fixture(scope="module")
def designed(workspace):
    rc = main(["design", "--config", str(workspace / "run.ini")])
    assert rc == 0
    return workspace / "out" / "design.txt"


def test_synth_rir_writes_wav(tmp_path, capsys):
    out = tmp_path / "room.wav"
    rc = main(
        ["synth-rir", "-o", str(out), "--t60-ms", "120", "--length-ms", "400",
         "--notch", "1500,12,2", "--seed", "7"]
    )
    assert rc == 0
    assert "notch 1500 Hz" in capsys.readouterr().out
    buf = read_wav(out)
    assert buf.sample_rate == 48000
    assert buf.num_samples == 19200


def test_synth_rir_rejects_malformed_notch(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth-rir", "-o", str(tmp_path / "x.wav"), "--notch", "1000,15"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--direct-amplitude", "nan", "direct_amplitude"),
        ("--length-ms", "nan", "length_ms"),
        ("--t60-ms", "inf", "t60_ms"),
        ("--direct-delay-ms", "nan", "direct_delay_ms"),
        ("--notch", "1000,nan,3", "coloration"),
        ("--notch", "1000,15,0", "notch q"),
        ("--notch", "1000,15,-3", "notch q"),
        ("--notch", "0,15,3", "notch centre"),
        ("--notch", "24000,15,3", "notch centre"),
        ("--notch", "30000,15,3", "notch centre"),
        ("--notch", "1000,-20000,3", "notch depth"),
        ("--notch", "1000,20000,3", "notch depth"),
        ("--notch", "1000,-1000,3", "notch depth"),
        ("--seed", "-1", "seed"),
    ],
)
def test_synth_rir_rejects_unusable_number_exits_2(tmp_path, capsys, option, value, named):
    out = tmp_path / "x.wav"
    rc = main(["synth-rir", "-o", str(out), "--length-ms", "400", "--t60-ms", "120",
               option, value])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_cli_is_the_pipeline_commands_only(workspace, designed, tmp_path, capsys):
    """`roomfill --help` lists synth-rir, design, render and simulate and
    nothing else. Averaging two captures, printing a report, simulating
    one channel, rendering to an integer format and setting the deviation
    budget are not commands: argparse refuses each with exit 2 before
    anything is written."""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^    (\S+)", capsys.readouterr().out, re.M)
    assert listed == ["synth-rir", "design", "render", "simulate"]

    for argv in (
        ["avg-rir", str(workspace / "pl.wav"), str(workspace / "pr.wav"),
         "-o", str(tmp_path / "avg.wav")],
        ["report", str(tmp_path / "report_left.csv")],
        ["simulate", "--design", str(designed), "--config", str(workspace / "run.ini"),
         "-o", str(tmp_path / "r.csv"), "--channel", "left"],
        ["render", "--design", str(designed), "-i", str(workspace / "pl.wav"),
         "-o", str(tmp_path / "x.wav"), "--bit-depth", "16"],
        ["simulate", "--design", str(designed), "--config", str(workspace / "run.ini"),
         "-o", str(tmp_path / "r.csv"), "--max-deviation-db", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_design_solves_and_reports(workspace, designed, capsys):
    assert designed.exists()
    design = load_design(designed)
    assert design.gains.left.converged
    assert design.gains.right.converged
    assert np.all(design.gains.left.gains >= 0.0)


def test_design_reruns_byte_identical(workspace, designed):
    again = workspace / "again.txt"
    rc = main(["design", "--config", str(workspace / "run.ini"), "-o", str(again)])
    assert rc == 0
    assert again.read_bytes() == designed.read_bytes()


def test_design_file_carries_configured_chain_and_target(workspace, tmp_path):
    cfg = workspace / "chain.ini"
    cfg.write_text(RUN_INI + "\n[render]\ndelay_ms = 12.5\n\n[target]\nslope_db = 3.5\n")
    out = tmp_path / "chain.txt"
    assert main(["design", "--config", str(cfg), "-o", str(out)]) == 0
    text = out.read_text()
    assert "[render]\ndelay_ms = 12.5\n\n[balance]\n" in text
    assert "[target]\nslope_db = 3.5\n" in text
    design = load_design(out)
    assert design.chain == SupportChain(delay_ms=12.5)
    assert design.target.slope_db == 3.5


def test_design_unknown_key_exits_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(RUN_INI.replace("[io]", "[io]\n") + "\n[target]\ndampening = 0.7\n")
    rc = main(["design", "--config", str(bad)])
    assert rc == 2
    assert "dampening" in capsys.readouterr().err


def test_design_iteration_cap_exits_3_with_best_effort(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
    out = tmp_path / "best.txt"
    rc = main(["design", "--config", str(workspace / "run.ini"), "-o", str(out)])
    assert rc == 3
    assert out.exists()
    printed = capsys.readouterr().out
    assert "NOT converged after 2 iterations, at the cap, best at iteration 2" in printed


def test_design_names_a_stalled_solve_and_exits_3(tmp_path, monkeypatch, capsys):
    """On the pinned room cut to 0.3 s the front solves stall short of
    their tolerance: `design` says so with each one's best iteration,
    writes the best-effort design and exits 3."""
    _write_short_room(tmp_path)
    (tmp_path / "run.ini").write_text(
        "[io]\n" + "".join("%s = %s.wav\n" % (n, n) for n in _ROOM) + "output_dir = out\n"
    )
    monkeypatch.chdir(tmp_path)
    assert main(["design", "--config", "run.ini"]) == 3
    assert (tmp_path / "out" / "design.txt").exists()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[:4]] == [
        "fill left:   converged in 19 iterations",
        "fill right:  converged in 16 iterations",
        "front left:  NOT converged after 15 iterations",
        "front right: NOT converged after 29 iterations",
    ]
    assert ", stalled, best at iteration 7," in lines[2]
    assert ", stalled, best at iteration 21," in lines[3]


def test_design_non_finite_response_exits_2_naming_file(workspace, capsys):
    broken = read_wav(workspace / "pl.wav").samples.copy()
    broken[0, 100] = np.nan
    float32_wav(workspace / "nan.wav", broken)
    cfg = workspace / "nan.ini"
    cfg.write_text(RUN_INI.replace("primary_left = pl.wav", "primary_left = nan.wav"))
    rc = main(["design", "--config", str(cfg)])
    assert rc == 2
    assert "nan.wav" in capsys.readouterr().err


def test_design_f_high_past_nyquist_exits_2_naming_section_and_rate(tmp_path, capsys):
    """f_high = 23000 passes the load-time checks, which hold at any rate
    whose Nyquist frequency lies above it, but 44.1 kHz responses put it
    past theirs: design refuses it by section and rate."""
    for name, seed in (("pl", 1), ("pr", 2), ("sl", 3), ("sr", 4)):
        ir = synth_rir(SyntheticRirParams(44100, 200.0, 50.0, seed=seed))
        write_wav(tmp_path / ("%s.wav" % name), ir.buffer)
    (tmp_path / "run.ini").write_text(RUN_INI + "\n[filterbank]\nf_high = 23000\n")
    rc = main(["design", "--config", str(tmp_path / "run.ini")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [filterbank] f_high 23000 Hz")
    assert "22050 Hz at 44100 Hz" in err
    assert not (tmp_path / "out").exists()


def test_responses_too_short_for_the_bank_exit_2(designed, tmp_path, capsys):
    """Four 5 ms responses (240 samples) would measure the 80 Hz band's own
    ringing, not the room: design and simulate refuse them, naming the
    [io] key, the file's length and the 2032 samples the default bank
    needs at 48 kHz."""
    for name, seed in (("pl", 1), ("pr", 2), ("sl", 3), ("sr", 4)):
        ir = synth_rir(SyntheticRirParams(48000, 5.0, 1.5, seed=seed))
        write_wav(tmp_path / ("%s.wav" % name), ir.buffer)
    ini = str(tmp_path / "run.ini")
    (tmp_path / "run.ini").write_text(RUN_INI)
    for argv in (["design", "--config", ini], ["simulate", "--design", str(designed), "--config", ini]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [io] primary_left: pl.wav has 240 samples (5.0 ms at 48000 Hz)")
        assert "needs at least 2032 (42.3 ms)" in err
    assert not (tmp_path / "out").exists()


def test_design_unfillable_exits_4_naming_bands(workspace, capsys):
    unfill = workspace / "unfill.ini"
    unfill.write_text(
        RUN_INI.replace("support_left = sl.wav", "support_left = bright.wav")
    )
    rc = main(["design", "--config", str(unfill)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "80.0 Hz" in err


def test_render_writes_four_channels(workspace, designed, tmp_path, capsys):
    stereo = tmp_path / "in.wav"
    rng = np.random.default_rng(8)
    write_wav(stereo, AudioBuffer(rng.standard_normal((2, 2000)) * 0.1, 48000))
    out = tmp_path / "cond.wav"
    rc = main(["render", "--design", str(designed), "-i", str(stereo), "-o", str(out)])
    assert rc == 0
    assert read_wav(out).num_channels == 4
    text = capsys.readouterr().out
    expected = support_chain_latency(load_design(designed), "left")
    assert "chain latency: FL 0 samples" in text
    assert ("SL %d samples" % expected) in text


@pytest.mark.parametrize("mode", ("stereo", "front_eq", "proposed"))
def test_render_of_empty_programme_writes_empty_float32_file(designed, tmp_path, mode):
    """A 0-frame 16-bit stereo programme renders to a 4-channel, 0-frame
    float32 file."""
    stereo = tmp_path / "empty.wav"
    pcm_wav(stereo, np.zeros((2, 0), dtype=int), 2)
    out = tmp_path / "out.wav"
    rc = main(["render", "--design", str(designed), "-i", str(stereo), "-o", str(out),
               "--mode", mode])
    assert rc == 0
    assert read_wav(out).samples.shape == (4, 0)
    assert struct.unpack("<HHIIHH", out.read_bytes()[20:36])[::5] == (3, 32)  # float32


def test_render_rejects_mono_input(workspace, designed, tmp_path, capsys):
    mono = tmp_path / "mono.wav"
    write_wav(mono, AudioBuffer(np.zeros((1, 64)), 48000))
    rc = main(["render", "--design", str(designed), "-i", str(mono),
               "-o", str(tmp_path / "x.wav")])
    assert rc == 2
    assert "stereo" in capsys.readouterr().err


def test_render_rejects_unplayable_design_naming_key(designed, tmp_path, capsys):
    bad = tmp_path / "inverted.txt"
    bad.write_text(designed.read_text().replace("support_left = ", "support_left = -", 1))
    stereo = tmp_path / "in.wav"
    write_wav(stereo, AudioBuffer(np.zeros((2, 64)), 48000))
    rc = main(["render", "--design", str(bad), "-i", str(stereo), "-o", str(tmp_path / "x.wav")])
    assert rc == 2
    assert "[balance] support_left" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def test_render_refuses_a_design_rate_no_wav_has(designed, tmp_path, capsys):
    """A design at 96 kHz can never meet its input, since every WAV is
    44.1 or 48 kHz: render refuses it by the design's rate, before it fits
    a 96 kHz bank or reads the input."""
    bad = tmp_path / "fast.txt"
    bad.write_text(designed.read_text().replace("sample_rate = 48000", "sample_rate = 96000"))
    stereo = tmp_path / "in.wav"
    write_wav(stereo, AudioBuffer(np.zeros((2, 64)), 48000))
    rc = main(["render", "--design", str(bad), "-i", str(stereo), "-o", str(tmp_path / "x.wav")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "[filterbank] sample_rate: 96000 Hz is not a WAV rate" in err
    assert "[44100, 48000]" in err
    assert not (tmp_path / "x.wav").exists()


def test_version_1_design_exits_2_naming_version(workspace, tmp_path, capsys):
    """A design file of an older format version (design_v1.txt to
    design_v3.txt) is refused by render and simulate alike, by its
    version, with the way to a new one."""
    stereo = tmp_path / "in.wav"
    write_wav(stereo, AudioBuffer(np.zeros((2, 64)), 48000))
    for version in (1, 2, 3):
        old = os.path.join(os.path.dirname(__file__), "design_v%d.txt" % version)
        for argv in (
            ["render", "--design", old, "-i", str(stereo), "-o", str(tmp_path / "x.wav")],
            ["simulate", "--design", old, "--config", str(workspace / "run.ini"),
             "-o", str(tmp_path / "r.csv")],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert ("format_version %d is not supported (expected 4): run `design` again"
                    % version) in err
    assert not (tmp_path / "x.wav").exists()
    assert not (tmp_path / "r_left.csv").exists()


def test_simulate_writes_per_channel_reports(workspace, designed, tmp_path, capsys):
    out = tmp_path / "rep.csv"
    rc = main(["simulate", "--design", str(designed),
               "--config", str(workspace / "run.ini"), "-o", str(out)])
    assert rc == 0
    assert (tmp_path / "rep_left.csv").exists()
    assert (tmp_path / "rep_right.csv").exists()
    assert not out.exists()


def test_simulate_measures_lengths_with_the_design_bank(tmp_path, capsys):
    """simulate checks the responses against the bank of the design it
    simulates, not the config's: 2300-sample responses are long enough for
    the config's 80 Hz bank (2032) but not for a 20 Hz design's (2522),
    which design refuses too, and a config whose f_high lies past the
    responses' Nyquist frequency does not stop a simulation that never
    uses its bank. Responses at another rate than the design's are refused
    by rate first."""
    design = tmp_path / "design_20hz.txt"
    save_design(_synthetic_design(48000, f_low=20.0), design)
    rng = np.random.default_rng(5)
    for name in ("pl", "pr", "sl", "sr"):
        x = np.r_[1.0, 0.1 * rng.standard_normal(2299)]
        write_wav(tmp_path / ("%s.wav" % name), AudioBuffer(x, 48000))
    ini = tmp_path / "run.ini"
    simulate = ["simulate", "--design", str(design), "--config", str(ini),
                "-o", str(tmp_path / "r.csv")]
    # under the default config, then as design refuses the room for that bank
    for filterbank, argv in (
        ("", simulate),
        ("\n[filterbank]\nf_low = 20\n", simulate),
        ("\n[filterbank]\nf_low = 20\n", ["design", "--config", str(ini)]),
    ):
        ini.write_text(RUN_INI + filterbank)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [io] primary_left: pl.wav has 2300 samples")
        assert "needs at least 2522 (52.5 ms)" in err
    assert not (tmp_path / "r_left.csv").exists()
    assert not (tmp_path / "out").exists()

    for name in ("pl", "pr", "sl", "sr"):
        x = np.r_[1.0, 0.1 * rng.standard_normal(2521)]
        write_wav(tmp_path / ("%s.wav" % name), AudioBuffer(x, 48000))
    ini.write_text(RUN_INI + "\n[filterbank]\nf_high = 30000\n")
    assert main(simulate) in (0, 1)
    assert (tmp_path / "r_left.csv").exists() and (tmp_path / "r_right.csv").exists()

    for name in ("pl", "pr", "sl", "sr"):
        x = np.r_[1.0, 0.1 * rng.standard_normal(2799)]
        write_wav(tmp_path / ("%s.wav" % name), AudioBuffer(x, 44100))
    ini.write_text(RUN_INI)
    capsys.readouterr()
    assert main(simulate) == 2
    assert "[io] the responses are at 44100 Hz, the bank that measures them at 48000 Hz" in (
        capsys.readouterr().err
    )


def test_simulate_enforces_deviation_budget(workspace, designed, tmp_path, capsys):
    """The solved design passes the fixed 1 dB budget (exit 0); the same
    design with its fill gains doubled (+6 dB of fill) misses it in some
    filled band and exits 1, still writing both reports."""
    design = load_design(designed)
    doubled = dataclasses.replace(design, gains=BandGainSet(design.spec, *(
        dataclasses.replace(s, gains=2.0 * s.gains)
        for s in (design.gains.left, design.gains.right)
    )))
    save_design(doubled, tmp_path / "doubled.txt")
    for path, status in ((designed, 0), (tmp_path / "doubled.txt", 1)):
        rc = main(["simulate", "--design", str(path), "--config", str(workspace / "run.ini"),
                   "-o", str(tmp_path / (path.stem + ".csv"))])
        worst = max(
            float(report_csv(tmp_path / ("%s_%s.csv" % (path.stem, ch)))[1][
                "max_abs_deviation_filled_bands_db"])
            for ch in ("left", "right")
        )
        assert (rc, worst > MAX_DEVIATION_DB) == (status, bool(status)), (path, worst)
    assert "exceeds the allowed 1.000 dB" in capsys.readouterr().err


# Every command in one fresh process that cannot import scipy: a finder
# placed first on sys.meta_path refuses scipy and each of its modules. The
# room is the pinned room at its full 1 s, whose solves all converge (the
# 0.3 s cut's design exits 3).
_SCIPY_BLOCKED = """
import importlib.abc
import json
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("scipy blocked: %s" % name)


sys.meta_path.insert(0, NoScipy())

import numpy as np
from roomfill.audio import AudioBuffer, write_wav
from roomfill.cli import MAX_DEVIATION_DB, main
from roomfill.render import RENDER_MODES

room = (
    ("primary_left", "201", "--notch", "1000,15,3"),
    ("primary_right", "202", "--notch", "1000,15,3"),
    ("support_left", "203"),
    ("support_right", "204"),
)
exits = [
    main(["synth-rir", "-o", name + ".wav", "--direct-delay-ms", "3", "--seed", seed] + notch)
    for name, seed, *notch in room
]
with open("run.ini", "w") as fh:
    fh.write("[io]\\n" + "".join("%s = %s.wav\\n" % (r[0], r[0]) for r in room))
    fh.write("output_dir = out\\n")
programme = np.random.default_rng(1).uniform(-0.5, 0.5, (2, 4800))
write_wav("programme.wav", AudioBuffer(programme, 48000))
exits.append(main(["design", "--config", "run.ini"]))
exits.append(main(["simulate", "--design", "out/design.txt", "--config", "run.ini"]))
for mode in RENDER_MODES:
    exits.append(main(["render", "--design", "out/design.txt", "-i", "programme.wav",
                       "-o", mode + ".wav", "--mode", mode]))
scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"exits": exits, "scipy": scipy}))
"""


_PLAYBACK = """
import sys
import numpy as np
import roomfill.cli
from roomfill.audio import AudioBuffer, ImpulseResponse, read_wav
from roomfill.gammatone import make_spec
from roomfill.pipeline import solve_design
from roomfill.render import render
from roomfill.rirs import RirSet
from roomfill.simulate import simulate_total
from roomfill.target import TargetFunction

root = sys.argv[1]
rirs = RirSet(**{
    name: ImpulseResponse(read_wav("%s/%s.wav" % (root, name)))
    for name in ("primary_left", "primary_right", "support_left", "support_right")
})
design = solve_design(rirs, make_spec(48000, 80.0, 16000.0), TargetFunction())
simulate_total(design, rirs)
programme = np.random.default_rng(1).standard_normal((2, 4800))
for mode in ("proposed", "front_eq"):
    render(AudioBuffer(programme, 48000), design, mode)
"""
_PLAYBACK_PATH = _PLAYBACK + """print(sorted(m for m in sys.modules if m.startswith("scipy.signal")))
"""

# import, first use of the default 48 kHz spec, then the playback path
_COLD_START = """
import numpy as np
import roomfill.cli
from roomfill.gammatone import band_gain_eq, impulse_band_energies, make_spec
spec = make_spec(48000, 80.0, 16000.0)
impulse_band_energies(spec)
band_gain_eq(np.ones(spec.num_bands), spec)
""" + _PLAYBACK + """print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


_ROOM = ("primary_left", "primary_right", "support_left", "support_right")


def _write_short_room(root, lengths_ms=(300.0,) * 4, names=_ROOM):
    """The pinned room cut to 0.3 s (or to `lengths_ms`, one per response):
    notched primaries, flat supports."""
    for name, seed, length_ms in zip(names, (201, 202, 203, 204), lengths_ms):
        notch = (1000.0, 15.0, 3.0) if name in names[:2] else ()
        ir = synth_rir(SyntheticRirParams(
            48000, length_ms, 100.0, direct_delay_ms=3.0, notch=notch, seed=seed,
        ))
        write_wav(root / ("%s.wav" % name), ir.buffer)


def _src_env():
    """The environment with this tree's roomfill first on PYTHONPATH, for
    fresh processes."""
    src = os.path.dirname(os.path.dirname(roomfill.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_every_command_runs_without_scipy(tmp_path):
    """numpy is roomfill's only runtime dependency: with scipy made
    unimportable, a fresh process runs synth-rir (plain and notched),
    design, simulate and render in every mode, each exiting 0, and loads
    no scipy module."""
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED],
        capture_output=True, text=True, env=_src_env(), timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result == {"exits": [0] * (4 + 2 + len(RENDER_MODES)), "scipy": []}


def test_design_simulate_render_path_never_loads_scipy_signal(tmp_path):
    """Importing scipy.signal takes about a second, so it stays off the
    path every command runs: a fresh process that imports the CLI and
    then solves, simulates and renders a small room has not loaded it."""
    _write_short_room(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", _PLAYBACK_PATH, str(tmp_path)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_design_simulate_render_path_never_loads_scipy(tmp_path):
    """roomfill needs scipy only for the reference filterbank and the
    fixture generator, so a fresh process that imports the CLI, builds
    the default bank, then solves, simulates and renders a small room has
    loaded no scipy module at all."""
    _write_short_room(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def _meter_builds(root, argv):
    """Exit status and meter builds ({"n": n, "m": FFT length} each) of
    one command in a fresh process, counted by meter_builds.py."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "meter_builds.py")
    done = subprocess.run(
        [sys.executable, script] + argv,
        capture_output=True, text=True, env=_src_env(), timeout=120, cwd=root,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["exit"], result["builds"]


@pytest.mark.parametrize("lengths_ms", [
    (300.0, 300.0, 300.0, 300.0),
    (1000.0, 1000.0, 500.0, 500.0),
    (300.0, 350.0, 300.0, 350.0),
], ids=["equal", "long-primaries", "uneven-sides"])
def test_design_and_simulate_build_each_meter_once(tmp_path, lengths_ms):
    """Every solve and simulation of a room measures through one meter,
    sized by pipeline.room_meter: a fresh `design` builds it once for its
    four solves and a fresh `simulate` once for both channels, at the same
    n, whatever the responses' lengths."""
    _write_short_room(tmp_path, lengths_ms)
    (tmp_path / "run.ini").write_text(
        "[io]\n" + "".join("%s = %s.wav\n" % (n, n) for n in _ROOM) + "output_dir = out\n"
    )
    status, designed = _meter_builds(tmp_path, ["design", "--config", "run.ini"])
    assert status in (0, 3)  # a best-effort design is written too
    status, simulated = _meter_builds(
        tmp_path, ["simulate", "--design", "out/design.txt", "--config", "run.ini"]
    )
    assert status == 0
    assert len(designed) == len(simulated) == 1
    assert designed == simulated


_LIBRARY = ("audio", "config", "designfile", "errors", "gammatone", "pipeline", "render",
            "rirs", "simulate", "solver", "target")

_IMPORTED = """
import json, sys
import %s
import roomfill
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.partition(".")[0] == "roomfill"),
    "attributes": sorted(name for name, value in vars(roomfill).items()
                         if value is sys.modules.get("roomfill." + name)),
}))
"""


@pytest.mark.parametrize("module", ["roomfill", "roomfill.gammatone", "roomfill.cli"])
def test_the_package_loads_every_library_module(module):
    """The modules are the public surface: in a fresh process, importing
    the package or any one library module (perfbench's set-up probe
    imports roomfill.gammatone) loads the package and all eleven library
    modules, the CLI adds itself alone, and the package exposes each
    module as its attribute."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTED % module],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    library = ["roomfill"] + ["roomfill." + name for name in _LIBRARY]
    assert result["loaded"] == sorted(library + ([module] if module == "roomfill.cli" else []))
    assert result["attributes"] == sorted(
        _LIBRARY + (("cli",) if module == "roomfill.cli" else ())
    )


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The python block under README's `## Library use` runs as written on
    four 0.3 s responses in the working directory, and each deviation it
    prints is within simulate's budget."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")) as fh:
        readme = fh.read()
    section = readme.split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    _write_short_room(tmp_path, names=("pl", "pr", "sl", "sr"))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert len(printed) == 2 and all(0.0 <= v <= MAX_DEVIATION_DB for v in printed)


def test_missing_file_exits_2(designed, tmp_path, capsys):
    """A path that names no file fails its read with an OSError, which
    main turns into exit 2 naming the path."""
    stereo = tmp_path / "in.wav"
    write_wav(stereo, AudioBuffer(np.zeros((2, 64)), 48000))
    for argv, missing in (
        (["render", "--design", str(tmp_path / "nope.txt"), "-i", str(stereo),
          "-o", str(tmp_path / "x.wav")], "nope.txt"),
        (["simulate", "--design", str(designed), "--config", str(tmp_path / "nope.ini"),
          "-o", str(tmp_path / "r.csv")], "nope.ini"),
    ):
        assert main(argv) == 2
        assert missing in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [stereo]


def test_a_file_that_is_not_text_exits_2(workspace, tmp_path, capsys):
    """A WAV given where a design or a config belongs fails to decode as
    text: each command exits 2 naming the path, not with a traceback."""
    wav = workspace / "pl.wav"
    run = str(workspace / "run.ini")
    for argv in (
        ["render", "--design", str(wav), "-i", str(wav), "-o", str(tmp_path / "x.wav")],
        ["simulate", "--design", str(wav), "--config", run, "-o", str(tmp_path / "r.csv")],
        ["design", "--config", str(wav), "-o", str(tmp_path / "d.txt")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(wav) in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# `render` streams the programme: the file it writes is the one the library
# collects, whatever the length, format or chunk layout, and a failed render
# leaves the output path as it was.


def _synthetic_design(rate, f_low=80.0):
    """A design with distinct per-side gains and balance, no solve needed."""
    spec = make_spec(rate, f_low, 16000.0)
    rng = np.random.default_rng(rate)

    def solve():
        gains = rng.uniform(0.25, 2.0, spec.num_bands)
        return ChannelSolve(gains, 0.0, np.zeros(spec.num_bands), 1, True)

    return EqualisationDesign(
        spec=spec,
        gains=BandGainSet(spec, solve(), solve()),
        front_gains=BandGainSet(spec, solve(), solve()),
        target=TargetFunction(),
        balance_gains={"primary_left": 0.8, "primary_right": 1.25,
                       "support_left": 0.5, "support_right": 2.0},
    )


@pytest.fixture(scope="module")
def synthetic_designs(tmp_path_factory):
    root = tmp_path_factory.mktemp("designs")
    paths = {}
    for rate in (44100, 48000):
        paths[rate] = root / ("design_%d.txt" % rate)
        save_design(_synthetic_design(rate), paths[rate])
    return paths


def _stereo(path, rate, frames, seed=3):
    """A float32 stereo programme, peaks past full scale included."""
    x = 0.5 * np.random.default_rng(seed).standard_normal((2, frames))
    write_wav(path, AudioBuffer(x.astype(np.float32), rate))


def _render(design, src, out, mode="proposed"):
    return main(["render", "--design", str(design), "-i", str(src), "-o", str(out),
                 "--mode", mode])


def _collected(design, src, out, mode):
    """The library's one-shot render of the same input, as a file."""
    write_wav(out, render(read_wav(src), load_design(design), mode))


@pytest.mark.parametrize("rate", (44100, 48000))
@pytest.mark.parametrize("mode", RENDER_MODES)
def test_streamed_render_is_the_collected_render_byte_for_byte(
    synthetic_designs, tmp_path, mode, rate
):
    """The CLI's file equals write_wav(render(read_wav(input))) at
    programme lengths on and around the block edges: 0, 1, a third of a
    block, step - 1 (the longest single block), step, step + 1 and
    2 * step + taps."""
    design = synthetic_designs[rate]
    taps = {"proposed": EQ_IR_LEN + DEFAULT_DECORRELATOR_LEN - 1,
            "front_eq": EQ_IR_LEN}.get(mode, 0)
    step = RenderStream(load_design(design), mode, 2, 10 ** 6, rate).step
    for frames in (0, 1, step // 3, step - 1, step, step + 1, 2 * step + taps):
        src = tmp_path / "in.wav"
        _stereo(src, rate, frames, seed=frames)
        assert _render(design, src, tmp_path / "cli.wav", mode) == 0
        _collected(design, src, tmp_path / "lib.wav", mode)
        cli, lib = (tmp_path / "cli.wav").read_bytes(), (tmp_path / "lib.wav").read_bytes()
        assert cli == lib, frames


def _chunk(chunk_id, payload):
    return struct.pack("<4sI", chunk_id, len(payload)) + payload + b"\x00" * (len(payload) % 2)


def test_render_reads_chunks_in_any_order(synthetic_designs, tmp_path):
    """An input whose fmt chunk follows its data chunk, or that carries an
    extra (odd-sized) LIST chunk, renders to the same bytes."""
    design = synthetic_designs[48000]
    plain = tmp_path / "plain.wav"
    _stereo(plain, 48000, 70000)
    blob = plain.read_bytes()
    fmt, data = blob[12:36], blob[36:]
    assert fmt[:4] == b"fmt " and data[:4] == b"data"
    listed = _chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00test\x00")
    layouts = {"data_first": data + fmt, "list": fmt + listed + data,
               "list_last": fmt + data + listed}
    assert _render(design, plain, tmp_path / "want.wav") == 0
    want = (tmp_path / "want.wav").read_bytes()
    for name, body in layouts.items():
        src = tmp_path / (name + ".wav")
        src.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        assert _render(design, src, tmp_path / "got.wav") == 0
        assert (tmp_path / "got.wav").read_bytes() == want, name


def _existing_output(tmp_path):
    out = tmp_path / "out.wav"
    out.write_bytes(b"an earlier render, which a failed render must leave alone")
    return out, out.read_bytes()


def test_non_finite_sample_in_last_block_leaves_output_untouched(
    synthetic_designs, tmp_path, capsys
):
    """A NaN in the programme's last block fails the render with exit 2
    after every earlier block was written: no temporary file is left and
    an existing output keeps its bytes."""
    design = synthetic_designs[48000]
    step = RenderStream(load_design(design), "proposed", 2, 10 ** 6, 48000).step
    x = np.zeros((2, 3 * step))
    x[1, -1] = np.nan
    src = tmp_path / "in.wav"
    float32_wav(src, x)
    out, before = _existing_output(tmp_path)
    assert _render(design, src, out) == 2
    assert "non-finite samples in channel 1" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in.wav", "out.wav"]
    assert out.read_bytes() == before


def test_render_past_float32_range_exits_2_leaving_output_untouched(
    synthetic_designs, tmp_path, capsys
):
    """A finite float32 programme of +-3e38, laid out as the sign of the
    reversed front_eq kernel, sums past float32's largest value in the
    fronts: render refuses the block with exit 2, naming the output and
    the channel, instead of writing a file that no reader takes. No
    temporary file is left and an existing output keeps its bytes."""
    design = synthetic_designs[48000]
    loaded = load_design(design)
    x = np.zeros((2, 3 * EQ_IR_LEN))
    for ch, side in enumerate(("left", "right")):
        kernel = band_gain_eq(getattr(loaded.front_gains, side).gains, loaded.spec).data
        gain = loaded.balance_gains["primary_" + side]
        assert gain * np.sum(np.abs(kernel)) * 3e38 > np.finfo(np.float32).max
        x[ch, :EQ_IR_LEN] = 3e38 * np.sign(kernel[::-1])
    src = tmp_path / "in.wav"
    write_wav(src, AudioBuffer(x, 48000))
    out, before = _existing_output(tmp_path)
    assert _render(design, src, out, "front_eq") == 2
    err = capsys.readouterr().err
    assert "out.wav: channel 0 has samples not finite as float32" in err
    assert sorted(os.listdir(tmp_path)) == ["in.wav", "out.wav"]
    assert out.read_bytes() == before


def test_truncated_data_chunk_leaves_output_untouched(
    synthetic_designs, tmp_path, monkeypatch, capsys
):
    """A data chunk that runs past the end of the file is refused with exit
    2, whether it was cut before the render (found in the header) or while
    it ran (found by a short read): no temporary file, and an existing
    output keeps its bytes."""
    design = synthetic_designs[48000]
    src = tmp_path / "in.wav"
    out, before = _existing_output(tmp_path)
    _stereo(src, 48000, 100000)
    whole = src.read_bytes()
    src.write_bytes(whole[:-50])
    assert _render(design, src, out) == 2
    assert "truncated b'data' chunk" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in.wav", "out.wav"]
    assert out.read_bytes() == before

    src.write_bytes(whole)
    read = WavReader.read

    def cut_after_first_block(reader, frames):
        block = read(reader, frames)
        os.truncate(reader.path, len(whole) // 2)
        return block

    monkeypatch.setattr(WavReader, "read", cut_after_first_block)
    assert _render(design, src, out) == 2
    assert "truncated b'data' chunk" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in.wav", "out.wav"]
    assert out.read_bytes() == before


@pytest.mark.parametrize("mode", ("proposed", "front_eq"))
def test_render_in_place_writes_what_a_separate_path_gets(synthetic_designs, tmp_path, mode):
    """`-i f.wav -o f.wav` replaces the programme with its render, the same
    bytes as a render to another path."""
    design = synthetic_designs[48000]
    src = tmp_path / "f.wav"
    _stereo(src, 48000, 90000)
    assert _render(design, src, tmp_path / "separate.wav", mode) == 0
    assert _render(design, src, src, mode) == 0
    assert src.read_bytes() == (tmp_path / "separate.wav").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["f.wav", "separate.wav"]


def test_output_past_4_gib_is_refused_before_reading(
    synthetic_designs, tmp_path, monkeypatch, capsys
):
    """A programme whose render would pass the 4 GiB a WAV can describe
    exits 2 naming the frame limit, before any sample is read and without
    creating the output. The input is sparse: its header declares the
    frames, its data is a hole."""
    design = synthetic_designs[48000]
    frames = (2 ** 32 - 1 - 37) // 16 + 1  # one past the 4-channel float32 limit
    src = tmp_path / "long.wav"
    data_size = frames * 4  # stereo PCM16
    with open(src, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + data_size) + b"WAVE")
        fh.write(struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 2, 48000, 48000 * 4, 4, 16))
        fh.write(struct.pack("<4sI", b"data", data_size))
    os.truncate(src, 44 + data_size)

    def no_read(reader, frames):
        raise AssertionError("read samples before refusing")

    monkeypatch.setattr(WavReader, "read", no_read)
    out = tmp_path / "out.wav"
    assert _render(design, src, out, "stereo") == 2
    err = capsys.readouterr().err
    assert "4 GiB" in err and str(frames - 1) in err
    assert sorted(os.listdir(tmp_path)) == ["long.wav"]


def test_render_memory_does_not_grow_with_programme_length(designed, tmp_path):
    """A fresh process that has loaded the design and warmed the
    resynthesis fit renders 120 s of programme with its peak memory up by
    less than 8 MB: the programme, the rows and the 4-channel output are
    never held whole (a whole-programme render rises by hundreds of MB)."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "render_memory.py")
    done = subprocess.run(
        [sys.executable, script, str(designed), "120"],
        capture_output=True, text=True, env=_src_env(), timeout=300, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    assert result["rss_rise_mb"] < 8.0, result
