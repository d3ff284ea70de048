"""The benchmark's workloads: per-operation inputs made from the seed, the
CLI commands each operation runs, and the checks on their outputs.

An operation's inputs are written to disk first (untimed); then its CLI
commands run back to back through `roomfill.cli.main`, each timed alone,
inside `scope` (the tracer, in a traced run); then its outputs are
checked (untimed, outside the scope).
"""
from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gc
import io
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks

DEFAULT_SEED = 0

try:
    _LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError, TypeError):  # not glibc
    _LIBC = None

RUN_INI = """[io]
primary_left = pl.wav
primary_right = pr.wav
support_left = sl.wav
support_right = sr.wav
output_dir = out
"""

NOTCH = "1000,15,3"

#: Level trims (dB) drawn for each loudspeaker of a room operation.
TRIM_RANGE_DB = (-6.0, 0.0)

RENDER_MODES = ("proposed", "front_eq")


@dataclass(frozen=True)
class Pin:
    """Fill L/R and front L/R iteration counts, and simulated max
    deviation L/R (dB), that a room operation must reproduce."""

    iterations: tuple
    deviations_db: tuple


@dataclass
class OpResult:
    seconds: dict = field(default_factory=dict)  # command -> wall seconds
    failure: str = ""
    figures: dict = field(default_factory=dict)  # numbers for the summary

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


def fresh_heap() -> None:
    """Free unreachable objects and hand free heap pages back to the OS, so
    each command starts from the memory state of a new CLI process rather
    than from whatever the previous operation's checks left behind."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def run_cli(argv):
    """Run one CLI command in this process: (exit code, seconds, output)."""
    from roomfill import cli

    fresh_heap()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:  # a crash is a failed command, as in a CLI process
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - start
    return rc, seconds, sink.getvalue()


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return " | ".join(lines[-3:])


class RoomWorkload:
    """The offline run on a synthetic room: `design`, `simulate`, then
    `render` of a seeded stereo float32 programme in proposed and front_eq
    mode through the design just solved. The room has notched primaries,
    flat supports and pinned tail seeds. The seed draws each operation's
    four loudspeaker level trims and its programme; the default seed's
    first operation has no trims, which reproduces the acceptance test's
    files exactly. Balancing makes the solve invariant to the trims, so
    every operation repeats the same solve on different input bytes."""

    tail_seeds = (201, 202, 203, 204)
    programme_s = 30.0

    def __init__(self, name, sample_rate, length_ms, t60_ms, pin):
        self.name = name
        self.sample_rate = sample_rate
        self.length_ms = length_ms
        self.t60_ms = t60_ms
        self.pin = pin

    def make_input(self, workdir, seed, k):
        """Write the four responses, run.ini and the programme; returns
        (run.ini path, programme path, programme samples as float32)."""
        from roomfill.audio import AudioBuffer, write_wav

        rng = np.random.default_rng([seed, k])
        trims = rng.uniform(*TRIM_RANGE_DB, size=4)
        if seed == DEFAULT_SEED and k == 0:
            trims[:] = 0.0
        os.makedirs(workdir, exist_ok=True)
        for i, name in enumerate(("pl", "pr", "sl", "sr")):
            argv = [
                "synth-rir", "-o", os.path.join(workdir, name + ".wav"),
                "--sample-rate", str(self.sample_rate),
                "--length-ms", repr(self.length_ms),
                "--t60-ms", repr(self.t60_ms),
                "--direct-delay-ms", "3",
                "--direct-amplitude", repr(float(10.0 ** (trims[i] / 20.0))),
                "--seed", str(self.tail_seeds[i]),
            ]
            if i < 2:
                argv += ["--notch", NOTCH]
            rc, _, out = run_cli(argv)
            if rc != 0:
                raise RuntimeError("synth-rir failed: %s" % _tail(out))
        ini = os.path.join(workdir, "run.ini")
        with open(ini, "w") as fh:
            fh.write(RUN_INI)
        n = int(self.programme_s * self.sample_rate)
        x = (0.1 * rng.standard_normal((2, n))).astype(np.float32)
        wav = os.path.join(workdir, "programme.wav")
        write_wav(wav, AudioBuffer(x, self.sample_rate))
        return ini, wav, x

    def run(self, inp, tag, scope=contextlib.nullcontext) -> OpResult:
        ini, wav, x = inp
        out = os.path.join(os.path.dirname(ini), tag)
        design_path = os.path.join(out, "design.txt")
        report = os.path.join(out, "report.csv")
        rendered = {m: os.path.join(out, m + ".wav") for m in RENDER_MODES}
        commands = {
            "design": ["design", "--config", ini, "-o", design_path],
            "simulate": ["simulate", "--design", design_path, "--config", ini, "-o", report],
        }
        for mode, path in rendered.items():
            commands["render_" + mode] = [
                "render", "--design", design_path, "-i", wav, "-o", path, "--mode", mode,
            ]
        rc, text = {}, {}
        result = OpResult()
        with scope():
            for name, argv in commands.items():
                rc[name], result.seconds[name], text[name] = run_cli(argv)
        try:
            design = checks.check_design(rc["design"], design_path)
            result.figures["unconverged"] = sum(
                not s.converged for s in checks.design_solves(design)
            )
            devs = checks.check_simulate(
                rc["simulate"],
                [os.path.join(out, "report_%s.csv" % c) for c in ("left", "right")],
            )
            result.figures["max_dev_db"] = max(devs)
            checks.check_pin(design, devs, self.pin)
            for mode, path in rendered.items():
                if rc["render_" + mode] != 0:
                    raise checks.CheckFailed("render %s exited %d" % (mode, rc["render_" + mode]))
                checks.check_render(path, x, design, mode)
        except checks.CheckFailed as exc:
            result.failure = "%s (%s)" % (
                exc, "; ".join("%s: %s" % (k, _tail(v)) for k, v in text.items()))
        for path in rendered.values():
            if os.path.exists(path):
                os.remove(path)
        return result


WORKLOADS = {
    "pinned-room": RoomWorkload(
        "pinned-room", 48000, 1000.0, 300.0,
        Pin((8, 12, 19, 7), (0.454942, 0.488437)),
    ),
    "large-room": RoomWorkload(
        "large-room", 44100, 2000.0, 600.0,
        Pin((7, 17, 2, 19), (0.452823, 0.443212)),
    ),
}
