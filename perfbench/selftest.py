"""Self-test of the output checks: each check accepts a good output and
rejects every corrupted variant of it.

    python3 perfbench/run.py --self-test
"""
from __future__ import annotations

import os
import shutil
import struct

import numpy as np

import checks
from workloads import Pin, run_cli

SAMPLE_RATE = 48000

REPORT = """f_c_hz,primary_db,fill_db,total_db,target_db,deviation_db
1000,-10,-12,-8,-8.2,%s
# max_abs_deviation_filled_bands_db = %s
# rms_deviation_db = 0.1
# unfilled_band_count = 0
"""


def seeded_design(rng):
    """A design as `design` could write it: fill gains within the solver's
    20 dB cap with about a fifth of the bands muted, front gains within
    +-20 dB, balance gains 0.5-2."""
    from roomfill.gammatone import make_spec
    from roomfill.render import EqualisationDesign
    from roomfill.solver import G_MAX, BandGainSet, ChannelSolve
    from roomfill.target import TargetFunction

    spec = make_spec(SAMPLE_RATE, 80.0, 16000.0)
    n = spec.num_bands

    def solve(gains):
        return ChannelSolve(
            gains=gains, offset_db=0.0, residual_db=np.zeros(n),
            iterations_used=0, converged=True,
        )

    def fill():
        g = rng.uniform(0.0, G_MAX, n)
        g[rng.random(n) < 0.2] = 0.0
        return solve(g)

    def front():
        return solve(G_MAX ** rng.uniform(-1.0, 1.0, n))

    balance = {"primary_left": 1.0}
    for name in ("primary_right", "support_left", "support_right"):
        balance[name] = float(rng.uniform(0.5, 2.0))
    return EqualisationDesign(
        spec=spec,
        gains=BandGainSet(spec, fill(), fill()),
        front_gains=BandGainSet(spec, front(), front()),
        target=TargetFunction(),
        balance_gains=balance,
    )


def write_wav_float32(path, frames, rate, tag=3, bits=32):
    frames = np.asarray(frames, dtype="<f4")
    payload = frames.tobytes() if bits == 32 else np.zeros(frames.size, "<i2").tobytes()
    channels = frames.shape[1]
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * channels * bits // 8,
                      channels * bits // 8, bits)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s", b"RIFF", 4 + 8 + len(fmt) + 8 + len(payload), b"WAVE"))
        fh.write(struct.pack("<4sI", b"fmt ", len(fmt)) + fmt)
        fh.write(struct.pack("<4sI", b"data", len(payload)) + payload)


class Cases:
    def __init__(self):
        self.bad = 0

    def expect(self, label, accept, fn, *args):
        try:
            fn(*args)
            ok = True
            why = ""
        except checks.CheckFailed as exc:
            ok = False
            why = str(exc)
        good = ok == accept
        self.bad += not good
        print("%-4s %-48s %s %s" % ("ok" if good else "FAIL", label,
                                     "accepted" if ok else "rejected", why))


def _design_cases(t, work, rng):
    from roomfill.designfile import save_design

    design = seeded_design(rng)
    path = os.path.join(work, "design.txt")
    save_design(design, path)
    text = open(path).read()
    t.expect("design: good file, exit 0", True, checks.check_design, 0, path)
    t.expect("design: good file, exit 3", True, checks.check_design, 3, path)
    t.expect("design: exit 1", False, checks.check_design, 1, path)
    t.expect("design: exit 4", False, checks.check_design, 4, path)
    t.expect("design: missing file", False, checks.check_design, 0, path + ".none")
    variants = {
        "design: NaN gain": _nan_first_gain(text),
        "design: negative gain": text.replace("gains = ", "gains = -", 1),
        "design: truncated file": text[: len(text) // 2],
    }
    for label, body in variants.items():
        bad = os.path.join(work, "bad.txt")
        with open(bad, "w") as fh:
            fh.write(body)
        t.expect(label, False, checks.check_design, 0, bad)
    return design


def _nan_first_gain(text):
    head, _, rest = text.partition("gains = ")
    first, _, tail = rest.partition(",")
    return head + "gains = nan," + tail


def _pin_cases(t, design):
    for solve, iters in zip(checks.design_solves(design), (8, 12, 19, 7)):
        solve.iterations_used = iters
        solve.converged = True
    pin = Pin((8, 12, 19, 7), (0.455, 0.488))
    t.expect("pin: reproduced", True, checks.check_pin, design, [0.45505, 0.48795], pin)
    t.expect("pin: deviation off by 0.001 dB", False, checks.check_pin, design, [0.456, 0.488], pin)
    design.gains.right.iterations_used = 13
    t.expect("pin: one iteration more", False, checks.check_pin, design, [0.455, 0.488], pin)
    design.gains.right.iterations_used = 12
    design.front_gains.left.converged = False
    t.expect("pin: a solve not converged", False, checks.check_pin, design, [0.455, 0.488], pin)


def _simulate_cases(t, work):
    def reports(*devs):
        paths = []
        for i, dev in enumerate(devs):
            p = os.path.join(work, "report_%d.csv" % i)
            with open(p, "w") as fh:
                fh.write(REPORT % (dev, dev))
            paths.append(p)
        return paths

    t.expect("simulate: within budget", True, checks.check_simulate, 0, reports(0.4, 0.9))
    t.expect("simulate: exit 1", False, checks.check_simulate, 1, reports(0.4, 0.9))
    t.expect("simulate: over budget", False, checks.check_simulate, 0, reports(0.4, 1.2))
    t.expect("simulate: NaN deviation", False, checks.check_simulate, 0, reports("nan", 0.4))
    p = reports(0.4)[0]
    with open(p, "w") as fh:
        fh.write(REPORT.split("# max")[0])
    t.expect("simulate: summary line missing", False, checks.check_simulate, 0, [p])


def _render_cases(t, work, rng):
    from roomfill.audio import AudioBuffer, write_wav
    from roomfill.designfile import save_design

    design = seeded_design(rng)
    design_path = os.path.join(work, "render_design.txt")
    save_design(design, design_path)
    x = (0.1 * rng.standard_normal((2, SAMPLE_RATE))).astype(np.float32)
    wav = os.path.join(work, "in.wav")
    write_wav(wav, AudioBuffer(x, SAMPLE_RATE))
    bad = os.path.join(work, "bad.wav")
    for mode in ("proposed", "front_eq"):
        out = os.path.join(work, mode + ".wav")
        rc, _, text = run_cli(["render", "--design", design_path, "-i", wav, "-o", out,
                               "--mode", mode])
        if rc != 0:
            raise RuntimeError("render failed: " + text)
        t.expect("render %s: good output" % mode, True, checks.check_render, out, x, design, mode)
        rate, y = checks.read_wav_float32(out)
        peak = float(np.max(np.abs(y)))
        wet = [2, 3] if mode == "proposed" else [0, 1]
        z = y.copy()
        z[100, 0] = np.nextafter(z[100, 0], np.float32(np.inf))
        # bit-exact fronts in proposed mode; float32 rounding is tolerated in front_eq
        write_wav_float32(bad, z, rate)
        t.expect("render %s: front sample off by one ulp" % mode, mode == "front_eq",
                 checks.check_render, bad, x, design, mode)
        corrupt = {}
        z = y.copy()
        z[y.shape[0] // 2, wet[1]] += 1e-5 * peak
        corrupt["processed sample off by 1e-5 of peak"] = z
        z = y.copy()
        z[0, wet[0]] = 0.5 * peak
        corrupt["first processed sample changed"] = z
        z = y.copy()
        z[:, wet] = z[:, wet[::-1]]
        corrupt["processed channels swapped"] = z
        z = y.copy()
        z[-1, 3 - wet[0]] = 0.5 * peak
        corrupt["signal where there must be none"] = z
        corrupt["last frame dropped"] = y[:-1]
        corrupt["three channels"] = y[:, :3]
        for label, frames in corrupt.items():
            write_wav_float32(bad, frames, rate)
            t.expect("render %s: %s" % (mode, label), False, checks.check_render,
                     bad, x, design, mode)
        write_wav_float32(bad, y, rate, tag=1, bits=16)
        t.expect("render %s: int16 file" % mode, False, checks.check_render, bad, x, design, mode)
        write_wav_float32(bad, y, rate + 1)
        t.expect("render %s: wrong sample rate" % mode, False, checks.check_render,
                 bad, x, design, mode)


def main(work_root) -> int:
    work = os.path.join(str(work_root), "selftest-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    rng = np.random.default_rng(2024)
    t = Cases()
    try:
        design = _design_cases(t, work, rng)
        _pin_cases(t, design)
        _simulate_cases(t, work)
        _render_cases(t, work, rng)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(str(work_root))
        except OSError:
            pass
    print("self-test: %s" % ("all checks behave" if t.bad == 0 else "%d cases wrong" % t.bad))
    return 1 if t.bad else 0
