"""Output checks for the benchmark's operations.

Every check raises CheckFailed with a message naming what is wrong. The
render checks compare against a reference built here from the input
samples, so a faster render that changes the result fails.
"""
from __future__ import annotations

import math
import struct

import numpy as np
from scipy.signal import fftconvolve

#: Largest filled-band |deviation| `simulate` may report (its own default).
SIMULATE_BUDGET_DB = 1.0

#: Rendered channels are float32, which rounds each sample to 2**-24
#: (6e-8) of its value; the reference is float64. Allow 1e-6 of the
#: reference peak, well above rounding and well below any real defect.
RENDER_REL_TOL = 1e-6

#: A pinned deviation may differ from its expected value by this much (dB).
#: Level trims change the inputs by float32 rounding only, which moves the
#: reported deviations by less than their 1e-6 dB print resolution.
DEVIATION_TOL_DB = 1e-4

DESIGN_EXIT_CODES = (0, 3)

SOLVE_NAMES = ("fill_left", "fill_right", "front_left", "front_right")


class CheckFailed(Exception):
    """An output is wrong."""


def design_solves(design):
    """The four channel solves of a design, in SOLVE_NAMES order."""
    return (
        design.gains.left,
        design.gains.right,
        design.front_gains.left,
        design.front_gains.right,
    )


def check_design(rc: int, path):
    """`design` exited 0 or 3 and wrote a design file that loads with
    finite, non-negative gains and finite positive balance gains.
    Returns the loaded design."""
    from roomfill.designfile import load_design
    from roomfill.errors import RoomfillError

    if rc not in DESIGN_EXIT_CODES:
        raise CheckFailed("design exited %d" % rc)
    try:
        design = load_design(path)
    except (OSError, RoomfillError, ValueError, KeyError) as exc:
        raise CheckFailed("design file does not load: %s" % exc) from None
    for name, solve in zip(SOLVE_NAMES, design_solves(design)):
        g = solve.gains
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise CheckFailed("[%s] gains are not finite and >= 0" % name)
    for name, g in design.balance_gains.items():
        if not (math.isfinite(g) and g > 0):
            raise CheckFailed("balance gain %s = %r" % (name, g))
    return design


def check_pin(design, deviations, expect):
    """The solve reproduces the pinned iteration counts, converges, and
    the simulated deviations match the pinned ones."""
    iters = tuple(s.iterations_used for s in design_solves(design))
    if iters != expect.iterations:
        raise CheckFailed(
            "iterations %s differ from the pinned %s" % (iters, expect.iterations)
        )
    if not all(s.converged for s in design_solves(design)):
        raise CheckFailed("a pinned solve did not converge")
    for got, want in zip(deviations, expect.deviations_db):
        if abs(got - want) > DEVIATION_TOL_DB:
            raise CheckFailed(
                "deviation %.6f dB differs from the pinned %.6f dB" % (got, want)
            )


def report_max_deviation(path) -> float:
    """The max filled-band |deviation| line of a `simulate` report CSV."""
    key = "# max_abs_deviation_filled_bands_db ="
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return float(line[len(key):])
    except (OSError, ValueError) as exc:
        raise CheckFailed("report %s unreadable: %s" % (path, exc)) from None
    raise CheckFailed("report %s has no max deviation line" % path)


def check_simulate(rc: int, report_paths) -> list:
    """`simulate` exited 0 and every report is within the budget.
    Returns the per-channel max deviations."""
    if rc != 0:
        raise CheckFailed("simulate exited %d" % rc)
    devs = [report_max_deviation(p) for p in report_paths]
    for path, dev in zip(report_paths, devs):
        if not dev <= SIMULATE_BUDGET_DB:
            raise CheckFailed(
                "%s: deviation %.4f dB over the %.1f dB budget"
                % (path, dev, SIMULATE_BUDGET_DB)
            )
    return devs


def read_wav_float32(path):
    """Parse an IEEE float32 RIFF/WAVE file: (sample_rate, frames), frames
    shaped (num_frames, channels). Independent of the program's reader."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise CheckFailed("%s is not RIFF/WAVE" % path)
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, pos)
        body = blob[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None or len(fmt) < 16:
        raise CheckFailed("%s lacks fmt/data chunks" % path)
    tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if (tag, bits) != (3, 32):
        raise CheckFailed("%s is not float32 (tag %d, %d bits)" % (path, tag, bits))
    if channels < 1 or len(data) % (4 * channels):
        raise CheckFailed("%s payload is not whole frames" % path)
    return rate, np.frombuffer(data, dtype="<f4").reshape(-1, channels)


def render_reference(x: np.ndarray, design, mode: str, side: str):
    """(delay_samples, samples) the named output channel must carry: the
    input convolved with band_gain_eq of the mode's gains (and, in proposed
    mode, the side's decorrelator), delayed and scaled by the balance gain."""
    from roomfill.gammatone import band_gain_eq

    if mode == "proposed":
        solve = design.gains.left if side == "left" else design.gains.right
        kernel = np.convolve(
            band_gain_eq(solve.gains, design.spec).data,
            design.decorrelator(side).taps,
        )
        return (
            design.delay_samples(),
            design.balance_gains["support_" + side] * fftconvolve(x, kernel),
        )
    solve = design.front_gains.left if side == "left" else design.front_gains.right
    kernel = band_gain_eq(solve.gains, design.spec).data
    return 0, design.balance_gains["primary_" + side] * fftconvolve(x, kernel)


def _match(name: str, got: np.ndarray, delay: int, ref: np.ndarray) -> None:
    """got (one output channel) is ref delayed by `delay`, within tolerance."""
    head = got[:delay]
    body = got[delay : delay + ref.size].astype(np.float64)
    if np.any(head != 0) or np.any(got[delay + ref.size :] != 0):
        raise CheckFailed("%s carries signal outside the expected span" % name)
    peak = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(body - ref)))
    if not err <= RENDER_REL_TOL * peak:
        raise CheckFailed(
            "%s differs from the reference by %.3g (peak %.3g)" % (name, err, peak)
        )


def check_render(path, x: np.ndarray, design, mode: str) -> None:
    """A `render` output: 4 float32 channels of the expected length. In
    proposed mode the fronts are bit-identical to the float32 input and
    the rears match the reference; in front_eq mode the fronts match the
    reference and the rears are silent. x is the float32 input, (2, n)."""
    rate, y = read_wav_float32(path)
    if rate != design.sample_rate:
        raise CheckFailed("output rate %d, expected %d" % (rate, design.sample_rate))
    if y.shape[1] != 4:
        raise CheckFailed("output has %d channels, expected 4" % y.shape[1])
    n = x.shape[1]
    refs = [render_reference(x[i], design, mode, s) for i, s in enumerate(("left", "right"))]
    length = max(n, max(d + r.size for d, r in refs))
    if y.shape[0] != length:
        raise CheckFailed("output has %d frames, expected %d" % (y.shape[0], length))
    if mode == "proposed":
        for ch in (0, 1):
            front = y[:n, ch]
            if not np.array_equal(front.view(np.uint32), x[ch].view(np.uint32)):
                raise CheckFailed("front %d is not bit-identical to the input" % ch)
            if np.any(y[n:, ch] != 0):
                raise CheckFailed("front %d carries signal after the input" % ch)
        for ch, (d, ref) in zip((2, 3), refs):
            _match("rear %d" % ch, y[:, ch], d, ref)
    else:
        for ch, (d, ref) in zip((0, 1), refs):
            _match("front %d" % ch, y[:, ch], d, ref)
        if np.any(y[:, 2:] != 0):
            raise CheckFailed("front_eq rears are not silent")
