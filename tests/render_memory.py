"""Measure one `roomfill render` of a long programme: wall time and the
rise of the process's peak memory.

Usage: python tests/render_memory.py DESIGN SECONDS [MODE]

Writes SECONDS of seeded stereo float32 noise at the design's rate to a
temporary directory, block by block with its own header code, so that
making the programme raises no peak. Then loads the design and warms the
resynthesis fit (its transient would otherwise mask a short render), runs
`roomfill render --mode MODE` (default proposed) in this process and
prints one JSON line: the exit status, the wall seconds of the render and
the rise of ru_maxrss over it in MB.
"""
import json
import os
import resource
import shutil
import struct
import sys
import tempfile
import time

import numpy as np

import roomfill.cli
from roomfill.designfile import load_design
from roomfill.gammatone import band_gain_eq

BLOCK_FRAMES = 4800


def write_programme(path, rate, seconds, seed=12):
    """A float32 stereo WAV of 0.1-rms noise, written in small blocks."""
    frames = int(round(seconds * rate))
    data_size = frames * 8
    rng = np.random.default_rng(seed)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s", b"RIFF", 4 + 24 + 8 + data_size, b"WAVE"))
        fh.write(struct.pack("<4sIHHIIHH", b"fmt ", 16, 3, 2, rate, rate * 8, 8, 32))
        fh.write(struct.pack("<4sI", b"data", data_size))
        for start in range(0, frames, BLOCK_FRAMES):
            m = min(BLOCK_FRAMES, frames - start)
            fh.write((0.1 * rng.standard_normal((m, 2))).astype("<f4").tobytes())


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    design_path, seconds = argv[0], float(argv[1])
    mode = argv[2] if len(argv) > 2 else "proposed"
    workdir = tempfile.mkdtemp(prefix="render-memory-")
    try:
        design = load_design(design_path)
        programme = os.path.join(workdir, "programme.wav")
        write_programme(programme, design.sample_rate, seconds)
        for solve in (design.gains.left, design.front_gains.left):
            band_gain_eq(solve.gains, design.spec)
        before = peak_mb()
        start = time.perf_counter()
        status = roomfill.cli.main([
            "render", "--design", design_path, "-i", programme,
            "-o", os.path.join(workdir, "out.wav"), "--mode", mode,
        ])
        wall = time.perf_counter() - start
        rise = peak_mb() - before
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"exit": status, "seconds": seconds, "mode": mode,
                      "wall_s": round(wall, 4), "rss_rise_mb": round(rise, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
