"""Command line front end: the offline pipeline, one subcommand a step.

`synth-rir` writes a synthetic measurement WAV, `design` solves the band
gains from a config file, `render` plays programme material through a
design, and `simulate` checks a design against the configured responses,
writing one per-band CSV report per channel.

Every WAV written is IEEE float32, which keeps the fill chains' gain (up
to +20 dB in a band) unclipped; inputs may also be PCM 16/24 bit.

Exit codes: 0 success, 1 a filled band off target by more than
MAX_DEVIATION_DB, 2 usage or validation errors, 3 the gain solve hit its
iteration cap (the best-effort design is still written), 4 unfillable bands.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .audio import WavReader, WavWriter, write_wav
from .config import load_config
from .designfile import load_design, save_design
from .errors import RoomfillError, UnfillableBandError
from .pipeline import solve_design
from .render import RENDER_MODES, RenderStream
from .simulate import SyntheticRirParams, export_report, simulate_total, synth_rir

EXIT_OK = 0
EXIT_DEVIATION = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_UNFILLABLE = 4

MAX_DEVIATION_DB = 1.0  # simulate's filled-band budget, acceptance test A2's


def _notch(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected F0,DEPTH_DB,Q")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected three numbers, got %r" % text)


def cmd_synth_rir(args) -> int:
    if args.notch is not None:
        coloration = ("notch",) + args.notch
    elif args.lowpass is not None:
        coloration = ("lowpass", args.lowpass)
    else:
        coloration = ("none",)
    params = SyntheticRirParams(
        sample_rate=args.sample_rate,
        length_ms=args.length_ms,
        t60_ms=args.t60_ms,
        direct_amplitude=args.direct_amplitude,
        direct_delay_ms=args.direct_delay_ms,
        coloration=coloration,
        seed=args.seed,
    )
    ir = synth_rir(params)
    write_wav(args.output, ir.buffer)
    print(
        "wrote %s: %d samples at %d Hz, t60 %g ms, coloration %s"
        % (
            args.output,
            ir.data.size,
            ir.sample_rate,
            args.t60_ms,
            params.coloration_summary(),
        )
    )
    return EXIT_OK


def _solve_line(name: str, solve, filled_only: bool) -> str:
    mask = solve.gains > 0 if filled_only else np.ones_like(solve.gains, dtype=bool)
    worst = float(np.max(np.abs(solve.residual_db[mask]))) if mask.any() else 0.0
    state = (
        "converged in %d iterations" % solve.iterations_used
        if solve.converged
        else "NOT converged after %d iterations" % solve.iterations_used
    )
    return "%-12s %s, offset %+.2f dB, max |residual| %.3f dB" % (
        name + ":",
        state,
        solve.offset_db,
        worst,
    )


def cmd_design(args) -> int:
    run = load_config(args.config)
    rirs = run.load_rirs()
    spec = run.filterbank(rirs.sample_rate)
    run.check_lengths(rirs, spec)
    design = solve_design(rirs, spec, run.target, run.solver, run.chain)
    out = args.output or os.path.join(run.output_dir, "design.txt")
    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    save_design(design, out)

    solves = (
        ("fill left", design.gains.left, True),
        ("fill right", design.gains.right, True),
        ("front left", design.front_gains.left, False),
        ("front right", design.front_gains.right, False),
    )
    for name, solve, filled_only in solves:
        print(_solve_line(name, solve, filled_only))
    print("wrote %s (%d bands at %d Hz)" % (out, spec.num_bands, spec.sample_rate))
    if not all(s.converged for _, s, _ in solves):
        print("warning: best-effort design, solve did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_render(args) -> int:
    design = load_design(args.design)
    with WavReader(args.input) as reader:
        stream = RenderStream(
            design, args.mode, reader.num_channels, reader.num_frames, reader.sample_rate
        )
        chunks = (reader.read(stream.step) for _ in range(0, reader.num_frames, stream.step))
        rate = reader.sample_rate
        with WavWriter(args.output, rate, 4, stream.frames_out) as writer:
            for block in stream.blocks(chunks):
                writer.write(block)
    print(
        "wrote %s: 4 channels (FL FR SL SR), %d samples at %d Hz, mode %s"
        % (args.output, stream.frames_out, rate, stream.mode)
    )
    print(
        "chain latency: "
        + ", ".join(
            "%s %d samples (%.1f ms)" % (ch, n, 1000.0 * n / rate)
            for ch, n in stream.latency_samples.items()
        )
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    run = load_config(args.config)
    design = load_design(args.design)
    rirs = run.load_rirs()
    # the design's bank measures the simulation, whatever the config's is
    run.check_lengths(rirs, design.spec)
    out = args.output or os.path.join(run.output_dir, "report.csv")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    base, ext = os.path.splitext(out)

    worst = 0.0
    meters = {}
    for channel in ("left", "right"):
        report = simulate_total(design, rirs, channel, meters=meters)
        path = "%s_%s%s" % (base, channel, ext or ".csv")
        export_report(report, path)
        worst = max(worst, report.max_abs_deviation_filled_bands_db)
        print(
            "%-6s max |deviation| %.3f dB over filled bands, rms %.3f dB, "
            "%d unfilled -> %s"
            % (
                channel + ":",
                report.max_abs_deviation_filled_bands_db,
                report.rms_deviation_db,
                report.unfilled_band_count,
                path,
            )
        )
    if worst > MAX_DEVIATION_DB:
        print(
            "deviation %.3f dB exceeds the allowed %.3f dB" % (worst, MAX_DEVIATION_DB),
            file=sys.stderr,
        )
        return EXIT_DEVIATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roomfill",
        description="Offline room equalisation: supporting-loudspeaker "
        "spectral fill from measured impulse responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "synth-rir",
        help="generate a synthetic room impulse response WAV",
        formatter_class=fmt,
    )
    p.add_argument("-o", "--output", required=True, help="output WAV path")
    p.add_argument("--sample-rate", type=int, default=48000, choices=(44100, 48000))
    p.add_argument("--length-ms", type=float, default=1000.0, help="response length")
    p.add_argument("--t60-ms", type=float, default=300.0, help="60 dB decay time")
    p.add_argument("--direct-amplitude", type=float, default=1.0)
    p.add_argument("--direct-delay-ms", type=float, default=0.0)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--notch",
        type=_notch,
        metavar="F0,DEPTH_DB,Q",
        help="carve a notch: centre Hz, depth dB, quality factor",
    )
    group.add_argument("--lowpass", type=float, metavar="FC_HZ", help="treble roll-off cutoff")
    p.add_argument("--seed", type=int, default=0, help="tail noise seed")
    p.set_defaults(func=cmd_synth_rir)

    p = sub.add_parser(
        "design",
        help="solve an equalisation design from a config file",
        formatter_class=fmt,
    )
    p.add_argument("--config", required=True, help="run configuration INI")
    p.add_argument(
        "-o",
        "--output",
        default=None,
        help="design file path (default: <output_dir>/design.txt)",
    )
    p.set_defaults(func=cmd_design)

    p = sub.add_parser(
        "render",
        help="render stereo programme to the 4-channel condition",
        formatter_class=fmt,
    )
    p.add_argument("--design", required=True, help="design file from `design`")
    p.add_argument("-i", "--input", required=True, help="stereo WAV input")
    p.add_argument("-o", "--output", required=True, help="4-channel float32 WAV output")
    p.add_argument("--mode", default="proposed", choices=RENDER_MODES)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "simulate",
        help="verify a design against the configured responses",
        formatter_class=fmt,
    )
    p.add_argument("--design", required=True, help="design file from `design`")
    p.add_argument("--config", required=True, help="run configuration INI")
    p.add_argument(
        "-o",
        "--output",
        default=None,
        help="report CSV path, written as one file per channel with "
        "_left/_right inserted (default: <output_dir>/report.csv)",
    )
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnfillableBandError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_UNFILLABLE
    except (RoomfillError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
