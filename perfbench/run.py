"""roomfill benchmark: runs one workload through the `roomfill` CLI entry
point in this process, checks every output and prints the metrics.

    python3 perfbench/run.py --workload pinned-room --seed 0 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --self-test           # each check rejects bad output

One client in a closed loop: each operation starts when the previous one
has finished, and only if it should end within --seconds; the first
always runs. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics from a traced
run.
See perfbench/README.md for the workloads, metrics and layer map.

Only the standard library is imported at the top, so that the set-up
probe times the import of numpy and scipy as a CLI user pays it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("pinned-room", "large-room")
SETUP_PROBES = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Per-layer metrics of a traced run: name -> unit. Timings (".s",
#: ".self_s") are self time per operation: span time less child spans.
PER_LAYER = {
    "gammatone.analyze.calls": "count",
    "gammatone.analyze.s": "s",
    "gammatone.analyze.band_samples": "count",
    "gammatone.band_energies.calls": "count",
    "gammatone.band_energies.s": "s",
    "gammatone.band_gain_eq.calls": "count",
    "gammatone.band_gain_eq.s": "s",
    "gammatone.first_use.s": "s",
    "solver.fill.iters": "count",
    "solver.front.iters": "count",
    "solver.capped_bands": "count",
    "solver.unconverged": "count",
    "solver.solve_gains.s": "s",
    "solver.solve_front_gains.s": "s",
    "rirs.balance_levels.s": "s",
    "pipeline.solve_design.s": "s",
    "simulate.simulate_total.s": "s",
    "render.render.proposed.s": "s",
    "render.render.front_eq.s": "s",
    "audio.convolve.calls": "count",
    "audio.convolve.s": "s",
    "audio.convolve.mac": "count",
    "audio.read_wav.s": "s",
    "audio.read_wav.bytes": "bytes",
    "audio.write_wav.s": "s",
    "audio.write_wav.bytes": "bytes",
    "config.load_config.s": "s",
    "designfile.save_design.s": "s",
    "designfile.load_design.s": "s",
    "cli.design.self_s": "s",
    "cli.simulate.self_s": "s",
    "cli.render.self_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
    "trace.overhead_frac": "ratio",
}


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def setup_probe(sample_rate: int) -> None:
    """Time `import roomfill` plus the first-use caches of the default
    filterbank at this rate, as every CLI invocation pays them."""
    start = time.perf_counter()
    import numpy as np
    from roomfill.gammatone import band_gain_eq, impulse_band_energies, make_spec

    spec = make_spec(sample_rate, 80.0, 16000.0)
    band_gain_eq(np.ones(spec.num_bands), spec)
    impulse_band_energies(spec)
    print(repr(time.perf_counter() - start))


def measure_setup(sample_rate: int) -> list:
    """Set-up seconds from fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", str(sample_rate)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "roomfill").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def warm_first_use(sample_rate: int) -> float:
    """Fill the filterbank caches before timing; returns the first
    band_gain_eq's cold time less a warm call's time."""
    import numpy as np
    from roomfill.gammatone import band_gain_eq, impulse_band_energies, make_spec

    spec = make_spec(sample_rate, 80.0, 16000.0)
    ones = np.ones(spec.num_bands)
    start = time.perf_counter()
    band_gain_eq(ones, spec)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    band_gain_eq(ones, spec)
    warm = time.perf_counter() - start
    impulse_band_energies(spec)
    return cold - warm


def _median(values):
    return statistics.median(values) if values else 0.0


def operations(seconds):
    """Operation indices for a closed loop: the next operation starts only
    if it should end, at the pace of the slowest so far, within `seconds`.
    The first always runs."""
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while k == 0 or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        yield k
        longest = max(longest, time.perf_counter() - began)
        k += 1


def run_untraced(workload, seed, seconds, workdir):
    results = []
    for k in operations(seconds):
        inp = workload.make_input(os.path.join(workdir, "op%d" % k), seed, k)
        results.append(workload.run(inp, "out"))
    return results


def run_traced(workload, seed, seconds, workdir):
    """Each operation's input runs untraced, then traced; the pair's
    ratio gives the tracing overhead."""
    from tracer import Tracer

    untraced, traced, layers = [], [], []
    tracer = Tracer()
    span_cost = Tracer.span_cost()
    for k in operations(seconds):
        inp = workload.make_input(os.path.join(workdir, "op%d" % k), seed, k)
        untraced.append(workload.run(inp, "plain"))
        tracer.reset()
        traced.append(workload.run(inp, "traced", tracer.installed))
        selfs = tracer.self_times()
        op = dict(tracer.counts)
        for name, secs in selfs.items():
            op[name + (".self_s" if name.startswith("cli.") else ".s")] = secs
        op["trace.spans"] = len(tracer.spans)
        op["trace.span_cost_s"] = len(tracer.spans) * span_cost
        layers.append(op)
    return untraced, traced, layers


def report(workload, results, lines):
    """Per-command figures by the names in README.md, printed with units."""
    n = len(results)

    def median_s(command):
        return _median([r.seconds[command] for r in results])

    lines.append("design_s = %.4f s/op (median of %d)" % (median_s("design"), n))
    lines.append("simulate_s = %.4f s/op (median of %d)" % (median_s("simulate"), n))
    for mode in ("proposed", "front_eq"):
        lines.append("render_%s_xrt = %.3f programme s per wall s (median of %d)"
                     % (mode, workload.programme_s / median_s("render_" + mode), n))
    devs = [r.figures["max_dev_db"] for r in results if "max_dev_db" in r.figures]
    if devs:
        lines.append("max_dev_db = %.4f dB (worst of %d)" % (max(devs), len(devs)))
    lines.append("unconverged_solves = %d (of %d)" % (
        sum(r.figures.get("unconverged", 0) for r in results), 4 * n))
    failed = sum(bool(r.failure) for r in results)
    lines.append("failed_frac = %d/%d = %.3f" % (failed, n, failed / n))


def run_workload(args) -> int:
    threads = cap_threads()
    sys.path.insert(0, str(SRC))
    import roomfill

    if not Path(roomfill.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("roomfill was imported from %s, not %s" % (roomfill.__file__, SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = WORK / ("%s-%d" % (args.workload, os.getpid()))
    lines = []
    try:
        if args.trace:
            first_use = warm_first_use(workload.sample_rate)
            untraced, traced, layers = run_traced(workload, args.seed, args.seconds, workdir)
            results = untraced + traced
            metrics = {
                name: {"value": _median([op.get(name, 0) for op in layers]), "unit": unit}
                for name, unit in PER_LAYER.items()
            }
            metrics["gammatone.first_use.s"]["value"] = first_use
            overhead = sum(r.total_s for r in traced) / sum(r.total_s for r in untraced) - 1.0
            metrics["trace.overhead_frac"]["value"] = overhead
            for label, units in (("exact counts per op", ("count", "bytes")),
                                 ("self seconds per op", ("s",))):
                lines.append("%s: %s" % (label, ", ".join(
                    "%s=%.6g" % (name, m["value"])
                    for name, m in metrics.items() if m["unit"] in units)))
            lines.append("trace overhead = %+.4f over %d pairs (untraced %s; traced %s)" % (
                overhead, len(untraced),
                ", ".join("%.3f" % r.total_s for r in untraced),
                ", ".join("%.3f" % r.total_s for r in traced)))
        else:
            setups = measure_setup(workload.sample_rate)
            warm_first_use(workload.sample_rate)
            results = run_untraced(workload, args.seed, args.seconds, workdir)
            import resource

            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": _median(setups), "unit": "s"},
                "op_s": {"value": _median([r.total_s for r in results]), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            lines.append("setup_s = %.4f s (median of %d fresh processes: %s)"
                         % (_median(setups), len(setups), ", ".join("%.3f" % s for s in setups)))
            lines.append("op_s = %.4f s/op (median of %d ops: %s)"
                         % (metrics["op_s"]["value"], len(results),
                            ", ".join("%.3f" % r.total_s for r in results)))
            lines.append("peak_rss_mb = %.1f MB" % rss_mb)
        report(workload, results, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for r in results:
        if r.failure:
            print("FAILED op: %s" % r.failure, file=sys.stderr)
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for line in lines:
        print("  " + line)
    print("env " + json.dumps(environment(threads), sort_keys=True))
    failed = sum(bool(r.failure) for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", type=int, metavar="RATE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "roomfill" / "__init__.py").is_file():
        print("error: no roomfill sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_probe:
        sys.path.insert(0, str(SRC))
        setup_probe(args.setup_probe)
        return 0
    if args.self_test:
        cap_threads()
        sys.path.insert(0, str(SRC))
        import selftest

        return selftest.main(WORK)
    if args.workload is None:
        parser.error("--workload or --self-test is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
