"""Per-layer spans recorded from outside the program.

The tracer rebinds public functions of the roomfill modules to timing
wrappers, in every roomfill module that holds a reference to them (for
example `band_energies` as imported by name into `solver`, `rirs` and
`simulate`). Nothing in the program changes; uninstall() restores every
binding. Spans stay in memory: name, parent span, start and end.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict


def _add_bytes(key):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[0])
    return count


def _count_analyze(counts, args, kwargs, result):
    buffer, spec = args[0], args[1]
    counts["gammatone.analyze.band_samples"] += spec.num_bands * buffer.num_samples


def _count_convolve(counts, args, kwargs, result):
    buffer, ir = args[0], args[1]
    counts["audio.convolve.mac"] += buffer.num_channels * buffer.num_samples * ir.data.size


def _count_solve(kind):
    def count(counts, args, kwargs, result):
        counts["solver.%s.iters" % kind] += result.iterations_used
        counts["solver.capped_bands"] += len(result.capped_bands)
        counts["solver.unconverged"] += not result.converged
    return count


def _render_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return "render.render." + mode


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + (argv[0] if argv else "none")


#: (module, function, span name or name function, counter). Spans are
#: recorded around calls into each layer's public functions. The private
#: `_band_energies_array`, which the solver's measurement loop calls
#: directly, shares the band_energies span; a call nested in a span of the
#: same name records nothing more.
TARGETS = (
    ("roomfill.cli", "main", _cli_name, None),
    ("roomfill.config", "load_config", "config.load_config", None),
    ("roomfill.designfile", "save_design", "designfile.save_design", None),
    ("roomfill.designfile", "load_design", "designfile.load_design", None),
    ("roomfill.audio", "read_wav", "audio.read_wav", _add_bytes("audio.read_wav.bytes")),
    ("roomfill.audio", "write_wav", "audio.write_wav", _add_bytes("audio.write_wav.bytes")),
    ("roomfill.audio", "convolve", "audio.convolve", _count_convolve),
    ("roomfill.gammatone", "analyze", "gammatone.analyze", _count_analyze),
    ("roomfill.gammatone", "band_energies", "gammatone.band_energies", None),
    ("roomfill.gammatone", "_band_energies_array", "gammatone.band_energies", None),
    ("roomfill.gammatone", "band_gain_eq", "gammatone.band_gain_eq", None),
    ("roomfill.rirs", "balance_levels", "rirs.balance_levels", None),
    ("roomfill.solver", "solve_gains", "solver.solve_gains", _count_solve("fill")),
    ("roomfill.solver", "solve_front_gains", "solver.solve_front_gains", _count_solve("front")),
    ("roomfill.pipeline", "solve_design", "pipeline.solve_design", None),
    ("roomfill.simulate", "simulate_total", "simulate.simulate_total", None),
    ("roomfill.render", "render", _render_name, None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if stack and spans[stack[-1]][0] == label:
                return fn(*args, **kwargs)
            record = [label, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            counts[label + ".calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "roomfill"]
        for module_name, attr, name, count in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op function."""
        def noop(*args):
            return None

        wrapped = Tracer()._wrap(noop, "noop", None)
        start = time.perf_counter()
        for _ in range(calls):
            noop(1)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped(1)
        return max(0.0, time.perf_counter() - start - bare) / calls

    def self_times(self) -> dict:
        """Seconds per span name, each span less its direct children."""
        out = defaultdict(float)
        for name, parent, start, end in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out
