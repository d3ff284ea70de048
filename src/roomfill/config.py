"""Run configuration: an INI file naming the measured responses and every
tunable the design solve uses.

Parsing is strict. An unknown section or key is a hard ConfigError naming
the offender, because a silently ignored misspelling ("tolerence_db")
would change the result without anyone noticing. Every key outside [io]
has a default, listed in _DEFAULTS below.

[io] names the four loudspeaker measurements. Each one is either a
single WAV (`primary_left = ...`) or a microphone pair averaged on load
(`primary_left_a = ...` plus `primary_left_b = ...`). Paths are resolved
relative to the config file.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields

from .audio import ImpulseResponse, read_wav
from .errors import ConfigError, ContractError
from .gammatone import FilterbankSpec, check_bank, make_spec, min_response_length
from .render import SupportChain
from .rirs import CHANNEL_NAMES, RirSet, average_pair
from .solver import SolverConfig
from .target import TargetFunction


# [target], [solver] and [render] are these dataclasses' own fields and
# defaults, validated by their constructors.
_SECTION_TYPES = {
    "target": TargetFunction,
    "solver": SolverConfig,
    "render": SupportChain,
}

_DEFAULTS = {
    "filterbank": {"f_low": 80.0, "f_high": 16000.0},
    **{
        name: {f.name: f.default for f in fields(cls)}
        for name, cls in _SECTION_TYPES.items()
    },
}

_IO_KEYS = ("output_dir",) + tuple(
    name + suffix for name in CHANNEL_NAMES for suffix in ("", "_a", "_b")
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a design run needs, fully typed and defaulted."""

    rir_paths: dict  # channel name -> tuple of one or two absolute paths
    output_dir: str
    f_low: float
    f_high: float
    target: TargetFunction
    solver: SolverConfig
    chain: SupportChain

    def filterbank(self, sample_rate: int) -> FilterbankSpec:
        """The configured bank at the responses' rate; its Nyquist check
        is the one [filterbank] check that needs the rate."""
        try:
            return make_spec(sample_rate, self.f_low, self.f_high)
        except ContractError as exc:
            raise ConfigError("[filterbank] %s" % exc) from None

    def load_rirs(self) -> RirSet:
        """Read the configured WAVs, averaging microphone pairs."""
        loaded = {}
        for name, paths in self.rir_paths.items():
            captures = [ImpulseResponse(read_wav(p)) for p in paths]
            loaded[name] = captures[0] if len(captures) == 1 else average_pair(*captures)
        return RirSet(**loaded)

    def check_lengths(self, rirs: RirSet, spec: FilterbankSpec) -> None:
        """Refuse responses that `spec`, the bank that measures them, cannot
        measure: responses at another rate, or one shorter than its lowest
        band needs (gammatone.min_response_length)."""
        rate = rirs.sample_rate
        if rate != spec.sample_rate:
            raise ConfigError(
                "[io] the responses are at %d Hz, the bank that measures them at %d Hz"
                % (rate, spec.sample_rate)
            )
        need = min_response_length(spec)
        for name, ir in rirs.responses.items():
            if ir.data.size < need:
                raise ConfigError(
                    "[io] %s: %s has %d samples (%.1f ms at %d Hz); the lowest "
                    "band of [filterbank] needs at least %d (%.1f ms)"
                    % (name, " + ".join(map(os.path.basename, self.rir_paths[name])),
                       ir.data.size, 1000.0 * ir.data.size / rate, rate,
                       need, 1000.0 * need / rate)
                )


def _typed(section: str, key: str, raw: str, like) -> object:
    try:
        return type(like)(raw)
    except ValueError:
        raise ConfigError(
            "[%s] %s: %r is not a valid %s"
            % (section, key, raw, type(like).__name__)
        ) from None


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc)) from exc

    known = set(_DEFAULTS) | {"io"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError("unknown section [%s] in %s" % (section, path))

    values = {}
    for section, defaults in _DEFAULTS.items():
        values[section] = dict(defaults)
        if not parser.has_section(section):
            continue
        for key, raw in parser[section].items():
            if key not in defaults:
                raise ConfigError("unknown key %r in section [%s]" % (key, section))
            values[section][key] = _typed(section, key, raw, defaults[key])
    # the bank's rate comes from the responses, so only its Nyquist
    # check waits for the design
    try:
        check_bank(**values["filterbank"])
    except ContractError as exc:
        raise ConfigError("[filterbank] %s" % exc) from None
    for section, cls in _SECTION_TYPES.items():
        try:
            values[section] = cls(**values[section])
        except ContractError as exc:
            raise ConfigError("[%s] %s" % (section, exc)) from None

    if not parser.has_section("io"):
        raise ConfigError("missing required section [io]")
    io_sec = dict(parser["io"])
    for key in io_sec:
        if key not in _IO_KEYS:
            raise ConfigError("unknown key %r in section [io]" % key)

    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return os.path.normpath(os.path.join(base, p))

    rir_paths = {}
    for name in CHANNEL_NAMES:
        single = io_sec.get(name)
        pair = (io_sec.get(name + "_a"), io_sec.get(name + "_b"))
        if single is not None and any(pair):
            raise ConfigError(
                "[io] %s: give either one path or an _a/_b pair, not both" % name
            )
        if single is not None:
            rir_paths[name] = (resolve(single),)
        elif all(pair):
            rir_paths[name] = (resolve(pair[0]), resolve(pair[1]))
        elif any(pair):
            raise ConfigError("[io] %s: _a/_b pair is incomplete" % name)
        else:
            raise ConfigError("[io] is missing a path for %s" % name)

    return RunConfig(
        rir_paths=rir_paths,
        output_dir=resolve(io_sec.get("output_dir", ".")),
        target=values["target"],
        solver=values["solver"],
        chain=values["render"],
        **values["filterbank"],
    )
