"""Plain-text serialization of an equalisation design.

The file is an INI document with a leading [design] section carrying
format_version, which is checked before anything else, so a file of
another version is refused by its version rather than by the first key
that changed. There is no reader for an older version; `design` rebuilds
the file. Floats are written with repr so a value survives the round trip
bit-exactly and identical designs produce byte-identical files. The
filterbank is stored by its parameters, not its derived centre
frequencies; the loader rebuilds it and therefore cannot drift from the
code that made it.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import fields

import numpy as np

from .audio import FILE_SAMPLE_RATES
from .errors import ContractError, FormatError
from .gammatone import make_spec
from .render import EqualisationDesign, SupportChain
from .rirs import CHANNEL_NAMES
from .solver import BandGainSet, ChannelSolve
from .target import TargetFunction

FORMAT_VERSION = 4


def _field_types(cls) -> dict:
    return {f.name: type(f.default) for f in fields(cls)}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("%r is not finite" % text)
    return value


def _flag(text: str) -> bool:
    if text not in ("yes", "no"):
        raise ValueError("%r is not yes or no" % text)
    return text == "yes"


def _row(text: str, num_bands: int) -> np.ndarray:
    values = np.array([_finite(v) for v in text.split(",")])
    if values.size != num_bands:
        raise ValueError("%d values for a %d band filterbank" % (values.size, num_bands))
    return values


def _fmt(value) -> str:
    return repr(float(value))


# Every kind of value the file holds: how it is written, and how it is
# read back from its text (given the filterbank's band count, which only
# a per-band row uses). A read raises ValueError on a value no design can
# carry, so a NaN or inf never loads.
_KINDS = {
    int: ("%d".__mod__, lambda text, n: int(text)),
    float: (_fmt, lambda text, n: _finite(text)),
    bool: (lambda v: "yes" if v else "no", lambda text, n: _flag(text)),
    np.ndarray: (lambda v: ", ".join(map(_fmt, v)), _row),
}

_CHANNEL_SECTIONS = ("fill_left", "fill_right", "front_left", "front_right")

# Every section, key by key with the value's kind, in file order. [target]
# and [render] are the TargetFunction and SupportChain fields, typed by
# their defaults; a channel section is the fields a ChannelSolve stores,
# less the iteration trace.
_TABLE = {
    "design": {"format_version": int},
    "filterbank": {"sample_rate": int, "f_low": float, "f_high": float},
    "target": _field_types(TargetFunction),
    "render": _field_types(SupportChain),
    "balance": dict.fromkeys(CHANNEL_NAMES, float),
    **dict.fromkeys(
        _CHANNEL_SECTIONS,
        {
            "offset_db": float,
            "converged": bool,
            "iterations_used": int,
            "gains": np.ndarray,
            "residual_db": np.ndarray,
        },
    ),
}


# The sections that stand for one value, and what builds it from their
# keys; a value out of its range raises ContractError there.
_BUILDERS = {"filterbank": make_spec, "target": TargetFunction, "render": SupportChain}


def dumps_design(design: EqualisationDesign) -> str:
    sources = (
        {"format_version": FORMAT_VERSION}, design.spec, design.target, design.chain,
        design.balance_gains, design.gains.left, design.gains.right,
        design.front_gains.left, design.front_gains.right,
    )
    lines = []
    for (name, keys), source in zip(_TABLE.items(), sources):
        lines.append("[%s]" % name)
        for key, kind in keys.items():
            v = source[key] if isinstance(source, dict) else getattr(source, key)
            lines.append("%s = %s" % (key, _KINDS[kind][0](v)))
        lines.append("")
    return "\n".join(lines)


def save_design(design: EqualisationDesign, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_design(design))


def loads_design(text: str) -> EqualisationDesign:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise FormatError("not a design file: %s" % exc) from exc

    try:
        version = int(parser["design"]["format_version"])
    except (KeyError, ValueError):
        raise FormatError(
            "not a design file: no whole-number [design] format_version"
        ) from None
    if version != FORMAT_VERSION:
        raise FormatError(
            "design format_version %d is not supported (expected %d): "
            "run `design` again to rebuild it" % (version, FORMAT_VERSION)
        )

    if set(parser.sections()) != set(_TABLE):
        missing = set(_TABLE) - set(parser.sections())
        extra = set(parser.sections()) - set(_TABLE)
        raise FormatError(
            "design sections mismatch (missing %s, unexpected %s)"
            % (sorted(missing), sorted(extra))
        )

    # [filterbank] comes before every per-band row, so the bank is
    # rebuilt as soon as it is read and the rows are counted against it
    values = {}
    spec = None
    for name, keys in _TABLE.items():
        sec = parser[name]
        if set(sec) != set(keys):
            raise FormatError("unexpected keys in section [%s]" % name)
        values[name] = {}
        for key, kind in keys.items():
            try:
                values[name][key] = _KINDS[kind][1](sec[key], spec and spec.num_bands)
            except ValueError as exc:
                raise FormatError("[%s] %s: %s" % (name, key, exc)) from None
        if name == "filterbank" and values[name]["sample_rate"] not in FILE_SAMPLE_RATES:
            # no WAV input could be rendered or simulated at another rate
            raise FormatError(
                "[filterbank] sample_rate: %d Hz is not a WAV rate, expected one of %s"
                % (values[name]["sample_rate"], list(FILE_SAMPLE_RATES))
            )
        if name in _BUILDERS:
            try:
                values[name] = _BUILDERS[name](**values[name])
            except ContractError as exc:
                raise FormatError("[%s] %s" % (name, exc)) from None
        if name == "filterbank":
            spec = values[name]

    for name, gain in values["balance"].items():
        # a zero trim would mute a loudspeaker, a negative one invert it
        if not gain > 0:
            raise FormatError("[balance] %s: %r is not > 0" % (name, gain))
    channels = {}
    for name in _CHANNEL_SECTIONS:
        # a negative gain would invert the band's polarity
        if np.any(values[name]["gains"] < 0):
            raise FormatError("[%s] gains: every gain must be >= 0" % name)
        channels[name] = ChannelSolve(**values[name])
    return EqualisationDesign(
        spec=spec,
        gains=BandGainSet(spec, channels["fill_left"], channels["fill_right"]),
        front_gains=BandGainSet(spec, channels["front_left"], channels["front_right"]),
        target=values["target"],
        balance_gains=values["balance"],
        chain=values["render"],
    )


def load_design(path) -> EqualisationDesign:
    with open(path, "r", encoding="ascii") as fh:
        return loads_design(fh.read())
