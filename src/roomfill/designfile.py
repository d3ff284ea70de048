"""Plain-text serialization of an equalisation design.

The file is an INI document with a leading [design] section carrying
format_version. Floats are written with repr so a value survives the
round trip bit-exactly and identical designs produce byte-identical
files. The filterbank is stored by its parameters, not its derived
centre frequencies; the loader rebuilds it and therefore cannot drift
from the code that made it.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import fields

import numpy as np

from .errors import FormatError
from .gammatone import make_spec
from .render import EqualisationDesign, SupportChain
from .rirs import CHANNEL_NAMES
from .solver import G_MAX, BandGainSet, ChannelSolve
from .target import TargetFunction

FORMAT_VERSION = 1


def _field_types(cls) -> dict:
    return {f.name: type(f.default) for f in fields(cls)}


# Every section of single values, key by key with the value's type: an
# int is written with %d, a float with repr. [target] and [render] are the
# TargetFunction and SupportChain fields, typed by their defaults.
_SCALAR_SECTIONS = {
    "design": {"format_version": int},
    "filterbank": {
        "sample_rate": int,
        "f_low": float,
        "f_high": float,
        "bands_per_erb": float,
        "order": int,
    },
    "target": _field_types(TargetFunction),
    "render": _field_types(SupportChain),
    "balance": dict.fromkeys(CHANNEL_NAMES, float),
}

_CHANNEL_SECTIONS = ("fill_left", "fill_right", "front_left", "front_right")

_SECTION_KEYS = {
    **_SCALAR_SECTIONS,
    **dict.fromkeys(
        _CHANNEL_SECTIONS,
        ("offset_db", "converged", "iterations_used", "gains", "residual_db"),
    ),
}


def _fmt(value) -> str:
    return repr(float(value))


def _fmt_list(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def _scalar_lines(name: str, source) -> list:
    """[name] with each key's value taken from a dict or an object."""
    lines = ["[%s]" % name]
    for key, kind in _SCALAR_SECTIONS[name].items():
        v = source[key] if isinstance(source, dict) else getattr(source, key)
        lines.append("%s = %s" % (key, "%d" % v if kind is int else _fmt(v)))
    return lines + [""]


def _channel_lines(name: str, solve: ChannelSolve) -> list:
    return [
        "[%s]" % name,
        "offset_db = %s" % _fmt(solve.offset_db),
        "converged = %s" % ("yes" if solve.converged else "no"),
        "iterations_used = %d" % solve.iterations_used,
        "gains = %s" % _fmt_list(solve.gains),
        "residual_db = %s" % _fmt_list(solve.residual_db),
        "",
    ]


def dumps_design(design: EqualisationDesign) -> str:
    lines = []
    for name, source in (
        ("design", {"format_version": FORMAT_VERSION}),
        ("filterbank", design.spec),
        ("target", design.target),
        ("render", design.chain),
        ("balance", design.balance_gains),
    ):
        lines += _scalar_lines(name, source)
    lines += _channel_lines("fill_left", design.gains.left)
    lines += _channel_lines("fill_right", design.gains.right)
    lines += _channel_lines("front_left", design.front_gains.left)
    lines += _channel_lines("front_right", design.front_gains.right)
    return "\n".join(lines)


def save_design(design: EqualisationDesign, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_design(design))


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _parse(sec, key: str, convert):
    """convert(sec[key]), or a FormatError naming the section and key."""
    try:
        return convert(sec[key])
    except ValueError:
        raise FormatError(
            "[%s] %s: cannot parse %r" % (sec.name, key, sec[key])
        ) from None


def _parse_scalars(parser, name: str) -> dict:
    sec = parser[name]
    return {key: _parse(sec, key, kind) for key, kind in _SCALAR_SECTIONS[name].items()}


def _parse_channel(parser, name: str, num_bands: int) -> ChannelSolve:
    sec = parser[name]
    gains = _parse(sec, "gains", _floats)
    residual = _parse(sec, "residual_db", _floats)
    if gains.size != num_bands or residual.size != num_bands:
        raise FormatError(
            "section [%s] carries %d gains for a %d band filterbank"
            % (name, gains.size, num_bands)
        )
    # render would play these: a NaN gain writes NaN samples and a
    # negative one inverts the band's polarity
    if not np.all(np.isfinite(gains) & (gains >= 0)):
        raise FormatError("[%s] gains: every gain must be finite and >= 0" % name)
    converged = sec["converged"].strip().lower()
    if converged not in ("yes", "no"):
        raise FormatError("converged must be yes or no, got %r" % sec["converged"])
    return ChannelSolve(
        gains=gains,
        offset_db=_parse(sec, "offset_db", float),
        residual_db=residual,
        iterations_used=_parse(sec, "iterations_used", int),
        converged=converged == "yes",
        capped_bands=tuple(int(i) for i in np.flatnonzero(gains >= G_MAX)),
    )


def loads_design(text: str) -> EqualisationDesign:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise FormatError("not a design file: %s" % exc) from exc

    if set(parser.sections()) != set(_SECTION_KEYS):
        missing = set(_SECTION_KEYS) - set(parser.sections())
        extra = set(parser.sections()) - set(_SECTION_KEYS)
        raise FormatError(
            "design sections mismatch (missing %s, unexpected %s)"
            % (sorted(missing), sorted(extra))
        )
    for name, keys in _SECTION_KEYS.items():
        if set(parser[name]) != set(keys):
            raise FormatError("unexpected keys in section [%s]" % name)

    version = _parse_scalars(parser, "design")["format_version"]
    if version != FORMAT_VERSION:
        raise FormatError(
            "design format_version %d is not supported (expected %d)"
            % (version, FORMAT_VERSION)
        )
    balance = _parse_scalars(parser, "balance")
    for name, gain in balance.items():
        # a zero or negative trim would mute or invert a loudspeaker
        if not (np.isfinite(gain) and gain > 0):
            raise FormatError("[balance] %s: %r is not finite and > 0" % (name, gain))

    spec = make_spec(**_parse_scalars(parser, "filterbank"))
    channels = {
        name: _parse_channel(parser, name, spec.num_bands)
        for name in _CHANNEL_SECTIONS
    }
    return EqualisationDesign(
        spec=spec,
        gains=BandGainSet(spec, channels["fill_left"], channels["fill_right"]),
        front_gains=BandGainSet(
            spec, channels["front_left"], channels["front_right"]
        ),
        target=TargetFunction(**_parse_scalars(parser, "target")),
        balance_gains=balance,
        chain=SupportChain(**_parse_scalars(parser, "render")),
    )


def load_design(path) -> EqualisationDesign:
    with open(path, "r", encoding="ascii") as fh:
        return loads_design(fh.read())
