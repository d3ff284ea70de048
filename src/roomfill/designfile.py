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

import numpy as np

from .errors import FormatError
from .gammatone import make_spec
from .render import EqualisationDesign
from .solver import G_MAX, BandGainSet, ChannelSolve
from .target import TargetFunction

FORMAT_VERSION = 1

_CHANNEL_SECTIONS = ("fill_left", "fill_right", "front_left", "front_right")

_SECTION_KEYS = {
    "design": ("format_version",),
    "filterbank": ("sample_rate", "f_low", "f_high", "bands_per_erb", "order"),
    "target": ("slope_db", "f_ref_low", "f_ref_high", "offset_db"),
    "render": ("delay_ms", "decorrelator_len", "seed_left", "seed_right"),
    "balance": ("primary_left", "primary_right", "support_left", "support_right"),
}
for _name in _CHANNEL_SECTIONS:
    _SECTION_KEYS[_name] = (
        "offset_db",
        "converged",
        "iterations_used",
        "gains",
        "residual_db",
    )


def _fmt(value) -> str:
    return repr(float(value))


def _fmt_list(values) -> str:
    return ", ".join(_fmt(v) for v in values)


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
    spec = design.spec
    target = design.target
    lines = [
        "[design]",
        "format_version = %d" % FORMAT_VERSION,
        "",
        "[filterbank]",
        "sample_rate = %d" % spec.sample_rate,
        "f_low = %s" % _fmt(spec.f_low),
        "f_high = %s" % _fmt(spec.f_high),
        "bands_per_erb = %s" % _fmt(spec.bands_per_erb),
        "order = %d" % spec.order,
        "",
        "[target]",
        "slope_db = %s" % _fmt(target.slope_db),
        "f_ref_low = %s" % _fmt(target.f_ref_low),
        "f_ref_high = %s" % _fmt(target.f_ref_high),
        "offset_db = %s" % _fmt(target.offset_db),
        "",
        "[render]",
        "delay_ms = %s" % _fmt(design.delay_ms),
        "decorrelator_len = %d" % design.decorrelator_len,
        "seed_left = %d" % design.seed_left,
        "seed_right = %d" % design.seed_right,
        "",
        "[balance]",
    ]
    for name in ("primary_left", "primary_right", "support_left", "support_right"):
        lines.append("%s = %s" % (name, _fmt(design.balance_gains[name])))
    lines.append("")
    lines += _channel_lines("fill_left", design.gains.left)
    lines += _channel_lines("fill_right", design.gains.right)
    lines += _channel_lines("front_left", design.front_gains.left)
    lines += _channel_lines("front_right", design.front_gains.right)
    return "\n".join(lines)


def save_design(design: EqualisationDesign, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_design(design))


def _parse_channel(parser, name: str, num_bands: int) -> ChannelSolve:
    sec = parser[name]
    gains = np.array([float(v) for v in sec["gains"].split(",")])
    residual = np.array([float(v) for v in sec["residual_db"].split(",")])
    if gains.size != num_bands or residual.size != num_bands:
        raise FormatError(
            "section [%s] carries %d gains for a %d band filterbank"
            % (name, gains.size, num_bands)
        )
    converged = sec["converged"].strip().lower()
    if converged not in ("yes", "no"):
        raise FormatError("converged must be yes or no, got %r" % sec["converged"])
    return ChannelSolve(
        gains=gains,
        offset_db=float(sec["offset_db"]),
        residual_db=residual,
        iterations_used=int(sec["iterations_used"]),
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

    version = int(parser["design"]["format_version"])
    if version != FORMAT_VERSION:
        raise FormatError(
            "design format_version %d is not supported (expected %d)"
            % (version, FORMAT_VERSION)
        )

    fb = parser["filterbank"]
    spec = make_spec(
        int(fb["sample_rate"]),
        float(fb["f_low"]),
        float(fb["f_high"]),
        bands_per_erb=float(fb["bands_per_erb"]),
        order=int(fb["order"]),
    )
    tg = parser["target"]
    target = TargetFunction(
        slope_db=float(tg["slope_db"]),
        f_ref_low=float(tg["f_ref_low"]),
        f_ref_high=float(tg["f_ref_high"]),
        offset_db=float(tg["offset_db"]),
    )
    channels = {
        name: _parse_channel(parser, name, spec.num_bands)
        for name in _CHANNEL_SECTIONS
    }
    rd = parser["render"]
    return EqualisationDesign(
        spec=spec,
        gains=BandGainSet(spec, channels["fill_left"], channels["fill_right"]),
        front_gains=BandGainSet(
            spec, channels["front_left"], channels["front_right"]
        ),
        target=target,
        balance_gains={k: float(v) for k, v in parser["balance"].items()},
        delay_ms=float(rd["delay_ms"]),
        decorrelator_len=int(rd["decorrelator_len"]),
        seed_left=int(rd["seed_left"]),
        seed_right=int(rd["seed_right"]),
    )


def load_design(path) -> EqualisationDesign:
    with open(path, "r", encoding="ascii") as fh:
        return loads_design(fh.read())
