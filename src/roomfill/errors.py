"""Exception types shared across the toolkit, and the
finiteness check its boundary types share."""
import math


class RoomfillError(Exception):
    """Base class for all toolkit errors."""


class FormatError(RoomfillError):
    """A file is structurally valid but uses an unsupported encoding."""


class ContractError(RoomfillError, ValueError):
    """An argument violates a documented precondition."""


def check_finite(owner, *names) -> None:
    """ContractError naming the first of `owner`'s fields `names` that is
    NaN or infinite: no comparison against a bound catches a NaN."""
    for name in names:
        value = getattr(owner, name)
        if not math.isfinite(value):
            raise ContractError("%s must be finite, got %r" % (name, value))


class DegenerateMeasurementError(RoomfillError):
    """A measured impulse response carries no usable energy."""


class UnfillableBandError(RoomfillError):
    """Bands need energy the supporting path cannot deliver.

    ``bands`` holds the offending band indices, ``center_freqs`` the
    matching centre frequencies in Hz.
    """

    def __init__(self, bands, center_freqs):
        self.bands = tuple(int(b) for b in bands)
        self.center_freqs = tuple(float(f) for f in center_freqs)
        freqs = ", ".join("%.1f Hz" % f for f in self.center_freqs)
        super().__init__(
            "support path has no energy in deficit band(s) %s (%s)"
            % (list(self.bands), freqs)
        )


class ConfigError(RoomfillError):
    """A run configuration file is malformed or contains unknown keys."""
