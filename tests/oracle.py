"""A3's independent reference solve for one band, kept beside the tests
that compare the iterative solver against it. It knows nothing of the
solver: it measures primary-plus-fill band energy directly and searches g.
"""
import numpy as np
from scipy.signal import fftconvolve

from roomfill.audio import ImpulseResponse
from roomfill.errors import ContractError
from roomfill.gammatone import FilterbankSpec, _band_energy_meter, band_gain_eq
from roomfill.solver import G_MAX


def oracle_single_band(
    primary_ir: ImpulseResponse,
    support_ir: ImpulseResponse,
    target_energy: float,
    band: int,
    spec: FilterbankSpec,
    g_max: float = G_MAX,
) -> float:
    """Brute-force reference solve for one band.

    Golden-section search over g in [0, g_max] minimising
    |band energy of (primary + g * EQ_b(support)) - target_energy|,
    where EQ_b is the one-hot band EQ (band_gain_eq passing only `band`).
    Deliberately knows nothing about the iterative solver. Tolerance 1e-4
    on g.
    """
    if not 0 <= band < spec.num_bands:
        raise ContractError("band index out of range")
    one_hot = np.zeros(spec.num_bands)
    one_hot[band] = 1.0
    eq = band_gain_eq(one_hot, spec)
    fill_unit = fftconvolve(eq.data, support_ir.data)

    n = max(primary_ir.data.size, fill_unit.size)
    base = np.zeros(n)
    base[: primary_ir.data.size] = primary_ir.data
    unit = np.zeros(n)
    unit[: fill_unit.size] = fill_unit

    meter = _band_energy_meter(spec, n)

    def objective(g: float) -> float:
        e = meter.energies(meter.spectrum(base + g * unit))[band]
        return abs(e - target_energy)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, float(g_max)
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > 1e-4:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = objective(d)
    g = 0.5 * (lo + hi)
    # the boundary g = 0 is a legitimate optimum the bracketing can miss
    if objective(0.0) <= objective(g):
        return 0.0
    return float(g)
