"""Per-band gain solve: how loudly each gammatone band of the supporting
loudspeaker must play so primary-plus-fill band energy meets the target.

Left and right channels are solved independently, each as a pure function
of that channel's impulse response pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import ImpulseResponse
from .errors import ContractError, UnfillableBandError
from .gammatone import EQ_IR_LEN, FilterbankSpec, _band_energy_meter, _check_rate, band_gain_eq
from .target import TargetFunction, band_targets

#: Amplitude cap per band (20 dB); protects the supporting channel from
#: unfillable notches blowing up.
G_MAX = 10.0

#: Support-profile energies below this are treated as no energy at all.
SUPPORT_ENERGY_FLOOR = 1e-12

#: Damping of the multiplicative update (see solve_gains).
DAMPING = 0.7

#: A band is met within this many dB of its target: half simulate's 1 dB
#: budget. At 0.25 and 0.1 dB more solves stall (ROADMAP item 12).
TOLERANCE_DB = 0.5

#: A solve stops after this many steps. Every measured room stops sooner,
#: converged or stalled (29 steps at most).
MAX_ITERATIONS = 50

#: A solve stops once this many steps pass without a new best max error. On
#: the pinned 1 s and 2 s rooms and a 0.3 s notched room at TOLERANCE_DB 0.5,
#: 0.25 and 0.1, a new best never came over 3 steps after the last, and a
#: solve past its best ran 12-43 more steps to its cap without beating it.
STALL_STEPS = 8


@dataclass
class ChannelSolve:
    """Solved gains for one channel, with convergence bookkeeping.

    residual_db is achieved-total-minus-target per band; trace records the
    max active-band matching error (dB) at each iteration.
    """

    gains: np.ndarray
    offset_db: float
    residual_db: np.ndarray
    iterations_used: int
    converged: bool
    trace: tuple = ()

    @property
    def capped_bands(self) -> tuple:
        """Indices of the bands whose gain sits at the G_MAX cap."""
        return tuple(int(i) for i in np.flatnonzero(self.gains >= G_MAX))


@dataclass
class BandGainSet:
    """The left/right pair of channel solves over one filterbank spec."""

    spec: FilterbankSpec
    left: ChannelSolve
    right: ChannelSolve


def _profile_db(profile: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(profile)


def anchor_target(primary_profile: np.ndarray, shape: np.ndarray) -> float:
    """Solve the target's absolute level against a measured profile: the
    95th percentile of primary_dB - shape_dB, so the target hugs the
    primary's upper envelope and the fill stays a correction.
    """
    primary_profile = np.asarray(primary_profile, dtype=np.float64)
    shape = np.asarray(shape, dtype=np.float64)
    if primary_profile.shape != shape.shape:
        raise ContractError("profile and shape must have equal length")
    if np.any(primary_profile <= 0) or np.any(shape <= 0):
        raise ContractError("profiles must be strictly positive")
    diffs = _profile_db(primary_profile) - _profile_db(shape)
    return float(np.percentile(diffs, 95.0))


def initial_gains(
    primary_profile: np.ndarray,
    support_profile: np.ndarray,
    targets: np.ndarray,
    spec: FilterbankSpec,
) -> np.ndarray:
    """Closed-form solve ignoring band overlap:
    g_b = sqrt(max(0, T_b - E^P_b) / E^S_b)."""
    primary_profile = np.asarray(primary_profile, dtype=np.float64)
    support_profile = np.asarray(support_profile, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    deficits = np.clip(targets - primary_profile, 0.0, None)
    bad = (deficits > 0) & (support_profile < SUPPORT_ENERGY_FLOOR)
    if np.any(bad):
        idx = np.flatnonzero(bad)
        raise UnfillableBandError(idx, [spec.center_freqs[i] for i in idx])
    out = np.zeros_like(deficits)
    fill = deficits > 0
    out[fill] = np.sqrt(deficits[fill] / support_profile[fill])
    return out


def _chain_meter(spec, base_len, chain_len, meter=None):
    """Band-energy meter for one solve, sized so that the
    coherent total base + EQ * chain fits: the product of the EQ's and the
    chain's spectra is then the spectrum of their linear convolution. The
    profiles are shorter and measure the same through it.

    A given `meter` (pipeline.room_meter's, shared by a command's solves)
    is returned when it fits that total, and refused when it does not,
    since a product of spectra would then wrap around. Without one, a
    meter of exactly the size needed is built."""
    n = max(base_len, EQ_IR_LEN + chain_len - 1)
    if meter is None:
        return _band_energy_meter(spec, n)
    if meter.n < n:
        raise ContractError(
            "a meter for %d samples cannot measure a %d-sample total" % (meter.n, n)
        )
    return meter


def _measure_total(gains, spec, base, chain, meter):
    """Band energies of the coherent total: base plus the fill EQ pushed
    through the chain, where `base` and `chain` are spectra from `meter`.
    One rfft per call, of the EQ; the front solve's base is 0."""
    eq = band_gain_eq(gains, spec)
    return meter.energies(base + meter.spectrum(eq.data) * chain)


def _anchored_targets(target, spec, offset_db, primary_profile=None):
    """Per-band energy targets and the offset (solved against the primary
    profile by anchor_target unless given) that anchors them."""
    shape = band_targets(target, spec)
    if offset_db is None:
        offset_db = anchor_target(primary_profile, shape)
    return float(offset_db), shape * 10.0 ** (offset_db / 10.0)


def _solve(gains, spec, targets, offset_db, base, chain, meter, baseline, *, retire):
    """The damped multiplicative solve behind solve_gains and
    solve_front_gains.

    Measures the band energies of base + EQ(gains) * chain (spectra from
    `meter`, see _measure_total) and drives the part the EQ contributes,
    total - baseline, to the deficit targets - baseline. With `retire`,
    bands already met by leakage from their neighbours are muted and
    leave the active set.
    """
    deficits = np.clip(targets - baseline, 0.0, None)
    gains0 = gains.copy()
    active = deficits > 0
    trace = []
    iterations = 0
    converged = False
    total = _measure_total(gains, spec, base, chain, meter)
    best_gains, best_total = gains.copy(), total
    best_err = np.inf
    best_iteration = 0

    while True:
        live = active & (gains > 0)
        if not np.any(live):
            converged = True
            break
        err_db = np.abs(
            10.0 * np.log10(np.maximum(total[live], 1e-300) / targets[live])
        )
        max_err = float(np.max(err_db))
        trace.append(max_err)
        if max_err < best_err:
            best_err = max_err
            best_gains, best_total = gains.copy(), total
            best_iteration = iterations
        if max_err <= TOLERANCE_DB:
            converged = True
            break
        if iterations >= MAX_ITERATIONS or iterations - best_iteration >= STALL_STEPS:
            break

        achieved = total - baseline
        ratio = np.ones_like(gains)
        ratio[live] = deficits[live] / np.maximum(achieved[live], 1e-300)
        gains = gains * ratio ** (DAMPING / 2.0)
        gains = np.clip(gains, 0.0, G_MAX)
        gains[~active] = 0.0
        if retire:
            # A band already at/above target on neighbour leakage alone
            # cannot pull its total down once its own fill is marginal (the
            # initial gain would supply the whole deficit, so (g/g0)^2 is
            # the fraction it still contributes); retire it.
            own_frac = np.zeros_like(gains)
            own_frac[active] = (gains[active] / gains0[active]) ** 2
            gains[active & (total >= targets) & (own_frac <= 0.05)] = 0.0
        iterations += 1
        total = _measure_total(gains, spec, base, chain, meter)

    if not converged:
        gains, total = best_gains, best_total

    residual = _profile_db(total) - _profile_db(targets)
    return ChannelSolve(
        gains=gains,
        offset_db=offset_db,
        residual_db=residual,
        iterations_used=iterations,
        converged=converged,
        trace=tuple(trace),
    )


def solve_gains(
    primary_ir: ImpulseResponse,
    support_ir: ImpulseResponse,
    target: TargetFunction,
    spec: FilterbankSpec,
    *,
    offset_db: float = None,
    decorrelator=None,
    extra_delay: int = 0,
    meter=None,
) -> ChannelSolve:
    """Iteratively refine band gains until the total response meets the
    per-band target.

    Each pass builds the fill EQ from the current gains, simulates the
    coherent total (primary response plus EQ convolved with the support
    response, through `decorrelator` and `extra_delay` when given so the
    measurement chain matches playback), and applies the damped
    multiplicative update g_b <- g_b * (deficit_b / achieved_b)^(DAMPING/2)
    where achieved_b is the fill the chain actually contributed,
    total_b - primary_b. Matching the total rather than the fill alone
    keeps the primary/fill cross-term, which band-energy bookkeeping
    would miss, inside the loop.

    Stops when every active band's total is within TOLERANCE_DB of its
    target. Bands whose deficit is already covered by leakage from
    neighbouring bands have their gain driven to zero and leave the
    active set. At MAX_ITERATIONS, or STALL_STEPS steps past the best max
    error, the best gains are returned flagged non-converged. Never raises
    for non-convergence; unfillable bands propagate from initial_gains.

    `meter` is a band-energy meter on `spec` to measure through, such as
    the room meter solve_design shares among its solves; one too small for
    the chain is refused (see _chain_meter). Without it the solve builds
    one of the size its chain needs.
    """
    if primary_ir.sample_rate != support_ir.sample_rate:
        raise ContractError("primary/support sample rate mismatch")
    _check_rate(primary_ir, spec)
    if extra_delay < 0:
        raise ContractError("extra_delay must be >= 0 samples, got %d" % extra_delay)
    taps = np.ones(1) if decorrelator is None else decorrelator.taps
    delayed = np.concatenate([np.zeros(extra_delay), support_ir.data])
    meter = _chain_meter(spec, primary_ir.data.size, delayed.size + taps.size - 1, meter)
    chain = meter.spectrum(delayed) * meter.spectrum(taps)
    primary = meter.spectrum(primary_ir.data)
    primary_profile = meter.energies(primary)
    support_profile = meter.energies(meter.spectrum(support_ir.data))
    offset_db, targets = _anchored_targets(target, spec, offset_db, primary_profile)
    gains = np.clip(
        initial_gains(primary_profile, support_profile, targets, spec), 0.0, G_MAX
    )
    return _solve(
        gains, spec, targets, offset_db,
        primary, chain, meter, primary_profile, retire=True,
    )


def solve_front_gains(
    primary_ir: ImpulseResponse,
    target: TargetFunction,
    spec: FilterbankSpec,
    *,
    offset_db: float = None,
    meter=None,
) -> ChannelSolve:
    """Gain solve for the front-equalisation stimulus.

    Here the equalised signal replaces the front feed outright, so the
    quantity to match is the full per-band target, not a deficit on top
    of an untouched primary: achieved_b = band energy of EQ through the
    primary response, driven to T_b. Bands above target get cut (g < 1);
    no band is ever muted. `meter` is taken as in solve_gains; without it
    the solve builds one that fits the EQ through the primary response.
    """
    _check_rate(primary_ir, spec)
    meter = _chain_meter(spec, 0, primary_ir.data.size, meter)
    primary = meter.spectrum(primary_ir.data)
    primary_profile = meter.energies(primary)
    offset_db, targets = _anchored_targets(target, spec, offset_db, primary_profile)
    zeros = np.zeros(spec.num_bands)
    gains = np.clip(initial_gains(zeros, primary_profile, targets, spec), 0.0, G_MAX)
    return _solve(
        gains, spec, targets, offset_db,
        0.0, primary, meter, zeros, retire=False,
    )

