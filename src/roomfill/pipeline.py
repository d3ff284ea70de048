"""End-to-end design solve: from a measured impulse response set to a
complete, renderable equalisation design.

This is the piece the command line calls; it wires balancing, the
per-channel gain solves and the front-feed solve together so every
consumer measures through the same chain the renderer will play through.
"""
from __future__ import annotations

from .audio import AudioBuffer, ImpulseResponse
from .errors import ContractError
from .gammatone import EQ_IR_LEN, FilterbankSpec, _band_energy_meter
from .render import DEFAULT_DECORRELATOR_LEN, EqualisationDesign, SupportChain
from .rirs import RirSet, balance_levels
from .solver import BandGainSet, solve_front_gains, solve_gains
from .target import TargetFunction


def room_meter(spec: FilterbankSpec, rirs: RirSet, chain: SupportChain):
    """The band-energy meter every solve and simulation of one room
    measures through, built once per command. It fits the longest of the
    four responses convolved with the supporting chain's impulse response
    (bulk delay, fill EQ, decorrelator), which bounds each fill and front
    solve's total and each side of simulate_total."""
    longest = max(ir.data.size for ir in rirs.responses.values())
    delay = chain.delay_samples(rirs.sample_rate)
    return _band_energy_meter(spec, longest + delay + EQ_IR_LEN + DEFAULT_DECORRELATOR_LEN - 2)


def solve_design(
    rirs: RirSet,
    spec: FilterbankSpec,
    target: TargetFunction,
    chain: SupportChain = SupportChain(),
) -> EqualisationDesign:
    """Solve both channels against the target and assemble the design.

    Levels are balanced first: every solve runs on the responses scaled by
    their balance gains, and the design stores those gains for the
    renderer. The fill solve for each side measures through that side's
    decorrelator and the bulk delay from `chain`, so the solved gains
    describe the playback chain, not an idealised one. The front-feed gains are
    solved as well so the design supports front_eq rendering without
    another measurement pass. All four solves measure through one
    room_meter.

    Convergence is not required here; inspect the returned channel
    solves. Unfillable bands raise from the solve itself.
    """
    if spec.sample_rate != rirs.sample_rate:
        raise ContractError(
            "filterbank sample rate %d does not match the responses (%d)"
            % (spec.sample_rate, rirs.sample_rate)
        )
    balance = balance_levels(rirs)
    meter = room_meter(spec, rirs, chain)
    fill = {}
    front = {}
    for side in ("left", "right"):
        primary, support = (
            ImpulseResponse(AudioBuffer(getattr(rirs, name).data * balance[name], rirs.sample_rate))
            for name in ("primary_" + side, "support_" + side)
        )
        fill[side] = solve_gains(
            primary,
            support,
            target,
            spec,
            decorrelator=chain.decorrelator(side),
            extra_delay=chain.delay_samples(rirs.sample_rate),
            meter=meter,
        )
        front[side] = solve_front_gains(primary, target, spec, meter=meter)

    return EqualisationDesign(
        spec=spec,
        gains=BandGainSet(spec, fill["left"], fill["right"]),
        front_gains=BandGainSet(spec, front["left"], front["right"]),
        target=target,
        balance_gains=balance,
        chain=chain,
    )
