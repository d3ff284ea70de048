"""End-to-end design solve: from a measured impulse response set to a
complete, renderable equalisation design.

This is the piece the command line calls; it wires balancing, the
per-channel gain solves and the front-feed solve together so every
consumer measures through the same chain the renderer will play through.
"""
from __future__ import annotations

from .audio import AudioBuffer, ImpulseResponse
from .errors import ContractError
from .gammatone import FilterbankSpec
from .render import EqualisationDesign, SupportChain
from .rirs import RirSet, balance_levels
from .solver import BandGainSet, SolverConfig, solve_front_gains, solve_gains
from .target import TargetFunction


def solve_design(
    rirs: RirSet,
    spec: FilterbankSpec,
    target: TargetFunction,
    cfg: SolverConfig,
    chain: SupportChain = SupportChain(),
) -> EqualisationDesign:
    """Solve both channels against the target and assemble the design.

    Levels are balanced first: every solve runs on the responses scaled by
    their balance gains, and the design stores those gains for the
    renderer. The fill solve for each side measures through that side's
    decorrelator and the bulk delay from `chain`, so the solved gains
    describe the playback chain, not an idealised one. The front-feed gains are
    solved as well so the design supports front_eq rendering without
    another measurement pass.

    Convergence is not required here; inspect the returned channel
    solves. Unfillable bands raise from the solve itself.
    """
    if spec.sample_rate != rirs.sample_rate:
        raise ContractError(
            "filterbank sample rate %d does not match the responses (%d)"
            % (spec.sample_rate, rirs.sample_rate)
        )
    balance = balance_levels(rirs)

    # Every solve measures through the smallest band-energy meter in
    # `meters` that fits it. The fill solve's chain is the longer one, so
    # with equally long responses the first fill solve builds the only
    # meter and the other three solves reuse it.
    meters = {}
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
            cfg,
            decorrelator=chain.decorrelator(side),
            extra_delay=chain.delay_samples(rirs.sample_rate),
            meters=meters,
        )
        front[side] = solve_front_gains(primary, target, spec, cfg, meters=meters)

    return EqualisationDesign(
        spec=spec,
        gains=BandGainSet(spec, fill["left"], fill["right"]),
        front_gains=BandGainSet(spec, front["left"], front["right"]),
        target=target,
        balance_gains=balance,
        chain=chain,
    )
