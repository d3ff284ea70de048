"""Room equalisation toolkit: fill the reverberant field from supporting
loudspeakers so the total response meets a sloped spectral target while
the primary loudspeakers' direct sound stays untouched."""

from .audio import AudioBuffer, ImpulseResponse, convolve, read_wav, rms_energy, write_wav
from .gammatone import (
    FilterbankSpec,
    band_energies,
    band_gain_eq,
    erb_of,
    impulse_band_energies,
    make_spec,
    synthesize,
)
from .target import TargetFunction, band_targets, level_at
from .rirs import RirSet, average_pair, balance_levels
from .solver import (
    BandGainSet,
    ChannelSolve,
    SolverConfig,
    anchor_target,
    initial_gains,
    solve_front_gains,
    solve_gains,
)
from .render import (
    DecorrelatorFilter,
    EqualisationDesign,
    RenderResult,
    SupportChain,
    design_decorrelator,
    render,
)
from .simulate import (
    SyntheticRirParams,
    VerificationReport,
    export_report,
    simulate_total,
    synth_rir,
)
from .pipeline import solve_design
from .designfile import load_design, save_design
from .config import RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "ImpulseResponse",
    "convolve",
    "read_wav",
    "rms_energy",
    "write_wav",
    "FilterbankSpec",
    "band_energies",
    "band_gain_eq",
    "erb_of",
    "impulse_band_energies",
    "make_spec",
    "synthesize",
    "TargetFunction",
    "band_targets",
    "level_at",
    "RirSet",
    "average_pair",
    "balance_levels",
    "BandGainSet",
    "ChannelSolve",
    "SolverConfig",
    "anchor_target",
    "initial_gains",
    "solve_front_gains",
    "solve_gains",
    "DecorrelatorFilter",
    "EqualisationDesign",
    "RenderResult",
    "SupportChain",
    "design_decorrelator",
    "render",
    "SyntheticRirParams",
    "VerificationReport",
    "export_report",
    "simulate_total",
    "synth_rir",
    "solve_design",
    "load_design",
    "save_design",
    "RunConfig",
    "load_config",
    "__version__",
]
