"""End-to-end acceptance checks, one test per shipped guarantee (A1-A10).

Each test states its tolerance inline and fails loudly when the toolkit
drifts from the published behaviour. Stated runtime budgets are asserted
with time.perf_counter around the measured section.
"""
import math
import time

import numpy as np
import pytest

from roomfill.audio import AudioBuffer, ImpulseResponse, rms_energy
from roomfill.cli import main
from roomfill.designfile import load_design
from roomfill.errors import ContractError
from roomfill.gammatone import analyze, make_spec, synthesize
from roomfill.render import (
    DEFAULT_SEED_LEFT,
    DEFAULT_SEED_RIGHT,
    EqualisationDesign,
    SupportChain,
    design_decorrelator,
    render,
)
from roomfill.rirs import CHANNEL_NAMES, average_pair, balance_levels
from roomfill.simulate import SyntheticRirParams, synth_rir
from roomfill.solver import (
    BandGainSet,
    ChannelSolve,
    SolverConfig,
    _anchored_targets,
    anchor_target,
    solve_gains,
)
from roomfill.target import TargetFunction, band_targets
from roomfill.gammatone import band_energies

from conftest import report_csv
from oracle import oracle_single_band

RUN_INI = """[io]
primary_left = pl.wav
primary_right = pr.wav
support_left = sl.wav
support_right = sr.wav
output_dir = out
"""


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """The pinned room (notched primaries, flat supports) pushed through
    the full design + simulate pipeline twice, into separate directories."""
    root = tmp_path_factory.mktemp("acceptance")
    quad = (("pl", 201, True), ("pr", 202, True), ("sl", 203, False), ("sr", 204, False))
    for name, seed, notched in quad:
        args = [
            "synth-rir", "-o", str(root / ("%s.wav" % name)),
            "--t60-ms", "300", "--length-ms", "1000",
            "--direct-delay-ms", "3", "--seed", str(seed),
        ]
        if notched:
            args += ["--notch", "1000,15,3"]
        assert main(args) == 0
    (root / "run.ini").write_text(RUN_INI)

    runs = {}
    for tag in ("first", "second"):
        out = root / tag
        start = time.perf_counter()
        rc_design = main(
            ["design", "--config", str(root / "run.ini"), "-o", str(out / "design.txt")]
        )
        rc_simulate = main(
            ["simulate", "--design", str(out / "design.txt"),
             "--config", str(root / "run.ini"), "-o", str(out / "report.csv")]
        )
        runs[tag] = {
            "dir": out,
            "design_rc": rc_design,
            "simulate_rc": rc_simulate,
            "elapsed": time.perf_counter() - start,
        }
    return runs


def _unity_design(rate: int) -> EqualisationDesign:
    spec = make_spec(rate, 80.0, 16000.0)

    def flat():
        n = spec.num_bands
        mk = lambda: ChannelSolve(
            gains=np.ones(n), offset_db=0.0, residual_db=np.zeros(n),
            iterations_used=0, converged=True,
        )
        return BandGainSet(spec, mk(), mk())

    return EqualisationDesign(
        spec=spec, gains=flat(), front_gains=flat(), target=TargetFunction()
    )


def test_a01_reconstruction_is_flat_within_1db():
    """Analysis/synthesis of an impulse stays within +-1 dB of unity over
    100 Hz .. 12.8 kHz at 48 kHz, in under 5 seconds."""
    start = time.perf_counter()
    spec = make_spec(48000, 80.0, 16000.0)
    x = np.zeros(8192)
    x[0] = 1.0
    y = synthesize(analyze(AudioBuffer(x, 48000), spec))
    mag = np.abs(np.fft.rfft(y.mono, 65536))
    freqs = np.fft.rfftfreq(65536, 1.0 / 48000)
    sel = (freqs >= 100.0) & (freqs <= 12800.0)
    dev_db = 20.0 * np.log10(mag[sel])
    assert float(np.max(np.abs(dev_db))) <= 1.0
    assert time.perf_counter() - start < 5.0


def test_a02_pinned_room_design_converges_and_simulation_meets_budget(pinned_run):
    """On the pinned fixture pair the fill solve converges within 50
    iterations and the simulated deviation over filled bands is <= 1 dB,
    all inside 60 seconds."""
    run = pinned_run["first"]
    assert run["elapsed"] < 60.0
    assert run["design_rc"] == 0
    assert run["simulate_rc"] == 0

    design = load_design(run["dir"] / "design.txt")
    for solve in (design.gains.left, design.gains.right):
        assert solve.converged
        assert solve.iterations_used <= 50

    for channel in ("left", "right"):
        _, summary = report_csv(run["dir"] / ("report_%s.csv" % channel))
        assert float(summary["max_abs_deviation_filled_bands_db"]) <= 1.0


def test_a03_solved_gain_matches_oracle_on_randomized_single_band_rooms():
    """Across 10 randomized single-band problems the iterative solve lands
    within 1e-2 relative of an independent golden-section oracle, in under
    30 seconds."""
    start = time.perf_counter()
    cfg = SolverConfig(tolerance_db=0.01, max_iterations=200)
    for k in range(10):
        rng = np.random.default_rng(700 + k)
        f0 = float(rng.uniform(300.0, 4000.0))
        t60 = float(rng.uniform(150.0, 400.0))
        length = 3.2 * t60
        primary = synth_rir(SyntheticRirParams(
            48000, length, t60, direct_delay_ms=2.0,
            seed=int(rng.integers(1, 10000)),
        ))
        support = synth_rir(SyntheticRirParams(
            48000, length, t60, direct_delay_ms=4.0,
            seed=int(rng.integers(10000, 20000)),
        ))
        spec = make_spec(48000, f0, f0)
        offset = anchor_target(
            band_energies(primary, spec),
            band_targets(TargetFunction(), spec),
        ) + float(rng.uniform(2.0, 8.0))
        solve = solve_gains(
            primary, support, TargetFunction(), spec, cfg, offset_db=offset
        )
        target_energy = _anchored_targets(TargetFunction(), spec, offset)[1][0]
        g_ref = oracle_single_band(primary, support, target_energy, 0, spec)
        assert g_ref > 0.0
        assert abs(solve.gains[0] - g_ref) <= 1e-2 * g_ref, "fixture %d" % k
    assert time.perf_counter() - start < 30.0


def test_a04_proposed_mode_leaves_fronts_bit_identical(solved_design):
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(500, 15000))
        x = rng.standard_normal((2, n)) * 0.1
        out = render(AudioBuffer(x, 48000), solved_design, "proposed").buffer.samples
        assert np.array_equal(out[0][:n], x[0])
        assert np.array_equal(out[1][:n], x[1])
        assert not np.any(out[0][n:])
        assert not np.any(out[1][n:])


def test_a05_support_onset_sits_at_10ms_and_delay_window_is_enforced():
    for rate in (44100, 48000):
        design = _unity_design(rate)
        imp = np.zeros((2, 1))
        imp[0, 0] = 1.0
        imp[1, 0] = 1.0
        out = render(AudioBuffer(imp, rate), design, "proposed").buffer.samples
        expected = round(0.010 * rate)
        for rear in (out[2], out[3]):
            onset = int(np.flatnonzero(rear)[0])
            assert abs(onset - expected) <= 1

    spec = make_spec(48000, 80.0, 16000.0)
    for bad_ms in (1.9, 51.0):
        with pytest.raises(ContractError):
            EqualisationDesign(
                spec=spec,
                gains=_unity_design(48000).gains,
                front_gains=_unity_design(48000).front_gains,
                target=TargetFunction(),
                chain=SupportChain(delay_ms=bad_ms),
            )


def test_a06_decorrelators_are_allpass_energy_preserving_and_decorrelated():
    taps = {}
    for seed in (DEFAULT_SEED_LEFT, DEFAULT_SEED_RIGHT):
        filt = design_decorrelator(1024, seed)
        mag_db = 20.0 * np.log10(np.abs(np.fft.rfft(filt.taps)))
        assert float(np.max(np.abs(mag_db))) <= 0.01  # every bin
        energy = math.fsum(float(t) * float(t) for t in filt.taps)
        assert abs(energy - 1.0) <= 1e-6
        taps[seed] = filt.taps

    a, b = taps[DEFAULT_SEED_LEFT], taps[DEFAULT_SEED_RIGHT]
    xcorr = np.correlate(a, b, mode="full")
    peak = float(np.max(np.abs(xcorr))) / math.sqrt(
        float(np.dot(a, a)) * float(np.dot(b, b))
    )
    assert peak < 0.3


def test_a07_default_target_spans_exactly_5db():
    from roomfill.target import level_at

    target = TargetFunction()
    assert level_at(target, 20.0) - level_at(target, 20000.0) == 5.0


def test_a08_pair_averaging_identities_and_balance_tolerance(fixture_rirs):
    x = fixture_rirs.primary_left
    same = average_pair(x, x)
    assert np.array_equal(same.data, x.data)
    flipped = ImpulseResponse(AudioBuffer(-x.data, x.sample_rate))
    assert not np.any(average_pair(x, flipped).data)

    gains = balance_levels(fixture_rirs)
    levels = {
        name: rms_energy(AudioBuffer(ir.data * gains[name], ir.sample_rate))
        for name, ir in fixture_rirs.responses.items()
    }
    for name in CHANNEL_NAMES:
        assert abs(10.0 * math.log10(levels[name] / levels["primary_left"])) <= 0.01


def test_a09_design_and_simulation_are_byte_identical_across_runs(pinned_run):
    first, second = pinned_run["first"]["dir"], pinned_run["second"]["dir"]
    for name in ("design.txt", "report_left.csv", "report_right.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_a10_reference_modes_route_channels_exactly(solved_design):
    rng = np.random.default_rng(99)
    x = rng.standard_normal((2, 4000)) * 0.1
    buf = AudioBuffer(x, 48000)

    stereo = render(buf, solved_design, "stereo").buffer.samples
    assert not np.any(stereo[2])
    assert not np.any(stereo[3])

    rear = render(buf, solved_design, "rear_stereo").buffer.samples
    assert np.array_equal(rear[2], rear[0])
    assert np.array_equal(rear[3], rear[1])
