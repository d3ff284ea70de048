import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from roomfill import solver
from roomfill.audio import AudioBuffer, ImpulseResponse
from roomfill.errors import ContractError, UnfillableBandError
from roomfill.gammatone import (
    EQ_IR_LEN,
    _ring_tail,
    analyze,
    band_energies,
    band_gain_eq,
    make_spec,
)
from roomfill.render import (
    DEFAULT_DECORRELATOR_LEN,
    DEFAULT_SEED_LEFT,
    SupportChain,
    design_decorrelator,
)
from roomfill.pipeline import solve_design
from roomfill.rirs import RirSet, balance_levels
from roomfill.solver import (
    G_MAX,
    SolverConfig,
    _anchored_targets,
    _chain_meter,
    _measure_total,
    anchor_target,
    initial_gains,
    solve_front_gains,
    solve_gains,
)
from roomfill.simulate import SyntheticRirParams, synth_rir
from roomfill.target import TargetFunction, band_targets

from oracle import oracle_single_band


def _balanced(rirs):
    """The four responses scaled by their balance gains, as solve_design
    scales them before it solves."""
    gains = balance_levels(rirs)
    return {
        name: ImpulseResponse(AudioBuffer(ir.data * gains[name], ir.sample_rate))
        for name, ir in rirs.responses.items()
    }


def _short(seed, coloration=("none",)):
    # 450 ms = 3x t60: the shortest fixture with an untruncated tail
    return synth_rir(
        SyntheticRirParams(
            48000, 450.0, 150.0, direct_delay_ms=2.0, coloration=coloration, seed=seed
        )
    )


def test_solver_config_validation():
    with pytest.raises(ContractError):
        SolverConfig(tolerance_db=0.0)
    with pytest.raises(ContractError):
        SolverConfig(tolerance_db=float("nan"))
    with pytest.raises(ContractError):
        SolverConfig(max_iterations=0)


def test_anchor_offset_is_the_95th_percentile():
    """The offset is the 95th percentile of primary_dB - shape_dB, linearly
    interpolated: over differences of 0, 10 and 20 dB it is 19 dB, above
    their mean, so the target hugs the primary's upper envelope."""
    prof = np.array([1.0, 10.0, 100.0])
    shape = np.ones(3)
    assert anchor_target(shape, shape) == 0.0
    assert anchor_target(prof, shape) == pytest.approx(19.0, abs=1e-12)
    assert anchor_target(prof[::-1], shape) == anchor_target(prof, shape)
    assert anchor_target(2.0 * prof, 2.0 * shape) == pytest.approx(19.0, abs=1e-12)
    with pytest.raises(ContractError):
        anchor_target(prof, np.ones(2))
    with pytest.raises(ContractError):
        anchor_target(np.array([0.0, 1.0, 1.0]), shape)


def test_initial_gains_closed_form(spec48):
    g = initial_gains(
        np.array([4.0, 1.0]), np.array([1.0, 4.0]), np.array([8.0, 1.0]), spec48
    )
    assert np.array_equal(g, [2.0, 0.0])


def test_initial_gains_flags_unfillable_bands(spec48):
    primary = np.ones(37)
    support = np.ones(37)
    support[5] = 0.0
    targets = np.full(37, 2.0)
    with pytest.raises(UnfillableBandError) as exc:
        initial_gains(primary, support, targets, spec48)
    assert exc.value.bands == (5,)
    assert exc.value.center_freqs[0] == pytest.approx(spec48.center_freqs[5])


def test_target_below_primary_needs_no_fill(spec48):
    primary = _short(11)
    support = _short(12)
    solve = solve_gains(
        primary, support, TargetFunction(), spec48, SolverConfig(), offset_db=-100.0
    )
    assert solve.converged
    assert solve.iterations_used == 0
    assert np.all(solve.gains == 0.0)
    assert solve.trace == ()
    assert solve.capped_bands == ()
    # with no fill the total is the primary alone
    _, targets = _anchored_targets(TargetFunction(), spec48, -100.0)
    floor = 10.0 * np.log10(band_energies(primary, spec48) / targets)
    assert np.max(np.abs(solve.residual_db - floor)) <= 1e-9


def _single_band_case(f0, seed):
    spec = make_spec(48000, f0, f0)
    primary = _short(seed)
    support = _short(seed + 7)
    offset = (
        anchor_target(
            band_energies(primary, spec),
            band_targets(TargetFunction(), spec),
        )
        + 5.0
    )
    return spec, primary, support, offset


def test_spectral_measurement_matches_time_domain_chain(fixture_rirs, spec48):
    """Each solver iteration measures base + EQ(g) * chain as a product of
    spectra. On the pinned room's left chain (decorrelator, 10 ms delay),
    its front chain (base 0) and abruptly cut noise, which shows any
    wrap-around, this equals the filterbank's energies of the time-domain
    sum, padded by the ring-out tail."""
    primary = fixture_rirs.primary_left.data
    decorrelator = design_decorrelator(DEFAULT_DECORRELATOR_LEN, DEFAULT_SEED_LEFT)
    chain = np.concatenate(
        [np.zeros(480), fftconvolve(decorrelator.taps, fixture_rirs.support_left.data)]
    )
    rng = np.random.default_rng(77)
    cut = (primary[:2000], rng.standard_normal(6000))
    for base, path in ((primary, chain), (np.zeros(0), primary), (primary, chain), cut):
        gains = rng.uniform(0.0, 3.0, spec48.num_bands)
        meter = _chain_meter(spec48, base.size, path.size)
        got = _measure_total(
            gains, spec48, meter.spectrum(base), meter.spectrum(path), meter
        )
        fill = fftconvolve(band_gain_eq(gains, spec48).data, path)
        total = np.zeros(max(base.size, fill.size) + _ring_tail(spec48))
        total[: base.size] += base
        total[: fill.size] += fill
        bands = analyze(AudioBuffer(total, 48000), spec48).data
        want = np.sum(bands.real**2 + bands.imag**2, axis=1)
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def test_chain_meter_takes_the_whole_coherent_total(spec48):
    """The fill EQ pushed through a chain is EQ_IR_LEN + chain_len - 1
    samples long. The meter must take it and the base whole even when the
    base and the chain are both shorter, or the total's tail would wrap."""
    base_len, chain_len = 1000, 2000
    meter = _chain_meter(spec48, base_len, chain_len)
    for n in (EQ_IR_LEN + chain_len - 1, base_len):
        meter.spectrum(np.zeros(n))


def test_solve_matches_brute_force_oracle():
    """Iterative solve and golden-section oracle agree on a band gain to
    1e-2 relative for a single-band bank."""
    spec, primary, support, offset = _single_band_case(1200.0, 21)
    cfg = SolverConfig(tolerance_db=0.01, max_iterations=200)
    solve = solve_gains(primary, support, TargetFunction(), spec, cfg, offset_db=offset)
    target_e = _anchored_targets(TargetFunction(), spec, offset)[1][0]
    g_ref = oracle_single_band(primary, support, target_e, 0, spec)
    assert solve.converged
    assert abs(solve.gains[0] - g_ref) <= 1e-2 * g_ref


def test_solve_is_scale_equivariant():
    """Scaling both responses by alpha and lifting the target to match
    leaves the solved gains unchanged."""
    spec, primary, support, offset = _single_band_case(800.0, 33)
    cfg = SolverConfig(tolerance_db=0.05, max_iterations=100)
    base = solve_gains(primary, support, TargetFunction(), spec, cfg, offset_db=offset)
    alpha = 3.7
    scaled = solve_gains(
        ImpulseResponse(AudioBuffer(primary.data * alpha, 48000)),
        ImpulseResponse(AudioBuffer(support.data * alpha, 48000)),
        TargetFunction(),
        spec,
        cfg,
        offset_db=offset + 20.0 * np.log10(alpha),
    )
    assert np.allclose(scaled.gains, base.gains, rtol=1e-6)


@settings(max_examples=5)
@given(st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0**e))
@example(1e-2)
@example(1e2)
def test_design_is_invariant_to_the_rooms_overall_level(fixture_rirs, spec48, solved_design, c):
    """Scaling all four responses of the pinned room by c changes only
    the anchor: the balance and band gains, every solve's iterations,
    convergence and capped bands stay, and each anchor offset moves by
    20 log10(c) dB."""
    scaled = RirSet(**{
        name: ImpulseResponse(AudioBuffer(ir.data * c, ir.sample_rate))
        for name, ir in fixture_rirs.responses.items()
    })
    design = solve_design(scaled, spec48, TargetFunction(), SolverConfig())
    for name, gain in solved_design.balance_gains.items():
        assert design.balance_gains[name] == pytest.approx(gain, rel=1e-9, abs=0.0)
    for group in ("gains", "front_gains"):
        for side in ("left", "right"):
            got = getattr(getattr(design, group), side)
            want = getattr(getattr(solved_design, group), side)
            assert np.allclose(got.gains, want.gains, rtol=1e-9, atol=0.0), (group, side)
            assert got.iterations_used == want.iterations_used
            assert got.converged == want.converged
            assert got.capped_bands == want.capped_bands
            shift = got.offset_db - want.offset_db
            assert abs(shift - 20.0 * np.log10(c)) <= 1e-9, (group, side)


def test_pinned_pair_fill_solve(solved_design):
    for solve in (solved_design.gains.left, solved_design.gains.right):
        assert solve.converged
        assert solve.iterations_used <= 50
        live = solve.gains > 0
        assert live.any()
        assert np.max(np.abs(solve.residual_db[live])) <= 0.5
        assert np.all(solve.gains >= 0.0)
        assert np.all(solve.gains <= G_MAX)
    # the exact solve on the pinned room: fill L/R, then front L/R
    solves = (
        solved_design.gains.left,
        solved_design.gains.right,
        solved_design.front_gains.left,
        solved_design.front_gains.right,
    )
    assert [s.iterations_used for s in solves] == [8, 12, 19, 7]
    for solve in solves:
        assert solve.converged
        assert len(solve.trace) == solve.iterations_used + 1
    for solve in solves[2:]:
        assert np.all(solve.gains > 0.0)  # the front solve never mutes a band


def test_leakage_covered_bands_are_muted(solved_design, fixture_rirs, spec48):
    """A band whose deficit ends up covered by neighbouring fill has its
    gain driven to exactly zero instead of hovering at a tiny value."""
    balanced = _balanced(fixture_rirs)
    for side, solve in (
        ("left", solved_design.gains.left),
        ("right", solved_design.gains.right),
    ):
        primary = band_energies(balanced["primary_" + side], spec48)
        _, targets = _anchored_targets(TargetFunction(), spec48, solve.offset_db)
        deficit = targets > primary
        retired = deficit & (solve.gains == 0.0)
        assert retired.any()
        # retired bands still meet the target from leakage alone
        assert np.all(solve.residual_db[retired] >= -0.5)


def test_gain_cap_is_respected():
    primary = _short(41, ("notch", 1000.0, 15.0, 3.0))
    support = _short(42)
    spec = make_spec(48000, 500.0, 2000.0)
    cfg = SolverConfig(tolerance_db=0.5, max_iterations=8)
    offset = (
        anchor_target(
            band_energies(primary, spec),
            band_targets(TargetFunction(), spec),
        )
        + 25.0
    )
    solve = solve_gains(primary, support, TargetFunction(), spec, cfg, offset_db=offset)
    assert np.all(solve.gains <= G_MAX)
    assert solve.capped_bands
    assert not solve.converged  # the cap makes +25 dB unreachable


def test_front_solve_meets_target_without_muting():
    primary = _short(51)
    spec = make_spec(48000, 200.0, 8000.0)
    solve = solve_front_gains(primary, TargetFunction(), spec, SolverConfig())
    assert solve.converged
    assert np.all(solve.gains > 0.0)
    assert np.max(np.abs(solve.residual_db)) <= 0.5


def test_front_solve_cuts_when_target_is_below_primary():
    # same room as the reference test above, so the anchored solve is
    # known to converge; a uniform -10 dB then scales the fixed point
    primary = _short(51)
    spec = make_spec(48000, 200.0, 8000.0)
    ref = solve_front_gains(primary, TargetFunction(), spec, SolverConfig())
    cut = solve_front_gains(
        primary, TargetFunction(), spec, SolverConfig(), offset_db=ref.offset_db - 10.0
    )
    assert cut.converged
    assert np.all(cut.gains > 0.0)
    assert np.median(cut.gains) < 1.0


def test_oracle_validates_band_index(spec48):
    ir = _short(61)
    with pytest.raises(ContractError):
        oracle_single_band(ir, ir, 1.0, 99, spec48)


def test_oracle_returns_zero_when_primary_suffices():
    spec = make_spec(48000, 1000.0, 1000.0)
    primary = _short(62)
    support = _short(63)
    tiny_target = 0.5 * band_energies(primary, spec)[0]
    assert oracle_single_band(primary, support, tiny_target, 0, spec) == 0.0


def _room_ir(seed, rate=48000, length_ms=300.0, coloration=("none",)):
    # t60 100 ms, so 300 ms and up keep the whole decay tail
    return synth_rir(
        SyntheticRirParams(
            rate, length_ms, 100.0, direct_delay_ms=2.0, coloration=coloration, seed=seed
        )
    )


def _delayed(ir, d):
    return ImpulseResponse(AudioBuffer(np.concatenate([np.zeros(d), ir.data]), ir.sample_rate))


@settings(max_examples=4)
@given(st.integers(1, 4801))
@example(1)
@example(4801)
def test_solve_is_invariant_to_a_common_delay(spec48, d):
    """A band energy does not depend on when a response starts, so
    delaying primary and support by the same d samples leaves every gain
    (within 1e-9 relative) and iteration count of the fill and front
    solves."""
    primary = _room_ir(71, coloration=("notch", 1000.0, 15.0, 3.0))
    support = _room_ir(72)
    chain = SupportChain()

    def solves(p, s):
        fill = solve_gains(
            p, s, TargetFunction(), spec48, SolverConfig(),
            decorrelator=chain.decorrelator("left"),
            extra_delay=chain.delay_samples(48000),
        )
        return fill, solve_front_gains(p, TargetFunction(), spec48, SolverConfig())

    delayed = solves(_delayed(primary, d), _delayed(support, d))
    for got, want in zip(delayed, solves(primary, support)):
        assert np.allclose(got.gains, want.gains, rtol=1e-9, atol=0.0)
        assert got.iterations_used == want.iterations_used


@pytest.mark.parametrize("measure", [
    pytest.param(lambda p, s, spec: band_energies(p, spec), id="band_energies"),
    pytest.param(
        lambda p, s, spec: solve_gains(p, s, TargetFunction(), spec, SolverConfig()),
        id="solve_gains",
    ),
    pytest.param(
        lambda p, s, spec: solve_front_gains(p, TargetFunction(), spec, SolverConfig()),
        id="solve_front_gains",
    ),
])
def test_measuring_at_the_wrong_rate_is_refused(spec48, measure):
    """44.1 kHz responses measured through the 48 kHz bank would give
    plausible energies for the wrong frequencies (and solves that run to
    their iteration cap), so each public measurement refuses them and
    names both rates."""
    primary = _room_ir(71, rate=44100)
    support = _room_ir(72, rate=44100)
    with pytest.raises(ContractError, match="44100.*48000"):
        measure(primary, support, spec48)


def test_negative_extra_delay_is_refused_before_any_work(spec48, monkeypatch):
    def no_meter(spec, n):
        raise AssertionError("a meter was built")

    monkeypatch.setattr(solver, "_band_energy_meter", no_meter)
    with pytest.raises(ContractError, match="extra_delay"):
        solve_gains(
            _short(73), _short(74), TargetFunction(), spec48, SolverConfig(),
            extra_delay=-5,
        )


def _assert_same_solve(got, want):
    assert np.array_equal(got.gains, want.gains)
    assert np.array_equal(got.residual_db, want.residual_db)
    assert (got.offset_db, got.iterations_used, got.converged) == (
        want.offset_db, want.iterations_used, want.converged
    )
    assert (got.capped_bands, got.trace) == (want.capped_bands, want.trace)


def _count_builds(monkeypatch):
    """The sizes of the meters the solver builds from now on, in order."""
    sizes = []
    build = solver._band_energy_meter

    def counted(spec, n):
        sizes.append(n)
        return build(spec, n)

    monkeypatch.setattr(solver, "_band_energy_meter", counted)
    return sizes


def test_design_shares_meters_by_size_only(spec48, monkeypatch):
    """With 0.30 s responses on the left and 0.35 s on the right, each
    side's front solve reuses its fill solve's meter, and the right fill
    solve needs a larger one than the left's, so solve_design builds two.
    Each of its solves equals the public solve run in the same order
    through one shared dict, bit for bit."""
    notch = ("notch", 1000.0, 15.0, 3.0)
    rirs = RirSet(
        primary_left=_room_ir(81, coloration=notch),
        primary_right=_room_ir(82, length_ms=350.0, coloration=notch),
        support_left=_room_ir(83),
        support_right=_room_ir(84, length_ms=350.0),
    )
    target, cfg, chain = TargetFunction(), SolverConfig(), SupportChain()
    sizes = _count_builds(monkeypatch)
    design = solve_design(rirs, spec48, target, cfg, chain)
    assert len(sizes) == len(set(sizes)) == 2

    balanced = _balanced(rirs)
    meters = {}
    for side in ("left", "right"):
        primary = balanced["primary_" + side]
        fill = solve_gains(
            primary, balanced["support_" + side], target, spec48, cfg,
            decorrelator=chain.decorrelator(side), extra_delay=chain.delay_samples(48000),
            meters=meters,
        )
        _assert_same_solve(getattr(design.gains, side), fill)
        front = solve_front_gains(primary, target, spec48, cfg, meters=meters)
        _assert_same_solve(getattr(design.front_gains, side), front)
    assert sizes[2:] == sizes[:2]


def test_chain_meter_reuses_a_larger_meter_never_a_smaller_one(spec48, monkeypatch):
    """A meter measures every signal up to its size, so _chain_meter
    takes the smallest meter in the dict that fits and builds one only
    when none does."""
    sizes = _count_builds(monkeypatch)
    meters = {}
    mid = _chain_meter(spec48, 30000, 0, meters)
    assert _chain_meter(spec48, 20000, 0, meters) is mid
    assert sizes == [30000]
    big = _chain_meter(spec48, 30001, 0, meters)
    assert sizes == [30000, 30001] and big is not mid
    assert _chain_meter(spec48, 0, 20000 - EQ_IR_LEN + 1, meters) is mid
    assert _chain_meter(spec48, 30001, 0, meters) is big
    assert sizes == [30000, 30001]
    big.spectrum(np.zeros(30001))
