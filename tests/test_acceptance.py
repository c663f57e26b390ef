"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
values and timings.
"""

import math
import time

import numpy as np

from ryddephase.atomdata import (
    InteractionModel,
    MicrowaveSpec,
    RydbergChannel,
    c3_of,
)
from ryddephase.correlation import (
    G2_ASYMPTOTE,
    G2_ZERO,
    g2_trace,
    realization_seed,
)
from ryddephase.ensemble import EnsembleSpec, sample_positions
from ryddephase.pairdyn import (
    CycleSpec,
    _reduced_indices,
    dressing_matrix,
)
from ryddephase.phasematch import (
    Beam,
    motional_coherence_time,
    solve_offaxis,
    spinwave_period,
    wavevector_mismatch,
)
from ryddephase.protocol import make_schedule

from reference import (
    PairGeometry,
    analytic_cycle_amplitude,
    cycle_amplitude_numeric,
    entangle_fidelity,
    g2_from_condensed,
    interaction_matrix,
    single_excitation_survival,
)
from statevector import brute_force_g2

# shipped defaults: C3 scaling anchored at n = 60 with the quartic law
MODEL = InteractionModel(reference_c3=2.6e4, reference_n=60, scaling_exponent=4.0)
ENSEMBLE = EnsembleSpec(n_atoms=100, box_side=60.0, seed=20260810)
RABI = 10.0  # rad/us


def single_cycle(n, delta_t=1.0, pulse_model="instantaneous"):
    channel = RydbergChannel(n, n, 0.5, c3_of(n, MODEL))
    mw = MicrowaveSpec(rabi=RABI, pulse_model=pulse_model)
    return make_schedule([CycleSpec(channel, delta_t, mw)])


def four_cycle_schedule():
    cycles = []
    for p_n, p_j in [(100, 0.5), (99, 0.5), (100, 1.5), (99, 1.5)]:
        channel = RydbergChannel(100, p_n, p_j, c3_of(100, MODEL))
        cycles.append(CycleSpec(channel, 1.0, MicrowaveSpec(rabi=RABI)))
    return make_schedule(cycles)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_01_zero_interval_endpoint():
    start = time.perf_counter()
    trace = g2_trace(ENSEMBLE, single_cycle(100), [0.0], realizations=3)
    value = float(trace.g2_mean[0])
    rel = abs(value - G2_ZERO) / G2_ZERO
    elapsed = time.perf_counter() - start
    ok = rel < 0.02 and np.allclose(trace.g2, value)
    assert report(
        1, ok, f"g2(0) = {value:.6f} vs e/4 = {G2_ZERO:.6f} ({rel:.2%} off, finite-N), {elapsed:.2f}s"
    )


def test_criterion_02_asymptote():
    start = time.perf_counter()
    # interval long enough that even the most distant pair winds >= 14 turns
    trace = g2_trace(ENSEMBLE, single_cycle(100), [500.0], realizations=100)
    mean = float(trace.g2_mean[0])
    se = float(trace.g2_stderr[0])

    # independent randomization oracle: same N and assembly, i.i.d. phases
    rng = np.random.default_rng(424242)
    n = ENSEMBLE.n_atoms
    oracle_vals = []
    for _ in range(100):
        phi = rng.uniform(0.0, 2.0 * math.pi * 16.0, size=n * (n - 1) // 2)
        oracle_vals.append(g2_from_condensed(0.5 * (1.0 + np.exp(1j * phi)), n).g2)
    oracle_mean = float(np.mean(oracle_vals))
    oracle_se = float(np.std(oracle_vals, ddof=1) / math.sqrt(len(oracle_vals)))

    # the exact correlator carries (N-1)/N factors, so at N = 100 the long-time
    # value sits ~1.6% below 16/25 * e/4; allow the same finite-N band as the
    # t = 0 endpoint on top of pure statistics
    tol = max(3.0 * se, 0.02 * G2_ASYMPTOTE)
    dev = abs(mean - G2_ASYMPTOTE)
    consistent = abs(mean - oracle_mean) <= 3.0 * math.hypot(se, oracle_se)
    elapsed = time.perf_counter() - start
    ok = dev <= tol and consistent
    assert report(
        2,
        ok,
        f"g2(inf) = {mean:.4f} +- {se:.4f} vs 16/25*e/4 = {G2_ASYMPTOTE:.4f} "
        f"(dev {dev:.4f} <= tol {tol:.4f}; iid-phase oracle {oracle_mean:.4f} "
        f"+- {oracle_se:.4f}), {elapsed:.1f}s",
    )


def test_criterion_03_transient_dip():
    start = time.perf_counter()
    grid = np.geomspace(0.2, 40.0, 80)
    trace = g2_trace(ENSEMBLE, single_cycle(100), grid, realizations=30)
    g = trace.g2_mean
    i_min = int(np.argmin(g))
    elapsed = time.perf_counter() - start
    dips = g[i_min] < G2_ASYMPTOTE
    interior = 0 < i_min < len(grid) - 1
    relaxed = g[-1] > G2_ASYMPTOTE - 0.02 and g[-1] > g[i_min] + 0.04
    ok = dips and interior and relaxed
    assert report(
        3,
        ok,
        f"min g2 = {g[i_min]:.4f} at t = {grid[i_min]:.2f} us (< {G2_ASYMPTOTE:.4f}), "
        f"tail g2 = {g[-1]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_04_quartic_scaling_of_dip_position():
    start = time.perf_counter()
    kappa = (100.0 / 60.0) ** 4  # 7.716
    grid100 = np.geomspace(0.8, 4.5, 160)
    grid60 = np.geomspace(0.8 * kappa, 4.5 * kappa, 160)
    t100 = g2_trace(ENSEMBLE, single_cycle(100), grid100, realizations=20)
    t60 = g2_trace(ENSEMBLE, single_cycle(60), grid60, realizations=20)
    pos100 = float(grid100[np.argmin(t100.g2_mean)])
    pos60 = float(grid60[np.argmin(t60.g2_mean)])
    ratio = pos60 / pos100
    rel = abs(ratio - kappa) / kappa
    elapsed = time.perf_counter() - start
    ok = rel < 0.05
    assert report(
        4,
        ok,
        f"dip positions {pos60:.3f} us (n=60) / {pos100:.3f} us (n=100) = {ratio:.3f} "
        f"vs (100/60)^4 = {kappa:.3f} ({rel:.2%} off), {elapsed:.1f}s",
    )


def test_criterion_05_multi_cycle_decay():
    start = time.perf_counter()
    schedule = four_cycle_schedule()
    trace = g2_trace(ENSEMBLE, schedule, realizations=100)
    g = trace.g2_mean
    monotone = bool(np.all(np.diff(g) < 0.0))
    below_asymptote = bool(g[-1] < G2_ASYMPTOTE)
    tau = float(trace.grid[-1]) / len(schedule)
    slope = float(np.polyfit(trace.grid, np.log(g), 1)[0])
    tau_fit = -1.0 / slope
    within = tau / 2.0 <= tau_fit <= 2.0 * tau
    elapsed = time.perf_counter() - start
    ok = monotone and within and below_asymptote
    assert report(
        5,
        ok,
        f"g2 per cycle = {np.array2string(g, precision=4)}, monotone = {monotone}, "
        f"final < asymptote = {below_asymptote}, fitted decay constant "
        f"{tau_fit:.3f} us vs tau = {tau:.3f} us, {elapsed:.1f}s",
    )


def test_criterion_06_channel_dimensions():
    # the pair basis the propagator builds, one side of its dressing matrix
    d12 = dressing_matrix(RydbergChannel(100, 100, 0.5, 1.0), MicrowaveSpec()).shape[0]
    d32 = dressing_matrix(RydbergChannel(100, 100, 1.5, 1.0), MicrowaveSpec()).shape[0]
    ok = (d12, d32) == (16, 36)
    assert report(6, ok, f"pair dimensions (j=1/2, j=3/2) = ({d12}, {d32})")


def test_criterion_07_strong_dressing_equivalence():
    start = time.perf_counter()
    r = 2.0
    channel = RydbergChannel(100, 100, 0.5, 1.0)
    h = interaction_matrix(PairGeometry(r, 0.0, 0.0), channel)
    mw_probe = MicrowaveSpec(rabi=1.0)
    idx = _reduced_indices(channel, mw_probe)
    exchange = abs(float(h[idx[1], idx[2]].real))

    def max_deviation(ratio, pulse_model):
        mw = MicrowaveSpec(rabi=ratio * channel.c3 / r**3, pulse_model=pulse_model)
        devs = []
        for phi in np.linspace(0.0, 4.0 * math.pi, 50):
            cycle = CycleSpec(channel, phi / exchange, mw)
            amp = cycle_amplitude_numeric(PairGeometry(r, 0.0, 0.0), cycle, reduced=True)
            devs.append(abs(amp - complex(analytic_cycle_amplitude(phi))))
        return max(devs)

    dev_inst = max_deviation(100.0, "instantaneous")
    dev_finite = max_deviation(1000.0, "finite_duration")
    elapsed = time.perf_counter() - start
    ok = dev_inst <= 1e-2 and dev_finite <= 1e-2
    assert report(
        7,
        ok,
        f"max |numeric - closed form| over phi in [0, 4pi]: {dev_inst:.2e} "
        f"(ideal pulses, Omega/V = 100), {dev_finite:.2e} (finite pulses, "
        f"Omega/V = 1000), {elapsed:.1f}s",
    )


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    worst = {}
    for n in (4, 6, 8, 10):
        mu, nu = np.triu_indices(n, 1)
        rng = np.random.default_rng(1000 + n)
        worst_rel = 0.0
        for draw in range(100):
            positions = sample_positions(
                EnsembleSpec(n, 60.0, seed=realization_seed(7 * n, draw))
            )
            mag = rng.uniform(0.0, 1.0, size=(n, n))
            phase = rng.uniform(0.0, 2.0 * math.pi, size=(n, n))
            amps = (mag * np.exp(1j * phase))[mu, nu]
            exact = brute_force_g2(positions, amps)
            approx = g2_from_condensed(amps, n).g2
            rel = abs(approx - exact) / exact if exact else abs(approx)
            worst_rel = max(worst_rel, rel)
        worst[n] = worst_rel
    elapsed = time.perf_counter() - start
    ok = all(worst[n] <= 3.0 / n for n in worst)
    detail = ", ".join(f"N={n}: {worst[n]:.3f} <= {3.0 / n:.3f}" for n in worst)
    assert report(8, ok, f"max relative deviation over 100 draws: {detail}, {elapsed:.1f}s")


def test_criterion_09_phase_matching():
    start = time.perf_counter()
    z = np.array([0.0, 0.0, 1.0])
    ladder = [795.0, 1475.0, 2294.0, 1005.0]
    signs = [1, -1, 1, -1]
    collinear = [Beam(w, s, z) for w, s in zip(ladder, signs)]
    period = spinwave_period(wavevector_mismatch(collinear))
    within5 = abs(period - 50.0) / 50.0 <= 0.05

    directions, _, residual = solve_offaxis(ladder, signs)
    offaxis = [Beam(w, s, d) for w, s, d in zip(ladder, signs, directions)]
    recheck = float(np.linalg.norm(wavevector_mismatch(offaxis)))
    matched = recheck <= 1e-9

    two = [Beam(780.0, 1, z), Beam(480.0, -1, z)]
    tau = motional_coherence_time(spinwave_period(wavevector_mismatch(two)), 0.1)
    tau_ok = abs(tau - 2.0) / 2.0 <= 0.2
    elapsed = time.perf_counter() - start
    ok = within5 and matched and tau_ok
    assert report(
        9,
        ok,
        f"collinear period = {period:.2f} um (target 50 +- 5%), off-axis residual = "
        f"{recheck:.1e} rad/um, two-photon coherence = {tau:.2f} us (target ~2), {elapsed:.1f}s",
    )


def test_criterion_10_entanglement_limits():
    start = time.perf_counter()
    n_pairs = 4950
    f0 = entangle_fidelity(np.zeros(n_pairs), np.zeros(n_pairs))
    exact_half = f0 == 0.5

    rng = np.random.default_rng(5150)
    spread1 = rng.uniform(0.0, 2.0 * math.pi * 64.0, size=n_pairs)
    spread2 = rng.uniform(0.0, 2.0 * math.pi * 64.0, size=n_pairs)
    f_spread = entangle_fidelity(spread1, spread2)
    # |m|^2 concentrates near 1/n_pairs, so F sits within MC error of 1
    spread_ok = f_spread >= 1.0 - 5.0 / n_pairs

    draws = rng.uniform(0.0, 2.0 * math.pi, size=1_000_000)
    coherence = abs(np.mean(np.exp(1j * draws)))
    coherence_ok = coherence <= 0.01
    elapsed = time.perf_counter() - start
    ok = exact_half and spread_ok and coherence_ok
    assert report(
        10,
        ok,
        f"F(0) = {f0} (exact 1/2), F(spread) = {f_spread:.6f}, "
        f"|<e^(i phi)>| over 1e6 draws = {coherence:.2e} <= 0.01, {elapsed:.1f}s",
    )


def test_criterion_11_single_excitation_invariance():
    start = time.perf_counter()
    worst = 0.0
    for pulse_model in ("instantaneous", "finite_duration"):
        cycles = []
        for p_n, p_j in [(100, 0.5), (99, 0.5), (100, 1.5), (99, 1.5)]:
            channel = RydbergChannel(100, p_n, p_j, c3_of(100, MODEL))
            cycles.append(
                CycleSpec(channel, 1.0, MicrowaveSpec(rabi=RABI, pulse_model=pulse_model))
            )
        amp = single_excitation_survival(make_schedule(cycles))
        worst = max(worst, abs(abs(amp) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10
    assert report(
        11, ok, f"single-excitation survival deficit = {worst:.2e} <= 1e-10, {elapsed:.2f}s"
    )
