import concurrent.futures
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist

from ryddephase.atomdata import POLARIZATIONS, POPULATED_M, MicrowaveSpec, RydbergChannel
import ryddephase.correlation as correlation
from ryddephase.correlation import (
    G2_ASYMPTOTE,
    G2_ZERO,
    _g2,
    exact_g2,
    g2_after_cycles,
    g2_from_amplitudes,
    g2_trace,
    pair_mean,
    realization_seed,
    unit_point,
    zero_doubled_slots,
)
from ryddephase.ensemble import (
    EnsembleSpec,
    round_robin_orientations,
    round_robin_pairs,
    sample_positions,
)
from ryddephase.pairdyn import (
    CycleSpec,
    NumericsError,
    analytic_pair_amplitudes,
    pair_spectra,
    spectral_amplitudes,
)
from ryddephase.protocol import entangle_trace, make_schedule

from reference import cycle_amplitude_numeric, g2_from_condensed, g2_points, pair_geometry, round_robin_of_condensed
from statevector import brute_force_g2


def uniform_amplitudes(n, value):
    return np.full(n * (n - 1) // 2, value, dtype=complex)


def random_amplitudes(n, rng):
    """Condensed amplitudes: the mu < nu entries of (n, n) uniform draws."""
    mag = rng.uniform(0.0, 1.0, size=(n, n))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(n, n))
    return (mag * np.exp(1j * phase))[np.triu_indices(n, 1)]


def dense(condensed, n):
    """The symmetric N x N matrix A_munu of condensed amplitudes, zero diagonal."""
    mu, nu = np.triu_indices(n, 1)
    full = np.zeros((n, n), dtype=complex)
    full[mu, nu] = full[nu, mu] = condensed
    return full


def single_cycle_schedule(c3, dt=1.0, n=100, rabi=10.0):
    ch = RydbergChannel(n, n, 0.5, c3)
    return make_schedule([CycleSpec(ch, dt, MicrowaveSpec(rabi=rabi))])


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------


def test_g2_zero_value():
    assert G2_ZERO == pytest.approx(math.e / 4.0, abs=1e-12)
    assert G2_ZERO == pytest.approx(0.679570, abs=1e-6)


def test_g2_zero_consistency_relation():
    assert 4.0 * G2_ZERO * 1.0 / (1.0 + 1.0) ** 2 == pytest.approx(G2_ZERO)


def test_asymptote_value_and_ratio():
    assert G2_ASYMPTOTE == pytest.approx(0.434925, abs=1e-6)
    assert G2_ASYMPTOTE / G2_ZERO == pytest.approx(16.0 / 25.0, rel=1e-12)


def test_random_phase_mean_amplitude_is_half():
    # <e^{i phi/2} cos(phi/2)> over uniform phase = 1/2; drives f, h -> 1/4
    rng = np.random.default_rng(123)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=1_000_000)
    mean = np.mean(np.exp(1j * phi / 2) * np.cos(phi / 2))
    assert abs(mean - 0.5) < 1e-3


# ---------------------------------------------------------------------------
# pair-sum assembly
# ---------------------------------------------------------------------------


def test_all_unit_amplitudes_finite_n():
    # f = h = ((N-1)/N)^2 exactly; g2 -> e/4 as N grows
    for n in (10, 100):
        point = g2_from_condensed(uniform_amplitudes(n, 1.0), n)
        q = ((n - 1) / n) ** 2
        assert point.f == pytest.approx(q, rel=1e-12)
        assert point.h == pytest.approx(q, rel=1e-12)
        assert point.g2 == pytest.approx(math.e * q / (1 + q) ** 2, rel=1e-12)
    point = g2_from_condensed(uniform_amplitudes(100, 1.0), 100)
    assert abs(point.g2 - G2_ZERO) / G2_ZERO < 0.02


def test_all_half_amplitudes_approach_asymptote():
    point = g2_from_condensed(uniform_amplitudes(5000, 0.5), 5000)
    assert point.f == pytest.approx(0.25, rel=1e-3)
    assert point.h == pytest.approx(0.25, rel=1e-3)
    assert point.g2 == pytest.approx(G2_ASYMPTOTE, rel=2e-3)


def test_three_atom_hand_case():
    # A12 = 1, A13 = A23 = 0: f = |2/9|^2, h = 2/27, g2 = 36 e / 841
    point = g2_from_condensed([1.0, 0.0, 0.0], 3)  # pairs (0, 1), (0, 2), (1, 2)
    assert point.f == pytest.approx(4.0 / 81.0, rel=1e-12)
    assert point.h == pytest.approx(2.0 / 27.0, rel=1e-12)
    assert point.g2 == pytest.approx(36.0 * math.e / 841.0, rel=1e-12)


def test_double_sum_against_direct_loops():
    rng = np.random.default_rng(5)
    n = 6
    amps = random_amplitudes(n, rng)
    point = g2_from_condensed(amps, n)
    values = dense(amps, n)
    total = sum(
        values[mu, nu] for mu in range(n) for nu in range(n) if nu != mu
    )
    f = abs(total / n**2) ** 2
    h = sum(
        abs(sum(values[mu, nu] for nu in range(n) if nu != mu)) ** 2
        for mu in range(n)
    ) / n**3
    assert point.f == pytest.approx(f, rel=1e-12)
    assert point.h == pytest.approx(h, rel=1e-12)


def test_condensed_amplitudes_validation():
    values = uniform_amplitudes(4, 1.0)
    values[3] = np.nan
    with pytest.raises(ValueError, match="missing"):
        g2_from_condensed(values, 4)
    # one value per mu < nu pair: a wrong count or a dense N x N matrix is rejected
    for wrong in (
        uniform_amplitudes(6, 1.0),
        uniform_amplitudes(5, 1.0)[:-1],
        np.ones((5, 5), dtype=complex),
    ):
        with pytest.raises(ValueError, match="expected 10 condensed pair amplitudes for 5 atoms"):
            g2_from_condensed(wrong, 5)


@pytest.mark.parametrize("n_atoms", [0, 1, -3])
def test_condensed_amplitudes_need_two_atoms(n_atoms):
    npairs = max(n_atoms * (n_atoms - 1) // 2, 0)
    with pytest.raises(ValueError, match=rf"n_atoms must be at least 2, got {n_atoms}"):
        g2_from_condensed(np.ones(npairs, dtype=complex), n_atoms)


@pytest.mark.parametrize(
    "shape",
    [(10,), (5, 5), (5, 3), (5, 1), (4, 1), (2, 2, 1), (0, 0), (1, 0), ()],
    ids=["condensed", "dense", "wide", "narrow", "narrow-even", "3-d", "no-atoms", "one-atom", "scalar"],
)
def test_round_robin_amplitudes_need_shape_n_by_half_n(shape):
    with pytest.raises(ValueError, match=r"expected \(n, n // 2\) round-robin pair amplitudes with n >= 2"):
        g2_from_amplitudes(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("n", [2, 4, 5])
def test_round_robin_amplitudes_must_be_finite_in_every_slot(n):
    for slot in [(0, 0), (n - 1, n // 2 - 1)]:  # for even n the last is a doubled slot, which counts no pair
        for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
            amps = np.ones((n, n // 2), dtype=complex)
            amps[slot] = bad
            with pytest.raises(ValueError, match="missing pair amplitude"):
                g2_from_amplitudes(amps)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 60, 301])
def test_round_robin_amplitudes_read_each_pair_once(n):
    # the second slot of each (mu, mu + n/2) pair of even n is not read, and the input is left as given
    rng = np.random.default_rng(n)
    amps = round_robin_of_condensed(random_amplitudes(n, rng), n)
    point = g2_from_amplitudes(amps)
    if n % 2 == 0:
        amps[n // 2 :, -1] = 7.0 - 3.0j
        assert g2_from_amplitudes(amps) == point
        assert np.all(amps[n // 2 :, -1] == 7.0 - 3.0j)
    assert g2_from_amplitudes(amps.tolist()) == point


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31))
def test_g2_nonnegative_and_bounded_property(n, seed):
    amps = random_amplitudes(n, np.random.default_rng(seed))
    point = g2_from_condensed(amps, n)
    assert point.g2 >= 0.0
    assert point.f >= 0.0
    assert point.h >= 0.0
    assert point.f <= 1.0 + 1e-12
    assert point.h <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# exact correlator: the closed form against the test-side state vector
# ---------------------------------------------------------------------------


def test_brute_force_three_atom_hand_value():
    # same A12-only case, exact correlator: g2 = 3 e / 50
    positions = sample_positions(EnsembleSpec(3, 60.0, seed=2))
    exact = brute_force_g2(positions, [1.0, 0.0, 0.0])
    assert exact == pytest.approx(3.0 * math.e / 50.0, rel=1e-12)


def test_brute_force_zero_amplitudes_give_zero():
    positions = sample_positions(EnsembleSpec(6, 60.0, seed=3))
    exact = brute_force_g2(positions, uniform_amplitudes(6, 0.0))
    assert exact == 0.0


def test_brute_force_all_unit_amplitudes_within_spinwave_error():
    positions = sample_positions(EnsembleSpec(8, 60.0, seed=4))
    amps = uniform_amplitudes(8, 1.0)
    exact = brute_force_g2(positions, amps)
    approx = g2_from_condensed(amps, 8).g2
    assert abs(approx - exact) / exact < 0.15


def test_brute_force_insensitive_to_retrieval_direction():
    positions = sample_positions(EnsembleSpec(7, 60.0, seed=9))
    amps = random_amplitudes(7, np.random.default_rng(8))
    a = brute_force_g2(positions, amps, k0=[0.0, 0.0, 7.902])
    b = brute_force_g2(positions, amps, k0=[2.5, -1.0, 0.3])
    assert a == pytest.approx(b, rel=1e-10)
    # nor to where the atoms sit: the same amplitudes in a 6 um box
    c = brute_force_g2(sample_positions(EnsembleSpec(7, 6.0, seed=9)), amps)
    assert c == pytest.approx(a, rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 10, 100, 300])
def test_exact_g2_matches_the_state_vector(n):
    rng = np.random.default_rng(200 + n)
    for draw in range(5):
        positions = sample_positions(EnsembleSpec(n, 60.0, seed=realization_seed(3 * n, draw)))
        amps = random_amplitudes(n, rng)
        k0 = rng.normal(0.0, 5.0, size=3)
        exact = exact_g2(g2_from_condensed(amps, n), n)
        assert exact == pytest.approx(brute_force_g2(positions, amps, k0), rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 300, 999, 1000])
def test_unit_point_is_the_point_of_unit_amplitudes_bit_for_bit(n):
    assert unit_point(n) == g2_from_amplitudes(np.ones((n, n // 2)))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_pair_sum_formula_matches_oracle(n):
    rng = np.random.default_rng(100 + n)
    for draw in range(100):
        positions = sample_positions(EnsembleSpec(n, 60.0, seed=realization_seed(n, draw)))
        amps = random_amplitudes(n, rng)
        exact = brute_force_g2(positions, amps)
        approx = g2_from_condensed(amps, n).g2
        if exact == 0.0:
            assert approx == pytest.approx(0.0, abs=1e-12)
        else:
            assert abs(approx - exact) / exact <= 3.0 / n


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_trace_at_zero_interval_matches_all_ones():
    ens = EnsembleSpec(40, 60.0, seed=10)
    trace = g2_trace(ens, single_cycle_schedule(2.0e5), [0.0], realizations=3)
    q = (39.0 / 40.0) ** 2
    expected = math.e * q / (1 + q) ** 2
    assert np.allclose(trace.g2, expected, rtol=1e-12)
    assert trace.g2_stderr[0] == pytest.approx(0.0, abs=1e-15)


def test_trace_determinism_and_seed_derivation():
    ens = EnsembleSpec(20, 60.0, seed=99)
    sched = single_cycle_schedule(1.0e5)
    t1 = g2_trace(ens, sched, [0.5, 1.0], realizations=4)
    t2 = g2_trace(ens, sched, [0.5, 1.0], realizations=4)
    assert np.array_equal(t1.g2, t2.g2)
    assert t1.seeds == tuple(realization_seed(99, r) for r in range(4))


def test_trace_time_rescaling_equivalence():
    # trace(C3, grid) equals trace(k C3, grid / k) point by point
    ens = EnsembleSpec(30, 60.0, seed=21)
    grid = np.linspace(0.2, 6.0, 15)
    kappa = 7.71604938271605
    t1 = g2_trace(ens, single_cycle_schedule(2.0e4), grid, realizations=5)
    t2 = g2_trace(ens, single_cycle_schedule(2.0e4 * kappa), grid / kappa, realizations=5)
    assert np.max(np.abs(t1.g2 - t2.g2)) <= 1e-12


def test_trace_monotone_onset():
    # while the largest pair phase stays below pi/4 the trace cannot rise
    ens = EnsembleSpec(50, 60.0, seed=33)
    geomin = min(np.min(pdist(sample_positions(replace(ens, seed=realization_seed(33, r))))) for r in range(3))
    c3 = 1.0e3
    t_max = (math.pi / 4.0) * geomin**3 / c3
    grid = np.linspace(0.0, t_max, 12)[1:]
    trace = g2_trace(ens, single_cycle_schedule(c3), grid, realizations=3)
    assert np.all(np.diff(trace.g2_mean) <= 1e-12)


def test_trace_rejects_bad_grid():
    ens = EnsembleSpec(10, 60.0, seed=1)
    sched = single_cycle_schedule(1.0)
    with pytest.raises(ValueError):
        g2_trace(ens, sched, [1.0, 0.5], realizations=1)
    with pytest.raises(ValueError):
        g2_trace(ens, sched, [1.0], realizations=0)


@pytest.mark.parametrize("grid", [[0.5, math.nan], [0.5, math.inf], [-1.0, 0.5]], ids=["nan", "inf", "negative"])
def test_trace_rejects_non_finite_or_negative_times(grid):
    with pytest.raises(ValueError, match="time grid must hold finite times >= 0"):
        g2_trace(EnsembleSpec(10, 60.0, seed=1), single_cycle_schedule(1.0), grid, realizations=1)


GRID_DRIVERS = {
    "g2_trace": lambda grid: g2_trace(EnsembleSpec(10, 60.0, seed=1), single_cycle_schedule(1.0), grid, realizations=1),
    "entangle_trace": lambda grid: entangle_trace(
        EnsembleSpec(10, 60.0, seed=1), single_cycle_schedule(2.0e5).cycles * 2, grid, realizations=1
    ),
}


@pytest.mark.parametrize("grid", [[], [[0.5, 1.0]], 0.5], ids=["empty", "2-D", "scalar"])
@pytest.mark.parametrize("driver", GRID_DRIVERS)
def test_drivers_reject_an_empty_or_not_1d_grid(driver, grid):
    with pytest.raises(ValueError, match="time grid must be a nonempty 1-D sequence"):
        GRID_DRIVERS[driver](grid)


def test_multichannel_trace_at_zero_matches_analytic():
    ens = EnsembleSpec(12, 60.0, seed=8)
    sched = single_cycle_schedule(1.0e5, n=100)
    ta = g2_trace(ens, sched, [0.0], mode="analytic", realizations=2)
    tm = g2_trace(ens, sched, [0.0], mode="multichannel", realizations=2)
    assert np.allclose(ta.g2, tm.g2, atol=1e-10)


# every (j, polarization) whose populated transition exists
ALLOWED_DRIVES = [
    (j, pol) for j in (0.5, 1.5) for pol in POLARIZATIONS if abs(POPULATED_M + MicrowaveSpec(1.0, pol).delta_m) <= j
]


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("j, polarization", ALLOWED_DRIVES)
def test_multichannel_slots_match_the_scalar_oracle(j, polarization, n):
    from ryddephase.correlation import _cycle_sources

    positions = sample_positions(EnsembleSpec(n, 20.0, seed=12))
    mw = MicrowaveSpec(rabi=10.0, polarization=polarization)
    cycle = CycleSpec(RydbergChannel(100, 100, j, 2.0e5), 0.0, mw)
    (source,) = _cycle_sources(positions, [cycle], "multichannel")
    counted = np.ones((n, n // 2))
    zero_doubled_slots(counted)
    for t in (0.0, 0.37, 5.0):
        amplitudes = source(np.full((1, 1, 1), t))[0]
        for mu, slot in zip(*np.nonzero(counted)):
            geom = pair_geometry(positions[(mu + slot + 1) % n], positions[mu])
            single = cycle_amplitude_numeric(geom, CycleSpec(cycle.channel, t, mw))
            phase = cycle.channel.c3 * t / geom.separation**3
            assert abs(amplitudes[mu, slot] - single) <= 1e-14 * (1.0 + phase)


def test_cycles_grid_is_cumulative_duration():
    cycles = [
        CycleSpec(
            RydbergChannel(100, p_n, p_j, 2.0e5),
            1.0,
            MicrowaveSpec(rabi=10.0),
        )
        for p_n, p_j in [(100, 0.5), (99, 0.5), (100, 1.5), (99, 1.5)]
    ]
    sched = make_schedule(cycles)
    ens = EnsembleSpec(20, 60.0, seed=13)
    trace = g2_after_cycles(ens, sched, realizations=2)
    tau = 1.0 + 2.0 * math.pi / 10.0
    assert np.allclose(trace.grid, tau * np.arange(1, 5))


def test_cycles_grid_that_overflows_is_refused():
    sched = make_schedule(
        [CycleSpec(RydbergChannel(100, 100, p_j, 1e-200), 1e308, MicrowaveSpec(rabi=10.0)) for p_j in (0.5, 1.5)]
    )
    with pytest.raises(ValueError, match="time grid must hold finite times >= 0 us, got inf"):
        g2_after_cycles(EnsembleSpec(6, 60.0, seed=13), sched, realizations=1)


def test_each_g2_is_the_scalar_g2_of_its_own_f_and_h():
    # numpy's ** 2 of an array is a multiply, not the scalar's pow: _g2 of the (R, T) arrays differs in 10 of these
    trace = g2_trace(
        EnsembleSpec(10, 28.0, seed=20260810),
        single_cycle_schedule(2.6e4, n=60),
        np.geomspace(0.02, 60.0, 12),
        realizations=1000,
    )
    want = [[_g2(f, h) for f, h in zip(fs, hs)] for fs, hs in zip(trace.f.tolist(), trace.h.tolist())]
    assert trace.g2.size == 12_000 and np.array_equal(trace.g2, want)


def test_cycles_first_point_matches_single_cycle_trace():
    ens = EnsembleSpec(25, 60.0, seed=14)
    sched = single_cycle_schedule(2.0e5, dt=1.0)
    by_cycles = g2_after_cycles(ens, sched, realizations=3)
    by_trace = g2_trace(ens, sched, [1.0], realizations=3)
    assert np.allclose(by_cycles.g2[:, 0], by_trace.g2[:, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# streamed row-sum reduction against an exactly rounded reference
# ---------------------------------------------------------------------------

REDUCTION_RTOL = 1e-13  # row sums add at most N - 1 terms of |A| <= 1 in float64


def point_from_rows(row_re, row_im, n):
    """(g2, f, h) from the real and imaginary row sums, combined by math.fsum."""
    total_re, total_im = math.fsum(row_re), math.fsum(row_im)
    f = (total_re * total_re + total_im * total_im) / float(n) ** 4
    h = math.fsum(re * re + im * im for re, im in zip(row_re, row_im)) / float(n) ** 3
    return 4.0 * G2_ZERO * f / (1.0 + h) ** 2, f, h


def fsum_point(condensed, n):
    """(g2, f, h) with every row summed by math.fsum over the full matrix."""
    nodiag = dense(condensed, n)
    row_re = [math.fsum(nodiag.real[mu].tolist()) for mu in range(n)]
    row_im = [math.fsum(nodiag.imag[mu].tolist()) for mu in range(n)]
    return point_from_rows(row_re, row_im, n)


def slot_geometry(positions, a, b):
    """pair_geometry of the atoms a < b along the axis of their round-robin slot, from its owner to the partner."""
    owner, partner = (a, b) if b - a <= len(positions) // 2 else (b, a)
    return pair_geometry(positions[partner], positions[owner])


def reference_columns(ensemble, cycles, grid, mode, index):
    """Condensed amplitude columns of one realization, straight from the pairdyn kernels.

    Each pair's R is pdist's (analytic), or its R and polar angle are
    pair_geometry's along the axis of its round-robin slot (multichannel).
    """
    positions = sample_positions(replace(ensemble, seed=realization_seed(ensemble.seed, index)))
    if mode == "analytic":
        r = pdist(positions)

        def stack(cycle, times):
            return np.stack([analytic_pair_amplitudes(r**3, cycle.channel.c3 * t) for t in times], axis=1)

    else:
        geometries = [slot_geometry(positions, a, b) for a, b in zip(*np.triu_indices(len(positions), 1))]
        r = np.array([g.separation for g in geometries])
        theta = np.array([g.polar_angle for g in geometries])

        def stack(cycle, times):
            spectra = pair_spectra(r, theta, cycle)
            return np.stack([spectral_amplitudes(spectra, t) for t in times], axis=1)

    if grid is None:  # after each cycle, at the cycles' own intervals
        per_cycle = np.stack([stack(c, [c.delta_t])[:, 0] for c in cycles], axis=1)
        return np.cumprod(per_cycle, axis=1)
    return np.prod([stack(c, grid) for c in cycles], axis=0)


def reference_trace(ensemble, cycles, grid, mode, realizations):
    points = [
        [fsum_point(col, ensemble.n_atoms) for col in columns.T]
        for columns in (reference_columns(ensemble, cycles, grid, mode, r) for r in range(realizations))
    ]
    return np.moveaxis(np.array(points), 2, 0)  # (3, R, T): g2, f, h


def two_channel_schedule():
    return make_schedule(
        [
            CycleSpec(
                RydbergChannel(100, 100, p_j, 2.0e5),
                dt,
                MicrowaveSpec(rabi=10.0),
            )
            for p_j, dt in [(0.5, 1.0), (1.5, 0.7)]
        ]
    )


def assert_matches_reference(trace, reference):
    for got, want in zip((trace.g2, trace.f, trace.h), reference):
        np.testing.assert_allclose(got, want, rtol=REDUCTION_RTOL, atol=0.0)


@pytest.mark.parametrize("mode, n", [("analytic", 30), ("multichannel", 12)])
def test_trace_matches_fsum_reference(mode, n):
    ens = EnsembleSpec(n, 60.0, seed=41)
    sched = two_channel_schedule()
    grid = np.geomspace(0.05, 20.0, 7)
    trace = g2_trace(ens, sched, grid, mode=mode, realizations=3)
    assert_matches_reference(trace, reference_trace(ens, sched.cycles, grid, mode, 3))


@pytest.mark.parametrize("mode, n", [("analytic", 30), ("multichannel", 12)])
def test_cycles_match_fsum_reference(mode, n):
    ens = EnsembleSpec(n, 60.0, seed=42)
    sched = two_channel_schedule()
    trace = g2_after_cycles(ens, sched, mode=mode, realizations=3)
    assert_matches_reference(trace, reference_trace(ens, sched.cycles, None, mode, 3))


@pytest.mark.parametrize("n", [2, 7, 64])
def test_point_from_amplitude_set_matches_fsum_reference(n):
    amps = random_amplitudes(n, np.random.default_rng(n))
    point = g2_from_condensed(amps, n)
    want = fsum_point(amps, n)
    np.testing.assert_allclose([point.g2, point.f, point.h], want, rtol=REDUCTION_RTOL, atol=0.0)


LAYOUT_SIZES = [2, 3, 4, 5, 6, 7, 8, 9, 60, 61, 300, 301]


@pytest.mark.parametrize("n", LAYOUT_SIZES)
def test_round_robin_slots_cover_every_pair_once(n):
    lo, hi = round_robin_pairs(n)
    assert lo.shape == hi.shape == (n, n // 2)
    counted = np.ones(lo.shape)
    zero_doubled_slots(counted)
    counts = counted == 1.0
    assert sorted(zip(lo[counts].tolist(), hi[counts].tolist())) == list(zip(*np.triu_indices(n, 1)))
    # slot (mu, k - 1) is the pair of mu and (mu + k) mod n, lower index first
    mu = np.arange(n)[:, None]
    partner = (mu + np.arange(1, n // 2 + 1)) % n
    assert np.array_equal(lo, np.minimum(mu, partner))
    assert np.array_equal(hi, np.maximum(mu, partner))


@pytest.mark.parametrize("n", LAYOUT_SIZES)
def test_round_robin_orientations_match_pair_geometry(n):
    # slot (mu, k - 1) is the pair of mu and (mu + k) mod n, its axis partner - self
    positions = sample_positions(EnsembleSpec(n, 30.0, seed=3))
    r, theta = round_robin_orientations(positions)
    for mu in np.unique(np.linspace(0, n - 1, 24).astype(int)):  # every row of small n, 24 spread rows of large
        for k in range(1, n // 2 + 1):
            g = pair_geometry(positions[(mu + k) % n], positions[mu])
            assert (r[mu, k - 1], theta[mu, k - 1]) == pytest.approx((g.separation, g.polar_angle), rel=1e-12)


def planes_of(amps, n):
    from ryddephase.correlation import _PairPlanes

    planes = _PairPlanes(n)
    amps = round_robin_of_condensed(np.asarray(amps, dtype=complex), n)
    planes.owned[0], planes.owned[1] = amps.real, amps.imag
    return planes


@pytest.mark.parametrize("n", LAYOUT_SIZES)
def test_row_sums_match_the_dense_matrix(n):
    amps = random_amplitudes(n, np.random.default_rng(100 + n))
    amps[::5] = complex(-0.0, -0.0)  # signed zeros, whose sign a reordered sum could flip
    (got,) = planes_of(amps, n).row_sums()
    matrix = dense(amps, n)
    # error bound relative to the row's absolute sum: a row may cancel to near 0
    scale = np.abs(matrix).sum(axis=1)
    want = matrix.sum(axis=1)
    assert np.all(np.abs(got[0] - want.real) <= REDUCTION_RTOL * scale)
    assert np.all(np.abs(got[1] - want.imag) <= REDUCTION_RTOL * scale)
    point = g2_from_condensed(amps, n)
    np.testing.assert_allclose([point.g2, point.f, point.h], fsum_point(amps, n), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 60, 61])
def test_rows_of_signed_zeros_sum_to_positive_zero(n):
    rows = planes_of(np.full(n * (n - 1) // 2, complex(-0.0, -0.0)), n).row_sums()
    assert not np.signbit(rows).any()


def nan_pairs(n):
    """Condensed pairs in an owned slot, in a wrapped partner slot and, for even n, in a k = n/2 slot."""
    pairs = {"owned": (0, 1), "wrapped": (0, n - 1)}
    if n % 2 == 0:
        pairs["half"] = (0, n // 2)
    return pairs


@pytest.mark.parametrize("n, where", [(n, where) for n in (4, 5, 8, 9, 60, 61) for where in nan_pairs(n)])
def test_a_missing_amplitude_in_any_slot_raises(n, where):
    a, b = nan_pairs(n)[where]
    mu, nu = np.triu_indices(n, 1)
    amps = random_amplitudes(n, np.random.default_rng(n))
    amps[(mu == a) & (nu == b)] = complex(math.nan, 0.0)
    with pytest.raises(ValueError, match="missing pair amplitude"):
        g2_from_condensed(amps, n)
    # the planes themselves, past g2_from_amplitudes' entry check, see every slot that counts
    for reduce_planes in (lambda planes: planes.points(), lambda planes: pair_mean(planes.owned)):
        with pytest.raises(NumericsError, match="^non-finite pair sum$"):
            reduce_planes(planes_of(amps, n))


@pytest.mark.parametrize("n", LAYOUT_SIZES)
def test_pair_mean_is_the_mean_over_every_pair_once(n):
    amps = random_amplitudes(n, np.random.default_rng(200 + n))
    planes = planes_of(amps, n).owned[:, 0]
    if n % 2 == 0:
        planes[..., n // 2 :, -1] = 7.0  # the doubled slots must not count
    npairs = n * (n - 1) // 2
    want = (math.fsum(amps.real) / npairs, math.fsum(amps.imag) / npairs)
    np.testing.assert_allclose(pair_mean(planes), want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n", LAYOUT_SIZES)
def test_pair_mean_over_a_block_axis_is_each_times_mean_bit_for_bit(n):
    # entangle reduces B grid times at once from (2, B, n, K) planes; each time is still its own pairwise sum
    rng = np.random.default_rng(300 + n)
    times = [planes_of(random_amplitudes(n, rng), n).owned[:, 0] for _ in range(3)]
    block = np.stack(times, axis=1)
    if n % 2 == 0:
        block[..., n // 2 :, -1] = 7.0  # the doubled slots must not count
    npairs = n * (n - 1) // 2
    got = pair_mean(block)
    assert got.shape == (2, 3)
    for b, planes in enumerate(times):
        assert np.array_equal(got[:, b], pair_mean(planes))
        want = [math.fsum(plane.ravel()) / npairs for plane in planes]
        np.testing.assert_allclose(got[:, b], want, rtol=1e-13, atol=1e-15)
    block[1, 2, 0, 0] = math.nan  # a missing amplitude at the last time of the block
    with pytest.raises(NumericsError, match="^non-finite pair sum$"):
        pair_mean(block)


@pytest.mark.parametrize("n", [2, 3, 4, 60, 61, 100])
def test_unit_amplitudes_give_the_finite_n_invariant(n):
    # the cycles row-0 invariant: f = h = ((N-1)/N)^2 when every pair amplitude is 1
    point = g2_from_amplitudes(np.ones((n, n // 2)))
    q = ((n - 1) / n) ** 2
    assert abs(point.f - q) <= 1e-15 * q
    assert abs(point.h - q) <= 1e-15 * q


TRACEMALLOC_PROBE = """
import tracemalloc
import numpy as np
from ryddephase.atomdata import MicrowaveSpec, RydbergChannel
from ryddephase.correlation import g2_trace
from ryddephase.ensemble import EnsembleSpec
from ryddephase.pairdyn import CycleSpec
from ryddephase.protocol import make_schedule

sched = make_schedule([CycleSpec(RydbergChannel(60, 60, 0.5, 2.6e4), 1.0, MicrowaveSpec(rabi=10.0))])
g2_trace(EnsembleSpec(300, 60.0, seed=5), sched, [1.0], realizations=1)  # first-call set-up, untraced
for points in (24, 120):
    tracemalloc.start()
    g2_trace(EnsembleSpec(300, 60.0, seed=5), sched, np.geomspace(0.02, 60.0, points), realizations=1)
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def test_analytic_realization_memory_does_not_grow_with_the_grid():
    # a fresh interpreter, so no earlier test's caches or imports enter the peak
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", TRACEMALLOC_PROBE], env=env, capture_output=True, text=True, check=True)
    short, long = map(int, proc.stdout.split())
    assert abs(long - short) <= 0.05 * short


BLOCKED_TRACEMALLOC_PROBE = """
import tracemalloc
import numpy as np
from ryddephase.atomdata import MicrowaveSpec, RydbergChannel
from ryddephase.correlation import g2_trace
from ryddephase.ensemble import EnsembleSpec
from ryddephase.pairdyn import CycleSpec
from ryddephase.protocol import make_schedule

channels = [RydbergChannel(60, 60, p_j, 2.6e4) for p_j in (0.5, 1.5)]
for cycles in (1, 2):  # a lone cycle writes the planes; two cycles' complex product is copied in
    sched = make_schedule([CycleSpec(channel, 1.0, MicrowaveSpec(rabi=10.0)) for channel in channels[:cycles]])
    g2_trace(EnsembleSpec(60, 40.0, seed=5), sched, [1.0], realizations=1)  # first-call set-up, untraced
    for points in (24, 240):
        tracemalloc.start()
        g2_trace(EnsembleSpec(60, 40.0, seed=5), sched, np.geomspace(0.02, 60.0, points), realizations=1)
        print(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
"""


def test_blocked_realization_memory_does_not_grow_with_the_grid():
    # N = 60 runs blocks of B = 11 grid times: one buffer of B times per realization, whatever T is
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_TRACEMALLOC_PROBE], env=env, capture_output=True, text=True, check=True
    )
    peaks = list(map(int, proc.stdout.split()))
    for short, long in (peaks[:2], peaks[2:]):
        assert abs(long - short) <= 0.05 * short


SERIAL_TRACEMALLOC_PROBE = """
import tracemalloc
import numpy as np
from ryddephase.atomdata import MicrowaveSpec, RydbergChannel
from ryddephase.correlation import _realization_points, run_realizations
from ryddephase.ensemble import EnsembleSpec
from ryddephase.pairdyn import CycleSpec

cycles = (CycleSpec(RydbergChannel(60, 60, 0.5, 2.6e4), 1.0, MicrowaveSpec(rabi=10.0)),)
params, ens = (cycles, np.geomspace(0.02, 60.0, 50), "analytic"), EnsembleSpec(10, 60.0, seed=5)
run_realizations(_realization_points, ens, params, 200)  # first-call set-up, untraced
for realizations in (1, 200):
    tracemalloc.start()
    run_realizations(_realization_points, ens, params, realizations)
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def test_serial_realizations_hold_one_stack():
    # R = 200, T = 50: the (3, R, T) stack is 240 kB, which a slab copy or a concatenate of slabs would add again
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SERIAL_TRACEMALLOC_PROBE], env=env, capture_output=True, text=True, check=True
    )
    one, many = map(int, proc.stdout.split())
    # one realization's peak holds its buffers; 96 kB covers 200 seeds and the interpreter's free lists
    assert many <= one + 3 * 200 * 50 * 8 + 96 * 1024


def test_one_analytic_point_allocates_far_less_than_a_plane():
    # at N = 1000 one (N, N // 2) plane is 4.0 MB, which a two-plane wrap copy went through
    import tracemalloc

    from ryddephase.correlation import _PairPlanes, round_robin_cubes

    cubes = round_robin_cubes(sample_positions(EnsembleSpec(1000, 60.0 * (1000 / 300) ** (1 / 3), seed=7)))
    planes = _PairPlanes(1000)
    analytic_pair_amplitudes(cubes, 2.6e4, planes.owned)
    planes.points()
    tracemalloc.start()
    try:
        analytic_pair_amplitudes(cubes, 2.6e4 * 0.5, planes.owned)
        planes.points()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def exact_trace(ensemble, cycles, grid, mode, realizations):
    """(g2, f, h) stacks from condensed columns, gathered into round-robin slots for g2_from_amplitudes."""
    points = [
        [tuple(vars(g2_from_condensed(col, ensemble.n_atoms)).values()) for col in columns.T]
        for columns in (reference_columns(ensemble, cycles, grid, mode, r) for r in range(realizations))
    ]
    return np.moveaxis(np.array(points), 2, 0)


@pytest.mark.parametrize("mode, n", [("analytic", 60), ("multichannel", 12)])
def test_drivers_bit_identical_to_condensed_order(mode, n):
    ens = EnsembleSpec(n, 60.0, seed=43)
    sched = two_channel_schedule()
    grid = np.geomspace(0.05, 20.0, 7)
    for trace, want in [
        (g2_trace(ens, sched, grid, mode=mode, realizations=2), exact_trace(ens, sched.cycles, grid, mode, 2)),
        (g2_after_cycles(ens, sched, mode=mode, realizations=2), exact_trace(ens, sched.cycles, None, mode, 2)),
    ]:
        for got, expected in zip((trace.g2, trace.f, trace.h), want):
            assert np.array_equal(got, expected)


def g2_block_length(n):
    return max(1, correlation.BLOCK_SLOTS // (n * (n // 2)))


G2_BLOCK_CASES = {
    "analytic": (single_cycle_schedule(2.0e5), "analytic"),
    "multichannel": (single_cycle_schedule(2.0e5), "multichannel"),
    "two-cycle-analytic": (two_channel_schedule(), "analytic"),
}


@pytest.mark.parametrize("n", [20, 21])
@pytest.mark.parametrize("case", sorted(G2_BLOCK_CASES))
def test_g2_blocks_match_the_one_time_per_call_reference(monkeypatch, case, n):
    # block_points evaluates B grid times per source call; every byte matches one time per call
    schedule, mode = G2_BLOCK_CASES[case]
    cycles = tuple(schedule.cycles)
    b = g2_block_length(n)
    grid = np.geomspace(0.02, 60.0, 2 * b + 1)
    positions = sample_positions(EnsembleSpec(n, 30.0, seed=n))
    want = g2_points(positions, cycles, grid, mode)
    for slots in (correlation.BLOCK_SLOTS, 1, 10**9):  # the rule's B, one time per block, the whole grid in one
        monkeypatch.setattr(correlation, "BLOCK_SLOTS", slots)
        for length in (1, b - 1, b, b + 1, 2 * b + 1):
            got = correlation._realization_points(positions, cycles, grid[:length], mode)
            assert np.array_equal(got, want[:, :length])


class NotRun(Exception):
    pass


class LazyExecutor(concurrent.futures.Executor):
    """An executor whose futures run their task in this process when the result is taken.

    Executor.map submits every task through submit, in order, and cancels the
    futures still queued when a result raises.  It records every future, and
    the (start, stop) range of each task submitted and of each that ran; with
    run False, no task runs and every result raises NotRun.
    """

    def __init__(self, workers, run=True):
        self._max_workers = workers
        self.run, self.futures, self.submitted, self.ran = run, [], [], []

    def submit(self, fn, task):
        executor = self

        class LazyFuture(concurrent.futures.Future):
            def result(self, timeout=None):
                if not executor.run:
                    raise NotRun
                if not self.done() and self.set_running_or_notify_cancel():
                    executor.ran.append(task[3:])
                    try:
                        self.set_result(fn(task))
                    except Exception as exc:
                        self.set_exception(exc)
                return super().result(timeout)

        self.submitted.append(task[3:])
        self.futures.append(LazyFuture())
        return self.futures[-1]


@pytest.mark.parametrize("workers, realizations", [(1, 1), (2, 3), (2, 8), (2, 9), (3, 40)])
def test_pool_submission_is_bounded_and_stacks_as_the_serial_run(workers, realizations):
    from ryddephase.correlation import RANGES_PER_WORKER, _realization_points, run_realizations

    params = (tuple(single_cycle_schedule(2.0e5).cycles), np.array([0.3, 1.0]), "analytic")
    ens = EnsembleSpec(6, 60.0, seed=45)
    pool = LazyExecutor(workers)
    stacks, seeds = run_realizations(_realization_points, ens, params, realizations, pool)
    want_stacks, want_seeds = run_realizations(_realization_points, ens, params, realizations)
    assert seeds == want_seeds
    assert all(np.array_equal(got, want) for got, want in zip(stacks, want_stacks, strict=True))
    ranges = min(realizations, RANGES_PER_WORKER * workers)
    assert pool.ran == [(realizations * i // ranges, realizations * (i + 1) // ranges) for i in range(ranges)]
    # a million realizations are still RANGES_PER_WORKER contiguous ranges per worker
    idle = LazyExecutor(workers, run=False)
    with pytest.raises(NotRun):
        run_realizations(_realization_points, ens, params, 10**6, idle)
    bounds = idle.submitted
    assert len(bounds) == RANGES_PER_WORKER * workers and idle.ran == []
    assert bounds[0][0] == 0 and bounds[-1][1] == 10**6
    assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("workers, per_worker", [(1, 23), (1, 3), (1, 1), (2, 2)])
def test_stacks_do_not_depend_on_the_range_length(monkeypatch, workers, per_worker):
    # R = 23: ranges of 1, of 7 or 8, of 23, and on two processes of 5 or 6, whose slabs are pickled
    from ryddephase.correlation import _realization_points, run_realizations

    monkeypatch.setattr(correlation, "RANGES_PER_WORKER", per_worker)
    params = (tuple(single_cycle_schedule(2.0e5).cycles), np.array([0.3, 1.0, 2.0]), "analytic")
    ens = EnsembleSpec(7, 60.0, seed=47)
    with LazyExecutor(1) if workers == 1 else concurrent.futures.ProcessPoolExecutor(workers) as pool:
        stacks, seeds = run_realizations(_realization_points, ens, params, 23, pool)
    want_stacks, want_seeds = run_realizations(_realization_points, ens, params, 23)
    assert seeds == want_seeds
    assert all(np.array_equal(got, want) for got, want in zip(stacks, want_stacks, strict=True))
    if workers == 1:
        assert pool.ran == [(23 * i // per_worker, 23 * (i + 1) // per_worker) for i in range(per_worker)]


def test_a_failed_pool_realization_cancels_the_queued_ones():
    from ryddephase.correlation import RANGES_PER_WORKER, run_realizations

    calls = []

    def fails_third(positions):  # the executor runs each range in this process, in index order
        calls.append(1)
        if len(calls) == 3:
            raise NumericsError("synthetic")
        return np.zeros((3, 1))

    pool = LazyExecutor(2)
    realizations = 3 * RANGES_PER_WORKER * 2  # ranges of three: the third realization fails in the first range
    with pytest.raises(NumericsError, match=r"^realization 2 \(seed \d+\): synthetic$"):
        run_realizations(fails_third, EnsembleSpec(4, 60.0, seed=46), (), realizations, pool)
    assert pool.ran == [(0, 3)] and len(calls) == 3
    assert len(pool.futures) == 2 * RANGES_PER_WORKER
    assert all(future.cancelled() for future in pool.futures[1:])  # the queued ranges were cancelled, not run


def test_trace_summaries_are_computed_once():
    trace = g2_trace(EnsembleSpec(10, 60.0, seed=44), single_cycle_schedule(2.0e5), [0.5, 1.0], realizations=3)
    for name in ("g2_mean", "g2_stderr", "f_mean", "h_mean"):
        assert getattr(trace, name) is getattr(trace, name)
    assert np.array_equal(trace.g2_mean, trace.g2.mean(axis=0))
    assert np.array_equal(trace.g2_stderr, trace.g2.std(axis=0, ddof=1) / math.sqrt(3))


def test_one_realization_has_a_zero_stderr_column():
    trace = g2_trace(EnsembleSpec(10, 60.0, seed=44), single_cycle_schedule(2.0e5), [0.5, 1.0], realizations=1)
    assert np.array_equal(trace.g2_stderr, np.zeros(2))


@pytest.mark.parametrize("driver", ["trace", "cycles"])
def test_non_finite_amplitude_raises(monkeypatch, driver):
    import ryddephase.correlation as correlation

    def with_nan(cubes, phase_product, out=None):
        amps = analytic_pair_amplitudes(cubes, phase_product, out)
        amps[..., 0, 3] = math.nan  # the slot of the pair (0, 4); complex or both planes
        return amps

    monkeypatch.setattr(correlation, "analytic_pair_amplitudes", with_nan)
    ens = EnsembleSpec(8, 60.0, seed=5)
    sched = single_cycle_schedule(2.0e5)
    seed = realization_seed(ens.seed, 0)
    with pytest.raises(NumericsError, match=rf"^realization 0 \(seed {seed}\): non-finite pair sum$"):
        if driver == "trace":
            g2_trace(ens, sched, [0.5, 1.0], realizations=1)
        else:
            g2_after_cycles(ens, sched, realizations=1)


REALIZATION_DRIVERS = {
    "g2_trace": lambda ens: g2_trace(ens, single_cycle_schedule(2.0e5), [0.5, 1.0], realizations=3),
    "g2_after_cycles": lambda ens: g2_after_cycles(ens, two_channel_schedule(), realizations=3),
    "entangle_trace": lambda ens: entangle_trace(ens, single_cycle_schedule(2.0e5).cycles * 2, [0.5, 1.0], realizations=3),
}


@pytest.mark.parametrize("driver", REALIZATION_DRIVERS)
def test_every_driver_runs_one_realization_task_per_realization(monkeypatch, driver):
    # one place seeds and samples a realization, and perfbench's tracer wraps it by name, reading args[-1]
    import ryddephase.correlation as correlation

    task, calls = correlation._trace_single_realization, []

    def recording_task(args):
        calls.append(args[-1])
        return task(args)

    monkeypatch.setattr(correlation, "_trace_single_realization", recording_task)
    REALIZATION_DRIVERS[driver](EnsembleSpec(8, 60.0, seed=5))
    assert calls == [0, 1, 2]


def test_cycles_driver_holds_one_cycle_of_spectra_at_a_time(monkeypatch):
    # a cycle's pair spectra take O(N^2 d): the next cycle's are built only once they are dropped
    import ryddephase.correlation as correlation

    built, alive = [], []

    def spy(*args):
        alive.append(sum(ref() is not None for ref in built))
        spectra = pair_spectra(*args)
        built.append(weakref.ref(spectra[0]))
        return spectra

    monkeypatch.setattr(correlation, "pair_spectra", spy)
    g2_after_cycles(EnsembleSpec(8, 60.0, seed=6), two_channel_schedule(), mode="multichannel", realizations=1)
    assert alive == [0, 0]


@pytest.mark.parametrize("driver", ["trace", "cycles"])
def test_multichannel_pulse_vectors_must_keep_unit_norm(monkeypatch, driver):
    # eigenvectors 1% too long break the norm of the pulse vectors that bound |A| <= 1
    eigh = np.linalg.eigh

    def stretched(a):
        w, v = eigh(a)
        return w, 1.01 * v

    monkeypatch.setattr(np.linalg, "eigh", stretched)
    ens = EnsembleSpec(8, 60.0, seed=6)
    seed = realization_seed(ens.seed, 0)
    with pytest.raises(NumericsError, match=rf"^realization 0 \(seed {seed}\): cycle 0: pulse vector norm drift"):
        if driver == "trace":
            g2_trace(ens, two_channel_schedule(), [0.5, 1.0], mode="multichannel", realizations=1)
        else:
            g2_after_cycles(ens, two_channel_schedule(), mode="multichannel", realizations=1)


FAULT_PROBE = """
import resource
import numpy as np
from ryddephase.atomdata import MicrowaveSpec, RydbergChannel
from ryddephase.correlation import g2_trace
from ryddephase.ensemble import EnsembleSpec
from ryddephase.pairdyn import CycleSpec
from ryddephase.protocol import make_schedule

ch = RydbergChannel(60, 60, 0.5, 2.6e4)
sched = make_schedule([CycleSpec(ch, 1.0, MicrowaveSpec(rabi=10.0))])
grid = np.geomspace(0.02, 60.0, 120)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
g2_trace(EnsembleSpec(300, 60.0, seed=5), sched, grid, realizations=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts as Linux reports them")
def test_analytic_trace_does_not_fault_its_buffers_in_at_every_point():
    # a fresh interpreter, so the test runner's heap cannot hide a regression;
    # freeing and re-faulting the per-point arrays costs about 500 faults per point
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True, text=True, check=True)
    faults = int(proc.stdout)
    assert faults < 100 * 120
