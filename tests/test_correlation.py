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
from ryddephase.correlation import (
    G2_ASYMPTOTE,
    G2_ZERO,
    brute_force_g2,
    g2_after_cycles,
    g2_from_amplitudes,
    g2_trace,
    realization_seed,
    zero_doubled_slots,
)
from ryddephase.ensemble import (
    EnsembleSpec,
    pair_geometry,
    pair_index_arrays,
    round_robin_orientations,
    round_robin_pairs,
    sample_positions,
)
from ryddephase.pairdyn import (
    CycleSpec,
    NumericsError,
    analytic_pair_amplitudes,
    cycle_amplitude_numeric,
    pair_spectra,
    spectral_amplitudes,
)
from ryddephase.protocol import entangle_trace, make_schedule


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
        point = g2_from_amplitudes(uniform_amplitudes(n, 1.0), n)
        q = ((n - 1) / n) ** 2
        assert point.f == pytest.approx(q, rel=1e-12)
        assert point.h == pytest.approx(q, rel=1e-12)
        assert point.g2 == pytest.approx(math.e * q / (1 + q) ** 2, rel=1e-12)
    point = g2_from_amplitudes(uniform_amplitudes(100, 1.0), 100)
    assert abs(point.g2 - G2_ZERO) / G2_ZERO < 0.02


def test_all_half_amplitudes_approach_asymptote():
    point = g2_from_amplitudes(uniform_amplitudes(5000, 0.5), 5000)
    assert point.f == pytest.approx(0.25, rel=1e-3)
    assert point.h == pytest.approx(0.25, rel=1e-3)
    assert point.g2 == pytest.approx(G2_ASYMPTOTE, rel=2e-3)


def test_three_atom_hand_case():
    # A12 = 1, A13 = A23 = 0: f = |2/9|^2, h = 2/27, g2 = 36 e / 841
    point = g2_from_amplitudes([1.0, 0.0, 0.0], 3)  # pairs (0, 1), (0, 2), (1, 2)
    assert point.f == pytest.approx(4.0 / 81.0, rel=1e-12)
    assert point.h == pytest.approx(2.0 / 27.0, rel=1e-12)
    assert point.g2 == pytest.approx(36.0 * math.e / 841.0, rel=1e-12)


def test_double_sum_against_direct_loops():
    rng = np.random.default_rng(5)
    n = 6
    amps = random_amplitudes(n, rng)
    point = g2_from_amplitudes(amps, n)
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
        g2_from_amplitudes(values, 4)
    positions = sample_positions(EnsembleSpec(5, 60.0, seed=1))
    # one value per mu < nu pair: a wrong count or a dense N x N matrix is rejected
    for wrong in (
        uniform_amplitudes(6, 1.0),
        uniform_amplitudes(5, 1.0)[:-1],
        np.ones((5, 5), dtype=complex),
    ):
        with pytest.raises(ValueError, match="expected 10 condensed pair amplitudes for 5 atoms"):
            g2_from_amplitudes(wrong, 5)
        with pytest.raises(ValueError, match="expected 10 condensed pair amplitudes for 5 atoms"):
            brute_force_g2(positions, wrong)


@pytest.mark.parametrize("n_atoms", [0, 1, -3])
def test_condensed_amplitudes_need_two_atoms(n_atoms):
    npairs = max(n_atoms * (n_atoms - 1) // 2, 0)
    with pytest.raises(ValueError, match=rf"n_atoms must be at least 2, got {n_atoms}"):
        g2_from_amplitudes(np.ones(npairs, dtype=complex), n_atoms)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31))
def test_g2_nonnegative_and_bounded_property(n, seed):
    amps = random_amplitudes(n, np.random.default_rng(seed))
    point = g2_from_amplitudes(amps, n)
    assert point.g2 >= 0.0
    assert point.f >= 0.0
    assert point.h >= 0.0
    assert point.f <= 1.0 + 1e-12
    assert point.h <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# brute-force oracle
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
    approx = g2_from_amplitudes(amps, 8).g2
    assert abs(approx - exact) / exact < 0.15


def test_brute_force_insensitive_to_retrieval_direction():
    positions = sample_positions(EnsembleSpec(7, 60.0, seed=9))
    amps = random_amplitudes(7, np.random.default_rng(8))
    a = brute_force_g2(positions, amps, k0=[0.0, 0.0, 7.902])
    b = brute_force_g2(positions, amps, k0=[2.5, -1.0, 0.3])
    assert a == pytest.approx(b, rel=1e-10)


def test_brute_force_rejects_large_n():
    positions = sample_positions(EnsembleSpec(11, 60.0, seed=1))
    with pytest.raises(ValueError):
        brute_force_g2(positions, uniform_amplitudes(11, 1.0))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_pair_sum_formula_matches_oracle(n):
    rng = np.random.default_rng(100 + n)
    for draw in range(100):
        positions = sample_positions(EnsembleSpec(n, 60.0, seed=realization_seed(n, draw)))
        amps = random_amplitudes(n, rng)
        exact = brute_force_g2(positions, amps)
        approx = g2_from_amplitudes(amps, n).g2
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
    "entangle_trace": lambda grid: entangle_trace(EnsembleSpec(10, 60.0, seed=1), 2.0e5, 1.6e5, grid, realizations=1),
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
        amplitudes = source(t)
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
        geometries = [slot_geometry(positions, a, b) for a, b in zip(*pair_index_arrays(len(positions)))]
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
    point = g2_from_amplitudes(amps, n)
    want = fsum_point(amps, n)
    np.testing.assert_allclose([point.g2, point.f, point.h], want, rtol=REDUCTION_RTOL, atol=0.0)


LAYOUT_SIZES = [2, 3, 4, 5, 6, 7, 8, 9, 60, 61, 300, 301]


@pytest.mark.parametrize("n", LAYOUT_SIZES)
def test_round_robin_slots_cover_every_pair_once(n):
    slots = round_robin_pairs(n)
    assert slots.shape == (n, n // 2)
    counted = np.ones(slots.shape)
    zero_doubled_slots(counted)
    assert np.array_equal(np.sort(slots[counted == 1.0]), np.arange(n * (n - 1) // 2))
    # slot (mu, k - 1) is the pair of mu and (mu + k) mod n
    mu, nu = pair_index_arrays(n)
    partner = (np.arange(n)[:, None] + np.arange(1, n // 2 + 1)) % n
    assert np.array_equal(np.minimum(mu[slots], nu[slots]), np.minimum(np.arange(n)[:, None], partner))
    assert np.array_equal(np.maximum(mu[slots], nu[slots]), np.maximum(np.arange(n)[:, None], partner))


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
    amps = np.asarray(amps, dtype=complex)[round_robin_pairs(n)]
    planes.owned[0], planes.owned[1] = amps.real, amps.imag
    return planes


@pytest.mark.parametrize("n", LAYOUT_SIZES)
def test_row_sums_match_the_dense_matrix(n):
    amps = random_amplitudes(n, np.random.default_rng(100 + n))
    amps[::5] = complex(-0.0, -0.0)  # signed zeros, whose sign a reordered sum could flip
    got = planes_of(amps, n).row_sums()
    matrix = dense(amps, n)
    # error bound relative to the row's absolute sum: a row may cancel to near 0
    scale = np.abs(matrix).sum(axis=1)
    want = matrix.sum(axis=1)
    assert np.all(np.abs(got[0] - want.real) <= REDUCTION_RTOL * scale)
    assert np.all(np.abs(got[1] - want.imag) <= REDUCTION_RTOL * scale)
    point = g2_from_amplitudes(amps, n)
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
    mu, nu = pair_index_arrays(n)
    amps = random_amplitudes(n, np.random.default_rng(n))
    amps[(mu == a) & (nu == b)] = complex(math.nan, 0.0)
    with pytest.raises(ValueError, match="missing pair amplitude"):
        g2_from_amplitudes(amps, n)


@pytest.mark.parametrize("n", [2, 3, 4, 60, 61, 100])
def test_unit_amplitudes_give_the_finite_n_invariant(n):
    # the cycles row-0 invariant: f = h = ((N-1)/N)^2 when every pair amplitude is 1
    point = g2_from_amplitudes(np.ones(n * (n - 1) // 2), n)
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


def exact_trace(ensemble, cycles, grid, mode, realizations):
    """(g2, f, h) stacks from condensed columns through g2_from_amplitudes."""
    points = [
        [tuple(vars(g2_from_amplitudes(col, ensemble.n_atoms)).values()) for col in columns.T]
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
    with pytest.raises(ValueError, match="missing pair amplitude"):
        if driver == "trace":
            g2_trace(ens, sched, [0.5, 1.0], realizations=1)
        else:
            g2_after_cycles(ens, sched, realizations=1)


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
