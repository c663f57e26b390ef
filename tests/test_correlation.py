import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ryddephase.atomdata import Level, MicrowaveSpec, RydbergChannel
from ryddephase.correlation import (
    G2_ASYMPTOTE,
    G2_ZERO,
    brute_force_g2,
    g2_after_cycles,
    g2_from_amplitudes,
    g2_trace,
    realization_seed,
)
from ryddephase.ensemble import (
    EnsembleSpec,
    pair_index_arrays,
    pair_orientations,
    pair_separations,
    sample_positions,
)
from ryddephase.pairdyn import CycleSpec, analytic_pair_amplitudes, numeric_pair_amplitudes
from ryddephase.protocol import make_schedule


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
    ch = RydbergChannel(Level(n, "s", 0.5), Level(n, "p", 0.5), c3)
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
    geometry = sample_positions(EnsembleSpec(5, 60.0, seed=1))
    # one value per mu < nu pair: a wrong count or a dense N x N matrix is rejected
    for wrong in (
        uniform_amplitudes(6, 1.0),
        uniform_amplitudes(5, 1.0)[:-1],
        np.ones((5, 5), dtype=complex),
    ):
        with pytest.raises(ValueError, match="expected 10 condensed pair amplitudes for 5 atoms"):
            g2_from_amplitudes(wrong, 5)
        with pytest.raises(ValueError, match="expected 10 condensed pair amplitudes for 5 atoms"):
            brute_force_g2(geometry, wrong)


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
    geometry = sample_positions(EnsembleSpec(3, 60.0, seed=2))
    exact = brute_force_g2(geometry, [1.0, 0.0, 0.0])
    assert exact == pytest.approx(3.0 * math.e / 50.0, rel=1e-12)


def test_brute_force_zero_amplitudes_give_zero():
    geometry = sample_positions(EnsembleSpec(6, 60.0, seed=3))
    exact = brute_force_g2(geometry, uniform_amplitudes(6, 0.0))
    assert exact == 0.0


def test_brute_force_all_unit_amplitudes_within_spinwave_error():
    geometry = sample_positions(EnsembleSpec(8, 60.0, seed=4))
    amps = uniform_amplitudes(8, 1.0)
    exact = brute_force_g2(geometry, amps)
    approx = g2_from_amplitudes(amps, 8).g2
    assert abs(approx - exact) / exact < 0.15


def test_brute_force_insensitive_to_retrieval_direction():
    geometry = sample_positions(EnsembleSpec(7, 60.0, seed=9))
    amps = random_amplitudes(7, np.random.default_rng(8))
    a = brute_force_g2(geometry, amps, k0=[0.0, 0.0, 7.902])
    b = brute_force_g2(geometry, amps, k0=[2.5, -1.0, 0.3])
    assert a == pytest.approx(b, rel=1e-10)


def test_brute_force_rejects_large_n():
    geometry = sample_positions(EnsembleSpec(11, 60.0, seed=1))
    with pytest.raises(ValueError):
        brute_force_g2(geometry, uniform_amplitudes(11, 1.0))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_pair_sum_formula_matches_oracle(n):
    rng = np.random.default_rng(100 + n)
    for draw in range(100):
        geometry = sample_positions(EnsembleSpec(n, 60.0, seed=realization_seed(n, draw)))
        amps = random_amplitudes(n, rng)
        exact = brute_force_g2(geometry, amps)
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
    geomin = min(
        np.min(np.linalg.norm(
            sample_positions(EnsembleSpec(50, 60.0, realization_seed(33, r))).positions[:, None, :]
            - sample_positions(EnsembleSpec(50, 60.0, realization_seed(33, r))).positions[None, :, :],
            axis=-1,
        )[np.triu_indices(50, 1)])
        for r in range(3)
    )
    c3 = 1.0e3
    t_max = (math.pi / 4.0) * geomin**3 / c3
    grid = np.linspace(0.0, t_max, 12)[1:]
    trace = g2_trace(ens, single_cycle_schedule(c3), grid, realizations=3)
    assert np.all(np.diff(trace.g2_mean) <= 1e-12)


def test_trace_rejects_bad_grid():
    ens = EnsembleSpec(10, 60.0, seed=1)
    sched = single_cycle_schedule(1.0)
    with pytest.raises(ValueError):
        g2_trace(ens, sched, [], realizations=1)
    with pytest.raises(ValueError):
        g2_trace(ens, sched, [1.0, 0.5], realizations=1)
    with pytest.raises(ValueError):
        g2_trace(ens, sched, [1.0], realizations=0)


def test_multichannel_trace_at_zero_matches_analytic():
    ens = EnsembleSpec(12, 60.0, seed=8)
    sched = single_cycle_schedule(1.0e5, n=100)
    ta = g2_trace(ens, sched, [0.0], mode="analytic", realizations=2)
    tm = g2_trace(ens, sched, [0.0], mode="multichannel", realizations=2)
    assert np.allclose(ta.g2, tm.g2, atol=1e-10)


def test_cycles_grid_is_cumulative_duration():
    cycles = [
        CycleSpec(
            RydbergChannel(Level(100, "s", 0.5), Level(p_n, "p", p_j), 2.0e5),
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


def fsum_point(condensed, n):
    """(g2, f, h) with every row summed by math.fsum over the full matrix."""
    nodiag = dense(condensed, n)
    row_re = [math.fsum(nodiag.real[mu].tolist()) for mu in range(n)]
    row_im = [math.fsum(nodiag.imag[mu].tolist()) for mu in range(n)]
    total_re, total_im = math.fsum(row_re), math.fsum(row_im)
    f = (total_re * total_re + total_im * total_im) / float(n) ** 4
    h = math.fsum(re * re + im * im for re, im in zip(row_re, row_im)) / float(n) ** 3
    return 4.0 * G2_ZERO * f / (1.0 + h) ** 2, f, h


def reference_columns(ensemble, cycles, grid, mode, index):
    """Condensed amplitude columns of one realization, straight from the pairdyn kernels."""
    spec = EnsembleSpec(ensemble.n_atoms, ensemble.box_side, realization_seed(ensemble.seed, index))
    geometry = sample_positions(spec)
    if mode == "analytic":
        r = pair_separations(geometry)

        def stack(cycle, times):
            return np.stack([analytic_pair_amplitudes(r, [cycle.channel.c3 * t]) for t in times], axis=1)

    else:
        r, theta, phi = pair_orientations(geometry)

        def stack(cycle, times):
            return numeric_pair_amplitudes(r, theta, phi, cycle, np.asarray(times))

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
                RydbergChannel(Level(100, "s", 0.5), Level(100, "p", p_j), 2.0e5),
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


def row_sums(column, bins, n):
    floats = np.ascontiguousarray(column).view(np.float64)
    return np.bincount(bins[0], floats, 2 * n) + np.bincount(bins[1], floats, 2 * n)


@pytest.mark.parametrize("n", [2, 3, 7, 60, 300])
def test_anti_diagonal_reduction_equals_condensed_order(n):
    from ryddephase.correlation import _pair_layout, _reduce_pairs, _row_bins

    amps = random_amplitudes(n, np.random.default_rng(100 + n))
    amps[::5] = complex(-0.0, -0.0)  # signed zeros, whose sign a reordered sum could flip
    condensed_bins = _row_bins(*pair_index_arrays(n))
    order, bins = _pair_layout(n)
    assert np.array_equal(np.sort(order), np.arange(len(amps)))
    want_rows = row_sums(amps, condensed_bins, n)
    got_rows = row_sums(amps[order], bins, n)
    assert got_rows.tobytes() == want_rows.tobytes()
    assert np.array_equal(np.signbit(got_rows), np.signbit(want_rows))
    assert np.array_equal(_reduce_pairs(amps[order], bins, n), _reduce_pairs(amps, condensed_bins, n))
    # every row bin takes its pairs in ascending condensed index
    for row in (bins[0][0::2] // 2, bins[1][0::2] // 2):
        by_row = np.argsort(row, kind="stable")
        same_row = np.diff(row[by_row]) == 0
        assert np.all(np.diff(order[by_row])[same_row] > 0)


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


@pytest.mark.parametrize("driver", ["trace", "cycles"])
def test_non_finite_amplitude_raises(monkeypatch, driver):
    import ryddephase.correlation as correlation

    def with_nan(separations, phase_products, *, cubes=None):
        amps = analytic_pair_amplitudes(separations, phase_products, cubes=cubes)
        amps[3] = complex(math.nan, 0.0)
        return amps

    monkeypatch.setattr(correlation, "analytic_pair_amplitudes", with_nan)
    ens = EnsembleSpec(8, 60.0, seed=5)
    sched = single_cycle_schedule(2.0e5)
    with pytest.raises(ValueError, match="missing pair amplitude"):
        if driver == "trace":
            g2_trace(ens, sched, [0.5, 1.0], realizations=1)
        else:
            g2_after_cycles(ens, sched, realizations=1)


FAULT_PROBE = """
import resource
import numpy as np
from ryddephase.atomdata import Level, MicrowaveSpec, RydbergChannel
from ryddephase.correlation import g2_trace
from ryddephase.ensemble import EnsembleSpec
from ryddephase.pairdyn import CycleSpec
from ryddephase.protocol import make_schedule

ch = RydbergChannel(Level(60, "s", 0.5), Level(60, "p", 0.5), 2.6e4)
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
