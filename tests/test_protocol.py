import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist

from ryddephase import correlation, protocol
from ryddephase.atomdata import MicrowaveSpec, RydbergChannel
from ryddephase.correlation import realization_seed
from ryddephase.ensemble import EnsembleSpec, sample_positions
from ryddephase.pairdyn import CycleSpec, NumericsError, analytic_pair_amplitudes
from ryddephase.protocol import (
    decay_reference,
    entangle_trace,
    make_schedule,
)

from reference import entangle_fidelity, entangle_points, single_excitation_survival

MW = MicrowaveSpec(rabi=10.0)


def entangle_modes(c3_prime, c3_second, n=99):
    """The two stored spin waves: (n+1)s through np_1/2 with C3', ns through np_3/2 with C3''."""
    channels = (RydbergChannel(n + 1, n, 0.5, c3_prime), RydbergChannel(n, n, 1.5, c3_second))
    return tuple(CycleSpec(channel, 0.0, MicrowaveSpec()) for channel in channels)


def cycle(s_n=100, p_n=100, p_j=0.5, dt=1.0, c3=2.0e5, mw=MW):
    ch = RydbergChannel(s_n, p_n, p_j, c3)
    return CycleSpec(ch, dt, mw)


def four_cycle_schedule(dt=1.0, rabi=10.0, pulse_model="instantaneous"):
    mw = MicrowaveSpec(rabi=rabi, pulse_model=pulse_model)
    return make_schedule(
        [
            cycle(p_n=100, p_j=0.5, dt=dt, mw=mw),
            cycle(p_n=99, p_j=0.5, dt=dt, mw=mw),
            cycle(p_n=100, p_j=1.5, dt=dt, mw=mw),
            cycle(p_n=99, p_j=1.5, dt=dt, mw=mw),
        ]
    )


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_four_cycle_schedule_total_time():
    sched = four_cycle_schedule(dt=1.0, rabi=10.0)
    # per cycle: 1 us + 2 pi / (10 rad/us) = 1.6283 us
    assert sum(c.duration for c in sched) == pytest.approx(4.0 * (1.0 + 0.2 * math.pi), rel=1e-12)
    assert sum(c.duration for c in sched) == pytest.approx(6.5133, abs=1e-4)


def test_single_cycle_total_time():
    sched = make_schedule([cycle(dt=2.5)])
    assert sum(c.duration for c in sched) == pytest.approx(2.5 + 2.0 * math.pi / 10.0, rel=1e-12)


def test_duplicate_p_level_rejected_naming_both_cycles():
    with pytest.raises(ValueError, match=r"cycles 0 and 2"):
        make_schedule([
            cycle(p_n=100, p_j=0.5),
            cycle(p_n=99, p_j=0.5),
            cycle(p_n=100, p_j=0.5),
        ])


def test_same_n_different_j_is_a_fresh_level():
    sched = make_schedule([cycle(p_n=100, p_j=0.5), cycle(p_n=100, p_j=1.5)])
    assert len(sched) == 2


def test_empty_schedule_rejected():
    with pytest.raises(ValueError):
        make_schedule([])


def test_mixed_s_levels_rejected():
    with pytest.raises(ValueError, match="share the target level"):
        make_schedule([cycle(s_n=100), cycle(s_n=99, p_n=98)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(90, 110), st.sampled_from([0.5, 1.5])), min_size=1, max_size=8))
def test_schedule_validation_is_total(p_levels):
    cycles = [cycle(p_n=pn, p_j=pj) for pn, pj in p_levels]
    unique = len(set(p_levels)) == len(p_levels)
    if unique:
        sched = make_schedule(cycles)
        assert [c.channel.p_key for c in sched] == [
            (pn, pj) for pn, pj in p_levels
        ]
    else:
        with pytest.raises(ValueError, match="cycles"):
            make_schedule(cycles)


# ---------------------------------------------------------------------------
# exponential reference
# ---------------------------------------------------------------------------


def test_decay_reference_values():
    assert decay_reference(1.0, 0.0) == 1.0
    assert decay_reference(2.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    tau = 1.0 + 0.2 * math.pi
    assert decay_reference(tau, 4.0 * tau) == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert decay_reference(tau, 4.0 * tau) == pytest.approx(0.0183, abs=1e-4)


def test_decay_reference_rejects_bad_tau():
    with pytest.raises(ValueError):
        decay_reference(0.0, 1.0)
    with pytest.raises(ValueError):
        decay_reference(-2.0, 1.0)


# ---------------------------------------------------------------------------
# single-excitation invariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pulse_model", ["instantaneous", "finite_duration"])
def test_single_excitation_survives_all_cycles(pulse_model):
    sched = four_cycle_schedule(pulse_model=pulse_model)
    amp = single_excitation_survival(sched)
    assert abs(abs(amp) - 1.0) <= 1e-10


def test_single_excitation_survival_per_polarization():
    for pol in ("pi", "sigma_minus"):
        mw = MicrowaveSpec(rabi=7.0, polarization=pol, pulse_model="finite_duration")
        sched = make_schedule([cycle(p_j=1.5, mw=mw)])
        amp = single_excitation_survival(sched)
        assert abs(abs(amp) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# entanglement
# ---------------------------------------------------------------------------


def test_entangle_amplitudes_zero_interval():
    # zero phase on every pair: both coherences exactly 1, F exactly 1/2
    ens = EnsembleSpec(20, 60.0, seed=6)
    f, m1, m2, seeds = entangle_trace(ens, entangle_modes(2.0e5, 1.6e5), [0.0], realizations=2)
    assert seeds == (realization_seed(6, 0), realization_seed(6, 1))
    assert np.all(m1 == 1.0)
    assert np.all(m2 == 1.0)
    assert np.all(f == 0.5)


def test_entangle_amplitudes_equal_strengths_and_linearity():
    ens = EnsembleSpec(20, 60.0, seed=6)
    grid = [0.0, 1.0, 2.0, 30.0]
    f, m1, m2, _ = entangle_trace(ens, entangle_modes(1.5e5, 1.5e5), grid, realizations=2)
    assert np.array_equal(m1, m2)
    # the phase is C3 t / R^3: doubling t equals doubling C3
    f2, m1_2, m2_2, _ = entangle_trace(ens, entangle_modes(3.0e5, 3.0e5), [0.5, 1.0], realizations=2)
    assert np.allclose(f2, f[1:3])
    assert np.allclose(m1_2, m1[1:3])
    assert np.allclose(m2_2, m2[1:3])


def test_entangle_fidelity_limits():
    n = 500
    zeros = np.zeros(n)
    assert entangle_fidelity(zeros, zeros) == pytest.approx(0.5, abs=1e-15)
    rng = np.random.default_rng(17)
    spread = rng.uniform(0.0, 200.0 * math.pi, size=n)
    spread2 = rng.uniform(0.0, 200.0 * math.pi, size=n)
    assert entangle_fidelity(spread, spread2) == pytest.approx(1.0, abs=0.05)


def test_entangle_fidelity_formula_point():
    # m1 = 1, m2 = 0 -> F = 2/3
    n = 4000
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    f = entangle_fidelity(np.zeros(n), phi)
    assert f == pytest.approx(2.0 / 3.0, abs=5e-3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=50),
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=50),
)
def test_entangle_fidelity_bounds(a, b):
    k = min(len(a), len(b))
    f = entangle_fidelity(np.array(a[:k]), np.array(b[:k]))
    assert 0.5 - 1e-12 <= f <= 1.0 + 1e-12


def test_entangle_fidelity_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        entangle_fidelity(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        entangle_fidelity(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entangle_fidelity_rejects_non_finite_phases(bad):
    with pytest.raises(ValueError, match="finite phases"):
        entangle_fidelity([bad], [0.0])
    with pytest.raises(ValueError, match="finite phases"):
        entangle_fidelity([0.0, 1.0], [1.0, bad])


@pytest.mark.parametrize("bad", [0.0, -2.0e5, math.nan, math.inf])
@pytest.mark.parametrize("which", ["c3_prime", "c3_second"])
def test_entangle_trace_rejects_a_bad_c3(which, bad):
    # the mode's channel rejects the strength, so no bad C3 reaches entangle_trace
    c3 = {"c3_prime": 2.0e5, "c3_second": 1.6e5, which: bad}
    with pytest.raises(ValueError, match="c3 must be positive"):
        entangle_trace(EnsembleSpec(10, 60.0, seed=1), entangle_modes(**c3), [0.5], realizations=1)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_entangle_trace_needs_exactly_two_modes(count):
    modes = (entangle_modes(2.0e5, 1.6e5) * 2)[:count]
    with pytest.raises(ValueError, match=f"exactly two modes, got {count}"):
        entangle_trace(EnsembleSpec(10, 60.0, seed=1), modes, [0.5], realizations=1)


def test_entangle_draws_both_modes_from_the_cycle_sources(monkeypatch):
    # one amplitude pipeline: each realization draws its two sources once, as the g2 drivers do
    ens, grid, modes = EnsembleSpec(12, 60.0, seed=4), [0.0, 0.5, 3.0], entangle_modes(2.0e5, 1.6e5)
    expected = entangle_trace(ens, modes, grid, realizations=3)
    draws = []

    def recording_sources(positions, cycles, mode):
        draws.append((len(positions), tuple(cycles), mode))
        return correlation._cycle_sources(positions, cycles, mode)

    monkeypatch.setattr(protocol, "_cycle_sources", recording_sources)
    result = entangle_trace(ens, modes, grid, realizations=3)
    assert draws == [(12, modes, "analytic")] * 3
    for got, want in zip(result, expected):
        assert np.array_equal(got, want)


def test_entangle_numerics_error_names_the_realization_and_seed(monkeypatch):
    # a non-finite amplitude makes a pair mean non-finite; the one realization task tags it
    def with_nan(cubes, phase_product, out=None):
        amps = analytic_pair_amplitudes(cubes, phase_product, out)
        amps[..., 0, 0] = math.nan
        return amps

    monkeypatch.setattr(correlation, "analytic_pair_amplitudes", with_nan)
    ens = EnsembleSpec(10, 60.0, seed=1)
    seed = realization_seed(ens.seed, 0)
    with pytest.raises(NumericsError, match=rf"^realization 0 \(seed {seed}\): non-finite pair sum$"):
        entangle_trace(ens, entangle_modes(2.0e5, 1.6e5), [0.5, 1.0], realizations=2)


def block_length(n):
    return max(1, correlation.BLOCK_SLOTS // (n * (n // 2)))


@pytest.mark.parametrize("n", [100, 101])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)], ids=["1", "B-1", "B", "B+1", "2B+1"])
def test_entangle_blocks_match_the_one_time_per_call_loop(monkeypatch, n, blocks, extra):
    # the blocked loop evaluates B grid times per source call; every byte matches one time per call
    b = block_length(n)
    grid = np.linspace(0.0, 5.0, blocks * b + extra)
    positions = sample_positions(EnsembleSpec(n, 60.0, seed=n))
    modes = entangle_modes(2.0e5, 1.6e5)
    want = entangle_points(positions, modes, grid)
    assert b > 2 and np.array_equal(protocol._entangle_points(positions, modes, grid), want)
    for slots in (1, 10**9):  # one time per block, and the whole grid in one block
        monkeypatch.setattr(correlation, "BLOCK_SLOTS", slots)
        assert np.array_equal(protocol._entangle_points(positions, modes, grid), want)


ENTANGLE_TRACEMALLOC_PROBE = """
import tracemalloc
import numpy as np
from ryddephase.atomdata import MicrowaveSpec, RydbergChannel
from ryddephase.ensemble import EnsembleSpec
from ryddephase.pairdyn import CycleSpec
from ryddephase.protocol import entangle_trace

channels = (RydbergChannel(100, 99, 0.5, 2.0e5), RydbergChannel(99, 99, 1.5, 1.6e5))
modes = tuple(CycleSpec(channel, 0.0, MicrowaveSpec()) for channel in channels)
entangle_trace(EnsembleSpec(100, 60.0, seed=5), modes, [1.0], realizations=1)  # first-call set-up, untraced
for points in (51, 501):
    grid = np.linspace(0.0, 5.0, points)
    tracemalloc.start()
    entangle_trace(EnsembleSpec(100, 60.0, seed=5), modes, grid, realizations=1)
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def test_entangle_realization_memory_does_not_grow_with_the_grid():
    # one block of planes per realization, whatever T is; a fresh interpreter keeps other tests' caches out
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", ENTANGLE_TRACEMALLOC_PROBE], env=env, capture_output=True, text=True, check=True
    )
    short, long = map(int, proc.stdout.split())
    assert abs(long - short) <= 0.05 * short


def test_entangle_trace_starts_at_half_and_dephases():
    ens = EnsembleSpec(40, 60.0, seed=20)
    f, m1, m2, _ = entangle_trace(ens, entangle_modes(2.0e5, 1.6e5), [0.0, 50.0], realizations=5)
    assert f[0] == pytest.approx(0.5, abs=1e-12)
    assert m1[0] == pytest.approx(1.0, abs=1e-12)
    assert f[1] > 0.9
    assert m1[1] < 0.2 and m2[1] < 0.2


def _scalar_coherence(phases):
    """Reference: the scalar math.fsum(math.cos ...) coherence loop."""
    n = phases.size
    re = math.fsum(math.cos(p) for p in phases.ravel())
    im = math.fsum(math.sin(p) for p in phases.ravel())
    return complex(re / n, im / n)


def _scalar_entangle_trace(ens, c3_prime, c3_second, grid, realizations):
    """Reference: one realization at a time, one pair at a time."""
    fs, m1s, m2s = (np.zeros((realizations, len(grid))) for _ in range(3))
    for r in range(realizations):
        r3 = pdist(sample_positions(replace(ens, seed=realization_seed(ens.seed, r)))) ** 3
        for it, t in enumerate(grid):
            m1 = _scalar_coherence(c3_prime * t / r3)
            m2 = _scalar_coherence(c3_second * t / r3)
            fs[r, it] = 2.0 / (2.0 + abs(m1) ** 2 + abs(m2) ** 2)
            m1s[r, it] = abs(m1)
            m2s[r, it] = abs(m2)
    return fs.mean(axis=0), m1s.mean(axis=0), m2s.mean(axis=0)


def test_entangle_trace_matches_scalar_reference():
    ens = EnsembleSpec(60, 60.0, seed=31)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 200.0, 12)])
    f, m1, m2, _ = entangle_trace(ens, entangle_modes(2.0e5, 1.6e5), grid, realizations=3)
    ref_f, ref_m1, ref_m2 = _scalar_entangle_trace(ens, 2.0e5, 1.6e5, np.asarray(grid), 3)
    assert np.max(np.abs(f - ref_f)) <= 1e-12
    assert np.max(np.abs(m1 - ref_m1)) <= 1e-12
    assert np.max(np.abs(m2 - ref_m2)) <= 1e-12
    assert f[0] == 0.5 and m1[0] == 1.0 and m2[0] == 1.0


def test_entangle_fidelity_matches_scalar_reference():
    rng = np.random.default_rng(8)
    for scale in (1.0, 1e3, 1e7):
        phi_p = rng.uniform(0.0, scale, size=(7, 11))
        phi = rng.uniform(0.0, scale, size=(7, 11))
        m1, m2 = _scalar_coherence(phi_p), _scalar_coherence(phi)
        expected = 2.0 / (2.0 + abs(m1) ** 2 + abs(m2) ** 2)
        assert abs(entangle_fidelity(phi_p, phi) - expected) <= 1e-12


@pytest.mark.parametrize("grid", [[math.nan], [0.5, math.inf], [-1.0, 0.5]], ids=["nan", "inf", "negative"])
def test_entangle_trace_rejects_non_finite_or_negative_times(grid):
    with pytest.raises(ValueError, match="time grid must hold finite times >= 0"):
        entangle_trace(EnsembleSpec(10, 60.0, seed=1), entangle_modes(2.0e5, 1.6e5), grid, realizations=1)
