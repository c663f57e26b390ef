"""Second-order correlation of the retrieved collective mode from pair amplitudes.

The preparation stage leaves a coherent superposition of collective
excitations with Poissonian weights of unit mean, truncated beyond two
excitations: c_alpha = 1/sqrt(e alpha!) for alpha <= 2.  The normalized
correlation of the phase-matched mode then reduces to a functional of the
per-pair survival amplitudes A_munu, through their row sums
S_mu = sum_{nu != mu} A_munu:

    f = | (1/N^2) sum_mu S_mu |^2
    h = (1/N^3) sum_mu | S_mu |^2
    g2 = 4 g2(0) f / (1 + h)^2,     g2(0) = e/4

in the large-N limit (N-1)/N ~ 1.  A brute-force oracle evaluates the same
correlator exactly on the explicit truncated state vector for small N.

Each point is reduced from per-pair amplitudes without forming the N x N
matrix.  Amplitude columns stay in condensed (mu < nu, row-major) order,
where the pairs of row mu are contiguous; one fixed gather puts a column in
column order (nu-major), where the pairs of column nu are.  S_mu adds these
two segment sums (np.add.reduceat, which sums each segment pairwise), and
math.fsum combines the N row sums.  The layout is cached per N and depends
on N alone, never on how realizations were spread over worker processes,
so traces are byte-identical for any worker count.

Each mode supplies one function t -> (npairs,) condensed amplitude column
per cycle: analytic over R^3 computed once, multichannel over the cycle's
pair spectra.  One rule combines them: the cycles' columns multiply.  A
realization streams one column per time point, in O(N^2) memory, or
O(N^2 d) over a pair basis of dimension d, whatever the grid length T.
g2_from_amplitudes and brute_force_g2 take condensed input.
run_realizations is the one realization loop (seed, sample, evaluate, stack
in index order, serially or on a process pool); the entanglement trace in
protocol runs through it as well.
"""

import itertools
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial, reduce

import numpy as np

from .ensemble import (
    EnsembleSpec,
    pair_index_arrays,
    pair_orientations,
    pair_separations,
    sample_positions,
)
from .pairdyn import NumericsError, analytic_pair_amplitudes, pair_spectra, spectral_amplitudes

G2_ZERO = math.e / 4.0
G2_ASYMPTOTE = G2_ZERO * 16.0 / 25.0

TRUNCATED_AMPLITUDES = (1.0 / math.sqrt(math.e), 1.0 / math.sqrt(math.e), 1.0 / math.sqrt(2.0 * math.e))


@dataclass(frozen=True)
class G2Point:
    g2: float
    f: float
    h: float


@lru_cache
def _pair_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row starts, column gather and column starts of the condensed pairs of n atoms.

    Row mu < n - 1 holds the pairs (mu, nu > mu) from its start on; the
    gather lists the condensed indices nu-major, mu ascending, and column
    nu > 0 holds the pairs (mu < nu, nu) of the gathered column from its
    start on.  Row n - 1 and column 0 hold no pair and have no start:
    reduceat returns the element itself for a repeated index, not 0.
    """
    _, nu = pair_index_arrays(n)
    rows, cols = np.arange(n - 1), np.arange(1, n)
    layout = (rows * n - rows * (rows + 1) // 2, np.argsort(nu, kind="stable"), cols * (cols - 1) // 2)
    for part in layout:  # shared by every caller through the cache
        part.flags.writeable = False
    return layout


def _row_sums(column, n: int) -> np.ndarray:
    """Row sums S_mu of a condensed column, checked finite; a row of signed zeros sums to +0.0."""
    row_starts, by_col, col_starts = _pair_layout(n)
    column = np.asarray(column, dtype=complex)
    rows = np.zeros(n, dtype=complex)
    rows[:-1] += np.add.reduceat(column, row_starts)
    rows[1:] += np.add.reduceat(column[by_col], col_starts)
    if not np.isfinite(rows).all():
        raise ValueError("missing pair amplitude (non-finite value)")
    return rows


def _reduce_pairs(column, n: int) -> tuple[float, float, float]:
    """(g2, f, h) of one point from a condensed column of pair amplitudes, in fixed order.

    Each row sum S_mu adds two segment sums, its row's and its column's
    (np.add.reduceat over the _pair_layout cached per n, pairwise within a
    segment), into zeros; math.fsum combines the n row sums.  The order
    depends on n alone, so the result does not depend on the worker count.
    A non-finite amplitude makes its row sums non-finite (|A| <= 1 keeps
    finite sums finite), so only the n row sums are checked.
    """
    rows = _row_sums(column, n)
    row_re, row_im = rows.real, rows.imag
    total_re, total_im = math.fsum(row_re.tolist()), math.fsum(row_im.tolist())
    f = (total_re * total_re + total_im * total_im) / float(n) ** 4
    h = math.fsum((row_re * row_re + row_im * row_im).tolist()) / float(n) ** 3
    return 4.0 * G2_ZERO * f / (1.0 + h) ** 2, f, h


def _condensed(amplitudes, n_atoms: int) -> np.ndarray:
    """amplitudes as an array, checked to hold one value per mu < nu pair."""
    amplitudes = np.asarray(amplitudes)
    npairs = n_atoms * (n_atoms - 1) // 2
    if amplitudes.shape != (npairs,):
        raise ValueError(
            f"expected {npairs} condensed pair amplitudes for {n_atoms} atoms, got shape {amplitudes.shape}"
        )
    return amplitudes


def g2_from_amplitudes(condensed, n_atoms: int) -> G2Point:
    """One correlation point from condensed (mu < nu, row-major) pair amplitudes."""
    return G2Point(*_reduce_pairs(_condensed(condensed, n_atoms), n_atoms))


@dataclass(frozen=True, eq=False)
class G2Trace:
    """Per-realization and summary correlation statistics on a time grid."""

    grid: np.ndarray  # (T,)
    g2: np.ndarray  # (R, T)
    f: np.ndarray  # (R, T)
    h: np.ndarray  # (R, T)
    seeds: tuple[int, ...]

    @property
    def realizations(self) -> int:
        return self.g2.shape[0]

    # each summary reduces the whole (R, T) array, so it is computed once
    # for a writer that reads it row by row

    @cached_property
    def g2_mean(self) -> np.ndarray:
        return self.g2.mean(axis=0)

    @cached_property
    def g2_stderr(self) -> np.ndarray:
        r = self.realizations
        if r < 2:
            return np.zeros(self.g2.shape[1])
        return self.g2.std(axis=0, ddof=1) / math.sqrt(r)

    @cached_property
    def f_mean(self) -> np.ndarray:
        return self.f.mean(axis=0)

    @cached_property
    def h_mean(self) -> np.ndarray:
        return self.h.mean(axis=0)


def realization_seed(base_seed: int, index: int) -> int:
    """Derived 64-bit seed of one realization, stable across platforms."""
    ss = np.random.SeedSequence([int(base_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _cycle_sources(positions: np.ndarray, cycles, mode: str):
    """Per cycle, in schedule order, its amplitude function t -> fresh condensed column.

    A multichannel cycle's pair spectra are built when its source is drawn,
    so a caller that drops each source before drawing the next holds one
    cycle's spectra at a time.
    """
    if mode == "analytic":
        cubes = pair_separations(positions) ** 3
        for cycle in cycles:
            yield lambda t, c3=cycle.channel.c3: analytic_pair_amplitudes(cubes, c3 * t)
    elif mode == "multichannel":
        r, theta = pair_orientations(positions)
        for q, cycle in enumerate(cycles):
            try:
                yield partial(spectral_amplitudes, pair_spectra(r, theta, cycle))
            except NumericsError as exc:
                raise NumericsError(f"cycle {q}: {exc}") from exc
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _amplitude_columns(positions: np.ndarray, cycles, grid, mode: str):
    """Pair amplitudes of one realization, one (npairs,) column per point.

    The cycles' amplitudes multiply.  With a grid, each grid time replaces the
    free interval of every cycle.  With grid None, column q is the product of
    cycles 0..q, each at its own free interval; map drops each cycle's
    source once its column is evaluated, before the next one is drawn.
    """
    sources = _cycle_sources(positions, cycles, mode)
    if grid is None:
        per_cycle = map(lambda source, cycle: source(cycle.delta_t), sources, cycles)
        return itertools.accumulate(per_cycle, operator.mul)
    sources = list(sources)
    return (reduce(operator.imul, (source(t) for source in sources)) for t in grid)


def sample_realization(ensemble: EnsembleSpec, index: int) -> tuple[int, np.ndarray]:
    """Seed and sampled positions of realization index of the ensemble."""
    seed = realization_seed(ensemble.seed, index)
    return seed, sample_positions(replace(ensemble, seed=seed))


def _trace_single_realization(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g2, f and h of one realization: sample positions, evaluate, reduce each column."""
    ensemble, cycles, grid, mode, index = args
    seed, positions = sample_realization(ensemble, index)
    try:
        points = [
            _reduce_pairs(column, ensemble.n_atoms)
            for column in _amplitude_columns(positions, cycles, grid, mode)
        ]
    except NumericsError as exc:
        raise NumericsError(f"realization {index} (seed {seed}): {exc}") from exc
    g2s, fs, hs = np.array(points).T
    return g2s, fs, hs


def run_realizations(worker, ensemble: EnsembleSpec, params: tuple, realizations: int, pool=None):
    """Per-realization results of worker, stacked over realizations, and the seeds.

    worker is called with (ensemble, *params, index) for each realization
    index, in the calling process (pool None) or on the pool, and returns a
    tuple of equal-shape arrays; result k stacks the k-th array of every
    realization in index order, whatever the worker count.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    tasks = [(ensemble, *params, r) for r in range(realizations)]
    results = list((map if pool is None else pool.map)(worker, tasks))
    stacks = tuple(np.stack(k) for k in zip(*results))
    seeds = tuple(realization_seed(ensemble.seed, r) for r in range(realizations))
    return stacks, seeds


def g2_trace(
    ensemble: EnsembleSpec,
    schedule,
    grid,
    mode: str = "analytic",
    realizations: int = 100,
    pool=None,
) -> G2Trace:
    """Correlation trace versus the free-interval length of the schedule.

    Each grid time is applied as the free interval of every cycle in the
    schedule (for a single-cycle schedule this sweeps the interval directly).
    Each realization resamples atom positions from a seed derived from the
    ensemble seed and the realization index; the schedule stays fixed.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("time grid must be nonempty")
    if np.any(np.diff(grid) <= 0) and grid.size > 1:
        raise ValueError("time grid must be strictly increasing")
    params = (tuple(schedule.cycles), grid, mode)
    stacks, seeds = run_realizations(_trace_single_realization, ensemble, params, realizations, pool)
    return G2Trace(grid, *stacks, seeds)


def g2_after_cycles(
    ensemble: EnsembleSpec,
    schedule,
    mode: str = "analytic",
    realizations: int = 100,
    pool=None,
) -> G2Trace:
    """Correlation after each successive cycle of a fixed schedule.

    The trace grid is the cumulative wall-clock time (free intervals plus the
    2pi of pulse area per cycle).
    """
    cycles = tuple(schedule.cycles)
    grid = np.cumsum([c.duration for c in cycles])
    params = (cycles, None, mode)
    stacks, seeds = run_realizations(_trace_single_realization, ensemble, params, realizations, pool)
    return G2Trace(grid, *stacks, seeds)


DEFAULT_RETRIEVAL_K = np.array([0.0, 0.0, 7.902])  # rad/um, a typical optical k


def brute_force_g2(positions: np.ndarray, condensed, k0=None) -> float:
    """Exact correlator on the explicit truncated state, for N <= 10.

    Builds the state vector over {vacuum, single excitations, excited pairs}
    with collective-mode phase factors, applies the collective lowering
    operator as a sparse map, and evaluates <S+ S+ S S> / <S+ S>^2 directly.
    No large-N approximation is made, so this is the oracle against which the
    pair-sum formula is checked.
    """
    n = len(positions)
    if n > 10:
        raise ValueError(f"brute-force correlator limited to N <= 10, got {n}")
    pair_amp = _condensed(condensed, n)
    k0 = DEFAULT_RETRIEVAL_K if k0 is None else np.asarray(k0, dtype=float)
    c0, c1, c2 = TRUNCATED_AMPLITUDES

    phase = np.exp(1j * positions @ k0)  # e^{i k0 . r_mu}
    mu, nu = pair_index_arrays(n)
    npairs = len(mu)

    # state vector: [vacuum, singles (N), pairs (npairs)]
    psi_vac = c0
    psi_single = c1 * phase / math.sqrt(n)
    psi_pair = c2 * phase[mu] * phase[nu] * pair_amp / math.sqrt(npairs)

    # S maps pairs -> singles and singles -> vacuum, with e^{-i k0 . r} factors
    s_single = np.zeros(n, dtype=complex)  # singles component of S|psi>
    np.add.at(s_single, nu, psi_pair * np.conj(phase[mu]))
    np.add.at(s_single, mu, psi_pair * np.conj(phase[nu]))
    s_single /= math.sqrt(n)
    s_vac = np.sum(psi_single * np.conj(phase)) / math.sqrt(n)

    norm_s = abs(s_vac) ** 2 + float(np.sum(np.abs(s_single) ** 2))

    ss_vac = np.sum(s_single * np.conj(phase)) / math.sqrt(n)
    norm_ss = abs(ss_vac) ** 2

    if norm_s == 0.0:
        return 0.0
    return norm_ss / norm_s**2
