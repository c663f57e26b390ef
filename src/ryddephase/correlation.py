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
matrix: np.bincount adds every pair into rows mu and nu, and math.fsum
combines the N row sums.  Inside a realization the pairs are taken in
anti-diagonal order, sorted by (mu + nu, mu), rather than in condensed
(mu < nu, row-major) order: separations or orientations are gathered in that
order once, and every amplitude column comes out in it.  For a fixed mu, nu
ascending means mu + nu ascending, and for a fixed nu, mu ascending does
too, so every row bin still receives its pairs in ascending condensed index
and every S_mu is the same sequence of float additions: the bits are those
of the condensed order.  Consecutive pairs, though, land in different
bins, which avoids the store-to-load chain np.bincount runs into when it
hits one bin again and again, as row-major order does.  The order depends on N alone, never on how
realizations were spread over worker processes, so traces are
byte-identical for any worker count.  A realization evaluates analytic
amplitudes one time point at a time, with R^3 computed once, so its memory
is O(N^2) rather than O(N^2 T); the multichannel kernel returns one batched
(npairs, T) stack, because one eigendecomposition per pair serves all times.
g2_from_amplitudes and brute_force_g2 take condensed input.
run_realizations is the one realization loop (seed, sample, evaluate, stack
in index order, serially or on a process pool); the entanglement trace in
protocol runs through it as well.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensemble import (
    EnsembleGeometry,
    EnsembleSpec,
    pair_index_arrays,
    pair_orientations,
    pair_separations,
    sample_positions,
)
from .pairdyn import (
    NumericsError,
    analytic_pair_amplitudes,
    numeric_pair_amplitudes,
)

G2_ZERO = math.e / 4.0
G2_ASYMPTOTE = G2_ZERO * 16.0 / 25.0

TRUNCATED_AMPLITUDES = (1.0 / math.sqrt(math.e), 1.0 / math.sqrt(math.e), 1.0 / math.sqrt(2.0 * math.e))


@dataclass(frozen=True)
class G2Point:
    g2: float
    f: float
    h: float


def _row_bins(mu: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-sum bins of a complex pair column viewed as interleaved floats.

    Float 2k (real) and 2k + 1 (imaginary) of pair k = (mu[k], nu[k]) go to
    bins 2 mu + {0, 1} in the first array and 2 nu + {0, 1} in the second.
    """
    part = np.array([0, 1])
    return (2 * mu[:, None] + part).ravel(), (2 * nu[:, None] + part).ravel()


def _pair_layout(n: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Anti-diagonal pair order of a realization and its row-sum bins.

    order lists the condensed pair indices sorted by (mu + nu, mu); bins is
    _row_bins of the pairs in that order.
    """
    mu, nu = pair_index_arrays(n)
    order = np.argsort(mu + nu, kind="stable")
    return order, _row_bins(mu[order], nu[order])


def _reduce_pairs(column: np.ndarray, bins, n: int) -> tuple[float, float, float]:
    """(g2, f, h) of one point from a column of pair amplitudes, in fixed order.

    bins is _row_bins of the column's pairs.  Each row sum S_mu accumulates
    in column order (np.bincount); the n row sums are combined with
    math.fsum.  A NaN or infinite amplitude makes its row sums non-finite,
    and |A| <= 1 keeps a sum of finite amplitudes finite, so only the 2n row
    sums are checked.
    """
    floats = np.ascontiguousarray(column, dtype=complex).view(np.float64)
    rows = np.bincount(bins[0], floats, 2 * n) + np.bincount(bins[1], floats, 2 * n)
    if not np.isfinite(rows).all():
        raise ValueError("missing pair amplitude (non-finite value)")
    row_re, row_im = rows[0::2], rows[1::2]
    total_re = math.fsum(row_re.tolist())
    total_im = math.fsum(row_im.tolist())
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
    bins = _row_bins(*pair_index_arrays(n_atoms))
    return G2Point(*_reduce_pairs(_condensed(condensed, n_atoms), bins, n_atoms))


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


def _amplitude_columns(geometry: EnsembleGeometry, cycles, grid, mode: str, order: np.ndarray):
    """Pair amplitudes of one realization, one (npairs,) column per point.

    order lists condensed pair indices; entry k of every column belongs to
    pair order[k].  With a grid, each grid time replaces the free interval of
    every cycle.  With grid None, column q is the product of cycles 0..q,
    each at its own free interval.
    """
    if mode == "analytic":
        r = pair_separations(geometry)[order]
        r3 = r**3

        def amplitudes(products):
            return analytic_pair_amplitudes(r, products, cubes=r3)

        if grid is None:
            per_cycle = (amplitudes([c.channel.c3 * c.delta_t]) for c in cycles)
            return itertools.accumulate(per_cycle, operator.mul)
        return (amplitudes([c.channel.c3 * t for c in cycles]) for t in grid)
    if mode == "multichannel":
        r, theta, phi = (x[order] for x in pair_orientations(geometry))

        def cycle_stack(q, times):
            try:
                return numeric_pair_amplitudes(r, theta, phi, cycles[q], times)
            except NumericsError as exc:
                raise NumericsError(f"cycle {q}: {exc}") from exc

        if grid is None:
            per_cycle = (cycle_stack(q, np.array([c.delta_t]))[:, 0] for q, c in enumerate(cycles))
            return itertools.accumulate(per_cycle, operator.mul)
        stack = np.ones((len(r), len(grid)), dtype=complex)
        for q in range(len(cycles)):
            stack *= cycle_stack(q, grid)
        return stack.T
    raise ValueError(f"unknown mode {mode!r}")


def sample_realization(ensemble: EnsembleSpec, index: int) -> tuple[int, EnsembleGeometry]:
    """Seed and sampled positions of realization index of the ensemble."""
    seed = realization_seed(ensemble.seed, index)
    spec_r = EnsembleSpec(ensemble.n_atoms, ensemble.box_side, seed, ensemble.min_separation)
    return seed, sample_positions(spec_r)


def _trace_single_realization(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g2, f and h of one realization: sample positions, evaluate, reduce each column."""
    ensemble, cycles, grid, mode, index = args
    seed, geometry = sample_realization(ensemble, index)
    n = ensemble.n_atoms
    order, bins = _pair_layout(n)
    try:
        points = [
            _reduce_pairs(column, bins, n)
            for column in _amplitude_columns(geometry, cycles, grid, mode, order)
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


def brute_force_g2(geometry: EnsembleGeometry, condensed, k0=None) -> float:
    """Exact correlator on the explicit truncated state, for N <= 10.

    Builds the state vector over {vacuum, single excitations, excited pairs}
    with collective-mode phase factors, applies the collective lowering
    operator as a sparse map, and evaluates <S+ S+ S S> / <S+ S>^2 directly.
    No large-N approximation is made, so this is the oracle against which the
    pair-sum formula is checked.
    """
    n = geometry.n_atoms
    if n > 10:
        raise ValueError(f"brute-force correlator limited to N <= 10, got {n}")
    pair_amp = _condensed(condensed, n)
    k0 = DEFAULT_RETRIEVAL_K if k0 is None else np.asarray(k0, dtype=float)
    c0, c1, c2 = TRUNCATED_AMPLITUDES

    phase = np.exp(1j * geometry.positions @ k0)  # e^{i k0 . r_mu}
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
