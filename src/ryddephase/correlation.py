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

in the large-N limit (N-1)/N ~ 1.  At finite N the exact correlator of the
truncated state is the same formula with f and h scaled by N/(N - 1)
(exact_g2), so the pair sums carry the whole finite-N correction.

Each point is reduced without forming the N x N matrix, in the one pair
order, round-robin: with K = N // 2, atom mu owns the pairs (mu, mu + k mod
N), k = 1..K, one row of K slots.  For odd N that is every pair once; for
even N the second slot of each pair (mu, mu + N/2) is zeroed
(zero_doubled_slots).  Re A and Im A fill rows K.. of two real planes of
K + N rows per time (_PairPlanes), and the last K rows are copied ahead of
the first.  Then the partners of mu, the pairs (mu - k, mu), sit at row
K + mu - k, column k - 1 of a plane: one fixed view with strides (K, 1 - K).
S_mu adds the sum over its own row and the sum over that view, each started
from +0.0, and f and h come from numpy's pairwise sums over the N row sums.

Every grid runs through one block loop, block_points: B = max(1,
BLOCK_SLOTS // (N K)) grid times per block, as a (B, 1, 1) column of times
to each cycle's source (analytic over R^3 computed once, multichannel over
the cycle's spectra of every slot).  A lone cycle's source writes the
block's planes; the cycles of a longer schedule multiply as complex numbers
and their product is copied in.  Buffers are allocated once per
realization, so memory is O(N^2 + BLOCK_SLOTS), or O(N^2 d) over a pair
basis of dimension d, whatever the grid length T.  Each time's amplitudes
and sums have the bits of a block of one time, in orders fixed by N, so
output does not depend on the block length or the worker count.

run_realizations maps one task, _trace_realizations, over contiguous ranges
of realizations: [0, R) in the calling process, or a bounded number of ranges
on a process pool.  Per index it runs _trace_single_realization: derive the
seed, sample the positions, evaluate a (3, T) points function on them
(_realization_points, or protocol._entangle_points), and tag a NumericsError
with the realization and seed.
"""

import itertools
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .ensemble import (
    EnsembleSpec,
    round_robin_orientations,
    round_robin_separations,
    sample_positions,
)
from .pairdyn import NumericsError, analytic_pair_amplitudes, pair_spectra, spectral_amplitudes

G2_ZERO = math.e / 4.0
G2_ASYMPTOTE = G2_ZERO * 16.0 / 25.0
RANGES_PER_WORKER = 16  # contiguous realization ranges per pool worker, each one task (run_realizations)
# pair slots per block of B grid times, n K each (block_points).  One N = 100 entangle realization of a 51-point
# grid took 3.50, 2.86, 2.55, 2.38, 2.44 and 2.80 ms at B = 1, 2, 4, 8, 16 and 52 (medians of 20 runs, one
# core).  B = 4 keeps most of the gain in half the buffer of B = 8: 320 kB at N = 100, where B = 8 held
# 0.6 MB more peak RSS in the entangle benchmark and no more throughput in it.
BLOCK_SLOTS = 20_000


def _g2(f: float, h: float, scale: float = 1.0) -> float:
    """The one home of g2 = 4 g2(0) f~ / (1 + h~)^2, f~ = f scale, h~ = h scale; scale 1.0 is exact."""
    return 4.0 * G2_ZERO * f * scale / (1.0 + h * scale) ** 2


@dataclass(frozen=True)
class G2Point:
    g2: float
    f: float
    h: float


def doubled_slots(planes: np.ndarray) -> np.ndarray:
    """The slots of round-robin planes (..., n, K) that count no pair: for even n, (mu + K, K - 1) of (mu, mu + n/2)."""
    n = planes.shape[-2]
    return planes[..., n // 2 if n % 2 == 0 else n :, -1]


def zero_doubled_slots(planes: np.ndarray) -> None:
    doubled_slots(planes)[...] = 0.0


def round_robin_cubes(positions: np.ndarray) -> np.ndarray:
    """R^3 of every round-robin slot, shape (n, n // 2), computed once per realization."""
    cubes = round_robin_separations(positions)
    cubes **= 3
    return cubes


def pair_mean(planes: np.ndarray) -> np.ndarray:
    """Re and Im of the mean over the n (n - 1) / 2 pairs of round-robin planes (2, ..., n, K), shape (2, ...).

    The slots that count no pair are zeroed first; each (n, K) plane is then
    one contiguous pairwise sum, in an order fixed by n, so a leading block
    axis changes no bit of any mean.  A non-finite amplitude makes its sum
    non-finite: NumericsError.
    """
    zero_doubled_slots(planes)
    n = planes.shape[-2]
    means = planes.reshape(*planes.shape[:-2], -1).sum(axis=-1) / (n * (n - 1) // 2)
    if not np.isfinite(means).all():
        raise NumericsError("non-finite pair sum")
    return means


class _PairPlanes:
    """Re A and Im A of every pair of n atoms at block times, in round-robin order, and their g2 points.

    owned, a (2, block, n, K) view with K = n // 2 of the time-major
    (block, 2, K + n, K) buffer, holds Re A and Im A of slot (mu, k - 1), the
    pair (mu, mu + k mod n), at each time, all written before each reduction.
    """

    def __init__(self, n: int, block: int = 1, buffer=None):
        self.n, self.k, self.block = n, n // 2, block
        self._n3, self._n4 = float(n) ** 3, float(n) ** 4
        self.buffer = np.empty((block, 2, self.k + n, self.k)) if buffer is None else buffer
        self._owned = self.buffer[:, :, self.k :]
        self.owned = self._owned.swapaxes(0, 1)
        self._doubled, self._rows = doubled_slots(self._owned), np.empty((2, block, 2, n))
        self._wraps = [(self.buffer[:, part, : self.k], self.buffer[:, part, n:]) for part in (0, 1)]
        # the partner in slot (mu, k - 1), the pair (mu - k, mu), lies at plane row K + mu - k, column k - 1
        strides = self.buffer.strides
        shape, strides = (block, 2, n, self.k), (*strides[:3], strides[3] - strides[2])
        self._partners = as_strided(self.buffer[:, :, self.k - 1 :], shape, strides, writeable=False)

    def row_sums(self) -> np.ndarray:
        """Real and imaginary row sums S_mu of each time of owned, shape (block, 2, n).

        The slots that count no pair are zeroed; the last K rows of each
        plane are copied ahead of its first, for the partner view, Re and Im
        apart (numpy copies through a temporary where regions overlap).  A
        row of signed zeros sums to +0.0.
        """
        self._doubled[...] = 0.0
        for target, source in self._wraps:
            target[...] = source
        rows = self._owned.sum(axis=3, initial=0.0, out=self._rows[0])
        rows += self._partners.sum(axis=3, initial=0.0, out=self._rows[1])
        return rows

    def points(self) -> list:
        """(g2, f, h) of each time of owned: numpy's pairwise sums over its row sums, then the scalar _g2.

        A non-finite amplitude makes f or h non-finite (|A| <= 1 keeps finite
        sums finite), so only they are checked: NumericsError.
        """
        rows = self.row_sums()
        totals = rows.sum(axis=2).tolist()
        squares = np.square(rows, out=rows).reshape(self.block, -1).sum(axis=1).tolist()
        points = []
        for (total_re, total_im), square in zip(totals, squares):
            f, h = (total_re * total_re + total_im * total_im) / self._n4, square / self._n3
            if not (math.isfinite(f) and math.isfinite(h)):
                raise NumericsError("non-finite pair sum")
            points.append((_g2(f, h), f, h))
        return points


def exact_g2(point: G2Point, n_atoms: int) -> float:
    """Exact g2 of the truncated state over n_atoms atoms, from the point's f and h.

    The phases e^{i k0.r_mu} of the phase-matched state cancel against those
    of the lowering operator, so <S+ S> = (1 + h~)/e and <S+ S+ S S> = f~/e,
    with f~ = f N/(N - 1) and h~ = h N/(N - 1) counting the N(N - 1)/2 pairs
    exactly: g2 = e f~ / (1 + h~)^2 at any N >= 2.
    """
    return _g2(point.f, point.h, n_atoms / (n_atoms - 1))


def unit_point(n_atoms: int) -> G2Point:
    """The point of all-unit amplitudes (row sums n - 1), reduced by _PairPlanes.points."""
    planes = _PairPlanes(n_atoms)
    planes.owned[0], planes.owned[1] = 1.0, 0.0
    return G2Point(*planes.points()[0])


def g2_from_amplitudes(amplitudes) -> G2Point:
    """One correlation point from complex pair amplitudes in round-robin order, shape (n, n // 2), n >= 2.

    Slot (mu, k - 1) holds the pair of mu and (mu + k) mod n
    (ensemble.round_robin_pairs); for even n the second slot of each pair
    (mu, mu + n/2) counts no pair.  Raises ValueError on any other shape or
    a non-finite value in any slot.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    n = amplitudes.shape[0] if amplitudes.ndim == 2 else 0
    if n < 2 or amplitudes.shape != (n, n // 2):
        raise ValueError(f"expected (n, n // 2) round-robin pair amplitudes with n >= 2, got shape {amplitudes.shape}")
    if not np.isfinite(amplitudes).all():
        raise ValueError("missing pair amplitude (non-finite value)")
    planes = _PairPlanes(n)
    planes.owned[0, 0], planes.owned[1, 0] = amplitudes.real, amplitudes.imag
    return G2Point(*planes.points()[0])


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
    # per trace, however often it is read

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
    """Per cycle, in schedule order, its amplitude function (times, out=None), pairs in round-robin order.

    times is a (B, 1, 1) column of free intervals.  A source writes Re A and
    Im A into (2, B, n, K) planes out, or returns a fresh complex (B, n, K)
    array.  A multichannel cycle's pair spectra are built when its source is
    drawn, so a caller that drops each source before drawing the next holds
    one cycle's spectra at a time.
    """
    if mode == "analytic":
        cubes = round_robin_cubes(positions)
        for cycle in cycles:
            yield lambda times, out=None, c3=cycle.channel.c3: analytic_pair_amplitudes(cubes, c3 * times, out)
    elif mode == "multichannel":
        r, theta = round_robin_orientations(positions)
        for q, cycle in enumerate(cycles):
            try:
                yield partial(_spectral_source, pair_spectra(r.ravel(), theta.ravel(), cycle), r.shape)
            except NumericsError as exc:
                raise NumericsError(f"cycle {q}: {exc}") from exc
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _write(out: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    out[0], out[1] = amplitudes.real, amplitudes.imag
    return out


def _spectral_source(spectra: tuple, shape: tuple, times: np.ndarray, out=None):
    """A multichannel cycle's amplitudes of every slot of the (n, K) shape, one spectral_amplitudes call per time."""
    amplitudes = np.stack([spectral_amplitudes(spectra, t) for t in times.ravel()]).reshape(len(times), *shape)
    return amplitudes if out is None else _write(out, amplitudes)


def block_points(n: int, grid: np.ndarray, evaluator) -> np.ndarray:
    """The (3, T) points of one realization of n atoms over grid, B = max(1, BLOCK_SLOTS // (n K)) times per block.

    evaluator(B) allocates the buffers of B times and returns evaluate, which
    maps a block's (b, 1, 1) column of times, b <= B, to b 3-tuples.
    """
    block = max(1, BLOCK_SLOTS // (n * (n // 2)))
    evaluate = evaluator(min(block, len(grid)))
    out, column = np.empty((len(grid), 3)), grid[:, None, None]
    for start in range(0, len(grid), block):
        out[start : start + block] = evaluate(column[start : start + block])
    return out.T


def _g2_block(fill, planes: _PairPlanes, times: np.ndarray) -> list:
    if len(times) < planes.block:  # the short last block, on the first times of the buffer
        planes = _PairPlanes(planes.n, len(times), planes.buffer[: len(times)])
    fill(times, planes.owned)
    return planes.points()


def _realization_points(positions: np.ndarray, cycles, grid, mode: str) -> np.ndarray:
    """g2, f and h of each point of one realization, shape (3, T), through block_points.

    With a grid, each grid time replaces the free interval of every cycle.
    With grid None, the times are the cycles' own free intervals and point q
    the product of cycles 0..q; each cycle's source is drawn when its point
    is due and dropped once evaluated.
    """
    sources = _cycle_sources(positions, cycles, mode)
    if grid is None:
        grid = np.array([cycle.delta_t for cycle in cycles])
        per_cycle = map(lambda source, t: source(t[None]), sources, grid[:, None, None])
        products = itertools.accumulate(per_cycle, operator.mul)
        fill = lambda times, out: _write(out, np.concatenate([next(products) for _ in times]))
    elif len(cycles) == 1:
        (fill,) = sources
    else:
        first, *rest = sources
        fill = lambda times, out: _write(out, reduce(operator.imul, (s(times) for s in rest), first(times)))
    n = len(positions)
    return block_points(n, grid, lambda size: partial(_g2_block, fill, _PairPlanes(n, size)))


def _trace_single_realization(args) -> tuple[int, np.ndarray]:
    """The seed and the (3, T) points of one realization: derive its seed, sample its positions, evaluate.

    args is (ensemble, points, params, index), the index last; points is
    called as points(positions, *params).  A NumericsError is tagged with
    the realization index and seed.
    """
    ensemble, points, params, index = args
    seed = realization_seed(ensemble.seed, index)
    positions = sample_positions(replace(ensemble, seed=seed))
    try:
        with np.errstate(all="ignore"):  # an overflowing phase is reported as the NumericsError below
            return seed, points(positions, *params)
    except NumericsError as exc:
        raise NumericsError(f"realization {index} (seed {seed}): {exc}") from exc


def _trace_realizations(args) -> tuple[list, np.ndarray]:
    """The seeds and the (3, stop - start, T) slab of realizations start..stop - 1, one _trace_single_realization each.

    args is (ensemble, points, params, start, stop).
    """
    ensemble, points, params, start, stop = args
    slab, seeds = None, []
    for index in range(start, stop):
        seed, result = _trace_single_realization((ensemble, points, params, index))
        if slab is None:
            slab = np.empty((3, stop - start, result.shape[1]))
        slab[:, index - start] = result
        seeds.append(seed)
    return seeds, slab


def run_realizations(points, ensemble: EnsembleSpec, params: tuple, realizations: int, pool=None):
    """The three (R, T) stacks of points(positions, *params) over the realizations, and their seeds.

    points, a module-level function, returns a (3, T) array.  One
    _trace_realizations task runs [0, R) in the calling process (pool None),
    its slab the stack; or pool.map gets m = min(R, RANGES_PER_WORKER *
    workers) ranges, bounds R i // m, and each slab is copied into one
    (3, R, T) stack in index order.  The bytes do not depend on the worker
    count or the range length.  A failed realization cancels the queued
    ranges; ranges already running, at most 1/RANGES_PER_WORKER of a
    worker's share of the run, finish before pool.shutdown() returns.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    ranges = 1 if pool is None else min(realizations, RANGES_PER_WORKER * pool._max_workers)
    bounds = [realizations * i // ranges for i in range(ranges + 1)]
    tasks = [(ensemble, points, params, start, stop) for start, stop in itertools.pairwise(bounds)]
    stack, seeds = None, []
    for start, (range_seeds, slab) in zip(bounds, (map if pool is None else pool.map)(_trace_realizations, tasks)):
        if stack is None:  # one range's slab is the stack: numpy assigns an array to itself as a no-op
            stack = slab if ranges == 1 else np.empty((3, realizations, slab.shape[2]))
        stack[:, start : start + len(range_seeds)] = slab
        seeds += range_seeds
    return tuple(stack), tuple(seeds)


def checked_time_grid(grid) -> np.ndarray:
    """grid as a float array, checked to be 1-D, nonempty and to hold only finite times >= 0 (us)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"time grid must be a nonempty 1-D sequence, got shape {grid.shape}")
    bad = grid[~(np.isfinite(grid) & (grid >= 0.0))]
    if bad.size:
        raise ValueError(f"time grid must hold finite times >= 0 us, got {bad[0]}")
    return grid


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
    Raises ValueError unless the grid is 1-D, nonempty, strictly increasing
    and finite, with no time below 0.
    """
    grid = checked_time_grid(grid)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    params = (tuple(schedule.cycles), grid, mode)
    stacks, seeds = run_realizations(_realization_points, ensemble, params, realizations, pool)
    return G2Trace(grid, *stacks, seeds)


def g2_after_cycles(
    ensemble: EnsembleSpec,
    schedule,
    mode: str = "analytic",
    realizations: int = 100,
    pool=None,
) -> G2Trace:
    """Correlation after each successive cycle of a fixed schedule.

    The trace grid is the cumulative wall-clock time (schedule.wall_times:
    free intervals plus the 2pi of pulse area per cycle).  Raises ValueError
    when a cumulative time is not finite.
    """
    grid = checked_time_grid(schedule.wall_times)
    params = (tuple(schedule.cycles), None, mode)
    stacks, seeds = run_realizations(_realization_points, ensemble, params, realizations, pool)
    return G2Trace(grid, *stacks, seeds)
