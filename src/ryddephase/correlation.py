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
(doubled_slots).  Re A and Im A fill rows K.. of two real planes of
K + N rows per time (_PairPlanes), and the last K rows are copied ahead of
the first.  Then the partners of mu, the pairs (mu - k, mu), sit at row
K + mu - k, column k - 1 of a plane: one fixed view with strides (K, 1 - K).
S_mu adds the sum over its own row and the sum over that view, each started
from +0.0, and f and h come from numpy's pairwise sums over the N row sums.
Entangle reads each time's mean over the pairs, one sum over its N K slots.

Every grid runs through one block loop, block_points: B = max(1,
BLOCK_SLOTS // (N K)) grid times per block, as a (B, 1, 1) column of times
to each cycle's source (analytic over R^3 computed once, multichannel over
the cycle's spectra of every slot).  A lone cycle's source writes the
block's planes; the cycles of a longer schedule multiply as complex numbers
and their product is copied in.  block_points allocates the planes once per
realization, so memory is O(N^2 + BLOCK_SLOTS), or O(N^2 d) over a pair
basis of dimension d, whatever the grid length T; realization_bytes bounds
it, for the CLI to refuse at plan time what physical memory cannot hold.
Each time's amplitudes and sums have the bits of a block of one time, in
orders fixed by N, so output does not depend on the block length or the
worker count.

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

from .atomdata import single_atom_dimension
from .ensemble import (
    EnsembleSpec,
    round_robin_orientations,
    round_robin_separations,
    sample_positions,
)
from .pairdyn import PAIR_CHUNK, NumericsError, analytic_pair_amplitudes, pair_spectra, spectral_amplitudes

G2_ZERO = math.e / 4.0
G2_ASYMPTOTE = G2_ZERO * 16.0 / 25.0
RANGES_PER_WORKER = 16  # contiguous realization ranges per pool worker, each one task (run_realizations)
# pair slots per block of B grid times, n K each (block_points).  One N = 100 entangle realization of a 51-point
# grid took 3.50, 2.86, 2.55, 2.38, 2.44 and 2.80 ms at B = 1, 2, 4, 8, 16 and 52 (medians of 20 runs, one
# core).  B = 4 keeps most of the gain in half the buffer of B = 8, 480 kB of planes at N = 100; B = 8 held
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


def round_robin_cubes(positions: np.ndarray) -> np.ndarray:
    """R^3 of every round-robin slot, shape (n, n // 2), computed once per realization."""
    cubes = round_robin_separations(positions)
    cubes **= 3
    return cubes


class _PairPlanes:
    """Re A and Im A of every pair of n atoms at block times, in round-robin order; their g2 points and pair means.

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

    def means(self) -> np.ndarray:
        """Re and Im of the mean over the n (n - 1) / 2 pairs of each time of owned, shape (2, block).

        Each time's (n, K) plane, its slots that count no pair zeroed, is one
        contiguous pairwise sum, so the block length changes no bit.  A
        non-finite mean: NumericsError.
        """
        self._doubled[...] = 0.0
        means = self.owned.reshape(2, self.block, -1).sum(axis=2) / (self.n * (self.n - 1) // 2)
        if not np.isfinite(means).all():
            raise NumericsError("non-finite pair sum")
        return means

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
    exactly: g2 = e f~ / (1 + h~)^2 at any N >= 2.  Raises ValueError below 2.
    """
    if n_atoms < 2:
        raise ValueError(f"exact_g2 needs n_atoms >= 2, got {n_atoms}")
    return _g2(point.f, point.h, n_atoms / (n_atoms - 1))


def unit_point(n_atoms: int) -> G2Point:
    """The point of all-unit amplitudes, in closed form.

    Every row sum is n - 1 (Im 0), so the sums over the row sums are exact
    integers, and f and h take the float steps of _PairPlanes.points on them.
    """
    t = float(n_atoms * (n_atoms - 1))
    f = (t * t + 0.0) / float(n_atoms) ** 4
    h = float(n_atoms * (n_atoms - 1) ** 2) / float(n_atoms) ** 3
    return G2Point(_g2(f, h), f, h)


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


def _block_length(n: int, points: int) -> int:
    """Grid times per block for n atoms: B = max(1, BLOCK_SLOTS // (n K)), at most the grid's points."""
    return min(max(1, BLOCK_SLOTS // (n * (n // 2))), points)


def block_points(n: int, grid: np.ndarray, reduce_block) -> np.ndarray:
    """The (3, T) points of one realization of n atoms over grid, _block_length(n, T) times per block.

    reduce_block(planes, times) maps a block's (b, 1, 1) column of times to
    b 3-tuples, on _PairPlanes of b times: one buffer of a block's times.
    """
    block = _block_length(n, len(grid))
    planes = _PairPlanes(n, block)
    out, column = np.empty((len(grid), 3)), grid[:, None, None]
    for start in range(0, len(grid), block):
        times = column[start : start + block]
        if len(times) < planes.block:  # the short last block, on the first times of the buffer
            planes = _PairPlanes(n, len(times), planes.buffer[: len(times)])
        out[start : start + block] = reduce_block(planes, times)
    return out.T


def _g2_block(fill, planes: _PairPlanes, times: np.ndarray) -> list:
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
    return block_points(len(positions), grid, partial(_g2_block, fill))


def realization_bytes(n: int, mode: str, cycles, points: int | None) -> int:
    """An upper bound on the bytes _realization_points holds at once for n atoms, the cycles and points grid times.

    points None runs the cycles' own free intervals.  With K = n // 2, P = n K
    slots and b = _block_length grid times per block, it counts:
    - the planes, 16 b (P + K^2), and R^3 (8 P) or multichannel R and theta (16 P);
    - unless one analytic cycle writes the planes in place over a grid, at
      most four complex (b, n, K) amplitude arrays alive at once, 64 b P;
    - multichannel, 40 d P bytes of pair_spectra over each cycle's pair basis
      of dimension d, for every cycle alive at once (all of a grid's, one at
      a time with points None), and pair_spectra's working set, at most nine
      (PAIR_CHUNK, d, d) float64 stacks;
    - 1 MB of numpy's ufunc buffers and small arrays.
    protocol._entangle_points holds what one analytic cycle holds: each mode
    writes the planes in turn.
    """
    k = n // 2
    slots, block = n * k, _block_length(n, len(cycles) if points is None else points)
    held = 16 * block * (slots + k * k) + 2**20
    if not (mode == "analytic" and len(cycles) == 1 and points is not None):
        held += 64 * block * slots
    if mode == "analytic":
        return held + 8 * slots
    dims = [single_atom_dimension(cycle.channel) ** 2 for cycle in cycles]
    alive = max(dims) if points is None else sum(dims)
    return held + 16 * slots + 40 * alive * slots + 72 * PAIR_CHUNK * max(dims) ** 2


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
    cycles,
    grid=None,
    mode: str = "analytic",
    realizations: int = 100,
    pool=None,
) -> G2Trace:
    """Correlation trace of a schedule's cycles, versus their free interval or after each cycle.

    With a grid, each grid time is applied as the free interval of every
    cycle (for a single cycle this sweeps the interval directly).  With grid
    None, point q follows cycles 0..q at their own free intervals, and the
    trace grid is the cumulative wall-clock time: the running sum of
    delta_t + 2pi/Omega in schedule order.  Each realization resamples atom
    positions from a seed derived from the ensemble seed and the realization
    index; the cycles stay fixed.  Raises ValueError unless the grid is 1-D,
    nonempty, strictly increasing and finite, with no time below 0, or, with
    grid None, when a cumulative time is not finite.
    """
    cycles = tuple(cycles)
    if grid is None:
        trace_grid = checked_time_grid(list(itertools.accumulate(c.duration for c in cycles)))
    else:
        grid = trace_grid = checked_time_grid(grid)
        if np.any(np.diff(grid) <= 0):
            raise ValueError("time grid must be strictly increasing")
    stacks, seeds = run_realizations(_realization_points, ensemble, (cycles, grid, mode), realizations, pool)
    return G2Trace(trace_grid, *stacks, seeds)
