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
matrix, in the simulation's one pair order, round-robin: with K = N // 2,
atom mu owns the pairs (mu, mu + k mod N), k = 1..K, one row of K slots.
For odd N that is every pair once; for even N the second slot of each pair
(mu, mu + N/2) is zeroed (zero_doubled_slots).  Re A and Im A fill rows K..
of two real planes of K + N rows (_PairPlanes), and the last K rows are
copied ahead of the first.  Then the partners of mu, the pairs (mu - k, mu),
sit at row K + mu - k, column k - 1 of a plane: one fixed view with strides
(K, 1 - K).  S_mu adds the sum over its own row and the sum over that view,
each started from +0.0, and math.fsum combines the N row sums.  There is no
gather, and the order depends on N alone, never on how realizations were
spread over worker processes, so traces are byte-identical for any worker
count.

Each mode supplies one function (t, out) -> amplitudes per cycle: analytic
over R^3 computed once, multichannel over the cycle's spectra of every slot.
With out the kernel writes the planes itself; without, it returns a fresh
complex (N, K) array.  One rule combines the cycles: their amplitudes
multiply, as complex numbers.  A realization allocates its planes once and
streams one point at a time, in O(N^2) memory, or O(N^2 d) over a pair
basis of dimension d, whatever the grid length T.  Only g2_from_amplitudes
and brute_force_g2 take condensed (mu < nu, row-major) input.
run_realizations is the one realization loop (seed, sample, evaluate, stack
in index order, serially or on a process pool); the entanglement trace in
protocol runs through it as well.
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
    pair_index_arrays,
    round_robin_orientations,
    round_robin_pairs,
    round_robin_separations,
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


def zero_doubled_slots(planes: np.ndarray) -> None:
    """Zero the slots of round-robin planes (..., n, K) that count no pair.

    For even n these are the second slots (mu + K, K - 1) of the pairs (mu, mu + n/2).
    """
    n = planes.shape[-2]
    if n % 2 == 0:
        planes[..., n // 2 :, -1] = 0.0


def round_robin_cubes(positions: np.ndarray) -> np.ndarray:
    """R^3 of every round-robin slot, shape (n, n // 2), computed once per realization."""
    cubes = round_robin_separations(positions)
    cubes **= 3
    return cubes


class _PairPlanes:
    """Re A and Im A of every pair of n atoms in round-robin order, and the point they reduce to.

    owned, a (2, n, K) view with K = n // 2, holds in [0] and [1] the real
    and imaginary amplitude of slot (mu, k - 1), the pair (mu, mu + k mod n).
    Every slot is written before each point (module docstring).
    """

    def __init__(self, n: int):
        self.n, self.k = n, n // 2
        self._planes = np.empty((2, self.k + n, self.k))
        self.owned = self._planes[:, self.k :]
        # the partner in slot (mu, k - 1), the pair (mu - k, mu), lies at plane row K + mu - k, column k - 1
        strides = self._planes.strides
        self._partners = as_strided(
            self._planes[:, self.k - 1 :],
            (2, n, self.k),
            (strides[0], strides[1], strides[2] - strides[1]),
            writeable=False,
        )

    def row_sums(self) -> np.ndarray:
        """Real and imaginary row sums S_mu of owned, shape (2, n), checked finite.

        The slots that count no pair are zeroed first; then the last K rows
        are copied ahead of the first, for the partner view.  A row of
        signed zeros sums to +0.0.  A non-finite amplitude makes its row sums
        non-finite (|A| <= 1 keeps finite sums finite), so only the row sums
        are checked.
        """
        zero_doubled_slots(self.owned)
        self._planes[:, : self.k] = self._planes[:, self.n :]
        rows = self.owned.sum(axis=2, initial=0.0)
        rows += self._partners.sum(axis=2, initial=0.0)
        if not np.isfinite(rows).all():
            raise ValueError("missing pair amplitude (non-finite value)")
        return rows

    def point(self, amplitudes=None) -> tuple[float, float, float]:
        """(g2, f, h) of owned; math.fsum combines the n row sums.

        Complex (n, K) amplitudes in round-robin order are copied into owned
        first; with None, owned holds the point as written.
        """
        if amplitudes is not None:
            self.owned[0], self.owned[1] = amplitudes.real, amplitudes.imag
        row_re, row_im = self.row_sums()
        n = float(self.n)
        total_re, total_im = math.fsum(row_re.tolist()), math.fsum(row_im.tolist())
        f = (total_re * total_re + total_im * total_im) / n**4
        h = math.fsum((row_re * row_re + row_im * row_im).tolist()) / n**3
        return 4.0 * G2_ZERO * f / (1.0 + h) ** 2, f, h


def _condensed(amplitudes, n_atoms: int) -> np.ndarray:
    """amplitudes as an array, checked to hold one value per mu < nu pair of n_atoms >= 2 atoms."""
    if n_atoms < 2:
        raise ValueError(f"n_atoms must be at least 2, got {n_atoms}")
    amplitudes = np.asarray(amplitudes)
    npairs = n_atoms * (n_atoms - 1) // 2
    if amplitudes.shape != (npairs,):
        raise ValueError(
            f"expected {npairs} condensed pair amplitudes for {n_atoms} atoms, got shape {amplitudes.shape}"
        )
    return amplitudes


def g2_from_amplitudes(condensed, n_atoms: int) -> G2Point:
    """One correlation point from condensed (mu < nu, row-major) pair amplitudes."""
    amplitudes = np.asarray(_condensed(condensed, n_atoms), dtype=complex)
    return G2Point(*_PairPlanes(n_atoms).point(amplitudes[round_robin_pairs(n_atoms)]))


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
    """Per cycle, in schedule order, its amplitude function (t, out=None), pairs in round-robin order.

    Called with out, a source writes Re A and Im A into the planes out;
    without, it returns a fresh complex array.  A multichannel cycle's pair
    spectra are built when its source is drawn, so a caller that drops each
    source before drawing the next holds one cycle's spectra at a time.
    """
    if mode == "analytic":
        cubes = round_robin_cubes(positions)
        for cycle in cycles:
            yield lambda t, out=None, c3=cycle.channel.c3: analytic_pair_amplitudes(cubes, c3 * t, out)
    elif mode == "multichannel":
        r, theta = round_robin_orientations(positions)
        for q, cycle in enumerate(cycles):
            try:
                yield partial(_spectral_source, pair_spectra(r.ravel(), theta.ravel(), cycle), r.shape)
            except NumericsError as exc:
                raise NumericsError(f"cycle {q}: {exc}") from exc
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _spectral_source(spectra: tuple, shape: tuple, t: float, out=None):
    """A multichannel cycle's amplitudes of every slot of the (n, K) shape at free interval t."""
    amplitudes = spectral_amplitudes(spectra, t).reshape(shape)
    if out is None:
        return amplitudes
    out[0], out[1] = amplitudes.real, amplitudes.imag
    return out


def _realization_points(positions: np.ndarray, cycles, grid, mode: str) -> list:
    """(g2, f, h) of each point of one realization, through planes allocated once.

    The cycles' amplitudes multiply as complex numbers.  With a grid, each grid
    time replaces the free interval of every cycle, and a lone cycle writes
    the planes itself.  With grid None, point q is the product of cycles
    0..q, each at its own free interval; map drops each cycle's source once
    its amplitudes are evaluated, before the next one is drawn.
    """
    planes = _PairPlanes(len(positions))
    sources = _cycle_sources(positions, cycles, mode)
    if grid is None:
        per_cycle = map(lambda source, cycle: source(cycle.delta_t), sources, cycles)
        return [planes.point(product) for product in itertools.accumulate(per_cycle, operator.mul)]
    first, *rest = sources
    if rest:
        return [planes.point(reduce(operator.imul, (source(t) for source in rest), first(t))) for t in grid]
    points = []
    for t in grid:
        first(t, planes.owned)
        points.append(planes.point())
    return points


def sample_realization(ensemble: EnsembleSpec, index: int) -> tuple[int, np.ndarray]:
    """Seed and sampled positions of realization index of the ensemble."""
    seed = realization_seed(ensemble.seed, index)
    return seed, sample_positions(replace(ensemble, seed=seed))


def _trace_single_realization(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g2, f and h of one realization: sample positions, evaluate and reduce each point."""
    ensemble, cycles, grid, mode, index = args
    seed, positions = sample_realization(ensemble, index)
    try:
        points = _realization_points(positions, cycles, grid, mode)
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
