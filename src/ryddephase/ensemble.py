"""Frozen-gas atom configurations and pair geometry extraction.

Positions are sampled i.i.d. uniform in a cube into a read-only (N, 3)
array, the input of every pair function; all time dependence in the
simulation lives in the internal dynamics, never in the geometry.  The
sampler's minimum-separation screen is a sorted-window neighbour list on x
(Allen & Tildesley, Computer Simulation of Liquids, ch. 5), so it holds no
N x N array.  Pairs
have one order, round-robin: atom mu owns the slots (mu, k - 1), the pairs
(mu, (mu + k) mod n), k = 1..n // 2, with axis partner - self; distances and
orientations (R and the polar angle, never the azimuth, a gauge of the
multichannel kernel: pairdyn) derive from round_robin_displacements.  The
random stream is PCG64 (numpy's default bit generator), seeded directly with
the 64-bit ensemble seed, so configurations are bit-reproducible across runs
and platforms.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_MIN_SEPARATION = 0.1  # um; guards 1/R^3 against float blowup, not a physics cutoff


class PackingError(RuntimeError):
    """Rejection sampling stalled: the ensemble is too dense for its minimum separation."""


@dataclass(frozen=True)
class EnsembleSpec:
    n_atoms: int
    box_side: float  # um
    seed: int
    min_separation: float = DEFAULT_MIN_SEPARATION

    def __post_init__(self):
        if self.n_atoms < 2:
            raise ValueError(f"need at least 2 atoms, got {self.n_atoms}")
        if not self.box_side > 0:
            raise ValueError(f"box_side must be positive, got {self.box_side}")
        if not self.min_separation > 0:
            raise ValueError(f"min_separation must be positive, got {self.min_separation}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit an unsigned 64-bit integer")


SAMPLE_BLOCK = 256  # candidates drawn per block once the first n have been screened


def _close_pairs(points: np.ndarray, eps: float, others=None) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair points[i], others[j] whose squared distance is below eps^2.

    With others None, the pairs i != j of points, each once.  Sorted-window
    screen (a neighbour list on one axis): others are sorted on x, and each
    point x is tested only against those in [x - eps, x + eps], both ends
    rounded.  The squares add as (dx^2 + dy^2) + dz^2, the order np.sum takes
    over a row of three, so the test is the one sequential rejection makes,
    and a pair it flags has a rounded dx^2 below eps^2, so |dx| < eps before
    rounding: rounding is monotone, so that pair lies in the window.  Memory
    goes with the number of pairs in the windows.
    """
    same = others is None
    others = points if same else others
    order = np.argsort(others[:, 0], kind="stable")
    x = others[order, 0]
    hi = np.searchsorted(x, points[:, 0] + eps, side="right")
    if same:  # point order[r] against the ranks after r in its window
        owners, lo, hi = order, np.arange(1, len(x) + 1), hi[order]
    else:
        owners, lo = np.arange(len(points)), np.searchsorted(x, points[:, 0] - eps, side="left")
    counts = hi - lo
    i = np.repeat(owners, counts)
    j = order[np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    d = points[i] - others[j]
    d *= d
    close = (d[:, 0] + d[:, 1]) + d[:, 2] < eps * eps
    return i[close], j[close]


def _accepted_in_order(candidates: np.ndarray, placed: np.ndarray, eps: float, need: int) -> np.ndarray:
    """Rows of candidates that sequential rejection would accept after placed, at most need.

    A candidate is accepted when it keeps eps from every placed point and
    from every candidate accepted before it.  Only a candidate close to an
    earlier survivor of the placed points can be turned away, so only those
    are decided one by one, in index order; in a dilute cloud there are none.
    """
    survivors = np.arange(len(candidates))
    if len(placed):  # the first block has none
        survivors = np.delete(survivors, _close_pairs(placed, eps, candidates)[1])
    a, b = _close_pairs(candidates[survivors], eps)
    if not len(a):  # the usual case in a dilute cloud
        return survivors[:need]
    earlier, later = np.minimum(a, b), np.maximum(a, b)
    by_later = np.argsort(later, kind="stable")
    earlier, later = earlier[by_later], later[by_later]
    keep = np.ones(len(survivors), dtype=bool)
    starts = np.flatnonzero(np.diff(later, prepend=-1))
    for q, partners in zip(later[starts], np.split(earlier, starts[1:])):
        keep[q] = not keep[partners].any()
    return survivors[keep][:need]


def sample_positions(spec: EnsembleSpec) -> np.ndarray:
    """Read-only (N, 3) positions (um), uniform in the cube, none closer than min_separation.

    The result is that of sequential rejection (one draw of 3 coordinates per
    candidate, accepted if it keeps min_separation from every atom placed so
    far), so the stream is deterministic for a given seed.  The candidates are
    screened in blocks: the first n draws together, which in a dilute cloud
    all pass, then SAMPLE_BLOCK at a time.  PCG64 yields the same numbers
    whatever the block size.  Each block's close pairs come from the
    sorted-window screen (_close_pairs), in memory that grows with the pairs
    whose x lie within eps, about n^2 eps / box_side: 1.2 MB at n = 4000 in
    a 142 um box, 13 times the result.  Raises PackingError when placement
    stalls (density too high for the requested minimum separation).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, eps = spec.n_atoms, spec.min_separation
    max_attempts = 1000 * n
    points = np.empty((n, 3))
    placed = 0
    attempts = 0
    block = n
    while placed < n:
        if attempts >= max_attempts:
            raise PackingError(
                f"could not place {n} atoms with min separation {eps} um in a "
                f"{spec.box_side} um cube after {attempts} draws "
                f"({placed} placed); lower the density or min_separation"
            )
        k = min(block, max_attempts - attempts)
        candidates = rng.uniform(0.0, spec.box_side, size=(k, 3))
        attempts += k
        accepted = _accepted_in_order(candidates, points[:placed], eps, n - placed)
        points[placed : placed + len(accepted)] = candidates[accepted]
        placed += len(accepted)
        block = SAMPLE_BLOCK
    points.flags.writeable = False
    return points


def round_robin_displacements(positions: np.ndarray, out=None):
    """Yield per axis x, y, z the (n, n // 2) plane of positions[(mu + k) % n] - positions[mu].

    Each plane is written into out when given.  Atom mu's partners are a
    sliding window over the positions followed by their first n // 2 rows
    again, so no index array or gathered copy is built.
    """
    n = len(positions)
    k = n // 2
    wrapped = np.concatenate([positions, positions[:k]]).T.copy()  # (3, n + k)
    for x in wrapped:
        yield np.subtract(sliding_window_view(x, k + 1)[:n, 1:], x[:n, None], out=out)


def round_robin_separations(positions: np.ndarray) -> np.ndarray:
    """Pair distances in round-robin order, shape (n, n // 2): slot (mu, k - 1) holds mu and (mu + k) mod n.

    The squares add as (dx^2 + dy^2) + dz^2, as in scipy's pdist, so each
    slot has its pair's pdist bits.  Holds the result and one plane more.
    """
    n = len(positions)
    axes = round_robin_displacements(positions, np.empty((n, n // 2)))
    total = np.square(next(axes))
    for d in axes:
        total += np.multiply(d, d, out=d)
    return np.sqrt(total, out=total)


def round_robin_orientations(positions: np.ndarray):
    """(R, polar angle from z) of every round-robin slot, each (n, n // 2); no azimuth (pairdyn)."""
    r = round_robin_separations(positions)
    if np.any(r < 1e-12):
        raise ValueError("coincident points have no pair geometry")
    *_, z = round_robin_displacements(positions, np.empty_like(r))  # every plane in one buffer, z last
    return r, np.arccos(np.clip(np.divide(z, r, out=z), -1.0, 1.0, out=z), out=z)
