"""Frozen-gas atom configurations and pair geometry extraction.

Positions are sampled i.i.d. uniform in a cube into a read-only (N, 3)
array, the input of every pair function; all time dependence in the
simulation lives in the internal dynamics, never in the geometry.  Pairs
have one order, round-robin: atom mu owns the slots (mu, k - 1), the pairs
(mu, (mu + k) mod n), k = 1..n // 2, with axis partner - self; distances and
orientations derive from round_robin_displacements.  Condensed order
(mu < nu, row-major; pair_index_arrays, round_robin_pairs) only reads
amplitudes given as input.  The random stream is PCG64 (numpy's default bit
generator), seeded directly with the 64-bit ensemble seed, so configurations
are bit-reproducible across runs and platforms.
"""

import math
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


@dataclass(frozen=True)
class PairGeometry:
    """Separation and interatomic-axis orientation of one atom pair.

    polar_angle is measured from the quantization (z) axis; azimuth is the
    axis azimuth in the xy plane.
    """

    separation: float  # um
    polar_angle: float  # rad, in [0, pi]
    azimuth: float  # rad, in [0, 2 pi)


SAMPLE_BLOCK = 256  # candidates drawn per block once the first n have been screened


def _too_close(a: np.ndarray, b: np.ndarray, eps2: float) -> np.ndarray:
    """(len(a), len(b)) mask of point pairs whose squared distance is below eps2.

    The squares add as (dx^2 + dy^2) + dz^2, the order np.sum takes over a
    row of three, so the test is the one sequential rejection makes.
    """
    d2 = np.zeros((len(a), len(b)))
    for k in range(3):
        d = np.subtract.outer(a[:, k], b[:, k])
        d *= d
        d2 += d
    return d2 < eps2


def _accepted_in_order(candidates: np.ndarray, placed: np.ndarray, eps2: float, need: int) -> np.ndarray:
    """Rows of candidates that sequential rejection would accept after placed, at most need.

    A candidate is accepted when it keeps eps from every placed point and
    from every candidate accepted before it.  Only a candidate close to
    another survivor of the placed points can be turned away by an earlier
    one, so only those are decided one by one; in a dilute cloud there are
    none.
    """
    survivors = np.flatnonzero(~_too_close(candidates, placed, eps2).any(axis=1))
    close = _too_close(candidates[survivors], candidates[survivors], eps2)
    np.fill_diagonal(close, False)
    keep = np.ones(len(survivors), dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):
        keep[i] = not (close[i, :i] & keep[:i]).any()
    return survivors[keep][:need]


def sample_positions(spec: EnsembleSpec) -> np.ndarray:
    """Read-only (N, 3) positions (um), uniform in the cube, none closer than min_separation.

    The result is that of sequential rejection (one draw of 3 coordinates per
    candidate, accepted if it keeps min_separation from every atom placed so
    far), so the stream is deterministic for a given seed.  The candidates are
    screened in blocks: the first n draws together, which in a dilute cloud
    all pass, then SAMPLE_BLOCK at a time.  PCG64 yields the same numbers
    whatever the block size.  Raises PackingError when placement stalls
    (density too high for the requested minimum separation).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, eps = spec.n_atoms, spec.min_separation
    eps2 = eps * eps
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
        accepted = _accepted_in_order(candidates, points[:placed], eps2, n - placed)
        points[placed : placed + len(accepted)] = candidates[accepted]
        placed += len(accepted)
        block = SAMPLE_BLOCK
    points.flags.writeable = False
    return points


def pair_geometry(a, b) -> PairGeometry:
    """Geometry of the pair (a, b): R = |a - b|, orientation of a - b.

    R and theta are slot (0, 0) of round_robin_orientations over [b, a], axis
    a - b: the bits any pair has in its round-robin slot.
    """
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    r, theta = round_robin_orientations(np.array([b, a], dtype=float))
    return PairGeometry(float(r[0, 0]), float(theta[0, 0]), float(np.mod(np.arctan2(d[1], d[0]), 2.0 * math.pi)))


def pair_index_arrays(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, nu) index arrays matching the condensed distance ordering."""
    return np.triu_indices(n_atoms, k=1)


def round_robin_pairs(n_atoms: int) -> np.ndarray:
    """Condensed index of every round-robin slot, shape (n, n // 2).

    Slot (mu, k - 1) holds the pair of mu and (mu + k) mod n, k = 1..n // 2.
    For odd n every pair has one slot.  For even n the pair of mu and
    mu + n / 2 has two, (mu, n/2 - 1) and (mu + n/2, n/2 - 1), both listed here.
    """
    k = n_atoms // 2
    mu = np.arange(n_atoms)[:, None]
    nu = (mu + np.arange(1, k + 1)) % n_atoms
    lo, hi = np.minimum(mu, nu), np.maximum(mu, nu)
    return lo * n_atoms - lo * (lo + 1) // 2 + (hi - lo - 1)


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
    """Pair distances in round-robin order (round_robin_pairs), shape (n, n // 2).

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
