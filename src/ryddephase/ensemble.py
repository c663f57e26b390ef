"""Frozen-gas atom configurations and pair geometry extraction.

Positions are sampled i.i.d. uniform in a cube and are immutable afterwards;
all time dependence in the simulation lives in the internal dynamics, never
in the geometry.  The random stream is PCG64 (numpy's default bit generator),
seeded directly with the 64-bit ensemble seed, so configurations are
bit-reproducible across runs and platforms.
"""

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True, eq=False)
class EnsembleGeometry:
    """N sampled positions (um) in [0, L]^3 with pairwise distances >= min_separation."""

    positions: np.ndarray  # (N, 3)
    box_side: float
    min_separation: float

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]


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


def sample_positions(spec: EnsembleSpec) -> EnsembleGeometry:
    """Sample N atoms uniform in the cube, rejecting closer than min_separation.

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
    return EnsembleGeometry(points, spec.box_side, eps)


def _orientation_rows(d: np.ndarray):
    """(R, polar angle from z, azimuth in [0, 2 pi)) of each displacement row of d, shape (n, 3)."""
    r = np.linalg.norm(d, axis=1)
    if np.any(r < 1e-12):
        raise ValueError("coincident points have no pair geometry")
    theta = np.arccos(np.clip(d[:, 2] / r, -1.0, 1.0))
    phi = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * math.pi)
    return r, theta, phi


def pair_geometry(a, b) -> PairGeometry:
    """Geometry of the pair (a, b): R = |a - b|, orientation of a - b."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return PairGeometry(*(float(x[0]) for x in _orientation_rows(d[None, :])))


def pair_separations(geometry: EnsembleGeometry) -> np.ndarray:
    """Condensed pairwise distances in canonical (mu < nu, row-major) order.

    The squares add in axis order x, y, z, as scipy's pdist does, so the
    distances are the same bits without importing scipy.
    """
    mu, nu = pair_index_arrays(geometry.n_atoms)
    x = np.ascontiguousarray(geometry.positions.T)
    d0, d1, d2 = np.take(x, mu, axis=1) - np.take(x, nu, axis=1)
    return np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)


def pair_index_arrays(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, nu) index arrays matching the condensed distance ordering."""
    mu, nu = np.triu_indices(n_atoms, k=1)
    return mu, nu


def pair_orientations(geometry: EnsembleGeometry):
    """(R, theta, phi) arrays of every mu < nu pair, in condensed order."""
    mu, nu = pair_index_arrays(geometry.n_atoms)
    return _orientation_rows(geometry.positions[mu] - geometry.positions[nu])
