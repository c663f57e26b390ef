"""Test-side references: the scalar multichannel propagator and the package's retired second paths.

The package evaluates every cycle amplitude through one batched kernel
(pairdyn.pair_spectra), which puts each pair axis in the xz plane and so drops
the axis azimuth as a gauge (Walker & Saffman, PRA 77, 032723 (2008)).  This
module keeps the azimuth and complex arithmetic, one pair and one matrix
exponential at a time, so the tests check that claim against an independent
evaluation that shares only the operators with the kernel.

It also keeps the unblocked realization loops of g2 (g2_points) and
entangle (entangle_points): one source call per cycle or mode and grid
time, which the blocks of correlation.block_points must match bit for bit.

The package's one pair order is round-robin.  g2_from_amplitudes reduces
one point of (n, n // 2) round-robin amplitudes through the package's planes
(correlation._PairPlanes), and round_robin_pairs names each slot's two
atoms.  Tests that build amplitudes in condensed order (mu < nu, row-major,
as np.triu_indices and scipy's pdist list pairs) reduce them through
g2_from_condensed, which gathers them into their round-robin slots.  The
closed-form amplitude of a scalar or an array of phases
(analytic_cycle_amplitude) and F from two modes' pair phases
(entangle_fidelity) live here too: no run of the package needs either.
"""

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from ryddephase.correlation import G2Point, _cycle_sources, _PairPlanes
from ryddephase.ensemble import round_robin_orientations
from ryddephase.pairdyn import (
    UNITARITY_TOL,
    NumericsError,
    _cycle_segments,
    _dipole_tensor,
    _half_angle_amplitude_into,
    _reduced_indices,
    _transition_indices,
    dressing_matrix,
    exchange_operators,
    single_atom_dressing,
)
from ryddephase.protocol import _fidelity_terms

HERMITICITY_TOL = 1e-12  # relative to the largest entry: h scales as C3 / R^3


class PairGeometry(NamedTuple):
    separation: float  # um
    polar_angle: float  # rad from z, in [0, pi]
    azimuth: float  # rad in the xy plane, in [0, 2 pi)


def pair_geometry(a, b) -> PairGeometry:
    """Geometry of the axis a - b: R and theta of slot (0, 0) of round_robin_orientations over [b, a]."""
    r, theta = round_robin_orientations(np.array([b, a], dtype=float))
    d = np.subtract(a, b, dtype=float)
    return PairGeometry(float(r[0, 0]), float(theta[0, 0]), float(np.mod(np.arctan2(d[1], d[0]), 2.0 * math.pi)))


def interaction_matrix(geom: PairGeometry, channel) -> np.ndarray:
    """(C3/R^3) sum_ab (delta_ab - 3 n_a n_b) X_ab over the pair basis, n the pair axis at its azimuth."""
    r, theta, phi = geom
    axis = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    h = channel.c3 / r**3 * np.tensordot(_dipole_tensor(axis), exchange_operators(channel), 2)
    err = np.max(np.abs(h - h.conj().T))
    if err > HERMITICITY_TOL * np.max(np.abs(h)):
        raise NumericsError(f"interaction part lost Hermiticity: {err:.3e}")
    return h


def propagate(h_sequence) -> np.ndarray:
    """Time-ordered product of exp(-i H_k t_k), first segment applied first, checked unitary."""
    u = None
    for h, t in h_sequence:
        if t < 0:
            raise ValueError("segment durations must be >= 0")
        w, v = np.linalg.eigh(h)
        step = (v * np.exp(-1j * w * t)) @ v.conj().T
        u = step if u is None else step @ u
    if u is None:
        raise ValueError("empty Hamiltonian sequence")
    err = np.max(np.abs(u.conj().T @ u - np.eye(len(u))))
    if err > UNITARITY_TOL:
        raise NumericsError(f"propagator unitarity drift {err:.3e} exceeds {UNITARITY_TOL}")
    return u


def cycle_amplitude_numeric(geom: PairGeometry, cycle, reduced: bool = False) -> complex:
    """<s m0, s m0| U_cycle |s m0, s m0> for one dressing cycle.

    reduced=True freezes both atoms to the populated sublevel and the one
    driven p sublevel: the two-level-per-atom model of the closed form.
    """
    spec = cycle.microwave
    h_int = interaction_matrix(geom, cycle.channel)
    h_drive = dressing_matrix(cycle.channel, spec)
    idx = _reduced_indices(cycle.channel, spec)
    if reduced:
        h_int, h_drive = h_int[np.ix_(idx, idx)], h_drive[np.ix_(idx, idx)]
    start = 0 if reduced else idx[0]  # |s m0, s m0>, first of the frozen channel
    segments = _cycle_segments(h_drive, h_int, spec.rabi, cycle.delta_t, spec.pulse_model == "instantaneous")
    return complex(propagate(segments)[start, start])


def single_excitation_survival(schedule) -> complex:
    """Amplitude for a lone excited atom to return to |s m0> through every cycle of the schedule.

    Each cycle is a full single-atom 2pi rotation, so the magnitude is 1 up
    to a frame phase; this propagates the single-atom dynamics to check it.
    """
    amp = 1.0 + 0.0j
    for cycle in schedule:
        spec = cycle.microwave
        h1 = single_atom_dressing(cycle.channel, spec)
        i_s, _ = _transition_indices(cycle.channel, spec)
        amp *= complex(propagate(_cycle_segments(h1, np.zeros_like(h1), spec.rabi, cycle.delta_t, True))[i_s, i_s])
    return amp


def entangle_points(positions, modes, grid) -> np.ndarray:
    """F, |m1| and |m2| of one realization, shape (3, T): each mode writes its own one-time planes, one time per call."""
    sources = list(_cycle_sources(positions, modes, "analytic"))
    planes = [_PairPlanes(len(positions)) for _ in sources]
    out = np.empty((3, len(grid)))
    for it, t in enumerate(grid):
        for source, mode_planes in zip(sources, planes):
            source(np.full((1, 1, 1), t), mode_planes.owned)
        out[:, it] = _fidelity_terms([mode_planes.means()[:, 0].tolist() for mode_planes in planes])
    return out


def g2_points(positions, cycles, grid, mode: str) -> np.ndarray:
    """g2, f and h of one realization, shape (3, T): one call per source and time, each point from g2_from_amplitudes."""
    sources = list(_cycle_sources(positions, cycles, mode))
    points = []
    for t in grid:
        amplitudes = functools.reduce(operator.mul, [source(np.full((1, 1, 1), t))[0] for source in sources])
        points.append(tuple(vars(g2_from_amplitudes(amplitudes)).values()))
    return np.array(points).T


def round_robin_pairs(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """The atoms (lo, hi) of every round-robin slot, lower index first, each of shape (n, n // 2).

    Slot (mu, k - 1) holds the pair of mu and (mu + k) mod n, k = 1..n // 2.
    For odd n every pair has one slot.  For even n the pair of mu and
    mu + n / 2 has two, (mu, n/2 - 1) and (mu + n/2, n/2 - 1), both listed here.
    """
    mu = np.arange(n_atoms)[:, None]
    nu = (mu + np.arange(1, n_atoms // 2 + 1)) % n_atoms
    return np.minimum(mu, nu), np.maximum(mu, nu)


def g2_from_amplitudes(amplitudes) -> G2Point:
    """One correlation point from complex pair amplitudes in round-robin order, shape (n, n // 2), n >= 2.

    Slot (mu, k - 1) holds the pair of mu and (mu + k) mod n
    (round_robin_pairs); for even n the second slot of each pair
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


def random_pair_matrix(n: int, rng) -> np.ndarray:
    """An (n, n) draw of magnitudes in [0, 1) times phases in [0, 2 pi), in that order; each pair reads its mu < nu value."""
    mag = rng.uniform(0.0, 1.0, size=(n, n))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(n, n))
    return mag * np.exp(1j * phase)


def round_robin_of_condensed(condensed, n: int) -> np.ndarray:
    """Condensed (mu < nu, row-major) pair amplitudes of n atoms in their round-robin slots, shape (n, n // 2)."""
    full = np.zeros((n, n), dtype=complex)
    full[np.triu_indices(n, 1)] = condensed
    return full[round_robin_pairs(n)]


def g2_from_condensed(condensed, n_atoms: int):
    """correlation.g2_from_amplitudes of condensed (mu < nu, row-major) pair amplitudes of n_atoms >= 2 atoms."""
    if n_atoms < 2:
        raise ValueError(f"n_atoms must be at least 2, got {n_atoms}")
    amplitudes = np.asarray(condensed, dtype=complex)
    npairs = n_atoms * (n_atoms - 1) // 2
    if amplitudes.shape != (npairs,):
        raise ValueError(
            f"expected {npairs} condensed pair amplitudes for {n_atoms} atoms, got shape {amplitudes.shape}"
        )
    return g2_from_amplitudes(round_robin_of_condensed(amplitudes, n_atoms))


def analytic_cycle_amplitude(phi):
    """Closed-form cycle survival amplitude (1 + e^{i phi}) / 2, through the package's one home of the formula.

    Evaluated as (1 + i t) / (1 + t^2) with t = tan(phi / 2), the same
    number as (1 + cos phi) / 2 + i sin(phi) / 2.  Accepts scalars or arrays;
    a scalar phase gives a scalar amplitude.
    """
    half_phase = np.array(phi, dtype=float)
    half_phase *= 0.5
    out = np.empty(half_phase.shape, dtype=complex)
    _half_angle_amplitude_into(half_phase, out.real, out.imag)
    return out if out.ndim else out[()]


def entangle_fidelity(phi_prime, phi) -> float:
    """Projection fidelity onto the phase-matched two-mode target state, from the two modes' pair phases.

    With pair coherences m1 = <e^{i phi'}> and m2 = <e^{i phi}> over pairs,
    the cross terms carry weight |m1|^2 + |m2|^2 relative to the two target
    components, giving F = 2 / (2 + |m1|^2 + |m2|^2): 1/2 with no dephasing,
    approaching 1 when both coherences average to zero.  Raises ValueError
    unless both phase sequences are nonempty, of one shape and finite.
    """
    phi_prime = np.asarray(phi_prime, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if phi_prime.size == 0 or phi.size == 0:
        raise ValueError("entangle_fidelity needs a nonempty pair set")
    if phi_prime.shape != phi.shape:
        raise ValueError("phase sequences must cover the same pair set")
    if not (np.isfinite(phi_prime).all() and np.isfinite(phi).all()):
        raise ValueError("entangle_fidelity needs finite phases")
    amplitudes = analytic_cycle_amplitude(np.stack([phi_prime.ravel(), phi.ravel()]))
    means = np.stack([amplitudes.real, amplitudes.imag], axis=1).sum(axis=2) / phi.size
    return _fidelity_terms(means.tolist())[0]
