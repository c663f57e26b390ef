"""Survival amplitude of a doubly excited pair through microwave dressing cycles.

One cycle is the sequence: pi/2 pulse, free interval delta_t with the drive
off, restoring 3pi/2 pulse.  Two routes are provided.

Analytic route (single-channel model): the pair accumulates phi = C3 * dT / R^3
during the free interval and the cycle survival amplitude is

    A(phi) = exp(i phi / 2) cos(phi / 2) = (1 + exp(i phi)) / 2.

analytic_cycle_amplitude is the one place for this closed form, shared by
the g2 drivers and the entanglement coherences.  It is evaluated from one
real tangent, A = (1 + i t) / (1 + t^2) with t = tan(phi / 2), which equals
(1 + cos phi) / 2 + i sin(phi) / 2: no complex exp, and one transcendental
per pair where cos and sin take two.  Every amplitude stays
within 1e-15 of the values built from math.cos and math.sin, whatever the
size of phi.  analytic_pair_amplitudes evaluates one cycle for many pairs,
each pair's half phase one divide (C3 * dT / 2) / R^3; a schedule's cycles
multiply in correlation, whatever the mode.

Buffer discipline.  A g2 trace evaluates one cycle per grid point on
columns of several hundred kB (44850 pairs at N = 300).  glibc serves
blocks that size from the top of the heap and gives them back to the kernel
once the free space at the top passes its trim threshold (mallopt(3),
M_TRIM_THRESHOLD, which follows the dynamic M_MMAP_THRESHOLD).  A kernel
that frees a chain of fresh temporaries per call crosses it at every grid
point, and every page of the next call faults in again: about 500 minor
faults, two thirds of the call's time.  So analytic_pair_amplitudes takes
an out array: correlation allocates one real array of Re A and Im A planes
per realization, and a lone cycle writes every point into it.  The kernel
builds the half phase in the Im plane, overwrites it with its tangent, and
writes the weight and its product with the tangent in place
(_half_angle_amplitude_into), contiguously and with no other array.  The
cycles of a longer schedule still return fresh complex arrays: they multiply
as complex numbers, and numpy rounds each part of that product as one fused
multiply-add, which separate planes cannot repeat.  R^3 comes from the caller, computed once
per realization (libm pow takes about a third of a call at N = 300).

Numeric route (multichannel): each atom spans the sublevels
[s -1/2, s +1/2, p -j, ..., p +j], found by index arithmetic
(_transition_indices).  One table of s-p dipole elements (_dipole_blocks)
builds both the drive, normalized so the populated transition carries the
full Rabi frequency, and the resonant exchange part of the dipole-dipole
operator in Cartesian form, (C3/R^3) sum_ab (delta_ab - 3 n_a n_b) X_ab for
the unit pair axis n (exchange_operators).  X_ab keeps only the
excitation-exchange blocks of d_a x d_b (one atom s -> p while the other goes
p -> s); double (de-)excitation terms are dropped as counter-rotating.  The
cycle is propagated with eigendecomposition-based exponentials of the
piecewise-constant Hamiltonians.  The amplitude depends on
R and theta, never on the azimuth phi of the pair axis (Walker & Saffman,
PRA 77, 032723 (2008)): a rotation about z by phi takes the exchange term to
its phi = 0 form and multiplies each drive coupling |p><s| by e^{i dm phi}.
That phase is conjugation by exp(i dm phi N_p), N_p the number of p
excitations: a gauge, since the exchange term conserves N_p and
|s m0, s m0> has none.  So pair_spectra puts every pair axis in the xz
plane, where all Hamiltonians are real symmetric, and diagonalizes each
pair's exchange and pulse Hamiltonians once per cycle; the scalar oracle
cycle_amplitude_numeric keeps phi and complex arithmetic.  pair_spectra
keeps three (npairs, d) arrays over the d-dimensional pair basis;
spectral_amplitudes turns them into one (npairs,) column per free interval,
so memory is O(N^2 d), whatever the number of intervals.

Conventions.  The pulse rotation on the populated transition is
R(theta) = exp(+i theta sigma_x / 2), so |s> -> (|s> + i |p>)/sqrt(2) under a
pi/2 pulse and a full 2pi cycle returns a non-interacting pair to exactly +1.
The interaction sign is fixed so that the frozen-channel analytic phase phi is
positive for positive C3.
"""

import math
from dataclasses import dataclass

import numpy as np

from .atomdata import (
    POPULATED_M,
    MicrowaveSpec,
    RydbergChannel,
    clebsch_gordan,
    single_atom_dimension,
)
from .ensemble import PairGeometry

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-12
PAIR_CHUNK = 512  # pairs per batched eigendecomposition in pair_spectra


class NumericsError(RuntimeError):
    """Propagation drifted outside its guaranteed tolerances."""


@dataclass(frozen=True)
class CycleSpec:
    """One dressing cycle: channel, free-interval length, microwave settings.

    The drive's polarization must reach a p sublevel from the populated one.
    """

    channel: RydbergChannel
    delta_t: float  # us
    microwave: MicrowaveSpec

    def __post_init__(self):
        if self.delta_t < 0:
            raise ValueError(f"delta_t must be >= 0, got {self.delta_t}")
        _transition_indices(self.channel, self.microwave)

    @property
    def duration(self) -> float:
        """Wall-clock length of the cycle including the 2pi of pulse area."""
        return self.delta_t + 2.0 * math.pi / self.microwave.rabi


def _half_angle_amplitude_into(half_phase: np.ndarray, re: np.ndarray, im: np.ndarray) -> None:
    """Write the closed-form cycle amplitude of phase = 2 half_phase into re and im.

    half_phase is overwritten with t = tan(phase / 2) and may be im itself;
    the weight w = 1 / (1 + t^2) is built in re and t * w is written to im,
    so no temporary array is created.
    """
    np.tan(half_phase, out=half_phase)
    np.multiply(half_phase, half_phase, out=re)
    re += 1.0
    np.divide(1.0, re, out=re)
    np.multiply(half_phase, re, out=im)


def analytic_cycle_amplitude(phi):
    """Closed-form cycle survival amplitude (1 + e^{i phi}) / 2.

    Evaluated as (1 + i t) / (1 + t^2) with t = tan(phi / 2), the same
    number as (1 + cos phi) / 2 + i sin(phi) / 2.  Accepts scalars or arrays;
    a scalar phase gives a scalar amplitude.
    """
    half_phase = np.array(phi, dtype=float)
    half_phase *= 0.5
    out = np.empty(half_phase.shape, dtype=complex)
    _half_angle_amplitude_into(half_phase, out.real, out.imag)
    return out if out.ndim else out[()]


# ---------------------------------------------------------------------------
# multichannel basis and operators
# ---------------------------------------------------------------------------


def _transition_indices(channel: RydbergChannel, spec: MicrowaveSpec) -> tuple[int, int]:
    """Single-atom basis indices of the populated transition (s m0, p m0+dm), m0 = POPULATED_M.

    The basis of one atom is [s -1/2, s +1/2, p -j, ..., p +j]: s m sits at
    index m + 1/2 and p m at 2 + m + j.  Raises ValueError when the drive's
    target sublevel m0 + dm lies outside the p level.
    """
    j, mp = channel.p_j, POPULATED_M + spec.delta_m
    if abs(mp) > j + 1e-9:
        raise ValueError(
            f"populated transition m={POPULATED_M} -> m={mp} is forbidden "
            f"for polarization {spec.polarization!r} and j={j}"
        )
    return round(POPULATED_M + 0.5), round(2 + mp + j)


def _dipole_blocks(channel: RydbergChannel) -> dict:
    """Raising (s -> p) blocks of the unit dipole operator, keyed by q.

    Over the single-atom basis (_transition_indices),
    up[q][p(m+q), s(m)] = <1/2 m; 1 q | j m+q>: the one place an s-p dipole
    element becomes a matrix entry.  Each lowering part is an adjoint of these.
    """
    j = channel.p_j
    dim = single_atom_dimension(channel)
    ups = {q: np.zeros((dim, dim)) for q in (-1, 0, 1)}
    for q, up in ups.items():
        for i_s, ms in enumerate((-0.5, 0.5)):
            mp = ms + q
            if abs(mp) <= j + 1e-9:
                up[round(2 + mp + j), i_s] = clebsch_gordan(0.5, ms, 1.0, float(q), j, mp)
    return ups


def exchange_operators(channel: RydbergChannel) -> np.ndarray:
    """Exchange part X_ab of d_a x d_b over the pair basis, shape (3, 3, d, d), a, b = x, y, z.

    U_a, the raising part of d_a, comes from the spherical blocks (d_x = (d_-1 - d_+1)/sqrt(2),
    d_y = i (d_-1 + d_+1)/sqrt(2), d_z = d_0) and its lowering part is U_a^dag, so
    X_ab = U_a x U_b^dag + U_a^dag x U_b is Hermitian bit for bit.  X_xy, X_yz
    and their transposes are imaginary, every other block real.
    """
    up = _dipole_blocks(channel)
    root2 = math.sqrt(2.0)
    raising = np.array([(up[-1] - up[1]) / root2, 1j * (up[-1] + up[1]) / root2, up[0]])  # U_x, U_y, U_z
    dim = raising.shape[1]
    kron = np.einsum("aik,bjl->abijkl", raising, raising.conj().swapaxes(1, 2)).reshape(3, 3, dim * dim, dim * dim)
    return kron + kron.conj().swapaxes(2, 3)


def _dipole_tensor(axes: np.ndarray) -> np.ndarray:
    """delta_ab - 3 n_a n_b for each unit pair axis n, shape (..., 3, 3)."""
    return np.eye(3) - 3.0 * axes[..., :, None] * axes[..., None, :]


def interaction_matrix(geom: PairGeometry, channel: RydbergChannel) -> np.ndarray:
    """(C3/R^3) sum_ab (delta_ab - 3 n_a n_b) X_ab over the pair basis, n the pair axis at its azimuth.

    Raises NumericsError unless Hermitian to HERMITICITY_TOL relative to its largest entry.
    """
    st = math.sin(geom.polar_angle)
    axis = np.array([st * math.cos(geom.azimuth), st * math.sin(geom.azimuth), math.cos(geom.polar_angle)])
    h = channel.c3 / geom.separation**3 * np.tensordot(_dipole_tensor(axis), exchange_operators(channel), 2)
    err = np.max(np.abs(h - h.conj().T))
    if err > HERMITICITY_TOL * np.max(np.abs(h)):
        raise NumericsError(f"interaction part lost Hermiticity: {err:.3e}")
    return h


def single_atom_dressing(channel: RydbergChannel, spec: MicrowaveSpec) -> np.ndarray:
    """-(Omega/2) (X + X^T) on one atom, X the raising block of q = dm over its populated entry.

    The populated transition so carries the full Rabi frequency; pulse areas
    are defined on it.  Raises ValueError for a forbidden drive.
    """
    i_s, i_p = _transition_indices(channel, spec)
    up = _dipole_blocks(channel)[spec.delta_m]
    x = up / up[i_p, i_s]
    return -0.5 * spec.rabi * (x + x.T)


def dressing_matrix(channel: RydbergChannel, spec: MicrowaveSpec) -> np.ndarray:
    h1 = single_atom_dressing(channel, spec)
    eye = np.eye(h1.shape[0])
    return np.kron(h1, eye) + np.kron(eye, h1)


def propagate(h_sequence) -> np.ndarray:
    """Time-ordered product of exp(-i H_k t_k), first segment applied first.

    Each segment is exponentiated exactly through its eigendecomposition;
    the result is checked against the unitarity tolerance.  An empty sequence
    raises ValueError.
    """
    u = None
    for h, t in h_sequence:
        if t < 0:
            raise ValueError("segment durations must be >= 0")
        h = np.asarray(h)
        if u is None:
            u = np.eye(h.shape[0], dtype=complex)
        w, v = np.linalg.eigh(h)
        step = (v * np.exp(-1j * w * t)) @ v.conj().T
        u = step @ u
    if u is None:
        raise ValueError("empty Hamiltonian sequence")
    err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if err > UNITARITY_TOL:
        raise NumericsError(f"propagator unitarity drift {err:.3e} exceeds {UNITARITY_TOL}")
    return u


def _reduced_indices(channel: RydbergChannel, spec: MicrowaveSpec) -> list[int]:
    """Pair-basis indices of the frozen two-level (s m0, p m0+dm) channel, m0 = POPULATED_M."""
    dim = single_atom_dimension(channel)
    i_s, i_p = _transition_indices(channel, spec)
    return [a * dim + b for a in (i_s, i_p) for b in (i_s, i_p)]


def _cycle_segments(h_drive, h_int, rabi: float, delta_t: float, instantaneous: bool):
    """(H, t) of the pi/2 pulse, free interval and 3pi/2 pulse; h_int may be a (pairs, d, d) stack."""
    t_half = 0.5 * math.pi / rabi
    if instantaneous:
        return [(h_drive, t_half), (h_int, delta_t), (h_drive, 3.0 * t_half)]
    return [
        (h_drive + h_int, t_half),
        (h_int, delta_t),
        (h_drive + h_int, 3.0 * t_half),
    ]


def cycle_amplitude_numeric(
    geom: PairGeometry,
    cycle: CycleSpec,
    reduced: bool = False,
) -> complex:
    """<s m0, s m0| U_cycle |s m0, s m0> for one dressing cycle.

    reduced=True freezes both atoms to the populated sublevel and the single
    driven p sublevel, recovering the two-level-per-atom model used for
    cross-validation against the closed form.
    """
    spec = cycle.microwave
    h_int = interaction_matrix(geom, cycle.channel)
    h_drive = dressing_matrix(cycle.channel, spec).astype(complex)
    idx = _reduced_indices(cycle.channel, spec)
    start = idx[0]  # |s m0, s m0>
    if reduced:
        h_int = h_int[np.ix_(idx, idx)]
        h_drive = h_drive[np.ix_(idx, idx)]
        start = 0  # first in the reduced ordering
    segments = _cycle_segments(
        h_drive, h_int, spec.rabi, cycle.delta_t, spec.pulse_model == "instantaneous"
    )
    return complex(propagate(segments)[start, start])


# ---------------------------------------------------------------------------
# vectorized sweeps used by the correlation assembly
# ---------------------------------------------------------------------------


def analytic_pair_amplitudes(cubes: np.ndarray, phase_product: float, out=None) -> np.ndarray:
    """Closed-form amplitude of one cycle for every pair, shape cubes.shape.

    cubes is R^3 of each pair, computed once by a caller that evaluates many
    times of the same pairs, and only read; phase_product is the cycle's
    C3 * delta_t.  The half phase is one divide, (C3 * delta_t / 2) / R^3,
    the same bits as half of C3 * delta_t / R^3.  With out None the result
    is a fresh complex array, and the half phase one more array.  Otherwise
    out is a real (2, *cubes.shape) array: Re A and Im A are written into
    out[0] and out[1], the half phase built in out[1], and out is returned;
    the call then allocates nothing.
    """
    if out is None:
        amplitudes = np.empty(cubes.shape, dtype=complex)
        _half_angle_amplitude_into(np.divide(0.5 * phase_product, cubes), amplitudes.real, amplitudes.imag)
        return amplitudes
    re, im = out
    _half_angle_amplitude_into(np.divide(0.5 * phase_product, cubes, out=im), re, im)
    return out


def pair_spectra(separations: np.ndarray, thetas: np.ndarray, cycle: CycleSpec) -> tuple:
    """Exchange eigenvalues of every pair and the cycle's two pulse vectors in its eigenbasis.

    Each pair axis lies in the xz plane, so every Hamiltonian is real
    symmetric (module docstring).  Returns (lam, wc, ut), each (npairs, d):
    with V a pair's exchange eigenvectors and e0 = |s m0, s m0>,
    ut = V^T U(pi/2) e0 and wc = V^T U(3pi/2) e0 (U(3pi/2) is symmetric), so
    the cycle amplitude at free interval t is sum_i wc_i e^{-i lam_i t} ut_i
    (spectral_amplitudes).  Raises NumericsError when a pulse vector's squared
    norm is more than UNITARITY_TOL from 1, which keeps |A| <= 1.
    """
    spec, channel = cycle.microwave, cycle.channel
    h_drive = dressing_matrix(channel, spec)
    start = _reduced_indices(channel, spec)[0]  # e0, first of the frozen channel
    operators = exchange_operators(channel).real  # exact: an xz-plane axis gives X_xy and X_yz weight 0
    instantaneous = spec.pulse_model == "instantaneous"
    n, d = len(separations), len(h_drive)
    lam = np.empty((n, d))
    wc = np.empty((n, d), dtype=complex)
    ut = np.empty_like(wc)
    for lo in range(0, n, PAIR_CHUNK):
        hi = min(lo + PAIR_CHUNK, n)
        axes = np.stack([np.sin(thetas[lo:hi]), np.zeros(hi - lo), np.cos(thetas[lo:hi])], axis=-1)
        h_int = channel.c3 / separations[lo:hi, None, None] ** 3 * np.tensordot(_dipole_tensor(axes), operators, 2)
        (h_pulse, t_first), _, (_, t_last) = _cycle_segments(h_drive, h_int, spec.rabi, cycle.delta_t, instantaneous)
        lam[lo:hi], vec = np.linalg.eigh(h_int)
        lam_p, vec_p = np.linalg.eigh(h_pulse)  # one (d, d) matrix for instantaneous pulses
        # U(t) e0 = P e^{-i lam_p t} P^T e0 at both pulse lengths, as (re, im) columns of real products
        rotated = vec_p[..., start, :, None] * np.exp(-1j * lam_p[..., None] * (t_first, t_last))
        columns = np.matmul(vec.swapaxes(1, 2), np.matmul(vec_p, rotated.view(np.float64)))
        vectors = columns.view(complex)  # (pairs, d, 2): ut and wc
        drift = np.max(np.abs(np.linalg.norm(vectors, axis=1) ** 2 - 1.0))
        if not drift <= UNITARITY_TOL:
            raise NumericsError(f"pulse vector norm drift {drift:.3e} exceeds {UNITARITY_TOL}")
        ut[lo:hi], wc[lo:hi] = vectors[..., 0], vectors[..., 1]
    return lam, wc, ut


def spectral_amplitudes(spectra: tuple, t: float) -> np.ndarray:
    """Cycle amplitude of every pair at free interval t, shape (npairs,).

    spectra is pair_spectra's (lam, wc, ut); A = sum_i wc_i e^{-i lam_i t} ut_i,
    evaluated PAIR_CHUNK pairs at a time so the phase temporary stays small.
    """
    lam, wc, ut = spectra
    out = np.empty(len(lam), dtype=complex)
    for lo in range(0, len(lam), PAIR_CHUNK):
        pairs = slice(lo, lo + PAIR_CHUNK)
        out[pairs] = np.einsum("pi,pi,pi->p", wc[pairs], np.exp(-1j * lam[pairs] * t), ut[pairs])
    return out
