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
each pair's phase one divide C3 * dT / R^3; a schedule's cycles multiply in
correlation, whatever the mode.

Buffer discipline.  The g2 drivers call analytic_pair_amplitudes once per
cycle and grid point, on columns of several hundred kB (44850 pairs at
N = 300).  glibc serves blocks that size from the top of the heap and gives
them back to the kernel once the free space at the top passes its trim
threshold (mallopt(3), M_TRIM_THRESHOLD, which follows the dynamic
M_MMAP_THRESHOLD).  A kernel that frees a chain of fresh temporaries per call
crosses it at every grid point, and every page of the next call faults in
again: about 500 minor faults, two thirds of the call's time.  So the kernel
holds two large arrays: the phase, overwritten in place by its tangent, and
the returned column, whose real and imaginary parts receive the weight and
its product with the tangent (_cycle_amplitude_into).  R^3 comes from the
caller, computed once per realization (libm pow takes about a third of a
call at N = 300).

Numeric route (multichannel): each atom spans the sublevels
[s -1/2, s +1/2, p -j, ..., p +j], found by index arithmetic
(_transition_indices).  One table of s-p dipole elements (_dipole_blocks)
builds both the drive, normalized so the populated transition carries the
full Rabi frequency, and the resonant exchange part of the dipole-dipole
operator, expanded in rank-2 spherical tensors over the pair basis.  The
cycle is propagated with eigendecomposition-based exponentials of the
piecewise-constant Hamiltonians.  Only excitation-exchange blocks (one atom
s -> p while the other goes p -> s) are retained; double (de-)excitation
terms are dropped as counter-rotating.  The amplitude depends on
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


def _cycle_amplitude_into(phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the closed-form cycle amplitude of phase into the complex array out.

    phase is overwritten with t = tan(phase / 2); the weight w = 1 / (1 + t^2)
    is built in out.real and t * w is written to out.imag, so no temporary
    array is created.  Returns out.
    """
    phase *= 0.5
    np.tan(phase, out=phase)
    w = out.real
    np.multiply(phase, phase, out=w)
    w += 1.0
    np.divide(1.0, w, out=w)
    np.multiply(phase, w, out=out.imag)
    return out


def analytic_cycle_amplitude(phi):
    """Closed-form cycle survival amplitude (1 + e^{i phi}) / 2.

    Evaluated as (1 + i t) / (1 + t^2) with t = tan(phi / 2), the same
    number as (1 + cos phi) / 2 + i sin(phi) / 2.  Accepts scalars or arrays;
    a scalar phase gives a scalar amplitude.
    """
    phase = np.array(phi, dtype=float)
    out = _cycle_amplitude_into(phase, np.empty(phase.shape, dtype=complex))
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
    """Raising (s -> p) and lowering (p -> s) blocks of the unit dipole operator, keyed by q.

    Over the single-atom basis (_transition_indices),
    up[q][p(m+q), s(m)] = <1/2 m; 1 q | j m+q>: the one place an s-p dipole
    element becomes a matrix entry.  The lowering block follows from
    Hermiticity of the vector operator, (T_q)^dag = (-1)^q T_{-q}, as
    down[q] = (-1)^q up[-q]^T.
    """
    j = channel.p_j
    dim = single_atom_dimension(channel)
    ups = {q: np.zeros((dim, dim)) for q in (-1, 0, 1)}
    for q, up in ups.items():
        for i_s, ms in enumerate((-0.5, 0.5)):
            mp = ms + q
            if abs(mp) <= j + 1e-9:
                up[round(2 + mp + j), i_s] = clebsch_gordan(0.5, ms, 1.0, float(q), j, mp)
    return {q: (up, (-1) ** q * ups[-q].T) for q, up in ups.items()}


def exchange_tensor_operators(channel: RydbergChannel) -> np.ndarray:
    """The five rank-2 pair operators W_Q restricted to exchange blocks.

    W_Q = sum_{q1+q2=Q} <1 q1; 1 q2 | 2 Q> (U_{q1} x D_{q2} + D_{q1} x U_{q2}),
    stacked as an array of shape (5, dim^2, dim^2) with Q = -2..2.
    """
    blocks = _dipole_blocks(channel)
    dim = single_atom_dimension(channel)
    out = np.zeros((5, dim * dim, dim * dim))
    for iq, big_q in enumerate(range(-2, 3)):
        acc = np.zeros((dim * dim, dim * dim))
        for q1 in (-1, 0, 1):
            q2 = big_q - q1
            if q2 not in (-1, 0, 1):
                continue
            cg = clebsch_gordan(1.0, float(q1), 1.0, float(q2), 2.0, float(big_q))
            if cg == 0.0:
                continue
            u1, d1 = blocks[q1]
            u2, d2 = blocks[q2]
            acc += cg * (np.kron(u1, d2) + np.kron(d1, u2))
        out[iq] = acc
    return out


def interaction_coefficients(thetas, phis, r, c3: float) -> np.ndarray:
    """Complex weights multiplying W_Q for many pair geometries, shape (n, 5), Q = -2..2.

    The weight of W_Q is -sqrt(6) (C3/R^3) (-1)^Q C^2_{-Q}(theta, phi), with
    C^2_Q the Racah-normalized rank-2 spherical harmonics of the pair axis.
    At phi = 0 every weight is real: its imaginary part is exactly 0.
    """
    st, ct = np.sin(thetas), np.cos(thetas)
    e1 = np.exp(1j * np.asarray(phis))
    c2 = np.stack(
        [
            math.sqrt(3.0 / 8.0) * st * st / (e1 * e1),
            math.sqrt(1.5) * st * ct / e1,
            0.5 * (3.0 * ct * ct - 1.0) * np.ones_like(e1),
            -math.sqrt(1.5) * st * ct * e1,
            math.sqrt(3.0 / 8.0) * st * st * e1 * e1,
        ],
        axis=1,
    )  # (n, 5) ordered Q = -2..2
    signs = np.array([(-1.0) ** q for q in range(-2, 3)])
    scale = -math.sqrt(6.0) * c3 / np.asarray(r, dtype=float) ** 3
    return scale[:, None] * signs[None, :] * c2[:, ::-1]


def interaction_matrix(geom: PairGeometry, channel: RydbergChannel) -> np.ndarray:
    """Exchange part of the dipole-dipole operator over the pair basis, at the pair's azimuth."""
    weights = interaction_coefficients([geom.polar_angle], [geom.azimuth], [geom.separation], channel.c3)
    h = np.tensordot(weights, exchange_tensor_operators(channel).astype(complex), axes=([1], [0]))[0]
    err = np.max(np.abs(h - h.conj().T))
    if err > HERMITICITY_TOL:
        raise NumericsError(f"interaction part lost Hermiticity: {err:.3e}")
    return h


def single_atom_dressing(channel: RydbergChannel, spec: MicrowaveSpec) -> np.ndarray:
    """-(Omega/2) (X + X^T) on one atom, X the raising block of q = dm over its populated entry.

    The populated transition so carries the full Rabi frequency; pulse areas
    are defined on it.  Raises ValueError for a forbidden drive.
    """
    i_s, i_p = _transition_indices(channel, spec)
    up, _ = _dipole_blocks(channel)[spec.delta_m]
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


def analytic_pair_amplitudes(cubes: np.ndarray, phase_product: float) -> np.ndarray:
    """Closed-form amplitude of one cycle for every pair, shape (npairs,).

    cubes is R^3 of each pair, computed once by a caller that evaluates many
    times of the same pairs, and only read; phase_product is the cycle's
    C3 * delta_t.  The phase is one divide, C3 * delta_t / R^3, and the two
    arrays it takes (the phase and the result) are all the call holds.
    """
    return _cycle_amplitude_into(np.divide(phase_product, cubes), np.empty(cubes.shape, dtype=complex))


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
    operators = exchange_tensor_operators(channel)
    instantaneous = spec.pulse_model == "instantaneous"
    n, d = len(separations), len(h_drive)
    lam = np.empty((n, d))
    wc = np.empty((n, d), dtype=complex)
    ut = np.empty_like(wc)
    for lo in range(0, n, PAIR_CHUNK):
        hi = min(lo + PAIR_CHUNK, n)
        weights = interaction_coefficients(thetas[lo:hi], 0.0, separations[lo:hi], channel.c3).real
        h_int = np.tensordot(weights, operators, axes=([1], [0]))
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
