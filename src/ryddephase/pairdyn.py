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
size of phi.  analytic_pair_amplitudes forms each pair's phase as one divide
C3 * dT / R^3 and multiplies the per-cycle factors.

Buffer discipline.  The g2 drivers call analytic_pair_amplitudes once per
grid point, on columns of several hundred kB (44850 pairs at N = 300).  glibc
serves blocks that size from the top of the heap and gives them back to the
kernel once the free space at the top passes its trim threshold (mallopt(3),
M_TRIM_THRESHOLD, which follows the dynamic M_MMAP_THRESHOLD).  A kernel that
frees a chain of fresh temporaries per call crosses it at every grid point,
and every page of the next call faults in again: about 500 minor faults, two
thirds of the call's time.  So the kernel holds as few large arrays as it
can: the phase is one divide by R^3 and is overwritten in place by its
tangent, the weight and its product with the tangent are written straight
into the real and imaginary parts of the returned column
(_cycle_amplitude_into), and only calls with several cycles take a factor
buffer more.  The g2 drivers pass R^3 as cubes, computed once per
realization (libm pow takes about a third of a call at N = 300), so a
one-cycle call holds the phase and its result, too little to trigger a
trim; without cubes, R^3 is computed per call and becomes the phase.

Numeric route (multichannel): the resonant exchange part of the dipole-dipole
operator is expanded in rank-2 spherical tensors over the full (s + p_j) pair
basis and the cycle is propagated with eigendecomposition-based exponentials
of the piecewise-constant Hamiltonians.  Only excitation-exchange blocks
(one atom s -> p while the other goes p -> s) are retained; double (de-)
excitation terms are dropped as counter-rotating.

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
    ORBITAL_P,
    ORBITAL_S,
    POPULATED_M,
    Level,
    MicrowaveSpec,
    RydbergChannel,
    clebsch_gordan,
    coupling_weight,
    single_atom_dimension,
)
from .ensemble import PairGeometry

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-12


class NumericsError(RuntimeError):
    """Propagation drifted outside its guaranteed tolerances."""


@dataclass(frozen=True)
class CycleSpec:
    """One dressing cycle: channel, free-interval length, microwave settings."""

    channel: RydbergChannel
    delta_t: float  # us
    microwave: MicrowaveSpec

    def __post_init__(self):
        if self.delta_t < 0:
            raise ValueError(f"delta_t must be >= 0, got {self.delta_t}")

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


def single_atom_levels(channel: RydbergChannel) -> list[Level]:
    """Basis sublevels per atom: s (m ascending) then p_j (m ascending)."""
    s, p = channel.s_level, channel.p_level
    levels = [s.with_m(-0.5), s.with_m(0.5)]
    m = -p.j
    while m <= p.j + 1e-9:
        levels.append(p.with_m(m))
        m += 1.0
    return levels


def pair_basis(channel: RydbergChannel) -> tuple:
    singles = single_atom_levels(channel)
    return tuple((a, b) for a in singles for b in singles)


def _level_index(levels: list[Level], orbital: str, m: float) -> int:
    for i, lev in enumerate(levels):
        if lev.l == orbital and lev.m is not None and abs(lev.m - m) < 1e-9:
            return i
    raise ValueError(f"no {orbital} sublevel with m = {m} in this channel")


def _dipole_blocks(channel: RydbergChannel) -> dict:
    """Raising (s -> p) and lowering (p -> s) blocks of the unit dipole operator.

    up[q][p_idx(m+q), s_idx(m)] = <1/2 m; 1 q | j m+q>; the lowering block is
    fixed by Hermiticity of the vector operator, (T_q)^dag = (-1)^q T_{-q}.
    """
    levels = single_atom_levels(channel)
    dim = len(levels)
    j = channel.p_level.j
    blocks = {}
    for q in (-1, 0, 1):
        up = np.zeros((dim, dim))
        down = np.zeros((dim, dim))
        for ms in (-0.5, 0.5):
            mp = ms + q
            if abs(mp) <= j + 1e-9:
                cg = clebsch_gordan(0.5, ms, 1.0, float(q), j, mp)
                up[_level_index(levels, ORBITAL_P, mp), _level_index(levels, ORBITAL_S, ms)] = cg
        for mp in np.arange(-j, j + 0.5, 1.0):
            ms = mp + q
            if abs(ms) <= 0.5 + 1e-9:
                cg = clebsch_gordan(0.5, ms, 1.0, float(-q), j, mp)
                down[_level_index(levels, ORBITAL_S, ms), _level_index(levels, ORBITAL_P, mp)] = (-1) ** q * cg
        blocks[q] = (up, down)
    return blocks


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


def _batched_interaction(thetas, phis, r, c3: float, operators: np.ndarray) -> np.ndarray:
    """Exchange Hamiltonians for many pair geometries, shape (n, d, d); operators: exchange_tensor_operators."""
    return np.tensordot(interaction_coefficients(thetas, phis, r, c3), operators, axes=([1], [0]))


def interaction_matrix(geom: PairGeometry, channel: RydbergChannel) -> np.ndarray:
    """Exchange part of the dipole-dipole operator over the pair basis."""
    operators = exchange_tensor_operators(channel).astype(complex)
    h = _batched_interaction([geom.polar_angle], [geom.azimuth], [geom.separation], channel.c3, operators)[0]
    err = np.max(np.abs(h - h.conj().T))
    if err > HERMITICITY_TOL:
        raise NumericsError(f"interaction part lost Hermiticity: {err:.3e}")
    return h


def single_atom_dressing(channel: RydbergChannel, spec: MicrowaveSpec) -> np.ndarray:
    """-(Omega/2) X on one atom, X built from normalized coupling weights."""
    levels = single_atom_levels(channel)
    dim = len(levels)
    dm = spec.delta_m
    x = np.zeros((dim, dim))
    for ms in (-0.5, 0.5):
        mp = ms + dm
        if abs(mp) > channel.p_level.j + 1e-9:
            continue
        s = channel.s_level.with_m(ms)
        p = channel.p_level.with_m(mp)
        w = coupling_weight(s, p, spec.polarization)
        i, k = _level_index(levels, ORBITAL_S, ms), _level_index(levels, ORBITAL_P, mp)
        x[k, i] = w
        x[i, k] = w
    return -0.5 * spec.rabi * x


def dressing_matrix(channel: RydbergChannel, spec: MicrowaveSpec) -> np.ndarray:
    h1 = single_atom_dressing(channel, spec)
    eye = np.eye(h1.shape[0])
    return np.kron(h1, eye) + np.kron(eye, h1)


def propagate(h_sequence, dim: int | None = None) -> np.ndarray:
    """Time-ordered product of exp(-i H_k t_k), first segment applied first.

    Each segment is exponentiated exactly through its eigendecomposition;
    the result is checked against the unitarity tolerance.  An empty sequence
    yields the identity (dim must then be supplied).
    """
    u = None if dim is None else np.eye(dim, dtype=complex)
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
        raise ValueError("empty Hamiltonian sequence needs an explicit dim")
    err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if err > UNITARITY_TOL:
        raise NumericsError(f"propagator unitarity drift {err:.3e} exceeds {UNITARITY_TOL}")
    return u


def _reduced_indices(channel: RydbergChannel, spec: MicrowaveSpec, initial_m: float) -> list[int]:
    """Pair-basis indices of the frozen two-level (s m0, p m0+dm) channel."""
    levels = single_atom_levels(channel)
    dim = len(levels)
    i_s = _level_index(levels, ORBITAL_S, initial_m)
    i_p = _level_index(levels, ORBITAL_P, initial_m + spec.delta_m)
    return [a * dim + b for a in (i_s, i_p) for b in (i_s, i_p)]


def _cycle_segments(h_drive, h_int, rabi: float, delta_t: float, instantaneous: bool):
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
    levels = single_atom_levels(cycle.channel)
    dim = len(levels)
    if reduced:
        idx = _reduced_indices(cycle.channel, spec, POPULATED_M)
        h_int = h_int[np.ix_(idx, idx)]
        h_drive = h_drive[np.ix_(idx, idx)]
        start = 0  # |s m0, s m0> is first in the reduced ordering
    else:
        i_s = _level_index(levels, ORBITAL_S, POPULATED_M)
        start = i_s * dim + i_s
    segments = _cycle_segments(
        h_drive, h_int, spec.rabi, cycle.delta_t, spec.pulse_model == "instantaneous"
    )
    return complex(propagate(segments)[start, start])


# ---------------------------------------------------------------------------
# vectorized sweeps used by the correlation assembly
# ---------------------------------------------------------------------------


def analytic_pair_amplitudes(separations: np.ndarray, phase_products, *, cubes=None) -> np.ndarray:
    """Amplitude per pair for a list of per-cycle C3 * delta_t products.

    separations has shape (npairs,); the result multiplies the closed-form
    cycle amplitude over all cycles, shape (npairs,).  Each cycle's phase is
    one divide, p / R^3.  cubes, if given, is separations ** 3, computed once
    by a caller that evaluates many grid points of the same pairs; it is read,
    never written.  The first cycle's amplitude is written straight into the
    result, so a one-cycle call holds two arrays: the phase (without cubes,
    R^3 overwritten in place) and the result.
    """
    products = list(phase_products)
    r3 = np.asarray(separations, dtype=float) ** 3 if cubes is None else cubes
    if not products:
        return np.ones(r3.shape, dtype=complex)
    first, *rest = products
    # a lone phase may overwrite an R^3 of this call's own, which no later cycle needs
    phase = np.divide(first, r3, out=r3 if cubes is None and not rest else None)
    amps = _cycle_amplitude_into(phase, np.empty(r3.shape, dtype=complex))
    if rest:
        factor = np.empty_like(amps)
        for p in rest:
            amps *= _cycle_amplitude_into(np.divide(p, r3, out=phase), factor)
    return amps


def numeric_pair_amplitudes(
    separations: np.ndarray,
    thetas: np.ndarray,
    phis: np.ndarray,
    cycle: CycleSpec,
    times: np.ndarray,
    chunk: int = 512,
) -> np.ndarray:
    """Cycle survival amplitude of every pair at every free-interval length.

    Returns shape (npairs, ntimes).  The free-interval propagator is obtained
    from one eigendecomposition per pair and reused across all times; results
    are identical to looping cycle_amplitude_numeric over pairs and times.
    """
    spec = cycle.microwave
    channel = cycle.channel
    levels = single_atom_levels(channel)
    dim = len(levels)
    i_s = _level_index(levels, ORBITAL_S, POPULATED_M)
    start = i_s * dim + i_s
    h_drive = dressing_matrix(channel, spec).astype(complex)
    t_half = 0.5 * math.pi / spec.rabi
    instantaneous = spec.pulse_model == "instantaneous"
    times = np.asarray(times, dtype=float)

    operators = exchange_tensor_operators(channel).astype(complex)
    e0 = np.zeros(dim * dim, dtype=complex)
    e0[start] = 1.0

    if instantaneous:
        p1 = propagate([(h_drive, t_half)])
        p2 = propagate([(h_drive, 3.0 * t_half)])
        u_fixed = p1 @ e0
        w_fixed = p2.conj().T @ e0

    n = len(separations)
    out = np.empty((n, len(times)), dtype=complex)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        h_int = _batched_interaction(
            np.asarray(thetas)[lo:hi], np.asarray(phis)[lo:hi], np.asarray(separations)[lo:hi], channel.c3, operators
        )
        lam, vec = np.linalg.eigh(h_int)
        if instantaneous:
            u = u_fixed
            w = w_fixed
        else:
            # pulses evolve under dressing + interaction simultaneously:
            # u = U(pi/2) e0 and w = U(3pi/2)^dag e0, both per pair
            lam1, vec1 = np.linalg.eigh(h_int + h_drive[None, :, :])
            c = np.einsum("pji,j->pi", vec1.conj(), e0)
            u = np.einsum("pij,pj->pi", vec1, np.exp(-1j * lam1 * t_half) * c)
            w = np.einsum("pij,pj->pi", vec1, np.exp(1j * lam1 * 3.0 * t_half) * c)
        # A(t) = w^dag V e^{-i lam t} V^dag u, evaluated for all t at once
        if instantaneous:
            ut = np.einsum("pji,j->pi", vec.conj(), u)
            wt = np.einsum("pji,j->pi", vec.conj(), w)
        else:
            ut = np.einsum("pji,pj->pi", vec.conj(), u)
            wt = np.einsum("pji,pj->pi", vec.conj(), w)
        phases = np.exp(-1j * lam[:, :, None] * times[None, None, :])
        out[lo:hi] = np.einsum("pi,pit,pi->pt", wt.conj(), phases, ut)
    return out
