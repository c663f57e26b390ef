import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist

from ryddephase.atomdata import POLARIZATIONS, POPULATED_M, InteractionModel, MicrowaveSpec, RydbergChannel, c3_of
from ryddephase.ensemble import EnsembleSpec, sample_positions
from ryddephase.pairdyn import (
    CycleSpec,
    analytic_pair_amplitudes,
    dressing_matrix,
    pair_spectra,
    spectral_amplitudes,
    _reduced_indices,
)
from ryddephase.protocol import make_schedule

from reference import PairGeometry, analytic_cycle_amplitude, cycle_amplitude_numeric, interaction_matrix, propagate


def channel(j=0.5, c3=1.0, n=100, p_n=None):
    return RydbergChannel(n, p_n or n, j, c3)


MW = MicrowaveSpec(rabi=10.0)


def pair_labels(ch):
    """(orbital, m) of both atoms for each pair-basis state, atom 1 major.

    Each atom's basis is [s -1/2, s +1/2, p -j, ..., p +j].
    """
    j = ch.p_j
    singles = [("s", -0.5), ("s", 0.5)] + [("p", m) for m in np.arange(-j, j + 0.5)]
    return [(a, b) for a in singles for b in singles]


def n_p(label):
    """Number of p excitations in a pair-basis label."""
    return sum(1 for orbital, _ in label if orbital == "p")


def frozen_exchange_element(ch, mw=MW, r=2.0):
    """Exchange matrix element of the frozen (m-locked) channel at theta = 0."""
    h = interaction_matrix(PairGeometry(r, 0.0, 0.0), ch)
    idx = _reduced_indices(ch, mw)
    return float(h[idx[1], idx[2]].real)


# ---------------------------------------------------------------------------
# analytic model
# ---------------------------------------------------------------------------


def kernel_phase(c3, r, delta_t):
    """The single-channel phase analytic_pair_amplitudes forms: np.divide(C3 * dT, R^3)."""
    return np.divide(c3 * delta_t, np.asarray(r, dtype=float) ** 3)


def test_single_channel_phase_arithmetic():
    assert kernel_phase(1.0, 2.0, 8.0) == pytest.approx(1.0)
    assert kernel_phase(5.0, 3.0, 0.0) == 0.0
    phi1 = kernel_phase(1.0, 1.0, 1.0)
    phi2 = kernel_phase(1.0, 2.0, 1.0)
    assert phi1 / phi2 == pytest.approx(8.0)
    r = np.array([0.5, 1.0, 2.0, 3.0])
    expected = analytic_cycle_amplitude(kernel_phase(8.0, r, 1.0))
    assert analytic_pair_amplitudes(r**3, 8.0).tobytes() == expected.tobytes()


def test_analytic_amplitude_values():
    assert complex(analytic_cycle_amplitude(0.0)) == pytest.approx(1.0 + 0.0j)
    assert abs(complex(analytic_cycle_amplitude(math.pi))) == pytest.approx(0.0, abs=1e-15)
    assert complex(analytic_cycle_amplitude(math.pi / 2)) == pytest.approx(0.5 + 0.5j)


@settings(max_examples=200)
@given(st.floats(-50.0, 50.0))
def test_analytic_amplitude_equals_half_angle_form(phi):
    a = complex(analytic_cycle_amplitude(phi))
    b = np.exp(1j * phi / 2) * math.cos(phi / 2)
    assert a == pytest.approx(b, abs=1e-12)
    assert abs(a) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Hamiltonian structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("j,dim", [(0.5, 16), (1.5, 36)])
def test_pair_hamiltonian_dimensions(j, dim):
    assert dressing_matrix(channel(j), MW).shape == (dim, dim)
    assert interaction_matrix(PairGeometry(3.0, 0.7, 0.3), channel(j)).shape == (dim, dim)
    assert len(pair_labels(channel(j))) == dim


@pytest.mark.parametrize("j", [0.5, 1.5])
def test_hermiticity(j):
    dressing = dressing_matrix(channel(j), MW)
    assert np.max(np.abs(dressing - dressing.conj().T)) <= 1e-12
    for theta, phi in [(0.0, 0.0), (0.4, 1.1), (math.pi / 2, 2.0), (2.7, 5.5)]:
        h = interaction_matrix(PairGeometry(2.5, theta, phi), channel(j))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12


@pytest.mark.parametrize("j", [0.5, 1.5])
def test_interaction_couples_only_exchange_blocks(j):
    ch = channel(j)
    h = interaction_matrix(PairGeometry(2.0, 1.0, 0.5), ch)
    basis = pair_labels(ch)
    for i, bi in enumerate(basis):
        for k, bk in enumerate(basis):
            if h[i, k] != 0.0:
                # conserves p-excitation number, exactly one per pair state
                assert n_p(bi) == n_p(bk) == 1


@pytest.mark.parametrize("j", [0.5, 1.5])
def test_m_block_structure_on_axis(j):
    ch = channel(j)
    h = interaction_matrix(PairGeometry(2.0, 0.0, 0.0), ch)
    basis = pair_labels(ch)
    total_m = np.array([a[1] + b[1] for a, b in basis])
    for i in range(len(basis)):
        for k in range(len(basis)):
            if abs(total_m[i] - total_m[k]) > 1e-9:
                assert h[i, k] == 0.0


@pytest.mark.parametrize("j", [0.5, 1.5])
def test_rotational_invariance_of_spectrum(j):
    ch = channel(j)
    ref = np.sort(np.linalg.eigvalsh(interaction_matrix(PairGeometry(2.0, 0.0, 0.0), ch)))
    rng = np.random.default_rng(42)
    for _ in range(5):
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        ev = np.sort(np.linalg.eigvalsh(interaction_matrix(PairGeometry(2.0, theta, phi), ch)))
        assert np.max(np.abs(ev - ref)) <= 1e-10


def test_swapped_atoms_give_identical_spectrum():
    # pair_geometry(a, b) vs (b, a): theta -> pi - theta, azimuth -> azimuth + pi
    ch = channel(1.5)
    g1 = PairGeometry(3.0, 0.8, 0.6)
    g2 = PairGeometry(3.0, math.pi - 0.8, (0.6 + math.pi) % (2 * math.pi))
    ev1 = np.sort(np.linalg.eigvalsh(interaction_matrix(g1, ch)))
    ev2 = np.sort(np.linalg.eigvalsh(interaction_matrix(g2, ch)))
    assert np.max(np.abs(ev1 - ev2)) <= 1e-10


def test_frozen_channel_reproduces_two_state_exchange_block():
    for j, weight in [(0.5, 2.0 / 3.0), (1.5, 4.0 / 3.0)]:
        ch = channel(j, c3=1.0)
        r = 2.0
        h = interaction_matrix(PairGeometry(r, 0.0, 0.0), ch)
        idx = _reduced_indices(ch, MW)
        block = h[np.ix_(idx, idx)]
        # only |s p><p s| + h.c. inside the frozen channel
        expected = np.zeros((4, 4))
        ex = frozen_exchange_element(ch, r=r)
        expected[1, 2] = expected[2, 1] = ex
        assert np.max(np.abs(block - expected)) <= 1e-12
        assert abs(ex) == pytest.approx(weight / r**3, rel=1e-12)
        evals = np.sort(np.linalg.eigvalsh(block))
        assert evals[0] == pytest.approx(-abs(ex), rel=1e-12)
        assert evals[-1] == pytest.approx(abs(ex), rel=1e-12)


def _cartesian_exchange_oracle(geom, ch):
    """Independent route: Cartesian dipole-dipole form, then exchange projection.

    Builds d . d - 3 (d . rhat)(d . rhat) from the Cartesian dipole components
    (d_x, d_y, d_z assembled from the spherical blocks), multiplies by C3/R^3,
    and keeps only the blocks that conserve the p-excitation number.
    """
    from ryddephase.pairdyn import _dipole_blocks

    up = _dipole_blocks(ch)
    t = {q: up[q] + (-1) ** q * up[-q].T for q in (-1, 0, 1)}  # (T_q)^dag = (-1)^q T_-q
    dx = (t[-1] - t[1]) / math.sqrt(2.0)
    dy = 1j * (t[-1] + t[1]) / math.sqrt(2.0)
    dz = t[0]
    st, ct = math.sin(geom.polar_angle), math.cos(geom.polar_angle)
    rhat = np.array([st * math.cos(geom.azimuth), st * math.sin(geom.azimuth), ct])
    d = [dx, dy, dz]
    dim = dx.shape[0]
    dot = sum(np.kron(d[i], d[i]) for i in range(3))
    dr1 = sum(rhat[i] * d[i] for i in range(3))
    full = dot - 3.0 * np.kron(dr1, dr1)
    full = ch.c3 / geom.separation**3 * full
    # exchange projection: keep elements conserving the p-excitation count
    excited = np.array([n_p(label) for label in pair_labels(ch)])
    keep = (excited[:, None] == 1) & (excited[None, :] == 1)
    return np.where(keep, full, 0.0)


@pytest.mark.parametrize("j", [0.5, 1.5])
def test_interaction_matches_cartesian_oracle(j):
    ch = channel(j, c3=2.7)
    for theta, phi in [(0.0, 0.0), (0.6, 1.9), (math.pi / 2, 0.3), (2.1, 4.4)]:
        geom = PairGeometry(3.1, theta, phi)
        built = interaction_matrix(geom, ch)
        oracle = _cartesian_exchange_oracle(geom, ch)
        assert np.max(np.abs(built - oracle)) <= 1e-12


ROOT7 = math.sqrt(7.0)
EXCHANGE_LEVELS = {  # distinct eigenvalues of the exchange operator at R = 1, C3 = 1, for any pair axis
    0.5: [0.0, 2.0 / 3.0, 4.0 / 3.0],
    1.5: [0.0, 1.0, 5.0 / 3.0, math.sqrt((11.0 + 4.0 * ROOT7) / 9.0), math.sqrt((11.0 - 4.0 * ROOT7) / 9.0)],
}


@pytest.mark.parametrize("j", [0.5, 1.5])
def test_exchange_spectrum_at_unit_strength(j):
    # pins the operator's normalization and sign: every level comes in a +- pair
    levels = np.array(sorted({s * v for v in EXCHANGE_LEVELS[j] for s in (-1.0, 1.0)}))
    for theta, phi in [(0.0, 0.0), (0.6, 1.9), (math.pi / 2, 0.3), (2.1, 4.4)]:
        ev = np.linalg.eigvalsh(interaction_matrix(PairGeometry(1.0, theta, phi), channel(j)))
        nearest = np.abs(ev[:, None] - levels[None, :])
        assert np.all(nearest.min(axis=1) <= 1e-12)
        assert np.all(nearest.min(axis=0) <= 1e-12)


def test_interaction_scales_as_inverse_cube():
    ch = channel(1.5, c3=2.0)
    h1 = interaction_matrix(PairGeometry(2.0, 0.9, 0.4), ch)
    h2 = interaction_matrix(PairGeometry(4.0, 0.9, 0.4), ch)
    assert np.max(np.abs(h1 - 8.0 * h2)) <= 1e-12


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_propagate_rejects_empty_sequence():
    with pytest.raises(ValueError, match="empty"):
        propagate([])


def test_propagate_zero_hamiltonian_is_identity():
    u = propagate([(np.zeros((6, 6)), 17.0)])
    assert np.max(np.abs(u - np.eye(6))) <= 1e-12


def test_propagate_commuting_segments_merge():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    u_two = propagate([(h, 0.7), (h, 1.3)])
    u_one = propagate([(h, 2.0)])
    assert np.max(np.abs(u_two - u_one)) <= 1e-10


def test_propagate_unitarity():
    rng = np.random.default_rng(11)
    segs = []
    for _ in range(5):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        segs.append(((a + a.conj().T) / 2, float(rng.uniform(0, 3))))
    u = propagate(segs)
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-10


def test_propagate_rejects_negative_duration():
    with pytest.raises(ValueError):
        propagate([(np.zeros((2, 2)), -1.0)])


# ---------------------------------------------------------------------------
# cycle amplitudes
# ---------------------------------------------------------------------------


def test_zero_interval_instantaneous_cycle_returns_unity():
    for j in (0.5, 1.5):
        for pol in ("pi", "sigma_minus"):
            mw = MicrowaveSpec(rabi=10.0, polarization=pol)
            cyc = CycleSpec(channel(j), 0.0, mw)
            amp = cycle_amplitude_numeric(PairGeometry(3.0, 1.0, 2.0), cyc)
            assert amp == pytest.approx(1.0 + 0.0j, abs=1e-12)


@pytest.mark.parametrize("j", [0.5, 1.5])
def test_strong_dressing_matches_analytic_instantaneous(j):
    ch = channel(j, c3=1.0)
    r = 2.0
    ex = abs(frozen_exchange_element(ch, r=r))
    omega = 100.0 * ch.c3 / r**3
    mw = MicrowaveSpec(rabi=omega, polarization="pi", pulse_model="instantaneous")
    for phi in np.linspace(0.0, 4.0 * math.pi, 50):
        dt = phi / ex
        amp = cycle_amplitude_numeric(PairGeometry(r, 0.0, 0.0), CycleSpec(ch, dt, mw), reduced=True)
        assert abs(amp - complex(analytic_cycle_amplitude(phi))) <= 1e-10


def test_strong_dressing_matches_analytic_finite_pulses():
    # interaction acts during the pulses too; deviation scales as V/Omega
    ch = channel(0.5, c3=1.0)
    r = 2.0
    ex = abs(frozen_exchange_element(ch, r=r))
    omega = 1000.0 * ch.c3 / r**3
    mw = MicrowaveSpec(rabi=omega, polarization="pi", pulse_model="finite_duration")
    devs = []
    for phi in np.linspace(0.0, 4.0 * math.pi, 50):
        dt = phi / ex
        amp = cycle_amplitude_numeric(PairGeometry(r, 0.0, 0.0), CycleSpec(ch, dt, mw), reduced=True)
        devs.append(abs(amp - complex(analytic_cycle_amplitude(phi))))
    assert max(devs) <= 1e-2


def test_finite_pulse_deviation_shrinks_with_dressing_ratio():
    ch = channel(0.5, c3=1.0)
    r = 2.0
    ex = abs(frozen_exchange_element(ch, r=r))
    phi = 2.0

    def max_dev(ratio):
        mw = MicrowaveSpec(rabi=ratio * ch.c3 / r**3, pulse_model="finite_duration")
        amp = cycle_amplitude_numeric(
            PairGeometry(r, 0.0, 0.0), CycleSpec(ch, phi / ex, mw), reduced=True
        )
        return abs(amp - complex(analytic_cycle_amplitude(phi)))

    assert max_dev(1000.0) < max_dev(100.0) < max_dev(10.0)


def test_full_basis_on_axis_matches_analytic_for_half_channel():
    # at theta = 0 with pi polarization, total M is conserved and the M = 1
    # one-excitation block of the j = 1/2 channel is exactly the frozen
    # channel, so the full 16-state amplitude equals the closed form
    ch = channel(0.5, c3=1.0)
    r = 2.0
    ex = abs(frozen_exchange_element(ch, r=r))
    mw = MicrowaveSpec(rabi=100.0, pulse_model="instantaneous")
    geom = PairGeometry(r, 0.0, 0.0)
    for phi in (0.7, math.pi, 5.0):
        amp = cycle_amplitude_numeric(geom, CycleSpec(ch, phi / ex, mw), reduced=False)
        assert amp == pytest.approx(complex(analytic_cycle_amplitude(phi)), abs=1e-10)


def test_off_axis_multichannel_differs_from_frozen_channel():
    # tilting the axis opens q != 0 couplings out of the frozen channel
    ch = channel(1.5, c3=1.0)
    r = 2.0
    mw = MicrowaveSpec(rabi=100.0, pulse_model="instantaneous")
    dt = 4.0 * r**3
    full = cycle_amplitude_numeric(PairGeometry(r, 1.1, 0.4), CycleSpec(ch, dt, mw))
    frozen = cycle_amplitude_numeric(
        PairGeometry(r, 1.1, 0.4), CycleSpec(ch, dt, mw), reduced=True
    )
    assert abs(full - frozen) > 1e-3


def test_blockade_regime_amplitude_stays_bounded():
    ch = channel(0.5, c3=1.0)
    r = 0.2  # V = 125, Omega = 1.25 -> deep blockade
    mw = MicrowaveSpec(rabi=0.01 * ch.c3 / r**3, pulse_model="finite_duration")
    for dt in (0.0, 0.5, 2.0, 10.0):
        amp = cycle_amplitude_numeric(PairGeometry(r, 0.4, 0.2), CycleSpec(ch, dt, mw))
        assert abs(amp) <= 1.0 + 1e-10


def test_exchange_symmetry_of_amplitude():
    ch = channel(1.5, c3=3.0)
    mw = MicrowaveSpec(rabi=5.0)
    g_ab = PairGeometry(2.5, 0.7, 1.2)
    g_ba = PairGeometry(2.5, math.pi - 0.7, (1.2 + math.pi) % (2 * math.pi))
    a1 = cycle_amplitude_numeric(g_ab, CycleSpec(ch, 1.7, mw))
    a2 = cycle_amplitude_numeric(g_ba, CycleSpec(ch, 1.7, mw))
    assert a1 == pytest.approx(a2, abs=1e-10)


def test_amplitude_approaches_unity_as_interval_shrinks():
    ch = channel(0.5, c3=1.0)
    mw = MicrowaveSpec(rabi=50.0)
    geom = PairGeometry(2.0, 0.3, 0.8)
    prev = 0.0
    for dt in (1.0, 0.1, 0.01, 0.001):
        amp = cycle_amplitude_numeric(geom, CycleSpec(ch, dt, mw))
        assert abs(amp - 1.0) <= abs(prev - 1.0) + 1e-12 or prev == 0.0
        prev = amp
    assert abs(prev - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# multi-cycle products
# ---------------------------------------------------------------------------


def _schedule(phases, r):
    """Schedule whose analytic per-cycle phases at separation r are `phases`."""
    cycles = []
    for i, phi in enumerate(phases):
        c3 = phi * r**3 if phi > 0 else 1.0
        dt = 1.0 if phi > 0 else 0.0
        ch = channel(0.5 if i % 2 == 0 else 1.5, c3=c3, p_n=90 + i)
        cycles.append(CycleSpec(ch, dt, MW))
    return make_schedule(cycles)


def schedule_amplitude(sched, r):
    """Analytic amplitude of one pair at separation r through every cycle of sched."""
    cubes = np.array([r]) ** 3
    return math.prod(complex(analytic_pair_amplitudes(cubes, c.channel.c3 * c.delta_t)[0]) for c in sched)


def test_single_cycle_schedule_reduces_to_cycle_amplitude():
    r = 2.0
    sched = _schedule([1.3], r)
    amp = schedule_amplitude(sched, r)
    assert amp == pytest.approx(complex(analytic_cycle_amplitude(1.3)), abs=1e-12)


def test_zero_phases_give_unity():
    sched = _schedule([0.0, 0.0, 0.0], 2.0)
    amp = schedule_amplitude(sched, 2.0)
    assert amp == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_two_cycle_right_angle_phases():
    # ((1 + i)/2)^2 = i/2
    r = 2.0
    sched = _schedule([math.pi / 2, math.pi / 2], r)
    amp = schedule_amplitude(sched, r)
    assert amp == pytest.approx(0.5j, abs=1e-12)
    assert abs(amp) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# vectorized sweeps agree with the scalar paths
# ---------------------------------------------------------------------------


def test_analytic_pair_amplitudes_matches_scalar():
    r = np.array([1.5, 3.0, 7.5])
    for p in (2.0, 5.0):
        vec = analytic_pair_amplitudes(r**3, p)
        for i, ri in enumerate(r):
            assert vec[i] == pytest.approx(complex(analytic_cycle_amplitude(p / ri**3)), abs=1e-12)


def test_cycle_amplitude_matches_scalar_cos_sin_at_large_phases():
    rng = np.random.default_rng(21)
    poles = math.pi * np.array([1.0, -3.0, 1001.0, 2.0**20 + 1.0])  # A = 0 where tan(phi / 2) diverges
    phi = np.concatenate([[0.0, 1e7], poles, rng.uniform(-1e7, 1e7, 200)])
    phi = np.concatenate([phi, 10.0 ** rng.uniform(-3.0, 7.0, 400)])
    amps = analytic_cycle_amplitude(phi)
    for a, p in zip(amps, phi):
        tol = 1e-15 * (1.0 + abs(p))
        assert abs(a.real - 0.5 * (1.0 + math.cos(p))) <= tol
        assert abs(a.imag - 0.5 * math.sin(p)) <= tol


def test_analytic_pair_amplitudes_phase_is_one_divide():
    rng = np.random.default_rng(4)
    r = rng.uniform(0.1, 60.0, 300)
    r3 = r**3
    for p in (2.6e4 * 60.0, 1.9e4 * 0.02):
        vec = analytic_pair_amplitudes(r3, p)
        for i in range(len(r)):
            phi = p / r3[i]
            expected = complex(0.5 * (1.0 + math.cos(phi)), 0.5 * math.sin(phi))
            # a phase off by one ulp (e.g. p * (1 / R^3)) moves cos by up to 1e-7 here
            assert abs(vec[i] - expected) <= 1e-15


PHASE_PRODUCTS = [0.0, 2.6e4 * 60.0, 1.9e4 * 0.02, 3.1e5 * 7.0]  # C3 * delta_t of four cycles


def reference_pair_amplitudes(cubes, phase_product):
    """The kernel built from fresh temporaries."""
    t = np.tan(0.5 * (phase_product / cubes))
    w = 1.0 / (1.0 + t * t)
    return w + 1j * (t * w)


@pytest.mark.parametrize("cycle", range(len(PHASE_PRODUCTS)))
def test_analytic_pair_amplitudes_bit_identical_to_reference(cycle):
    rng = np.random.default_rng(40 + cycle)
    cubes = rng.uniform(0.1, 60.0, 5000) ** 3
    p = PHASE_PRODUCTS[cycle]
    assert np.array_equal(analytic_pair_amplitudes(cubes, p), reference_pair_amplitudes(cubes, p))


@pytest.mark.parametrize("cycle", range(len(PHASE_PRODUCTS)))
def test_analytic_pair_amplitudes_with_cubes_bit_identical(cycle):
    # a realization's R^3 serves every cycle and grid point: calls only read it
    rng = np.random.default_rng(50 + cycle)
    r = rng.uniform(0.1, 60.0, 5000)
    cubes = r**3
    shared = [analytic_pair_amplitudes(cubes, p) for p in PHASE_PRODUCTS]
    assert np.array_equal(cubes, r**3)
    assert np.array_equal(shared[cycle], analytic_pair_amplitudes(r**3, PHASE_PRODUCTS[cycle]))


@pytest.mark.parametrize("n_atoms", [2, 3, 100])
def test_two_mode_planes_bit_identical_to_scalar_phase_calls(n_atoms):
    # two modes at once: a (2, 1) column of C3 t broadcast against R^3, both into one plane buffer
    cubes = pdist(sample_positions(EnsembleSpec(n_atoms, 60.0, seed=9))) ** 3
    c3 = np.array([[2.0e5], [1.6e5]])
    planes = np.empty((2, 2, len(cubes)))
    for t in (0.0, 1e-3, 0.37, 200.0):
        assert analytic_pair_amplitudes(cubes, c3 * t, planes) is planes
        fresh = analytic_pair_amplitudes(cubes, c3 * t)
        assert planes[0].tobytes() == fresh.real.tobytes() and planes[1].tobytes() == fresh.imag.tobytes()
        for mode, c3_mode in enumerate((2.0e5, 1.6e5)):
            single = analytic_pair_amplitudes(cubes, c3_mode * t)
            assert planes[0, mode].tobytes() == single.real.tobytes()
            assert planes[1, mode].tobytes() == single.imag.tobytes()


@pytest.mark.parametrize("pulse_model", ["instantaneous", "finite_duration"])
@pytest.mark.parametrize("j", [0.5, 1.5])
def test_pair_spectra_do_not_depend_on_pair_order(j, pulse_model):
    # correlation evaluates the pairs of a realization in a permuted order;
    # every pair must come out the same bits wherever it sits in its chunk
    rng = np.random.default_rng(60)
    npairs = 780  # the pairs of 40 atoms, more than one chunk
    r = rng.uniform(2.0, 60.0, npairs)
    theta = rng.uniform(0.0, math.pi, npairs)
    order = rng.permutation(npairs)
    cyc = CycleSpec(channel(j), 1.0, MicrowaveSpec(rabi=10.0, pulse_model=pulse_model))
    want = pair_spectra(r, theta, cyc)
    got = pair_spectra(r[order], theta[order], cyc)
    for t in (0.0, 0.3, 2.0):
        assert np.array_equal(spectral_amplitudes(got, t), spectral_amplitudes(want, t)[order])


def test_pair_spectra_build_the_exchange_operators_once(monkeypatch):
    from ryddephase import pairdyn

    builds = []
    build = pairdyn.exchange_operators

    def counting_build(ch):
        builds.append(ch)
        return build(ch)

    monkeypatch.setattr(pairdyn, "exchange_operators", counting_build)
    rng = np.random.default_rng(61)
    npairs = 780  # two chunks of the default 512
    r = rng.uniform(2.0, 60.0, npairs)
    theta = rng.uniform(0.0, math.pi, npairs)
    cyc = CycleSpec(channel(1.5), 1.0, MicrowaveSpec(rabi=10.0))
    pair_spectra(r, theta, cyc)
    assert len(builds) == 1


def test_cycle_amplitude_of_a_float_is_a_scalar_equal_to_the_array_path():
    phis = np.array([0.0, 0.3, -2.0, math.pi, 7.5e6])
    phis_before = phis.copy()
    arr = analytic_cycle_amplitude(phis)
    assert np.array_equal(phis, phis_before)
    for k, phi in enumerate(phis.tolist()):
        a = analytic_cycle_amplitude(phi)
        assert np.isscalar(a)
        assert a == arr[k]


# every (j, polarization) whose populated transition exists; pi keeps the bare j id
ALLOWED_DRIVES = [
    pytest.param(j, pol, id=str(j) if pol == "pi" else f"{j}-{pol}")
    for j in (0.5, 1.5)
    for pol in POLARIZATIONS
    if abs(POPULATED_M + MicrowaveSpec(1.0, pol).delta_m) <= j
]


@pytest.mark.parametrize("pulse_model", ["instantaneous", "finite_duration"])
@pytest.mark.parametrize("j, polarization", ALLOWED_DRIVES)
def test_pair_spectra_matches_loop(pulse_model, j, polarization):
    rng = np.random.default_rng(3)
    n = 7
    rs = rng.uniform(1.0, 8.0, n)
    thetas = rng.uniform(0.0, math.pi, n)
    phis = rng.uniform(0.0, 2 * math.pi, n)
    mw = MicrowaveSpec(rabi=8.0, polarization=polarization, pulse_model=pulse_model)
    cyc = CycleSpec(channel(j, c3=5.0), 0.0, mw)
    spectra = pair_spectra(rs, thetas, cyc)
    _, wc, ut = spectra
    # |A(t)| <= sum_i |wc_i| |ut_i| for every t
    assert np.all(np.sum(np.abs(wc) * np.abs(ut), axis=1) <= 1.0 + 1e-12)
    for t in (0.0, 0.3, 1.1):
        batched = spectral_amplitudes(spectra, t)
        for i in range(n):
            single = cycle_amplitude_numeric(
                PairGeometry(rs[i], thetas[i], phis[i]),
                CycleSpec(cyc.channel, t, mw),
            )
            assert batched[i] == pytest.approx(single, abs=1e-10)


@pytest.mark.parametrize("pulse_model", ["instantaneous", "finite_duration"])
@pytest.mark.parametrize("j, polarization", ALLOWED_DRIVES)
def test_pair_spectra_equal_the_complex_oracle_at_any_azimuth(pulse_model, j, polarization):
    # the batched kernel drops phi (a gauge); the scalar oracle keeps it, at
    # exchange phases C3 t / R^3 from 0 to about 1e5
    rng = np.random.default_rng(70)
    rs = np.array([1.0, 1.6, 2.5, 4.0, 8.0])
    thetas = rng.uniform(0.0, math.pi, len(rs))
    mw = MicrowaveSpec(rabi=8.0, polarization=polarization, pulse_model=pulse_model)
    cyc = CycleSpec(channel(j, c3=5.0), 0.0, mw)
    spectra = pair_spectra(rs, thetas, cyc)
    for t in (0.0, 0.37, 41.0, 2.0e4):
        batched = spectral_amplitudes(spectra, t)
        for i, phis in enumerate(rng.uniform(0.0, 2.0 * math.pi, (len(rs), 4))):
            phase = cyc.channel.c3 * t / rs[i] ** 3
            for phi in phis:
                single = cycle_amplitude_numeric(PairGeometry(rs[i], thetas[i], phi), CycleSpec(cyc.channel, t, mw))
                assert abs(batched[i] - single) <= 1e-13 * (1.0 + phase)


@pytest.mark.parametrize("j", [0.5, 1.5])
def test_scalar_oracle_holds_at_the_shipped_strength(j):
    # h scales as C3/R^3, so its Hermiticity is checked relative to max|h|; an
    # absolute 1e-12 rejected this pair at the shipped configs' C3 (2.0e5)
    c3 = c3_of(100, InteractionModel(26000.0, 60, 4.0))
    geom = PairGeometry(2.0, 1.0, 0.5)
    cyc = CycleSpec(channel(j, c3=c3), 0.0, MW)
    spectra = pair_spectra(np.array([geom.separation]), np.array([geom.polar_angle]), cyc)
    for t in (0.0, 1e-4, 0.01, 1.0):
        single = cycle_amplitude_numeric(geom, CycleSpec(cyc.channel, t, MW))
        assert abs(spectral_amplitudes(spectra, t)[0] - single) <= 1e-13 * (1.0 + c3 * t / geom.separation**3)


@pytest.mark.parametrize("pulse_model", ["instantaneous", "finite_duration"])
def test_pair_spectra_diagonalize_real_matrices_only(monkeypatch, pulse_model):
    eigh = np.linalg.eigh
    dtypes = []

    def spy(a):
        dtypes.append(np.asarray(a).dtype)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    rng = np.random.default_rng(71)
    cyc = CycleSpec(channel(1.5), 1.0, MicrowaveSpec(rabi=10.0, polarization="sigma_plus", pulse_model=pulse_model))
    pair_spectra(rng.uniform(2.0, 60.0, 600), rng.uniform(0.0, math.pi, 600), cyc)
    assert len(dtypes) == 4  # two chunks, one exchange and one pulse eigh each
    assert all(dtype == np.float64 for dtype in dtypes)


def test_cycle_duration_includes_pulse_area():
    cyc = CycleSpec(channel(), 1.0, MicrowaveSpec(rabi=10.0))
    assert cyc.duration == pytest.approx(1.0 + 2.0 * math.pi / 10.0)
