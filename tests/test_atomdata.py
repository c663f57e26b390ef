import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ryddephase.atomdata import (
    InteractionModel,
    MicrowaveSpec,
    POPULATED_M,
    RydbergChannel,
    c3_of,
    single_atom_dimension,
)
from ryddephase.pairdyn import _dipole_blocks, dressing_matrix, single_atom_dressing


def _channel(j=0.5, c3=1.0, n=100):
    return RydbergChannel(n, n, j, c3)


# ---------------------------------------------------------------------------
# channel invariants
# ---------------------------------------------------------------------------


def test_channel_rejects_bad_quantum_numbers():
    with pytest.raises(ValueError, match="principal quantum number must be >= 1, got 0"):
        RydbergChannel(0, 50, 0.5, 1.0)
    with pytest.raises(ValueError, match="principal quantum number must be >= 1, got 0"):
        RydbergChannel(50, 0, 0.5, 1.0)
    with pytest.raises(ValueError, match="j must be a positive half-integer, got 0.7"):
        RydbergChannel(50, 50, 0.7, 1.0)
    with pytest.raises(ValueError, match="j must be a positive half-integer, got -0.5"):
        RydbergChannel(50, 50, -0.5, 1.0)
    with pytest.raises(ValueError, match="p levels carry j = 1/2 or 3/2"):
        RydbergChannel(50, 50, 2.5, 1.0)


def test_channel_snaps_p_j_to_its_half_integer():
    channel = RydbergChannel(100, 100, 1.5000000001, 1.0)
    assert channel.p_j == 1.5
    assert channel == RydbergChannel(100, 100, 1.5, 1.0)
    assert channel.p_key == (100, 1.5)


def test_channel_requires_positive_c3():
    with pytest.raises(ValueError, match="c3 must be positive"):
        RydbergChannel(60, 60, 0.5, 0.0)
    with pytest.raises(ValueError, match="c3 must be positive"):
        RydbergChannel(60, 60, 0.5, -1.0)
    # a non-finite C3 would reach the kernels and fail a trace as a missing pair amplitude
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="c3 must be positive and finite, got"):
            RydbergChannel(60, 60, 0.5, bad)


# ---------------------------------------------------------------------------
# scaling model
# ---------------------------------------------------------------------------


def test_c3_identity_at_reference():
    model = InteractionModel(reference_c3=3.5, reference_n=60)
    assert c3_of(60, model) == 3.5


def test_c3_quartic_ratio():
    # (100/60)^4 = 625/81
    model = InteractionModel(reference_c3=2.0, reference_n=60, scaling_exponent=4.0)
    assert c3_of(100, model) / 2.0 == pytest.approx(625.0 / 81.0, rel=1e-12)


def test_c3_exponent_zero_disables_scaling():
    model = InteractionModel(reference_c3=7.0, reference_n=60, scaling_exponent=0.0)
    for n in (1, 60, 200):
        assert c3_of(n, model) == 7.0


@pytest.mark.parametrize(
    "reference_c3, exponent, n",
    [(2.6e4, 5000.0, 100), (2.6e4, -5000.0, 100), (1e300, 40.0, 100), (2.6e4, 5000.0, 1)],
    ids=["power-overflows", "power-underflows", "product-overflows", "below-reference"],
)
def test_c3_outside_the_float_range_is_a_value_error(reference_c3, exponent, n):
    model = InteractionModel(reference_c3=reference_c3, reference_n=60, scaling_exponent=exponent)
    with pytest.raises(ValueError, match=rf"C3 = (inf|0\.0) at n = {n}, outside the float range"):
        c3_of(n, model)


def test_c3_rejects_nonpositive_reference():
    with pytest.raises(ValueError):
        InteractionModel(reference_c3=0.0, reference_n=60)
    with pytest.raises(ValueError):
        InteractionModel(reference_c3=-2.0, reference_n=60)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
def test_c3_homogeneity(n, k):
    model = InteractionModel(reference_c3=1.0, reference_n=n, scaling_exponent=4.0)
    assert c3_of(k * n, model) == pytest.approx(k**4 * c3_of(n, model), rel=1e-12)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_pair_dimensions():
    # the basis the propagator builds: (2 + (2j + 1))^2 pair states
    assert dressing_matrix(_channel(j=0.5), MicrowaveSpec()).shape == (16, 16)
    assert dressing_matrix(_channel(j=1.5), MicrowaveSpec()).shape == (36, 36)
    assert single_atom_dimension(_channel(j=0.5)) == 4
    assert single_atom_dimension(_channel(j=1.5)) == 6


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients of the dipole blocks against an independent construction
# ---------------------------------------------------------------------------

S_M = (-0.5, 0.5)  # the s sublevels, at single-atom indices 0 and 1


def _block_entry(j, m1, q):
    """<1/2 m1; 1 q | j m1 + q> as pairdyn._dipole_blocks writes it: row p(m1 + q), column s(m1)."""
    return _dipole_blocks(_channel(j))[q][round(2 + m1 + q + j), S_M.index(m1)]


def _angular_momentum_matrices(j):
    dim = int(round(2 * j + 1))
    ms = np.array([j - k for k in range(dim)])  # descending m
    jz = np.diag(ms)
    jp = np.zeros((dim, dim))
    for k in range(1, dim):
        m = ms[k]
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m * (m + 1))
    jm = jp.T
    return jz, jp, jm, ms


def _cg_table_from_diagonalization(j1, j2):
    """CG coefficients from simultaneous diagonalization of J^2 and Jz.

    Independent of the closed form in the dipole blocks: builds the coupled basis
    from ladder-operator matrix elements and fixes signs by the standard
    highest-m1 > 0 convention.
    """
    jz1, jp1, jm1, ms1 = _angular_momentum_matrices(j1)
    jz2, jp2, jm2, ms2 = _angular_momentum_matrices(j2)
    d1, d2 = len(ms1), len(ms2)
    eye1, eye2 = np.eye(d1), np.eye(d2)
    jz = np.kron(jz1, eye2) + np.kron(eye1, jz2)
    jp = np.kron(jp1, eye2) + np.kron(eye1, jp2)
    jm = jp.T
    j2op = jm @ jp + jz @ (jz + np.eye(d1 * d2))
    table = {}
    m_product = np.array([[m1, m2] for m1 in ms1 for m2 in ms2])
    total_m = m_product.sum(axis=1)
    for m in np.unique(total_m):
        idx = np.where(np.abs(total_m - m) < 1e-9)[0]
        block = j2op[np.ix_(idx, idx)]
        vals, vecs = np.linalg.eigh(block)
        for col in range(len(idx)):
            jj = 0.5 * (-1 + math.sqrt(1 + 4 * vals[col]))
            vec = vecs[:, col]
            # Condon-Shortley: component with the largest m1 is positive
            ordered = sorted(
                range(len(idx)), key=lambda t: (-m_product[idx[t], 0], -m_product[idx[t], 1])
            )
            for t in ordered:
                if abs(vec[t]) > 1e-9:
                    if vec[t] < 0:
                        vec = -vec
                    break
            for t, i_flat in enumerate(idx):
                m1, m2 = m_product[i_flat]
                table[(round(2 * jj), round(2 * m1), round(2 * m2))] = vec[t]
    return table


@pytest.mark.parametrize("j2", [0.5, 1.5])
def test_clebsch_gordan_matches_diagonalization_oracle(j2):
    table = _cg_table_from_diagonalization(0.5, 1.0)
    # reinterpret: we couple j1=1/2 with j2=1 into j in {1/2, 3/2}
    for m1 in S_M:
        for q in (-1, 0, 1):
            if abs(m1 + q) > j2:
                continue
            expected = table.get((round(2 * j2), round(2 * m1), round(2 * q)), 0.0)
            assert _block_entry(j2, m1, q) == pytest.approx(expected, abs=1e-12)


def test_clebsch_gordan_selection_rules():
    # each block q holds an entry only at p(m1 + q), s(m1), with |m1 + q| <= j
    for j in (0.5, 1.5):
        for q, up in _dipole_blocks(_channel(j)).items():
            allowed = np.zeros_like(up, dtype=bool)
            for i_s, m1 in enumerate(S_M):
                if abs(m1 + q) <= j:
                    allowed[round(2 + m1 + q + j), i_s] = True
            assert np.all(up[~allowed] == 0.0)
            assert np.all(up[allowed] != 0.0)


def test_clebsch_gordan_orthonormality():
    # sum over j of |<j1 m1; j2 m2 | j m>|^2 = 1 for each (m1, m2)
    for m1 in S_M:
        for q in (-1, 0, 1):
            total = sum(_block_entry(j, m1, q) ** 2 for j in (0.5, 1.5) if abs(m1 + q) <= j)
            assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# microwave drive on one atom
# ---------------------------------------------------------------------------

RABI = 10.0


def _s_index(m):
    return round(m + 0.5)  # single-atom basis [s -1/2, s +1/2, p -j, ..., p +j]


def _p_index(m, j):
    return round(2 + m + j)


def test_single_atom_dressing_selection_rule_exhaustive():
    for j in (0.5, 1.5):
        for pol, dm in [("pi", 0.0), ("sigma_plus", 1.0), ("sigma_minus", -1.0)]:
            if abs(POPULATED_M + dm) > j:
                continue  # populated transition forbidden, separate test
            h = single_atom_dressing(_channel(j), MicrowaveSpec(RABI, pol))
            for ms in (-0.5, 0.5):
                for mp in np.arange(-j, j + 0.5, 1.0):
                    i, k = _s_index(ms), _p_index(mp, j)
                    assert h[k, i] == h[i, k]
                    if abs((mp - ms) - dm) > 1e-9:
                        assert h[k, i] == 0.0
            # no s-s or p-p element: the drive only moves an atom between s and p
            assert not h[:2, :2].any() and not h[2:, 2:].any()


def test_single_atom_dressing_populated_entry_is_minus_half_rabi():
    for j in (0.5, 1.5):
        for pol, dm in [("pi", 0.0), ("sigma_minus", -1.0)]:
            h = single_atom_dressing(_channel(j), MicrowaveSpec(RABI, pol))
            i, k = _s_index(POPULATED_M), _p_index(POPULATED_M + dm, j)
            assert h[k, i] == pytest.approx(-0.5 * RABI, abs=1e-12)


def test_single_atom_dressing_ratios_match_cg_oracle():
    table = _cg_table_from_diagonalization(0.5, 1.0)

    def oracle(j, ms, q):
        return table.get((round(2 * j), round(2 * ms), round(2 * q)), 0.0)

    for j in (0.5, 1.5):
        ref = oracle(j, POPULATED_M, 0)
        h = single_atom_dressing(_channel(j), MicrowaveSpec(RABI, "pi"))
        for ms in (-0.5, 0.5):
            assert h[_p_index(ms, j), _s_index(ms)] / (-0.5 * RABI) == pytest.approx(
                oracle(j, ms, 0) / ref, abs=1e-12
            )


def test_single_atom_dressing_forbidden_populated_transition_raises():
    # sigma_plus out of m = +1/2 targets m = 3/2, absent for j = 1/2
    with pytest.raises(ValueError, match="forbidden"):
        single_atom_dressing(_channel(0.5), MicrowaveSpec(RABI, "sigma_plus"))


def test_microwave_spec_validation():
    with pytest.raises(ValueError):
        MicrowaveSpec(rabi=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="rabi must be positive and finite, got"):
            MicrowaveSpec(rabi=bad)
    with pytest.raises(ValueError):
        MicrowaveSpec(rabi=10.0, polarization="linear")
    with pytest.raises(ValueError):
        MicrowaveSpec(rabi=10.0, pulse_model="adiabatic")
    assert MicrowaveSpec(rabi=10.0, polarization="sigma_minus").delta_m == -1.0
    assert MicrowaveSpec() == MicrowaveSpec(rabi=10.0, polarization="pi", pulse_model="instantaneous")
