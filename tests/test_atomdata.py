import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ryddephase.atomdata import (
    InteractionModel,
    Level,
    MicrowaveSpec,
    POPULATED_M,
    RydbergChannel,
    c3_of,
    clebsch_gordan,
    coupling_weight,
    pair_dimension,
    single_atom_dimension,
)


def _channel(j=0.5, c3=1.0, n=100):
    return RydbergChannel(Level(n, "s", 0.5), Level(n, "p", j), c3)


# ---------------------------------------------------------------------------
# Level / channel invariants
# ---------------------------------------------------------------------------


def test_level_rejects_bad_quantum_numbers():
    with pytest.raises(ValueError):
        Level(0, "s", 0.5)
    with pytest.raises(ValueError):
        Level(50, "d", 1.5)
    with pytest.raises(ValueError):
        Level(50, "s", 1.5)  # s implies j = 1/2
    with pytest.raises(ValueError):
        Level(50, "p", 2.5)
    with pytest.raises(ValueError):
        Level(50, "p", 1.5, m=2.5)  # |m| > j
    with pytest.raises(ValueError):
        Level(50, "p", 1.5, m=0.0)  # not in the half-integer ladder
    assert Level(50, "p", 1.5, m=-1.5).m == -1.5


def test_channel_requires_positive_c3_and_manifold_levels():
    with pytest.raises(ValueError):
        RydbergChannel(Level(60, "s", 0.5), Level(60, "p", 0.5), 0.0)
    with pytest.raises(ValueError):
        RydbergChannel(Level(60, "s", 0.5), Level(60, "p", 0.5), -1.0)
    with pytest.raises(ValueError):
        RydbergChannel(Level(60, "p", 0.5), Level(60, "p", 0.5), 1.0)
    with pytest.raises(ValueError):
        RydbergChannel(Level(60, "s", 0.5, m=0.5), Level(60, "p", 0.5), 1.0)


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
    assert pair_dimension(_channel(j=0.5)) == 16
    assert pair_dimension(_channel(j=1.5)) == 36
    assert single_atom_dimension(_channel(j=0.5)) == 4
    assert single_atom_dimension(_channel(j=1.5)) == 6


# ---------------------------------------------------------------------------
# Clebsch-Gordan against an independent construction
# ---------------------------------------------------------------------------


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

    Independent of the closed-form factorial sum: builds the coupled basis
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
    for m1 in (-0.5, 0.5):
        for q in (-1, 0, 1):
            m = m1 + q
            if abs(m) > j2:
                continue
            expected = table.get((round(2 * j2), round(2 * m1), round(2 * q)), 0.0)
            got = clebsch_gordan(0.5, m1, 1.0, q, j2, m)
            assert got == pytest.approx(expected, abs=1e-12)


def test_clebsch_gordan_selection_rules():
    assert clebsch_gordan(0.5, 0.5, 1.0, 1.0, 0.5, 1.5) == 0.0  # |m| > j
    assert clebsch_gordan(0.5, 0.5, 1.0, 0.0, 1.5, 1.5) == 0.0  # m1+m2 != m
    assert clebsch_gordan(0.5, 0.5, 1.0, 0.0, 2.5, 0.5) == 0.0  # triangle violated


def test_clebsch_gordan_orthonormality():
    # sum over j of |<j1 m1; j2 m2 | j m>|^2 = 1 for each (m1, m2)
    for m1 in (-0.5, 0.5):
        for q in (-1, 0, 1):
            total = sum(
                clebsch_gordan(0.5, m1, 1.0, q, j, m1 + q) ** 2 for j in (0.5, 1.5)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# coupling weights
# ---------------------------------------------------------------------------


def test_coupling_weight_selection_rule_exhaustive():
    for j in (0.5, 1.5):
        for pol, dm in [("pi", 0.0), ("sigma_plus", 1.0), ("sigma_minus", -1.0)]:
            if abs(POPULATED_M + dm) > j:
                continue  # populated transition forbidden, separate test
            for ms in (-0.5, 0.5):
                for mp in np.arange(-j, j + 0.5, 1.0):
                    s = Level(100, "s", 0.5, ms)
                    p = Level(100, "p", j, float(mp))
                    w = coupling_weight(s, p, pol)
                    if abs((mp - ms) - dm) > 1e-9:
                        assert w == 0.0


def test_coupling_weight_populated_transition_is_unity():
    for j in (0.5, 1.5):
        s = Level(100, "s", 0.5, POPULATED_M)
        p = Level(100, "p", j, POPULATED_M)  # pi polarization, dm = 0
        assert coupling_weight(s, p, "pi") == pytest.approx(1.0, abs=1e-12)


def test_coupling_weight_ratios_match_cg_oracle():
    table = _cg_table_from_diagonalization(0.5, 1.0)

    def oracle(j, ms, q):
        return table.get((round(2 * j), round(2 * ms), round(2 * q)), 0.0)

    for j in (0.5, 1.5):
        ref = oracle(j, POPULATED_M, 0)
        for ms in (-0.5, 0.5):
            s = Level(100, "s", 0.5, ms)
            p = Level(100, "p", j, ms)
            assert coupling_weight(s, p, "pi") == pytest.approx(
                oracle(j, ms, 0) / ref, abs=1e-12
            )


def test_coupling_weight_forbidden_populated_transition_raises():
    # sigma_plus out of m = +1/2 targets m = 3/2, absent for j = 1/2
    s = Level(100, "s", 0.5, -0.5)
    p = Level(100, "p", 0.5, 0.5)
    with pytest.raises(ValueError, match="forbidden"):
        coupling_weight(s, p, "sigma_plus")


def test_microwave_spec_validation():
    with pytest.raises(ValueError):
        MicrowaveSpec(rabi=0.0)
    with pytest.raises(ValueError):
        MicrowaveSpec(rabi=10.0, polarization="linear")
    with pytest.raises(ValueError):
        MicrowaveSpec(rabi=10.0, pulse_model="adiabatic")
    assert MicrowaveSpec(rabi=10.0, polarization="sigma_minus").delta_m == -1.0
