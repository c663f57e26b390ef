import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from ryddephase.phasematch import (
    Beam,
    EPS_K,
    PhaseMatchInfeasible,
    motional_coherence_time,
    solve_offaxis,
    spinwave_period,
    wavevector_mismatch,
)

Z = np.array([0.0, 0.0, 1.0])

LADDER = [795.0, 1475.0, 2294.0, 1005.0]
LADDER_SIGNS = [1, -1, 1, -1]


def ladder_beams():
    return [Beam(w, s, Z) for w, s in zip(LADDER, LADDER_SIGNS)]


def test_beam_validation():
    with pytest.raises(ValueError):
        Beam(-5.0, 1, Z)
    with pytest.raises(ValueError):
        Beam(780.0, 2, Z)
    with pytest.raises(ValueError):
        Beam(780.0, 1, np.array([0.0, 0.0, 1.0 + 1e-6]))


def test_opposite_identical_beams_cancel():
    beams = [Beam(795.0, 1, Z), Beam(795.0, -1, Z)]
    assert np.allclose(wavevector_mismatch(beams), 0.0)
    assert spinwave_period(wavevector_mismatch(beams)) == math.inf


def test_collinear_four_photon_ladder():
    dk = wavevector_mismatch(ladder_beams())
    # 2 pi (1/795 - 1/1475 + 1/2294 - 1/1005) per nm, in rad/um
    expected = 2000.0 * math.pi * (1 / 795.0 - 1 / 1475.0 + 1 / 2294.0 - 1 / 1005.0)
    assert np.linalg.norm(dk) == pytest.approx(expected, rel=1e-12)
    assert np.linalg.norm(dk) == pytest.approx(0.13063, abs=1e-5)
    assert spinwave_period(dk) == pytest.approx(48.099, abs=1e-3)


def test_two_photon_counterpropagating_analog():
    beams = [Beam(780.0, 1, Z), Beam(480.0, -1, Z)]
    period = spinwave_period(wavevector_mismatch(beams))
    assert period == pytest.approx(1.248, abs=1e-3)
    tau = motional_coherence_time(period, 0.1)
    assert tau == pytest.approx(1.986, abs=1e-3)
    assert abs(tau - 2.0) / 2.0 < 0.2


def test_period_edge_cases():
    assert spinwave_period(np.array([0.0, 0.0, 2.0 * math.pi])) == pytest.approx(1.0)
    assert spinwave_period(np.zeros(3)) == math.inf
    assert spinwave_period(np.array([0.0, 0.0, 0.5 * EPS_K])) == math.inf


def test_coherence_time_edge_cases():
    assert motional_coherence_time(2.0 * math.pi, 1.0) == pytest.approx(1.0)
    assert motional_coherence_time(math.inf, 0.1) == math.inf
    with pytest.raises(ValueError):
        motional_coherence_time(1.0, 0.0)
    with pytest.raises(ValueError):
        motional_coherence_time(-1.0, 0.1)


# ---------------------------------------------------------------------------
# linearity and covariance
# ---------------------------------------------------------------------------


def test_mismatch_is_additive_over_concatenation():
    part1 = ladder_beams()[:2]
    part2 = ladder_beams()[2:]
    total = wavevector_mismatch(ladder_beams())
    assert np.allclose(total, wavevector_mismatch(part1) + wavevector_mismatch(part2))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_rotational_covariance(seed):
    rng = np.random.default_rng(seed)
    rot = Rotation.random(rng=rng).as_matrix()
    dirs = rng.normal(size=(4, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    beams = [Beam(w, s, d) for w, s, d in zip(LADDER, LADDER_SIGNS, dirs)]
    rotated = [Beam(w, s, rot @ d / np.linalg.norm(rot @ d)) for w, s, d in zip(LADDER, LADDER_SIGNS, dirs)]
    dk = wavevector_mismatch(beams)
    dk_rot = wavevector_mismatch(rotated)
    assert np.allclose(dk_rot, rot @ dk, atol=1e-9)
    assert spinwave_period(dk) == pytest.approx(spinwave_period(dk_rot), rel=1e-9)


# ---------------------------------------------------------------------------
# off-axis zero-mismatch geometry
# ---------------------------------------------------------------------------


def test_offaxis_solution_for_ladder():
    directions, angles, residual = solve_offaxis(LADDER, LADDER_SIGNS)
    assert residual <= 1e-9
    assert angles[0] == 0.0
    assert np.allclose(np.linalg.norm(directions, axis=1), 1.0)
    # independent recheck through the public mismatch path
    beams = [Beam(w, s, d) for w, s, d in zip(LADDER, LADDER_SIGNS, directions)]
    dk = wavevector_mismatch(beams)
    assert np.linalg.norm(dk) <= 1e-9
    assert spinwave_period(dk) == math.inf


def test_offaxis_equal_wavelengths_stay_collinear():
    directions, angles, residual = solve_offaxis([800.0] * 4, [1, -1, 1, -1])
    assert residual <= 1e-9
    assert np.allclose(angles, 0.0)
    assert np.allclose(directions, np.tile(Z, (4, 1)))


def test_offaxis_all_absorbing_is_infeasible():
    with pytest.raises(PhaseMatchInfeasible, match="residual"):
        solve_offaxis(LADDER, [1, 1, 1, 1])


def test_offaxis_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        solve_offaxis([795.0, 1475.0], [1, -1, 1])


def test_offaxis_two_beams():
    # two beams close only when their wavenumbers are equal
    _, angles, residual = solve_offaxis([780.0, 780.0], [1, -1])
    assert residual <= 1e-9
    assert np.allclose(angles, 0.0)
    with pytest.raises(PhaseMatchInfeasible):
        solve_offaxis([780.0, 480.0], [1, -1])


# (wavelengths in nm, signs, feasible), recorded from the multi-start
# Nelder-Mead solver that Gauss-Newton replaced: default_rng(2026), 3-5 beams,
# integer wavelengths in [400, 2400], random signs.  Its smallest residual on
# an infeasible case was 0.136 rad/um, far above EPS_K.
RECORDED_VERDICTS = [
    ([758, 452, 1680, 1131, 1335], [-1, -1, 1, -1, 1], False),
    ([1809, 2211, 1843, 754, 2117], [1, -1, -1, -1, 1], True),
    ([2240, 965, 1672, 1608, 1906], [-1, 1, 1, 1, 1], False),
    ([1320, 1077, 714, 956], [-1, -1, 1, 1], True),
    ([1262, 941, 1727], [1, -1, -1], False),
    ([2382, 1130, 730, 790], [-1, 1, -1, -1], True),
    ([1000, 2330, 819, 2271], [1, 1, 1, 1], False),
    ([813, 1090, 1326, 2294], [1, 1, 1, -1], False),
    ([2201, 408, 1039, 1217], [1, -1, -1, -1], False),
    ([611, 1802, 1256], [-1, 1, -1], False),
    ([1560, 1653, 778, 710], [1, 1, 1, -1], True),
    ([469, 1144, 1117, 1240], [1, -1, 1, -1], False),
    ([1751, 1996, 1554], [1, -1, 1], False),
    ([477, 1988, 2147], [1, 1, -1], False),
    ([1400, 1007, 586, 749, 2210], [-1, 1, -1, -1, -1], True),
    ([1802, 1860, 1874, 1028], [-1, 1, 1, -1], False),
    ([1949, 1442, 2317], [1, 1, 1], False),
    ([996, 720, 610, 2295], [-1, -1, -1, -1], False),
    ([963, 604, 1744, 519, 1375], [-1, -1, -1, -1, 1], False),
    ([2267, 1383, 1512, 1603], [-1, 1, 1, 1], False),
    ([2237, 745, 776], [-1, 1, -1], False),
    ([1566, 1678, 555, 1719, 539], [1, 1, 1, 1, -1], True),
    ([1599, 1868, 2029, 1348, 669], [1, 1, -1, -1, -1], True),
    ([1069, 535, 969, 1614, 1582], [1, -1, 1, 1, -1], True),
    ([1712, 1601, 1076], [1, 1, 1], False),
    ([1343, 960, 1068], [-1, -1, -1], False),
    ([1510, 1243, 863, 2279, 1432], [1, 1, 1, 1, 1], False),
    ([1955, 1037, 2119, 1027], [-1, -1, -1, 1], True),
    ([2040, 911, 1346], [-1, 1, -1], True),
    ([2252, 1798, 1461, 1890, 1337], [1, -1, -1, -1, 1], True),
    ([1835, 2281, 2085, 2232, 1087], [1, 1, 1, 1, 1], False),
    ([673, 603, 405, 1106], [-1, 1, -1, -1], False),
    ([627, 1715, 1135], [1, -1, 1], False),
    ([518, 2229, 1119], [-1, -1, 1], False),
    ([877, 1752, 1736], [-1, -1, -1], False),
    ([933, 1246, 656, 767, 1733], [1, 1, 1, -1, -1], True),
    ([881, 1362, 1963], [-1, -1, -1], False),
    ([1493, 2331, 1551], [-1, 1, -1], False),
    ([1332, 1127, 815, 752, 1070], [-1, 1, 1, 1, -1], True),
    ([1523, 547, 2134, 2107, 976], [-1, -1, 1, 1, -1], False),
    ([1836, 760, 1838, 850], [1, -1, 1, 1], True),
    ([2014, 1657, 1352], [1, 1, -1], False),
    ([1726, 1211, 1043], [1, -1, 1], False),
    ([413, 1324, 1888, 1554], [1, 1, -1, -1], False),
    ([2211, 1567, 756, 2107], [-1, 1, -1, 1], False),
    ([1845, 1704, 444, 813, 2147], [1, -1, 1, 1, 1], False),
    ([556, 1216, 824, 2126], [1, -1, 1, -1], False),
    ([944, 1503, 879], [-1, 1, -1], False),
]


def test_offaxis_verdicts_match_the_recorded_ones():
    differ = []
    for wavelengths, signs, feasible in RECORDED_VERDICTS:
        try:
            solve_offaxis(wavelengths, signs)
        except PhaseMatchInfeasible:
            found = False
        else:
            found = True
        if found != feasible:
            differ.append((wavelengths, signs, feasible))
    assert differ == []


def test_offaxis_ladder_tilts_are_a_gauss_newton_fixed_point():
    _, angles, residual = solve_offaxis(LADDER, LADDER_SIGNS)
    assert residual <= 1e-12
    weights = np.array(LADDER_SIGNS) * 2000.0 * math.pi / np.array(LADDER)
    dk = weights @ np.stack([np.sin(angles), np.cos(angles)], axis=1)
    assert np.linalg.norm(dk) <= 1e-12
    tilts = angles[1:]
    jacobian = weights[1:] * np.stack([np.cos(tilts), -np.sin(tilts)])
    step = np.linalg.lstsq(jacobian, -dk, rcond=None)[0]
    np.testing.assert_allclose(np.clip(tilts + step, -0.5 * math.pi, 0.5 * math.pi), tilts, rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "wavelengths, signs",
    [
        # its answer holds a tilt at -90 deg; clipped full steps converged only linearly there,
        # and the 60-step cap ended them at 8.7e-13 rad/um
        ([933, 1246, 656, 767, 1733], [1, 1, 1, -1, -1]),
        # feasible for Nelder-Mead; no guess converged with clipped full steps
        ([1949, 1052, 1234, 1350, 1106], [-1, 1, -1, -1, -1]),
    ],
    ids=["held-tilt", "found-feasible"],
)
def test_offaxis_converges_to_roundoff_near_the_bound(wavelengths, signs):
    # two more of the default_rng(2026) cases above, past the recorded 48
    _, angles, residual = solve_offaxis(wavelengths, signs)
    weights = np.array(signs) * 2000.0 * math.pi / np.array(wavelengths)
    dk = weights @ np.stack([np.sin(angles), np.cos(angles)], axis=1)
    assert residual <= 1e-13 and np.linalg.norm(dk) <= 1e-13


@pytest.mark.parametrize(
    "wavelengths, signs, message",
    [
        ([795.0, 0.0, 2294.0], [1, -1, 1], "wavelength must be finite and positive"),
        ([795.0, -1475.0, 2294.0], [1, -1, 1], "wavelength must be finite and positive"),
        ([795.0, math.nan, 2294.0], [1, -1, 1], "wavelength must be finite and positive"),
        ([795.0, math.inf, 2294.0], [1, -1, 1], "wavelength must be finite and positive"),
        ([795.0, 1475.0, 2294.0], [1, 0, 1], r"sign must be \+1 or -1"),
        ([795.0, 1475.0, 2294.0], [1, -2, 1], r"sign must be \+1 or -1"),
        ([795.0, 1475.0, 2294.0], [1, 0.5, 1], r"sign must be \+1 or -1"),
        ([795.0, 1475.0, 2294.0], [1, math.nan, 1], r"sign must be \+1 or -1"),
    ],
    ids=["zero-nm", "negative-nm", "nan-nm", "inf-nm", "sign-0", "sign-2", "sign-half", "sign-nan"],
)
def test_offaxis_rejects_bad_beams(wavelengths, signs, message):
    with pytest.raises(ValueError, match=message) as info:
        solve_offaxis(wavelengths, signs)
    assert not isinstance(info.value, PhaseMatchInfeasible)
