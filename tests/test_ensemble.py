import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ryddephase.ensemble import (
    EnsembleSpec,
    PackingError,
    pair_geometry,
    pair_index_arrays,
    pair_orientations,
    pair_separations,
    sample_positions,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(1, 60.0, 0)
    with pytest.raises(ValueError):
        EnsembleSpec(10, -1.0, 0)
    with pytest.raises(ValueError):
        EnsembleSpec(10, 60.0, 0, min_separation=0.0)
    with pytest.raises(ValueError):
        EnsembleSpec(10, 60.0, -5)


def test_two_atoms_contained_and_separated():
    positions = sample_positions(EnsembleSpec(2, 60.0, seed=123))
    assert positions.shape == (2, 3)
    assert np.all(positions >= 0.0) and np.all(positions <= 60.0)
    assert np.linalg.norm(positions[0] - positions[1]) >= 0.1


def test_sampled_positions_are_read_only():
    positions = sample_positions(EnsembleSpec(5, 60.0, seed=4))
    assert not positions.flags.writeable
    with pytest.raises(ValueError):
        positions[0, 0] = 1.0


def test_determinism_bit_identical():
    a = sample_positions(EnsembleSpec(50, 60.0, seed=987654321))
    b = sample_positions(EnsembleSpec(50, 60.0, seed=987654321))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = sample_positions(EnsembleSpec(50, 60.0, seed=1))
    b = sample_positions(EnsembleSpec(50, 60.0, seed=2))
    assert not np.array_equal(a, b)


def test_min_separation_enforced():
    spec = EnsembleSpec(80, 10.0, seed=5, min_separation=1.0)
    positions = sample_positions(spec)
    assert pair_separations(positions).min() >= 1.0


def test_impossible_packing_raises_diagnostic():
    # 500 atoms with 2 um exclusion cannot fit a 4 um cube
    with pytest.raises(RuntimeError, match="could not place"):
        sample_positions(EnsembleSpec(500, 4.0, seed=5, min_separation=2.0))


def sequential_sample_positions(spec):
    """Rejection one candidate at a time: the stream sample_positions must reproduce."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, eps = spec.n_atoms, spec.min_separation
    points = np.empty((n, 3))
    placed = attempts = 0
    while placed < n:
        if attempts >= 1000 * n:
            raise PackingError(
                f"could not place {n} atoms with min separation {eps} um in a "
                f"{spec.box_side} um cube after {attempts} draws "
                f"({placed} placed); lower the density or min_separation"
            )
        candidate = rng.uniform(0.0, spec.box_side, size=3)
        attempts += 1
        if placed and np.sum((points[:placed] - candidate) ** 2, axis=1).min() < eps * eps:
            continue
        points[placed] = candidate
        placed += 1
    return points


@pytest.mark.parametrize(
    "n, box, min_sep",
    [
        (2, 60.0, 0.1),
        (100, 60.0, 0.1),  # dilute: the first n draws all pass
        (300, 60.0, 0.1),
        (100, 60.0, 3.0),  # some of the first n draws collide with each other
        (200, 20.0, 1.5),  # dense: many blocks, many rejections
        (30, 3.0, 1.0),  # barely possible
    ],
)
def test_sample_positions_equal_sequential_rejection(n, box, min_sep):
    for seed in (1, 11, 2**63 + 5):
        spec = EnsembleSpec(n, box, seed, min_separation=min_sep)
        assert np.array_equal(sample_positions(spec), sequential_sample_positions(spec))


@pytest.mark.parametrize("n, box, min_sep, seed", [(20, 2.0, 1.5, 7), (40, 2.0, 1.0, 3)])
def test_impossible_packing_fails_as_sequential_rejection_does(n, box, min_sep, seed):
    spec = EnsembleSpec(n, box, seed, min_separation=min_sep)
    with pytest.raises(PackingError) as want:
        sequential_sample_positions(spec)
    with pytest.raises(PackingError) as got:
        sample_positions(spec)
    assert str(got.value) == str(want.value)
    assert f"after {1000 * n} draws" in str(got.value)


def test_all_separations_within_bounds():
    spec = EnsembleSpec(100, 60.0, seed=77)
    positions = sample_positions(spec)
    r = pair_separations(positions)
    assert len(r) == 100 * 99 // 2
    assert r.min() >= spec.min_separation
    assert r.max() <= math.sqrt(3.0) * 60.0


def test_mean_pair_separation_matches_uniform_cube_constant():
    """Empirical mean distance vs an independent plain-uniform estimate.

    The package sampler (with its tiny exclusion radius) and a direct uniform
    sampler must agree on the mean pair distance, about 0.6617 L.
    """
    n, L = 100, 60.0
    means = []
    for seed in range(40):
        positions = sample_positions(EnsembleSpec(n, L, seed=seed))
        means.append(pair_separations(positions).mean())
    measured = float(np.mean(means))

    rng = np.random.Generator(np.random.PCG64(991199))
    ref = []
    for _ in range(40):
        pts = rng.uniform(0.0, L, size=(n, 3))
        d = pts[:, None, :] - pts[None, :, :]
        r = np.sqrt((d**2).sum(-1))
        ref.append(r[np.triu_indices(n, 1)].mean())
    reference = float(np.mean(ref))

    assert measured == pytest.approx(reference, rel=0.01)
    assert measured == pytest.approx(0.661707 * L, rel=0.01)


def test_pair_geometry_axis_aligned():
    g = pair_geometry((0.0, 0.0, 0.0), (0.0, 0.0, 5.0))
    assert g.separation == pytest.approx(5.0)
    assert g.polar_angle == pytest.approx(math.pi)  # a - b points along -z
    g = pair_geometry((0.0, 0.0, 5.0), (0.0, 0.0, 0.0))
    assert g.polar_angle == pytest.approx(0.0)


def test_pair_geometry_345_triangle():
    g = pair_geometry((3.0, 4.0, 0.0), (0.0, 0.0, 0.0))
    assert g.separation == pytest.approx(5.0)
    assert g.polar_angle == pytest.approx(math.pi / 2)


def test_pair_geometry_rejects_coincident_points():
    with pytest.raises(ValueError):
        pair_geometry((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6))
def test_pair_geometry_swap_symmetry(coords):
    a = np.array(coords[:3])
    b = np.array(coords[3:])
    if np.linalg.norm(a - b) < 1e-6:
        return
    g_ab = pair_geometry(a, b)
    g_ba = pair_geometry(b, a)
    assert g_ba.separation == pytest.approx(g_ab.separation, rel=1e-12)
    assert g_ba.polar_angle == pytest.approx(math.pi - g_ab.polar_angle, abs=1e-9)
    if g_ab.polar_angle > 1e-6 and g_ab.polar_angle < math.pi - 1e-6:
        d_phi = (g_ba.azimuth - g_ab.azimuth) % (2.0 * math.pi)
        assert d_phi == pytest.approx(math.pi, abs=1e-6)


def test_pair_index_arrays_are_condensed_order():
    mu, nu = pair_index_arrays(4)
    assert list(zip(mu.tolist(), nu.tolist())) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]


@pytest.mark.parametrize("n", [2, 3, 41, 300])
def test_pair_separations_equal_scipy_pdist_bit_for_bit(n):
    from scipy.spatial.distance import pdist

    for seed in (0, 1, 11, 2**63 + 5):
        positions = sample_positions(EnsembleSpec(n, 60.0, seed))
        assert pair_separations(positions).tobytes() == pdist(positions).tobytes()


def test_all_pair_geometries_matches_condensed_distances():
    # pair_orientations lists every mu < nu pair in condensed order
    positions = sample_positions(EnsembleSpec(10, 30.0, seed=3))
    r, theta = pair_orientations(positions)
    assert np.allclose(r, pair_separations(positions))
    mu, nu = pair_index_arrays(len(positions))
    for k in range(len(mu)):
        g = pair_geometry(positions[mu[k]], positions[nu[k]])
        assert (r[k], theta[k]) == pytest.approx((g.separation, g.polar_angle), rel=1e-12)
