import numpy as np
import pytest

from jcas.channel import (
    C_LIGHT,
    _distances,
    Geometry,
    IrsPattern,
    OreGrid,
    calibrate_links,
    composite_channel,
    load_geometry,
    los_links,
    measurement_matrix,
    random_binary_pattern,
    save_geometry,
    scatter_rows,
    stack_measurements,
    static_channel,
)
from jcas.scene import voxel_centers


def test_ore_grid_uniform_band():
    g = OreGrid.uniform_band(4)
    assert np.allclose(g.frequencies, np.linspace(28e9, 30e9, 4))
    # single carrier sits at the band midpoint
    assert np.allclose(OreGrid.uniform_band(1).frequencies, [29e9])
    with pytest.raises(ValueError):
        OreGrid.uniform_band(0)


def test_irs_pattern_amplitude_bound():
    IrsPattern(np.exp(1j * np.linspace(0, 2, 5)))
    with pytest.raises(ValueError):
        IrsPattern(np.array([1.2 + 0j]))


def test_random_binary_pattern_is_keyed_and_binary():
    a = random_binary_pattern(50, packet=3, seed=9)
    b = random_binary_pattern(50, packet=3, seed=9)
    c = random_binary_pattern(50, packet=4, seed=9)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert not np.array_equal(a.coefficients, c.coefficients)
    assert set(np.unique(a.coefficients)) <= {-1 + 0j, 1 + 0j}


def test_free_space_gain_oracle(room):
    """Single user/antenna/frequency: amplitude c/(4 pi d f), phase -2 pi f d / c."""
    geom = Geometry([[1.0, 1.0, 1.0]], [[3.0, 1.0, 1.0]], [[2.0, 3.0, 2.0]])
    f = 29e9
    links = los_links(geom, room, OreGrid([f]))
    d = 2.0  # user-AP distance
    expect = C_LIGHT / (4 * np.pi * d * f) * np.exp(-2j * np.pi * f * d / C_LIGHT)
    assert np.allclose(links.h_los[0, 0, 0], expect, rtol=1e-12)


def test_los_links_rejects_degenerate_geometry(room):
    # user on top of the AP antenna
    geom = Geometry([[1.0, 1.0, 1.0]], [[1.0, 1.0, 1.2]], [[2.0, 3.0, 2.0]])
    with pytest.raises(ValueError, match="degenerate"):
        los_links(geom, room, OreGrid.uniform_band(2))


def test_los_links_rejects_outside_positions(room):
    geom = Geometry([[5.0, 1.0, 1.0]], [[3.0, 1.0, 1.0]], [[2.0, 3.0, 2.0]])
    with pytest.raises(ValueError, match="inside"):
        los_links(geom, room, OreGrid.uniform_band(2))


def test_calibration_targets_hit(geometry, room):
    raw = los_links(geometry, room, OreGrid.uniform_band(4))
    ref = random_binary_pattern(400, 0, 7)
    cal = calibrate_links(raw, ref)
    assert np.isclose(np.sqrt(np.mean(np.abs(cal.h_los) ** 2)), 1.0)
    prods = np.stack(
        [
            cal.h_irs1[r] @ (ref.coefficients[:, None] * cal.h_s1[r])
            for r in range(4)
        ]
    )
    assert np.isclose(np.sqrt(np.mean(np.abs(prods) ** 2)), 0.3)


def test_calibration_preserves_ratios(geometry, room):
    raw = los_links(geometry, room, OreGrid.uniform_band(4))
    cal = calibrate_links(raw, random_binary_pattern(400, 0, 7))
    ratio = cal.h_los / raw.h_los
    assert np.allclose(ratio, ratio.flat[0])


def test_measurement_matrix_matches_scatter_rows(links, room):
    """A @ x must equal the user's composite scatter row, the core CS identity."""
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, room.n_voxels)
    irs = random_binary_pattern(400, 5, 7)
    for r in (0, 3):
        rows = scatter_rows(links, irs, x, r)
        for nu in (0, 4):
            a = measurement_matrix(links, irs, nu, r)
            assert np.allclose(a @ x, rows[nu], rtol=1e-10)


def test_scatter_rows_linear_in_x(links, room):
    rng = np.random.default_rng(3)
    x1 = rng.uniform(0, 1, room.n_voxels)
    x2 = rng.uniform(0, 1, room.n_voxels)
    irs = random_binary_pattern(400, 1, 7)
    s1 = scatter_rows(links, irs, x1, 0)
    s2 = scatter_rows(links, irs, x2, 0)
    s12 = scatter_rows(links, irs, np.clip(0.5 * x1 + 0.5 * x2, 0, 1), 0)
    assert np.allclose(s12, 0.5 * s1 + 0.5 * s2, rtol=1e-10)


def test_scatter_row_direct_oracle(links, room):
    """Row nu equals x^T diag(h_s3) h_s2 Theta h_s1 computed the slow way."""
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, room.n_voxels)
    irs = random_binary_pattern(400, 2, 7)
    r, nu = 1, 2
    slow = (
        (x * links.h_s3[r, nu])
        @ links.h_s2[r]
        @ np.diag(irs.coefficients)
        @ links.h_s1[r]
    )
    assert np.allclose(scatter_rows(links, irs, x, r)[nu], slow, rtol=1e-10)


def test_composite_channel_empty_scene_is_los_plus_irs(links, room):
    irs = random_binary_pattern(400, 6, 7)
    h = composite_channel(links, irs, np.zeros(room.n_voxels), 0)
    direct = links.h_irs1[0] @ (irs.coefficients[:, None] * links.h_s1[0])
    assert np.allclose(h, links.h_los[0] + direct, rtol=1e-12)


def test_static_channel_plus_scatter_is_composite_bit_for_bit(links, truth):
    irs = random_binary_pattern(400, 4, 7)
    static = static_channel(links, irs)
    assert static.shape == (links.n_ores, links.n_users, links.n_antennas)
    for r in range(links.n_ores):
        assert np.array_equal(
            static[r] + scatter_rows(links, irs, truth.values, r),
            composite_channel(links, irs, truth.values, r),
        )


def test_stack_measurements_shapes(links, room):
    irs = random_binary_pattern(400, 1, 7)
    x = np.zeros(room.n_voxels)
    rows = [scatter_rows(links, irs, x, 0)[nu] for nu in range(3)]
    mats = [measurement_matrix(links, irs, nu, 0) for nu in range(3)]
    h, a = stack_measurements(rows, mats)
    assert h.shape == (3 * links.n_antennas,)
    assert a.shape == (3 * links.n_antennas, room.n_voxels)
    with pytest.raises(ValueError):
        stack_measurements([], [])


def test_geometry_roundtrip(tmp_path, geometry):
    path = tmp_path / "geom.txt"
    save_geometry(path, geometry)
    back = load_geometry(path)
    assert np.array_equal(back.users, geometry.users)
    assert np.array_equal(back.ap, geometry.ap)
    assert np.array_equal(back.irs, geometry.irs)


def test_geometry_load_errors(tmp_path):
    path = tmp_path / "geom.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        load_geometry(path)
    path.write_text("users\n1 2 3\nap\n0 1 2\n")  # missing irs
    with pytest.raises(ValueError):
        load_geometry(path)


def test_voxel_links_cover_all_voxels(links, room):
    assert links.n_voxels == room.n_voxels
    assert links.h_s2.shape == (4, 512, 400)
    centers = voxel_centers(room)
    assert centers.shape == (512, 3)


def test_distances_match_scipy_cdist(geometry, room):
    """los_links' numpy distances are bit-equal to scipy's cdist, so links and
    scene files do not depend on which one computed them."""
    from scipy.spatial.distance import cdist

    vox = voxel_centers(room)
    for a, b in ((geometry.users, geometry.ap), (geometry.irs, geometry.ap), (vox, geometry.irs)):
        assert np.array_equal(_distances(a, b), cdist(a, b))
