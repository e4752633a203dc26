import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcas.channel import (
    C_LIGHT,
    _distances,
    _gain,
    Geometry,
    IrsPattern,
    OreGrid,
    PacketChannel,
    calibrate_links,
    composite_channel,
    load_geometry,
    los_links,
    measurement_matrix,
    random_binary_pattern,
    save_geometry,
)
from jcas.harness import ExperimentConfig, build_system, default_geometry
from jcas.scene import RoomSpec, voxel_centers
from jcas.sensing import PacketRecord, sense

# quick and reproducible: a fixed example sequence, no per-example deadline
_props = settings(derandomize=True, deadline=None, max_examples=25)


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
        rows = PacketChannel(links, irs).scatter(x)[r]
        for nu in (0, 4):
            a = measurement_matrix(links, irs, nu, r)
            assert np.allclose(a @ x, rows[nu], rtol=1e-10)


def test_scatter_rows_linear_in_x(links, room):
    rng = np.random.default_rng(3)
    x1 = rng.uniform(0, 1, room.n_voxels)
    x2 = rng.uniform(0, 1, room.n_voxels)
    irs = random_binary_pattern(400, 1, 7)
    ch = PacketChannel(links, irs)
    s1 = ch.scatter(x1)[0]
    s2 = ch.scatter(x2)[0]
    s12 = ch.scatter(np.clip(0.5 * x1 + 0.5 * x2, 0, 1))[0]
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
    assert np.allclose(PacketChannel(links, irs).scatter(x)[r, nu], slow, rtol=1e-10)


def test_composite_channel_empty_scene_is_los_plus_irs(links, room):
    irs = random_binary_pattern(400, 6, 7)
    h = composite_channel(links, irs, np.zeros(room.n_voxels), 0)
    direct = links.h_irs1[0] @ (irs.coefficients[:, None] * links.h_s1[0])
    assert np.allclose(h, links.h_los[0] + direct, rtol=1e-12)


def test_static_channel_plus_scatter_is_composite_bit_for_bit(links, truth):
    irs = random_binary_pattern(400, 4, 7)
    static = PacketChannel(links, irs).static
    assert static.shape == (links.n_ores, links.n_users, links.n_antennas)
    for r in range(links.n_ores):
        assert np.array_equal(
            static[r] + PacketChannel(links, irs).scatter(truth.values)[r],
            composite_channel(links, irs, truth.values, r),
        )


def test_stack_measurements_shapes(links, room, codebook, prior):
    ch = PacketChannel(links, random_binary_pattern(400, 1, 7))
    ores, users = [0, 0, 0], [0, 1, 2]
    h = ch.scatter(np.zeros(room.n_voxels))[ores, users].ravel()
    a = ch.matrices(ores, users)
    assert a.shape == (3, links.n_antennas, room.n_voxels)
    assert h.shape == (3 * links.n_antennas,)
    assert a.reshape(h.size, -1).shape == (3 * links.n_antennas, room.n_voxels)
    # a window without one observed (ORE, user) pair has nothing to stack:
    # an all-zero decode makes every ORE's symbol matrix rank one
    n_t = codebook.max_d_f + 1
    rec = PacketRecord(
        np.zeros((n_t, links.n_ores, links.n_antennas), dtype=complex),
        np.zeros((n_t, links.n_users), dtype=int),
        ch,
    )
    assert not rec.estimate(codebook).observed.any()
    with pytest.raises(ValueError, match="observable"):
        sense([rec], codebook, prior)


def _pattern(rng, n):
    """IRS pattern with amplitudes in [0, 1] and arbitrary phases."""
    return IrsPattern(rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(size=n)))


@_props
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-4, 4), b=st.floats(-4, 4))
def test_packet_channel_scatter_is_linear(links, seed, a, b):
    rng = np.random.default_rng(seed)
    ch = PacketChannel(links, _pattern(rng, 400))
    x1, x2 = rng.uniform(0, 1, (2, links.n_voxels))
    s1, s2 = ch.scatter(x1), ch.scatter(x2)
    err = np.linalg.norm(ch.scatter(a * x1 + b * x2) - (a * s1 + b * s2))
    assert err <= 1e-12 * (abs(a) * np.linalg.norm(s1) + abs(b) * np.linalg.norm(s2))


@_props
@given(
    seed=st.integers(0, 2**32 - 1),
    pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=12),
)
def test_packet_channel_matrices_give_scatter_rows(links, seed, pairs):
    rng = np.random.default_rng(seed)
    ch = PacketChannel(links, _pattern(rng, 400))
    x = rng.uniform(0, 1, links.n_voxels)
    ores, users = np.array(pairs, dtype=int).reshape(-1, 2).T
    a = ch.matrices(ores, users)
    assert a.shape == (len(pairs), links.n_antennas, links.n_voxels)
    assert np.allclose(a @ x, ch.scatter(x)[ores, users], rtol=1e-10)


@_props
@given(seed=st.integers(0, 2**32 - 1))
def test_packet_channel_is_static_plus_scatter_bit_for_bit(links, seed):
    rng = np.random.default_rng(seed)
    ch = PacketChannel(links, _pattern(rng, 400))
    x = rng.uniform(0, 1, links.n_voxels) * (rng.uniform(size=links.n_voxels) < 0.1)
    assert np.array_equal(ch.static + ch.scatter(x), ch.channel(x))


@pytest.mark.parametrize(
    "n_users, n_ores, n_antennas",
    [(6, 4, 4), (20, 7, 4), (6, 4, 16)],
    ids=["converge", "crowded", "sweep"],
)
def test_block_channels_equal_one_pattern_products_bit_for_bit(n_users, n_ores, n_antennas):
    """Each channel of PacketChannel.block, sliced out of the block's
    B*N_R-column GEMMs, equals that pattern's own N_R-column products and
    PacketChannel(links, irs) bit for bit, for blocks of 1 to 16 patterns
    on the three benchmark workloads' shapes."""
    cfg = ExperimentConfig(
        sweep="n_users", values=(n_users,), trials=1, seed=3,
        n_users=n_users, n_ores=n_ores, n_antennas=n_antennas,
    )
    links = build_system(cfg, n_users, 0)[1]
    n_i = links.h_s1.shape[1]
    rng = np.random.default_rng(n_ores * n_antennas)
    for b in range(1, 17):
        # the runner's binary patterns and arbitrary amplitudes and phases
        patterns = [
            random_binary_pattern(n_i, k, 5) if k % 2 else _pattern(rng, n_i) for k in range(b)
        ]
        block = PacketChannel.block(links, patterns)
        assert len(block) == b
        for irs, ch in zip(patterns, block):
            w = irs.coefficients[:, None] * links.h_s1
            alone = PacketChannel(links, irs)
            for arrays in (ch, alone):
                assert np.array_equal(arrays.static, links.h_los + links.h_irs1 @ w)
                assert np.array_equal(arrays.g, (links.h_s2 @ w).transpose(0, 2, 1))
                assert arrays.g.flags.c_contiguous
            assert ch.links is links


def test_packet_channel_boundary_checks(links):
    with pytest.raises(ValueError, match="399 elements"):
        PacketChannel(links, random_binary_pattern(399, 1, 7))
    with pytest.raises(ValueError, match="399 elements"):
        PacketChannel.block(links, [random_binary_pattern(n, 1, 7) for n in (400, 399)])
    ch = PacketChannel(links, random_binary_pattern(400, 1, 7))
    for bad in (np.zeros(links.n_voxels - 1), np.zeros((2, links.n_voxels))):
        with pytest.raises(ValueError, match="length"):
            ch.scatter(bad)
        with pytest.raises(ValueError, match="length"):
            ch.channel(bad)


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


def test_geometry_rejects_non_finite_positions(tmp_path):
    with pytest.raises(ValueError, match=r"users position \(1.0, nan, 1.0\) is not finite"):
        Geometry([[1.0, float("nan"), 1.0]], [[0.0, 0.0, 1.0]], [[1.0, 0.0, 1.0]])
    path = tmp_path / "geom.txt"
    path.write_text("users\n1 2 1\nap\n0 1 2\nirs\n1 0 inf\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: irs position .* not finite"):
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


def _direct_irs_links(geom, spec, freqs):
    """h_s1 and h_s2 computed afresh from the positions and carriers."""
    vox = voxel_centers(spec)
    h_s1 = np.stack([_gain(_distances(geom.irs, geom.ap), f) for f in freqs])
    h_s2 = np.stack([_gain(_distances(vox, geom.irs), f) for f in freqs])
    return h_s1, h_s2


def test_irs_links_shared_and_read_only(geometry, room):
    """h_s1 and h_s2 equal the direct gains, cannot be written, and are the
    same arrays for every user drop in the room."""
    grid = OreGrid.uniform_band(4)
    links = los_links(geometry, room, grid)
    h_s1, h_s2 = _direct_irs_links(geometry, room, grid.frequencies)
    assert np.array_equal(links.h_s1, h_s1)
    assert np.array_equal(links.h_s2, h_s2)
    for h in (links.h_s1, links.h_s2):
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 0, 0] = 0
    moved = Geometry(geometry.users[:3] + 0.1, geometry.ap, geometry.irs)
    other = los_links(moved, room, grid)
    assert other.h_s1 is links.h_s1 and other.h_s2 is links.h_s2
    assert not np.array_equal(other.h_s3, links.h_s3[:, :3])


def test_calibrate_links_shares_irs_links_unchanged(geometry, room):
    raw = los_links(geometry, room, OreGrid.uniform_band(4))
    h_s1, h_s2 = raw.h_s1.copy(), raw.h_s2.copy()
    cal = calibrate_links(raw, random_binary_pattern(400, 0, 7))
    assert cal.h_s1 is raw.h_s1 and cal.h_s2 is raw.h_s2
    assert np.array_equal(raw.h_s1, h_s1) and np.array_equal(raw.h_s2, h_s2)


def test_sweep_points_share_irs_links():
    """default_geometry draws only the users from the seed, so every trial
    and every n_users point of a config shares h_s1 and h_s2; another AP
    array, room or voxel grid gets fresh arrays of its own."""
    cfg = ExperimentConfig(sweep="n_users", values=(4, 6), trials=2, seed=3, n_antennas=4)
    points = [build_system(cfg, v, t)[1] for v in cfg.values for t in range(cfg.trials)]
    first = points[0]
    assert all(p.h_s1 is first.h_s1 and p.h_s2 is first.h_s2 for p in points)
    assert not np.array_equal(points[0].h_s3, points[1].h_s3)  # users differ
    for change in (
        dict(n_antennas=8),
        dict(room=(5.0, 4.0, 4.0)),
        dict(voxel=(0.25, 0.5, 0.5)),
    ):
        base = build_system(cfg, 4, 0)[1]
        changed = replace(cfg, **change)
        links = build_system(changed, 4, 0)[1]
        assert links.h_s1 is not base.h_s1 and links.h_s2 is not base.h_s2
        # the seed draws only the users, which h_s1 and h_s2 do not see
        geom = default_geometry(4, changed.n_antennas, changed.room, seed=0)
        spec = RoomSpec(changed.room, changed.voxel)
        h_s1, h_s2 = _direct_irs_links(geom, spec, OreGrid.uniform_band(4).frequencies)
        assert np.array_equal(links.h_s1, h_s1) and np.array_equal(links.h_s2, h_s2)
