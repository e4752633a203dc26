import numpy as np
import pytest

from jcas.scene import (
    RoomSpec,
    ScattererField,
    load_scene,
    random_scene,
    save_scene,
    voxel_centers,
)


def test_grid_shape_and_count(room):
    assert room.grid_shape == (8, 8, 8)
    assert room.n_voxels == 512


def test_room_must_divide_evenly():
    with pytest.raises(ValueError):
        RoomSpec((4.0, 4.0, 4.0), (0.3, 0.5, 0.5))


def test_nonpositive_dimensions_rejected():
    with pytest.raises(ValueError):
        RoomSpec((4.0, -4.0, 4.0), (0.5, 0.5, 0.5))


@pytest.mark.parametrize(
    "room, voxel, match",
    [
        ((np.inf, 4.0, 4.0), (0.5, 0.5, 0.5), "positive and finite"),
        ((np.nan, 4.0, 4.0), (0.5, 0.5, 0.5), "positive and finite"),
        ((4.0, 4.0, 4.0), (np.inf, 0.5, 0.5), "positive and finite"),
        ((4.0, 4.0, 4.0), (1e200, 0.5, 0.5), "room dimension 4.0 holds no voxel of dimension 1e"),
        ((1e200, 4.0, 4.0), (0.5, 0.5, 0.5), "more voxels than an array can hold"),
    ],
)
def test_non_finite_dimensions_and_empty_axes_rejected(room, voxel, match):
    with pytest.raises(ValueError, match=match):
        RoomSpec(room, voxel)


def test_scene_header_with_an_infinite_room_names_the_file(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("room inf 4 4 voxel 0.5 0.5 0.5\n")
    with pytest.raises(ValueError, match=f"{path}: scene header .*positive and finite"):
        load_scene(path)


def test_voxel_center_indexing_is_x_fastest(room):
    # index = ix + nx*(iy + ny*iz) with nx = ny = 8
    centers = voxel_centers(room)
    assert np.allclose(centers[0], [0.25, 0.25, 0.25])
    assert np.allclose(centers[1], [0.75, 0.25, 0.25])
    assert np.allclose(centers[8], [0.25, 0.75, 0.25])
    assert np.allclose(centers[64], [0.25, 0.25, 0.75])
    assert np.allclose(centers[511], [3.75, 3.75, 3.75])


def test_voxel_centers_match_scalar_version(room):
    """Each center is that of the voxel its index unravels to, x fastest."""
    centers = voxel_centers(room)
    assert centers.shape == (512, 3)
    for i in (0, 1, 7, 8, 63, 64, 100, 511):
        cell = np.unravel_index(i, room.grid_shape, order="F")
        assert np.allclose(centers[i], (np.array(cell) + 0.5) * room.voxel_dims)


def test_field_value_range_enforced(room):
    vals = np.zeros(room.n_voxels)
    vals[0] = 1.5
    with pytest.raises(ValueError):
        ScattererField(room, vals)
    vals[0] = -0.1
    with pytest.raises(ValueError):
        ScattererField(room, vals)


def test_field_length_enforced(room):
    with pytest.raises(ValueError):
        ScattererField(room, np.zeros(10))


def test_random_scene_sparsity_and_range(room):
    fld = random_scene(room, 0.015, seed=3)
    # ceil(0.015 * 512) = 8 occupied voxels
    assert np.count_nonzero(fld.values) == 8
    nz = fld.values[fld.values > 0]
    assert np.all(nz > 0) and np.all(nz <= 1)


def test_random_scene_deterministic(room):
    a = random_scene(room, 0.03, seed=11)
    b = random_scene(room, 0.03, seed=11)
    assert np.array_equal(a.values, b.values)
    c = random_scene(room, 0.03, seed=12)
    assert not np.array_equal(a.values, c.values)


def test_random_scene_bad_sparsity(room):
    with pytest.raises(ValueError):
        random_scene(room, 0.0)
    with pytest.raises(ValueError):
        random_scene(room, 1.5)


def test_scene_file_roundtrip(room, tmp_path):
    fld = random_scene(room, 0.03, seed=5)
    path = tmp_path / "scene.txt"
    save_scene(path, fld)
    back = load_scene(path)
    assert back.spec.room_dims == room.room_dims
    assert back.spec.voxel_dims == room.voxel_dims
    assert np.array_equal(back.values, fld.values)


def test_scene_file_roundtrip_non_cubic(tmp_path):
    """On a 6 x 2 x 20 grid a swapped axis in the voxel order shows."""
    spec = RoomSpec((3.0, 2.0, 5.0), (0.5, 1.0, 0.25))
    assert spec.grid_shape == (6, 2, 20)
    cells = np.unravel_index(np.arange(spec.n_voxels), spec.grid_shape, order="F")
    expected = (np.stack(cells, axis=1) + 0.5) * spec.voxel_dims
    assert np.array_equal(voxel_centers(spec), expected)
    fld = random_scene(spec, 0.1, seed=7)
    path = tmp_path / "scene.txt"
    save_scene(path, fld)
    back = load_scene(path, spec)
    assert np.array_equal(back.values, fld.values)
    i = np.flatnonzero(fld.values)[0]
    ix, iy, iz = (int(c[i]) for c in cells)
    assert path.read_text().splitlines()[1].startswith(f"{ix} {iy} {iz} ")


def test_scene_load_spec_mismatch(room, tmp_path):
    fld = random_scene(room, 0.03, seed=5)
    path = tmp_path / "scene.txt"
    save_scene(path, fld)
    with pytest.raises(ValueError):
        load_scene(path, RoomSpec((2.0, 2.0, 2.0), (0.5, 0.5, 0.5)))


def test_scene_load_rejects_bad_lines(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("room 4 4 4 voxel 0.5 0.5 0.5\n9 0 0 0.5\n")
    with pytest.raises(ValueError):
        load_scene(path)
    path.write_text("room 4 4 4 voxel 0.5 0.5 0.5\n0 0 0 1.5\n")
    with pytest.raises(ValueError):
        load_scene(path)
    path.write_text("not a header\n")
    with pytest.raises(ValueError):
        load_scene(path)


def test_scene_load_mismatch_names_both_rooms(room, tmp_path):
    path = tmp_path / "scene.txt"
    save_scene(path, random_scene(room, 0.03, seed=5))
    expected = RoomSpec((4.0, 4.0, 2.0), (0.5, 0.5, 0.25))
    with pytest.raises(ValueError) as err:
        load_scene(path, expected)
    msg = str(err.value)
    assert msg.startswith(f"{path}: ")
    assert "room (4.0, 4.0, 4.0) voxel (0.5, 0.5, 0.5)" in msg
    assert "room (4.0, 4.0, 2.0) voxel (0.5, 0.5, 0.25)" in msg


def test_scene_load_rejects_duplicate_voxel(tmp_path):
    """A voxel listed twice is ambiguous; the error names the second line."""
    path = tmp_path / "scene.txt"
    path.write_text("room 4 4 4 voxel 0.5 0.5 0.5\n1 2 3 0.5\n0 0 0 0.2\n1 2 3 0.7\n")
    with pytest.raises(ValueError, match=r"voxel listed twice: '1 2 3 0\.7'"):
        load_scene(path)
