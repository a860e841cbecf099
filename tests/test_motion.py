import copy
import functools
import math
import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmsim import meshgen, motion
from ccmsim.mesh import load_mesh, tri_areas, validate_mesh

from oracles import active_elements_by_triangle, tri_code_by_lookup

H_ROW = 0.1         # row height of make_strip_square(10)

# random advance sequences: 1-30 steps, each between 0 and 1.5 rows, so a
# step may slip none, one or two rows
advances = st.lists(st.floats(0.0, 1.5 * H_ROW), min_size=1, max_size=30)


def make_state(n=10, n_virt=2):
    mesh = meshgen.make_strip_square(n, n_virt=n_virt)
    state = motion.init_motion(mesh, (0.0, -1.0))
    return mesh, state


def test_init_active_equals_physical():
    mesh, state = make_state()
    act = motion.active_elements(mesh, state)
    npt.assert_array_equal(act, mesh.tri_role_code() != motion.ROLE_CODE["virtual"])


def test_init_rejects_bad_direction():
    mesh = meshgen.make_strip_square(10)
    with pytest.raises(ValueError, match="axis-aligned"):
        motion.init_motion(mesh, (0.6, -0.8))


def test_init_rejects_static_mesh():
    mesh = meshgen.make_unit_square(4)
    with pytest.raises(ValueError, match="strip"):
        motion.init_motion(mesh, (0.0, -1.0))


def test_init_needs_two_virtual_bands():
    mesh = meshgen.make_strip_square(10, n_virt=1)
    with pytest.raises(ValueError, match="virtual"):
        motion.init_motion(mesh, (0.0, -1.0))


@settings(max_examples=25, deadline=None)
@given(ids=st.lists(st.integers(-10**9, 10**9), min_size=4, max_size=4, unique=True))
def test_role_codes_of_sparse_region_ids(ids):
    # regions renumbered to drawn ids, such as 0, 5, 9 and 12: the codes are
    # those of a lookup of each triangle's region in the roles, and the state
    # is the one of the mesh as generated
    mesh = meshgen.make_strip_square(8)
    ref = motion.init_motion(copy.deepcopy(mesh), (0.0, -1.0))
    mesh.tri_region = np.array(ids)[mesh.tri_region]
    mesh.region_roles = {ids[r]: role for r, role in mesh.region_roles.items()}
    validate_mesh(mesh)
    state = motion.init_motion(mesh, (0.0, -1.0))
    assert state.tri_code.dtype == np.int8
    npt.assert_array_equal(state.tri_code, tri_code_by_lookup(mesh))
    npt.assert_array_equal(state.tri_code, ref.tri_code)
    npt.assert_array_equal(state.tri_rows, ref.tri_rows)


def test_zipper_triangle_without_a_static_corner_is_named():
    # two update triangles rewired onto strip triangles: the lower one is named
    mesh = meshgen.make_strip_square(8)
    code = tri_code_by_lookup(mesh)
    upd = np.flatnonzero(code == motion.ROLE_CODE["update"])
    strip = np.flatnonzero(code == motion.ROLE_CODE["strip"])
    mesh.triangles[upd[[7, 3]]] = mesh.triangles[strip[[0, 1]]]
    with pytest.raises(ValueError, match="^update triangle %d has no static node$" % upd[3]):
        motion.init_motion(mesh, (0.0, -1.0))


def test_zero_advance_is_noop():
    mesh, state = make_state()
    before = mesh.nodes.copy()
    tris = mesh.triangles.copy()
    res = motion.advance(mesh, state, 0.0)
    assert res.slips == 0 and res.wrapped_nodes.size == 0
    npt.assert_array_equal(mesh.nodes, before)           # bit-identical
    npt.assert_array_equal(mesh.triangles, tris)


def test_advance_rejects_negative_and_huge():
    mesh, state = make_state()
    with pytest.raises(ValueError):
        motion.advance(mesh, state, -0.01)
    with pytest.raises(ValueError):
        motion.advance(mesh, state, state.circumference / 2)


def test_slip_sequence():
    # h_row = 0.1: slips fire when the accumulated displacement crosses
    # multiples of the row height
    mesh, state = make_state(n=10)
    assert state.h_row == pytest.approx(0.1)
    slips = [motion.advance(mesh, state, 0.04).slips for _ in range(3)]
    assert slips == [0, 0, 1]
    assert state.n_slips == 1
    # displacement since the last slip
    assert state.displacement - state.n_slips * state.h_row == pytest.approx(0.02)


def test_many_small_steps_accumulate():
    mesh, state = make_state(n=10)
    for _ in range(20):
        motion.advance(mesh, state, 0.005)
    assert state.displacement == pytest.approx(0.1, rel=1e-12)
    assert state.n_slips == 1


def test_static_nodes_never_move():
    mesh, state = make_state(n=10)
    in_strip = np.zeros(mesh.n_nodes, dtype=bool)
    in_strip[state.strip_nodes] = True
    before = mesh.nodes[~in_strip].copy()
    for _ in range(7):
        motion.advance(mesh, state, 0.037)
    npt.assert_array_equal(mesh.nodes[~in_strip], before)   # bit-identical


@settings(max_examples=30, deadline=None)
@given(steps=advances)
def test_zipper_areas_preserved_through_slips(steps):
    mesh, state = make_state(n=10)
    assert state.h_row == pytest.approx(H_ROW)
    upd = mesh.tri_role_code() == motion.ROLE_CODE["update"]
    ref = tri_areas(mesh.nodes, mesh.triangles[upd])
    assert np.all(ref > 0)
    for d in steps:
        motion.advance(mesh, state, d)
        areas = tri_areas(mesh.nodes, mesh.triangles[upd])
        npt.assert_allclose(np.sort(areas), np.sort(ref), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(steps=advances)
def test_full_cycle_restores_geometry(steps):
    # one full ring circumference, in any steps, returns every node to its
    # previous ring position and the zipper to its previous connectivity.
    # Positions are compared between a warm-up cycle and the drawn one: the
    # very first advance also normalizes the as-generated virtual row into
    # the canonical interval.  The drawn steps are cut off at one
    # circumference and topped up to it in steps of at most 1.5 rows.
    mesh, state = make_state(n=10, n_virt=2)
    c = state.circumference                                 # 1.2
    for _ in range(12):
        motion.advance(mesh, state, c / 12)
    assert state.n_slips == state.n_lines
    nodes1, tris1 = mesh.nodes.copy(), mesh.triangles.copy()

    done = 0.0
    for step in steps:
        step = min(step, c - done)
        motion.advance(mesh, state, step)
        done += step
    n_top = math.ceil((c - done) / (1.5 * H_ROW))
    for _ in range(n_top):
        motion.advance(mesh, state, (c - done) / n_top)
    assert state.n_slips == 2 * state.n_lines
    # transverse coordinates never change; along the axis, positions agree
    # up to ring equivalence (a row landing exactly on the wrap point may
    # re-enter on either side of the grace interval, one circumference apart)
    npt.assert_array_equal(mesh.nodes[:, 0], nodes1[:, 0])
    d = np.abs(mesh.nodes[:, 1] - nodes1[:, 1])
    ring_dist = np.minimum(d, c - d)
    assert ring_dist.max() < 1e-9
    npt.assert_array_equal(mesh.triangles, tris1)           # zipper back home
    act = motion.active_elements(mesh, state)
    npt.assert_array_equal(act, mesh.tri_role_code() != motion.ROLE_CODE["virtual"])


@settings(max_examples=30, deadline=None)
@given(steps=advances)
def test_no_incremental_drift(steps):
    # the same total displacement reached in different step sequences gives
    # the same coordinates (positions are recomputed from ring ordinates):
    # the drawn steps against their total in as few equal steps as the
    # half-ring limit allows (one, for a total below 0.5)
    mesh_a, state_a = make_state(n=10)
    mesh_b, state_b = make_state(n=10)
    for d in steps:
        motion.advance(mesh_a, state_a, d)
    total = math.fsum(steps)
    n_b = max(1, math.ceil(total / 0.5))
    for _ in range(n_b):
        motion.advance(mesh_b, state_b, total / n_b)
    npt.assert_allclose(mesh_a.nodes, mesh_b.nodes, atol=1e-12)
    npt.assert_array_equal(mesh_a.triangles, mesh_b.triangles)


def test_wrapped_nodes_reappear_at_entry():
    mesh, state = make_state(n=10, n_virt=3)
    wrapped = []
    for _ in range(6):
        res = motion.advance(mesh, state, 0.1)
        wrapped.append(res.wrapped_nodes)
    allw = np.concatenate(wrapped)
    assert allw.size > 0
    # every wrapped node jumped against the motion direction (downward strip:
    # wrapped nodes teleport up past the entry edge)
    assert np.all(mesh.nodes[allw, 1] >= state.w_lo)
    # and nothing wrapped twice within the first half cycle
    assert len(np.unique(allw)) == allw.size


@settings(max_examples=30, deadline=None)
@given(steps=advances)
def test_active_triangles_keep_positive_area(steps):
    mesh, state = make_state(n=10, n_virt=2)
    for d in steps:
        motion.advance(mesh, state, d)
        act = motion.active_elements(mesh, state)
        areas = tri_areas(mesh.nodes, mesh.triangles[act])
        assert np.all(areas > 1e-12)


def test_zipper_triangles_modulo_wrap():
    stat = np.array([100, 101, 102])
    ring = np.array([0, 1, 2, 3])
    t0 = motion.zipper_triangles(stat, ring, j0=0, flip=False)
    t3 = motion.zipper_triangles(stat, ring, j0=4, flip=False)   # full ring
    npt.assert_array_equal(t0, t3)
    assert t0.shape == (4, 3)
    # consecutive shifts move every pairing by one ring node
    t1 = motion.zipper_triangles(stat, ring, j0=1, flip=False)
    assert t1[0, 1] == ring[1]


@functools.lru_cache(maxsize=None)
def band_mesh(name, fixture_dir):
    """Mesh and motion state of a strip square (by its virtual rows) or of a
    bundled mesh, in the as-generated position."""
    if name.startswith("strip"):
        mesh = meshgen.make_strip_square(10, n_virt=int(name[-1]))
        return mesh, motion.init_motion(mesh, (0.0, -1.0))
    mesh = load_mesh(os.path.join(fixture_dir, name + ".mesh"))
    return mesh, motion.init_motion(mesh, (1.0, 0.0) if name == "hotwire" else (0.0, -1.0))


@pytest.mark.parametrize("name", ["strip_2", "strip_3", "probe", "ramp", "hotwire"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_mask_matches_the_triangle_oracle(fixture_dir, name, data):
    # displacements on a row line (where the window's end rows touch its
    # edges), one ulp short of it, and anywhere, over two turns of the ring
    mesh, state = band_mesh(name, fixture_dir)
    h = state.h_row
    k = data.draw(st.integers(1, 2 * state.n_lines), label="rows")
    d = data.draw(st.sampled_from([0.0, k * h, float(np.nextafter(k * h, 0.0))])
                  | st.floats(0.0, 2.0 * state.circumference), label="displacement")
    # the band's position at displacement d, as motion.place sets it
    moved = copy.copy(mesh)
    moved.nodes = mesh.nodes.copy()
    moved.nodes[state.strip_nodes, state.axis] = motion._embed(state, d)
    npt.assert_array_equal(motion.active_elements(moved, state),
                           active_elements_by_triangle(moved, state))


@pytest.mark.parametrize("name", ["strip_2", "strip_3", "probe", "ramp", "hotwire"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_placing_the_band_back_restores_it(fixture_dir, name, data):
    # the band placed at d0, then at d1 more than one slip away on either
    # side (less than half a ring), then at d0 again: its nodes, zippers and
    # slip count are those of the first placement at d0 bit for bit (the
    # as-generated mesh is not: its wrap row sits a circumference away), the
    # two moves' slips cancel and they wrap the same nodes
    mesh, state = copy.deepcopy(band_mesh(name, fixture_dir))
    h, c = state.h_row, state.circumference
    d0 = data.draw(st.integers(0, 2 * state.n_lines).map(lambda k: k * h)
                   | st.floats(0.0, 2.0 * c), label="d0")
    # leave the as-generated position (placing at 0 there changes nothing),
    # then reach d0 in moves shorter than half a ring
    start = h / 2
    motion.place(mesh, state, start)
    n = math.ceil(abs(d0 - start) / (0.4 * c))
    for k in range(1, n + 1):
        motion.place(mesh, state, d0 if k == n else start + (d0 - start) * k / n)
    nodes, triangles, n_slips = mesh.nodes.tobytes(), mesh.triangles.tobytes(), state.n_slips

    same = motion.place(mesh, state, d0)
    assert same.slips == 0 and same.wrapped_nodes.size == 0
    for side in (1.0, -1.0):                 # half a ring or more, either way
        with pytest.raises(ValueError, match="half the ring"):
            motion.place(mesh, state, np.nextafter(d0 + side * c / 2, side * np.inf))
    with pytest.raises(ValueError, match="half the ring"):
        motion.place(mesh, state, math.nan)
    assert mesh.nodes.tobytes() == nodes and mesh.triangles.tobytes() == triangles

    gap = data.draw(st.floats(h, 0.49 * c, exclude_min=True), label="gap")
    d1 = d0 + data.draw(st.sampled_from([1.0, -1.0]), label="side") * gap
    there = motion.place(mesh, state, d1)
    back = motion.place(mesh, state, d0)
    assert there.slips != 0 and there.slips + back.slips == 0
    npt.assert_array_equal(there.wrapped_nodes, back.wrapped_nodes)
    assert mesh.nodes.tobytes() == nodes and mesh.triangles.tobytes() == triangles
    assert state.n_slips == n_slips and state.displacement == d0
