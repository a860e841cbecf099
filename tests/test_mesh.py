import copy
import os
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmsim import meshgen, motion
from ccmsim.driver import SensorLocator, sample_sensors
from ccmsim.mesh import (
    ROLE_CODE,
    ROLES,
    Mesh,
    MeshFormatError,
    load_mesh,
    save_mesh,
    tri_areas,
    validate_mesh,
)

from conftest import _BUILDERS, FIXTURE_DIR
from oracles import BuilderByLoop, load_mesh_by_line, sample_sensors_by_scan


def test_unit_square_counts_and_tags():
    m = meshgen.make_unit_square(4)
    assert m.n_nodes == 25
    assert m.n_triangles == 32
    for tag in ("left", "right", "bottom", "top"):
        assert len(m.tagged_edges(tag)) == 4
    # every tagged edge has unit-square boundary coordinates
    for tag, axis, value in [("left", 0, 0.0), ("right", 0, 1.0),
                             ("bottom", 1, 0.0), ("top", 1, 1.0)]:
        nodes = np.unique(m.tagged_edges(tag))
        npt.assert_allclose(m.nodes[nodes, axis], value, atol=1e-15)


def test_all_triangles_positively_oriented():
    for m in (meshgen.make_unit_square(5), meshgen.make_strip_square(8)):
        code = m.tri_role_code()
        areas = tri_areas(m.nodes, m.triangles)
        assert np.all(areas[code != ROLE_CODE["virtual"]] > 0)


def test_tagged_edges_returns_node_pairs():
    m = meshgen.make_unit_square(3)
    e = m.tagged_edges(("left", "right"))
    assert e.shape == (6, 2)
    assert e.dtype == np.int64
    assert m.tagged_edges("no-such-tag").shape == (0, 2)
    # string and tuple forms agree
    npt.assert_array_equal(m.tagged_edges("left"),
                           m.tagged_edges(("left",)))


def test_save_load_roundtrip(tmp_path):
    m = meshgen.make_strip_square(8, n_virt=3)
    path = tmp_path / "roundtrip.mesh"
    save_mesh(m, path)
    m2 = load_mesh(path)
    npt.assert_array_equal(m.nodes, m2.nodes)          # %.17g is lossless
    npt.assert_array_equal(m.triangles, m2.triangles)
    npt.assert_array_equal(m.tri_region, m2.tri_region)
    npt.assert_array_equal(m.boundary_edges, m2.boundary_edges)
    assert m.boundary_tags == m2.boundary_tags
    assert m.region_roles == m2.region_roles
    assert m2.strip is not None
    assert m2.strip.h_row == m.strip.h_row
    assert m2.strip.n_rows == m.strip.n_rows
    npt.assert_array_equal(m.strip.virtual_rows, m2.strip.virtual_rows)
    for a, b in zip(m.strip.rows, m2.strip.rows):
        npt.assert_array_equal(a, b)


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.mesh"
    p.write_text("CCMMESH 2\nNODES 0\n")
    with pytest.raises(MeshFormatError, match="CCMMESH 1"):
        load_mesh(p)


def test_load_rejects_nonconsecutive_ids(tmp_path):
    p = tmp_path / "bad.mesh"
    p.write_text("CCMMESH 1\nNODES 2\n0 0 0\n2 1 0\n"
                 "TRIANGLES 0\nBOUNDARY 0\nREGION_ROLE 0\n")
    with pytest.raises(MeshFormatError, match="consecutive"):
        load_mesh(p)


def test_load_rejects_unknown_role(tmp_path):
    p = tmp_path / "bad.mesh"
    p.write_text("CCMMESH 1\nNODES 3\n0 0 0\n1 1 0\n2 0 1\n"
                 "TRIANGLES 1\n0 0 1 2 0\nBOUNDARY 0\n"
                 "REGION_ROLE 1\n0 plasma\n")
    with pytest.raises(MeshFormatError, match="plasma"):
        load_mesh(p)


def test_load_rejects_trailing_content(tmp_path):
    p = tmp_path / "bad.mesh"
    p.write_text("CCMMESH 1\nNODES 3\n0 0 0\n1 1 0\n2 0 1\n"
                 "TRIANGLES 1\n0 0 1 2 0\nBOUNDARY 0\n"
                 "REGION_ROLE 1\n0 static\nstray line\n")
    with pytest.raises(MeshFormatError):
        load_mesh(p)


def test_validate_rejects_inverted_triangle():
    m = meshgen.make_unit_square(2)
    m.triangles[0] = m.triangles[0][::-1]       # flip the winding
    with pytest.raises(MeshFormatError, match="non-positive area"):
        validate_mesh(m)


def test_validate_rejects_interior_edge_tagged():
    m = meshgen.make_unit_square(2)
    # tag an interior edge: shared by two triangles
    interior = None
    from collections import Counter
    cnt = Counter()
    for tri in m.triangles:
        a, b, c = sorted(tri)
        for e in ((a, b), (b, c), (a, c)):
            cnt[e] += 1
    for e, k in cnt.items():
        if k == 2:
            interior = e
            break
    m.boundary_edges = np.vstack([m.boundary_edges, interior])
    m.boundary_tags.append("oops")
    with pytest.raises(MeshFormatError, match="oops"):
        validate_mesh(m)


def test_validate_counts_boundary_edges_like_a_loop():
    # roles and boundary-edge counts against a plain loop over the triangles:
    # an interior edge (2), an edge only virtual triangles share (0) and a
    # node pair that is no edge (0); the first wrong edge is the one named
    m = meshgen.make_strip_square(8)
    role = [m.region_roles[int(r)] for r in m.tri_region]
    assert [ROLES[c] for c in m.tri_role_code()] == role
    count = {}
    for tri, r in zip(m.triangles.tolist(), role):
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            count[tuple(sorted(e))] = count.get(tuple(sorted(e)), 0) + (r != "virtual")
    interior = next(e for e, k in count.items() if k == 2)
    virtual = next(e for e, k in count.items() if k == 0)
    for pair, k in ((interior, 2), (virtual[::-1], 0), ((0, m.n_nodes - 1), 0)):
        bad = copy.deepcopy(m)
        bad.boundary_edges = np.vstack([bad.boundary_edges, pair, interior])
        bad.boundary_tags += ["first", "second"]
        with pytest.raises(MeshFormatError, match=r"^boundary edge \(%d,%d\) tag 'first' belongs "
                           r"to %d non-virtual triangles, expected 1$" % (*pair, k)):
            validate_mesh(bad)


def test_validate_rejects_uneven_strip_rows():
    m = meshgen.make_strip_square(8)
    m.strip.h_row *= 1.5
    with pytest.raises(MeshFormatError, match="h_row"):
        validate_mesh(m)


def edit_strip_row(path, k, edit):
    """make_strip_square(6) saved to ``path`` with the node ids of its STRIP
    row ``k`` replaced by ``edit(ids, n_nodes)``; returns the mesh."""
    mesh = meshgen.make_strip_square(6)
    save_mesh(mesh, path)
    lines = Path(path).read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("STRIP ")) + 1 + k
    head, *ids = lines[at].split()
    assert head == str(k) and ids[0] != "V"
    lines[at] = " ".join([head, *edit(ids, mesh.n_nodes)])
    Path(path).write_text("\n".join(lines) + "\n")
    return mesh


@pytest.mark.parametrize("edit, message", [
    (lambda ids, n: [], "strip row 3 has no nodes"),
    (lambda ids, n: ids[:-1] + [str(n)], "strip row 3: node {n} out of range"),
    (lambda ids, n: ["-1"] + ids[1:], "strip row 3: node -1 out of range"),
], ids=["empty", "past-the-last-node", "negative"])
def test_bad_strip_row_is_named(tmp_path, edit, message):
    mesh = edit_strip_row(tmp_path / "m.mesh", 3, edit)
    with pytest.raises(MeshFormatError, match="^%s$" % message.format(n=mesh.n_nodes)):
        load_mesh(tmp_path / "m.mesh")


def test_validate_rejects_strip_row_off_its_line():
    m = meshgen.make_strip_square(8)
    m.nodes[m.strip.rows[3][2], 1] += 0.1 * m.strip.h_row
    with pytest.raises(MeshFormatError, match="^strip row not aligned on a line$"):
        validate_mesh(m)


def test_validate_rejects_overlapping_strip_rows():
    m = meshgen.make_strip_square(8)
    m.strip.rows[3] = np.append(m.strip.rows[3], m.strip.rows[2][0])
    with pytest.raises(MeshFormatError, match="^strip rows overlap$"):
        validate_mesh(m)


def test_validate_names_the_lowest_region_without_a_role():
    m = meshgen.make_strip_square(8)
    del m.region_roles[3], m.region_roles[1]
    with pytest.raises(MeshFormatError, match="^region 1 has no role$"):
        validate_mesh(m)


def test_point_location_and_interpolation():
    m = meshgen.make_unit_square(4)
    T = 2.0 * m.nodes[:, 0] - 3.0 * m.nodes[:, 1] + 0.5
    everywhere = np.ones(m.n_triangles, dtype=bool)
    pts = [(0.33, 0.61), (0.0, 0.0), (0.25, 0.5), (0.999, 0.123)]
    values = sample_sensors(SensorLocator(m, None, pts), everywhere, T)
    # linear fields interpolate exactly
    npt.assert_allclose(values, [2.0 * x - 3.0 * y + 0.5 for x, y in pts],
                        rtol=0, atol=1e-13)
    outside = sample_sensors(SensorLocator(m, None, [(1.7, 0.5), (0.5, -0.2)]), everywhere, T)
    assert np.all(np.isnan(outside))


def test_point_location_respects_active_mask():
    m = meshgen.make_unit_square(4)
    T = np.ones(m.n_nodes)
    assert np.isnan(sample_sensors(SensorLocator(m, None, [(0.5, 0.5)]),
                                   np.zeros(m.n_triangles, dtype=bool), T)[0])
    # only the right half is active: a point on the left is a gap
    right = m.nodes[m.triangles].mean(axis=1)[:, 0] > 0.5
    left_pt, right_pt = sample_sensors(
        SensorLocator(m, None, [(0.2, 0.3), (0.8, 0.3)]), right, T)
    assert np.isnan(left_pt) and right_pt == pytest.approx(1.0, abs=1e-14)


def test_point_on_shared_edge_same_from_either_side():
    m = meshgen.make_unit_square(4)
    T = np.sin(3.0 * m.nodes[:, 0]) * np.exp(m.nodes[:, 1])    # not linear
    edges = {}
    for t, tri in enumerate(m.triangles):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges.setdefault(tuple(sorted((tri[a], tri[b]))), []).append(t)
    (a, b), (t0, t1) = next((e, ts) for e, ts in edges.items() if len(ts) == 2)
    pt = [tuple(0.3 * m.nodes[a] + 0.7 * m.nodes[b])]
    values = []
    for tris in ([t0], [t1], [t0, t1]):
        active = np.zeros(m.n_triangles, dtype=bool)
        active[tris] = True
        values.append(sample_sensors(SensorLocator(m, None, pt), active, T)[0])
    npt.assert_allclose(values, 0.3 * T[a] + 0.7 * T[b], rtol=0, atol=1e-14)


_BAND_MESHES = {
    "strip_square, 2 virtual rows": (lambda: meshgen.make_strip_square(8), (0.0, -1.0)),
    "strip_square, 3 virtual rows": (lambda: meshgen.make_strip_square(8, n_virt=3),
                                     (0.0, -1.0)),
    "probe.mesh": (lambda: load_mesh(os.path.join(FIXTURE_DIR, "probe.mesh")), (0.0, -1.0)),
    "ramp.mesh": (lambda: load_mesh(os.path.join(FIXTURE_DIR, "ramp.mesh")), (0.0, -1.0)),
    "hotwire.mesh": (lambda: load_mesh(os.path.join(FIXTURE_DIR, "hotwire.mesh")), (1.0, 0.0)),
}


def sensor_points(mesh, state, picks):
    """Points for drawn ``(kind, u, v)``: a node ("vertex"), a point on a
    triangle's edge ("edge"), the centroid of the source's nodes ("hole",
    a box point on a mesh without a source), or a point of the bounding box
    widened by a row ("box", which takes in the static region, the band's
    rows beyond the window and the outside)."""
    lo, hi = mesh.nodes.min(axis=0) - state.h_row, mesh.nodes.max(axis=0) + state.h_row
    source = [t for t in ("tip", "side", "nose") if t in mesh.boundary_tags]
    points = []
    for kind, u, v in picks:
        if kind == "vertex":
            p = mesh.nodes[int(u * mesh.n_nodes)]
        elif kind == "edge":
            tri, e = mesh.triangles[int(u * mesh.n_triangles)], int(3 * v)
            a, b = mesh.nodes[tri[e]], mesh.nodes[tri[(e + 1) % 3]]
            p = a + (3 * v - e) * (b - a)
        elif kind == "hole" and source:
            p = mesh.nodes[np.unique(mesh.tagged_edges(tuple(source)))].mean(axis=0)
        else:
            p = lo + np.array([u, v]) * (hi - lo)
        points.append(tuple(p))
    return points


point_picks = st.lists(st.tuples(st.sampled_from(["vertex", "edge", "hole", "box"]),
                                 st.floats(0.0, 1.0, exclude_max=True),
                                 st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=8)


def assert_lookup_matches_scan(name, picks, rows_per_step, seed):
    """Slide the band of mesh ``name`` two turns round its ring and compare
    the lookup with the scan of every active triangle at each step."""
    build, direction = _BAND_MESHES[name]
    mesh = build()
    state = motion.init_motion(mesh, direction)
    points = sensor_points(mesh, state, picks)
    locator = SensorLocator(mesh, state, points)
    T = np.random.default_rng(seed).uniform(-1.0, 2.0, mesh.n_nodes)
    step = rows_per_step * state.h_row
    for _ in range(int(np.ceil(2 * state.circumference / step)) + 1):
        active = motion.active_elements(mesh, state)
        got = sample_sensors(locator, active, T)
        assert got.tobytes() == sample_sensors_by_scan(mesh, active, T, points).tobytes()
        motion.advance(mesh, state, step)
    assert state.displacement >= 2 * state.circumference


# The band's row table must leave every triangle that the scan of all active
# triangles picks: the same values to the bit, the same gaps, and on a shared
# edge or vertex the same, lowest-index triangle.  A step of a whole or a
# quarter row brings band vertices and edges back onto the points drawn on
# them.
lookup_draws = dict(picks=point_picks,
                    rows_per_step=st.sampled_from([0.5, 1.0, 1.25, 2.75, 4.0]),
                    seed=st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("name", [n for n in _BAND_MESHES if n.startswith("strip_square")])
@settings(max_examples=40, deadline=None)
@given(**lookup_draws)
def test_sensor_lookup_matches_the_scan_on_strip_squares(name, picks, rows_per_step, seed):
    assert_lookup_matches_scan(name, picks, rows_per_step, seed)


@pytest.mark.parametrize("name", [n for n in _BAND_MESHES if n.endswith(".mesh")])
@settings(max_examples=6, deadline=None)
@given(**lookup_draws)
def test_sensor_lookup_matches_the_scan_on_the_bundled_meshes(fixture_dir, name, picks,
                                                               rows_per_step, seed):
    assert_lookup_matches_scan(name, picks, rows_per_step, seed)


def test_sensor_in_the_hole_is_a_gap(fixture_dir):
    mesh = load_mesh(os.path.join(fixture_dir, "probe.mesh"))
    state = motion.init_motion(mesh, (0.0, -1.0))
    hole = sensor_points(mesh, state, [("hole", 0.0, 0.0)])
    assert np.isnan(sample_sensors(SensorLocator(mesh, state, hole),
                                   motion.active_elements(mesh, state), np.ones(mesh.n_nodes)))


def test_fixture_meshes_validate(fixture_dir):
    import os
    for name in ("probe.mesh", "ramp.mesh", "hotwire.mesh"):
        m = load_mesh(os.path.join(fixture_dir, name))
        assert m.strip is not None
        assert "tip" in m.boundary_tags


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_fixture_mesh_matches_its_builder(tmp_path, name):
    # the committed fixture is exactly what its generator writes today
    save_mesh(_BUILDERS[name](), tmp_path / name)
    assert (tmp_path / name).read_bytes() == Path(FIXTURE_DIR, name).read_bytes()


def assert_same_mesh(a, b):
    # bitwise: equal dtypes, shapes and values (NaN-free meshes)
    for name in ("nodes", "triangles", "tri_region", "boundary_edges"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.boundary_tags == b.boundary_tags
    assert a.region_roles == b.region_roles
    assert (a.strip is None) == (b.strip is None)
    if a.strip is not None:
        assert a.strip.h_row == b.strip.h_row
        assert a.strip.virtual_rows.tobytes() == b.strip.virtual_rows.tobytes()
        assert len(a.strip.rows) == len(b.strip.rows)
        for x, y in zip(a.strip.rows, b.strip.rows):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _past_header(edit):
    """``edit`` applied to the text below the 'CCMMESH 1' line."""
    def spell(text):
        head, rest = text.split("\n", 1)
        return head + "\n" + edit(rest)
    return spell


# the same mesh file with other line ends and blanks; "\x0c" and "\x85" are
# whitespace inside a line, where str.splitlines() would end it
SPELLINGS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "lone-cr": lambda text: text.replace("\n", "\r"),
    "tabs": _past_header(lambda text: text.replace(" ", "\t")),
    "trailing-blanks": lambda text: text.replace("\n", " \t\n"),
    "form-feed-inside": _past_header(lambda text: text.replace(" ", " \x0c")),
    "nel-inside": _past_header(lambda text: text.replace(" ", "\x85")),
    "no-final-newline": lambda text: text.rstrip("\n"),
}


def respell(path, spelling, text):
    """Write ``text`` to ``path`` as ``SPELLINGS[spelling]`` spells it (None: as is)."""
    if spelling is not None:
        text = SPELLINGS[spelling](text)
    Path(path).write_text(text, encoding="utf-8", newline="")
    return path


@pytest.mark.parametrize("name, spelling",
                         [pytest.param(name, None, id=name) for name in sorted(_BUILDERS)]
                         + [pytest.param("strip_square.mesh", spelling,
                                         id="strip_square.mesh-" + spelling)
                            for spelling in SPELLINGS])
def test_block_parser_matches_the_line_reader(tmp_path, fixture_dir, name, spelling):
    original = Path(fixture_dir, name)
    path = respell(tmp_path / "spelled.mesh", spelling, original.read_text())
    mesh = load_mesh(path)
    assert_same_mesh(mesh, load_mesh_by_line(path))
    save_mesh(mesh, tmp_path / name)
    assert (tmp_path / name).read_bytes() == original.read_bytes()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 12), strip=st.booleans(), n_virt=st.integers(2, 4),
       scale=st.floats(0.01, 100.0), shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       spelling=st.sampled_from([None, *SPELLINGS]))
def test_block_parser_matches_the_line_reader_on_drawn_meshes(n, strip, n_virt, scale, shift,
                                                              spelling):
    # an affine map keeps the mesh valid and gives coordinates of arbitrary bits
    mesh = meshgen.make_strip_square(n, n_virt=n_virt) if strip else meshgen.make_unit_square(n)
    mesh.nodes = mesh.nodes * scale + np.array(shift)
    if mesh.strip is not None:
        mesh.strip.h_row *= scale
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.mesh")
        save_mesh(mesh, path)
        respell(path, spelling, Path(path).read_text())
        loaded = load_mesh(path)
        assert_same_mesh(loaded, load_mesh_by_line(path))
        assert_same_mesh(loaded, mesh)


def built_by_loop(build, *args):
    """``build(*args)`` with the generators' builder swapped for the loop-built one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshgen, "_Builder", BuilderByLoop)
        return build(*args)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 16), n_virt=st.integers(2, 5))
def test_generators_match_the_loop_builder(n, n_virt):
    assert_same_mesh(meshgen.make_unit_square(n), built_by_loop(meshgen.make_unit_square, n))
    if n >= meshgen.STRIP_MIN_ROWS:
        assert_same_mesh(meshgen.make_strip_square(n, n_virt),
                         built_by_loop(meshgen.make_strip_square, n, n_virt))


def corrupt(tmp_path, edit, spelling=None):
    """make_unit_square(3) written with ``edit`` applied to its lines, and
    spelled as ``SPELLINGS[spelling]`` says.

    File line 19 holds ``TRIANGLES 18``, so triangle k is on line 20 + k;
    ``lines[i]`` is file line i + 1.
    """
    save_mesh(meshgen.make_unit_square(3), tmp_path / "ok.mesh")
    lines = (tmp_path / "ok.mesh").read_text().splitlines()
    assert lines[18] == "TRIANGLES 18"
    edit(lines)
    return respell(tmp_path / "bad.mesh", spelling, "\n".join(lines) + "\n")


def _set(line, text):
    def edit(lines):
        lines[line - 1] = text
    return edit


def _cut(first, last=None):
    def edit(lines):
        del lines[first - 1:last]
    return edit


@pytest.mark.parametrize("edit, message", [
    # the 5th TRIANGLES line has a token that is no integer
    (_set(24, "4 5 x 6 0"), r"^bad line 24: '4 5 x 6 0' \(invalid literal"),
    # a NODES line with a fourth column
    (_set(5, "2 0.5 0 7"), r"^nodes must be consecutive starting at 0 \(line 5\)$"),
    # triangle ids jump from 3 to 5 in mid-block
    (_set(24, "5 5 9 6 0"), r"^triangles must be consecutive starting at 0 \(line 24\)$"),
    # a float where the id should be: int() and NumPy both refuse it
    (_set(24, "4.0 5 9 6 0"), r"^bad line 24: '4.0 5 9 6 0' \(invalid literal"),
    # the file ends after the 5th triangle
    (_cut(25), r"^file ends early after line 24$"),
    # the block runs into the next header after the 5th triangle
    (_cut(25, 37), r"^triangles must be consecutive starting at 0 \(line 25\)$"),
    (_set(19, "TRIANGLES -1"), r"^bad line 20: '0 0 4 5 0' \(negative dimensions"),
], ids=["non-numeric", "nodes-4-columns", "id-jump", "float-id", "truncated", "short-block",
        "negative-count"])
def test_bad_line_inside_a_block_is_named(tmp_path, edit, message):
    path = corrupt(tmp_path, edit)
    with pytest.raises(MeshFormatError, match=message) as new:
        load_mesh(path)
    with pytest.raises(MeshFormatError) as old:
        load_mesh_by_line(path)
    assert str(new.value) == str(old.value)


# a NODES line with a fourth column, at file line 5 + 2
_FOURTH_COLUMN = (_set(5, "2 0.5 0 7"), r"^nodes must be consecutive starting at 0 \(line 7\)$")
# the 5th TRIANGLES line has a token that is no integer, at file line 24 + 2
_NON_NUMERIC = (_set(24, "4 5 x 6 0"), r"^bad line 26: '4 5 x 6 0' \(invalid literal")


@pytest.mark.parametrize("edit, message, spelling", [
    pytest.param(*_FOURTH_COLUMN, None, id="nodes-4-columns"),
    pytest.param(*_NON_NUMERIC, None, id="non-numeric"),
    *(pytest.param(*_FOURTH_COLUMN, spelling, id="nodes-4-columns-" + spelling)
      for spelling in SPELLINGS),
    # spellings that leave the text of the named line as it was
    *(pytest.param(*_NON_NUMERIC, spelling, id="non-numeric-" + spelling)
      for spelling in ("crlf", "lone-cr", "trailing-blanks", "no-final-newline")),
])
def test_messages_count_blank_lines(tmp_path, edit, message, spelling):
    # two blank lines above the first NODES line move every later line of
    # the file down by two, and the message names the line where it is now
    def blank_lines_first(lines):
        edit(lines)
        lines[2:2] = ["", "  \t"]
    path = corrupt(tmp_path, blank_lines_first, spelling)
    for load in (load_mesh, load_mesh_by_line):
        with pytest.raises(MeshFormatError, match=message):
            load(path)


def test_blank_lines_inside_a_block_are_skipped(tmp_path):
    def edit(lines):
        lines.insert(23, "")
        lines.insert(3, "   \t")
    assert_same_mesh(load_mesh(corrupt(tmp_path, edit)), meshgen.make_unit_square(3))


def test_token_only_python_reads_names_the_block(tmp_path):
    # Python's float() takes "0.6_666..."; NumPy does not, so the block's
    # first line is named with NumPy's message
    path = corrupt(tmp_path, _set(5, "2 0 0.6_6666666666666663"))
    assert_same_mesh(load_mesh_by_line(path), meshgen.make_unit_square(3))
    with pytest.raises(MeshFormatError, match=r"^bad line 3: '0 0 0' \(.*'0.6_6"):
        load_mesh(path)


def test_integer_too_large_is_a_bad_line(tmp_path):
    # int() reads it, but it does not fit the int64 edge array
    path = corrupt(tmp_path, _set(39, "99999999999999999999 1 bottom"))
    with pytest.raises(MeshFormatError, match=r"^bad line 39: '99999999999999999999 1 bottom'"):
        load_mesh(path)


# spellings of an integer v that int() reads as v
_AS_INT_READS = {
    "plus": lambda v: "+%d" % v,
    "underscore": lambda v: "0_%d" % v,
    "arabic-indic": lambda v: "".join(chr(0x660 + int(d)) for d in str(v)),
}
# tokens that int() rejects or that do not fit int64, and the reason a message gives
_NOT_INT64 = {
    "1.5": "invalid literal for int() with base 10: '1.5'",
    "0x10": "invalid literal for int() with base 10: '0x10'",
    "99999999999999999999": "Python int too large to convert to C long",
}
# a token of the second line of each block: an edge's node, a region id, a
# strip node
_INT_SITES = [("BOUNDARY", 0), ("REGION_ROLE", 0), ("STRIP", 2)]


def respelled_int(tmp_path, block, column, spell):
    """make_strip_square(4) written with token ``column`` of the second line
    of ``block`` replaced by ``spell(its value)``; the file, and the line's
    number and text."""
    path = tmp_path / "band.mesh"
    save_mesh(meshgen.make_strip_square(4, n_virt=2), path)
    lines = path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(block + " ")) + 2
    tokens = lines[k].split()
    tokens[column] = spell(int(tokens[column]))
    lines[k] = " ".join(tokens)
    return respell(path, None, "\n".join(lines) + "\n"), k + 1, lines[k]


# the strip's row index, too, is read as int() reads it
@pytest.mark.parametrize("block, column", _INT_SITES + [("STRIP", 0)])
@pytest.mark.parametrize("spelling", sorted(_AS_INT_READS))
def test_small_blocks_read_integers_as_int_does(tmp_path, block, column, spelling):
    path, _, _ = respelled_int(tmp_path, block, column, _AS_INT_READS[spelling])
    assert_same_mesh(load_mesh(path), meshgen.make_strip_square(4, n_virt=2))


@pytest.mark.parametrize("block, column", _INT_SITES)
@pytest.mark.parametrize("token", sorted(_NOT_INT64))
def test_small_blocks_name_a_token_that_is_no_int64(tmp_path, block, column, token):
    path, number, text = respelled_int(tmp_path, block, column, lambda v: token)
    for load in (load_mesh, load_mesh_by_line):
        with pytest.raises(MeshFormatError) as exc:
            load(path)
        assert str(exc.value) == "bad line %d: %r (%s)" % (number, text, _NOT_INT64[token])
