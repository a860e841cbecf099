"""Triangle meshes with an embedded moving strip.

Plain container types plus file I/O and validation for the two-region
meshes used by the melting solver: a *static* part that never moves, a
*strip* whose node rows translate rigidly and recycle through a virtual
reservoir, and a one-cell-wide *update* band of shear triangles that
stitches the two together.

Mesh file format (version 1, plain text, whitespace separated)::

    CCMMESH 1
    NODES <count>
    <id> <x> <y>
    TRIANGLES <count>
    <id> <n1> <n2> <n3> <region_id>
    BOUNDARY <count>
    <n1> <n2> <tag>
    REGION_ROLE <count>
    <region_id> <role>
    STRIP h_row=<value> rows=<count>
    <row_index> [V] <node_id> <node_id> ...

The file is read as UTF-8, and blank lines are skipped.  Node and triangle
ids are consecutive and zero based.  Roles are one of ``static``, ``strip``,
``update``, ``virtual``; the ``virtual`` label marks element bands that start
life outside the strip window (they rotate into use as the strip recycles, so
the label records the *initial* state only).  Rows are listed in ascending
order along the recycling axis; a leading ``V`` flags rows whose nodes start
outside the strip window.  Only tagged physical boundaries appear in BOUNDARY
— untagged exterior edges carry the natural (insulated) condition implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

ROLES = ("static", "strip", "update", "virtual")
ROLE_CODE = {role: code for code, role in enumerate(ROLES)}
# validate_mesh's tolerance on triangle areas and on the spread of a strip row
_TOL = 1e-12


class MeshFormatError(Exception):
    """Raised when a mesh file does not follow the version-1 layout."""


@dataclass
class StripLayout:
    """Row bookkeeping for the recycling strip.

    ``rows[k]`` holds the ids of all strip nodes whose ordinate sits on row
    line ``k`` (lines are spaced ``h_row`` apart along the recycling axis).
    ``virtual_rows[k]`` is True for rows that start outside the window.
    """

    h_row: float
    rows: list[np.ndarray]
    virtual_rows: np.ndarray  # bool, one entry per row

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def all_nodes(self) -> np.ndarray:
        return np.concatenate(self.rows) if self.rows else np.empty(0, dtype=np.int64)


@dataclass
class Mesh:
    nodes: np.ndarray                 # (n, 2) float64, mutated by mesh motion
    triangles: np.ndarray             # (m, 3) int64, update band rewired on slip
    tri_region: np.ndarray            # (m,) int64
    boundary_edges: np.ndarray        # (b, 2) int64 node pairs
    boundary_tags: list[str] = field(default_factory=list)
    region_roles: dict[int, str] = field(default_factory=dict)
    strip: StripLayout | None = None

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def tri_role_code(self) -> np.ndarray:
        """Role code per triangle (int8, see ROLE_CODE), -1 for a region
        with no role, looked up in a table of the region ids."""
        ids = np.array(sorted(self.region_roles), dtype=np.int64)
        codes = np.array([ROLE_CODE[self.region_roles[r]] for r in ids.tolist()] + [-1],
                         dtype=np.int8)
        at = np.searchsorted(ids, self.tri_region)
        # a region between or past the listed ids takes the -1 at the end
        return codes[np.where(np.append(ids, 0)[at] == self.tri_region, at, len(ids))]

    def tagged_edges(self, tags) -> np.ndarray:
        """Node pairs (E, 2) of the boundary edges whose tag is in ``tags``."""
        if isinstance(tags, str):
            tags = (tags,)
        want = set(tags)
        idx = [i for i, t in enumerate(self.boundary_tags) if t in want]
        return self.boundary_edges[np.array(idx, dtype=np.int64)]


# ---------------------------------------------------------------------------
# geometry helpers

def tri_areas(coords: np.ndarray, conn: np.ndarray) -> np.ndarray:
    """Signed areas of the triangles ``conn`` over node coordinates ``coords``."""
    p0, p1, p2 = coords.take(conn.T, axis=0)    # one gather of all three corners
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


# ---------------------------------------------------------------------------
# file I/O

def format_rows(fmt: str, rows) -> str:
    """``fmt`` applied to each row of ``rows`` (a 1-D or 2-D array), joined.

    One ``%`` operation over the flattened values; the text is the same as
    formatting each row on its own.
    """
    rows = np.asarray(rows)
    return (fmt * len(rows)) % tuple(rows.ravel().tolist())


def save_mesh(mesh: Mesh, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("CCMMESH 1\n")
        f.write("NODES %d\n" % mesh.n_nodes)
        # node ids ride along as float64, exact below 2**53, and print by %d
        f.write(format_rows("%d %.17g %.17g\n",
                            np.column_stack([np.arange(mesh.n_nodes), mesh.nodes])))
        f.write("TRIANGLES %d\n" % mesh.n_triangles)
        f.write(format_rows("%d %d %d %d %d\n",
                            np.column_stack([np.arange(mesh.n_triangles), mesh.triangles,
                                             mesh.tri_region])))
        f.write("BOUNDARY %d\n" % len(mesh.boundary_edges))
        for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            f.write("%d %d %s\n" % (a, b, tag))
        f.write("REGION_ROLE %d\n" % len(mesh.region_roles))
        for rid in sorted(mesh.region_roles):
            f.write("%d %s\n" % (rid, mesh.region_roles[rid]))
        if mesh.strip is not None:
            s = mesh.strip
            f.write("STRIP h_row=%.17g rows=%d\n" % (s.h_row, s.n_rows))
            for k, row in enumerate(s.rows):
                flag = " V" if s.virtual_rows[k] else ""
                f.write("%d%s %s\n" % (k, flag, " ".join(map(str, row.tolist()))))


def _expect(cond, msg):
    if not cond:
        raise MeshFormatError(msg)


# one line of the NODES and of the TRIANGLES block, and how a line-by-line
# reading converts its tokens
_NODE_ROW = np.dtype([("id", np.int64), ("xy", np.float64, 2)])
_NODE_TOKENS = (int, float, float)
_TRIANGLE_ROW = np.dtype([("id", np.int64), ("tri", np.int64, 3), ("region", np.int64)])
_TRIANGLE_TOKENS = (int,) * 5


def _ints(tokens) -> np.ndarray:
    """int64 array of ``tokens`` (a string or nested lists of them), each read
    as ``int()`` reads it; OverflowError past int64."""
    return np.array(tokens, dtype=np.int64)


def _split(lines, columns):
    """The tokens of each of ``lines``, which must have ``columns`` each."""
    parts = list(map(str.split, lines))
    if set(map(len, parts)) - {columns}:
        raise ValueError("a line without %d columns" % columns)
    return parts


def _boundary(lines):
    """The node pairs and the tags of BOUNDARY lines."""
    parts = _split(lines, 3)
    return _ints([p[:2] for p in parts]).reshape(-1, 2), [p[2] for p in parts]


def _region_roles(lines):
    """The role of each region id of REGION_ROLE lines."""
    parts = _split(lines, 2)
    roles = [p[1] for p in parts]
    if not set(roles) <= set(ROLES):
        raise ValueError("an unknown role")
    return dict(zip(_ints([p[0] for p in parts]).tolist(), roles))


def _strip_rows(lines):
    """The node ids of each row of STRIP lines, one view each of one array,
    and which rows are flagged ``V``."""
    parts = list(map(str.split, lines))
    if not np.array_equal(_ints([p[0] for p in parts]), np.arange(len(parts))):
        raise ValueError("rows are not consecutive")
    virtual = [p[1:2] == ["V"] for p in parts]
    ids = [p[1 + v:] for p, v in zip(parts, virtual)]
    end = np.cumsum(list(map(len, ids)), dtype=np.int64).tolist()
    flat = _ints(list(chain.from_iterable(ids)))
    return [flat[a:b] for a, b in zip([0] + end, end)], np.array(virtual, dtype=bool)


def load_mesh(path) -> Mesh:
    """Read and validate a version-1 mesh file.

    The file is read in one call and split into lines once; blank lines are
    skipped, and messages name lines by their number in the file, blank lines
    included.  Each block is converted in one call: NODES and TRIANGLES by
    ``np.loadtxt``, the integers of BOUNDARY, REGION_ROLE and STRIP by one
    :func:`_ints` over all their tokens, which reads them as ``int()`` does.
    Only a block that fails is read again one line at a time, to name the
    offending line.
    """
    with open(path, encoding="utf-8") as f:
        # text mode has folded "\r\n" and "\r" into "\n"; str.splitlines()
        # would also break a line at "\x0c", "\x85" and other separators
        stripped = list(map(str.strip, f.read().split("\n")))
    lines = list(filter(None, stripped))     # blank lines are skipped
    _expect(lines and lines[0] == "CCMMESH 1", "missing 'CCMMESH 1' header")
    pos = 1

    def line_no(k):
        """Number in the file of ``lines[k]``."""
        return [i for i, text in enumerate(stripped, 1) if text][k]

    def expect(cond, k, fmt, *args):
        """Raise ``fmt % (*args, number in the file of lines[k])`` unless ``cond``."""
        if not cond:
            raise MeshFormatError(fmt % (*args, line_no(k)))

    def header(name):
        nonlocal pos
        parts = lines[pos].split()
        expect(len(parts) == 2 and parts[0] == name, pos, "expected '%s <count>' at line %d",
               name)
        pos += 1
        return int(parts[1])

    def block(count, convert, check):
        """``convert`` of the next ``count`` lines, made in whole-block calls.
        It raises ValueError or OverflowError when a line fails
        ``check(k, tokens)``, ``k`` its index in the block; only then are
        the lines checked one at a time, to name the first that fails."""
        nonlocal pos
        if count < 0:
            raise ValueError("negative dimensions are not allowed")
        start = pos
        error = IndexError("the file ends inside the block")
        try:
            if pos + count <= len(lines):
                result = convert(lines[pos:pos + count])
                pos += count
                return result
        except (ValueError, OverflowError) as exc:
            error = exc
        # name the first line that fails: a missing line, a wrong column
        # count or id, or a token that does not convert
        for k in range(count):
            check(k, lines[pos].split())
            pos += 1
        # every line reads one at a time: np.loadtxt rejected a token that
        # Python accepts (such as "1_0"), so name the block's first line
        pos = start
        raise error

    def table(name, row, tokens):
        """The rows, of dtype ``row``, of the next ``<NAME> <count>`` block,
        with consecutive zero-based ids in the first field."""
        count = header(name.upper())

        def convert(chunk):
            rows = np.loadtxt(chunk, dtype=row, comments=None, ndmin=1)
            if not np.array_equal(rows["id"], np.arange(count)):
                raise ValueError("%s block does not parse" % name)
            return rows

        def check(k, parts):
            expect(len(parts) == len(tokens) and int(parts[0]) == k, pos,
                   "%s must be consecutive starting at 0 (line %d)", name)
            for convert_token, token in zip(tokens, parts):
                convert_token(token)

        return block(count, convert, check) if count else np.empty(0, row)

    def check_boundary(k, parts):
        expect(len(parts) == 3, pos, "bad BOUNDARY line %d")
        _ints(parts[:2])

    def check_region_role(k, parts):
        expect(len(parts) == 2, pos, "bad REGION_ROLE line %d")
        _expect(parts[1] in ROLES, "unknown role %r" % parts[1])
        _ints(parts[0])

    def check_strip_row(k, parts):
        expect(int(parts[0]) == k, pos, "rows must be consecutive (line %d)")
        _ints(parts[1 + (parts[1:2] == ["V"]):])

    try:
        nodes = table("nodes", _NODE_ROW, _NODE_TOKENS)["xy"].copy()
        tri_rows = table("triangles", _TRIANGLE_ROW, _TRIANGLE_TOKENS)
        tris, region = tri_rows["tri"].copy(), tri_rows["region"].copy()
        del tri_rows
        edges, tags = block(header("BOUNDARY"), _boundary, check_boundary)
        roles = block(header("REGION_ROLE"), _region_roles, check_region_role)

        strip = None
        if pos < len(lines):
            parts = lines[pos].split()
            expect(parts[0] == "STRIP", pos, "expected STRIP section at line %d")
            kv = dict(p.split("=", 1) for p in parts[1:])
            _expect(set(kv) == {"h_row", "rows"}, "STRIP header needs h_row= and rows=")
            h_row = float(kv["h_row"])
            n_rows = int(kv["rows"])
            pos += 1
            strip = StripLayout(h_row, *block(n_rows, _strip_rows, check_strip_row))
        expect(pos == len(lines), pos - 1, "trailing content after line %d")
    except (IndexError, ValueError, OverflowError) as exc:
        if pos >= len(lines):
            raise MeshFormatError("file ends early after line %d" % line_no(-1)) from exc
        raise MeshFormatError("bad line %d: %r (%s)" % (line_no(pos), lines[pos], exc)) from exc

    mesh = Mesh(nodes, tris, region, edges, tags, roles, strip)
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# validation

def validate_mesh(mesh: Mesh) -> None:
    """Structural checks; raises MeshFormatError on the first violation.

    Checks: index ranges, positive orientation of all non-virtual triangles,
    each listed boundary edge belongs to exactly one non-virtual triangle,
    known region roles, and strip rows that partition the strip nodes with
    uniform ``h_row`` spacing along exactly one axis.
    """
    n = mesh.n_nodes
    _expect(mesh.triangles.min(initial=0) >= 0 and mesh.triangles.max(initial=-1) < n,
            "triangle node index out of range")
    for role in mesh.region_roles.values():
        _expect(role in ROLE_CODE, "unknown role %r" % role)
    code = mesh.tri_role_code()
    if np.any(code < 0):
        raise MeshFormatError("region %d has no role" % mesh.tri_region[code < 0].min())

    real = code != ROLE_CODE["virtual"]
    areas = tri_areas(mesh.nodes, mesh.triangles)
    bad = np.where(real & (areas <= _TOL))[0]
    _expect(bad.size == 0,
            "non-virtual triangle %s has non-positive area" % (bad[:5].tolist(),))

    # each listed boundary edge must be an edge of exactly one non-virtual
    # triangle: count the sorted node pairs of their edges, of those that
    # start at the lower node of a listed edge
    tri = np.compress(real, mesh.triangles, axis=0)
    nxt = tri[:, [1, 2, 0]]
    lo, hi = np.minimum(tri, nxt).ravel(), np.maximum(tri, nxt).ravel()
    listed = np.sort(mesh.boundary_edges, axis=1)
    base = max(n, int(listed.max(initial=-1)) + 1)
    keys = listed[:, 0] * base + listed[:, 1]
    near = np.isin(lo, listed[:, 0])
    pairs = np.sort(lo[near] * base + hi[near])
    k = np.searchsorted(pairs, keys, side="right") - np.searchsorted(pairs, keys)
    wrong = np.flatnonzero(k != 1)
    if wrong.size:
        i = wrong[0]
        a, b = mesh.boundary_edges[i]
        raise MeshFormatError("boundary edge (%d,%d) tag %r belongs to %d non-virtual "
                              "triangles, expected 1" % (a, b, mesh.boundary_tags[i], k[i]))

    if mesh.strip is not None:
        s = mesh.strip
        _expect(s.n_rows >= 2, "strip needs at least two rows")
        sizes = np.array([len(row) for row in s.rows])
        start = np.cumsum(sizes) - sizes
        all_ids = s.all_nodes()
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            raise MeshFormatError("strip row %d has no nodes" % empty[0])
        bad = np.flatnonzero((all_ids < 0) | (all_ids >= n))
        if bad.size:
            i = bad[0]
            raise MeshFormatError("strip row %d: node %d out of range"
                                  % (np.searchsorted(start, i, side="right") - 1, all_ids[i]))
        _expect(np.count_nonzero(np.bincount(all_ids, minlength=n)) == len(all_ids),
                "strip rows overlap")
        # row ordinates must advance by h_row along one axis: every row's
        # spread, in one reduction over the rows laid end to end
        c = mesh.nodes[all_ids, _strip_axis(mesh, s)]
        ords = c[start]
        spread = np.maximum.reduceat(c, start) - np.minimum.reduceat(c, start)
        _expect(np.all(spread <= _TOL * np.maximum(1.0, np.abs(ords)) + _TOL),
                "strip row not aligned on a line")
        d = np.diff(ords)
        _expect(np.allclose(d, s.h_row, rtol=1e-9, atol=1e-12),
                "strip rows are not spaced h_row apart")


def _strip_axis(mesh: Mesh, s: StripLayout) -> int:
    """Axis (0 or 1) along which the strip rows are stacked."""
    c0 = mesh.nodes[s.rows[0]]
    c1 = mesh.nodes[s.rows[-1]]
    span = np.abs(c1.mean(axis=0) - c0.mean(axis=0))
    return int(np.argmax(span))
