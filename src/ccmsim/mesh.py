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

Node and triangle ids are consecutive and zero based.  Roles are one of
``static``, ``strip``, ``update``, ``virtual``; the ``virtual`` label marks
element bands that start life outside the strip window (they rotate into use
as the strip recycles, so the label records the *initial* state only).  Rows
are listed in ascending order along the recycling axis; a leading ``V`` flags
rows whose nodes start outside the strip window.  Only tagged physical
boundaries appear in BOUNDARY — untagged exterior edges carry the natural
(insulated) condition implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROLES = ("static", "strip", "update", "virtual")
ROLE_CODE = {role: code for code, role in enumerate(ROLES)}


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
    p0 = coords[conn[:, 0]]
    p1 = coords[conn[:, 1]]
    p2 = coords[conn[:, 2]]
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
    with open(path, "w") as f:
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


def load_mesh(path) -> Mesh:
    """Read and validate a version-1 mesh file.

    The NODES and TRIANGLES blocks are each parsed by one ``np.loadtxt``
    call.  Only a block that fails is read again one line at a time, to name
    the offending line.  Messages name lines by their number in the file,
    blank lines included.
    """
    with open(path) as f:
        stripped = list(map(str.strip, f))
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

    def block(name, row, tokens):
        """The rows of the next ``<NAME> <count>`` block, of dtype ``row``,
        with consecutive zero-based ids in the first field."""
        nonlocal pos
        count = header(name.upper())
        if count < 0:
            raise ValueError("negative dimensions are not allowed")
        if count == 0:
            return np.empty(0, row)
        start = pos
        error = ValueError("%s block does not parse" % name)
        try:
            rows = np.loadtxt(lines[pos:pos + count], dtype=row, comments=None, ndmin=1)
            if np.array_equal(rows["id"], np.arange(count)):
                pos += count
                return rows
        except ValueError as exc:
            error = exc
        # name the first line that fails: a missing line, a wrong column
        # count or id, or a token that does not convert
        for i in range(count):
            parts = lines[pos].split()
            expect(len(parts) == len(tokens) and int(parts[0]) == i, pos,
                   "%s must be consecutive starting at 0 (line %d)", name)
            for convert, token in zip(tokens, parts):
                convert(token)
            pos += 1
        # every line reads one at a time: NumPy rejected a token that Python
        # accepts (such as "1_0"), so name the block's first line
        pos = start
        raise error

    try:
        nodes = block("nodes", _NODE_ROW, _NODE_TOKENS)["xy"].copy()
        tri_rows = block("triangles", _TRIANGLE_ROW, _TRIANGLE_TOKENS)
        tris, region = tri_rows["tri"].copy(), tri_rows["region"].copy()
        del tri_rows

        b = header("BOUNDARY")
        edges = np.empty((b, 2), dtype=np.int64)
        tags = []
        for i in range(b):
            parts = lines[pos].split()
            expect(len(parts) == 3, pos, "bad BOUNDARY line %d")
            edges[i] = (int(parts[0]), int(parts[1]))
            tags.append(parts[2])
            pos += 1

        r = header("REGION_ROLE")
        roles = {}
        for i in range(r):
            parts = lines[pos].split()
            expect(len(parts) == 2, pos, "bad REGION_ROLE line %d")
            _expect(parts[1] in ROLES, "unknown role %r" % parts[1])
            roles[int(parts[0])] = parts[1]
            pos += 1

        strip = None
        if pos < len(lines):
            parts = lines[pos].split()
            expect(parts[0] == "STRIP", pos, "expected STRIP section at line %d")
            kv = dict(p.split("=", 1) for p in parts[1:])
            _expect(set(kv) == {"h_row", "rows"}, "STRIP header needs h_row= and rows=")
            h_row = float(kv["h_row"])
            n_rows = int(kv["rows"])
            pos += 1
            rows = []
            virt = np.zeros(n_rows, dtype=bool)
            for k in range(n_rows):
                parts = lines[pos].split()
                expect(int(parts[0]) == k, pos, "rows must be consecutive (line %d)")
                rest = parts[1:]
                if rest and rest[0] == "V":
                    virt[k] = True
                    rest = rest[1:]
                rows.append(np.array(list(map(int, rest)), dtype=np.int64))
                pos += 1
            strip = StripLayout(h_row, rows, virt)
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

def validate_mesh(mesh: Mesh, tol: float = 1e-12) -> None:
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
    bad = np.where(real & (areas <= tol))[0]
    _expect(bad.size == 0,
            "non-virtual triangle %s has non-positive area" % (bad[:5].tolist(),))

    # each listed boundary edge must be an edge of exactly one non-virtual
    # triangle: count the sorted node pairs of all their edges
    tri = mesh.triangles[real]
    nxt = tri[:, [1, 2, 0]]
    lo, hi = np.minimum(tri, nxt), np.maximum(tri, nxt)
    listed = np.sort(mesh.boundary_edges, axis=1)
    base = max(n, int(listed.max(initial=-1)) + 1)
    keys = listed[:, 0] * base + listed[:, 1]
    pairs, count = np.unique((lo * base + hi).ravel(), return_counts=True)
    pairs, count = np.append(pairs, base * base), np.append(count, 0)    # sentinel
    at = np.searchsorted(pairs, keys)
    k = np.where(pairs[at] == keys, count[at], 0)
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
        _expect(np.all(spread <= tol * np.maximum(1.0, np.abs(ords)) + tol),
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
