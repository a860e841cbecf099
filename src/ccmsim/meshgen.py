"""Deterministic fixture meshes.

Every mesh is assembled from structured lattice blocks: static lattices,
one recycling strip lattice (with its ring-closing wrap band and dangling
reservoir rows on the entry side), and zipper seams that stitch strip edge
columns to static boundary columns.  Generators are pure functions of
their arguments — no randomness — so regeneration is bit-reproducible.

Provided fixtures:

* ``make_unit_square``   — plain static square for flux-recovery studies.
* ``make_strip_square``  — unit square with a vertically recycling strip,
  used by the moving-mesh convergence study.
* ``make_probe_mesh``    — tall domain with a blunt-nosed melting probe
  hole descending through the strip.
* ``make_hotwire_mesh``  — shallow domain with a rectangular heated rod
  hole traversing horizontally.
"""

from __future__ import annotations

import numpy as np

from .mesh import ROLE_CODE, ROLES, Mesh, StripLayout, validate_mesh
from .motion import zipper_flip, zipper_triangles

STRIP_MIN_ROWS = 4      # fewest rows per side of make_strip_square


class _Builder:
    """Accumulates nodes/triangles/edges and compacts unused nodes at the end.

    Nodes and triangles are kept as one array block per lattice or zipper,
    in the order they are added; a triangle's region id is its role's code
    in ROLE_CODE.
    """

    def __init__(self):
        self.n_pts = 0
        self.pts: list[np.ndarray] = []       # (k, 2) float blocks
        self.tris: list[np.ndarray] = []      # (k, 3) int64 blocks
        self.regions: list[np.ndarray] = []   # (k,) int64, region per triangle
        self.edges: list[tuple[int, int, str]] = []
        self.rows: list[np.ndarray] = []
        self.virtual_rows: list[bool] = []
        self.h_row: float | None = None

    def lattice(self, us, vs, axis, region_fn, virtual_lines=None):
        """Add a block of nodes on the tensor grid us x vs.

        ``axis`` maps (u, v) to physical coordinates: axis=0 means x=u,
        axis=1 means y=u.  ``region_fn(iu, iv)`` gives the region id of
        cell (iu, iv) or -1 to omit it.  A block given ``virtual_lines``,
        the u-lines that start outside the window, is the recycling strip:
        it appends the wrap band joining the last u-line back to the first
        and registers each u-line as a strip row (ring order = ascending u).
        Nodes run u-line by u-line; each kept cell adds two triangles, cells
        in the order of their u-band, then of v.
        Returns the (len(us), len(vs)) array of node ids.
        """
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        nu, nv = len(us), len(vs)
        gid = self.n_pts + np.arange(nu * nv).reshape(nu, nv)
        uv = (np.repeat(us, nv), np.tile(vs, nu))
        self.pts.append(np.column_stack(uv if axis == 0 else uv[::-1]))
        self.n_pts += nu * nv
        strip = virtual_lines is not None
        n_bands = nu - 1 + strip
        reg = np.array([[region_fn(iu, iv) for iv in range(nv - 1)] for iu in range(n_bands)],
                        dtype=np.int64).reshape(n_bands, nv - 1)
        keep = reg >= 0
        lo, hi = gid[:n_bands], gid[(np.arange(n_bands) + 1) % nu]   # u-line and its neighbour
        n00, n01, n10, n11 = lo[:, :-1][keep], lo[:, 1:][keep], hi[:, :-1][keep], hi[:, 1:][keep]
        tris = np.empty((2 * len(n00), 3), dtype=np.int64)
        if axis == 0:
            tris[0::2] = np.column_stack([n00, n10, n11])
            tris[1::2] = np.column_stack([n00, n11, n01])
        else:
            tris[0::2] = np.column_stack([n00, n01, n11])
            tris[1::2] = np.column_stack([n00, n11, n10])
        self.tris.append(tris)
        self.regions.append(np.repeat(reg[keep], 2))
        if strip:
            self.h_row = float(us[1] - us[0])
            self.rows.extend(gid)
            self.virtual_rows.extend(iu in virtual_lines for iu in range(nu))
        return gid

    def zipper(self, static_col, ring_col, ell0):
        """Stitch a static column to a strip edge column (ring order)."""
        flip = zipper_flip(np.concatenate(self.pts), static_col, ring_col, ell0)
        tris = zipper_triangles(static_col, ring_col, ell0, flip)
        self.tris.append(tris)
        self.regions.append(np.full(len(tris), ROLE_CODE["update"], dtype=np.int64))

    def edge(self, a, b, tag):
        self.edges.append((int(a), int(b), tag))

    def edge_run(self, ids, tag):
        ids = np.asarray(ids).tolist()
        self.edges.extend(zip(ids[:-1], ids[1:], [tag] * (len(ids) - 1)))

    def finish(self) -> Mesh:
        pts = np.concatenate(self.pts)
        tris = np.concatenate(self.tris)
        region = np.concatenate(self.regions)
        used = np.zeros(len(pts), dtype=bool)
        used[tris.ravel()] = True
        remap = -np.ones(len(pts), dtype=np.int64)
        remap[used] = np.arange(used.sum())
        tris = remap[tris]
        edges = remap[np.array([e[:2] for e in self.edges], dtype=np.int64).reshape(-1, 2)]
        tags = [t for _, _, t in self.edges]
        strip = None
        if self.rows:
            rows = [np.sort(remap[row[used[row]]]) for row in self.rows]
            strip = StripLayout(self.h_row, rows,
                                np.array(self.virtual_rows, dtype=bool))
        roles = {int(r): ROLES[int(r)] for r in np.unique(region)}
        mesh = Mesh(pts[used], tris, region, edges, tags, roles, strip)
        validate_mesh(mesh)
        return mesh


# ---------------------------------------------------------------------------

def make_unit_square(n: int) -> Mesh:
    """Static structured unit square, n x n cells, sides tagged
    left/right/bottom/top."""
    b = _Builder()
    xs = np.arange(n + 1) / n
    gid = b.lattice(xs, xs, axis=0, region_fn=lambda iu, iv: ROLE_CODE["static"])
    b.edge_run(gid[0, :], "left")
    b.edge_run(gid[-1, :], "right")
    b.edge_run(gid[:, 0], "bottom")
    b.edge_run(gid[:, -1], "top")
    return b.finish()


def make_strip_square(n: int, n_virt: int = 2) -> Mesh:
    """Unit square with a recycling strip over x in [0.3, 0.7].

    Row height h = 1/n; the strip window spans the full height, the seam
    (zipper) bands are one cell wide, and the static flanks carry the
    'left' (x=0) and 'right' (x=1) boundary tags.  ``n_virt`` >= 2 ring
    bands start outside the window.
    """
    if n < STRIP_MIN_ROWS:
        raise ValueError("need at least %d rows" % STRIP_MIN_ROWS)
    h = 1.0 / n
    L = n + n_virt
    lines = np.arange(L) * h                 # ring line ordinates (y)
    ncs = int(round(0.4 / h))
    xs_strip = 0.3 + np.arange(ncs + 1) * h
    n_left = max(1, int(round((0.3 - h) / h)))
    xs_left = np.linspace(0.0, 0.3 - h, n_left + 1)
    xs_right = 1.0 - xs_left[::-1]
    ys_static = np.arange(n + 1) * h

    b = _Builder()

    def strip_region(iu, iv):
        return ROLE_CODE["strip"] if iu < n else ROLE_CODE["virtual"]

    gs = b.lattice(lines, xs_strip, axis=1, region_fn=strip_region,
                   virtual_lines=set(range(n + 1, L)))
    gl = b.lattice(ys_static, xs_left, axis=1, region_fn=lambda iu, iv: ROLE_CODE["static"])
    gr = b.lattice(ys_static, xs_right, axis=1, region_fn=lambda iu, iv: ROLE_CODE["static"])
    b.zipper(gl[:, -1], gs[:, 0], ell0=0)
    b.zipper(gr[:, 0], gs[:, -1], ell0=0)
    b.edge_run(gl[:, 0], "left")
    b.edge_run(gr[:, -1], "right")
    return b.finish()


def make_ramp_mesh() -> Mesh:
    """Half-symmetric column with a flat heated face descending through
    the strip.

    Built for start-up (ramp) studies of the velocity coupling.  The
    domain is the left half of a wide heated slot, cut along the slot's
    vertical midplane: the right boundary is a symmetry line (natural,
    untagged), so the column below the face stays nearly
    one-dimensional and the recovered face flux is clean.  The cavity
    side wall shares the face temperature (tag 'side'), which keeps the
    face corner free of a cold-contact singularity; the cap carries no
    tag (natural, adiabatic).

    Domain [0, 0.175] x [0, 0.40], row height 0.005, strip over
    x in [0.02, 0.175].  The cavity spans x in [0.075, 0.175]; its flat
    floor starts at y = 0.30 and the cap sits at y = 0.38.  The floor
    portion x in [0.095, 0.175] is tagged 'tip'; the four floor edges
    next to the wall corner are tagged 'nose' so that averaging the
    recovered flux over 'tip' stays clear of the corner concentration.
    Outer box tags live on the static flank.
    """
    h = 0.005
    n_phys, n_virt = 80, 3
    L = n_phys + n_virt
    lines = np.arange(L) * h
    xs_strip = np.arange(4, 36) * h          # 0.02 .. 0.175
    xs_left = np.array([0.0, 0.005, 0.010, 0.015])
    ys_static = np.arange(n_phys + 1) * h

    i_foot0 = 11                             # strip cell index of x=0.075
    face_line, cap_line = 60, 76             # y=0.30 and y=0.38

    def strip_region(iu, iv):
        if iv >= i_foot0 and face_line <= iu < cap_line:
            return -1                        # inside the cavity
        return ROLE_CODE["strip"] if iu < n_phys else ROLE_CODE["virtual"]

    b = _Builder()
    gs = b.lattice(lines, xs_strip, axis=1, region_fn=strip_region,
                   virtual_lines=set(range(n_phys + 1, L)))
    gl = b.lattice(ys_static, xs_left, axis=1, region_fn=lambda iu, iv: ROLE_CODE["static"])
    b.zipper(gl[:, -1], gs[:, 0], ell0=0)

    b.edge_run(gl[:, 0], "left")
    b.edge_run(gl[0, :], "bottom")
    b.edge_run(gl[-1, :], "top")

    for i in range(i_foot0, 31):
        tag = "tip" if i >= i_foot0 + 4 else "nose"
        b.edge(gs[face_line, i], gs[face_line, i + 1], tag)
    for k in range(face_line, cap_line):
        b.edge(gs[k, i_foot0], gs[k + 1, i_foot0], "side")
    return b.finish()


# Probe nose profile: band index below which cells are kept, per footprint
# column (staircase approximating a blunt nose; flat centre section).
_PROBE_NOSE = [119, 118, 117, 116, 115, 115, 115, 115,
               115, 115, 115, 115, 116, 117, 118, 119]


def make_probe_mesh() -> Mesh:
    """Tall melting domain with a descending probe hole.

    Domain [0, 1.16] x [0, 1.30], row height 0.01, strip over
    x in [0.42, 0.74].  The probe footprint spans x in [0.50, 0.66]; its
    staircase nose starts at y = 1.15 (flat centre over x in [0.54, 0.62])
    and the cavity is capped at y = 1.28.  Hole boundary tags: 'tip' on
    the flat centre of the nose, 'nose' on the staircase flanks, 'side'
    on the lower 6 rows of the vertical walls, 'wall' on the remaining
    walls and the cap.  Outer box tags live on the static flanks only.
    """
    h = 0.01
    n_phys, n_virt = 130, 3
    L = n_phys + n_virt
    lines = np.arange(L) * h
    xs_strip = np.arange(42, 75) * h         # 0.42 .. 0.74
    xs_left = np.array([0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30,
                        0.34, 0.37, 0.39, 0.40, 0.41])
    xs_right = 1.16 - xs_left[::-1]
    ys_static = np.arange(n_phys + 1) * h

    i_foot0 = 8                              # strip cell index of x=0.50
    cap_line = 128

    def strip_region(iu, iv):
        if i_foot0 <= iv < i_foot0 + 16:
            if _PROBE_NOSE[iv - i_foot0] <= iu < cap_line:
                return -1                    # inside the probe cavity
        return ROLE_CODE["strip"] if iu < n_phys else ROLE_CODE["virtual"]

    b = _Builder()
    gs = b.lattice(lines, xs_strip, axis=1, region_fn=strip_region,
                   virtual_lines=set(range(n_phys + 1, L)))
    gl = b.lattice(ys_static, xs_left, axis=1, region_fn=lambda iu, iv: ROLE_CODE["static"])
    gr = b.lattice(ys_static, xs_right, axis=1, region_fn=lambda iu, iv: ROLE_CODE["static"])
    b.zipper(gl[:, -1], gs[:, 0], ell0=0)
    b.zipper(gr[:, 0], gs[:, -1], ell0=0)

    # outer box on the static flanks (the band's own window rows move with
    # the band, so they carry no persistent tags)
    b.edge_run(gl[:, 0], "left")
    b.edge_run(gr[:, -1], "right")
    for flank in (gl, gr):
        b.edge_run(flank[0, :], "bottom")
        b.edge_run(flank[-1, :], "top")

    # hole boundary: flat contact face (tip), staircase flanks (nose),
    # lower walls (side), remaining walls and cap (wall)
    nose_lo = min(_PROBE_NOSE)
    for i in range(16):
        iv = i_foot0 + i
        tag = "tip" if _PROBE_NOSE[i] == nose_lo else "nose"
        b.edge(gs[_PROBE_NOSE[i], iv], gs[_PROBE_NOSE[i], iv + 1], tag)
    for i in range(1, 16):
        lo = min(_PROBE_NOSE[i - 1], _PROBE_NOSE[i])
        hi = max(_PROBE_NOSE[i - 1], _PROBE_NOSE[i])
        for k in range(lo, hi):
            b.edge(gs[k, i_foot0 + i], gs[k + 1, i_foot0 + i], "nose")
    for iv in (i_foot0, i_foot0 + 16):
        for k in range(_PROBE_NOSE[0], cap_line):
            b.edge(gs[k, iv], gs[k + 1, iv], "side" if k < 125 else "wall")
    for iv in range(i_foot0, i_foot0 + 16):
        b.edge(gs[cap_line, iv], gs[cap_line, iv + 1], "wall")
    return b.finish()


def make_hotwire_mesh() -> Mesh:
    """Shallow domain with a horizontally traversing heated-rod hole.

    Domain [0, 0.2] x [0, 0.1]; the strip (rows = vertical lines, spacing
    0.002) spans y in [0, 0.068] and recycles along +x; a static band
    covers y in [0.07, 0.1].  The rod hole spans x in [0.01, 0.026],
    y in [0, 0.06] and is open at the bottom boundary.  Its leading face
    (x = 0.026) is tagged 'tip', the trailing face and the top face
    'side'.
    """
    h = 0.002
    n_phys, n_virt = 100, 3
    L = n_phys + n_virt
    lines = np.arange(-(n_virt - 1), n_phys + 1) * h    # -0.004 .. 0.2
    vs_strip = np.arange(35) * h                        # y: 0 .. 0.068
    xs_static = np.arange(n_phys + 1) * h
    ys_static = np.array([0.07, 0.072, 0.075, 0.079, 0.084, 0.09, 0.1])

    rod_lo, rod_hi = 7, 15        # ring line indices of x=0.01 and x=0.026
    rod_top = 30                  # v line index of y=0.06

    def strip_region(iu, iv):
        if rod_lo <= iu < rod_hi and iv < rod_top:
            return -1
        if iu < n_virt - 1 or iu >= L - 1:
            return ROLE_CODE["virtual"]
        return ROLE_CODE["strip"]

    b = _Builder()
    gs = b.lattice(lines, vs_strip, axis=0, region_fn=strip_region,
                   virtual_lines=set(range(n_virt - 1)))
    gt = b.lattice(xs_static, ys_static, axis=0,
                   region_fn=lambda iu, iv: ROLE_CODE["static"])
    b.zipper(gt[:, 0], gs[:, -1], ell0=n_virt - 1)

    b.edge_run(gt[:, -1], "top")
    b.edge_run(gt[0, :], "left")
    b.edge_run(gt[-1, :], "right")

    for k in range(rod_top):
        b.edge(gs[rod_hi, k], gs[rod_hi, k + 1], "tip")
        b.edge(gs[rod_lo, k], gs[rod_lo, k + 1], "side")
    for iu in range(rod_lo, rod_hi):
        b.edge(gs[iu, rod_top], gs[iu + 1, rod_top], "side")
    return b.finish()
