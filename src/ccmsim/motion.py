"""Rigid-strip mesh motion with row recycling and a shear zipper.

The moving part of a mesh is a structured strip of node rows that translate
rigidly along one axis.  The rows live on a ring: each strip node keeps a
constant *ring ordinate* (its as-generated coordinate along the motion
axis); the embedding into physical space shifts with the accumulated
displacement and wraps nodes that leave a one-row grace band past the
window's exit edge back around to the entry side.  The band is placed, not
stepped: its coordinates, slip count and zipper connectivity are functions
of the accumulated displacement alone (:func:`place`), so a move is undone
by placing the band back where it was.  Connectivity inside the
strip never changes — elements whose nodes straddle the wrap point (cyclic
span greater than half the ring circumference) are deactivated, as are
elements that have left the strip window.

The strip is stitched to each neighbouring static region by a fixed-width
zipper of shear triangles between a static boundary column and the strip's
edge column.  Whenever the accumulated offset reaches one row height the
zipper reconnects one notch (a *slip*): triangle ids and count stay fixed,
only their connectivity is rewritten, and every zipper triangle keeps the
constant area (seam gap x row height)/2 under arbitrary shear, so the
element quality of the coupling layer does not degrade over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import ROLE_CODE, Mesh, tri_areas


@dataclass
class Seam:
    static_nodes: np.ndarray   # ordered along the motion axis, n_phys+1 ids
    ring_nodes: np.ndarray     # all edge-column ids in ring order (n_lines,)
    tri_slots: np.ndarray      # 2*n_phys triangle ids, rewritten on slip
    flip: bool                 # winding choice that keeps areas positive


@dataclass
class MotionState:
    axis: int                  # 0 or 1: the coordinate that moves
    sign: int                  # +1 or -1: motion direction along that axis
    h_row: float
    w_lo: float                # strip window along the axis
    w_hi: float
    circumference: float       # n_lines * h_row
    n_lines: int
    n_phys: int                # window intervals
    ell0: int                  # ring index of the line at the window start
    strip_nodes: np.ndarray    # all strip node ids
    c0: np.ndarray             # as-generated axis ordinate per strip node
    tri_code: np.ndarray       # role code per triangle (int8)
    corner_nodes: np.ndarray   # (k, 3) first nodes of the distinct corner-row triples
    tri_rows: np.ndarray       # of the band triangles; per triangle its triple, k off it
    seams: list[Seam] = field(default_factory=list)
    displacement: float = 0.0
    n_slips: int = 0


@dataclass
class AdvanceResult:
    slips: int
    wrapped_nodes: np.ndarray  # ids that wrapped round the ring in this move


def band_triangles(tri_code) -> np.ndarray:
    """Mask of the band's triangles, the 'strip' and 'virtual' roles, from
    the role code per triangle."""
    return (tri_code == ROLE_CODE["strip"]) | (tri_code == ROLE_CODE["virtual"])


def zipper_triangles(static_nodes, ring_nodes, j0, flip):
    """Connectivity of one seam's zipper for ring shift ``j0``.

    Static interval k pairs with ring nodes j0+k and j0+k+1 (mod ring
    length); each interval carries two triangles.  Returns an
    (2*(len(static_nodes)-1), 3) int array.
    """
    static_nodes = np.asarray(static_nodes)
    ring_nodes = np.asarray(ring_nodes)
    L = len(ring_nodes)
    n_int = len(static_nodes) - 1
    k = np.arange(n_int)
    s0 = static_nodes[k]
    s1 = static_nodes[k + 1]
    m0 = ring_nodes[(j0 + k) % L]
    m1 = ring_nodes[(j0 + k + 1) % L]
    out = np.empty((2 * n_int, 3), dtype=np.int64)
    if flip:
        out[0::2] = np.column_stack([s0, m1, m0])
        out[1::2] = np.column_stack([s0, s1, m1])
    else:
        out[0::2] = np.column_stack([s0, m0, m1])
        out[1::2] = np.column_stack([s0, m1, s1])
    return out


def zipper_flip(coords, static_nodes, ring_nodes, j0) -> bool:
    """The ``flip`` of :func:`zipper_triangles` that gives the zipper of
    ring shift ``j0`` positive areas on ``coords``."""
    trial = zipper_triangles(static_nodes, ring_nodes, j0, flip=False)
    return bool(tri_areas(coords, trial[:1])[0] <= 0)


def _embed(state: MotionState, displacement: float) -> np.ndarray:
    """Physical axis ordinates of the strip nodes at a displacement; a node
    wraps once it is one row past the window's exit edge."""
    if state.sign < 0:
        base = state.w_lo - state.h_row
        return base + np.mod(state.c0 - base - displacement, state.circumference)
    base = state.w_hi + state.h_row
    return base - np.mod(base - state.c0 - displacement, state.circumference)


def init_motion(mesh: Mesh, direction) -> MotionState:
    """Build the motion state for a mesh in its as-generated position.

    ``direction`` is the axis-aligned unit vector of strip motion, e.g.
    (0, -1) for a strip that translates downward.  The mesh must contain a
    strip layout whose rows are listed in ring order (ascending along the
    axis) and at least two virtual row bands, which the zipper needs to
    stay clear of freshly wrapped nodes.

    The as-generated position is the limit of placements as the displacement
    goes to 0 from above, not the placement at 0, which puts the ring row on
    the wrap point a circumference away; so the first move does not wrap it.
    """
    if mesh.strip is None:
        raise ValueError("mesh has no strip layout")
    d = np.asarray(direction, dtype=float)
    axis = int(np.argmax(np.abs(d)))
    if abs(abs(d[axis]) - 1.0) > 1e-12 or abs(d[1 - axis]) > 1e-12:
        raise ValueError("direction must be an axis-aligned unit vector")
    sign = 1 if d[axis] > 0 else -1

    s = mesh.strip
    h = s.h_row
    if not _rows_are_lines(mesh, axis):
        if not _rows_are_lines(mesh, 1 - axis):
            raise ValueError("strip rows are not lines of constant x or y")
        raise ValueError("the band slides along {0} (its rows are lines of constant {0}); "
                         "direction {1} is along {2}"
                         .format("xy"[1 - axis], tuple(d.tolist()), "xy"[axis]))
    strip_nodes = s.all_nodes()
    sizes = [len(r) for r in s.rows]
    first = strip_nodes[np.cumsum(sizes) - sizes]            # each row's first node
    row_pos = mesh.nodes[first, axis]
    phys = ~s.virtual_rows
    w_lo = row_pos[phys].min()
    w_hi = row_pos[phys].max()
    n_phys = int(round((w_hi - w_lo) / h))
    L = s.n_rows
    n_virt = L - n_phys
    if n_virt < 2:
        raise ValueError("strip needs at least two virtual row bands")
    ell0 = int(np.argmin(np.abs(row_pos - w_lo)))

    c0 = mesh.nodes[strip_nodes, axis]

    tri_code = mesh.tri_role_code()
    # the band triangles' corner rows, one key per distinct sorted triple
    row_of = np.full(mesh.n_nodes, -1)
    row_of[strip_nodes] = np.repeat(np.arange(L), sizes)
    band = band_triangles(tri_code)
    rows = np.sort(row_of[mesh.triangles[band]], axis=1)
    if np.any(rows < 0):
        raise ValueError("a band triangle has a corner off the strip rows")
    keys, kind = np.unique((rows[:, 0] * L + rows[:, 1]) * L + rows[:, 2], return_inverse=True)
    corner_rows = np.stack([keys // L**2, keys // L % L, keys % L], axis=1)     # (k, 3)
    tri_rows = np.full(mesh.n_triangles, len(keys))
    tri_rows[band] = kind

    state = MotionState(axis=axis, sign=sign, h_row=h, w_lo=w_lo, w_hi=w_hi,
                        circumference=L * h, n_lines=L, n_phys=n_phys,
                        ell0=ell0, strip_nodes=strip_nodes, c0=c0,
                        tri_code=tri_code, tri_rows=tri_rows,
                        corner_nodes=first[corner_rows])
    state.seams = _discover_seams(mesh, state)
    _rebuild_zippers(mesh, state)   # normalize to the canonical pattern
    return state


def _rows_are_lines(mesh: Mesh, axis: int) -> bool:
    """True if every strip row has one ordinate along ``axis``."""
    rows = mesh.strip.rows
    sizes = [len(r) for r in rows]
    c = mesh.nodes[np.concatenate(rows), axis]
    first = np.repeat(c[np.cumsum([0] + sizes[:-1])], sizes)
    return bool(np.all(np.abs(c - first) <= 1e-9 * mesh.strip.h_row))


def _discover_seams(mesh: Mesh, state: MotionState) -> list[Seam]:
    in_strip = np.zeros(mesh.n_nodes, dtype=bool)
    in_strip[state.strip_nodes] = True
    upd = np.where(state.tri_code == ROLE_CODE["update"])[0]
    if upd.size == 0:
        return []
    tv = 1 - state.axis
    # group update triangles by the transverse position of their first static node
    corners = mesh.triangles[upd]
    static = ~in_strip[corners]
    lone = np.flatnonzero(~static.any(axis=1))
    if lone.size:
        raise ValueError("update triangle %d has no static node" % upd[lone[0]])
    tri_static_v = mesh.nodes[corners[np.arange(upd.size), np.argmax(static, axis=1)], tv]
    seams = []
    for v in np.unique(np.round(tri_static_v, 9)):
        sel = upd[np.abs(tri_static_v - v) < 1e-8]
        nodes = np.unique(mesh.triangles[sel])
        stat = nodes[~in_strip[nodes]]
        stat = stat[np.argsort(mesh.nodes[stat, state.axis])]
        if len(stat) != state.n_phys + 1:
            raise ValueError("seam at %g: %d static nodes, expected %d"
                             % (v, len(stat), state.n_phys + 1))
        mov = nodes[in_strip[nodes]]
        v_m = np.unique(np.round(mesh.nodes[mov, tv], 9))
        if len(v_m) != 1:
            raise ValueError("seam at %g: moving column is not a single line" % v)
        col = state.strip_nodes[
            np.abs(mesh.nodes[state.strip_nodes, tv] - v_m[0]) < 1e-8]
        col = col[np.argsort(mesh.nodes[col, state.axis])]
        if len(col) != state.n_lines:
            raise ValueError("seam at %g: edge column has %d nodes, expected %d"
                             % (v, len(col), state.n_lines))
        slots = np.sort(sel)
        if len(slots) != 2 * state.n_phys:
            raise ValueError("seam at %g: %d update triangles, expected %d"
                             % (v, len(slots), 2 * state.n_phys))
        seams.append(Seam(stat, col, slots, zipper_flip(mesh.nodes, stat, col, state.ell0)))
    return seams


def _rebuild_zippers(mesh: Mesh, state: MotionState) -> None:
    j0 = state.ell0 - state.sign * state.n_slips
    for seam in state.seams:
        mesh.triangles[seam.tri_slots] = zipper_triangles(
            seam.static_nodes, seam.ring_nodes, j0 % state.n_lines, seam.flip)


def place(mesh: Mesh, state: MotionState, displacement: float) -> AdvanceResult:
    """Put the band at the accumulated ``displacement``: its strip
    coordinates, slip count and zippers.  The move must be shorter than half
    the ring, either way.  Returns the slips since the last placement
    (negative backwards) and the wrapped nodes, for the caller to re-seed."""
    distance = displacement - state.displacement
    if distance == 0:
        return AdvanceResult(0, np.empty(0, dtype=np.int64))
    if not abs(distance) < state.circumference / 2:      # a NaN too, before any write
        raise ValueError(f"a move of {distance:.6g} m is not shorter than half the ring")
    c_old = mesh.nodes[state.strip_nodes, state.axis]
    c_new = _embed(state, displacement)
    mesh.nodes[state.strip_nodes, state.axis] = c_new
    wrapped = state.strip_nodes[np.abs(c_new - (c_old + state.sign * distance))
                                > state.circumference / 2]
    state.displacement = displacement
    total_slips = int(np.floor((displacement + 1e-9 * state.h_row) / state.h_row))
    slips = total_slips - state.n_slips
    if slips:
        state.n_slips = total_slips
        _rebuild_zippers(mesh, state)
    return AdvanceResult(slips, wrapped)


def advance(mesh: Mesh, state: MotionState, distance: float) -> AdvanceResult:
    """Translate the band by ``distance`` (>= 0): :func:`place` it at
    ``state.displacement + distance``."""
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return place(mesh, state, state.displacement + distance)


def element_shapes(mesh: Mesh, state: MotionState) -> np.ndarray:
    """Corner coordinates (m, 3, 2) of every triangle in the shape it has
    while active.

    A band triangle across the ring seam is torn in the current position;
    its corners are unwrapped by the circumference along the motion axis,
    to within half a ring of its first corner.
    """
    xe = mesh.nodes[mesh.triangles]
    band = band_triangles(state.tri_code)
    c = xe[band, :, state.axis]
    c -= state.circumference * np.round((c - c[:, :1]) / state.circumference)
    xe[band, :, state.axis] = c
    return xe


def axis_span(mesh: Mesh, state: MotionState, corners) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: the least and the greatest ordinate along the motion
    axis of the three nodes in each row of ``corners`` (k, 3)."""
    c0, c1, c2 = mesh.nodes[corners, state.axis].T
    # column by column: numpy reduces along a length-3 axis several times slower
    return np.minimum(np.minimum(c0, c1), c2), np.maximum(np.maximum(c0, c1), c2)


def active_elements(mesh: Mesh, state: MotionState) -> np.ndarray:
    """Boolean mask of triangles to assemble on, in the current position.

    Static and zipper triangles are always on.  Strip bands are on iff they
    are not torn across the ring wrap and strictly intersect the window
    interior.  The role label records the initial state only, so both
    'strip' and 'virtual' bands are judged geometrically, by their corner
    rows: each row is taken as the line of its own nodes, at the ordinate of
    its first node, and the mask is computed once per distinct triple.
    """
    cmin, cmax = axis_span(mesh, state, state.corner_nodes)
    torn = (cmax - cmin) > state.circumference / 2
    eps = 1e-9 * state.h_row
    inside = (cmax > state.w_lo + eps) & (cmin < state.w_hi - eps)
    # the last entry serves the triangles outside the band
    return np.append(~torn & inside, True)[state.tri_rows]
