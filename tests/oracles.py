"""Independent reference implementations used to cross-check the library.

Everything here deliberately uses different numerics than the package
(finite differences instead of finite elements, bisection instead of the
secant iteration, a degree-5 quadrature instead of the degree-2 rule), so
agreement between the two is evidence of correctness rather than a shared
bug.  Expensive references were run once at high resolution and their
outputs frozen as literals in the test modules; the functions below are
cheap enough to run live.  The file readers and writers at the end work one
line at a time, the plain loops that the package's block parser and block
writers must match byte for byte; likewise the role lookup and mesh builder
work one triangle and one node at a time, and the slab plan sorts its keys
twice, the versions that the package's whole-array set-up must match bit for
bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from ccmsim import stfem
from ccmsim.mesh import (ROLE_CODE, ROLES, Mesh, MeshFormatError, StripLayout, tri_areas,
                         validate_mesh)
from ccmsim.motion import zipper_triangles


def cn_cooling(nx: int = 801, dt: float = 5e-5, t_end: float = 0.25):
    """Crank-Nicolson reference for the unit-rod cooling problem.

    Rod on [0, 1] at initial temperature 1, insulated left end, right end
    clamped to 0 at t = 0, unit diffusivity.  Returns (x, T, q_end) at
    t_end, where q_end = -dT/dx at the clamped end from a one-sided
    3-point stencil.  At the default resolution the end flux agrees with
    a 40-digit series evaluation to ~1e-7.
    """
    x = np.linspace(0.0, 1.0, nx)
    h = x[1] - x[0]
    T = np.ones(nx)
    T[-1] = 0.0
    r = dt / (2.0 * h * h)
    n = nx - 1                      # unknowns: all nodes but the clamped end
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 + 2.0 * r
    ab[0, 1:] = -r
    ab[2, :-1] = -r
    ab[0, 1] = -2.0 * r             # mirror node of the insulated end
    for _ in range(int(round(t_end / dt))):
        rhs = np.empty(n)
        rhs[0] = T[0] + 2.0 * r * (T[1] - T[0])
        rhs[1:] = T[1:-1] + r * (T[2:] - 2.0 * T[1:-1] + T[:-2])
        T[:-1] = solve_banded((1, 1), ab, rhs)
    q_end = -(1.5 * T[-1] - 2.0 * T[-2] + 0.5 * T[-3]) / h
    return x, T, q_end


def bisect_root(f, lo: float, hi: float, tol: float = 1e-13,
                max_iter: int = 200) -> float:
    """Plain bisection; the interval must bracket a sign change."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("bisect_root: interval does not bracket a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# 7-point degree-5 triangle rule (barycentric points, weights sum to 1)
_A1 = (6.0 - np.sqrt(15.0)) / 21.0
_A2 = (6.0 + np.sqrt(15.0)) / 21.0
_W1 = (155.0 - np.sqrt(15.0)) / 1200.0
_W2 = (155.0 + np.sqrt(15.0)) / 1200.0
_Q5_PTS = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_A1, _A1, 1 - 2 * _A1], [_A1, 1 - 2 * _A1, _A1], [1 - 2 * _A1, _A1, _A1],
    [_A2, _A2, 1 - 2 * _A2], [_A2, 1 - 2 * _A2, _A2], [1 - 2 * _A2, _A2, _A2],
])
_Q5_W = np.array([9 / 40, _W1, _W1, _W1, _W2, _W2, _W2])


def l2_error_quad5(coords, conn, values, exact) -> float:
    """L2 norm of (P1 nodal field - exact) with a degree-5 rule."""
    conn = np.asarray(conn, dtype=np.int64).reshape(-1, 3)
    p = coords[conn]
    area = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    fv = values[conn]
    acc = 0.0
    for bary, w in zip(_Q5_PTS, _Q5_W):
        xq = np.einsum("a,eai->ei", bary, p)
        fq = fv @ bary
        eq = np.asarray(exact(xq), dtype=float)
        acc += w * np.sum(area * (fq - eq) ** 2)
    return float(np.sqrt(acc))


def prism_amplification(z: float) -> float:
    """Amplification of one slab of u' = -lambda*u (z = lambda*dt).

    Reduces the slab system to a single spatial point: linear-in-time
    trial/test functions plus the jump coupling give the 2x2 system below;
    the returned value is u_top for u_prev = 1.
    """
    a = np.array([[0.5 + z / 3.0, 0.5 + z / 6.0],
                  [-0.5 + z / 6.0, 0.5 + z / 3.0]])
    b = np.array([1.0, 0.0])
    return float(np.linalg.solve(a, b)[1])


def slab_residual(coords_old, coords_new, conn, dt, alpha, t_prev, t_bot, t_top):
    """Weak residual of one P1 prism slab, straight from the weak form.

    Test function v_b is a nodal hat times (1 - theta) (bottom rows) or
    theta (top rows).  Row b holds

        int_slab (v_b dT/dt + alpha grad v_b . grad T) dx dt
        + int_{Omega(t_n)} v_b(t_n) (T(t_n) - t_prev) dx

    for T interpolating ``t_bot``/``t_top``.  Physical space-time
    derivatives come from inverting the full 3x3 Jacobian of
    (xi, eta, theta) -> (x, y, t); space uses the degree-5 rule above and
    time 2-point Gauss.  Returns the rows [bottom nodes, top nodes].
    """
    n = len(coords_old)
    conn = np.asarray(conn, dtype=np.int64)
    xo, xn = coords_old[conn], coords_new[conn]               # (ne, 3, 2)
    tv = np.concatenate([t_bot[conn], t_top[conn]], axis=1)   # (ne, 6)
    dof = np.concatenate([conn, conn + n], axis=1)
    dn = np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])      # dN_a/d(xi, eta)
    res = np.zeros(2 * n)
    for bary, wq in zip(_Q5_PTS, _Q5_W):
        for th in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
            lt = np.array([1.0 - th, th])
            phi = np.kron(lt, bary)                           # (6,)
            dref = np.vstack([np.kron(lt, dn[0]), np.kron(lt, dn[1]),
                              np.kron([-1.0, 1.0], bary)])    # (3, 6)
            xq = (1.0 - th) * xo + th * xn
            jac = np.zeros((len(conn), 3, 3))
            jac[:, :2, :2] = np.einsum("eai,ja->eij", xq, dn)
            jac[:, :2, 2] = np.einsum("eai,a->ei", xn - xo, bary)
            jac[:, 2, 2] = dt
            grad = np.linalg.solve(np.swapaxes(jac, 1, 2),
                                   np.broadcast_to(dref, (len(conn), 3, 6)))
            gt = np.einsum("ekb,eb->ek", grad, tv)            # (ne, 3): T_x, T_y, T_t
            integrand = (phi[None, :] * gt[:, 2:3]
                         + alpha * np.einsum("ekb,ek->eb", grad[:, :2], gt[:, :2]))
            w = 0.5 * wq * 0.5 * np.abs(np.linalg.det(jac))   # reference prism volume 1/2
            np.add.at(res, dof, w[:, None] * integrand)
        # jump term on the old triangle
        area = 0.5 * np.abs(np.linalg.det(np.einsum("eai,ja->eij", xo, dn)))
        jump = (t_bot[conn] - t_prev[conn]) @ bary
        np.add.at(res, conn, (wq * area * jump)[:, None] * bary[None, :])
    return res


def recover_flux_sparse(op, sol, edges, rho_cp):
    """Boundary flux recovery with a sparse chain solve, the reference for the
    package's dense one: the consistent chain mass assembled as COO, turned
    into CSC and solved by ``spsolve``.  Returns (nodes, nodal_flux, q_s_avg)
    in the conventions of ``ccmsim.cbf.recover_flux``.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    nodes = np.unique(edges)
    r = op.node_residual_time_avg(sol, nodes)
    coords = op.problem.coords_new
    loc = np.searchsorted(nodes, edges)
    ell = np.linalg.norm(coords[edges[:, 1]] - coords[edges[:, 0]], axis=1)
    a, b = loc[:, 0], loc[:, 1]
    mass = sp.coo_matrix((np.concatenate([ell / 3.0, ell / 3.0, ell / 6.0, ell / 6.0]),
                          (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                         shape=(nodes.size, nodes.size)).tocsc()
    g = spla.spsolve(mass, r)
    return nodes, -rho_cp * g, -rho_cp * float(r.sum() / mass.sum())


# ---------------------------------------------------------------------------
# line-by-line file I/O, the reference for the block parser and writers

def load_mesh_by_line(path):
    """Parse a version-1 mesh file one line at a time with ``split``/``int``/
    ``float``; same checks, messages and result as :func:`ccmsim.mesh.load_mesh`.
    ``at[k]`` is the number in the file of ``lines[k]``."""
    def _expect(cond, msg):
        if not cond:
            raise MeshFormatError(msg)

    with open(path, encoding="utf-8") as f:
        numbered = [(i, ln.strip()) for i, ln in enumerate(f, 1) if ln.strip()]
    at = [i for i, _ in numbered]
    lines = [ln for _, ln in numbered]
    _expect(lines and lines[0] == "CCMMESH 1", "missing 'CCMMESH 1' header")
    pos = 1

    def header(name):
        nonlocal pos
        parts = lines[pos].split()
        _expect(len(parts) == 2 and parts[0] == name,
                "expected '%s <count>' at line %d" % (name, at[pos]))
        pos += 1
        return int(parts[1])

    try:
        n = header("NODES")
        nodes = np.empty((n, 2))
        for i in range(n):
            parts = lines[pos].split()
            _expect(len(parts) == 3 and int(parts[0]) == i,
                    "nodes must be consecutive starting at 0 (line %d)" % at[pos])
            nodes[i] = (float(parts[1]), float(parts[2]))
            pos += 1

        m = header("TRIANGLES")
        tris = np.empty((m, 3), dtype=np.int64)
        region = np.empty(m, dtype=np.int64)
        for i in range(m):
            parts = lines[pos].split()
            _expect(len(parts) == 5 and int(parts[0]) == i,
                    "triangles must be consecutive starting at 0 (line %d)" % at[pos])
            tris[i] = (int(parts[1]), int(parts[2]), int(parts[3]))
            region[i] = int(parts[4])
            pos += 1

        b = header("BOUNDARY")
        edges = np.empty((b, 2), dtype=np.int64)
        tags = []
        for i in range(b):
            parts = lines[pos].split()
            _expect(len(parts) == 3, "bad BOUNDARY line %d" % at[pos])
            edges[i] = (int(parts[0]), int(parts[1]))
            tags.append(parts[2])
            pos += 1

        r = header("REGION_ROLE")
        region_ids = np.empty(r, dtype=np.int64)
        role_names = []
        for i in range(r):
            parts = lines[pos].split()
            _expect(len(parts) == 2, "bad REGION_ROLE line %d" % at[pos])
            _expect(parts[1] in ROLES, "unknown role %r" % parts[1])
            region_ids[i] = int(parts[0])
            role_names.append(parts[1])
            pos += 1
        roles = dict(zip(region_ids.tolist(), role_names))

        strip = None
        if pos < len(lines):
            parts = lines[pos].split()
            _expect(parts[0] == "STRIP", "expected STRIP section at line %d" % at[pos])
            kv = dict(p.split("=", 1) for p in parts[1:])
            _expect(set(kv) == {"h_row", "rows"}, "STRIP header needs h_row= and rows=")
            h_row = float(kv["h_row"])
            n_rows = int(kv["rows"])
            pos += 1
            rows = []
            virt = np.zeros(n_rows, dtype=bool)
            for k in range(n_rows):
                parts = lines[pos].split()
                _expect(int(parts[0]) == k, "rows must be consecutive (line %d)" % at[pos])
                rest = parts[1:]
                if rest and rest[0] == "V":
                    virt[k] = True
                    rest = rest[1:]
                rows.append(np.array([int(p) for p in rest], dtype=np.int64))
                pos += 1
            strip = StripLayout(h_row, rows, virt)
        _expect(pos == len(lines), "trailing content after line %d" % at[pos - 1])
    except (IndexError, ValueError, OverflowError) as exc:
        if pos >= len(lines):
            raise MeshFormatError("file ends early after line %d" % at[-1]) from exc
        raise MeshFormatError("bad line %d: %r (%s)" % (at[pos], lines[pos], exc)) from exc

    mesh = Mesh(nodes, tris, region, edges, tags, roles, strip)
    validate_mesh(mesh)
    return mesh


def write_vtk_by_line(path, coords, conn, temperature, active_mask) -> None:
    """Legacy-ASCII VTK snapshot written one line at a time; the reference
    for :func:`ccmsim.driver.write_vtk`."""
    n = len(coords)
    m = len(conn)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("ccmsim snapshot\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        for x, y in coords:
            f.write(f"{x:.17g} {y:.17g} 0\n")
        f.write(f"CELLS {m} {4 * m}\n")
        for a, b, c in conn:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {m}\n")
        for _ in range(m):
            f.write("5\n")
        f.write(f"POINT_DATA {n}\n")
        f.write("SCALARS temperature double\nLOOKUP_TABLE default\n")
        for v in temperature:
            f.write(f"{v:.17g}\n")
        f.write(f"CELL_DATA {m}\n")
        f.write("SCALARS active int\nLOOKUP_TABLE default\n")
        for a in active_mask:
            f.write(f"{int(a)}\n")


# ---------------------------------------------------------------------------
# role codes, triangle by triangle

def tri_code_by_lookup(mesh):
    """Role code per triangle from a dict lookup of each triangle's region;
    the reference for :meth:`ccmsim.mesh.Mesh.tri_role_code`, which looks
    the region ids up in a table."""
    codes = {rid: ROLES.index(role) for rid, role in mesh.region_roles.items()}
    return np.array([codes[int(r)] for r in mesh.tri_region], dtype=np.int8)


# ---------------------------------------------------------------------------
# the band's active mask, triangle by triangle

def active_elements_by_triangle(mesh, state):
    """Active-triangle mask from each band triangle's own three corner nodes;
    the reference for :func:`ccmsim.motion.active_elements`, which reads
    each row's ordinate once."""
    act = np.ones(mesh.n_triangles, dtype=bool)
    geo = (state.tri_code == 1) | (state.tri_code == 3)
    conn = mesh.triangles[geo]
    c = mesh.nodes[:, state.axis][conn]
    cmax = c.max(axis=1)
    cmin = c.min(axis=1)
    torn = (cmax - cmin) > state.circumference / 2
    eps = 1e-9 * state.h_row
    inside = (cmax > state.w_lo + eps) & (cmin < state.w_hi - eps)
    act[geo] = ~torn & inside
    return act


# ---------------------------------------------------------------------------
# the mesh generators' builder, one node and one triangle at a time

class BuilderByLoop:
    """A mesh builder that adds nodes, triangles and rows one at a time in
    Python loops; the reference for :class:`ccmsim.meshgen._Builder`, which
    builds each lattice block as arrays.  Patched in for ``meshgen._Builder``,
    it makes the generators build their meshes its way."""

    def __init__(self):
        self.pts: list[tuple[float, float]] = []
        self.tris: list[tuple[int, int, int, int]] = []   # a, b, c, region
        self.edges: list[tuple[int, int, str]] = []
        self.rows: list[list[int]] = []
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
        Returns the (len(us), len(vs)) array of node ids.
        """
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        base = len(self.pts)
        gid = base + np.arange(len(us) * len(vs)).reshape(len(us), len(vs))
        for u in us:
            for v in vs:
                self.pts.append((u, v) if axis == 0 else (v, u))
        n_bands = len(us) - 1 if virtual_lines is None else len(us)
        for iu in range(n_bands):
            nxt = (iu + 1) % len(us)
            for iv in range(len(vs) - 1):
                reg = region_fn(iu, iv)
                if reg < 0:
                    continue
                n00 = gid[iu, iv]
                nu = gid[nxt, iv]       # u-neighbour
                nv = gid[iu, iv + 1]    # v-neighbour
                n11 = gid[nxt, iv + 1]
                if axis == 0:
                    self.tris.append((n00, nu, n11, reg))
                    self.tris.append((n00, n11, nv, reg))
                else:
                    self.tris.append((n00, nv, n11, reg))
                    self.tris.append((n00, n11, nu, reg))
        if virtual_lines is not None:
            self.h_row = float(us[1] - us[0])
            for iu in range(len(us)):
                self.rows.append([int(n) for n in gid[iu]])
                self.virtual_rows.append(iu in virtual_lines)
        return gid

    def zipper(self, static_col, ring_col, ell0):
        """Stitch a static column to a strip edge column (ring order)."""
        pts = np.array(self.pts)
        trial = zipper_triangles(static_col, ring_col, ell0, flip=False)
        flip = bool(tri_areas(pts, trial[:1])[0] <= 0)
        for a, b, c in zipper_triangles(static_col, ring_col, ell0, flip):
            self.tris.append((int(a), int(b), int(c), ROLE_CODE["update"]))

    def edge(self, a, b, tag):
        self.edges.append((int(a), int(b), tag))

    def edge_run(self, ids, tag):
        for a, b in zip(ids[:-1], ids[1:]):
            self.edge(a, b, tag)

    def finish(self) -> Mesh:
        pts = np.array(self.pts, dtype=float)
        tris = np.array([t[:3] for t in self.tris], dtype=np.int64)
        region = np.array([t[3] for t in self.tris], dtype=np.int64)
        used = np.zeros(len(pts), dtype=bool)
        used[tris.ravel()] = True
        remap = -np.ones(len(pts), dtype=np.int64)
        remap[used] = np.arange(used.sum())
        tris = remap[tris]
        edges = np.array([[remap[a], remap[b]] for a, b, _ in self.edges],
                         dtype=np.int64).reshape(-1, 2)
        tags = [t for _, _, t in self.edges]
        strip = None
        if self.rows:
            rows = [np.array(sorted(remap[n] for n in row if used[n]),
                             dtype=np.int64) for row in self.rows]
            strip = StripLayout(self.h_row, rows,
                                np.array(self.virtual_rows, dtype=bool))
        roles = {int(r): ROLES[int(r)] for r in np.unique(region)}
        mesh = Mesh(pts[used], tris, region, edges, tags, roles, strip)
        validate_mesh(mesh)
        return mesh


# ---------------------------------------------------------------------------
# the slab plan by np.unique

class SlabPlanByUnique(stfem.SlabPlan):
    """A slab plan whose pattern and slots come from ``np.unique`` of the
    entry keys, and whose element-to-pattern CSR from a second sort of the
    slots; the reference for :class:`ccmsim.stfem.SlabPlan`, which sorts
    the keys once."""

    def __init__(self, n, conn, shapes, zipper, band):
        self.n = n
        self.structure = None
        self.zipper = np.asarray(zipper, dtype=bool)
        self.band = np.asarray(band, dtype=bool)
        self.rigid = np.flatnonzero(~self.zipper)
        rconn = conn[self.rigid]
        x = shapes[self.rigid]
        e1 = x[:, 1] - x[:, 0]
        e2 = x[:, 2] - x[:, 0]
        det2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        gx = np.stack([e1[:, 1] - e2[:, 1], e2[:, 1], -e1[:, 1]], axis=1)
        gy = np.stack([e2[:, 0] - e1[:, 0], -e2[:, 0], e1[:, 0]], axis=1)
        r = len(self.rigid)
        grads = [np.broadcast_to(g[:, None, :], (r, 3, 3)) for g in (gx, gy)]
        keys = (np.tile(rconn, (1, 3)) * n + np.repeat(rconn, 3, axis=1)).ravel()
        pairs, slot = np.unique(keys, return_inverse=True)
        pattern = sp.csc_matrix((np.ones(len(pairs)), pairs % n,
                                 np.searchsorted(pairs // n, np.arange(n + 1))), shape=(n, n))
        self.indices, self.indptr = pattern.indices, pattern.indptr
        order = np.argsort(slot, kind="stable")
        elem = (order // 9).astype(self.indices.dtype)
        start = np.searchsorted(slot[order], np.arange(len(pairs) + 1)).astype(elem.dtype)
        self.mass, self.diffusion, self.grad_x, self.grad_y = (
            sp.csr_matrix((np.ravel(v)[order], elem, start), shape=(len(pairs), r))
            for v in (det2[:, None, None] * stfem._M,
                      (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
                      / det2[:, None, None],
                      *grads))
        # the slots in the rows of the band elements' nodes
        reached = np.flatnonzero(np.isin(pairs % n, conn[self.band]))
        pos = reached.astype(self.indices.dtype)
        self.band_entries = (pos, self.indices[pos],
                             np.searchsorted(pairs[reached] // n, np.arange(n + 1))
                             .astype(self.indptr.dtype))


# ---------------------------------------------------------------------------
# a slab assembled with every term

class SlabOperatorEveryTerm(stfem.SlabOperator):
    """A slab operator whose assembly forms every term: the band's gradient
    sums from the plan and both mesh-velocity terms ``d_x G_x`` and
    ``d_y G_y``, and the zipper's quadrature, jump, jump load and COO even on
    an empty zipper; the reference for :class:`ccmsim.stfem.SlabOperator`,
    which leaves out the terms that the motion makes zero."""

    def __init__(self, problem):
        self.problem = p = problem
        if p.plan is None:
            plan, active = stfem.SlabPlan.of_problem(p), np.ones(len(p.conn), dtype=bool)
        else:
            plan, active = p.plan, p.active
        n = plan.n
        zc = p.conn[plan.zipper[active]]
        rec = plan.structure
        if rec is None or not (np.array_equal(active, rec.active) and np.array_equal(zc, rec.zc)
                               and np.array_equal(p.dirichlet_nodes, rec.dirichlet_nodes)):
            rec = plan.structure = None
            rec = plan.structure = stfem.SlabStructure(plan, active, p.conn, zc,
                                                       p.dirichlet_nodes)
        rec.refresh(plan, p.dt, p.alpha)
        self.structure = rec
        self.node_active = rec.node_active
        self._fixed = rec.fixed

        # the band's displacement, at a node of an active band element
        band = p.conn[plan.band[active]]
        d = np.zeros(2) if not len(band) else p.coords_new[band[0, 0]] - p.coords_old[band[0, 0]]
        wb = (active & plan.band)[plan.rigid] / 6.0
        stiff = rec.mn.data.imag - d[0] * (plan.grad_x @ wb) - d[1] * (plan.grad_y @ wb)
        # the band step that solve compares with the held LU's
        self._plan, self._d, self._band_step = plan, d, float(np.hypot(*d))
        self._split = (None, None)
        rhs = rec.jump @ p.t_prev

        xo = p.coords_old[zc]
        e1 = xo[:, 1] - xo[:, 0]
        e2 = xo[:, 2] - xo[:, 0]
        jump = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])[:, None, None] * stfem._M
        ke = stfem._theta_blocks(xo, p.coords_new[zc], p.dt, p.alpha)
        ke[:, :3, :3] += jump
        rhs += np.bincount(zc.ravel(), np.einsum("eab,eb->ea", jump, p.t_prev[zc]).ravel(),
                           minlength=n)
        self._zke = ke
        self._zipper = None
        if len(zc):
            self._zipper = sp.coo_matrix((ke.ravel(), rec.zipper_index), shape=(2 * n, 2 * n))
        self._mn = sp.csc_matrix((rec.mass + 1j * stiff, plan.indices, plan.indptr),
                                 shape=(n, n))
        self._product = None

        self._rhs_raw = np.zeros((2, n))
        self._rhs_raw[0] = rhs
        self._rhs = self._rhs_raw.copy()
        self._rhs[:, p.dirichlet_nodes] = p.dirichlet_values
        self._rhs[:, rec.idle] = p.t_prev[rec.idle]


# ---------------------------------------------------------------------------
# the factored matrix with its identity rows added as a second sparse sum

def lhs_by_identity_sum(op):
    """``lambda M' + N'`` of a slab operator, the zipper blocks by their fit,
    its fixed rows zeroed and their identity added as ``sp.diags`` in a
    second sparse sum; the reference for
    :meth:`ccmsim.stfem.SlabOperator._lhs`, which puts the fixed diagonals
    into the zipper COO, sets them to 1 and drops the zeros."""
    zc = op.structure.zc
    rows, cols = np.repeat(zc, 3, axis=1).ravel(), np.tile(zc, (1, 3)).ravel()
    x_e, y_e = stfem._zipper_fit(op._zke)
    n = op._mn.shape[0]
    a = op._mn + sp.coo_matrix(((x_e + 1j * y_e).ravel(), (rows, cols)), shape=(n, n))
    a.data = stfem._LAM * a.data.real + a.data.imag
    a.data[op._fixed[a.indices]] = 0.0
    return a + sp.diags(op._fixed.astype(float), format="csc")


# ---------------------------------------------------------------------------
# sensors by a scan of every active triangle

def sample_sensors_by_scan(mesh, active, T, sensors):
    """Interpolate T at fixed points by one barycentric scan over all the
    ``active`` triangles; the reference for :func:`ccmsim.driver.sample_sensors`,
    which tests only the triangles that the band's row table leaves.  A
    point on a shared edge goes to the lowest triangle index; points in no
    active triangle give NaN."""
    if not sensors:
        return np.empty(0)
    tol = 1e-10
    tri = mesh.triangles[active]
    p0, p1, p2 = (mesh.nodes[tri[:, i]] for i in range(3))
    q = np.asarray(sensors, dtype=float)
    rx = q[:, 0, None] - p0[:, 0]                       # (sensors, triangles)
    ry = q[:, 1, None] - p0[:, 1]
    d = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
         - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = ((p2[:, 1] - p0[:, 1]) * rx - (p2[:, 0] - p0[:, 0]) * ry) / d
        l2 = (-(p1[:, 1] - p0[:, 1]) * rx + (p1[:, 0] - p0[:, 0]) * ry) / d
    l0 = 1.0 - l1 - l2
    hit = (d > 0) & (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
    out = np.full(len(sensors), np.nan)
    for k in np.flatnonzero(hit.any(axis=1)):
        j = np.argmax(hit[k])
        lam = np.clip(np.array([l0[k, j], l1[k, j], l2[k, j]]), 0.0, 1.0)
        out[k] = float(np.dot(T[tri[j]], lam / lam.sum()))
    return out
