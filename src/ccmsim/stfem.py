"""Space-time finite elements on prismatic slabs.

One time slab couples two triangle meshes with identical connectivity —
the node positions at the start and at the end of the step — into wedge
(prism) elements.  Trial and test functions are linear in space and linear
in time, and *both* time levels are unknown: continuity with the previous
slab is imposed weakly through a jump term, which is what gives the scheme
its strong damping of unresolved modes (the single-mode amplification
factor is the rational function (1 - z/3)/(1 + 2z/3 + z^2/6), which tends
to zero for stiff modes).

All equations are scaled by 1/(rho*c_p), so the PDE solved is
dT/dt = alpha * div(grad T) with alpha = kappa/(rho*c_p), and boundary
flux functionals are alpha * dT/dn in temperature units.  Mesh motion
needs no extra transport term: the time derivative of a basis function
tied to a moving node automatically carries -grad(phi) . x_dot through the
prism Jacobian.

P1 gradients are constant in space at every time level, so the spatial
integrals are exact.  Elements are assembled by class:

* a rigid element (static, or translating with the sliding band) keeps its
  shape over the slab, and its block is integrated exactly in closed form
  as ``P (x) M_e + D (x) N_e``: the time matrices P (time derivative plus
  jump) and D (P1 mass in time) are the same for every element, ``M_e`` is
  the P1 mass and ``N_e = dt alpha K_e / 2 - (d_e . G_e) / 6`` diffusion
  minus the mesh-velocity term of an element moved by ``d_e``;
* only shearing elements (the zipper triangles) use 2-point Gauss in time:
  there the inverse Jacobian makes the integrand rational in time.  Their
  full 6 x 6 blocks, jump included, are kept as they are.

A :class:`SlabPlan` holds what does not change from slab to slab: the
shape data ``M_e``, ``K_e`` and the gradients ``G_e`` of every rigid
element, one CSC pattern over all mesh nodes, and where each rigid element
entry goes in it.  A run builds one plan before its first slab; a bare
:class:`SlabProblem` gets a one-off plan of its own triangles, in which only
static elements are rigid.  A slab pays only for what moves.  Its structure
(below) holds the rigid sums of its mask, each element weighted by whether
it is active (1 or 0): ``M' + i dt alpha K' / 2``, ``K'`` the diffusion sum,
and on the entries the band reaches its gradient sum
``G = sum over band elements of w_e G_e / 6``, one per axis.
The band translates rigidly (:func:`ccmsim.motion.place` sets every strip
node from one displacement ``d``, and an active element has no wrapped
node), so a slab's mesh-velocity sum is ``d . G``, and its ``N'`` is
``dt alpha K' / 2 - d . G``: ``d`` is read at one node of an active band
element, and only a nonzero component of it is subtracted.  A static slab's
``M' + i N'`` is then the structure's held complex matrix
``M' + i dt alpha K' / 2`` itself, which no slab writes into; a moving slab
subtracts ``i d . G`` from a copy.  The zipper blocks go into one small
2n x 2n COO matrix, and a slab without zipper triangles runs no time
quadrature, jump or COO for them.
Nodes of no active element become identity rows.  The exact slab
operator, the rigid ``P (x) M' + D (x) N'`` plus the zipper matrix, is
never assembled whole; it is applied matrix-free, for the residual checks
and for the weak residual that flux recovery reads.  The solve's last
residual check forms that product for the solution it returns, and the
residual reuses it.

Only the LU needs the zipper blocks in the ``P (x) X_e + D (x) Y_e`` form:
a fixed 2 x 4 matrix (``_PROJ``) fits each block's four 3 x 3 time blocks
so that its sums over the two test levels stay exact, i.e. the element
balance seen by a test function constant in time.  A slab that is factored
adds these fits ``X_e + i Y_e`` to the pattern (the sum drops the zero
entries of inactive elements); a slab solved with a held LU builds
neither.

Solve.  Multiplying each node's two rows by D^-1 turns ``P (x) M' + D (x) N'``
into ``D^-1 P (x) M' + I (x) N'``.  D^-1 P = [[3, 1], [-3, 1]] has the
eigenvalues 2 +- i sqrt(2), the negated poles of the amplification factor
above, so in its eigenvectors the slab splits into ``(lambda M' + N') y = c``
with lambda = 2 + i sqrt(2) and its complex conjugate: one complex n x n LU
solves it, and the real solution is 2 Re(v y) for the eigenvector v.
Dirichlet nodes stay identity rows.  Besides its LU, the structure keeps
the ``h = dt alpha / 2``, the band displacement ``d`` and the zipper fit
the LU was factored with.  On the free rows the slab is then exactly
``A = K + R``, K the operator the LU solves and
``R = D (x) (dh K' - dd . G) + (Z - Z_fit)``: the changes of h and d since
the factorization, and the zipper blocks less the LU's fit of them.  R is
zero on a static or freshly factored rigid slab, the zipper remainder alone
on a freshly factored band slab, and otherwise one real product on the
band's entries (on the whole pattern if dt alpha changed) plus one small
COO product.  The first solve (see the start, below) leaves a residual
that R alone forms, and right-preconditioned GMRES corrects it, started
from a zero correction, each Arnoldi vector ``A K^-1 v`` formed as
``v + R K^-1 v``.  (Plain iterative refinement ``x += K^-1 (b - A x)``
contracts more slowly the further a step shears the zipper; GMRES does not
depend on that contraction.)  ``v + R z`` cannot see the LU's own rounding,
which on stiff slabs (large dt alpha / h^2) leaves a true residual far
above the estimate, so the solve then forms the true residual with the
exact operator and, while it is above REFINE_TOL and falling, restarts
GMRES from it within MAX_REFINEMENTS steps in all.

The start.  Every slab starts from the Dirichlet values ``x_D`` (zero on
the free rows) plus ``u = [t_prev, t_prev + dt rate]`` on the free rows
(zero on the fixed rows), the field carried on along the last slab's
trajectory: the plan keeps that slab's ``rate = (t_top - t_bot) / dt``
(none before a run's first slab, where ``u`` is 0).  As ``K = A - R`` on
the free rows, the first solve from ``x_D + u``,
``x_D + u + K^-1 (b - A (x_D + u))``, is ``x_D + K^-1 (r_D - R u)``, where
``r_D`` is the free rows' residual at ``x_D``, and it leaves the residual
``-R (z - u)`` for that correction z: the warm start costs one
application of R, not a product with the operator.  A slab whose R is zero
(a static or freshly factored rigid one) is solved in one step from any
start, and the rate does not change it; on a band slab the start saves
1-1.5 GMRES steps.  The residual check is scaled by ``r_D``, the
right-hand side of the equations solved for, so SOLVER_TOL means the same
whatever the start.  ``x_D`` is zero on the free nodes, so ``r_D`` reaches
only the fixed columns: it is formed from their entries alone (a few
hundred, which the structure lists), to the bit the full product's.  A
slab thus makes one full product, that of the solution it returns, which
flux recovery reuses, and one more per restart.

The plan also holds the current structure, a :class:`SlabStructure`:
the slab's active mask, its active and fixed (Dirichlet or idle) nodes, the
zipper connectivity, the rigid sums that depend on the mask alone, the
entries of the fixed columns, and the LU made for it.
Connectivity inside the band never changes and only a slip rewires the
zipper, so the mask, the zipper connectivity and the Dirichlet nodes fix
the slab's pattern: :class:`SlabOperator` keeps the held
structure when the three equal the held ones, and makes a new one
otherwise.  The driver assembles each slab on the window mask of the band's
new position (see :func:`ccmsim.driver.slab_step`), so a slip changes the
structure of its own slab only (with a band of three or more virtual rows,
as in the bundled meshes; with two, the rows that wrap next to the window
keep the entering row out of the slab for one more step, so a second slab
changes too).  Between two slips the band only translates: the slabs after
a slip keep its structure, and only ``U dt`` and the zipper's shear change.
Such a slab is not factored: the held LU preconditions GMRES, and R carries
the changed values.  A slab of another structure lets the held one go
before it is assembled and is factored anew, and so is a slab whose GMRES
does not converge with the held LU.  So is a slab whose band step ``|d|``
lies outside [1/2, 2] of the step the held LU was factored at
(HELD_STEP_RATIO): within that range the LU's mesh-velocity term is wrong by
at most its own size, which costs GMRES 1-2 steps more than a fresh LU.  A
transient run starts from rest, so its first slabs move a fraction of the
later step; without the rule the later slabs of that structure would each
take 6-7 GMRES steps on a factor made when the band had barely moved,
against 2 on their own.  The
bound is inclusive, so a step that only halves or doubles keeps the LU; a
static slab's step is 0, so a static run keeps its one LU.  A bare
:class:`SlabProblem` has a one-off plan, so it is always factored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .mesh import tri_areas

# integral of N_a N_b over the reference triangle (whose area is 1/2)
_M = (np.ones((3, 3)) + np.eye(3)) / 24.0
# two-point Gauss in the time direction on [0, 1]
_TH_PTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_TH_W = np.array([0.5, 0.5])
# per Gauss point, with l the values of the two time levels' shape functions:
# the products l_r l_s (flattened), and the time derivative block of the 6
# basis functions [bot x 3, top x 3]
_TH_LEVELS = np.stack([1.0 - _TH_PTS, _TH_PTS], axis=1)
_TH_LL = np.einsum("qr,qs->qrs", _TH_LEVELS, _TH_LEVELS).reshape(2, 4)
_TH_DERIV = np.stack([np.kron(np.outer(lsh, [-1.0, 1.0]), _M) for lsh in _TH_LEVELS])

_DN = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # d(shape)/d(xi, eta)

# time matrices over the DOFs [bottom; top] of a slab whose elements keep
# their shape: P is the time derivative plus the jump, D the P1 time mass
_P = np.array([[0.5, 0.5], [-0.5, 0.5]])
_D = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0

# The one-off plan of a bare SlabProblem treats an element as rigid when it
# is static: no node of it moves by more than this fraction of its longest
# edge.  Every other element, translating or shearing, is integrated in time.
RIGID_TOL = 1e-12

# largest relative residual a slab solve may leave: |b - A x| over the free
# (non-Dirichlet) rows, the ones solved for, relative to their right-hand
# side once the Dirichlet values are moved there
SOLVER_TOL = 1e-10
# A held LU serves a slab whose band step (see SlabOperator) lies within this
# factor of the band step the LU was factored at, either way, bounds
# included: within it the LU's mesh-velocity term is wrong by at most its own
# size.  Further off GMRES pays: on power_3kw, slabs at 5.5e-4 m took 6-7
# GMRES steps on a factor made at 6.6e-5 m, against 2 with their own.
HELD_STEP_RATIO = 2.0
# GMRES stops once its residual estimate is below REFINE_TOL or after
# MAX_REFINEMENTS steps in all (each one solve with the LU and one product
# with what the LU leaves out); the true residual, formed with the exact
# operator, restarts it while it is above REFINE_TOL and falling, and the
# solve fails unless it meets SOLVER_TOL.  On stiff slabs (large
# dt * alpha / h^2) the true residual's rounding floor may lie above
# REFINE_TOL.
REFINE_TOL = 1e-13
MAX_REFINEMENTS = 50

# SuperLU's panel size and supernode relaxation.  Its defaults (10 and 20)
# suit larger matrices than these slabs.  Measured on captured slabs (CPU
# time per factorization, MMD on A^T + A): probe 59 -> 38 ms and LU nnz
# 481k -> 370k, ramp 8.6 -> 4.5 ms and 146k -> 98k, with the same residual;
# (1, 1) was the fastest of (1, 1), (2, 1), (2, 2) and (4, 4).  Keep RELAX at
# most PANEL_SIZE: a sweep that set relax above the panel size ended in heap
# corruption.
PANEL_SIZE = 1
RELAX = 1

# eigenvalue _LAM of D^-1 P and its eigenvector _V; _WD = W D^-1, where W is
# the first row of [V, conj(V)]^-1, so that 2 Re(V_i W_j) = delta_ij
_LAM = 2.0 + 1j * np.sqrt(2.0)
_V = np.array([1.0, -1.0 + 1j * np.sqrt(2.0)])
_WD = np.array([2.0 - 0.5j * np.sqrt(2.0), -1.0 - 0.5j * np.sqrt(2.0)])
# fit of the four time blocks (K_00, K_01, K_10, K_11) of an element by
# P (x) X + D (x) Y, (X, Y) = _PROJ @ (K_00, K_01, K_10, K_11), that keeps the
# sums over the test levels exact: K_00 + K_10 = Y / 2, K_01 + K_11 = X + Y / 2.
# On probe slabs moved by several rows per step it needs half the GMRES steps
# of the least-squares fit.
_PROJ = np.array([[-1.0, 1.0, -1.0, 1.0], [2.0, 0.0, 2.0, 0.0]])


def _zipper_fit(ke):
    """Fit ``P (x) X_e + D (x) Y_e`` of (ne, 6, 6) element blocks: (X_e, Y_e),
    each (ne, 3, 3), by _PROJ."""
    quad = ke.reshape(-1, 2, 3, 2, 3).transpose(0, 2, 4, 1, 3).reshape(-1, 3, 3, 4)
    return np.moveaxis(quad @ _PROJ.T, 3, 0)


def _theta_blocks(xo, xn, dt, alpha):
    """Space-time (ne, 6, 6) blocks of shearing elements, without the jump.

    The inverse Jacobian makes the integrand rational in time, so time is
    integrated by 2-point Gauss; the spatial integrals at each time point
    are exact.  Both points are evaluated at once, on arrays whose leading
    axis is the point.  At a point where the two time levels' shape
    functions take the values l, the gradient of basis function (level r,
    node a) is l_r grad N_a, so diffusion and mesh velocity together form
    ``kron(l l^T, S)`` with one 3 x 3 matrix S per element.
    """
    ne = len(xo)
    mdx = np.einsum("ab,ebi->eai", _M, xn - xo)   # integrals of N_a * (xn - xo)
    th = _TH_PTS[:, None, None, None]
    a2 = np.swapaxes((1.0 - th) * xo + th * xn, 2, 3) @ _DN              # (2, ne, 2, 2)
    det2 = a2[..., 0, 0] * a2[..., 1, 1] - a2[..., 0, 1] * a2[..., 1, 0]
    if np.any(det2 <= 0):
        raise NumericalError("inverted prism cross-section")
    invt = np.stack([a2[..., 1, 1], -a2[..., 1, 0], -a2[..., 0, 1], a2[..., 0, 0]],
                    axis=-1).reshape(2, ne, 2, 2)
    invt /= det2[..., None, None]                                      # inv(a2)^T
    g = invt @ _DN.T                                                   # (2, ne, 2, 3)
    # diffusion minus mesh velocity, each point weighted by its measure
    wdet = _TH_W[:, None] * det2
    s = 0.5 * dt * alpha * (np.swapaxes(g, 2, 3) @ g) - mdx @ g        # (2, ne, 3, 3)
    s *= wdet[..., None, None]
    ke = (_TH_LL.T @ s.reshape(2, -1)).reshape(2, 2, ne, 3, 3)
    ke = ke.transpose(2, 0, 3, 1, 4).reshape(ne, 6, 6)
    # the time derivative (its 1/dt cancels the dt of the measure)
    ke += (wdet.T @ _TH_DERIV.reshape(2, 36)).reshape(ne, 6, 6)
    return ke


def _sort_entries(keys, n):
    """One stable sort of the entry keys ``column * n + row``: the order of
    the sorted entries, the CSC ``indices`` and ``indptr`` of the distinct
    keys on an n x n pattern (columns in turn, rows ascending), and where
    each distinct key's run starts in the sorted order, closed by the
    number of entries (in the pattern's index type)."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    pairs = keys[new]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // n, minlength=n), out=indptr[1:])
    pattern = sp.csc_matrix((np.ones(len(pairs)), pairs % n, indptr), shape=(n, n))
    start = np.append(np.flatnonzero(new), len(keys)).astype(pattern.indices.dtype)
    return order, pattern.indices, pattern.indptr, start


class SlabPlan:
    """Run-constant element data on one fixed CSC pattern over ``n`` nodes.

    ``conn`` (m, 3) and ``shapes`` (m, 3, 2) give every element the plan
    covers and its corner coordinates in a position where it has its true
    shape; ``zipper`` marks the elements that shear, whose blocks each slab
    integrates anew, and ``band`` those that move with the band.  The other
    elements are static.  Static and band elements are rigid: they keep
    their connectivity and shape in every slab, so their P1 mass ``M_e``,
    diffusion ``K_e`` and gradients ``G_e`` (each times twice the area) are
    computed here once.

    The pattern holds the node pairs of the rigid elements.  A slab's rigid
    part of ``M' + i N'`` is linear in each element's weight ``w_e`` (1 if
    active, 0 if not) and displacement
    ``d_e`` (the band's ``d``, or 0): the sum of ``w_e M_e`` and that of
    ``w_e (dt alpha K_e / 2 - (d_e . G_e) / 6)``.  So ``mass``,
    ``diffusion``, ``grad_x`` and ``grad_y`` are sparse matrices from the
    elements to the pattern's data, whose values are the entries of
    ``M_e``, ``K_e`` and the two components of ``G_e``: each sum is one
    product with a vector of per-element factors.  The four share one
    index structure.  ``band_entries`` holds the data positions of the
    pattern's entries that band elements reach, and the CSC ``indices`` and
    ``indptr`` that these form by themselves.

    Element ``e``'s entry ``(a, b)``, number ``9e + 3a + b``, goes to row
    ``conn[e, a]`` and column ``conn[e, b]``, whose key is
    ``column * n + row``.  One stable sort of these keys builds everything:
    the distinct keys in sorted order are the pattern, column by column
    with rows ascending (``indptr`` counts them per column), a new key
    starts a new slot, and the sorted entry numbers, grouped by slot,
    are the elements-to-pattern CSR.  The values are gathered from
    the element arrays by entry number.

    The plan also holds, in ``structure``, the :class:`SlabStructure` of
    the run's last slab, with its LU once one is made, and in ``rate`` the
    (n,) ``(t_top - t_bot) / dt`` of the last slab solved on it (None
    before the first), from which the next slab's solve starts.
    """

    def __init__(self, n, conn, shapes, zipper, band):
        self.n = n
        self.structure = self.rate = None
        self.zipper = np.asarray(zipper, dtype=bool)
        self.band = np.asarray(band, dtype=bool)
        self.rigid = np.flatnonzero(~self.zipper)
        rconn = conn[self.rigid]
        x = shapes[self.rigid]
        e1 = x[:, 1] - x[:, 0]
        e2 = x[:, 2] - x[:, 0]
        det2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]              # 2 * area
        if np.any(det2 <= 0):
            raise NumericalError("inverted prism cross-section")
        # det2 * grad N_a = (gx_a, gy_a): node a's opposite edge turned by -90 degrees
        gx = np.stack([e1[:, 1] - e2[:, 1], e2[:, 1], -e1[:, 1]], axis=1)    # (r, 3)
        gy = np.stack([e2[:, 0] - e1[:, 0], -e2[:, 0], e1[:, 0]], axis=1)
        r = len(self.rigid)

        order, self.indices, self.indptr, start = _sort_entries(
            (n * rconn[:, None, :] + rconn[:, :, None]).ravel(), n)
        # sorted entry 9e + 3a + b: its element e, and the flat indices
        # 3e + a and 3e + b of its corners in the (r, 3) gradient arrays.
        # Each array goes once it is used, and products are formed in
        # place: every megabyte more at the peak is some 250 page faults.
        e = order // 9
        at_a = order // 3
        at_b = order - 3 * at_a
        at_b += 3 * e
        mass = _M.ravel()[order - 9 * e]
        del order
        d = det2[e]
        mass *= d
        elem = e.astype(start.dtype)
        del e
        # int N_a d.grad(N_b) = d.(gx_b, gy_b)/6 is the same in every row a
        gxb, gyb = gx.ravel()[at_b], gy.ravel()[at_b]
        diffusion = gx.ravel()[at_a]
        diffusion *= gxb
        gya_gyb = gy.ravel()[at_a]
        gya_gyb *= gyb
        diffusion += gya_gyb
        diffusion /= d
        self.mass, self.diffusion, self.grad_x, self.grad_y = (
            sp.csr_matrix((v, elem, start), shape=(len(start) - 1, r))
            for v in (mass, diffusion, gxb, gyb))
        # the slots in rows of band nodes hold every entry of a band element
        band_node = np.zeros(n, dtype=bool)
        band_node[conn.ravel()[np.repeat(self.band, 3)]] = True
        pos = np.flatnonzero(band_node.take(self.indices)).astype(self.indices.dtype)
        self.band_entries = (pos, self.indices.take(pos),
                             np.searchsorted(pos, self.indptr).astype(self.indptr.dtype))

    @classmethod
    def of_problem(cls, problem):
        """One-off plan of a bare problem's triangles, which has no band.  An
        element is rigid when it is static, no node of it moving by more
        than RIGID_TOL of its longest edge; every moving element is
        integrated as shearing.  Shapes are taken from the old coordinates."""
        p = problem
        xo = p.coords_old[p.conn]
        disp = p.coords_new[p.conn] - xo
        e1 = xo[:, 1] - xo[:, 0]
        e2 = xo[:, 2] - xo[:, 0]

        def sq(v):
            return np.einsum("ei,ei->e", v, v)

        static = (np.einsum("eai,eai->ea", disp, disp).max(axis=1)
                  <= RIGID_TOL ** 2 * np.maximum(np.maximum(sq(e1), sq(e2)), sq(e2 - e1)))
        return cls(len(p.coords_old), p.conn, xo, ~static, np.zeros(len(p.conn), dtype=bool))


class SlabStructure:
    """What the slabs of one mask ``active``, zipper connectivity ``zc`` and
    set of Dirichlet nodes share, the three arrays it keeps and is known by:
    the active and fixed nodes of the slab's triangles ``conn``, the COO
    indices of the zipper blocks, the rigid sums of the mask alone (the data
    on the plan's pattern of ``M'``, also as the CSC ``jump``, and the
    complex CSC ``mn`` of ``M' + i dt alpha K' / 2``, ``K'`` the diffusion
    sum, which :meth:`refresh` makes again when ``dt alpha`` changes and
    nothing else writes into, and the band's gradient sum along each axis
    that a slab moves it, ``grad``, see :meth:`gradient`), ``band_node``, a
    node of an active band element (None if there is none), the entries of
    the fixed columns, and
    the LU with what the slab it was factored for had: ``lu_h`` its
    ``dt alpha / 2``, ``lu_d`` its band displacement, ``lu_step`` the
    length of that, and ``lu_fit`` its zipper blocks' fit (ne, 6, 6).

    A slab starts its solve at the Dirichlet values, zero on the free nodes,
    so the product of that start with the operator reaches only the fixed
    columns.  ``fixed_entries`` holds, in the pattern's order, the data
    positions and columns of the fixed columns' entries of active elements
    (the others sum to zero), the rows they reach and each entry's slot
    among those rows; ``zipper_fixed`` holds the same of the zipper COO
    entries whose column is a fixed DOF.
    """

    def __init__(self, plan, active, conn, zc, dirichlet_nodes):
        n = plan.n
        self.active, self.zc = active.copy(), zc
        self.dirichlet_nodes = np.array(dirichlet_nodes)
        self.node_active = np.zeros(n, dtype=bool)
        self.node_active[conn] = True
        # Dirichlet nodes fix both time levels; so do nodes of no active
        # element, at their previous value
        self.idle = ~self.node_active
        self.fixed = self.idle.copy()
        self.fixed[dirichlet_nodes] = True
        self.fixed_rows = np.flatnonzero(self.fixed)
        # in scipy's index type, which the zipper COO takes without a scan or a copy
        dof = np.concatenate([zc, zc + n], axis=1).astype(plan.indices.dtype)   # (nz, 6)
        self.zipper_index = (np.repeat(dof, 6, axis=1).ravel(), np.tile(dof, (1, 6)).ravel())
        self.w = active[plan.rigid].astype(float)
        self.mass = plan.mass @ self.w
        self.jump = sp.csc_matrix((self.mass, plan.indices, plan.indptr), shape=(n, n))
        band = plan.band[active]
        self.band_node = conn[np.argmax(band), 0] if band.any() else None
        self.grad = [None, None]
        columns = np.repeat(np.arange(n), np.diff(plan.indptr))
        # an entry of active elements has a positive mass
        pos = np.flatnonzero(self.fixed[columns] & (self.mass != 0.0))
        self.fixed_entries = (pos, columns[pos], *np.unique(plan.indices[pos],
                                                            return_inverse=True))
        rows, cols = self.zipper_index
        pos = np.flatnonzero(np.concatenate([self.fixed, self.fixed])[cols])
        self.zipper_fixed = (pos, cols[pos], *np.unique(rows[pos], return_inverse=True))
        self.half_dt_alpha = self.mn = None
        self.lu = self.lu_h = self.lu_d = self.lu_step = self.lu_fit = None

    def gradient(self, plan, axis):
        """The band's gradient sum ``G = sum of w_e G_e / 6`` over the band
        elements along ``axis``, as data on the plan's pattern; formed for
        the first slab that moves the band along it."""
        if self.grad[axis] is None:
            wb = self.w * plan.band[plan.rigid] / 6.0
            self.grad[axis] = (plan.grad_x, plan.grad_y)[axis] @ wb
        return self.grad[axis]

    def refresh(self, plan, dt, alpha):
        """Make ``mn`` for this ``dt alpha`` unless it is made for it."""
        if self.half_dt_alpha != (dta := 0.5 * dt * alpha):
            self.half_dt_alpha = dta
            self.mn = sp.csc_matrix((self.mass + 1j * (plan.diffusion @ (dta * self.w)),
                                     plan.indices, plan.indptr), shape=(plan.n, plan.n))


@dataclass
class SlabProblem:
    coords_old: np.ndarray            # (n, 2) node positions at t_n
    coords_new: np.ndarray            # (n, 2) node positions at t_n + dt
    conn: np.ndarray                  # (m, 3) active triangles
    dt: float
    alpha: float                      # diffusivity kappa/(rho*c_p)
    t_prev: np.ndarray                # (n,) trace carried over from last slab
    dirichlet_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    dirichlet_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    # the run's plan and the mask of its elements that ``conn`` lists, in
    # order; without a plan, a one-off plan of conn.  The solve starts from
    # the trajectory of the last slab solved on the plan (see SlabPlan.rate)
    plan: SlabPlan | None = None
    active: np.ndarray | None = None


@dataclass
class SlabSolution:
    t_bot: np.ndarray                 # (n,) trace at t_n   (jump-relaxed)
    t_top: np.ndarray                 # (n,) trace at t_n + dt
    residual_norm: float              # relative free-row residual, see SOLVER_TOL
    refinements: int = 0              # GMRES steps after the first solve, restarts included
    factored: bool = True             # False: solved with the plan's held LU


class SlabOperator:
    """One slab: its exact operator, applied matrix-free, and the complex
    n x n system that solves it.

    The weak residual of the *solved* state, tested with the unconstrained
    functions of boundary nodes, is exactly the consistent boundary flux
    functional used for flux recovery, so the exact operator is kept for
    the residual methods as well as for GMRES.  ``node_active`` marks the
    nodes of the slab's active elements, the rows that are solved for
    unless they carry Dirichlet values.

    The slab's band step is ``|d|``, the length of the band's displacement
    (its ``U dt``); it is 0 on a static slab.
    """

    def __init__(self, problem: SlabProblem):
        self.problem = p = problem
        if p.plan is None:
            plan, active = SlabPlan.of_problem(p), np.ones(len(p.conn), dtype=bool)
        else:
            plan, active = p.plan, p.active
        n = plan.n
        zc = p.conn[plan.zipper[active]]
        rec = plan.structure
        # the held structure is this slab's if its mask, zipper connectivity
        # and Dirichlet nodes are equal to this slab's
        if rec is None or not (np.array_equal(active, rec.active) and np.array_equal(zc, rec.zc)
                               and np.array_equal(p.dirichlet_nodes, rec.dirichlet_nodes)):
            rec = plan.structure = None     # let it and its LU go before this assembly
            rec = plan.structure = SlabStructure(plan, active, p.conn, zc, p.dirichlet_nodes)
        rec.refresh(plan, p.dt, p.alpha)
        self.structure = rec
        self.node_active = rec.node_active
        self._fixed = rec.fixed

        # rigid elements: M' + i N', N' = dt alpha K' / 2 - d . G from the
        # structure's sums and the band's displacement d, read at one node of
        # an active band element.  A slab whose band did not move takes the
        # structure's M' + i dt alpha K' / 2 as it is; a component of d that
        # is zero would subtract +0.0 throughout
        self._plan = plan
        self._d = np.zeros(2)
        if rec.band_node is not None:
            self._d = p.coords_new[rec.band_node] - p.coords_old[rec.band_node]
        self._band_step = float(np.hypot(*self._d))
        self._mn = rec.mn
        if self._d.any():
            mn = rec.mn.data.copy()
            for axis in np.flatnonzero(self._d):
                mn.imag -= self._d[axis] * rec.gradient(plan, axis)
            self._mn = sp.csc_matrix((mn, plan.indices, plan.indptr), shape=(n, n))
        # the jump load: each element's bottom-face mass times t_prev
        rhs = rec.jump @ p.t_prev

        # shearing elements: full 6 x 6 blocks from the time quadrature, plus
        # the jump coupling (bottom-face mass on the old coordinates), applied
        # as one 2n x 2n COO; a factored slab fits them in _lhs
        self._zke = np.empty((0, 6, 6))
        self._zipper = None
        if len(zc):
            jump = 2.0 * tri_areas(p.coords_old, zc)[:, None, None] * _M
            self._zke = ke = _theta_blocks(p.coords_old[zc], p.coords_new[zc], p.dt, p.alpha)
            ke[:, :3, :3] += jump
            rhs += np.bincount(zc.ravel(), np.einsum("eab,eb->ea", jump, p.t_prev[zc]).ravel(),
                               minlength=n)
            self._zipper = sp.coo_matrix((ke.ravel(), rec.zipper_index), shape=(2 * n, 2 * n))
        # A x of the solution solve returned, formed by its last residual check
        self._product = None
        # the terms of R = A - K for the structure's LU, set by the solve
        self._split = (None, None)

        self._rhs_raw = np.zeros((2, n))
        self._rhs_raw[0] = rhs
        self._rhs = self._rhs_raw.copy()
        self._rhs[:, p.dirichlet_nodes] = p.dirichlet_values
        self._rhs[:, rec.idle] = p.t_prev[rec.idle]

    # -- the factor -----------------------------------------------------------

    def _lhs(self, x_e, y_e):
        """``lambda M' + N'``, the zipper blocks by their fit ``(x_e, y_e)``
        (see :func:`_zipper_fit`), with identity rows at the fixed nodes,
        which keeps those rows out of the LU's fill.

        Adding the zipper COO to the pattern drops the entries that sum to
        zero (those of inactive elements).  The COO also puts ``i`` on each
        fixed node's diagonal, so that every fixed row has its diagonal
        entry (an idle node's is ``lambda 0 + 1``); the fixed rows' entries
        are then zeroed, their diagonal set to 1 and the zeros dropped.
        """
        zc, fixed = self.structure.zc, self.structure.fixed_rows
        rows = np.concatenate([np.repeat(zc, 3, axis=1).ravel(), fixed])
        cols = np.concatenate([np.tile(zc, (1, 3)).ravel(), fixed])
        fit = np.concatenate([(x_e + 1j * y_e).ravel(), np.full(len(fixed), 1j)])
        n = self._mn.shape[0]
        a = self._mn + sp.coo_matrix((fit, (rows, cols)), shape=(n, n))
        a.data = _LAM * a.data.real + a.data.imag
        pos = np.flatnonzero(self._fixed.take(a.indices))      # the fixed rows' entries
        col = np.searchsorted(a.indptr, pos, side="right") - 1
        a.data[pos] = 0.0
        a.data[pos[a.indices[pos] == col]] = 1.0
        a.eliminate_zeros()
        return a

    def _factor(self):
        """Factor this slab's ``lambda M' + N'`` and hold the LU in its
        structure, with the ``dt alpha / 2``, band displacement and zipper
        fit it was made with."""
        rec = self.structure
        rec.lu = None                               # freed before the new one is made
        x_e, y_e = _zipper_fit(self._zke)
        try:
            # The pattern is nearly symmetric (only the Dirichlet identity
            # rows break it), so a minimum-degree ordering of A^T + A keeps
            # far less LU fill than the default COLAMD.
            rec.lu = spla.splu(self._lhs(x_e, y_e), permc_spec="MMD_AT_PLUS_A",
                               panel_size=PANEL_SIZE, relax=RELAX)
        except RuntimeError as exc:
            raise NumericalError("sparse factorization failed: %s" % exc)
        rec.lu_h, rec.lu_d, rec.lu_step = rec.half_dt_alpha, self._d, self._band_step
        # the fit's (ne, 6, 6) blocks P (x) X_e + D (x) Y_e
        rec.lu_fit = (np.einsum("rs,eab->erasb", _P, x_e)
                      + np.einsum("rs,eab->erasb", _D, y_e)).reshape(-1, 6, 6)

    # -- exact operator and its preconditioner --------------------------------

    def _apply(self, x):
        """Exact slab operator on ``x = [bottom; top]`` given as (2, n)."""
        q = self._mn @ x.T                             # (n, 2): M' x_j + i N' x_j
        ax = _P @ q.real.T + _D @ q.imag.T
        if self._zipper is not None:
            ax += (self._zipper @ x.ravel()).reshape(ax.shape)
        return ax

    def _start_residual(self):
        """``b - A x_D`` on the free rows (zero on the fixed rows), ``x_D``
        the Dirichlet values and zero on the free rows, formed from the
        fixed columns' entries alone.

        Each sum takes the nonzero terms of ``_apply``'s in their order, from
        the same zero, and leaves out terms that are zero, so the result is
        that of ``_residual`` at ``x_D`` to the bit.
        """
        pos, cols, rows, slot = self.structure.fixed_entries
        a, xd = self._mn.data[pos], self._rhs[:, cols]
        q = np.empty((len(rows), 2), dtype=complex)
        for j in range(2):
            q.real[:, j] = np.bincount(slot, a.real * xd[j], minlength=len(rows))
            q.imag[:, j] = np.bincount(slot, a.imag * xd[j], minlength=len(rows))
        ax = np.zeros_like(self._rhs)
        ax[:, rows] = _P @ q.real.T + _D @ q.imag.T
        if self._zipper is not None:
            pos, cols, rows, slot = self.structure.zipper_fixed
            ax.ravel()[rows] += np.bincount(slot, self._zke.ravel()[pos] * self._rhs.ravel()[cols],
                                            minlength=len(rows))
        r = self._rhs - ax
        r[:, self.structure.fixed_rows] = 0.0
        return r

    def _split_terms(self):
        """The terms of ``R = A - K`` for the structure's LU: the real CSC
        ``dh K' - dd . G`` of the rigid part, where ``dh`` and ``dd`` are this
        slab's ``dt alpha / 2`` and band displacement less the LU's (on the
        band's entries alone while ``dh`` is 0; ``K'`` is read off the held
        ``dt alpha K' / 2``), and the COO of the zipper blocks less the LU's
        fit; each None where it is zero."""
        rec = self.structure
        rigid = zipper = None
        dh, dd = rec.half_dt_alpha - rec.lu_h, self._d - rec.lu_d
        shape = self._mn.shape
        if dd.any():
            pos, indices, indptr = self._plan.band_entries
            band = -sum(dd[a] * rec.gradient(self._plan, a)[pos] for a in np.flatnonzero(dd))
            rigid = sp.csc_matrix((band, indices, indptr), shape=shape)
        if dh:
            data = (dh / rec.half_dt_alpha) * rec.mn.data.imag          # dh K'
            if rigid is not None:
                data[pos] += band
            rigid = sp.csc_matrix((data, self._mn.indices, self._mn.indptr), shape=shape)
        if self._zipper is not None:
            zipper = sp.coo_matrix(((self._zke - rec.lu_fit).ravel(), rec.zipper_index),
                                   shape=self._zipper.shape)
        return rigid, zipper

    def _remainder(self, z):
        """``R z`` on the free rows (zero on the fixed rows) for ``z`` (2, n),
        zero on the fixed rows, with the terms the solve set."""
        rigid, zipper = self._split
        rz = np.zeros_like(z) if zipper is None else (zipper @ z.ravel()).reshape(z.shape)
        if rigid is not None:
            # (D (x) N) z is N on each time level of D z
            for rz_j, y_j in zip(rz, _D @ z):
                rz_j += rigid @ y_j
        rz[:, self.structure.fixed_rows] = 0.0
        return rz

    def _precondition(self, lu, r):
        """Solve ``P (x) M' + D (x) N'`` (Dirichlet rows identity) for ``r``,
        which is zero on the Dirichlet rows, by the complex split of the
        module docstring."""
        return 2.0 * (_V[:, None] * lu.solve(_WD @ r)).real

    def _residual(self, x):
        """Set the Dirichlet values in ``x``; return ``b - A x`` on the free
        rows (zero on the Dirichlet rows) and ``A x``."""
        fixed = self.structure.fixed_rows
        x[:, fixed] = self._rhs[:, fixed]
        ax = self._apply(x)
        r = self._rhs - ax
        r[:, fixed] = 0.0
        return r, ax

    def _gmres(self, lu, r, tol, m):
        """Correction ``u`` with ``A u = r`` on the free rows by GMRES right-
        preconditioned with the LU, from ``u = 0`` and without restarts.
        Each Arnoldi vector ``A K^-1 v`` is formed as ``v + R K^-1 v``.

        Stops once the Arnoldi estimate of ``|r - A u|`` is at most ``tol`` or
        after ``m`` steps; returns ``u``, the number of steps and whether the
        estimate reached ``tol``.
        """
        h = np.zeros((m + 1, m))                  # Hessenberg matrix, rotated to triangular
        g = np.zeros(m + 1)                       # |r| e_1, rotated alike
        g[0] = np.linalg.norm(r)
        cs, sn = np.zeros(m), np.zeros(m)         # Givens rotations
        v, z = [r / g[0]], []                     # Krylov basis and K^-1 of it
        k = 0
        while k < m and abs(g[k]) > tol:
            z.append(self._precondition(lu, v[k]))
            w = v[k] + self._remainder(z[k])
            for j in range(k + 1):                # modified Gram-Schmidt
                h[j, k] = np.vdot(v[j], w)
                w -= h[j, k] * v[j]
            h[k + 1, k] = np.linalg.norm(w)
            v.append(w / max(h[k + 1, k], 1e-300))
            for j in range(k):
                h[j, k], h[j + 1, k] = (cs[j] * h[j, k] + sn[j] * h[j + 1, k],
                                        cs[j] * h[j + 1, k] - sn[j] * h[j, k])
            rho = np.hypot(h[k, k], h[k + 1, k])
            cs[k], sn[k] = h[k, k] / rho, h[k + 1, k] / rho
            h[k, k], h[k + 1, k] = rho, 0.0
            g[k + 1], g[k] = -sn[k] * g[k], cs[k] * g[k]
            k += 1
        u = np.zeros_like(r)
        if k:
            y = np.linalg.solve(h[:k, :k], g[:k])
            for yj, zj in zip(y, z):
                u += yj * zj
        return u, k, abs(g[k]) <= tol

    # -- solve ---------------------------------------------------------------

    def solve(self) -> SlabSolution:
        """Solve with the LU of this slab's structure if it holds one made
        at a band step within HELD_STEP_RATIO of this slab's (see the module
        docstring), else with a new one.

        If GMRES with the held LU does not reach REFINE_TOL, or its result
        misses SOLVER_TOL, the slab is factored and solved anew.
        """
        rec = self.structure
        if rec.lu is not None and (rec.lu_step / HELD_STEP_RATIO <= self._band_step
                                   <= rec.lu_step * HELD_STEP_RATIO):
            x, ax, res, passes, reached = self._solve_with()
            if reached and res <= SOLVER_TOL:
                return self._solution(x, ax, res, passes, factored=False)
        self._factor()
        x, ax, res, passes, _ = self._solve_with()
        if not res <= SOLVER_TOL:
            raise NumericalError("slab solve residual %.3e exceeds %.1e after %d refinement "
                                 "passes" % (res, SOLVER_TOL, passes))
        return self._solution(x, ax, res, passes, factored=True)

    def _solution(self, x, ax, res, passes, factored):
        """The solution ``x``, kept with its product ``ax`` for the residual;
        its trajectory becomes the plan's rate."""
        sol = SlabSolution(x[0], x[1], res, passes, factored=factored)
        self._product = (sol, ax)
        self._plan.rate = (sol.t_top - sol.t_bot) / self.problem.dt
        return sol

    def _solve_with(self):
        """First solve with the structure's LU, corrected by GMRES on the
        exact slab.

        The solve starts from ``x_D + u`` (see the module docstring): ``x_D``
        the Dirichlet values, zero on the free rows, and ``u`` the plan's
        rate carried on from ``t_prev`` on the free rows, zero elsewhere (and
        0 without a rate).  The free rows of ``b - A x_D``, the right-hand
        side of the equations solved for, are formed from the fixed columns
        alone (``_start_residual``) and scale the residual check.  The first
        solve ``x = x_D + z``, ``z = K^-1 (r_D - R u)``, leaves the residual
        ``-R (z - u)``, which GMRES starts from; where R is zero, neither is
        formed.  The true residual of GMRES's result, formed with the exact
        operator, also sees the LU's own rounding: while it is above
        REFINE_TOL and below the last one, GMRES restarts from it, within
        MAX_REFINEMENTS steps in all.

        Returns the solution (2, n), its product with the exact operator,
        its relative free-row residual, the GMRES steps and whether the last
        GMRES reached REFINE_TOL.
        """
        lu = self.structure.lu
        self._split = self._split_terms()
        split = any(t is not None for t in self._split)
        r = self._start_residual()
        scale = max(np.linalg.norm(r), 1e-300)
        tol = REFINE_TOL * scale
        p, u = self.problem, 0.0
        if split and self._plan.rate is not None:
            u = np.stack([p.t_prev, p.t_prev + p.dt * self._plan.rate])
            u[:, self.structure.fixed_rows] = 0.0
            r -= self._remainder(u)
        z = self._precondition(lu, r)
        x = np.where(self._fixed, self._rhs, 0.0) + z
        # on the free rows b - A x is now -R (z - u), as K z = r_D - R u there
        r = -self._remainder(z - u) if split else None
        passes, reached, last = 0, True, np.inf
        while True:
            if r is not None and np.linalg.norm(r) > tol:
                dx, k, reached = self._gmres(lu, r, tol, MAX_REFINEMENTS - passes)
                x += dx
                passes += k
            r, ax = self._residual(x)
            res = np.linalg.norm(r)
            if res <= tol or not reached or not res < last:
                return x, ax, res / scale, passes, reached
            last = res

    # -- residual functionals ----------------------------------------------

    def unconstrained_residual(self, solution: SlabSolution) -> np.ndarray:
        """Raw weak residual A0 x - b0 of the solved state (length 2n).

        For the solution :meth:`solve` returned (taken as unchanged since),
        ``A0 x`` is the product its last residual check formed; any other
        solution is applied anew.
        """
        if self._product is not None and self._product[0] is solution:
            ax = self._product[1]
        else:
            ax = self._apply(np.stack([solution.t_bot, solution.t_top]))
        return (ax - self._rhs_raw).ravel()

    def node_residual_time_avg(self, solution: SlabSolution, nodes) -> np.ndarray:
        """Slab-time-averaged weak residual per node.

        Sums each node's bottom- and top-level unconstrained residual rows
        and divides by dt, i.e. tests with a function constant in time.
        For nodes on a constrained boundary this equals the weak (variationally
        consistent) boundary flux functional of alpha * dT/dn.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if not self.node_active[nodes].all():
            raise ValueError("residual requested at inactive node")
        r = self.unconstrained_residual(solution)
        return (r[nodes] + r[nodes + len(self.node_active)]) / self.problem.dt


def solve_slab(problem: SlabProblem) -> SlabSolution:
    """Assemble and solve one slab (convenience wrapper)."""
    return SlabOperator(problem).solve()


def integrate_nodal(coords, conn, values) -> float:
    """Integral of a piecewise-linear nodal field (exact for P1)."""
    return float(np.sum(tri_areas(coords, conn) * values[conn].mean(axis=1)))
