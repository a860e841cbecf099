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
  the P1 mass and ``N_e`` diffusion minus the mesh-velocity term;
* only shearing elements (the zipper triangles) use 2-point Gauss in time:
  there the inverse Jacobian makes the integrand rational in time.  Each
  such 6 x 6 block Z_e is split into a fit ``P (x) X_e + D (x) Y_e`` (a
  fixed 2 x 4 matrix applied to its four 3 x 3 time blocks) and a
  remainder.  The fit keeps the block's sums over its two test levels
  exact, i.e. the element balance seen by a test function constant in
  time.

The fits join the rigid blocks in ``M' = M + X`` and ``N' = N + Y``, both
scattered once on the n x n node pattern, and the zipper remainders form a
small 2n x 2n COO matrix.  The exact slab operator ``P (x) M' + D (x) N'``
plus that remainder is never assembled; it is applied matrix-free, for the
solve and for the weak residual that flux recovery reads.

Solve.  Multiplying each node's two rows by D^-1 turns ``P (x) M' + D (x) N'``
into ``D^-1 P (x) M' + I (x) N'``.  D^-1 P = [[3, 1], [-3, 1]] has the
eigenvalues 2 +- i sqrt(2), the negated poles of the amplification factor
above, so in its eigenvectors the slab splits into ``(lambda M' + N') y = c``
with lambda = 2 + i sqrt(2) and its complex conjugate: one complex n x n LU
solves it, and the real solution is 2 Re(v y) for the eigenvector v.
Dirichlet nodes stay identity rows.  The LU is exact on rigid slabs.  On
a slab with zipper triangles it preconditions GMRES on the exact operator:
the first solve ``x = K^-1 b`` is corrected by right-preconditioned GMRES,
started from a zero correction and not restarted, whose residual is the
true slab residual.  (Plain iterative refinement ``x += K^-1 (b - A x)``
contracts more slowly the further a step shears the zipper; GMRES does not
depend on that contraction.)
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

_DN = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # d(shape)/d(xi, eta)

# time matrices over the DOFs [bottom; top] of a slab whose elements keep
# their shape: P is the time derivative plus the jump, D the P1 time mass
_P = np.array([[0.5, 0.5], [-0.5, 0.5]])
_D = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0

# An element is rigid (static or translating) when its node displacements
# agree to this fraction of its longest edge.  On the bundled meshes strip
# elements differ by rounding (at most 7e-15 of an edge) and zipper
# triangles by at least 0.1, so the two classes are far apart.
RIGID_TOL = 1e-12

# largest relative residual a slab solve may leave: |b - A x| over the free
# (non-Dirichlet) rows, the ones solved for, relative to their right-hand
# side once the Dirichlet values are moved there
SOLVER_TOL = 1e-10
# GMRES stops once its residual estimate is below REFINE_TOL or after
# MAX_REFINEMENTS steps (each one solve with the LU and one product with the
# exact operator); the solve then fails unless the true residual meets
# SOLVER_TOL.  On stiff slabs (large dt * alpha / h^2) the true residual's
# rounding floor may lie above REFINE_TOL while the estimate goes below it.
REFINE_TOL = 1e-13
MAX_REFINEMENTS = 50

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


def _rigid_blocks(e1, e2, d, dt, alpha):
    """``(M_e, N_e)`` of elements with edge vectors ``e1 = x1 - x0``,
    ``e2 = x2 - x0`` translating by ``d`` over the slab: (ne, 3, 3) each.

    The cross-section does not change in time, so the space-time block is
    exactly ``P (x) M_e + D (x) N_e`` with the P1 mass ``M_e`` and ``N_e``
    diffusion minus the mesh-velocity term.
    """
    det2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]             # 2 * area
    if np.any(det2 <= 0):
        raise NumericalError("inverted prism cross-section")
    # det2 * grad N_a = (gx_a, gy_a): node a's opposite edge turned by -90 degrees
    gx = np.stack([e1[:, 1] - e2[:, 1], e2[:, 1], -e1[:, 1]], axis=1)    # (ne, 3)
    gy = np.stack([e2[:, 0] - e1[:, 0], -e2[:, 0], e1[:, 0]], axis=1)
    m_e = det2[:, None, None] * _M
    # int N_a d.grad(N_b) = d.(gx_b, gy_b)/6 is the same in every row a
    n_e = ((0.5 * dt * alpha / det2)[:, None, None]
           * (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
           - ((d[:, 0, None] * gx + d[:, 1, None] * gy) / 6.0)[:, None, :])
    return m_e, n_e


def _theta_blocks(xo, xn, dt, alpha):
    """Space-time (ne, 6, 6) blocks of shearing elements, without the jump.

    The inverse Jacobian makes the integrand rational in time, so time is
    integrated by 2-point Gauss; the spatial integrals at each time point
    are exact.
    """
    mdx = np.einsum("ab,ebi->eai", _M, xn - xo)   # integrals of N_a * (xn - xo)
    ke = np.zeros((len(xo), 6, 6))
    for th, wth in zip(_TH_PTS, _TH_W):
        lsh = np.array([1.0 - th, th])
        a2 = np.einsum("eai,aj->eij", (1.0 - th) * xo + th * xn, _DN)
        det2 = a2[:, 0, 0] * a2[:, 1, 1] - a2[:, 0, 1] * a2[:, 1, 0]
        if np.any(det2 <= 0):
            raise NumericalError("inverted prism cross-section")
        invt = np.moveaxis(np.array([[a2[:, 1, 1], -a2[:, 1, 0]],
                                     [-a2[:, 0, 1], a2[:, 0, 0]]]), 2, 0)
        invt /= det2[:, None, None]                        # inv(a2)^T
        # gradients of the 6 basis functions [bot x 3, top x 3]
        g = np.einsum("eij,aj->eia", invt, _DN)            # (ne, 2, 3)
        gx = np.concatenate([g * lsh[0], g * lsh[1]], axis=2)
        adv = np.einsum("eai,eic->eac", mdx, gx)           # (ne, 3, 6)
        # time derivative (its 1/dt cancels the dt of the measure), mesh velocity, diffusion
        ke += (wth * det2)[:, None, None] * (
            np.kron(np.outer(lsh, [-1.0, 1.0]), _M)
            - np.concatenate([lsh[0] * adv, lsh[1] * adv], axis=1)
            + 0.5 * dt * alpha * np.einsum("eib,eic->ebc", gx, gx))
    return ke


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


@dataclass
class SlabSolution:
    t_bot: np.ndarray                 # (n,) trace at t_n   (jump-relaxed)
    t_top: np.ndarray                 # (n,) trace at t_n + dt
    residual_norm: float              # relative free-row residual, see SOLVER_TOL
    refinements: int = 0              # GMRES steps after the first solve


class SlabOperator:
    """One slab: its exact operator, applied matrix-free, and the complex
    n x n system that solves it.

    The weak residual of the *solved* state, tested with the unconstrained
    functions of boundary nodes, is exactly the consistent boundary flux
    functional used for flux recovery, so the exact operator is kept for
    the residual methods as well as for GMRES.
    """

    def __init__(self, problem: SlabProblem):
        self.problem = problem
        p = problem
        conn = p.conn
        self.active_nodes = np.flatnonzero(np.bincount(conn.ravel(),
                                                       minlength=p.coords_old.shape[0]))
        n = len(self.active_nodes)
        self.index = -np.ones(p.coords_old.shape[0], dtype=np.int64)
        self.index[self.active_nodes] = np.arange(n)
        lconn = self.index[conn]                      # compact node ids

        xo = p.coords_old[conn]                       # (ne, 3, 2)
        disp = p.coords_new[conn] - xo
        e1 = xo[:, 1] - xo[:, 0]
        e2 = xo[:, 2] - xo[:, 0]
        det2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]             # 2 * old area

        def sq(v):
            return np.einsum("ei,ei->e", v, v)

        rigid = (np.maximum(sq(disp[:, 1] - disp[:, 0]), sq(disp[:, 2] - disp[:, 0]))
                 <= RIGID_TOL ** 2 * np.maximum(np.maximum(sq(e1), sq(e2)), sq(e2 - e1)))
        shear = ~rigid

        # rigid elements: M_e and N_e in closed form
        dr = disp[rigid]
        m_e, n_e = _rigid_blocks(e1[rigid], e2[rigid], (dr[:, 0] + dr[:, 1] + dr[:, 2]) / 3.0,
                                 p.dt, p.alpha)
        blocks = [m_e + 1j * n_e]
        # shearing elements: full 6 x 6 blocks from the time quadrature, plus
        # the jump coupling (bottom-face mass on the old coordinates).  Their
        # fit P (x) X_e + D (x) Y_e joins M and N; the remainder is kept as a
        # 2n x 2n COO
        self._rest = None
        if shear.any():
            ke = _theta_blocks(xo[shear], xo[shear] + disp[shear], p.dt, p.alpha)
            ke[:, :3, :3] += det2[shear, None, None] * _M
            quad = ke.reshape(-1, 2, 3, 2, 3).transpose(0, 2, 4, 1, 3).reshape(-1, 3, 3, 4)
            x_e, y_e = np.moveaxis(quad @ _PROJ.T, 3, 0)
            blocks.append(x_e + 1j * y_e)
            rest = ke - np.kron(_P, x_e) - np.kron(_D, y_e)
            dof = np.concatenate([lconn[shear], lconn[shear] + n], axis=1)   # (ns, 6)
            self._rest = sp.coo_matrix(
                (rest.ravel(), (np.repeat(dof, 6, axis=1).ravel(), np.tile(dof, (1, 6)).ravel())),
                shape=(2 * n, 2 * n))
        # M' + i N' scattered once on the n x n node pattern
        cc = np.concatenate([lconn[rigid], lconn[shear]])
        self._mn = sp.coo_matrix((np.concatenate(blocks).ravel(),
                                  (np.repeat(cc, 3, axis=1).ravel(), np.tile(cc, (1, 3)).ravel())),
                                 shape=(n, n)).tocsc()
        fe = np.einsum("eab,eb->ea", det2[:, None, None] * _M, p.t_prev[conn])
        self._rhs_raw = np.bincount(lconn.ravel(), fe.ravel(), minlength=2 * n).reshape(2, n)

        # Dirichlet nodes fix both time levels; inactive ones are dropped
        li = self.index[p.dirichlet_nodes]
        keep = li >= 0
        self._fixed = np.zeros(n, dtype=bool)
        self._fixed[li[keep]] = True
        self._rhs = self._rhs_raw.copy()
        self._rhs[:, li[keep]] = np.asarray(p.dirichlet_values)[keep]

        # lambda M' + N' with identity rows at the Dirichlet nodes: those rows
        # are zeroed on the data array (it holds the row ids of a CSC matrix)
        # and dropped, which keeps them out of the LU's fill (the drop works
        # in place, so the index arrays are copied off _mn's)
        mn = self._mn
        data = _LAM * mn.data.real + mn.data.imag
        on = self._fixed[mn.indices]
        data[on] = 0.0
        data[on & (mn.indices == np.repeat(np.arange(n), np.diff(mn.indptr)))] = 1.0
        self._lhs = sp.csc_matrix((data, mn.indices.copy(), mn.indptr.copy()), shape=(n, n))
        self._lhs.eliminate_zeros()

    # -- exact operator and its preconditioner --------------------------------

    def _apply(self, x):
        """Exact slab operator on ``x = [bottom; top]`` given as (2, n)."""
        q = self._mn @ x.T                             # (n, 2): M' x_j + i N' x_j
        ax = _P @ q.real.T + _D @ q.imag.T
        if self._rest is not None:
            ax += (self._rest @ x.ravel()).reshape(ax.shape)
        return ax

    def _precondition(self, lu, r):
        """Solve ``P (x) M' + D (x) N'`` (Dirichlet rows identity) for ``r``,
        which is zero on the Dirichlet rows, by the complex split of the
        module docstring."""
        return 2.0 * (_V[:, None] * lu.solve(_WD @ r)).real

    def _residual(self, x):
        """Set the Dirichlet values in ``x``; return ``b - A x`` on the free
        rows (zero on the Dirichlet rows)."""
        x[:, self._fixed] = self._rhs[:, self._fixed]
        r = self._rhs - self._apply(x)
        r[:, self._fixed] = 0.0
        return r

    def _gmres(self, lu, r, tol):
        """Correction ``u`` with ``A u = r`` on the free rows by GMRES right-
        preconditioned with the LU, from ``u = 0`` and without restarts.

        Stops once the Arnoldi estimate of ``|r - A u|`` is at most ``tol`` or
        after MAX_REFINEMENTS steps; returns ``u`` and the number of steps.
        """
        m = MAX_REFINEMENTS
        h = np.zeros((m + 1, m))                  # Hessenberg matrix, rotated to R
        g = np.zeros(m + 1)                       # |r| e_1, rotated alike
        g[0] = np.linalg.norm(r)
        cs, sn = np.zeros(m), np.zeros(m)         # Givens rotations
        v, z = [r / g[0]], []                     # Krylov basis and K^-1 of it
        k = 0
        while k < m and abs(g[k]) > tol:
            z.append(self._precondition(lu, v[k]))
            w = self._apply(z[k])
            w[:, self._fixed] = 0.0
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
        return u, k

    # -- solve ---------------------------------------------------------------

    def solve(self) -> SlabSolution:
        try:
            # The pattern is nearly symmetric (only the Dirichlet identity
            # rows break it), so a minimum-degree ordering of A^T + A keeps
            # far less LU fill than the default COLAMD.
            lu = spla.splu(self._lhs, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise NumericalError("sparse factorization failed: %s" % exc)
        # Start from the Dirichlet values: the free rows of b - A x are then
        # the right-hand side of the equations solved for, and the scale of
        # the residual check.  The first solve is exact on a rigid slab;
        # otherwise GMRES on the exact slab closes the zipper remainder.
        x = np.zeros_like(self._rhs)
        r = self._residual(x)
        scale = max(np.linalg.norm(r), 1e-300)
        x += self._precondition(lu, r)
        r = self._residual(x)
        passes = 0
        if np.linalg.norm(r) > REFINE_TOL * scale:
            u, passes = self._gmres(lu, r, REFINE_TOL * scale)
            x += u
            r = self._residual(x)
        res = np.linalg.norm(r) / scale
        if not res <= SOLVER_TOL:
            raise NumericalError("slab solve residual %.3e exceeds %.1e after %d refinement "
                                 "passes" % (res, SOLVER_TOL, passes))
        t_bot = self.problem.t_prev.copy()
        t_top = self.problem.t_prev.copy()
        t_bot[self.active_nodes] = x[0]
        t_top[self.active_nodes] = x[1]
        return SlabSolution(t_bot, t_top, res, passes)

    # -- residual functionals ----------------------------------------------

    def unconstrained_residual(self, solution: SlabSolution) -> np.ndarray:
        """Raw weak residual A0 x - b0 of the solved state (length 2n)."""
        x = np.stack([solution.t_bot[self.active_nodes],
                      solution.t_top[self.active_nodes]])
        return (self._apply(x) - self._rhs_raw).ravel()

    def node_residual_time_avg(self, solution: SlabSolution, nodes) -> np.ndarray:
        """Slab-time-averaged weak residual per node.

        Sums each node's bottom- and top-level unconstrained residual rows
        and divides by dt, i.e. tests with a function constant in time.
        For nodes on a constrained boundary this equals the weak (variationally
        consistent) boundary flux functional of alpha * dT/dn.
        """
        r = self.unconstrained_residual(solution)
        li = self.index[np.asarray(nodes, dtype=np.int64)]
        if np.any(li < 0):
            raise ValueError("residual requested at inactive node")
        return (r[li] + r[li + len(self.active_nodes)]) / self.problem.dt


def solve_slab(problem: SlabProblem) -> SlabSolution:
    """Assemble and solve one slab (convenience wrapper)."""
    return SlabOperator(problem).solve()


def integrate_nodal(coords, conn, values) -> float:
    """Integral of a piecewise-linear nodal field (exact for P1)."""
    return float(np.sum(tri_areas(coords, conn) * values[conn].mean(axis=1)))
