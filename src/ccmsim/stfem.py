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
  the P1 mass and ``N_e`` diffusion minus the mesh-velocity term.  M and N
  are scattered once on the node pattern, and the four blocks of the slab
  matrix are formed from them by index arithmetic;
* only shearing elements (the zipper triangles) use 2-point Gauss in time:
  there the inverse Jacobian makes the integrand rational in time.
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

# largest relative residual |A x - b| / |b| a slab solve may leave
SOLVER_TOL = 1e-10


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
    residual_norm: float


class SlabOperator:
    """Assembled slab system: raw (unconstrained) and constrained forms.

    The raw operator is kept because the weak residual of the *solved*
    state, tested with the unconstrained functions of boundary nodes, is
    exactly the consistent boundary flux functional used for flux
    recovery.
    """

    def __init__(self, problem: SlabProblem):
        self.problem = problem
        p = problem
        conn = p.conn
        self.active_nodes = np.flatnonzero(np.bincount(conn.ravel(),
                                                       minlength=p.coords_old.shape[0]))
        n = len(self.active_nodes)
        self._n_act = n
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

        # rigid elements: M and N scattered once on the n x n node pattern
        # (one complex matrix, real part M, imaginary part N)
        dr = disp[rigid]
        m_e, n_e = _rigid_blocks(e1[rigid], e2[rigid], (dr[:, 0] + dr[:, 1] + dr[:, 2]) / 3.0,
                                 p.dt, p.alpha)
        rc = lconn[rigid]
        mn = sp.coo_matrix(((m_e + 1j * n_e).ravel(),
                            (np.repeat(rc, 3, axis=1).ravel(), np.tile(rc, (1, 3)).ravel())),
                           shape=(n, n)).tocsr()
        # the four blocks P_ij M + D_ij N of the 2n x 2n matrix share that
        # pattern: row i holds M's columns of row i, then the same columns + n
        k = mn.nnz
        cnt = np.diff(mn.indptr)
        left = np.arange(k) + np.repeat(mn.indptr[:-1], cnt)
        right = left + np.repeat(cnt, cnt)
        indices = np.empty(4 * k, dtype=mn.indices.dtype)
        data = np.empty(4 * k)
        for i in range(2):
            for j, pos in enumerate((left, right)):
                indices[2 * k * i + pos] = mn.indices + j * n
                data[2 * k * i + pos] = _P[i, j] * mn.data.real + _D[i, j] * mn.data.imag
        indptr = np.concatenate([2 * mn.indptr, 2 * k + 2 * mn.indptr[1:]])
        self._raw = sp.csr_matrix((data, indices, indptr), shape=(2 * n, 2 * n))

        # shearing elements: full 6 x 6 blocks from the time quadrature, plus
        # the jump coupling (bottom-face mass on the old coordinates)
        if shear.any():
            ke = _theta_blocks(xo[shear], xo[shear] + disp[shear], p.dt, p.alpha)
            ke[:, :3, :3] += det2[shear, None, None] * _M
            dof = np.concatenate([lconn[shear], lconn[shear] + n], axis=1)   # (ns, 6)
            self._raw = self._raw + sp.coo_matrix(
                (ke.ravel(), (np.repeat(dof, 6, axis=1).ravel(), np.tile(dof, (1, 6)).ravel())),
                shape=(2 * n, 2 * n))
        fe = np.einsum("eab,eb->ea", det2[:, None, None] * _M, p.t_prev[conn])
        self._rhs_raw = np.bincount(lconn.ravel(), fe.ravel(), minlength=2 * n)

        # Dirichlet rows become identity rows; inactive Dirichlet nodes are dropped
        li = self.index[p.dirichlet_nodes]
        keep = li >= 0
        fixed_dofs = np.concatenate([li[keep], li[keep] + n])
        fixed = np.zeros(2 * n)
        fixed[fixed_dofs] = 1.0
        self._lhs = (sp.diags(1.0 - fixed) @ self._raw + sp.diags(fixed)).tocsc()
        self._rhs = self._rhs_raw.copy()
        self._rhs[fixed_dofs] = np.tile(np.asarray(p.dirichlet_values)[keep], 2)

    # -- solve ---------------------------------------------------------------

    def solve(self) -> SlabSolution:
        try:
            # The slab pattern is nearly symmetric (6x6 prism blocks; only the
            # Dirichlet identity rows break it), so a minimum-degree ordering
            # of A^T + A keeps far less LU fill than the default COLAMD.
            lu = spla.splu(self._lhs, permc_spec="MMD_AT_PLUS_A")
            x = lu.solve(self._rhs)
        except RuntimeError as exc:
            raise NumericalError("sparse factorization failed: %s" % exc)
        res = np.linalg.norm(self._lhs @ x - self._rhs)
        scale = max(np.linalg.norm(self._rhs), 1e-300)
        if res / scale > SOLVER_TOL:
            raise NumericalError("slab solve residual %.3e exceeds %.1e"
                                 % (res / scale, SOLVER_TOL))
        t_bot = self.problem.t_prev.copy()
        t_top = self.problem.t_prev.copy()
        t_bot[self.active_nodes] = x[:self._n_act]
        t_top[self.active_nodes] = x[self._n_act:]
        return SlabSolution(t_bot, t_top, res / scale)

    # -- residual functionals ----------------------------------------------

    def unconstrained_residual(self, solution: SlabSolution) -> np.ndarray:
        """Raw weak residual A0 x - b0 of the solved state (length 2n)."""
        x = np.concatenate([solution.t_bot[self.active_nodes],
                            solution.t_top[self.active_nodes]])
        return self._raw @ x - self._rhs_raw

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
        return (r[li] + r[li + self._n_act]) / self.problem.dt


def solve_slab(problem: SlabProblem) -> SlabSolution:
    """Assemble and solve one slab (convenience wrapper)."""
    return SlabOperator(problem).solve()


def integrate_nodal(coords, conn, values) -> float:
    """Integral of a piecewise-linear nodal field (exact for P1)."""
    return float(np.sum(tri_areas(coords, conn) * values[conn].mean(axis=1)))
