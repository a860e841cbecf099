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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError

# reference triangle quadrature, degree 2 (weights sum to the area 1/2)
_TRI_PTS = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
_TRI_W = np.array([1 / 6, 1 / 6, 1 / 6])
# two-point Gauss in the time direction on [0, 1]
_TH_PTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_TH_W = np.array([0.5, 0.5])

_DN = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # d(shape)/d(xi, eta)


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
    active_nodes: np.ndarray
    residual_norm: float


class SlabOperator:
    """Assembled slab system: raw (unconstrained) and constrained forms.

    The raw operator is kept because the weak residual of the *solved*
    state, tested with the unconstrained functions of boundary nodes, is
    exactly the consistent boundary flux functional used for flux
    recovery.
    """

    def __init__(self, problem: SlabProblem, solver_tol: float = 1e-10):
        self.problem = problem
        self.solver_tol = solver_tol
        p = problem
        self.active_nodes = np.unique(p.conn)
        n_act = len(self.active_nodes)
        self._n_act = n_act
        self.index = -np.ones(p.coords_old.shape[0], dtype=np.int64)
        self.index[self.active_nodes] = np.arange(n_act)
        data, rows, cols, rhs = self._assemble()
        self._raw = sp.coo_matrix((data, (rows, cols)),
                                  shape=(2 * n_act, 2 * n_act)).tocsr()
        self._rhs_raw = rhs
        self._constrained = None
        self._rhs_con = None

    # -- assembly -----------------------------------------------------------

    def _assemble(self):
        p = self.problem
        conn = p.conn
        ne = len(conn)
        lconn = self.index[conn]                      # compact node ids
        xo = p.coords_old[conn]                       # (ne, 3, 2)
        xn = p.coords_new[conn]
        dt = p.dt

        ke = np.zeros((ne, 6, 6))
        fe = np.zeros((ne, 6))

        for (xi, eta), wxi in zip(_TRI_PTS, _TRI_W):
            nsh = np.array([1.0 - xi - eta, xi, eta])          # (3,)
            for th, wth in zip(_TH_PTS, _TH_W):
                lsh = np.array([1.0 - th, th])                 # (2,)
                dlsh = np.array([-1.0, 1.0])
                xq = (1.0 - th) * xo + th * xn                 # (ne, 3, 2)
                a2 = np.einsum("eai,aj->eij", xq, _DN)         # (ne, 2, 2)
                det2 = a2[:, 0, 0] * a2[:, 1, 1] - a2[:, 0, 1] * a2[:, 1, 0]
                if np.any(det2 <= 0):
                    raise NumericalError("inverted prism cross-section")
                invt = np.empty_like(a2)                       # inv(a2)^T
                invt[:, 0, 0] = a2[:, 1, 1]
                invt[:, 0, 1] = -a2[:, 1, 0]
                invt[:, 1, 0] = -a2[:, 0, 1]
                invt[:, 1, 1] = a2[:, 0, 0]
                invt /= det2[:, None, None]
                # 6 basis functions: [bot x 3, top x 3]
                dn6 = np.concatenate([_DN.T * lsh[0], _DN.T * lsh[1]], axis=1)
                phi6 = np.concatenate([nsh * lsh[0], nsh * lsh[1]])
                reft = np.concatenate([nsh * dlsh[0], nsh * dlsh[1]])
                gx = np.einsum("eij,jb->eib", invt, dn6)       # (ne, 2, 6)
                xth = np.einsum("a,eai->ei", nsh, xn - xo)     # (ne, 2)
                dphidt = (reft[None, :] - np.einsum("eib,ei->eb", gx, xth)) / dt
                w = wxi * wth * dt * det2                      # (ne,)
                ke += w[:, None, None] * (
                    phi6[None, :, None] * dphidt[:, None, :]
                    + p.alpha * np.einsum("eib,eic->ebc", gx, gx))

        # jump coupling to the previous trace: bottom-face consistent mass
        # on the old coordinates
        area = 0.5 * ((xo[:, 1, 0] - xo[:, 0, 0]) * (xo[:, 2, 1] - xo[:, 0, 1])
                      - (xo[:, 2, 0] - xo[:, 0, 0]) * (xo[:, 1, 1] - xo[:, 0, 1]))
        m0 = (np.ones((3, 3)) + np.eye(3))[None, :, :] * area[:, None, None] / 12.0
        ke[:, :3, :3] += m0
        fe[:, :3] += np.einsum("eab,eb->ea", m0, p.t_prev[conn])

        # scatter
        dof = np.concatenate([lconn, lconn + self._n_act], axis=1)   # (ne, 6)
        rows = np.repeat(dof, 6, axis=1).ravel()
        cols = np.tile(dof, (1, 6)).ravel()
        data = ke.ravel()
        rhs = np.zeros(2 * self._n_act)
        np.add.at(rhs, dof.ravel(), fe.ravel())
        return data, rows, cols, rhs

    # -- constraints and solve ---------------------------------------------

    def _constrain(self):
        p = self.problem
        n2 = 2 * self._n_act
        fixed = np.zeros(n2, dtype=bool)
        vals = np.zeros(n2)
        li = self.index[p.dirichlet_nodes]
        if np.any(li < 0):
            # Dirichlet nodes outside the active set are simply dropped
            keep = li >= 0
            li = li[keep]
            dv = np.asarray(p.dirichlet_values)[keep]
        else:
            dv = np.asarray(p.dirichlet_values)
        for shift in (0, self._n_act):
            fixed[li + shift] = True
            vals[li + shift] = dv
        coo = self._raw.tocoo()
        keep = ~fixed[coo.row]
        data = np.concatenate([coo.data[keep], np.ones(fixed.sum())])
        rows = np.concatenate([coo.row[keep], np.where(fixed)[0]])
        cols = np.concatenate([coo.col[keep], np.where(fixed)[0]])
        a = sp.coo_matrix((data, (rows, cols)), shape=(n2, n2)).tocsc()
        b = self._rhs_raw.copy()
        b[fixed] = vals[fixed]
        self._constrained = a
        self._rhs_con = b

    def solve(self) -> SlabSolution:
        if self._constrained is None:
            self._constrain()
        a, b = self._constrained, self._rhs_con
        try:
            lu = spla.splu(a)
            x = lu.solve(b)
        except RuntimeError as exc:
            raise NumericalError("sparse factorization failed: %s" % exc)
        res = np.linalg.norm(a @ x - b)
        scale = max(np.linalg.norm(b), 1e-300)
        if res / scale > self.solver_tol:
            raise NumericalError("slab solve residual %.3e exceeds %.1e"
                                 % (res / scale, self.solver_tol))
        p = self.problem
        t_bot = p.t_prev.copy()
        t_top = p.t_prev.copy()
        t_bot[self.active_nodes] = x[:self._n_act]
        t_top[self.active_nodes] = x[self._n_act:]
        return SlabSolution(t_bot, t_top, self.active_nodes, res / scale)

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


def solve_slab(problem: SlabProblem, solver_tol: float = 1e-10) -> SlabSolution:
    """Assemble and solve one slab (convenience wrapper)."""
    return SlabOperator(problem, solver_tol).solve()


def integrate_nodal(coords, conn, values) -> float:
    """Integral of a piecewise-linear nodal field (exact for P1)."""
    x = coords[conn]
    area = 0.5 * ((x[:, 1, 0] - x[:, 0, 0]) * (x[:, 2, 1] - x[:, 0, 1])
                  - (x[:, 2, 0] - x[:, 0, 0]) * (x[:, 1, 1] - x[:, 0, 1]))
    return float(np.sum(area * values[conn].mean(axis=1)))
