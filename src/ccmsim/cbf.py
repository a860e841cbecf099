"""Boundary heat-flux recovery from slab residuals.

Instead of differentiating the finite-element temperature (which loses an
order of accuracy on the boundary), the flux is recovered variationally:
the assembled, *unconstrained* residual of the solved slab system vanishes
at interior nodes and, at constrained boundary nodes, equals the weak form
of the boundary normal flux integrated over the slab.  Solving a small
mass system on the boundary chain turns that functional back into nodal
flux values.  The residual is the one the slab solve formed for its own
residual check (see :meth:`SlabOperator.unconstrained_residual`), and the
chain's consistent mass is solved as a dense k x k system: O(k^3) work
for a chain of k nodes, and k is at most 31 on every bundled fixture.

Conventions
-----------
The recovered ``g`` approximates ``alpha * dT/dn`` with ``n`` the outward
normal of the meshed (solid) domain, time-averaged over the slab.  The
reported ``nodal_flux`` is ``-rho_cp * g``, i.e. the conductive heat flux
``-k dT/dn`` leaving the domain through the boundary: positive where the
solid is being cooled from outside, negative where heat enters the solid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .stfem import SlabOperator, SlabSolution

__all__ = ["FluxResult", "recover_flux", "series_flux_reference"]

_SERIES_TRUNCATION = 1e-14
_SERIES_MIN_TERMS = 3


@dataclass
class FluxResult:
    """Recovered boundary flux at one time level.

    nodes       -- global node ids on the boundary chain (sorted, unique)
    nodal_flux  -- outgoing conductive flux per node, ``-rho_cp * g``
    q_s_avg     -- mean of ``nodal_flux`` over the chain length
    """

    nodes: np.ndarray
    nodal_flux: np.ndarray
    q_s_avg: float


def _edge_mass(coords: np.ndarray, edges: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Consistent 1D mass matrix of the boundary chain on the given coords,
    dense."""
    loc = np.searchsorted(nodes, edges)
    d = coords[edges[:, 1]] - coords[edges[:, 0]]
    ell = np.hypot(d[:, 0], d[:, 1])
    if np.any(ell <= 0.0):
        raise NumericalError("degenerate boundary edge in flux recovery")
    a, b = loc[:, 0], loc[:, 1]
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([ell / 3.0, ell / 3.0, ell / 6.0, ell / 6.0])
    n = nodes.size
    return np.bincount(rows * n + cols, vals, minlength=n * n).reshape(n, n)


def recover_flux(op: SlabOperator, sol: SlabSolution, edges: np.ndarray,
                 rho_cp: float) -> FluxResult:
    """Recover the outgoing boundary flux on a chain of boundary edges.

    ``edges`` is an (E, 2) array of node pairs; they must all lie on the
    boundary of the active domain of ``op``.  ``rho_cp`` converts the
    temperature-scaled recovery into heat-flux units (W/m^2).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        raise ValueError("flux recovery needs at least one boundary edge")
    nodes = np.unique(edges)
    r = op.node_residual_time_avg(sol, nodes)
    mass = _edge_mass(op.problem.coords_new, edges, nodes)
    g = np.linalg.solve(mass, r)
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite values in recovered boundary flux")
    # The row sums of M are each node's half-edge lengths and its entries
    # sum to the chain length, so with M g = r this is the length-weighted
    # mean of g: the integral of the flux over the chain, over its length.
    q_s_avg = -float(rho_cp) * float(r.sum() / mass.sum())
    return FluxResult(nodes=nodes, nodal_flux=-float(rho_cp) * g, q_s_avg=q_s_avg)


def series_flux_reference(t: float) -> float:
    """Reference boundary flux for the unit-slab cooling problem.

    A unit-length rod at uniform temperature 1 with an insulated left end
    has its right end clamped to 0 at t = 0 (unit diffusivity).  The exact
    outgoing flux at the clamped end is

        q_hat(t) = 2 * sum_{n>=1} exp(-lam_n^2 t),   lam_n = (2n-1)*pi/2.

    Terms are added until one falls below ``_SERIES_TRUNCATION`` (with a
    floor of ``_SERIES_MIN_TERMS`` terms).  ``t`` must be positive: the
    series diverges at t = 0 (the flux is singular there); a ``t`` so small
    that the series needs more than 100001 terms is a ValueError too.
    """
    if t <= 0.0:
        raise ValueError("series flux reference requires t > 0")
    total = 0.0
    for n in range(1, 100002):
        lam = (2 * n - 1) * math.pi / 2.0
        term = math.exp(-lam * lam * t)
        total += term
        if n >= _SERIES_MIN_TERMS and term < _SERIES_TRUNCATION:
            return 2.0 * total
    raise ValueError(f"flux series needs more than 100001 terms at t = {t:g}")
