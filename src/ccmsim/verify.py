"""Analytical references and convergence harnesses.

Two self-contained benchmark problems exercise the solver stack end to end:

* a unit square, initially at temperature 1, whose right edge is clamped
  to 0 (left/top/bottom insulated) — the recovered right-edge flux is
  compared against the exact separation-of-variables series;
* a unit square carrying the stationary field T = x while an interior
  vertical band of the mesh slides downward through a recycling window —
  any error is purely a mesh-update artifact, and its decay under
  refinement measures the quality of the sliding-mesh machinery.

Both take each step from :func:`ccmsim.driver.slab_step`, the step core
of the driver's run loop, so the three loops share one step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import driver, meshgen, motion
from .cbf import recover_flux, series_flux_reference
from .errors import ConfigError
from .mesh import tri_areas
# unused since the cooling case steps through driver.slab_step; kept because
# stepbench's step clock patches verify.SlabProblem as well as the driver's
from .stfem import SlabProblem

__all__ = [
    "ErrorTable",
    "convergence_rate",
    "grid_cells",
    "l2_error",
    "meshupdate_convergence",
    "run_cbf_case",
    "run_meshupdate_case",
]

# degree-2 triangle quadrature (exact for quadratics)
_QP = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
_QW = np.array([1 / 3, 1 / 3, 1 / 3])  # fractions of the element area


@dataclass
class ErrorTable:
    """Rows of (h, dt, error, runtime-seconds)."""

    h: list = field(default_factory=list)
    dt: list = field(default_factory=list)
    error: list = field(default_factory=list)
    runtime: list = field(default_factory=list)

    def add_row(self, h: float, dt: float, error: float, runtime: float) -> None:
        if not (math.isfinite(error) and error >= 0.0):
            raise ValueError(f"error norm must be finite and >= 0, got {error!r}")
        self.h.append(float(h))
        self.dt.append(float(dt))
        self.error.append(float(error))
        self.runtime.append(float(runtime))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("h,dt,error,runtime\n")
            for h, dt, e, r in zip(self.h, self.dt, self.error, self.runtime):
                f.write(f"{h:.17g},{dt:.17g},{e:.17g},{r:.17g}\n")


def l2_error(coords: np.ndarray, conn: np.ndarray, field_values: np.ndarray, exact) -> float:
    """L2 norm of (nodal field - exact) over the given triangles.

    ``exact`` maps an (k, 2) coordinate array to exact values.  A degree-2
    quadrature rule integrates the squared difference element-wise.
    """
    conn = np.asarray(conn, dtype=np.int64).reshape(-1, 3)
    if conn.size == 0:
        return 0.0
    p = coords[conn]                                   # (ne, 3, 2)
    area = np.abs(tri_areas(coords, conn))
    fv = field_values[conn]                            # (ne, 3)
    acc = 0.0
    for (xi, eta), wq in zip(_QP, _QW):
        nsh = np.array([1.0 - xi - eta, xi, eta])
        xq = np.einsum("a,eai->ei", nsh, p)
        fq = fv @ nsh
        eq = np.asarray(exact(xq), dtype=float)
        acc += wq * np.sum(area * (fq - eq) ** 2)
    return math.sqrt(acc)


def grid_cells(h: float, least: int = 1) -> int:
    """Cells per side of the unit square of grid size ``h``, which must be
    ``1/n`` for a whole ``n >= least``."""
    n = round(1.0 / h) if math.isfinite(h) and h > 0.0 else 0
    if n < least or abs(n * h - 1.0) > 1e-12:
        raise ValueError(f"grid size h must divide the unit square evenly into "
                         f"n >= {least} cells per side, got {h:g}")
    return n


def run_cbf_case(h: float = 0.02, dt: float = 0.05, n_steps: int = 20) -> ErrorTable:
    """Flux-recovery benchmark on the unit square.

    Initial temperature 1 everywhere; the right edge is clamped to 0 and
    the remaining edges are insulated (natural).  Each step is
    :func:`ccmsim.driver.slab_step` on the static structured mesh of cell
    size ``h``, which has no band, followed by a recovery of the
    right-edge flux; the row for step i holds the relative error of the
    recovered (slab-averaged) flux against the exact series evaluated at
    the slab midpoint t = (i + 1/2) dt.  A run whose first midpoint is so
    early that the series cannot be summed, or whose last midpoint is so
    late that the exact flux underflows to zero, has no reference; it is
    a ConfigError before the first slab.
    """
    # the exact flux at each slab's midpoint, first to last
    try:
        q_ref = [series_flux_reference((i + 0.5) * dt) for i in range(n_steps)]
    except ValueError as exc:
        raise ConfigError(f"dt: the exact flux series cannot be summed at the first slab's "
                          f"midpoint t = {0.5 * dt:g} ({exc}); use a longer step") from exc
    if q_ref and not q_ref[-1] > 0.0:
        raise ConfigError(f"dt, n_steps: the exact flux underflows to zero by the last "
                          f"slab's midpoint t = {(n_steps - 0.5) * dt:g}; use fewer or "
                          f"shorter steps")
    mesh = meshgen.make_unit_square(grid_cells(h))
    edges = mesh.tagged_edges("right")
    right = np.unique(edges)
    zeros = np.zeros(len(right))
    T = np.ones(mesh.n_nodes)
    plan = driver.slab_plan(mesh, None)

    table = ErrorTable()
    for q in q_ref:
        tic = time.perf_counter()
        op, sol, T, _ = driver.slab_step(
            mesh, None, T, 0.0, plan=plan, dt=dt, alpha=1.0, dirichlet_nodes=right,
            dirichlet_values=zeros, background=T)
        fr = recover_flux(op, sol, edges, rho_cp=1.0)
        table.add_row(h, dt, abs(fr.q_s_avg - q) / q, time.perf_counter() - tic)
        # let this step's slab go before the next one is assembled
        op = sol = fr = None
    return table


def run_meshupdate_case(h: float, velocity: float = 0.005, dt: float = 1.0,
                        n_steps: int = 20) -> float:
    """Sliding-band benchmark: stationary field T = x under mesh motion.

    A vertical band of the unit-square mesh (0.3 < x < 0.7) slides
    downward with the given velocity through a recycling window while the
    temperature field T = x (imposed by Dirichlet values 0 and 1 on the
    left and right edges) should remain unchanged.  Each step is
    :func:`ccmsim.driver.slab_step`, with the exact field as the value of
    recycled and outside nodes.  Returns the largest L2 error over all
    steps, computed on the active elements.  A step that would move the
    band by half its ring or more is a ConfigError before the first slab.
    """
    mesh = meshgen.make_strip_square(grid_cells(h, meshgen.STRIP_MIN_ROWS))
    state = motion.init_motion(mesh, (0.0, -1.0))
    if velocity * dt >= state.circumference / 2:
        raise ConfigError(f"dt: the band moves {velocity * dt:g} per step; half its ring "
                          f"circumference is {state.circumference / 2:g}")
    exact = mesh.nodes[:, 0].copy()        # T = x; the band moves along y only
    dir_nodes = np.unique(mesh.tagged_edges(("left", "right")))
    dir_vals = exact[dir_nodes]            # 0 on the left edge, 1 on the right

    T = exact.copy()
    plan = driver.slab_plan(mesh, state)
    max_err = 0.0
    for _ in range(n_steps):
        _, _, T, act = driver.slab_step(
            mesh, state, T, velocity * dt, plan=plan, dt=dt, alpha=1.0,
            dirichlet_nodes=dir_nodes, dirichlet_values=dir_vals, background=exact)
        err = l2_error(mesh.nodes, mesh.triangles[act], T, lambda xy: xy[:, 0])
        max_err = max(max_err, err)
    return max_err


def meshupdate_convergence(hs=(0.2, 0.1, 0.05, 0.025), dt: float = 1.0,
                           n_steps: int = 20) -> ErrorTable:
    """Run the sliding-band benchmark over a family of grid sizes."""
    table = ErrorTable()
    for h in sorted(hs, reverse=True):
        tic = time.perf_counter()
        err = run_meshupdate_case(h, dt=dt, n_steps=n_steps)
        table.add_row(h, dt, err, time.perf_counter() - tic)
    return table


def convergence_rate(table: ErrorTable) -> float:
    """Least-squares slope of log(error) against log(h)."""
    h = np.asarray(table.h, dtype=float)
    e = np.asarray(table.error, dtype=float)
    if len(h) < 2 or len(np.unique(h)) < 2:
        raise ValueError("convergence rate needs at least two rows with distinct h")
    if np.any(e <= 0.0):
        raise ValueError("convergence rate needs strictly positive errors")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])
