"""Scale-coupled melting-probe simulation driver.

Each time step runs three stages: (A) slide the mesh band by U*dt and
solve one space-time slab for the solid temperature with the melt
interface held at the melting point, (B) recover the solid-side heat flux
at the tip and (C) evaluate the melt closure for the approach velocity U.
Stage A is :func:`slab_step`, the step core shared by all three loops:
:func:`run` here and the cooling and sliding-band cases of
:mod:`ccmsim.verify`.  The velocity computed from a slab deforms the
*next* slab (explicit one-step lag), so a transient run starts from U = 0
and an equilibrium run applies the closed-form velocity from the first
step on.

Configuration is a flat INI file; each key is declared once, with its
section, parser and default, on the :class:`RunConfig` field it sets
(unknown sections and keys are errors).
Outputs: a per-step CSV, an optional sensor-trace CSV, and periodic VTK
snapshots of the deformed mesh with an element activity mask.  Each step's
slab runs from ``t_n`` to ``t_n + dt``.  In its ``run.csv`` row, ``time`` is
``t_n`` and ``velocity`` the U the slab moved at; ``displacement`` and
``slip_count`` are at the slab's end, and the ``flux_*`` columns are
averages over the slab.  A ``sensors.csv`` row's ``time`` is the slab's
end, ``t_n + dt``.  ``state_<k>.vtk`` is the state at the end of the k-th
step, t = k dt.
"""

from __future__ import annotations

import configparser
import contextlib
import logging
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import motion
from . import velocity as vel
from .cbf import recover_flux
from .errors import ConfigError, NumericalError
from .mesh import Mesh, MeshFormatError, format_rows, load_mesh, tri_areas
from .stfem import SlabOperator, SlabPlan, SlabProblem

__all__ = [
    "RunConfig",
    "RunReport",
    "SensorLocator",
    "StepRecord",
    "check_values",
    "load_config",
    "output_path",
    "run",
    "sample_sensors",
    "slab_plan",
    "slab_step",
    "write_vtk",
]

log = logging.getLogger(__name__)

@dataclass
class StepRecord:
    t: float
    U: float
    displacement: float
    q_s_avg: float
    slip_count: int
    clamped: bool
    stalled: bool


@dataclass
class RunSummary:
    final_displacement: float
    mean_velocity_last_10pct: float


@dataclass
class RunReport:
    records: list
    sensor_times: np.ndarray
    sensor_values: np.ndarray       # (n_steps, n_sensors), NaN = gap
    summary: RunSummary
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# configuration


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not finite: {raw!r}")
    return value


def _int(raw: str) -> int:
    value = _float(raw)
    if value != int(value):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _tags(raw: str) -> tuple:
    return tuple(t.strip() for t in raw.split(",") if t.strip())


def _point(raw: str) -> tuple:
    parts = raw.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected two components 'x,y', got {raw.strip()!r}")
    return _float(parts[0]), _float(parts[1])


def _points(raw: str) -> tuple:
    return tuple(_point(chunk) for chunk in raw.split(";") if chunk.strip())


def _choice(*options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError("must be " + " or ".join(map(repr, options)))
        return raw
    return parse


_REQUIRED = object()    # the default of a key that must be given, and not empty


def _ini(section: str, key: str, parse=_float, default=_REQUIRED):
    """A RunConfig field read from ``key`` in ``[section]`` by ``parse``;
    ``default`` when the key is absent."""
    return field(metadata={"ini": (section, key, parse, default)})


@dataclass
class RunConfig:
    """Validated, fully-resolved configuration of one simulation run; each
    field names its INI section and key, parser and default."""

    rho_s: float = _ini("material.solid", "rho")
    cp_s: float = _ini("material.solid", "cp")
    kappa_s: float = _ini("material.solid", "kappa")
    T_s: float = _ini("material.solid", "T_s")
    rho_l: float = _ini("material.liquid", "rho")
    cp_l: float = _ini("material.liquid", "cp")
    kappa_l: float = _ini("material.liquid", "kappa")
    mu_l: float = _ini("material.liquid", "mu")
    h_m: float = _ini("melting", "h_m")
    T_m: float = _ini("melting", "T_m")
    mode: str = _ini("source", "mode", _choice("temperature", "power"))
    coupling: str = _ini("source", "coupling", _choice("equilibrium", "transient"))
    T_w: float | None = _ini("source", "T_w", default=None)
    q_h: float | None = _ini("source", "q_h", default=None)
    F_ex: float = _ini("source", "F_ex", default=None)
    R: float = _ini("source", "R")
    tip_tags: tuple = _ini("source", "tip_tags", _tags)
    side_tags: tuple = _ini("source", "side_tags", _tags, ())
    # m^2 per unit depth; used to convert bulk watts
    tip_area: float | None = _ini("source", "tip_area", default=None)
    dt: float = _ini("time", "dt")
    n_steps: int = _ini("time", "n_steps", _int)
    mesh_path: str = _ini("mesh", "path", str)
    direction: tuple | None = _ini("mesh", "direction", _point, None)
    # None = every tag not in tip/side
    farfield_tags: tuple | None = _ini("mesh", "farfield_tags", _tags, None)
    out_dir: str = _ini("output", "directory", str)
    vtk_every: int = _ini("output", "vtk_every", _int, 10)
    csv_name: str = _ini("output", "csv", str, "run.csv")
    sensors: tuple = _ini("output", "sensors", _points, ())

    @property
    def ccm_params(self) -> vel.CcmParams:
        return vel.CcmParams(rho_s=self.rho_s, cp_s=self.cp_s, rho_l=self.rho_l,
                             cp_l=self.cp_l, kappa_l=self.kappa_l, mu_l=self.mu_l,
                             h_m=self.h_m, T_m=self.T_m, T_s=self.T_s, R=self.R,
                             F_ex=self.F_ex)

    @property
    def alpha_s(self) -> float:
        return self.kappa_s / (self.rho_s * self.cp_s)


# (section, key, RunConfig field, parser, default): every key of the INI
# file, in the fields' order.  mass and gravity are not fields; load_config
# turns them into F_ex.
_KEYS = []
for _f in fields(RunConfig):
    _KEYS.append((*_f.metadata["ini"][:2], _f.name, *_f.metadata["ini"][2:]))
    if _f.name == "F_ex":
        _KEYS += [("source", "mass", "mass", _float, None),
                  ("source", "gravity", "gravity", _float, None)]
# each section's keys (the sections in the table's order), each field's key
_SECTIONS = {section: {k for s, k, *_ in _KEYS if s == section} for section, *_ in _KEYS}
_KEY_OF = {name: f"[{section}] {key}" for section, key, name, *_ in _KEYS}


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration, resolving all defaults."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # no interpolation: a '%' in a value is the character itself; and no
    # header can name a section "\n", so [DEFAULT] is an ordinary section
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                                   default_section="\n")
    cp.optionxform = str  # keys are case-sensitive (T_w vs t_w)
    try:
        with open(path, encoding="utf-8") as f:
            cp.read_file(f)
    except (OSError, configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc

    given = {section: dict(cp.items(section)) for section in cp.sections()}
    for section, keys in given.items():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")
        for key in keys:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
    for section in _SECTIONS:
        if section not in given:
            raise ConfigError(f"[{section}]: required section missing")

    values = {}
    for section, key, name, parse, default in _KEYS:
        raw = given[section].get(key)
        if not raw and default is _REQUIRED:
            raise ConfigError(f"[{section}] {key}: required key missing")
        try:
            values[name] = default if raw is None else parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
    mass, gravity = values.pop("mass"), values.pop("gravity")
    cfg = RunConfig(**values)

    if cfg.T_w is not None and cfg.q_h is not None:
        raise ConfigError("[source] T_w, q_h: exactly one of the two may be set")
    if cfg.mode == "temperature" and cfg.T_w is None:
        raise ConfigError("[source] T_w: required in temperature mode")
    if cfg.mode == "power" and cfg.q_h is None:
        raise ConfigError("[source] q_h: required in power mode")
    if cfg.F_ex is not None and (mass is not None or gravity is not None):
        raise ConfigError("[source] F_ex, mass/gravity: set either F_ex or the pair, not both")
    if cfg.F_ex is None:
        if mass is None or gravity is None:
            raise ConfigError("[source] F_ex: set F_ex, or both mass and gravity")
        cfg.F_ex = vel.external_force(mass, gravity)
    if not (cfg.dt > 0.0 and cfg.n_steps > 0):
        raise ConfigError("[time] dt, n_steps: dt * n_steps must be positive")
    if cfg.vtk_every < 0:
        raise ConfigError("[output] vtk_every: must be >= 0 (0 disables snapshots)")
    if os.path.normpath(cfg.csv_name) == "sensors.csv":
        raise ConfigError("[output] csv: sensors.csv is the sensor trace's file")
    if not os.path.isabs(cfg.mesh_path):
        # relative mesh paths are anchored at the config file, not the CWD,
        # so bundled fixture configs work from anywhere
        cfg.mesh_path = os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(path)), cfg.mesh_path))
    check_values(cfg)
    for name, value in vars(cfg).items():
        log.info("config %s = %r", name, value)
    return cfg


# the inputs of the melt closures
_CLOSURE_INPUTS = [f.name for f in fields(vel.CcmParams)] + ["T_w", "q_h"]


def _closure_key(cfg: RunConfig) -> str:
    """The key of the closure input furthest from 1, the one a closure that
    over- or underflows, or gives an absurd U, fails on."""
    return _KEY_OF[max((f for f in _CLOSURE_INPUTS if getattr(cfg, f) is not None),
                       key=lambda f: abs(math.log10(abs(getattr(cfg, f)) or 1.0)))]


def check_values(cfg: RunConfig) -> None:
    """Check the physical values of a built config; ConfigError names the key.
    The melt closures are evaluated, and checked, by the run's set-up."""
    if cfg.tip_area is not None and not cfg.tip_area > 0.0:
        raise ConfigError("[source] tip_area: must be positive")
    if not cfg.kappa_s > 0.0:
        raise ConfigError("[material.solid] kappa: must be positive")
    if cfg.T_w is not None and not cfg.T_w > cfg.T_m:
        raise ConfigError("[source] T_w: must be above the melting point [melting] T_m")
    if cfg.q_h is not None and not cfg.q_h > 0.0:
        raise ConfigError("[source] q_h: must be positive")
    try:
        cfg.ccm_params  # triggers physical-parameter validation
    except ValueError as exc:
        name = str(exc).partition(" ")[0].removeprefix("CcmParams.")
        raise ConfigError(f"{_KEY_OF[name]}: {exc}") from exc


# ---------------------------------------------------------------------------
# outputs


def write_vtk(path, coords, conn, temperature, active_mask) -> None:
    """Legacy-ASCII VTK snapshot: points, triangles, nodal temperature,
    per-cell activity flag."""
    n = len(coords)
    m = len(conn)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("ccmsim snapshot\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        f.write(format_rows("%.17g %.17g 0\n", coords))
        f.write(f"CELLS {m} {4 * m}\n")
        f.write(format_rows("3 %d %d %d\n", conn))
        f.write(f"CELL_TYPES {m}\n")
        f.write("5\n" * m)
        f.write(f"POINT_DATA {n}\n")
        f.write("SCALARS temperature double\nLOOKUP_TABLE default\n")
        f.write(format_rows("%.17g\n", temperature))
        f.write(f"CELL_DATA {m}\n")
        f.write("SCALARS active int\nLOOKUP_TABLE default\n")
        f.write(format_rows("%d\n", active_mask))


def _barycentric(mesh: Mesh, idx, q):
    """``(hit, l0, l1, l2)`` of the points ``q`` in the triangles ``idx``,
    each (points, triangles): whether the point lies in the triangle, and
    its barycentric coordinates there."""
    tri = mesh.triangles[idx]
    p0, p1, p2 = (mesh.nodes[tri[:, i]] for i in range(3))
    rx = q[:, 0, None] - p0[:, 0]                       # (points, triangles)
    ry = q[:, 1, None] - p0[:, 1]
    d = 2.0 * tri_areas(mesh.nodes, tri)
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = ((p2[:, 1] - p0[:, 1]) * rx - (p2[:, 0] - p0[:, 0]) * ry) / d
        l2 = (-(p1[:, 1] - p0[:, 1]) * rx + (p1[:, 0] - p0[:, 0]) * ry) / d
    l0 = 1.0 - l1 - l2
    tol = 1e-10      # a point this fraction of the triangle's size outside still lies in it
    return (d > 0) & (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol), l0, l1, l2


class SensorLocator:
    """A run's sensor points and the triangles that can hold them.

    Static triangles never move, so the ones that hold a point are found
    once, when the locator is made.  A moving triangle can hold a point
    only while its corners bracket the point's ordinate along the motion
    axis.  A band triangle's corners lie on its corner rows, so each row
    triple of the band (``corner_nodes``) is judged once, and ``tri_rows``
    gives the verdict to its triangles; a zipper triangle shears, and is
    judged by its own corners.  Each bracket is widened by 1e-6 of its
    span, far more than the hit test's 1e-10 and the 1e-9 of a row to which
    rows are lines.  Without a band (``state`` None) every triangle is
    static.
    """

    def __init__(self, mesh: Mesh, state, points):
        self.mesh, self.state = mesh, state
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        static = np.arange(mesh.n_triangles)
        if state is not None:
            static = np.flatnonzero(state.tri_code == motion.ROLE_CODE["static"])
            self._zipper = np.flatnonzero(state.tri_code == motion.ROLE_CODE["update"])
        self._static = static[_barycentric(mesh, static, self.points)[0].any(axis=0)]

    def candidates(self, active) -> np.ndarray:
        """Indices, ascending, of the ``active`` triangles that may hold a point."""
        st = self.state
        if st is None:
            return self._static[active[self._static]]
        # the spans of the zipper triangles, then of the row triples
        nz = len(self._zipper)
        lo, hi = motion.axis_span(self.mesh, st, np.concatenate(
            [self.mesh.triangles[self._zipper], st.corner_nodes]))
        pad = 1e-6 * (hi - lo)
        s = self.points[:, st.axis, None]
        near = ((lo - pad <= s) & (s <= hi + pad)).any(axis=0)
        # the last entry serves the triangles outside the band
        mask = np.append(near[nz:], False)[st.tri_rows]
        mask[self._zipper] = near[:nz]
        mask[self._static] = True
        return np.flatnonzero(mask & active)


def sample_sensors(sensors: SensorLocator, active, T: np.ndarray) -> np.ndarray:
    """Interpolate T at the sensor points over the ``active`` triangles.

    Only the candidates of :meth:`SensorLocator.candidates` are tested, in
    ascending index, by the barycentric test that a scan of every active
    triangle would make, so the result is the scan's to the bit.  A point
    on a shared edge or vertex goes to the lowest triangle index; its
    barycentric weights are clipped to [0, 1] and renormalised.  Points
    outside the active domain (inside the source hole, or in the
    deactivated part of the band) yield NaN, a data gap, not an error.
    """
    q = sensors.points
    if not len(q):
        return np.empty(0)
    idx = sensors.candidates(active)
    hit, l0, l1, l2 = _barycentric(sensors.mesh, idx, q)
    tri = sensors.mesh.triangles[idx]
    out = np.full(len(q), np.nan)
    k = np.flatnonzero(hit.any(axis=1))
    if not k.size:
        return out
    j = np.argmax(hit[k], axis=1)
    lam = np.clip(np.stack([l0[k, j], l1[k, j], l2[k, j]], axis=1), 0.0, 1.0)
    # a stack of 1x3 by 3x1 products gives each point's np.dot of its two
    # 3-vectors to the bit; a product summed along the rows rounds otherwise
    out[k] = (T[tri[j]][:, None, :] @ (lam / lam.sum(axis=1, keepdims=True))[:, :, None])[:, 0, 0]
    return out


def output_path(out_dir, name, key) -> str:
    """Path of ``name`` in ``out_dir``, made if missing.  The file is opened
    for appending once, so an output that cannot be written is a
    ConfigError naming ``key`` before any slab, and an existing file keeps
    its content until the caller writes it."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _write_error(key, exc, path) from exc
    return path


def _write_error(key, exc: OSError, path) -> ConfigError:
    return ConfigError(f"{key}: cannot write {exc.filename or path}: {exc.strerror or exc}")


def _write_row(f, values) -> None:
    """A CSV row, a NaN (sensor gap) left empty; flushed, so an abort keeps it."""
    f.write(",".join("" if math.isnan(v) else f"{v:.17g}" for v in values) + "\n")
    f.flush()


class _Outputs(contextlib.ExitStack):
    """A run's CSV files, VTK snapshots, abort dump and sensor arrays.  Both
    CSV paths are checked before either file is truncated."""

    def __init__(self, cfg: RunConfig, mesh: Mesh, state):
        super().__init__()
        self._cfg, self._mesh = cfg, mesh
        self._locator = SensorLocator(mesh, state, cfg.sensors) if cfg.sensors else None
        # a csv path with a directory part is at fault if that directory is missing
        run_path = output_path(cfg.out_dir, cfg.csv_name, "[output] csv"
                               if os.path.dirname(cfg.csv_name) else "[output] directory")
        sensor_path = (output_path(cfg.out_dir, "sensors.csv", "[output] directory")
                       if cfg.sensors else None)
        self._run = self.enter_context(open(run_path, "w", encoding="utf-8"))
        self._run.write("time,velocity,displacement,flux_avg,flux_min,flux_max,slip_count\n")
        self._sensors = None
        if cfg.sensors:
            self._sensors = self.enter_context(open(sensor_path, "w", encoding="utf-8"))
            self._sensors.write(
                "time," + ",".join(f"sensor_{k}" for k in range(len(cfg.sensors))) + "\n")
        self._times, self._rows = [], []

    def step(self, step: int, row: list, T: np.ndarray, active: np.ndarray) -> None:
        """Write step ``step``: its ``run.csv`` row, sensors and snapshot."""
        cfg, mesh = self._cfg, self._mesh
        _write_row(self._run, row)
        if cfg.sensors:
            t = row[0] + cfg.dt
            values = sample_sensors(self._locator, active, T)
            self._rows.append(values)
            self._times.append(t)
            _write_row(self._sensors, [t, *values])
        if cfg.vtk_every and (step + 1) % cfg.vtk_every == 0:
            write_vtk(os.path.join(cfg.out_dir, f"state_{step + 1:06d}.vtk"),
                      mesh.nodes, mesh.triangles, T, active)

    def abort(self, step: int, T: np.ndarray, state, displacement: float) -> None:
        """Dump ``T`` on the band placed where the last completed step left it."""
        log.error("run aborted at step %d; writing state dump", step)
        mesh = self._mesh
        active = np.ones(mesh.n_triangles, dtype=bool)
        if state is not None:
            motion.place(mesh, state, displacement)
            active = motion.active_elements(mesh, state)
        with contextlib.suppress(OSError):      # best effort
            write_vtk(os.path.join(self._cfg.out_dir, "abort_state.vtk"), mesh.nodes,
                      mesh.triangles, T, active)

    def sensor_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sensor times and values (steps, sensors) for the report."""
        return (np.array(self._times),
                np.array(self._rows) if self._rows else np.empty((0, 0)))


# ---------------------------------------------------------------------------
# main loop


def slab_plan(mesh: Mesh, state) -> SlabPlan:
    """The run's slab plan: every triangle in its active shape; the zipper
    triangles are the ones that shear and the strip and virtual triangles
    the ones that move with the band (none of either without a band,
    ``state`` None)."""
    if state is None:
        none = np.zeros(mesh.n_triangles, dtype=bool)
        return SlabPlan(mesh.n_nodes, mesh.triangles, mesh.nodes[mesh.triangles], none, none)
    return SlabPlan(mesh.n_nodes, mesh.triangles, motion.element_shapes(mesh, state),
                    state.tri_code == motion.ROLE_CODE["update"],
                    motion.band_triangles(state.tri_code))


def slab_step(mesh: Mesh, state, T: np.ndarray, distance: float, *, plan: SlabPlan,
              dt: float, alpha: float, dirichlet_nodes, dirichlet_values,
              background: np.ndarray):
    """One time step of the sliding-band method: move the band, solve a slab.

    Shifts the band by ``distance`` (``state`` is None for a mesh without
    one: nothing moves, and every triangle is active).  The slab is
    assembled from ``plan`` (see :func:`slab_plan`) on the triangles active
    in the new position, less those touching a node that wrapped round the
    ring.  Wrapped nodes are reseeded from the nodal field ``background``
    in a copy of ``T`` before the solve; nodes of no active triangle take
    ``background`` after it, the value at which a row entering the window
    joins the slab.  The operator keeps the plan's structure when this
    slab's has the same mask, zipper connectivity and Dirichlet nodes.
    Returns ``(operator, solution, T_new, window)``, ``window`` the mask of
    the triangles in the band's new window (all of them without a band).
    """
    coords_old, conn = mesh.nodes, mesh.triangles
    window = act = np.ones(mesh.n_triangles, dtype=bool)
    if state is not None:
        coords_old = mesh.nodes.copy()
        wrapped = motion.advance(mesh, state, distance).wrapped_nodes
        window = act = motion.active_elements(mesh, state)
        if wrapped.size:
            T = T.copy()
            T[wrapped] = background[wrapped]
            act = window & ~np.isin(mesh.triangles, wrapped).any(axis=1)
        conn = mesh.triangles[act]
    prob = SlabProblem(coords_old, mesh.nodes, conn, dt=dt, alpha=alpha, t_prev=T,
                       dirichlet_nodes=dirichlet_nodes, dirichlet_values=dirichlet_values,
                       plan=plan, active=act)
    op = SlabOperator(prob)
    sol = op.solve()
    return op, sol, np.where(op.node_active, sol.t_top, background), window


def _equilibrium_velocity(cfg: RunConfig) -> float:
    p = cfg.ccm_params
    if cfg.mode == "temperature":
        return vel.u_eq_temperature(p, cfg.T_w)
    return vel.u_eq_power(p, cfg.q_h)


def _set_up(cfg: RunConfig):
    """``(mesh, state, plan, U_eq, warnings, tip_edges, dirichlet_nodes,
    farfield_nodes)`` of a run; ``state`` is None for a mesh without a band."""
    key = _closure_key(cfg)
    try:
        # the largest U of a step: at q_s = 0 (clamped), U_eq without preheating
        U_eq = U_max = _equilibrium_velocity(cfg)
        if cfg.coupling == "transient":
            U_max = _equilibrium_velocity(replace(cfg, T_s=cfg.T_m))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: the melt closure fails in floating point: "
                          f"{exc.args[-1]}") from exc
    except NumericalError as exc:
        raise ConfigError(f"{key}: the melt closure fails: {exc}") from exc
    if not all(math.isfinite(U) and U > 0.0 for U in (U_eq, U_max)):
        raise ConfigError(f"{key}: the melt velocity is not a positive finite number")
    log.info("equilibrium velocity U_eq = %.6e m/s", U_eq)
    try:
        mesh = load_mesh(cfg.mesh_path)
    except (OSError, UnicodeDecodeError, MeshFormatError) as exc:
        raise ConfigError(f"[mesh] path: cannot load {cfg.mesh_path}: {exc}") from exc
    state = None
    if mesh.strip is not None:
        if cfg.direction is None:
            raise ConfigError("[mesh] direction: required for a mesh with a sliding band")
        try:
            state = motion.init_motion(mesh, cfg.direction)
        except ValueError as exc:
            raise ConfigError(f"[mesh] direction: cannot move the band of {cfg.mesh_path} "
                              f"along {cfg.direction}: {exc}") from exc
    plan = slab_plan(mesh, state)

    warnings: list[str] = []
    if state is not None and U_max * cfg.dt >= state.circumference / 2:
        if cfg.alpha_s / U_max < np.spacing(state.circumference):
            # no step is short enough to resolve a diffusion length below
            # the rounding of the ring's coordinates: the closure is at fault
            raise ConfigError(f"{key}: the melt closure gives U up to "
                              f"{U_max:.6g} m/s, at which the solid's diffusion length "
                              f"alpha/U = {cfg.alpha_s / U_max:.6g} m is below the rounding "
                              f"of the band's ring ({np.spacing(state.circumference):.6g} m)")
        raise ConfigError(f"[time] dt: U*dt can reach {U_max * cfg.dt:.6g} m per step; half "
                          f"the band's ring circumference is {state.circumference / 2:.6g} m; "
                          f"use dt < {state.circumference / (2 * U_max):.6g} s")
    if state is not None and U_max * cfg.dt > state.h_row:
        msg = (f"U*dt can reach {U_max * cfg.dt:.6g} m per step, more than the band's row "
               f"height ({state.h_row:.6g} m): a step can slip more than one row")
        log.warning(msg)
        warnings.append(msg)

    for name in ("tip_tags", "side_tags", "farfield_tags"):
        missing = tuple(t for t in getattr(cfg, name) or () if t not in mesh.boundary_tags)
        if missing:
            raise ConfigError(f"{_KEY_OF[name]}: no boundary edges tagged {missing!r}")
    tip_edges = mesh.tagged_edges(cfg.tip_tags)
    if tip_edges.shape[0] == 0:
        raise ConfigError(f"[source] tip_tags: no boundary edges tagged {cfg.tip_tags!r}")
    source_tags = set(cfg.tip_tags) | set(cfg.side_tags)
    dir_nodes = np.unique(mesh.tagged_edges(tuple(source_tags)))
    far_tags = cfg.farfield_tags
    if far_tags is None:
        far_tags = set(mesh.boundary_tags) - source_tags
    far_nodes = np.unique(mesh.tagged_edges(far_tags))
    return mesh, state, plan, U_eq, warnings, tip_edges, dir_nodes, far_nodes


def _closure(cfg: RunConfig, U: float, op: SlabOperator, sol, tip_edges):
    """``(U_next, q_s, q_min, q_max, clamped, stalled)`` of the melt closure
    on the slab's tip flux into the solid; an equilibrium run keeps its U."""
    if cfg.coupling == "equilibrium":
        return U, 0.0, 0.0, 0.0, False, False
    fr = recover_flux(op, sol, tip_edges, cfg.rho_s * cfg.cp_s)
    q_raw = -fr.q_s_avg       # positive when heat enters the solid
    into_solid = -fr.nodal_flux
    q_s = max(q_raw, 0.0)
    stalled = False
    if cfg.mode == "temperature":
        U_next = vel.u_transient_temperature(cfg.ccm_params, cfg.T_w, q_s)
    else:
        U_next, stalled = vel.u_transient_power(cfg.ccm_params, cfg.q_h, q_s)
    return (U_next, q_s, float(into_solid.min()), float(into_solid.max()), q_raw < 0.0,
            stalled)


def run(config: RunConfig) -> RunReport:
    """Execute the configured run and return the full report."""
    cfg = config
    mesh, state, plan, U_eq, warnings, tip_edges, dir_nodes, far_nodes = _set_up(cfg)
    tip_nodes = np.unique(tip_edges)
    dir_vals = np.full(len(dir_nodes), cfg.T_m)

    virgin = np.full(len(mesh.nodes), cfg.T_s)   # recycled rows are virgin solid
    T = virgin.copy()
    U = U_eq if cfg.coupling == "equilibrium" else 0.0
    displacement = 0.0
    records: list[StepRecord] = []
    far_warned = False

    with _Outputs(cfg, mesh, state) as out:
        step = -1
        try:
            for step in range(cfg.n_steps):
                t_n = step * cfg.dt
                op, sol, T, act = slab_step(
                    mesh, state, T, U * cfg.dt, plan=plan, dt=cfg.dt, alpha=cfg.alpha_s,
                    dirichlet_nodes=dir_nodes, dirichlet_values=dir_vals,
                    background=virgin)
                displacement += U * cfg.dt        # the band's, to the bit
                slips_total = 0 if state is None else state.n_slips
                if not op.node_active[tip_nodes].all():
                    # the band has carried the tip out of the window, or into
                    # rows that wrapped this step
                    raise NumericalError(
                        f"step {step}: the source tip left the active slab at displacement "
                        f"{displacement:.6g} m ({slips_total} slips, {U * cfg.dt:.6g} m this "
                        f"step)")
                U_next, q_s, q_min, q_max, clamped, stalled = _closure(cfg, U, op, sol, tip_edges)

                if not far_warned and np.any(np.abs(T[far_nodes] - cfg.T_s) > 0.1):
                    msg = (f"step {step}: far-field boundary temperature strayed more "
                           f"than 0.1 K from T_s = {cfg.T_s} K")
                    log.warning(msg)
                    warnings.append(msg)
                    far_warned = True

                records.append(StepRecord(t=t_n, U=U, displacement=displacement,
                                          q_s_avg=q_s, slip_count=slips_total,
                                          clamped=clamped, stalled=stalled))
                try:
                    out.step(step, [t_n, U, displacement, q_s, q_min, q_max, slips_total], T, act)
                except OSError as exc:
                    raise _write_error("[output] directory", exc, cfg.out_dir) from exc
                U = U_next
                # let this step's slab go before the next one is assembled
                op = sol = None
        except Exception:
            out.abort(step, T, state, displacement)
            raise

    tail = max(1, cfg.n_steps // 10)
    mean_u = float(np.mean([r.U for r in records[-tail:]]))
    summary = RunSummary(final_displacement=displacement,
                         mean_velocity_last_10pct=mean_u)
    sensor_times, sensor_values = out.sensor_arrays()
    log.info("run complete: displacement %.6f m, mean U (last 10%%) %.6e m/s",
             displacement, mean_u)
    return RunReport(records=records, sensor_times=sensor_times, sensor_values=sensor_values,
                     summary=summary, warnings=warnings)
