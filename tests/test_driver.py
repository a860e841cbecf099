import copy
import dataclasses
import logging
import os
import re
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccmsim import driver, meshgen, motion, stfem, velocity, verify
from ccmsim.cbf import FluxResult, recover_flux
from ccmsim.driver import RunConfig, load_config, run
from ccmsim.errors import ConfigError, NumericalError
from ccmsim.mesh import load_mesh, save_mesh

from conftest import FIXTURE_DIR
from oracles import write_vtk_by_line

# toy materials chosen so the equilibrium velocity has a hand-checkable
# closed form: h_m_star = 1 + 1 * 0.5 = 1.5 and
# U_eq = (0.5^3 * 1 / (8e-3 * 1.5^3))^(1/4) = (125/27)^(1/4)
U_EQ_TOY = (125.0 / 27.0) ** 0.25

BASE = {
    "material.solid": {"rho": 1.0, "cp": 1.0, "kappa": 1e-3, "T_s": 0.0},
    "material.liquid": {"rho": 1.0, "cp": 1.0, "kappa": 1.0, "mu": 1e-3},
    "melting": {"h_m": 1.0, "T_m": 0.5},
    "source": {"mode": "temperature", "coupling": "equilibrium", "T_w": 1.0,
               "F_ex": 1.0, "R": 1.0, "tip_tags": "left"},
    "time": {"dt": 0.02, "n_steps": 10},
    "mesh": {"path": "band.mesh", "direction": "0,-1", "farfield_tags": "right"},
    "output": {"directory": "out"},
}


def render_ini(sections):
    lines = []
    for name, kv in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    return "\n".join(lines)


def write_config(tmp_path, mutate=None, name="case.ini"):
    """Write the toy band config (and its mesh) into tmp_path."""
    mesh_file = tmp_path / "band.mesh"
    if not mesh_file.exists():
        save_mesh(meshgen.make_strip_square(8, n_virt=2), mesh_file)
    sections = copy.deepcopy(BASE)
    sections["output"]["directory"] = str(tmp_path / "out")
    if mutate is not None:
        mutate(sections)
    path = tmp_path / name
    path.write_text(render_ini(sections))
    return path


def test_load_config_golden_path_and_defaults(tmp_path):
    def fill(s):
        s["output"]["sensors"] = "0.85,0.4; 1.5,0.5"
        del s["source"]["F_ex"]
        s["source"]["mass"] = 0.5
        s["source"]["gravity"] = 2.0

    cfg = load_config(write_config(tmp_path, fill))
    assert isinstance(cfg, RunConfig)
    assert (cfg.mode, cfg.coupling) == ("temperature", "equilibrium")
    assert cfg.T_w == 1.0 and cfg.q_h is None
    assert cfg.F_ex == 1.0                      # mass * gravity
    assert cfg.sensors == ((0.85, 0.4), (1.5, 0.5))
    assert os.path.isabs(cfg.mesh_path)
    assert cfg.mesh_path == str(tmp_path / "band.mesh")
    # resolved defaults
    assert cfg.vtk_every == 10
    assert cfg.csv_name == "run.csv"
    assert cfg.side_tags == ()
    assert cfg.tip_area is None


def test_mesh_path_resolved_against_config_dir(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    cfg = load_config(str(path))
    assert cfg.mesh_path == str(tmp_path / "band.mesh")


def _del(section, key):
    def mutate(s):
        del s[section][key]
    return mutate


def _set(section, key, value):
    def mutate(s):
        s.setdefault(section, {})[key] = value
    return mutate


CONFIG_ERRORS = [
    ("unknown-section", _set("banana", "x", 1), "unknown section"),
    ("unknown-key", _set("time", "warp", 9), "unknown key"),
    ("missing-section", lambda s: s.pop("melting"), "required section missing"),
    ("bad-mode", _set("source", "mode", "entropy"), "mode"),
    ("bad-coupling", _set("source", "coupling", "loose"), "coupling"),
    ("both-sources", _set("source", "q_h", 100.0), "exactly one"),
    ("temp-mode-no-Tw", _del("source", "T_w"), "T_w"),
    ("power-mode-no-qh",
     lambda s: s["source"].update(mode="power") or s["source"].pop("T_w"),
     "q_h"),
    ("force-twice", _set("source", "mass", 2.0), "not both"),
    ("half-a-force",
     lambda s: s["source"].pop("F_ex") or s["source"].update(mass=2.0),
     "both mass and gravity"),
    ("no-tip", _del("source", "tip_tags"), "tip_tags"),
    ("zero-dt", _set("time", "dt", 0.0), "dt"),
    ("fractional-steps", _set("time", "n_steps", 2.5), "not an integer"),
    ("no-mesh-path", _del("mesh", "path"), "path"),
    ("short-direction", _set("mesh", "direction", "0"), "two components"),
    ("removed-numerics-section", _set("numerics", "solver_tol", 1e-8),
     r"\[numerics\]: unknown section"),
    ("removed-h-row", _set("mesh", "h_row", 0.125), r"\[mesh\] h_row: unknown key"),
    ("default-section", _set("DEFAULT", "dt", 1), r"^\[DEFAULT\]: unknown section$"),
    ("negative-vtk-every", _set("output", "vtk_every", -1), "vtk_every"),
    ("no-out-dir", _del("output", "directory"), "directory"),
    ("bad-sensors", _set("output", "sensors", "1,2,3"), "sensors"),
    ("non-numeric", _set("material.solid", "rho", "thick"), "not a number"),
    ("unphysical-viscosity", _set("material.liquid", "mu", -1.0), "mu_l"),
    ("melting-below-solid", _set("melting", "T_m", -1.0), r"\[melting\] T_m: "),
    ("zero-latent-heat", _set("melting", "h_m", 0.0), r"\[melting\] h_m: "),
    ("zero-tip-area", _set("source", "tip_area", 0.0), "tip_area"),
    ("nan-kappa", _set("material.solid", "kappa", "nan"), r"\[material.solid\] kappa: not finite"),
    ("infinite-dt", _set("time", "dt", "inf"), r"\[time\] dt: not finite"),
    ("negative-kappa", _set("material.solid", "kappa", -2.0),
     r"\[material.solid\] kappa: must be positive"),
    ("source-below-melting", _set("source", "T_w", 0.5), r"\[source\] T_w"),
    ("negative-power",
     lambda s: s["source"].update(mode="power", q_h=-5.0) or s["source"].pop("T_w"),
     r"\[source\] q_h"),
    ("csv-is-the-sensor-trace", _set("output", "csv", "./sensors.csv"), r"\[output\] csv: "),
    ("nan-sensor", _set("output", "sensors", "nan,1.07"), r"\[output\] sensors: not finite"),
    ("infinite-sensor", _set("output", "sensors", "0.85,0.4; inf,inf"),
     r"\[output\] sensors: not finite"),
]


@pytest.mark.parametrize("mutate,match",
                         [(m, match) for _, m, match in CONFIG_ERRORS],
                         ids=[c[0] for c in CONFIG_ERRORS])
def test_config_errors_name_the_offending_key(tmp_path, mutate, match):
    path = write_config(tmp_path, mutate)
    with pytest.raises(ConfigError, match=match):
        load_config(path)


def test_the_key_table_declares_every_run_config_field():
    assert ([name for _, _, name, *_ in driver._KEYS if name not in ("mass", "gravity")]
            == [f.name for f in dataclasses.fields(RunConfig)])


def test_mass_and_gravity_are_read_right_after_f_ex(tmp_path):
    # a bad mass is named before a bad R, the field after F_ex
    def mutate(s):
        s["source"].update(mass="heavy", R="wide")
    with pytest.raises(ConfigError, match=re.escape("[source] mass: not a number")):
        load_config(write_config(tmp_path, mutate))


@pytest.mark.parametrize("section, key", [(section, key) for section, key, *_, default
                                          in driver._KEYS if default is driver._REQUIRED])
@pytest.mark.parametrize("value", [None, ""], ids=["dropped", "empty"])
def test_each_required_key_is_named_when_missing(tmp_path, section, key, value):
    mutate = _del(section, key) if value is None else _set(section, key, value)
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}: required key missing")):
        load_config(write_config(tmp_path, mutate))


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


@pytest.fixture(scope="module")
def toy_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toy")
    cfg = load_config(write_config(
        tmp, _set("output", "sensors", "0.85,0.43; 1.5,0.5")))
    cfg.vtk_every = 5
    return cfg, run(cfg)


def test_toy_run_records(toy_report):
    cfg, report = toy_report
    assert len(report.records) == 10
    for i, rec in enumerate(report.records):
        assert rec.t == pytest.approx(i * 0.02, abs=1e-15)
        # equilibrium coupling: the closed-form velocity from step one on
        assert rec.U == pytest.approx(U_EQ_TOY, rel=1e-12)
        assert rec.q_s_avg == 0.0
        assert not rec.stalled and not rec.clamped
    assert report.summary.mean_velocity_last_10pct == pytest.approx(U_EQ_TOY, rel=1e-12)
    assert report.summary.final_displacement == pytest.approx(10 * 0.02 * U_EQ_TOY, rel=1e-12)
    # 0.293 m of travel over 0.125 m rows: two recycling events
    assert report.records[-1].slip_count == 2
    assert report.warnings == []


def test_toy_run_csv_layout(toy_report):
    cfg, report = toy_report
    lines = (open(os.path.join(cfg.out_dir, cfg.csv_name))
             .read().strip().splitlines())
    assert lines[0] == "time,velocity,displacement,flux_avg,flux_min,flux_max,slip_count"
    assert len(lines) == 11
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert float(cells[1]) == pytest.approx(U_EQ_TOY, rel=1e-12)
        assert cells[3] == cells[4] == cells[5] == "0"      # no flux recovery
    assert lines[-1].split(",")[6] == "2"


def test_toy_run_sensor_csv(toy_report):
    cfg, report = toy_report
    lines = (open(os.path.join(cfg.out_dir, "sensors.csv"))
             .read().strip().splitlines())
    assert lines[0] == "time,sensor_0,sensor_1"
    assert len(lines) == 11
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[0]) == pytest.approx((k + 1) * 0.02, abs=1e-15)
        assert cells[1] != ""        # inside the domain: a number
        assert cells[2] == ""        # outside the domain: a gap
    assert np.all(np.isnan(report.sensor_values[:, 1]))
    assert np.all(np.isfinite(report.sensor_values[:, 0]))


def test_toy_run_vtk_snapshots(toy_report):
    cfg, report = toy_report
    names = sorted(f for f in os.listdir(cfg.out_dir) if f.endswith(".vtk"))
    assert names == ["state_000005.vtk", "state_000010.vtk"]
    lines = open(os.path.join(cfg.out_dir, names[-1])).read().splitlines()
    assert lines[0].startswith("# vtk DataFile")

    def section(tag):
        (i,) = [k for k, ln in enumerate(lines) if ln.startswith(tag)]
        return i

    n = int(lines[section("POINTS")].split()[1])
    m = int(lines[section("CELLS")].split()[1])
    pts = np.array([ln.split() for ln in
                    lines[section("POINTS") + 1:section("POINTS") + 1 + n]],
                   dtype=float)
    assert pts.shape == (n, 3)
    assert np.all(pts[:, 2] == 0.0)
    cells = lines[section("CELLS") + 1:section("CELLS") + 1 + m]
    assert all(c.split()[0] == "3" for c in cells)
    types = lines[section("CELL_TYPES") + 1:section("CELL_TYPES") + 1 + m]
    assert set(types) == {"5"}
    i_T = section("SCALARS temperature")
    temps = np.array(lines[i_T + 2:i_T + 2 + n], dtype=float)
    assert temps.shape == (n,)
    assert np.nanmax(temps) <= 0.5 + 1e-9       # clamped at T_m
    i_a = section("SCALARS active")
    active = np.array(lines[i_a + 2:i_a + 2 + m], dtype=int)
    assert set(np.unique(active)) <= {0, 1}
    assert 0 < active.sum() < m                  # virtual rows stay inactive


def test_vtk_writer_matches_the_line_writer(tmp_path):
    # a slid band (inactive virtual and wrapped cells), a NaN, a negative
    # zero and values that need all 17 digits
    mesh = meshgen.make_strip_square(8)
    state = motion.init_motion(mesh, (0.0, -1.0))
    motion.advance(mesh, state, 0.37 / 8)
    active = motion.active_elements(mesh, state)
    T = np.random.default_rng(7).normal(size=mesh.n_nodes) * 1e3
    T[[3, 5]] = np.nan, -0.0
    assert 0 < active.sum() < mesh.n_triangles
    driver.write_vtk(tmp_path / "blocks.vtk", mesh.nodes, mesh.triangles, T, active)
    write_vtk_by_line(tmp_path / "lines.vtk", mesh.nodes, mesh.triangles, T, active)
    assert (tmp_path / "blocks.vtk").read_bytes() == (tmp_path / "lines.vtk").read_bytes()


def test_toy_run_deterministic(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        cfg = load_config(write_config(d))
        run(cfg)
        outputs.append(open(os.path.join(cfg.out_dir, "run.csv"), "rb").read())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("coupling", ["equilibrium", "transient"])
def test_each_step_builds_one_slab_and_one_mask(tmp_path, monkeypatch, coupling):
    # set-up evaluates the closed-form U_eq (twice for a transient run: with
    # and without solid preheating) before it loads the mesh, then builds the
    # run's one slab plan and no mask; each step computes one mask after the
    # band moves (even a zero move from rest) and builds one slab on it;
    # sensors and snapshots reuse that mask, and an equilibrium run keeps its U
    events = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(driver, "SlabProblem", counted("slab", driver.SlabProblem))
    monkeypatch.setattr(stfem.SlabPlan, "__init__", counted("plan", stfem.SlabPlan.__init__))
    monkeypatch.setattr(motion, "active_elements",
                        counted("mask", motion.active_elements))
    cfg = load_config(write_config(tmp_path, _set("source", "coupling", coupling)))
    monkeypatch.setattr(velocity, "u_eq_temperature",
                        counted("U_eq", velocity.u_eq_temperature))
    cfg.n_steps = 4
    cfg.vtk_every = 2
    cfg.sensors = ((0.85, 0.43),)
    run(cfg)
    n_eq = 1 if coupling == "equilibrium" else 2
    assert events == ["U_eq"] * n_eq + ["plan"] + ["mask", "slab"] * 4


@pytest.mark.parametrize("loop", ["run", "cooling", "sliding band"])
def test_every_slab_is_built_by_the_step_core(tmp_path, monkeypatch, loop):
    # the run loop and both verification cases share driver.slab_step: no
    # loop builds a slab of its own
    built, stepped = [], []
    init, step = stfem.SlabOperator.__init__, driver.slab_step

    def counted_init(self, problem):
        built.append(problem)
        init(self, problem)

    def counted_step(*args, **kwargs):
        stepped.append(args)
        return step(*args, **kwargs)

    monkeypatch.setattr(stfem.SlabOperator, "__init__", counted_init)
    monkeypatch.setattr(driver, "slab_step", counted_step)
    if loop == "run":
        cfg = load_config(write_config(tmp_path))
        cfg.n_steps = 3
        run(cfg)
    elif loop == "cooling":
        verify.run_cbf_case(h=0.25, dt=0.05, n_steps=3)
    else:
        verify.run_meshupdate_case(0.25, n_steps=3)
    assert len(built) == len(stepped) == 3


@settings(max_examples=20, deadline=None)
@given(n_virt=st.sampled_from([2, 3]),
       rows=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8))
@example(n_virt=2, rows=[0.5, 0.6, 0.6])
@example(n_virt=3, rows=[1.0, 0.6, 0.6])
def test_slab_step_returns_the_solved_nodes_and_the_window(n_virt, rows):
    # per step: the solution on the nodes of the slab's active triangles,
    # ``background`` elsewhere (on the wrapped nodes too), and the mask of
    # the band's new window
    mesh = meshgen.make_strip_square(8, n_virt=n_virt)
    state = motion.init_motion(mesh, (0.0, -1.0))
    plan = driver.slab_plan(mesh, state)
    rng = np.random.default_rng(14)
    background = rng.uniform(-1.0, 2.0, mesh.n_nodes)
    T = rng.uniform(-1.0, 2.0, mesh.n_nodes)
    flanks = np.unique(mesh.tagged_edges(("left", "right")))
    moved, advance = [], motion.advance

    def recorded(*args):
        moved.append(advance(*args))
        return moved[-1]

    motion.advance = recorded
    try:
        for r in rows:
            op, sol, T, window = driver.slab_step(
                mesh, state, T, r * state.h_row, plan=plan, dt=0.37, alpha=1.7,
                dirichlet_nodes=flanks, dirichlet_values=background[flanks],
                background=background)
            npt.assert_array_equal(T, np.where(op.node_active, sol.t_top, background))
            wrapped = moved[-1].wrapped_nodes
            npt.assert_array_equal(T[wrapped], background[wrapped])
            npt.assert_array_equal(window, motion.active_elements(mesh, state))
    finally:
        motion.advance = advance


def seam_band(mesh, state):
    """Band triangles torn across the ring seam in the current position."""
    c = mesh.nodes[mesh.triangles, state.axis]
    return motion.band_triangles(state.tri_code) & (np.ptp(c, axis=1) > state.circumference / 2)


def slab_matrix(op):
    """The exact slab operator of ``op`` as a 2n x 2n matrix: the rigid
    ``P (x) M' + D (x) N'`` plus the zipper blocks."""
    a = sp.kron(stfem._P, op._mn.real) + sp.kron(stfem._D, op._mn.imag)
    return a if op._zipper is None else a + op._zipper


def assert_same_slab(op, ref):
    """The plan-built slab ``op`` equals the one-off assembly ``ref`` to 1e-13:
    its exact operator and the matrix its LU would factor.  (The two may
    class an element differently: the one-off plan has no band, so a band
    triangle that moves is shearing to it, and a zipper triangle that does
    not move is rigid to it.)"""
    a, b = slab_matrix(op), slab_matrix(ref)
    assert abs(a - b).max() <= 1e-13 * abs(b).max()
    a, b = (o._lhs(*stfem._zipper_fit(o._zke)) for o in (op, ref))
    assert abs(a - b).max() <= 1e-13 * abs(b).max()
    for a, b in ((op._rhs_raw, ref._rhs_raw), (op._rhs, ref._rhs)):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("case", ["strip_square", "ramp"])
def test_run_plan_matches_the_one_off_assembly(tmp_path, monkeypatch, case):
    # every slab of a run with slips, wrapped rows and active elements of the
    # band that were torn across the ring seam when the run's plan was built:
    # assembled from that plan, it equals the slab assembled from its own
    # geometry (the one-off plan of a bare SlabProblem)
    if case == "ramp":
        cfg = dataclasses.replace(load_config(os.path.join(FIXTURE_DIR, "power_3kw.ini")),
                                  n_steps=30, vtk_every=0, out_dir=str(tmp_path / "out"))
    else:
        cfg = load_config(write_config(tmp_path))
        cfg.n_steps = 20
    seen = {"slabs": 0, "wrapped": 0, "seam": 0}
    seams = []

    def init_motion(mesh, direction):
        state = motion_init(mesh, direction)
        seams.append(seam_band(mesh, state))
        return state

    def advance(mesh, state, distance):
        result = motion_advance(mesh, state, distance)
        seen["wrapped"] += result.wrapped_nodes.size
        return result

    def checked(problem):
        op = stfem.SlabOperator(problem)
        assert_same_slab(op, stfem.SlabOperator(
            dataclasses.replace(problem, plan=None, active=None)))
        seen["slabs"] += 1
        seen["seam"] += int(problem.active[seams[0]].sum())
        return op

    motion_init, motion_advance = motion.init_motion, motion.advance
    monkeypatch.setattr(motion, "init_motion", init_motion)
    monkeypatch.setattr(motion, "advance", advance)
    monkeypatch.setattr(driver, "SlabOperator", checked)
    report = run(cfg)
    assert seen["slabs"] == cfg.n_steps
    assert report.records[-1].slip_count >= 3
    assert seen["wrapped"] > 0 and seen["seam"] > 0


class Factor:
    """A SuperLU factor that a weak reference can follow."""

    def __init__(self, lu):
        self.solve = lu.solve


def test_old_factor_is_freed_before_a_new_one_is_made(tmp_path, monkeypatch):
    # the run's plan holds one factor; when a slip changes the slab's
    # structure, the old factor goes before the new one takes its memory
    factors = []
    splu = spla.splu

    def checked(a, *args, **kwargs):
        assert all(ref() is None for ref in factors)
        factor = Factor(splu(a, *args, **kwargs))
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(spla, "splu", checked)
    cfg = load_config(write_config(tmp_path))
    cfg.n_steps = 20
    report = run(cfg)
    assert report.records[-1].slip_count >= 3
    assert 3 <= len(factors) < cfg.n_steps


def test_run_on_static_mesh(tmp_path):
    # no sliding band: displacement is integrated but nothing moves
    save_mesh(meshgen.make_unit_square(6), tmp_path / "static.mesh")

    def fix(s):
        s["mesh"] = {"path": "static.mesh", "farfield_tags": "right"}
        s["time"]["n_steps"] = 4

    cfg = load_config(write_config(tmp_path, fix))
    report = run(cfg)
    assert len(report.records) == 4
    assert report.records[-1].slip_count == 0
    assert report.summary.final_displacement == pytest.approx(4 * 0.02 * U_EQ_TOY, rel=1e-12)


def test_band_mesh_requires_direction(tmp_path):
    cfg = load_config(write_config(tmp_path, _del("mesh", "direction")))
    with pytest.raises(ConfigError, match="direction"):
        run(cfg)


@pytest.mark.parametrize("direction, reason", [
    ("1,1", "axis-aligned unit vector"),
    ("1,0", r"the band slides along y \(its rows are lines of constant y\); "
            r"direction \(1\.0, 0\.0\) is along x"),
], ids=["1,1", "1,0"])
def test_direction_that_does_not_fit_the_band_is_a_config_error(tmp_path, direction, reason):
    # 1,1 is not axis-aligned; 1,0 is, but the toy band slides vertically
    path = write_config(tmp_path, _set("mesh", "direction", direction))
    cfg = load_config(path)
    with pytest.raises(ConfigError, match=r"\[mesh\] direction: .*band\.mesh.*" + reason):
        run(cfg)


def test_unknown_tip_tag_fails_at_run(tmp_path):
    cfg = load_config(write_config(tmp_path, _set("source", "tip_tags", "snout")))
    with pytest.raises(ConfigError, match="tip_tags"):
        run(cfg)


def test_bundled_configs_parse(fixture_dir):
    seen = set()
    for name in ("probe_temperature", "probe_equilibrium", "power_1kw",
                 "power_3kw", "hotwire"):
        cfg = load_config(os.path.join(FIXTURE_DIR, f"{name}.ini"))
        seen.add((cfg.mode, cfg.coupling))
        assert os.path.isabs(cfg.mesh_path) and os.path.exists(cfg.mesh_path)
        # no bundled run slips more than one row per step (largest: probe, 0.40)
        state = motion.init_motion(load_mesh(cfg.mesh_path), cfg.direction)
        assert driver._equilibrium_velocity(cfg) * cfg.dt <= state.h_row, name
    assert ("temperature", "transient") in seen
    assert ("temperature", "equilibrium") in seen
    assert ("power", "transient") in seen

    one_kw = load_config(os.path.join(FIXTURE_DIR, "power_1kw.ini"))
    assert one_kw.q_h == 1000.0 / 0.0211         # bulk watts over tip area
    assert one_kw.tip_area == 0.0211


def test_dt_beyond_the_ring_limit_fails_before_step_0(fixture_dir, tmp_path):
    cfg = load_config(os.path.join(fixture_dir, "power_1kw.ini"))
    cfg.dt = 5000.0
    cfg.out_dir = str(tmp_path / "out")
    with pytest.raises(ConfigError, match=r"\[time\] dt: .*use dt < "):
        run(cfg)
    assert not (tmp_path / "out").exists()


def test_abort_dump_written_for_any_failure(tmp_path, monkeypatch):
    # an unexpected error (not NumericalError/ConfigError) still leaves the
    # state dump behind and propagates unchanged
    def broken(*args, **kwargs):
        raise RuntimeError("flux recovery broke")

    monkeypatch.setattr(driver, "recover_flux", broken)
    cfg = load_config(write_config(tmp_path, _set("source", "coupling", "transient")))
    with pytest.raises(RuntimeError, match="flux recovery broke"):
        run(cfg)
    assert os.path.exists(os.path.join(cfg.out_dir, "abort_state.vtk"))


@pytest.mark.parametrize("stage, call", [("solve", 3), ("solve", 5), ("closure", 5)])
def test_abort_dump_is_the_last_completed_step(tmp_path, monkeypatch, stage, call):
    # the dump is the last completed step's field on the band where that step
    # left it: byte for byte that step's snapshot in a run that does not fail.
    # A failed solve has moved the band already (slab 5 also wraps nodes); a
    # failure after the slab leaves the step's own position and field
    cfg = load_config(write_config(tmp_path))
    cfg.vtk_every = 1
    reference = tmp_path / "reference"
    run(dataclasses.replace(cfg, out_dir=str(reference)))
    owner, name = (stfem.SlabOperator, "solve") if stage == "solve" else (driver, "_closure")
    original, calls = getattr(owner, name), []

    def failing(*args):
        calls.append(None)
        if len(calls) == call:
            raise NumericalError("forced")
        return original(*args)

    monkeypatch.setattr(owner, name, failing)
    with pytest.raises(NumericalError, match="forced"):
        run(cfg)
    completed = call - 1 if stage == "solve" else call
    dump = os.path.join(cfg.out_dir, "abort_state.vtk")
    assert open(dump).read() == (reference / f"state_{completed:06d}.vtk").read_text()


@pytest.mark.parametrize("name", ["probe_temperature", "power_3kw"])
def test_each_closure_is_evaluated_once_before_step_0(tmp_path, monkeypatch, name):
    # U_eq and the largest U of a step (the closure without preheating,
    # T_s = T_m) are evaluated once each from reading the config to the end
    # of a one-step run: load_config leaves them to the run's set-up
    solid_temperatures = []

    def counted(fn):
        def wrapper(p, *args):
            solid_temperatures.append(p.T_s)
            return fn(p, *args)
        return wrapper

    for fn in ("u_eq_temperature", "u_eq_power"):
        monkeypatch.setattr(velocity, fn, counted(getattr(velocity, fn)))
    cfg = load_config(os.path.join(FIXTURE_DIR, name + ".ini"))
    run(dataclasses.replace(cfg, n_steps=1, vtk_every=0, out_dir=str(tmp_path / "out")))
    assert solid_temperatures == [cfg.T_s, cfg.T_m]


def test_step_longer_than_a_row_warns(tmp_path):
    # dt = 0.1 moves the band U_eq*dt = 0.147 m per step: more than one
    # 0.125 m row, less than half the 1.25 m ring.  A solid that conducts
    # heat to the far field by the end makes the far-field check fire too;
    # the slip warning must not suppress it.
    def fix(s):
        s["time"]["dt"] = 0.1
        s["material.solid"]["kappa"] = 1.0

    report = run(load_config(write_config(tmp_path, fix)))
    assert len(report.warnings) == 2
    assert "slip more than one row" in report.warnings[0]
    assert "far-field" in report.warnings[1]


def test_negative_solid_flux_is_clamped_once_by_the_driver(tmp_path, monkeypatch, caplog):
    # a recovered flux leaving the solid through the tip is clamped to zero
    # before the closure sees it; the closure itself neither clamps nor warns
    def leaving(op, sol, edges, rho_cp):
        fr = recover_flux(op, sol, edges, rho_cp)
        return FluxResult(fr.nodes, np.full_like(fr.nodal_flux, 7.0), 7.0)

    monkeypatch.setattr(driver, "recover_flux", leaving)
    cfg = load_config(write_config(tmp_path, _set("source", "coupling", "transient")))
    cfg.n_steps = 3
    with caplog.at_level(logging.DEBUG):
        report = run(cfg)
    for rec in report.records:
        assert rec.clamped and rec.q_s_avg == 0.0
    assert not [r for r in caplog.records if r.name == "ccmsim.velocity"]


def test_band_slabs_start_from_the_last_slabs_trajectory(fixture_dir, tmp_path, monkeypatch):
    # the warm start changes where a band slab's solve starts, not what it
    # solves: against a run whose slabs all start cold, the velocities and
    # displacements agree to the solver's tolerance and the same slabs are
    # factored, in at least 20% fewer GMRES steps
    cfg = load_config(os.path.join(fixture_dir, "power_3kw.ini"))
    cfg = dataclasses.replace(cfg, n_steps=40, vtk_every=0)
    work = []
    solve = stfem.SlabOperator.solve

    def solved(op):
        sol = solve(op)
        work.append((sol.factored, sol.refinements))
        return sol

    def outputs(name):
        work.clear()
        out = tmp_path / name
        run(dataclasses.replace(cfg, out_dir=str(out)))
        rows = np.loadtxt(out / "run.csv", delimiter=",", skiprows=1)
        return rows[:, 1:3], [f for f, _ in work], sum(k for _, k in work)

    def solved_cold(op):
        op._plan.rate = None
        return solved(op)

    monkeypatch.setattr(stfem.SlabOperator, "solve", solved)
    warm = outputs("warm")
    monkeypatch.setattr(stfem.SlabOperator, "solve", solved_cold)
    cold = outputs("cold")
    npt.assert_allclose(warm[0], cold[0], rtol=1e-9, atol=0.0)
    assert warm[1] == cold[1] and 1 < sum(warm[1]) < cfg.n_steps
    assert warm[2] <= 0.8 * cold[2]
