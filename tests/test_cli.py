import configparser
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ccmsim import meshgen, stfem, verify
from ccmsim.cli import main
from ccmsim.mesh import save_mesh

from conftest import REPO_ROOT

CONFIG = """
[material.solid]
rho = 1.0
cp = 1.0
kappa = 1e-3
T_s = 0.0

[material.liquid]
rho = 1.0
cp = 1.0
kappa = 1.0
mu = 1e-3

[melting]
h_m = 1.0
T_m = 0.5

[source]
mode = temperature
coupling = equilibrium
T_w = 1.0
F_ex = 1.0
R = 1.0
tip_tags = left

[time]
dt = 0.02
n_steps = 3

[mesh]
path = m.mesh
farfield_tags = right

[output]
directory = {out}
"""


def make_config(tmp_path, extra=""):
    save_mesh(meshgen.make_unit_square(5), tmp_path / "m.mesh")
    path = tmp_path / "case.ini"
    path.write_text(CONFIG.format(out=tmp_path / "out") + extra)
    return str(path)


def test_no_command_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_run_command(tmp_path, capsys):
    assert main(["run", "--config", make_config(tmp_path)]) == 0
    assert "run complete" in capsys.readouterr().out
    assert (tmp_path / "out" / "run.csv").exists()


def test_run_output_dir_override(tmp_path):
    other = tmp_path / "other"
    assert main(["run", "--config", make_config(tmp_path),
                 "--out", str(other)]) == 0
    assert (other / "run.csv").exists()
    assert not (tmp_path / "out").exists()


def forbid_slabs(monkeypatch):
    def no_slab(*args, **kwargs):
        raise AssertionError("a slab was built")
    monkeypatch.setattr(stfem.SlabOperator, "__init__", no_slab)


@pytest.mark.parametrize("blocked", ["out-is-a-file", "csv-is-a-directory",
                                     "csv-in-a-missing-directory"])
def test_run_unwritable_output_exits_2_before_the_first_slab(tmp_path, capsys, monkeypatch,
                                                             blocked):
    key = "[output] directory"
    cfg = make_config(tmp_path)
    out = tmp_path / "taken"
    if blocked == "out-is-a-file":
        out.write_text("")
    elif blocked == "csv-is-a-directory":
        (out / "run.csv").mkdir(parents=True)
    else:
        # the csv path names a directory that is not there: the csv key is at fault
        cfg = make_config(tmp_path, "csv = sub/run.csv\n")
        key = "[output] csv"
    forbid_slabs(monkeypatch)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: cannot write ") and str(out) in err


@pytest.mark.parametrize("case", ["cbf", "meshupdate"])
def test_verify_unwritable_output_exits_2_before_the_first_slab(tmp_path, capsys,
                                                                monkeypatch, case):
    out = tmp_path / "taken"
    out.write_text("")
    forbid_slabs(monkeypatch)
    assert main(["verify", case, "--h", "0.25", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out: cannot write {out}: ")


def test_sweep_unwritable_output_exits_2_before_the_first_slab(tmp_path, capsys,
                                                               monkeypatch):
    cfg = make_config(tmp_path)
    out = tmp_path / "taken"
    out.write_text("")
    forbid_slabs(monkeypatch)
    assert main(["sweep", "--config", cfg, "--key", "source.T_w", "--values", "0.9",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [output] directory: cannot write ") and str(out) in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_that_fails_after_the_first_step_exits_2(tmp_path, capsys, command):
    cfg = make_config(tmp_path, "vtk_every = 1\n")
    out = tmp_path / "taken"
    args = ["run", "--config", cfg, "--out", str(out)]
    if command == "sweep":
        args = ["sweep", "--config", cfg, "--key", "source.T_w", "--values", "1.0",
                "--out", str(out)]
        out = out / "point_0"
    blocked = out / "state_000002.vtk"          # the snapshot of the second step
    blocked.mkdir(parents=True)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [output] directory: cannot write {blocked}: ")
    assert "Traceback" not in err
    assert len((out / "run.csv").read_text().splitlines()) == 3       # header and two rows
    assert (out / "state_000001.vtk").is_file() and (out / "abort_state.vtk").is_file()


@pytest.mark.parametrize("case, options, name", [
    ("cbf", ["--dt", "1e300"], "dt, n_steps"),         # the exact flux underflows
    ("meshupdate", ["--dt", "1e10"], "dt"),            # half the ring or more per step
    ("cbf", ["--dt", "1e-300"], "dt"),                 # too early to sum the series
])
def test_verify_case_check_keeps_an_earlier_csv(tmp_path, capsys, monkeypatch,
                                                 case, options, name):
    out = tmp_path / "out"
    out.mkdir()
    earlier = out / f"{case}_errors.csv"
    earlier.write_text("h,dt,error,runtime\n0.25,1,0.5,0\n")
    forbid_slabs(monkeypatch)
    assert main(["verify", case, "--h", "0.25", *options, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name}: ")
    assert earlier.read_text() == "h,dt,error,runtime\n0.25,1,0.5,0\n"


def test_percent_in_a_value_is_the_character_itself(tmp_path, capsys):
    # values are not interpolated: '%' is neither a syntax error nor a traceback
    cfg = make_config(tmp_path)
    ini = tmp_path / "case.ini"
    ini.write_text(ini.read_text().replace(str(tmp_path / "out"), str(tmp_path / "out%x")))
    assert main(["run", "--config", cfg]) == 0
    assert (tmp_path / "out%x" / "run.csv").exists()
    ini.write_text(ini.read_text().replace("tip_tags = left", "tip_tags = ti%p"))
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [source] tip_tags: ") and "'ti%p'" in err
    assert "Traceback" not in err


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(stfem, "SOLVER_TOL", 1e-30)
    cfg = make_config(tmp_path)
    assert main(["run", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err
    # the aborted state is dumped for post-mortem inspection
    assert (tmp_path / "out" / "abort_state.vtk").exists()


def test_source_leaving_the_active_slab_exits_3(tmp_path, capsys):
    # the tip is the band's first row, which slides down out of the window
    # after about one row (five steps): a numerical failure, not a traceback
    cfg = make_config(tmp_path)
    mesh = meshgen.make_strip_square(8, n_virt=2)
    row = mesh.strip.rows[0][np.argsort(mesh.nodes[mesh.strip.rows[0], 0])]
    mesh.boundary_edges = np.vstack([mesh.boundary_edges, np.column_stack([row[:-1], row[1:]])])
    mesh.boundary_tags += ["tip"] * (len(row) - 1)
    save_mesh(mesh, tmp_path / "m.mesh")
    ini = tmp_path / "case.ini"
    ini.write_text(ini.read_text().replace("tip_tags = left", "tip_tags = tip")
                   .replace("path = m.mesh", "path = m.mesh\ndirection = 0,-1")
                   .replace("n_steps = 3", "n_steps = 10"))
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: step 4: the source tip left the active slab" in err
    assert "at displacement 0.146685 m" in err
    assert (tmp_path / "out" / "abort_state.vtk").exists()


def test_run_direction_off_the_band_exits_2(tmp_path, capsys):
    # 1,1 is not an axis-aligned unit vector
    cfg = make_config(tmp_path)
    save_mesh(meshgen.make_strip_square(8, n_virt=2), tmp_path / "m.mesh")
    ini = tmp_path / "case.ini"
    ini.write_text(ini.read_text().replace("path = m.mesh", "path = m.mesh\ndirection = 1,1"))
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "[mesh] direction" in err and "m.mesh" in err


def test_transient_velocity_overrunning_the_ring_exits_2(tmp_path, fixture_dir, capsys,
                                                         monkeypatch):
    # a light solid under a dense melt: U_eq*dt is below half the ring, but
    # the transient closure's U, up to its value at q_s = 0, is not
    ini = configparser.ConfigParser()
    ini.optionxform = str
    ini.read(os.path.join(fixture_dir, "hotwire.ini"))
    ini["material.solid"]["rho"] = "0.46"
    ini["material.solid"]["kappa"] = "0.0018"
    ini["material.liquid"]["rho"] = "84"
    ini["mesh"]["path"] = os.path.join(fixture_dir, "hotwire.mesh")
    ini["output"]["directory"] = str(tmp_path / "out")
    with open(tmp_path / "case.ini", "w") as f:
        ini.write(f)

    def no_slab(*args, **kwargs):
        raise AssertionError("a slab was built")
    monkeypatch.setattr(stfem.SlabOperator, "__init__", no_slab)
    assert main(["run", "--config", str(tmp_path / "case.ini")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [time] dt: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_verify_cbf(tmp_path, capsys):
    assert main(["verify", "cbf", "--h", "0.1", "--dt", "0.05",
                 "--steps", "3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    lines = (tmp_path / "cbf_errors.csv").read_text().strip().splitlines()
    assert lines[0] == "h,dt,error,runtime"
    assert len(lines) == 4


def test_verify_meshupdate(tmp_path):
    assert main(["verify", "meshupdate", "--h", "0.2",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "meshupdate_errors.csv").read_text().strip().splitlines()
    assert lines[0] == "h,dt,error,runtime"
    assert len(lines) == 2
    assert float(lines[1].split(",")[3]) > 0.0         # the case's measured runtime


def test_verify_meshupdate_honours_dt_and_steps(tmp_path):
    assert main(["verify", "meshupdate", "--h", "0.2", "--dt", "7", "--steps", "2",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "meshupdate_errors.csv").read_text().strip().splitlines()
    h, dt, err, _ = (float(c) for c in lines[1].split(","))
    assert (h, dt) == (0.2, 7.0)
    assert err == verify.run_meshupdate_case(0.2, dt=7.0, n_steps=2)


@pytest.mark.parametrize("case, options, name", [
    ("cbf", ["--h", "0"], "--h"),
    ("cbf", ["--h", "-0.1"], "--h"),
    ("cbf", ["--h", "0.3"], "--h"),
    ("cbf", ["--h", "nan"], "--h"),
    ("meshupdate", ["--h", "0"], "--h"),
    ("meshupdate", ["--h", "0.5"], "--h"),      # the band needs 4 rows
    ("cbf", ["--h", "0.5", "--dt", "-1"], "--dt"),
    ("meshupdate", ["--h", "0.25", "--dt", "0"], "--dt"),
    ("cbf", ["--h", "0.5", "--steps", "0"], "--steps"),
    ("cbf", ["--h", "0.5", "--steps", "-2"], "--steps"),
])
def test_verify_rejects_bad_options_before_the_first_slab(tmp_path, capsys, monkeypatch,
                                                          case, options, name):
    def no_slab(*args, **kwargs):
        raise AssertionError("a slab was built")
    monkeypatch.setattr(stfem.SlabOperator, "__init__", no_slab)
    assert main(["verify", case, *options, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name}: ")
    assert not (tmp_path / "out").exists()


def test_run_missing_mesh_exits_2(tmp_path, capsys):
    cfg = make_config(tmp_path)
    os.remove(tmp_path / "m.mesh")
    assert main(["run", "--config", cfg]) == 2
    assert "[mesh] path" in capsys.readouterr().err


@pytest.mark.parametrize("content, match", [
    ("CCMMESH 9\n", "CCMMESH 1"),
    ("CCMMESH 1\nNODES 3\n0 0 0\n", "ends early after line 3"),
    ("CCMMESH 1\nNODES 3\n0 a b\n", "bad line 3"),
], ids=["bad-header", "truncated", "non-numeric"])
def test_run_corrupt_mesh_exits_2(tmp_path, capsys, content, match):
    cfg = make_config(tmp_path)
    (tmp_path / "m.mesh").write_text(content)
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "[mesh] path" in err and match in err


def copy_power_3kw(tmp_path, fixture_dir):
    """power_3kw.ini and its ramp.mesh, copied side by side into ``tmp_path``;
    the paths of the copies."""
    for name in ("power_3kw.ini", "ramp.mesh"):
        shutil.copy(os.path.join(fixture_dir, name), tmp_path)
    return tmp_path / "power_3kw.ini", tmp_path / "ramp.mesh"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("bad, text, with_byte, message", [
    # in a comment of the config, or on a line of its own after the mesh's header
    ("config", b"# 3000 W", b"# \xff 3000 W", "config parse error in {config}: "),
    ("mesh", b"1\nNODES", b"1\n\xff\nNODES", "[mesh] path: cannot load {mesh}: "),
    # no file at all: the config path names a directory
    ("config", None, None, "config parse error in {config}: "),
])
def test_undecodable_input_file_exits_2_before_the_first_slab(
        tmp_path, fixture_dir, capsys, monkeypatch, command, bad, text, with_byte, message):
    paths = dict(zip(("config", "mesh"), copy_power_3kw(tmp_path, fixture_dir)))
    if text is None:
        paths[bad].unlink()
        paths[bad].mkdir()
    else:
        data = paths[bad].read_bytes()
        assert text in data
        paths[bad].write_bytes(data.replace(text, with_byte, 1))
    forbid_slabs(monkeypatch)
    out = str(tmp_path / "out")
    argv = (["run", "--config", str(paths["config"]), "--out", out] if command == "run" else
            ["sweep", "--config", str(paths["config"]), "--key", "source.q_h",
             "--values", "3000", "--out", out])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(**paths))
    reason = "Is a directory" if text is None else "'utf-8' codec can't decode byte 0xff"
    assert reason in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, given, missing", [
    ("source", "side_tags", "nose,sid", "sid"),
    ("mesh", "farfield_tags", "botom", "botom"),
    ("source", "tip_tags", "tip,tpi", "tpi"),
])
def test_misspelt_boundary_tag_exits_2_before_the_first_slab(
        tmp_path, fixture_dir, capsys, monkeypatch, section, key, given, missing):
    config, _ = copy_power_3kw(tmp_path, fixture_dir)
    ini = configparser.ConfigParser(interpolation=None)
    ini.optionxform = str
    ini.read(config)
    ini[section][key] = given
    with open(config, "w") as f:
        ini.write(f)
    forbid_slabs(monkeypatch)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] {key}: no boundary edges tagged ('{missing}',)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ids, match", [
    ("", "strip row 3 has no nodes"),
    ("-1", "strip row 3: node -1 out of range"),
    ("99999", "strip row 3: node 99999 out of range"),
], ids=["empty", "negative", "past-the-last-node"])
def test_run_bad_strip_row_exits_2(tmp_path, capsys, ids, match):
    # STRIP row 3 of a strip square holds only ``ids``
    cfg = make_config(tmp_path)
    save_mesh(meshgen.make_strip_square(6), tmp_path / "m.mesh")
    lines = (tmp_path / "m.mesh").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("STRIP ")) + 4
    assert lines[at].startswith("3 ")
    lines[at] = f"3 {ids}"
    (tmp_path / "m.mesh").write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"[mesh] path: cannot load {tmp_path / 'm.mesh'}: {match}" in err


def test_sweep_temperature(tmp_path, capsys):
    cfg = make_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--key", "source.T_w",
                 "--values", "0.9, 1.1", "--out", str(tmp_path / "sw")]) == 0
    out = capsys.readouterr().out
    assert "point 0" in out and "point 1" in out
    for k in (0, 1):
        assert (tmp_path / "sw" / f"point_{k}" / "run.csv").exists()
    # hotter source melts faster: compare the two mean velocities
    vels = [float(line.rsplit(" ", 2)[-2]) for line in out.strip().splitlines()]
    assert vels[1] > vels[0]


def test_sweep_unsupported_key(tmp_path, capsys):
    cfg = make_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--key", "melting.h_m",
                 "--values", "1", "--out", str(tmp_path / "sw")]) == 2
    assert "unsupported sweep key" in capsys.readouterr().err


def test_sweep_power_key_needs_power_mode(tmp_path, capsys):
    cfg = make_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--key", "source.q_h",
                 "--values", "100", "--out", str(tmp_path / "sw")]) == 2
    assert "mode = power" in capsys.readouterr().err


def test_sweep_rejects_bad_values(tmp_path, fixture_dir, capsys):
    cfg = make_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--key", "source.T_w",
                 "--values", "1,apple", "--out", str(tmp_path / "sw")]) == 2
    assert main(["sweep", "--config", cfg, "--key", "source.T_w",
                 "--values", " , ", "--out", str(tmp_path / "sw")]) == 2
    capsys.readouterr()
    # swept values get the same checks as configured ones
    probe = os.path.join(fixture_dir, "probe_temperature.ini")    # T_m = 273 K
    assert main(["sweep", "--config", probe, "--key", "source.T_w",
                 "--values", "250", "--out", str(tmp_path / "sw")]) == 2
    assert "[source] T_w" in capsys.readouterr().err
    power = os.path.join(fixture_dir, "power_3kw.ini")
    assert main(["sweep", "--config", power, "--key", "source.q_h",
                 "--values", "-1000", "--out", str(tmp_path / "sw")]) == 2
    assert "[source] q_h" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["inf", "0.9,-inf", "nan"])
def test_sweep_rejects_non_finite_values_before_the_first_slab(tmp_path, capsys,
                                                                monkeypatch, values):
    cfg = make_config(tmp_path)
    forbid_slabs(monkeypatch)
    assert main(["sweep", "--config", cfg, "--key", "source.T_w", "--values", values,
                 "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err.startswith("error: --values: not finite: ")
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("fixture, section, key", [("hotwire.ini", "source", "T_w"),
                                                   ("power_3kw.ini", "source", "q_h")])
def test_sweep_overflowing_the_closure_exits_2_before_the_first_slab(
        tmp_path, fixture_dir, capsys, monkeypatch, fixture, section, key):
    # a finite value so large that the melt closure overflows a float
    forbid_slabs(monkeypatch)
    assert main(["sweep", "--config", os.path.join(fixture_dir, fixture),
                 "--key", f"{section}.{key}", "--values", "1e300",
                 "--out", str(tmp_path / "sw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] {key}: ") and "Traceback" not in err
    assert not (tmp_path / "sw").exists()


EXTREME_VALUES = [("probe_temperature", "material.solid", "rho", "1e-120"),
                  ("probe_temperature", "material.solid", "rho", "1e200"),
                  ("probe_temperature", "material.liquid", "kappa", "1e-120"),
                  ("power_3kw", "material.liquid", "kappa", "1e-150"),
                  ("power_3kw", "source", "q_h", "1e60")]


@pytest.mark.parametrize("fixture, section, key, value", EXTREME_VALUES,
                         ids=["-".join(case[1:]) for case in EXTREME_VALUES])
def test_extreme_material_value_exits_2_before_the_first_slab(
        tmp_path, fixture_dir, capsys, monkeypatch, fixture, section, key, value):
    # the closure's divisor underflows to zero, its cube overflows, U_eq
    # underflows to zero, or the power closure's root lies too far below its
    # bracket for the root solve: the message names the value, not the source
    ini = configparser.ConfigParser()
    ini.optionxform = str
    ini.read(os.path.join(fixture_dir, fixture + ".ini"))
    ini[section][key] = value
    ini["mesh"]["path"] = os.path.join(fixture_dir, ini["mesh"]["path"])
    ini["output"]["directory"] = str(tmp_path / "out")
    with open(tmp_path / "case.ini", "w") as f:
        ini.write(f)
    forbid_slabs(monkeypatch)
    assert main(["run", "--config", str(tmp_path / "case.ini")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] {key}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_bogus_log_level_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CCMSIM_LOG", "chatty")
    assert main(["run", "--config", make_config(tmp_path)]) == 2
    assert "CCMSIM_LOG" in capsys.readouterr().err


def test_debug_log_level_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("CCMSIM_LOG", "DEBUG")
    assert main(["run", "--config", make_config(tmp_path)]) == 0


def test_module_entry_point_runs_without_warning():
    # the package must not import its own CLI, or `python -m ccmsim.cli`
    # warns that the module was already in sys.modules
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "ccmsim.cli", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("section, key, value, named", [
    ("material.liquid", "mu", "1e-200", "[material.liquid] mu"),  # an absurd U: the closure
    ("time", "dt", "1e5", "[time] dt"),                          # a sane U, a long step
])
def test_step_overrunning_the_ring_names_the_input_at_fault(
        tmp_path, fixture_dir, capsys, monkeypatch, section, key, value, named):
    # U*dt reaches half the ring either way; when the solid's diffusion
    # length alpha/U is below the rounding of the ring's coordinates, no dt
    # could help, so the closure's input furthest from 1 is named
    ini = configparser.ConfigParser()
    ini.optionxform = str
    ini.read(os.path.join(fixture_dir, "probe_temperature.ini"))
    ini[section][key] = value
    ini["mesh"]["path"] = os.path.join(fixture_dir, "probe.mesh")
    ini["output"]["directory"] = str(tmp_path / "out")
    with open(tmp_path / "case.ini", "w") as f:
        ini.write(f)
    forbid_slabs(monkeypatch)
    assert main(["run", "--config", str(tmp_path / "case.ini")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="counts threads in /proc")
def test_package_import_runs_scipys_blas_on_one_thread():
    # numpy's OpenBLAS is loaded first and has started its own workers;
    # SciPy's, which loads with ccmsim, starts none unless the caller asked
    # for more, and the variable is not left behind for child processes
    code = """if True:
        import os
        def threads():
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
        import numpy
        before = threads()
        import ccmsim
        print(threads() - before, os.environ.get("OPENBLAS_NUM_THREADS"))
    """
    seen = {}
    for preset in (None, "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        started, left = proc.stdout.split()
        seen[preset] = (int(started), left)
    assert seen[None] == (0, "None")
    assert seen["2"][1] == "2"
    if len(os.sched_getaffinity(0)) > 1:
        # the count does see a worker that SciPy's OpenBLAS starts
        assert seen["2"][0] > 0
