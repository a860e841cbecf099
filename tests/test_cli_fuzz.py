"""Random inputs through ``cli.main``: every command ends in an exit code.

The CLI's contract is exit 0 on success, 2 for bad input (before step 0)
and 3 for a numerical failure, which leaves ``abort_state.vtk`` behind;
never a Python traceback.  These properties perturb the numeric keys of
the ramp and hotwire fixtures, their mode and time step, their string keys
with characters an INI file may treat specially, the config's bytes with
one that is no UTF-8, and the options of ``verify`` and ``sweep``, over
short runs.
"""

import configparser
import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ccmsim.cli import main

from conftest import FIXTURE_DIR

NUMERIC_KEYS = (
    ("material.solid", "rho"), ("material.solid", "cp"), ("material.solid", "kappa"),
    ("material.solid", "T_s"), ("material.liquid", "rho"), ("material.liquid", "cp"),
    ("material.liquid", "kappa"), ("material.liquid", "mu"), ("melting", "h_m"),
    ("melting", "T_m"), ("source", "F_ex"), ("source", "R"),
    ("source", None),                   # T_w or q_h, whichever the mode has
)
NOT_NUMBERS = ("nan", "inf", "-inf", "0", "-1", "x", "")
# string keys and the value each is perturbed from (None: the fixture's); the
# output directory is relative to the test's temporary directory, and the
# sensor point lies in both meshes
STRING_KEYS = {("output", "directory"): "out", ("source", "tip_tags"): None,
               ("source", "side_tags"): None, ("output", "sensors"): "0.05,0.05"}


def scale():
    return st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)


@st.composite
def configs(draw):
    """Sections of a perturbed ramp or hotwire config, 2-6 steps long, and
    None or a byte that is no UTF-8 with where in the file it goes, as a
    fraction of the file's length."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.optionxform = str
    ini.read(os.path.join(FIXTURE_DIR, draw(st.sampled_from(["power_3kw", "hotwire"])) + ".ini"))
    cfg = {name: dict(ini[name]) for name in ini.sections()}
    src = cfg["source"]
    mode = draw(st.sampled_from(["temperature", "power"]))
    if mode != src["mode"]:
        src["mode"] = mode
        for key in ("T_w", "q_h", "tip_area"):
            src.pop(key, None)
        if mode == "power":
            src.update(q_h="5e4", tip_area="0.02")
        else:
            src["T_w"] = repr(float(cfg["melting"]["T_m"]) + 10.0)
    src["coupling"] = draw(st.sampled_from(["transient", "equilibrium"]))
    for section, key in draw(st.lists(st.sampled_from(NUMERIC_KEYS), max_size=3, unique=True)):
        key = key or ("T_w" if mode == "temperature" else "q_h")
        cfg[section][key] = repr(float(cfg[section][key]) * draw(scale()))
    cfg["time"]["dt"] = repr(float(cfg["time"]["dt"]) * 10.0 ** draw(st.floats(-3.0, 2.0)))
    cfg["time"]["n_steps"] = str(draw(st.integers(2, 6)))
    cfg["mesh"]["path"] = os.path.join(FIXTURE_DIR, cfg["mesh"]["path"])
    cfg["output"]["directory"] = "out"
    for (section, key), base in draw(st.lists(st.sampled_from(list(STRING_KEYS.items())),
                                              max_size=2, unique=True)):
        value = base or cfg[section][key]
        at = draw(st.integers(0, len(value)))
        cfg[section][key] = value[:at] + draw(st.text("%;,#=", min_size=1, max_size=3)) + value[at:]
    junk = draw(st.none() | st.tuples(st.sampled_from([b"\x80", b"\xff"]), st.floats(0.0, 1.0)))
    return cfg, junk


def call(argv):
    """Exit code and standard error of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse rejects the options
            code = exc.code
    return code, err.getvalue()


def assert_exit_contract(code, err, out_dir=None):
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 3 and out_dir is not None:
        dumps = [root for root, _, files in os.walk(out_dir) if "abort_state.vtk" in files]
        assert dumps, err


@settings(max_examples=15, deadline=None)
@given(case=configs(), command=st.sampled_from(["run", "sweep"]),
       values=st.lists(st.one_of(scale(), st.sampled_from(NOT_NUMBERS)), min_size=1,
                       max_size=2))
def test_run_and_sweep_end_in_an_exit_code(case, command, values):
    cfg, junk = case
    with tempfile.TemporaryDirectory() as tmp:
        out = cfg["output"]["directory"] = os.path.join(tmp, cfg["output"]["directory"])
        ini = configparser.ConfigParser(interpolation=None)
        ini.optionxform = str
        ini.read_dict(cfg)
        text = io.StringIO()
        ini.write(text)
        data = text.getvalue().encode()
        if junk is not None:
            byte, where = junk
            at = round(where * len(data))
            data = data[:at] + byte + data[at:]
        path = os.path.join(tmp, "case.ini")
        with open(path, "wb") as f:
            f.write(data)
        if command == "run":
            argv = ["run", "--config", path]
        else:
            # swept values: the configured T_w or bulk watts, scaled, or not numbers
            src = cfg["source"]
            base = (float(src["T_w"]) if src["mode"] == "temperature"
                    else float(src["q_h"]) * float(src["tip_area"]))
            argv = ["sweep", "--config", path, "--out", out,
                    "--key", "source.T_w" if src["mode"] == "temperature" else "source.q_h",
                    "--values", ",".join(v if isinstance(v, str) else repr(base * v)
                                         for v in values)]
        assert_exit_contract(*call(argv), out)


@settings(max_examples=15, deadline=None)
@given(case=st.sampled_from(["cbf", "meshupdate"]),
       h=st.sampled_from(["0.5", "0.25", "0.2", "0.3", "0", "-1", "nan"]),
       dt=st.one_of(st.none(), st.sampled_from(NOT_NUMBERS + ("1e-300", "1e300")),
                    st.floats(-3.0, 2.5).map(lambda e: repr(10.0 ** e))),
       steps=st.one_of(st.none(), st.integers(-1, 4).map(str), st.sampled_from(["1.5", "x"])))
def test_verify_ends_in_an_exit_code(case, h, dt, steps):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", case, "--h", h, "--out", os.path.join(tmp, "out")]
        if dt is not None:
            argv += ["--dt", dt]
        if steps is not None:
            argv += ["--steps", steps]
        assert_exit_contract(*call(argv))
