"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop of time steps in one single-threaded
process, run as repeated fresh repetitions of the same truncated run.  The
seed picks the repetition length from a short window, so every seed runs
the same physics and its outputs are a prefix of the stored reference.

* ``probe``: ``fixtures/probe_temperature.ini`` as shipped (transient
  temperature closure, three sensors, VTK every 20 steps), truncated.
  The largest slab; solver, assembly, sensor and output changes show here.
* ``ramp``: ``fixtures/power_3kw.ini`` with ``vtk_every = 0`` and no
  sensors.  A mid-size slab that starts from rest, so fixed per-step costs
  weigh more; sensor and VTK changes must not move it.
* ``cooling``: ``verify.run_cbf_case(h=0.02, dt=0.01)``.  A static unit
  square: same slab and flux layers, no motion, driver or sensors, so an
  optimisation that relies on translating strips shows differently here.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import shutil
import traceback
from pathlib import Path

from ccmsim import driver, verify
from tracing import speed_factors

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# per-step trajectory gate: rounding from reordered sums passes, changed
# physics does not
RTOL = 1e-6
ATOL_OF_SCALE = 1e-9
# criterion 1: recovered-flux error below 1e-2 for slabs ending at t >= 0.2
CBF_T_MIN = 0.2
CBF_MAX_ERR = 1e-2


@dataclasses.dataclass
class Rep:
    """One repetition: what ran, how long it took, what it produced.

    Times are raw wall seconds.  ``cal_s`` holds the reference kernel's
    time at each clock mark: before set-up, at each step, after the run.
    """

    steps: int                  # steps attempted
    failed: int                 # failed the gate, or never ran after an abort
    setup_s: float | None       # start of the repetition to its first slab
    step_s: list                # per completed step, outputs included
    cal_s: list
    sim_s: float                # simulated seconds of the completed steps
    sha256: dict
    output_bytes: int
    error: str | None = None

    @property
    def setup_f(self) -> float:
        """Factor that scales ``setup_s`` to the reference host speed."""
        return speed_factors(self.cal_s[:2])[0] if self.setup_s is not None else 1.0

    @property
    def step_f(self) -> list:
        """Factors that scale ``step_s`` to the reference host speed."""
        return speed_factors(self.cal_s[1:])[:len(self.step_s)]


def _timed(clock, call):
    """Run ``call`` between two clock marks; (result, error, timings)."""
    clock.reset()
    clock.mark()
    result = error = None
    try:
        result = call()
    except Exception:   # an abort fails the steps it did not run
        error = traceback.format_exc()
    clock.mark()
    timings = clock.intervals() if len(clock.marks) > 2 else (None, [], [])
    return result, error, timings


def _close(x: float, ref: float, scale: float) -> bool:
    if math.isnan(ref):
        return math.isnan(x)
    return abs(x - ref) <= RTOL * abs(ref) + ATOL_OF_SCALE * scale


def _read_csv(path: Path) -> list[list[float]]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    return [[float(c) if c else math.nan for c in row] for row in rows]


class _Workload:
    """Repetition length: the seed picks it from [base_steps, max_steps]."""

    def __init__(self, base_steps, seed_span):
        self.base_steps = base_steps
        self.max_steps = base_steps + seed_span - 1   # the reference's length

    def steps(self, seed: int) -> int:
        return self.base_steps + seed % (self.max_steps - self.base_steps + 1)


class DriverWorkload(_Workload):
    """A fixture config run through ``driver.load_config`` + ``driver.run``."""

    def __init__(self, name, config, base_steps, seed_span, overrides):
        super().__init__(base_steps, seed_span)
        self.name = name
        self.config = ROOT / config
        self.overrides = overrides

    def input_files(self):
        cfg = driver.load_config(self.config)
        return [self.config, Path(cfg.mesh_path)]

    def load(self, n: int, out_dir: Path):
        """The fixture's config, truncated to ``n`` steps, writing to ``out_dir``."""
        cfg = driver.load_config(self.config)
        return dataclasses.replace(cfg, n_steps=n, out_dir=str(out_dir), **self.overrides)

    def describe(self, n: int) -> str:
        return f"{self.config.relative_to(ROOT)} n_steps={n} overrides={self.overrides!r}"

    def repetition(self, n: int, out_dir: Path, clock) -> Rep:
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = self.load(n, out_dir)     # untimed copy, for the output names
        _, error, (setup_s, step_s, cal_s) = _timed(
            clock, lambda: driver.run(self.load(n, out_dir)))
        run_rows = _read_csv(out_dir / cfg.csv_name)
        done = len(run_rows) if error else n
        ok = self.check(run_rows, _read_csv(out_dir / "sensors.csv"), n)
        files = sorted(p for p in out_dir.glob("*") if p.is_file())
        return Rep(
            steps=n, failed=n - sum(ok), setup_s=setup_s, step_s=step_s[:done],
            cal_s=cal_s, sim_s=done * cfg.dt,
            sha256={p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in files if p.suffix == ".csv"},
            output_bytes=sum(p.stat().st_size for p in files), error=error)

    def check(self, run_rows, sensor_rows, n) -> list[bool]:
        """Per step: velocity, displacement and sensors match the reference."""
        ref = json.loads(REFERENCE.read_text())[self.name]
        u_scale = max(abs(u) for u in ref["velocity"])
        d_scale = max(abs(d) for d in ref["displacement"])
        sensors = [[math.nan if v is None else v for v in row] for row in ref["sensors"]]
        ok = []
        for i in range(n):
            good = i < len(run_rows)
            if good:
                _t, u, d, *_ = run_rows[i]
                good = (_close(u, ref["velocity"][i], u_scale)
                        and _close(d, ref["displacement"][i], d_scale))
            if good and sensors:
                good = i < len(sensor_rows) and len(sensor_rows[i]) == 1 + len(sensors[i])
                good = good and all(_close(x, r, abs(r))
                                    for x, r in zip(sensor_rows[i][1:], sensors[i]))
            ok.append(good)
        return ok

    def trajectory(self, out_dir: Path) -> dict:
        """Reference record of a finished repetition's outputs."""
        run_rows = _read_csv(out_dir / "run.csv")
        sensor_rows = _read_csv(out_dir / "sensors.csv")
        return {
            "velocity": [r[1] for r in run_rows],
            "displacement": [r[2] for r in run_rows],
            "sensors": [[None if math.isnan(v) else v for v in r[1:]] for r in sensor_rows],
        }


class CoolingWorkload(_Workload):
    """The ``ccmsim verify cbf`` cooling slab, ``verify.run_cbf_case``."""

    name = "cooling"

    def __init__(self, h, dt, base_steps, seed_span):
        super().__init__(base_steps, seed_span)
        self.h = h
        self.dt = dt

    def input_files(self):
        return []

    def describe(self, n: int) -> str:
        return f"verify.run_cbf_case h={self.h!r} dt={self.dt!r} n_steps={n}"

    def repetition(self, n: int, out_dir: Path, clock) -> Rep:
        table, error, (setup_s, step_s, cal_s) = _timed(
            clock, lambda: verify.run_cbf_case(h=self.h, dt=self.dt, n_steps=n))
        errors = table.error if table is not None else []
        ok = [i < len(errors) and math.isfinite(errors[i])
              and ((i + 1) * self.dt < CBF_T_MIN - 1e-12 or errors[i] < CBF_MAX_ERR)
              for i in range(n)]
        done = len(errors)
        text = "".join(f"{e:.17g}\n" for e in errors).encode()
        return Rep(
            steps=n, failed=n - sum(ok), setup_s=setup_s, step_s=step_s[:done],
            cal_s=cal_s, sim_s=done * self.dt,
            sha256={"cbf_errors": hashlib.sha256(text).hexdigest()},
            output_bytes=0, error=error)


WORKLOADS = {
    "probe": DriverWorkload("probe", "fixtures/probe_temperature.ini",
                            base_steps=20, seed_span=5, overrides={}),
    "ramp": DriverWorkload("ramp", "fixtures/power_3kw.ini", base_steps=40,
                           seed_span=10, overrides={"vtk_every": 0, "sensors": ()}),
    "cooling": CoolingWorkload(h=0.02, dt=0.01, base_steps=40, seed_span=10),
}
