"""ccmsim step benchmark: one workload, timed end to end or per layer.

    python3 stepbench/run.py --workload probe --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it summarise the run, and the full report (provenance, every
repetition, output hashes, the spans of a traced run) goes to
``stepbench/out/<workload>-seed<seed>-trace<t>.json``.

A run is a short warm-up repetition followed by fresh repetitions of the
same truncated run until ``--seconds`` is spent, rounded to whole
repetitions.  An untraced run (``--trace 0``) takes at least 100 step
samples, so that ten of them lie above p90.

Times are reported at one fixed host speed.  On a shared host the speed
drifts with the neighbours' load (1.75x within minutes on a 2-core Xeon
VM), so a fixed reference kernel runs at every step boundary, outside the
timed intervals, and each interval is scaled by ``tracing.CAL_REF_S`` over
the kernel's mean time at its two ends.  The raw wall figures are in the
report and on the summary line.  An untraced run reports:

* ``setup_s``: median over repetitions of ``driver.load_config`` plus all
  ``driver.run`` does before its first slab (mesh load and validation,
  ``motion.init_motion``, boundary tags, output files); for ``cooling``,
  ``verify.run_cbf_case`` up to its first slab (``meshgen.make_unit_square``).
* ``step_ms.p50``, ``step_ms.p90``: time per time step, measured from
  one slab construction to the next (the last step ends when the run
  returns), so each step includes its motion, solve, flux, closure and
  output.
* ``sim_s_per_wall_s``: simulated seconds per second over all timed
  loops, first slab to return, outputs included.
* ``peak_rss_mb``: peak resident memory of this process.
* ``ok_frac``: 1 - failed/attempted steps.  A step fails when its outputs
  miss the correctness gate, or when an abort kept it from running.

A traced run (``--trace 1``) spends half of ``--seconds`` untraced and
half traced, and reports per step (mean over the traced steps) the self
time of each wrapped layer in ms, per call the set-up layers, per step the
slab sizes (median), and per repetition the motion and closure event
counts; ``trace.coverage`` is the summed layer time over the traced step
time and ``trace.overhead.sim_s_per_wall_s`` the traced minus the untraced
throughput.

Every repetition must produce byte-identical outputs (SHA-256 of
``run.csv``/``sensors.csv``, or of the error column for ``cooling``), and
a traced run's slab sizes and motion counts must repeat exactly; either
mismatch makes the run incorrect.
"""

from __future__ import annotations

import os

# one thread, fixed before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SAMPLES = 100      # untraced: ten samples above p90
WARMUP_STEPS = 2
HARD_LIMIT_S = 150.0   # start no repetition that would end later than this
SETUP_LAYERS = ("mesh.load_mesh", "motion.init_motion", "meshgen.make_unit_square")
STEP_LAYERS = ("stfem.assemble", "stfem.splu", "stfem.solve", "driver.sample_sensors",
               "driver.write_vtk", "motion.advance", "motion.active_elements",
               "cbf.recover_flux", "velocity.closure")
EXACT_COUNTS = ("stfem.dofs", "stfem.nnz", "stfem.lu_nnz", "stfem.elements",
                "motion.slips", "motion.wrapped_nodes")
T_PROCESS = time.perf_counter()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("probe", "ramp", "cooling"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--steps", type=int, default=None,
                   help="steps per repetition instead of the seed's, with no "
                        "sample minimum (smoke test)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.steps is not None and args.steps < 1:
        p.error("--steps must be at least 1")
    return args


def measure(wl, n, out_dir, clock, budget_s, min_reps, before=None, after=None):
    """Repetitions until ``budget_s`` is spent, to the nearest whole one."""
    reps = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if before is not None:
            before()
        reps.append(wl.repetition(n, out_dir, clock))
        if after is not None:
            after(reps[-1])
        now = time.perf_counter()
        est = (now - start) / len(reps)
        if now - T_PROCESS + est > HARD_LIMIT_S:
            break
        if len(reps) >= min_reps and now - start + est / 2 > budget_s:
            break
    return reps


def percentile(values, q):
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def provenance(wl, n):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cfg = hashlib.sha256(wl.describe(n).encode())
    for path in wl.input_files():
        cfg.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception:   # build info is optional metadata
            return None

    return {
        "commit": commit, "source_sha256": src.hexdigest(),
        "workload_input": wl.describe(n), "config_sha256": cfg.hexdigest(),
        "host": {"cores": os.cpu_count(), "cpu_model": cpu,
                 "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS")},
    }


def throughput(reps, scaled=True):
    """Simulated seconds per wall second over the timed loops."""
    wall = sum(s * (f if scaled else 1.0) for r in reps for s, f in zip(r.step_s, r.step_f))
    return sum(r.sim_s for r in reps) / wall if wall else 0.0


def end_to_end(reps, attempted, failed):
    """End-to-end metrics at the reference host speed, and the raw figures."""
    steps = [s * f for r in reps for s, f in zip(r.step_s, r.step_f)]
    setups = [r.setup_s * r.setup_f for r in reps if r.setup_s is not None]
    raw_steps = [s for r in reps for s in r.step_s]
    metric = {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "step_ms.p50": (1e3 * percentile(steps, 50) if steps else 0.0, "ms"),
        "step_ms.p90": (1e3 * percentile(steps, 90) if steps else 0.0, "ms"),
        "sim_s_per_wall_s": (throughput(reps), "s/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    raw = {
        "setup_s": statistics.median([r.setup_s for r in reps if r.setup_s is not None] or [0.0]),
        "step_ms.p50": 1e3 * percentile(raw_steps, 50) if raw_steps else 0.0,
        "step_ms.p90": 1e3 * percentile(raw_steps, 90) if raw_steps else 0.0,
        "sim_s_per_wall_s": throughput(reps, scaled=False),
        "host_speed_factor.median": statistics.median(
            [f for r in reps for f in r.step_f] or [0.0]),
    }
    return metric, raw


def per_layer(traced, untraced_rate):
    """Per-layer metrics from the traced repetitions ``(rep, self_times, counts)``."""
    reps = [rep for rep, _, _ in traced]
    n_steps = sum(len(rep.step_s) for rep in reps)
    loop_ms = 1e3 * sum(s * f for rep in reps for s, f in zip(rep.step_s, rep.step_f))
    step_total = {name: 0.0 for name in STEP_LAYERS}
    setup_calls = {name: [] for name in SETUP_LAYERS}
    per_step = {}
    per_rep = {"motion.slips": [], "motion.wrapped_nodes": [],
               "velocity.clamped": [], "velocity.stalled": []}
    calls_active = 0
    vtk_bytes = []
    for rep, self_times, counts in traced:
        step_f = rep.step_f
        for name, step, sec in self_times:
            f = step_f[step] if 0 <= step < len(step_f) else rep.setup_f
            if name in setup_calls:
                setup_calls[name].append(1e3 * sec * f)
            elif step >= 0:
                step_total[name] += 1e3 * sec * f
                calls_active += name == "motion.active_elements"
        for name in per_rep:
            per_rep[name].append(sum(v for c, s, v in counts if c == name and s >= 0))
        for name, step, value in counts:
            if name == "driver.write_vtk.bytes":
                vtk_bytes.append(value)
            elif step >= 0:
                per_step.setdefault(name, []).append(value)

    def med(values):
        return statistics.median(values) if values else 0.0

    fills = [lu / a for lu, a in zip(per_step.get("stfem.lu_nnz", []),
                                     per_step.get("stfem.nnz", []))]
    ms = {name: step_total[name] / n_steps if n_steps else 0.0 for name in STEP_LAYERS}
    metric = {
        "stfem.assemble.ms": (ms["stfem.assemble"], "ms"),
        "stfem.splu.ms": (ms["stfem.splu"], "ms"),
        "stfem.solve.self_ms": (ms["stfem.solve"], "ms"),
        "stfem.dofs": (med(per_step.get("stfem.dofs")), "count"),
        "stfem.nnz": (med(per_step.get("stfem.nnz")), "count"),
        "stfem.lu_fill": (med(fills), "ratio"),
        "stfem.elements": (med(per_step.get("stfem.elements")), "count"),
        "stfem.residual_max": (max(per_step.get("stfem.residual", [0.0])), "rel"),
        "driver.sample_sensors.ms": (ms["driver.sample_sensors"], "ms"),
        "driver.write_vtk.ms": (ms["driver.write_vtk"], "ms"),
        "driver.write_vtk.bytes": (med(vtk_bytes), "bytes"),
        "driver.output.bytes": (sum(rep.output_bytes for rep in reps) / n_steps
                                if n_steps else 0.0, "bytes"),
        "mesh.load_mesh.ms": (med(setup_calls["mesh.load_mesh"]), "ms"),
        "motion.init_motion.ms": (med(setup_calls["motion.init_motion"]), "ms"),
        "meshgen.make_unit_square.ms": (med(setup_calls["meshgen.make_unit_square"]), "ms"),
        "motion.advance.ms": (ms["motion.advance"], "ms"),
        "motion.active_elements.ms": (ms["motion.active_elements"], "ms"),
        "motion.active_elements.calls_per_step": (calls_active / n_steps if n_steps else 0.0,
                                                  "count"),
        "motion.slips": (med(per_rep["motion.slips"]), "count"),
        "motion.wrapped_nodes": (med(per_rep["motion.wrapped_nodes"]), "count"),
        "cbf.recover_flux.ms": (ms["cbf.recover_flux"], "ms"),
        "velocity.closure.ms": (ms["velocity.closure"], "ms"),
        "velocity.clamped_steps": (med(per_rep["velocity.clamped"]), "count"),
        "velocity.stalled_steps": (med(per_rep["velocity.stalled"]), "count"),
        "trace.coverage": (sum(ms.values()) / (loop_ms / n_steps) if n_steps else 0.0,
                           "frac"),
        "trace.overhead.sim_s_per_wall_s": (throughput(reps) - untraced_rate, "s/s"),
    }
    return metric


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ccmsim" / "__init__.py").is_file():
        print(f"stepbench: no ccmsim sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.steps is not None and args.steps > wl.max_steps:
        print(f"stepbench: --steps: at most {wl.max_steps} for {args.workload}",
              file=sys.stderr)
        return 2
    n = args.steps if args.steps is not None else wl.steps(args.seed)
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    min_reps = 1
    if args.trace == 0 and args.steps is None:
        min_reps = math.ceil(MIN_SAMPLES / n)
    out_dir = OUT / args.workload
    tracer = tracing.Tracer()
    clock = tracing.StepClock(on_tick=tracer.set_step)
    traced = []

    def record(rep):
        traced.append((rep, tracer.self_times(), tracer.counts))

    with tracing.patched(clock.patches()):
        warmup = wl.repetition(min(WARMUP_STEPS, n), out_dir, clock)
        untraced = measure(wl, n, out_dir, clock, budget, min_reps)
        if args.trace == 1:
            with tracing.patched(tracing.layer_patches(tracer)):
                measure(wl, n, out_dir, clock, budget, min_reps=2,
                        before=tracer.reset, after=record)
    reps = untraced + [rep for rep, _, _ in traced]

    attempted = warmup.steps + sum(r.steps for r in reps)
    failed = warmup.failed + sum(r.failed for r in reps)
    hashes_repeat = all(r.sha256 == reps[0].sha256 for r in reps)
    exact = [[(c, s, v) for c, s, v in counts if c in EXACT_COUNTS]
             for _, _, counts in traced]
    counts_repeat = all(e == exact[0] for e in exact)
    correct = failed == 0 and hashes_repeat and counts_repeat

    metrics, raw = end_to_end(untraced, attempted, failed)
    samples = sum(len(r.step_s) for r in untraced)
    if args.trace == 1:
        metrics = per_layer(traced, metrics["sim_s_per_wall_s"][0])

    for r in [warmup] + reps:
        if r.error:
            print(f"stepbench: {args.workload} repetition aborted:\n{r.error}",
                  file=sys.stderr)
    if not hashes_repeat:
        print("stepbench: repetitions wrote different outputs: "
              f"{[r.sha256 for r in reps]}", file=sys.stderr)
    if not counts_repeat:
        print("stepbench: slab sizes or motion counts differ between traced "
              "repetitions", file=sys.stderr)
    if args.trace == 1 and metrics["trace.coverage"][0] < 0.8:
        print(f"stepbench: traced layers cover only "
              f"{metrics['trace.coverage'][0]:.1%} of a step", file=sys.stderr)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "steps_per_repetition": n, "untraced_step_samples": samples,
        "calibration_ref_s": tracing.CAL_REF_S, "untraced_raw": raw,
        "correct": correct, "attempted": attempted, "failed": failed,
        "outputs_repeat": hashes_repeat, "exact_counts_repeat": counts_repeat,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": provenance(wl, n),
        "repetitions": [{"kind": kind, "steps": r.steps, "failed": r.failed,
                         "setup_s": r.setup_s, "step_s": r.step_s, "cal_s": r.cal_s,
                         "sha256": r.sha256, "output_bytes": r.output_bytes}
                        for kind, r in [("warmup", warmup)]
                        + [("untraced", r) for r in untraced]
                        + [("traced", r) for r, _, _ in traced]],
        "spans": [[{"name": name, "step": step, "self_s": sec}
                   for name, step, sec in self_times] for _, self_times, _ in traced],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))

    print(f"stepbench: {args.workload} seed={args.seed} steps/rep={n} "
          f"repetitions={len(reps)} untraced step samples={samples} correct={correct}")
    print("stepbench: untraced raw wall figures "
          + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(f"stepbench: report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
