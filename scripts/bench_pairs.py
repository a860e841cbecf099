"""Alternating parent/change pairs of the step benchmark, in one JSON file.

    python3 scripts/bench_pairs.py --parent ../parent --change . --name zipper_fit

``--parent`` is a checkout of the parent commit (for example one made by
``git worktree add ../parent HEAD~1``) and ``--change`` the checkout under
test.  Each of the 10 pairs runs, for every workload of ``BENCHMARK.json``,

    python3 stepbench/run.py --workload W --seed S --seconds T --trace 0

once from the root of each checkout, with the same seed on both sides and
the ``run_seconds`` of ``BENCHMARK.json`` as T.  Pair i uses seed
``--seed0`` + i; pick seeds no run used before.  Even pairs run the parent
first, odd pairs the change; the workloads take turns, so host drift falls
on both sides alike.  The file written, ``BENCH_<name>.json`` in the
change's root, holds the host (CPU count, machine type and the Python,
NumPy and SciPy versions), per pair the end-to-end metrics of
``BENCHMARK.json`` and stepbench's raw wall figures, and per workload and
metric the medians, the inclusive quartiles, the number of pairs the
change won and its relative change of the median against the metric's
bound, and under ``by_order`` the two sides' medians over the pairs that
ran the parent first and over those that ran the change first.  Two
verdicts sit beside them: ``gain_shown``, the change won at least 9 of the
10 pairs, beat the parent's median by more than the parent's interquartile
range, and beat it within each run order too, so that an effect of which
side runs first cannot make the gain; and ``beyond_bound``, the change is
worse than the parent's median by more than the metric's bound.  Per workload,
``raw_summary`` gives the same medians, quartiles and wins of the raw wall
``setup_s``, ``step_ms.p50``, ``step_ms.p90`` and ``sim_s_per_wall_s``,
before stepbench scales them to its reference host speed, with no verdict:
the calibration kernel's own speed can differ between the two sides.

The script writes nothing but that file; each ``stepbench/run.py`` keeps
its own report in its checkout's ``stepbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

RAW = re.compile(r"untraced raw wall figures (.*)$", re.MULTILINE)
RAW_METRICS = ("setup_s", "step_ms.p50", "step_ms.p90", "sim_s_per_wall_s")


PAIRS = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", default=Path("."), type=Path, help="checkout under test")
    p.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    p.add_argument("--seed0", type=int, default=20001, help="seed of the first pair")
    args = p.parse_args(argv)
    if not re.fullmatch(r"\w[\w.-]*", args.name):
        p.error("--name: letters, digits, '_', '.' and '-' only")
    return args


def commit(checkout):
    def git(*cmd):
        return subprocess.run(["git", "-C", str(checkout), *cmd], capture_output=True,
                              text=True, check=False).stdout.strip()
    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def host():
    """The machine and the versions every run of the pairs uses."""
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def run_once(checkout, workload, seed, seconds, metrics):
    """End-to-end metrics, correctness and raw figures of one stepbench run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "stepbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"stepbench failed in {checkout} ({workload}, seed {seed}):\n"
                         f"{proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    result = {m: report["metrics"][m]["value"] for m in metrics}
    result["correct"] = report["correct"]
    raw = RAW.search(proc.stdout + proc.stderr)
    if raw:
        result["raw"] = {k: float(v) for k, v in
                         (item.split("=") for item in raw.group(1).split())}
    return result


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def wins(a, b, lower):
    """Pairs in which the change's figure ``b`` beats the parent's ``a``."""
    return sum((y < x) if lower else (y > x) for x, y in zip(a, b))


def compare(a, b, lower):
    """Medians, quartiles and the change's wins of paired figures ``a``
    (parent) and ``b`` (change)."""
    return {"parent_median": statistics.median(a), "parent_quartiles": quartiles(a),
            "change_median": statistics.median(b), "change_quartiles": quartiles(b),
            "change_wins": f"{wins(a, b, lower)}/{len(a)}"}


def summarise(pairs, spec):
    """Medians, quartiles, wins, the relative change of the median, the
    medians per run order and the two verdicts, per end-to-end metric;
    ``change_worse_by`` is positive when the change is worse."""
    out = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        a = [p["parent"][name] for p in pairs]
        b = [p["change"][name] for p in pairs]
        out[name] = s = compare(a, b, lower)
        pa, pb, qa = s["parent_median"], s["change_median"], s["parent_quartiles"]
        worse = ((pb - pa) if lower else (pa - pb)) / abs(pa) if pa else 0.0
        beyond_iqr = ((pa - pb) if lower else (pb - pa)) > qa[1] - qa[0]
        # even pairs ran the parent first, odd pairs the change
        by_order = {order: {"parent_median": statistics.median(a[first::2]),
                            "change_median": statistics.median(b[first::2])}
                    for order, first in (("parent_first", 0), ("change_first", 1))}
        better_in_each_order = all(
            wins([h["parent_median"]], [h["change_median"]], lower) for h in by_order.values())
        s.update({
            "change_worse_by": worse, "bound": m["bound"], "by_order": by_order,
            "better_beyond_parent_iqr": beyond_iqr,
            "better_in_each_order": better_in_each_order,
            "gain_shown": (wins(a, b, lower) >= 0.9 * len(pairs) and beyond_iqr
                           and better_in_each_order),
            "beyond_bound": worse > m["bound"],
        })
    return out


def summarise_raw(pairs, spec):
    """Medians, quartiles and wins of stepbench's raw wall figures, the
    uncalibrated times beside the calibrated metrics, with no verdict;
    over the pairs whose two runs both printed them."""
    lower = {m["name"]: m["better"] == "lower" for m in spec}
    pairs = [p for p in pairs if "raw" in p["parent"] and "raw" in p["change"]]
    if not pairs:
        return {}
    return {name: compare([p["parent"]["raw"][name] for p in pairs],
                          [p["change"]["raw"][name] for p in pairs], lower[name])
            for name in RAW_METRICS}


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    spec = bench["end_to_end"]
    metrics = [m["name"] for m in spec]
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {
        "command": "python3 stepbench/run.py --workload <w> --seed <s> --seconds "
                   f"{seconds:g} --trace 0",
        "host": host(),
        "order": "pairs alternate which side runs first (even index: parent first); "
                 "the workloads take turns: " + ", ".join(workloads),
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "seeds": f"{args.seed0}-{args.seed0 + PAIRS - 1}",
        "parent": commit(sides["parent"]), "change": commit(sides["change"]),
        "workloads": {w: {"pairs": []} for w in workloads},
    }
    for i in range(PAIRS):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(sides[side], w, seed, seconds, metrics)
            result["workloads"][w]["pairs"].append(pair)
            p50 = [pair[s]["step_ms.p50"] for s in ("parent", "change")]
            print(f"pair {i} {w}: step_ms.p50 parent {p50[0]:.3f} change {p50[1]:.3f}",
                  flush=True)
    for w in workloads:
        pairs = result["workloads"][w]["pairs"]
        result["workloads"][w]["summary"] = summarise(pairs, spec)
        result["workloads"][w]["raw_summary"] = summarise_raw(pairs, spec)
    out = sides["change"] / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")

if __name__ == "__main__":
    main()
