"""Re-record ``reference.json``, the trajectories the correctness gate uses.

Runs the longest repetition any seed can ask for of each driver workload
and stores its per-step velocity, displacement and sensor values.  Run it
only after a deliberate change to the physics, from the checkout root:

    python3 stepbench/record_reference.py
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ccmsim import driver  # noqa: E402
from workloads import REFERENCE, WORKLOADS, DriverWorkload  # noqa: E402


def main() -> int:
    reference = {}
    for name, wl in WORKLOADS.items():
        if not isinstance(wl, DriverWorkload):
            continue
        out_dir = HERE / "out" / "reference" / name
        shutil.rmtree(out_dir, ignore_errors=True)
        driver.run(wl.load(wl.max_steps, out_dir))
        reference[name] = wl.trajectory(out_dir)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
