"""Every demo runs to completion: the three fixture runs for two steps, the
two verification demos as shipped."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = os.path.join(ROOT, "demos")


# these two take no run length and write nothing unless given --plot-dir
AS_SHIPPED = {"flux_recovery_convergence", "sliding_band_accuracy"}


@pytest.mark.parametrize("demo", ["hotwire_traverse", "power_rampup", "probe_descent",
                                  *sorted(AS_SHIPPED)])
def test_demo_runs(tmp_path, demo):
    args = [] if demo in AS_SHIPPED else ["--steps", "2", "--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(ROOT, "src")))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo + ".py"), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
