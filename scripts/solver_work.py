#!/usr/bin/env python3
"""The solver's work and results on four bundled fixture runs.

    python3 scripts/solver_work.py

Runs probe_temperature (60 steps), power_3kw (180), hotwire (180) and
power_1kw (60) in a temporary directory, without VTK snapshots, and prints
for each the number of slabs factored, how many of them were refactored
(factored although their structure held an LU when ``solve`` was called:
a band step too far from the held LU's, or a held LU with which GMRES
failed), the GMRES steps summed over all slabs, the full products with a
slab operator (``SlabOperator._apply`` calls), the evaluations of the melt
closures' residual in their root solves (``velocity.solve_scalar``), the
band's slips and wrapped nodes summed over the steps (``motion.advance``),
the final displacement and the mean U over the last 10% of the steps.  It
times nothing, so its numbers are the same on any host; a change to the
solver compares them with the parent's.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ccmsim import driver, motion, stfem, velocity  # noqa: E402

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RUNS = [("probe_temperature", 60), ("power_3kw", 180), ("hotwire", 180), ("power_1kw", 60)]


def main() -> None:
    work, products, evaluations, moves = [], [], [], []
    solve, apply = stfem.SlabOperator.solve, stfem.SlabOperator._apply
    solve_scalar, advance = velocity.solve_scalar, motion.advance

    def counted(op):
        held = op.structure.lu is not None
        sol = solve(op)
        work.append((sol.factored, held and sol.factored, sol.refinements))
        return sol

    def applied(op, x):
        products.append(None)
        return apply(op, x)

    def evaluated(f, lo, hi, **kwargs):
        def g(U):
            evaluations.append(None)
            return f(U)
        return solve_scalar(g, lo, hi, **kwargs)

    def moved(mesh, state, distance):
        res = advance(mesh, state, distance)
        moves.append((res.slips, res.wrapped_nodes.size))
        return res

    stfem.SlabOperator.solve = counted
    stfem.SlabOperator._apply = applied
    velocity.solve_scalar = evaluated
    motion.advance = moved
    logging.disable(logging.WARNING)         # the runs' own warnings, not the table
    print(f"{'fixture':<18} {'steps':>5} {'factored':>8} {'refactored':>10} {'gmres':>6} "
          f"{'products':>8} {'closure f':>9} {'slips':>5} {'wrapped':>7} "
          f"{'displacement (m)':>17} {'mean U (m/s)':>13}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, n_steps in RUNS:
            cfg = driver.load_config(os.path.join(ROOT, "fixtures", name + ".ini"))
            cfg = dataclasses.replace(cfg, n_steps=n_steps, vtk_every=0,
                                      out_dir=os.path.join(tmp, name))
            work.clear()
            products.clear()
            evaluations.clear()
            moves.clear()
            summary = driver.run(cfg).summary
            factored, refactored, gmres = map(sum, zip(*work))
            slips, wrapped = map(sum, zip(*moves))
            print(f"{name:<18} {n_steps:>5} {factored:>8} {refactored:>10} "
                  f"{gmres:>6} {len(products):>8} {len(evaluations):>9} "
                  f"{slips:>5} {wrapped:>7} "
                  f"{summary.final_displacement:>17.9e} "
                  f"{summary.mean_velocity_last_10pct:>13.9e}")


if __name__ == "__main__":
    main()
