#!/usr/bin/env python3
"""The solver's work and results on four bundled fixture runs.

    python3 scripts/solver_work.py

Runs probe_temperature (60 steps), power_3kw (180), hotwire (180) and
power_1kw (60) in a temporary directory, without VTK snapshots, and prints
for each the number of slabs factored, how many of them were refactored
(factored although their structure held an LU when ``solve`` was called:
a band step too far from the held LU's, or a held LU with which GMRES
failed), the GMRES steps summed over all slabs and all their attempts
(``SlabOperator._gmres`` steps, those of a held LU that failed included),
the full products with a slab operator (``SlabOperator._apply`` calls: one
per slab, that of the solution it returns, plus one per GMRES restart and
per held LU that failed), the applications of what the LU leaves out of it
(``SlabOperator._remainder`` calls, ``split``: the start's ``R u`` on a
slab with a rate, the first solve's residual and one per GMRES step), the
evaluations of the melt closures' residual in their
root solves (``velocity.solve_scalar``), the band's slips and wrapped nodes
summed over the steps (``motion.advance``), the final displacement and the
mean U over the last 10% of the steps.  It times nothing, so its numbers
are the same on any host; a change to the solver compares them with the
parent's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ccmsim import driver, motion, stfem, velocity  # noqa: E402

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RUNS = [("probe_temperature", 60), ("power_3kw", 180), ("hotwire", 180), ("power_1kw", 60)]


@dataclasses.dataclass
class Work:
    """The solver's work counted while :func:`counting` is active."""

    slabs: list = dataclasses.field(default_factory=list)   # (factored, refactored) per slab
    gmres: int = 0
    products: int = 0
    split: int = 0
    evaluations: int = 0
    moves: list = dataclasses.field(default_factory=list)   # (slips, wrapped nodes) per move


@contextlib.contextmanager
def counting():
    """Count the solver's work in the block, in the :class:`Work` it yields."""
    work = Work()
    op = stfem.SlabOperator
    saved = (op.solve, op._gmres, op._apply, op._remainder, velocity.solve_scalar,
             motion.advance)
    solve, gmres, apply, remainder, solve_scalar, advance = saved

    def counted(self):
        held = self.structure.lu is not None
        sol = solve(self)
        work.slabs.append((sol.factored, held and sol.factored))
        return sol

    def stepped(self, *args):
        result = gmres(self, *args)
        work.gmres += result[1]
        return result

    def applied(self, x):
        work.products += 1
        return apply(self, x)

    def split(self, z):
        work.split += 1
        return remainder(self, z)

    def evaluated(f, lo, hi, **kwargs):
        def g(U):
            work.evaluations += 1
            return f(U)
        return solve_scalar(g, lo, hi, **kwargs)

    def moved(mesh, state, distance):
        res = advance(mesh, state, distance)
        work.moves.append((res.slips, res.wrapped_nodes.size))
        return res

    op.solve, op._gmres, op._apply, op._remainder = counted, stepped, applied, split
    velocity.solve_scalar, motion.advance = evaluated, moved
    try:
        yield work
    finally:
        (op.solve, op._gmres, op._apply, op._remainder, velocity.solve_scalar,
         motion.advance) = saved


def main() -> None:
    logging.disable(logging.WARNING)         # the runs' own warnings, not the table
    print(f"{'fixture':<18} {'steps':>5} {'factored':>8} {'refactored':>10} {'gmres':>6} "
          f"{'products':>8} {'split':>6} {'closure f':>9} {'slips':>5} {'wrapped':>7} "
          f"{'displacement (m)':>17} {'mean U (m/s)':>13}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, n_steps in RUNS:
            cfg = driver.load_config(os.path.join(ROOT, "fixtures", name + ".ini"))
            cfg = dataclasses.replace(cfg, n_steps=n_steps, vtk_every=0,
                                      out_dir=os.path.join(tmp, name))
            with counting() as work:
                summary = driver.run(cfg).summary
            factored, refactored = map(sum, zip(*work.slabs))
            slips, wrapped = map(sum, zip(*work.moves))
            print(f"{name:<18} {n_steps:>5} {factored:>8} {refactored:>10} "
                  f"{work.gmres:>6} {work.products:>8} {work.split:>6} "
                  f"{work.evaluations:>9} {slips:>5} {wrapped:>7} "
                  f"{summary.final_displacement:>17.9e} "
                  f"{summary.mean_velocity_last_10pct:>13.9e}")


if __name__ == "__main__":
    main()
