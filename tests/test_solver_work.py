"""The counts of ``scripts/solver_work.py``: on a slab whose held LU fails,
and the products of a fixture run."""

import dataclasses
import importlib.util
import os
import sys

import numpy as np

from ccmsim import driver, meshgen, stfem
from ccmsim.stfem import SlabProblem, solve_slab

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "solver_work", os.path.join(REPO_ROOT, "scripts", "solver_work.py"))
solver_work = sys.modules["solver_work"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_work)


def test_gmres_steps_of_a_held_lu_that_fails_are_counted(monkeypatch):
    # the doubled-dt slab of test_held_factor_that_does_not_converge_is_replaced:
    # GMRES with the held LU stops after MAX_REFINEMENTS = 4 steps, and the
    # slab is factored anew and solved without GMRES.  The solution reports
    # the last attempt's 0 steps; the count has all 4.  The held attempt
    # applies R twice before GMRES, to the plan's rate for its start and to
    # the first solve's correction for its residual
    mesh = meshgen.make_unit_square(8)
    right = np.unique(mesh.tagged_edges("right"))
    prob = SlabProblem(mesh.nodes, mesh.nodes, mesh.triangles, dt=0.01, alpha=1.0,
                       t_prev=np.ones(81), dirichlet_nodes=right, dirichlet_values=np.zeros(9),
                       plan=driver.slab_plan(mesh, None),
                       active=np.ones(mesh.n_triangles, dtype=bool))
    assert solve_slab(prob).factored
    monkeypatch.setattr(stfem, "MAX_REFINEMENTS", 4)
    with solver_work.counting() as work:
        sol = solve_slab(dataclasses.replace(prob, dt=0.02))
    assert sol.factored and sol.refinements == 0
    assert work.slabs == [(True, True)]
    assert work.gmres == 4
    assert work.products == 2 and work.split == 2 + 4
    # counting ends with the block
    solve_slab(prob)
    assert work.slabs == [(True, True)] and work.gmres == 4


def test_a_run_makes_one_product_per_slab(fixture_dir, tmp_path):
    # each slab's start goes through R, so the one product with the exact
    # operator is that of the solution returned, which flux recovery reuses
    cfg = driver.load_config(os.path.join(fixture_dir, "power_3kw.ini"))
    cfg = dataclasses.replace(cfg, n_steps=12, vtk_every=0, out_dir=str(tmp_path))
    with solver_work.counting() as work:
        driver.run(cfg)
    assert len(work.slabs) == 12
    assert work.products == 12
