import numpy as np
import pytest

from ccmsim import meshgen, stfem
from ccmsim.verify import (
    ErrorTable,
    convergence_rate,
    l2_error,
    run_cbf_case,
    run_meshupdate_case,
)

from oracles import l2_error_quad5


def test_l2_error_exact_for_quadratic_integrand():
    # with a P1 field and exact = 0 the squared difference is quadratic,
    # where both the package's degree-2 rule and the oracle's degree-5
    # rule are exact: ||2x - y||_L2 = sqrt(2/3) on the unit square
    mesh = meshgen.make_unit_square(9)
    vals = 2.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1]

    def zero(xy):
        return np.zeros(len(xy))

    analytic = np.sqrt(2.0 / 3.0)
    assert l2_error(mesh.nodes, mesh.triangles, vals, zero) == pytest.approx(analytic, rel=1e-13)
    assert l2_error_quad5(mesh.nodes, mesh.triangles, vals, zero) == pytest.approx(analytic, rel=1e-13)


def test_l2_error_against_higher_order_quadrature():
    # interpolation error of x^2 on P1: the integrand is quartic, so the
    # degree-2 rule is inexact -- but since every element has the same
    # shape, the discrepancy against the exact degree-5 oracle is the
    # same fixed factor at every grid size
    def exact(xy):
        return xy[:, 0] ** 2

    ratios = []
    for n in (10, 20):
        mesh = meshgen.make_unit_square(n)
        vals = mesh.nodes[:, 0] ** 2
        ours = l2_error(mesh.nodes, mesh.triangles, vals, exact)
        ref = l2_error_quad5(mesh.nodes, mesh.triangles, vals, exact)
        assert 0.9 < ours / ref < 1.0
        ratios.append(ours / ref)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-10)
    # and the n = 20 norm has the expected O(h^2) magnitude
    assert 1e-4 < ours < 1e-3


def test_l2_error_traversal_order_independent():
    mesh = meshgen.make_unit_square(8)
    vals = np.sin(mesh.nodes[:, 0]) + mesh.nodes[:, 1]

    def exact(xy):
        return np.cos(xy[:, 1])

    rng = np.random.default_rng(11)
    conn = mesh.triangles[rng.permutation(len(mesh.triangles))]
    conn = np.roll(conn, 1, axis=1)        # cyclic: preserves orientation
    a = l2_error(mesh.nodes, mesh.triangles, vals, exact)
    b = l2_error(mesh.nodes, conn, vals, exact)
    assert a == pytest.approx(b, rel=1e-13)
    # and over no triangles at all it is zero
    assert l2_error(mesh.nodes, np.empty((0, 3), np.int64), vals, exact) == 0.0


def test_error_table_contract():
    t = ErrorTable()
    t.add_row(0.2, 0.1, 1e-2, 0.5)
    t.add_row(0.1, 0.1, 3e-3, 1.1)
    with pytest.raises(ValueError, match="finite"):
        t.add_row(0.05, 0.1, float("nan"), 0.1)
    with pytest.raises(ValueError, match="finite"):
        t.add_row(0.05, 0.1, -1e-3, 0.1)
    assert t.error == [1e-2, 3e-3]             # a rejected row is not added


def test_error_table_csv(tmp_path):
    t = ErrorTable()
    t.add_row(0.2, 1.0, 2.5e-3, 0.25)
    t.add_row(0.1, 1.0, 1.2e-3, 0.75)
    path = tmp_path / "errors.csv"
    t.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h,dt,error,runtime"
    assert len(lines) == 3
    h, dt, e, r = (float(v) for v in lines[1].split(","))
    assert (h, dt, e, r) == (0.2, 1.0, 2.5e-3, 0.25)


def test_convergence_rate_recovers_synthetic_slope():
    t = ErrorTable()
    for h in (0.4, 0.2, 0.1, 0.05):
        t.add_row(h, 1.0, 3.0 * h**1.2, 0.0)
    assert convergence_rate(t) == pytest.approx(1.2, rel=1e-12)


def test_convergence_rate_errors():
    t = ErrorTable()
    t.add_row(0.2, 1.0, 1e-2, 0.0)
    with pytest.raises(ValueError, match="two rows"):
        convergence_rate(t)
    t.add_row(0.1, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        convergence_rate(t)


def test_meshupdate_case_exact_when_band_static():
    # zero sliding velocity: nothing moves, the stationary linear field
    # must be preserved to machine precision
    assert run_meshupdate_case(0.2, velocity=0.0, n_steps=3) <= 1e-12


def test_cases_of_no_steps_build_no_slab(monkeypatch):
    def no_slab(*args, **kwargs):
        raise AssertionError("a slab was built")
    monkeypatch.setattr(stfem.SlabOperator, "__init__", no_slab)
    table = run_cbf_case(h=0.25, n_steps=0)
    assert (table.h, table.dt, table.error, table.runtime) == ([], [], [], [])
    assert run_meshupdate_case(0.25, n_steps=0) == 0.0


def test_benchmark_grid_must_tile_unit_square():
    with pytest.raises(ValueError, match="divide"):
        run_cbf_case(h=0.3, n_steps=1)
    with pytest.raises(ValueError, match="divide"):
        run_meshupdate_case(0.3, n_steps=1)
