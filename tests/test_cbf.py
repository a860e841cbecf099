import dataclasses
import os

import numpy as np
import numpy.testing as npt
import pytest

from ccmsim import driver, meshgen
from ccmsim.cbf import recover_flux, series_flux_reference
from ccmsim.stfem import SlabOperator, SlabProblem
from ccmsim.verify import run_cbf_case

from oracles import cn_cooling, recover_flux_sparse


def steady_linear_setup(n=10, alpha=0.7, dt=0.3):
    """Steady T = x held by Dirichlet data on the whole boundary."""
    mesh = meshgen.make_unit_square(n)
    exact = mesh.nodes[:, 0]
    bnodes = np.unique(mesh.tagged_edges(("left", "right", "bottom", "top")))
    prob = SlabProblem(mesh.nodes, mesh.nodes, mesh.triangles, dt=dt,
                       alpha=alpha, t_prev=exact, dirichlet_nodes=bnodes,
                       dirichlet_values=exact[bnodes])
    op = SlabOperator(prob)
    return mesh, op, op.solve()


def test_uniform_flux_recovered_exactly():
    # T = x, alpha = 0.7, rho*cp = 2.5: conductive flux through the right
    # edge is -k dT/dn = -1.75 (heat enters the solid there)
    mesh, op, sol = steady_linear_setup()
    edges = mesh.tagged_edges("right")
    fr = recover_flux(op, sol, edges, rho_cp=2.5)
    npt.assert_allclose(fr.nodal_flux, -1.75, atol=1e-10)
    assert fr.q_s_avg == pytest.approx(-1.75, abs=1e-10)
    npt.assert_array_equal(fr.nodes, np.unique(edges))

    # through the left edge the same field carries heat OUT of the solid
    fr_left = recover_flux(op, sol, mesh.tagged_edges("left"), rho_cp=2.5)
    npt.assert_allclose(fr_left.nodal_flux, +1.75, atol=1e-10)


def test_open_chain_end_artifact():
    # recovering on a sub-chain that ends mid-edge leaves the cut node's
    # residual carrying both adjacent edges while the chain mass sees only
    # one: the end value inflates by about 1 + sqrt(3), decaying
    # geometrically into the chain.  This is why sub-window averages need
    # interior margin from any cut.
    mesh, op, sol = steady_linear_setup(n=12)
    edges = mesh.tagged_edges("right")
    mid_y = 0.5 * (mesh.nodes[edges[:, 0], 1] + mesh.nodes[edges[:, 1], 1])
    lower = edges[mid_y < 0.5]
    fr = recover_flux(op, sol, lower, rho_cp=2.5)
    ratio = fr.nodal_flux / -1.75
    ys = mesh.nodes[fr.nodes, 1]
    cut = np.argmax(ys)                      # node at the y = 0.5 cut
    corner = np.argmin(ys)                   # true boundary corner y = 0
    assert 2.5 < ratio[cut] < 3.0
    assert ratio[corner] == pytest.approx(1.0, abs=0.02)
    # three or more edges away from the cut the artifact has decayed
    far = ratio[ys < 0.5 - 3.0 * (1.0 / 12)]
    npt.assert_allclose(far, 1.0, atol=0.05)


def test_chain_mean_weights_each_node_by_half_its_edges():
    # on the open sub-chain the nodal values are far from uniform, so the
    # chain mean must be the length-weighted one, not the plain node mean
    mesh, op, sol = steady_linear_setup(n=12)
    edges = mesh.tagged_edges("right")
    mid_y = 0.5 * (mesh.nodes[edges[:, 0], 1] + mesh.nodes[edges[:, 1], 1])
    lower = edges[mid_y < 0.5]
    fr = recover_flux(op, sol, lower, rho_cp=2.5)
    ell = np.linalg.norm(mesh.nodes[lower[:, 1]] - mesh.nodes[lower[:, 0]], axis=1)
    w = np.zeros(fr.nodes.size)
    for (a, b), e in zip(np.searchsorted(fr.nodes, lower), ell):
        w[a] += 0.5 * e
        w[b] += 0.5 * e
    assert fr.q_s_avg == pytest.approx(np.dot(w, fr.nodal_flux) / w.sum(), rel=1e-12)
    assert fr.q_s_avg != pytest.approx(np.mean(fr.nodal_flux), rel=1e-3)


def assert_matches_sparse_chain_solve(op, sol, edges, rho_cp):
    """The dense chain solve agrees with the sparse one to 1e-13; returns
    the number of chain nodes."""
    fr = recover_flux(op, sol, edges, rho_cp)
    nodes, flux, q_s_avg = recover_flux_sparse(op, sol, edges, rho_cp)
    npt.assert_array_equal(fr.nodes, nodes)
    scale = np.max(np.abs(flux))
    assert np.max(np.abs(fr.nodal_flux - flux)) <= 1e-13 * scale
    assert abs(fr.q_s_avg - q_s_avg) <= 1e-13 * scale
    return fr, len(nodes)


def test_closed_loop_matches_the_sparse_chain_solve():
    # the whole boundary of the square: a chain with no ends
    mesh, op, sol = steady_linear_setup(n=7)
    edges = mesh.tagged_edges(("left", "right", "bottom", "top"))
    _, k = assert_matches_sparse_chain_solve(op, sol, edges, 2.5)
    assert k == len(edges) == 28


@pytest.mark.parametrize("name", ["probe_temperature", "power_1kw", "power_3kw", "hotwire"])
def test_fixture_tips_match_the_sparse_chain_solve(fixture_dir, tmp_path, monkeypatch, name):
    # every step's tip chain of a transient fixture run; the chains have at
    # most 31 nodes, which the dense solve's O(k^3) assumes
    sizes = []

    def checked(op, sol, edges, rho_cp):
        fr, k = assert_matches_sparse_chain_solve(op, sol, edges, rho_cp)
        sizes.append(k)
        return fr

    monkeypatch.setattr(driver, "recover_flux", checked)
    cfg = driver.load_config(os.path.join(fixture_dir, name + ".ini"))
    driver.run(dataclasses.replace(cfg, n_steps=3, vtk_every=0, out_dir=str(tmp_path)))
    assert len(sizes) == 3 and 9 <= min(sizes) and max(sizes) <= 31


def test_empty_edge_set_rejected():
    mesh, op, sol = steady_linear_setup(n=4)
    with pytest.raises(ValueError, match="at least one"):
        recover_flux(op, sol, np.empty((0, 2), dtype=np.int64), 1.0)


def test_series_flux_reference_values():
    # frozen 40-digit evaluations of  2 * sum exp(-((2n-1)pi/2)^2 t)
    assert series_flux_reference(0.05) == pytest.approx(2.5231325116190326, rel=1e-12)
    assert series_flux_reference(0.25) == pytest.approx(1.0870454503520214, rel=1e-12)
    assert series_flux_reference(1.0) == pytest.approx(0.169609945395983, rel=1e-12)
    # long-time limit: a single mode survives
    assert series_flux_reference(3.0) == pytest.approx(
        2.0 * np.exp(-np.pi ** 2 * 3.0 / 4.0), rel=1e-12)


def test_series_flux_matches_finite_difference_oracle():
    _x, _T, q_end = cn_cooling(t_end=0.25)
    assert q_end == pytest.approx(series_flux_reference(0.25), rel=5e-6)


def test_series_flux_requires_positive_time():
    with pytest.raises(ValueError, match="t > 0"):
        series_flux_reference(0.0)
    with pytest.raises(ValueError, match="t > 0"):
        series_flux_reference(-0.1)


def test_series_flux_too_early_to_sum_is_a_value_error():
    # about sqrt(32 / t) / pi terms reach the truncation: past 100001 of them
    # the time is too early for the series, not a numerical failure
    assert series_flux_reference(1e-9) > 0.0
    with pytest.raises(ValueError, match="100001 terms"):
        series_flux_reference(1e-300)


def test_cooling_benchmark_flux_errors_decay():
    # the reference flux is singular at t = 0, so the first slab is poor by
    # construction; accuracy recovers fast once the front is resolved
    table = run_cbf_case(h=0.1, dt=0.05, n_steps=4)
    assert len(table.error) == 4
    assert all(e2 < e1 for e1, e2 in zip(table.error, table.error[1:]))
    assert table.error[1] < 5e-2
    assert table.error[-1] < 1e-3
