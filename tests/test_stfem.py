import dataclasses
import os

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmsim import driver, meshgen, motion, stfem, verify
from ccmsim.errors import NumericalError
from ccmsim.mesh import load_mesh, tri_areas
from ccmsim.stfem import (
    SlabOperator,
    SlabProblem,
    SlabSolution,
    integrate_nodal,
    solve_slab,
)

from oracles import (SlabOperatorEveryTerm, SlabPlanByUnique, lhs_by_identity_sum,
                     prism_amplification, slab_residual)


def square_problem(n=8, dt=0.1, alpha=1.0, t_prev=None, **kw):
    mesh = meshgen.make_unit_square(n)
    if t_prev is None:
        t_prev = np.zeros(mesh.n_nodes)
    prob = SlabProblem(mesh.nodes, mesh.nodes, mesh.triangles, dt=dt,
                       alpha=alpha, t_prev=t_prev, **kw)
    return mesh, prob


def moved_interior(mesh, n, frac, rng):
    """Node coordinates with each interior node moved by less than frac * h."""
    coords = mesh.nodes.copy()
    bnodes = np.unique(mesh.tagged_edges(("left", "right", "bottom", "top")))
    interior = np.setdiff1d(np.arange(mesh.n_nodes), bnodes)
    r = frac / n * rng.uniform(0.0, 1.0, interior.size)
    phi = rng.uniform(0.0, 2.0 * np.pi, interior.size)
    coords[interior] += np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    return coords, bnodes


# a moved interior node stays inside the disc of radius 0.3 h round its
# grid position at every time level, so no prism cross-section inverts
slab_draws = dict(n=st.integers(2, 8), frac=st.floats(0.0, 0.3, exclude_max=True),
                  dt=st.floats(1e-3, 10.0), alpha=st.floats(0.1, 10.0),
                  seed=st.integers(0, 2**32 - 1))


def test_integrate_nodal_linear_exact():
    mesh = meshgen.make_unit_square(6)
    v = 2.0 + 3.0 * mesh.nodes[:, 0] - 1.0 * mesh.nodes[:, 1]
    # integral of 2 + 3x - y over the unit square = 2 + 1.5 - 0.5
    assert integrate_nodal(mesh.nodes, mesh.triangles, v) == pytest.approx(3.0, abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(**slab_draws)
def test_conservation_insulated(n, frac, dt, alpha, seed):
    # no Dirichlet rows, natural (insulated) boundary everywhere: the total
    # heat content of the new trace equals that of the previous trace, also
    # while interior nodes move
    rng = np.random.default_rng(seed)
    mesh = meshgen.make_unit_square(n)
    coords_old, _ = moved_interior(mesh, n, frac, rng)
    coords_new, _ = moved_interior(mesh, n, frac, rng)
    t_prev = rng.uniform(0.0, 2.0, mesh.n_nodes)
    sol = solve_slab(SlabProblem(coords_old, coords_new, mesh.triangles, dt=dt,
                                 alpha=alpha, t_prev=t_prev))
    before = integrate_nodal(coords_old, mesh.triangles, t_prev)
    after = integrate_nodal(coords_new, mesh.triangles, sol.t_top)
    assert abs(after - before) / abs(before) < 1e-10


def test_linear_exactness_static():
    mesh, prob = square_problem(n=6, dt=0.25, alpha=0.7)
    exact = 1.0 + 2.0 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1]
    bnodes = np.unique(mesh.tagged_edges(("left", "right", "bottom", "top")))
    prob.t_prev = exact
    prob.dirichlet_nodes = bnodes
    prob.dirichlet_values = exact[bnodes]
    sol = solve_slab(prob)
    npt.assert_allclose(sol.t_top, exact, atol=5e-13)
    npt.assert_allclose(sol.t_bot, exact, atol=5e-13)       # zero jump


@settings(max_examples=20, deadline=None)
@given(**slab_draws)
def test_linear_exactness_moving_mesh(n, frac, dt, alpha, seed):
    # a steady linear field stays exact when interior nodes move between the
    # slab's bottom and top coordinate sets
    rng = np.random.default_rng(seed)
    mesh = meshgen.make_unit_square(n)
    coords_old, bnodes = moved_interior(mesh, n, frac, rng)
    coords_new, _ = moved_interior(mesh, n, frac, rng)

    def field(c):
        return 0.4 - 1.3 * c[:, 0] + 0.8 * c[:, 1]

    prob = SlabProblem(coords_old, coords_new, mesh.triangles, dt=dt,
                       alpha=alpha, t_prev=field(coords_old),
                       dirichlet_nodes=bnodes,
                       dirichlet_values=field(coords_new[bnodes]))
    sol = solve_slab(prob)
    # the top trace is the linear field sampled at the NEW positions
    npt.assert_allclose(sol.t_top, field(coords_new), atol=5e-12)


def test_residual_matches_weak_form_oracle():
    rng = np.random.default_rng(11)
    n = 6
    mesh = meshgen.make_unit_square(n)
    coords_old, _ = moved_interior(mesh, n, 0.29, rng)
    coords_new, _ = moved_interior(mesh, n, 0.29, rng)
    t_prev, t_bot, t_top = rng.uniform(-1.0, 2.0, (3, mesh.n_nodes))
    op = SlabOperator(SlabProblem(coords_old, coords_new, mesh.triangles, dt=0.37,
                                  alpha=1.7, t_prev=t_prev))
    r = op.unconstrained_residual(SlabSolution(t_bot, t_top, 0.0))
    ref = slab_residual(coords_old, coords_new, mesh.triangles, 0.37, 1.7,
                        t_prev, t_bot, t_top)
    assert np.max(np.abs(r - ref)) <= 1e-12 * np.max(np.abs(ref))


unit = st.floats(-1.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(x0=st.tuples(unit, unit), r1=st.floats(0.1, 1.0), r2=st.floats(0.1, 1.0),
       phi=st.floats(0.0, 2.0 * np.pi), beta=st.floats(0.2, np.pi - 0.2),
       d=st.one_of(st.just((0.0, 0.0)), st.tuples(unit, unit)),
       dt=st.floats(1e-3, 10.0), alpha=st.floats(0.1, 10.0))
def test_rigid_block_closed_form_matches_time_quadrature(x0, r1, r2, phi, beta, d, dt,
                                                         alpha):
    # a triangle that translates by d with the band keeps its shape, so its
    # space-time block is exactly P (x) M_e + D (x) N_e, assembled in closed
    # form from its plan; the 2-point rule in time integrates it exactly too
    e1 = r1 * np.array([np.cos(phi), np.sin(phi)])
    e2 = r2 * np.array([np.cos(phi + beta), np.sin(phi + beta)])
    xo = np.array(x0) + np.array([[0.0, 0.0], e1, e2])
    conn = np.array([[0, 1, 2]])
    plan = stfem.SlabPlan(3, conn, xo[conn], [False], [True])     # one band element
    op = SlabOperator(SlabProblem(xo, xo + np.array(d), conn, dt=dt, alpha=alpha,
                                  t_prev=np.zeros(3), plan=plan, active=np.ones(1, dtype=bool)))
    assert op._zipper is None                            # classified rigid
    mn = op._mn.toarray()
    closed = np.kron(stfem._P, mn.real) + np.kron(stfem._D, mn.imag)
    theta = stfem._theta_blocks(xo[None], (xo + np.array(d))[None], dt, alpha)[0]
    theta[:3, :3] += 2.0 * tri_areas(xo, np.array([[0, 1, 2]]))[0] * stfem._M   # jump
    assert np.max(np.abs(closed - theta)) <= 1e-12 * np.max(np.abs(theta))


def band_slab(distance, n=8, dt=0.37, alpha=1.7, planned=False):
    """A strip-square slab whose band slides down by ``distance``, on the
    band's own slab plan if ``planned``, else on a one-off plan.

    Returns the problem and, per slab element, whether it is a zipper
    triangle.  The slab mixes static flanks, translating strip elements
    and (for distance > 0) shearing zipper triangles.
    """
    rng = np.random.default_rng(5)
    mesh = meshgen.make_strip_square(n)
    state = motion.init_motion(mesh, (0.0, -1.0))
    coords_old = mesh.nodes.copy()
    act = motion.active_elements(mesh, state)
    wrapped = motion.advance(mesh, state, distance).wrapped_nodes
    act &= motion.active_elements(mesh, state) & ~np.isin(mesh.triangles, wrapped).any(axis=1)
    prob = SlabProblem(coords_old, mesh.nodes.copy(), mesh.triangles[act], dt=dt,
                       alpha=alpha, t_prev=rng.uniform(-1.0, 2.0, mesh.n_nodes))
    if planned:
        prob.plan, prob.active = driver.slab_plan(mesh, state), act
    return prob, state.tri_code[act] == motion.ROLE_CODE["update"]


def assert_residual_matches_oracle(prob):
    rng = np.random.default_rng(6)
    t_bot, t_top = rng.uniform(-1.0, 2.0, (2, len(prob.coords_old)))
    op = SlabOperator(prob)
    r = op.unconstrained_residual(SlabSolution(t_bot, t_top, 0.0))
    ref = slab_residual(prob.coords_old, prob.coords_new, prob.conn, prob.dt, prob.alpha,
                        prob.t_prev, t_bot, t_top)
    assert np.max(np.abs(r - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sliding_band_residual_matches_weak_form_oracle():
    prob, _ = band_slab(0.4 / 8)          # 0.4 of a row: no slip
    assert_residual_matches_oracle(prob)


@pytest.mark.parametrize("distance", [0.4 / 8, 0.0])
def test_only_zipper_triangles_use_the_time_quadrature(monkeypatch, distance):
    # on the band's plan the zipper triangles, sheared or not, and no strip
    # triangle; on a one-off plan, which has no band, every triangle that moves
    seen = []
    theta_blocks = stfem._theta_blocks

    def traced(xo, xn, dt, alpha):
        seen.append(xo)
        return theta_blocks(xo, xn, dt, alpha)

    monkeypatch.setattr(stfem, "_theta_blocks", traced)
    for planned in (True, False):
        prob, zipper = band_slab(distance, planned=planned)
        seen.clear()
        assert_residual_matches_oracle(prob)
        quadrature = np.concatenate(seen) if seen else np.empty((0, 3, 2))
        moving = (prob.coords_new != prob.coords_old)[prob.conn].any(axis=(1, 2))
        expected = prob.coords_old[prob.conn[zipper if planned else moving]]
        assert zipper.sum() == 2 * 2 * 8       # two seams of two triangles per row
        assert moving.sum() > zipper.sum() if distance > 0 else not moving.any()
        npt.assert_array_equal(quadrature, expected)


def fix_flanks(prob, values):
    """Dirichlet data ``values`` (one per node) on the static left and right
    edges of a ``band_slab(n=8)`` problem."""
    nodes = np.unique(meshgen.make_strip_square(8).tagged_edges(("left", "right")))
    prob.dirichlet_nodes = nodes
    prob.dirichlet_values = values[nodes]
    return prob


def free_row_residual(prob, sol):
    """The weak-form oracle's |b - A x| over the free rows, relative to the
    free rows' right-hand side once the Dirichlet values are moved there
    (the residual of x_D: the Dirichlet values, zero elsewhere)."""
    n = len(prob.coords_old)

    def residual(t_bot, t_top):
        return slab_residual(prob.coords_old, prob.coords_new, prob.conn, prob.dt,
                             prob.alpha, prob.t_prev, t_bot, t_top)

    free = np.zeros(n, dtype=bool)
    free[prob.conn] = True
    free[prob.dirichlet_nodes] = False
    free = np.concatenate([free, free])
    x_d = np.zeros(n)
    x_d[prob.dirichlet_nodes] = prob.dirichlet_values
    return (np.linalg.norm(residual(sol.t_bot, sol.t_top)[free])
            / np.linalg.norm(residual(x_d, x_d)[free]))


def test_residual_norm_measures_the_free_rows(monkeypatch):
    # Dirichlet data near 1e3 would dominate |b| over all rows and hide the
    # residual of the rows actually solved.  Stopping the refinement early
    # leaves a residual far above rounding, which the oracle then recomputes.
    rng = np.random.default_rng(8)
    prob = fix_flanks(band_slab(0.4 / 8)[0], 1e3 + rng.uniform(-1.0, 1.0, 76))
    sol = solve_slab(prob)
    assert sol.residual_norm <= stfem.REFINE_TOL
    assert free_row_residual(prob, sol) <= 1e-12
    monkeypatch.setattr(stfem, "REFINE_TOL", 1e-6, raising=False)
    monkeypatch.setattr(stfem, "SOLVER_TOL", 1e-6)
    sol = solve_slab(prob)
    assert sol.residual_norm == pytest.approx(free_row_residual(prob, sol), rel=1e-6, abs=0.0)
    assert 1e-10 < sol.residual_norm <= 1e-6


def test_residual_norm_ignores_inactive_rows(monkeypatch):
    # nodes of no active element are fixed rows at their previous value, like
    # Dirichlet rows: a large value there enters neither the residual nor its
    # scale, so the reported residual is still the free rows' one
    rng = np.random.default_rng(10)
    prob = fix_flanks(band_slab(0.4 / 8)[0], rng.uniform(-1.0, 2.0, 76))
    idle = np.setdiff1d(np.arange(len(prob.coords_old)), prob.conn)
    assert idle.size > 0
    prob.t_prev[idle] = 1e6
    monkeypatch.setattr(stfem, "REFINE_TOL", 1e-6)
    monkeypatch.setattr(stfem, "SOLVER_TOL", 1e-6)
    sol = solve_slab(prob)
    assert sol.residual_norm == pytest.approx(free_row_residual(prob, sol), rel=1e-6, abs=0.0)
    assert 1e-10 < sol.residual_norm <= 1e-6
    npt.assert_array_equal(sol.t_top[idle], 1e6)


def test_refinement_cap_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(stfem, "MAX_REFINEMENTS", 0)
    with pytest.raises(NumericalError, match="after 0 refinement passes"):
        solve_slab(band_slab(0.4 / 8)[0])


def test_sheared_slab_is_refined():
    sol = solve_slab(band_slab(0.4 / 8)[0])
    assert 1 <= sol.refinements <= stfem.MAX_REFINEMENTS
    assert sol.residual_norm <= stfem.REFINE_TOL


def test_rigid_slab_is_solved_without_refinement():
    # the cooling slab of verify.run_cbf_case(h=0.02, dt=0.01)
    mesh, prob = square_problem(n=50, dt=0.01, t_prev=np.ones(51 * 51))
    prob.dirichlet_nodes = np.unique(mesh.tagged_edges("right"))
    prob.dirichlet_values = np.zeros(51)
    sol = solve_slab(prob)
    assert sol.refinements == 0
    assert sol.residual_norm <= stfem.REFINE_TOL


def test_time_matrices_split_through_the_amplification_poles():
    # D^-1 P has the eigenvalues 2 +- i sqrt(2), the negated poles of the
    # amplification factor (1 - z/3) / (1 + 2z/3 + z^2/6)
    eig = np.sort_complex(np.linalg.eigvals(np.linalg.solve(stfem._D, stfem._P)))
    npt.assert_allclose(eig, [2.0 - 1j * np.sqrt(2.0), 2.0 + 1j * np.sqrt(2.0)], atol=1e-14)
    npt.assert_allclose(np.sort_complex(-np.roots([1.0 / 6.0, 2.0 / 3.0, 1.0])), eig,
                        atol=1e-14)
    assert stfem._LAM == pytest.approx(eig[1], abs=1e-15)


def real_slab_solve(prob):
    """The constrained real 2n x 2n slab, assembled element by element with
    the time quadrature and solved by spsolve: (t_bot, t_top)."""
    n = len(prob.coords_old)
    conn = prob.conn
    xo, xn = prob.coords_old[conn], prob.coords_new[conn]
    jump = 2.0 * tri_areas(prob.coords_old, conn)[:, None, None] * stfem._M
    ke = stfem._theta_blocks(xo, xn, prob.dt, prob.alpha)
    ke[:, :3, :3] += jump
    dof = np.concatenate([conn, conn + n], axis=1)
    a = sp.coo_matrix((ke.ravel(), (np.repeat(dof, 6, axis=1).ravel(),
                                    np.tile(dof, (1, 6)).ravel())), shape=(2 * n, 2 * n)).tolil()
    b = np.zeros(2 * n)
    b[:n] = np.bincount(conn.ravel(), np.einsum("eab,eb->ea", jump, prob.t_prev[conn]).ravel(),
                        minlength=n)
    # Dirichlet rows and the rows of inactive nodes become identity rows
    fixed = np.concatenate([prob.dirichlet_nodes, prob.dirichlet_nodes + n])
    idle = np.setdiff1d(np.arange(n), conn)
    for i in np.concatenate([fixed, idle, idle + n]):
        a.rows[i], a.data[i] = [i], [1.0]
    b[fixed] = np.tile(prob.dirichlet_values, 2)
    b[idle] = b[idle + n] = prob.t_prev[idle]
    x = spla.spsolve(a.tocsc(), b)
    return x[:n], x[n:]


def assert_matches_real_slab_solve(prob):
    sol = solve_slab(prob)
    t_bot, t_top = real_slab_solve(prob)
    scale = max(np.max(np.abs(t_bot)), np.max(np.abs(t_top)))
    assert np.max(np.abs(sol.t_bot - t_bot)) <= 1e-10 * scale
    assert np.max(np.abs(sol.t_top - t_top)) <= 1e-10 * scale
    assert free_row_residual(prob, sol) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(rows=st.floats(0.0, 1.5), dt=st.floats(1e-3, 10.0), alpha=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_complex_split_matches_the_real_slab_solve(rows, dt, alpha, seed):
    # static flanks, a band moved by up to 1.5 rows (slips and shearing
    # zipper triangles included) and random Dirichlet data on both flanks
    rng = np.random.default_rng(seed)
    assert_matches_real_slab_solve(fix_flanks(band_slab(rows / 8, dt=dt, alpha=alpha)[0],
                                              rng.uniform(-1.0, 2.0, 76)))


@pytest.mark.parametrize("rows, dt, alpha", [(4.0, 0.37, 1.7), (4.9, 10.0, 10.0),
                                             (4.9, 1e-3, 0.1)])
def test_band_moved_several_rows_matches_the_real_slab_solve(rows, dt, alpha):
    # a step of several rows (up to just below half the band's ten-row ring)
    # shears the zipper far more than the draws above
    rng = np.random.default_rng(9)
    assert_matches_real_slab_solve(fix_flanks(band_slab(rows / 8, dt=dt, alpha=alpha)[0],
                                              rng.uniform(-1.0, 2.0, 76)))


def test_strong_damping_of_stiff_slabs():
    # a huge time step drives the solution to the steady state regardless of
    # the initial trace (the single-mode response tends to zero, not to a
    # ringing +/- pattern)
    mesh, prob = square_problem(n=8, dt=1e6)
    right = np.unique(mesh.tagged_edges("right"))
    prob.t_prev = np.ones(mesh.n_nodes)
    prob.dirichlet_nodes = right
    prob.dirichlet_values = np.zeros(right.size)
    sol = solve_slab(prob)
    assert np.max(np.abs(sol.t_top)) < 1e-4


def test_single_mode_amplification_matches_rational_function():
    # the slab reduction of u' = -lam*u has amplification
    # R(z) = (1 - z/3) / (1 + 2z/3 + z^2/6); checked against an
    # independently assembled 2x2 system
    for z in (0.05, 0.5, 1.0, 3.0, 7.0, 50.0, 1e4):
        r = (1.0 - z / 3.0) / (1.0 + 2.0 * z / 3.0 + z * z / 6.0)
        assert prism_amplification(z) == pytest.approx(r, rel=1e-12)
    assert prism_amplification(3.0) == pytest.approx(0.0, abs=1e-15)
    assert abs(prism_amplification(1e8)) < 1e-7              # R -> 0


def test_boundary_residual_equals_weak_flux():
    # for the steady field T = x with full Dirichlet data, the summed
    # time-averaged residual over one edge equals the outgoing weak flux
    # alpha * dT/dn * |edge|
    alpha = 1.9
    mesh, prob = square_problem(n=5, dt=0.3, alpha=alpha)
    exact = mesh.nodes[:, 0]
    bnodes = np.unique(mesh.tagged_edges(("left", "right", "bottom", "top")))
    prob.t_prev = exact
    prob.dirichlet_nodes = bnodes
    prob.dirichlet_values = exact[bnodes]
    op = SlabOperator(prob)
    sol = op.solve()
    right = np.unique(mesh.tagged_edges("right"))
    left = np.unique(mesh.tagged_edges("left"))
    r_right = op.node_residual_time_avg(sol, right)
    r_left = op.node_residual_time_avg(sol, left)
    assert np.sum(r_right) == pytest.approx(alpha, rel=1e-10)
    assert np.sum(r_left) == pytest.approx(-alpha, rel=1e-10)


def test_residual_requested_at_inactive_node_raises():
    mesh, prob = square_problem(n=4)
    conn = mesh.triangles[:-4]                   # drop a few elements
    prob = SlabProblem(prob.coords_old, prob.coords_new, conn, dt=prob.dt,
                       alpha=1.0, t_prev=prob.t_prev)
    op = SlabOperator(prob)
    sol = op.solve()
    inactive = np.setdiff1d(np.arange(mesh.n_nodes), np.unique(conn))
    assert inactive.size > 0
    with pytest.raises(ValueError, match="inactive"):
        op.node_residual_time_avg(sol, inactive[:1])


def test_inverted_prism_raises():
    mesh = meshgen.make_unit_square(4)
    coords_new = mesh.nodes.copy()
    # collapse one interior node onto a neighbour hard enough to invert
    coords_new[12] = coords_new[13] + (coords_new[13] - coords_new[12])
    prob = SlabProblem(mesh.nodes, coords_new, mesh.triangles, dt=0.1,
                       alpha=1.0, t_prev=np.zeros(mesh.n_nodes))
    with pytest.raises(NumericalError, match="inverted"):
        SlabOperator(prob)


def assert_same_plan(a, b):
    # every array of the two plans: equal dtypes, shapes and values
    for name in ("indices", "indptr", "rigid", "band"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), name
    for x, y in zip(a.band_entries, b.band_entries):
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), "band_entries"
    for name in ("mass", "diffusion", "grad_x", "grad_y"):
        assert getattr(a, name).shape == getattr(b, name).shape, name
        for part in ("data", "indices", "indptr"):
            x, y = (getattr(getattr(plan, name), part) for plan in (a, b))
            assert x.dtype == y.dtype and np.array_equal(x, y), (name, part)


def assert_run_plan_matches_unique(mesh, state):
    """The run's plan against the one the np.unique plan makes of the same
    mesh and band."""
    plan = driver.slab_plan(mesh, state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "SlabPlan", SlabPlanByUnique)
        ref = driver.slab_plan(mesh, state)
    assert type(ref) is SlabPlanByUnique
    assert_same_plan(plan, ref)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 14), n_virt=st.integers(2, 4), rows=st.floats(0.0, 2.9))
def test_one_sort_plan_matches_the_unique_plan(n, n_virt, rows):
    # a unit square, and a strip square whose band has slid ``rows`` rows
    assert_run_plan_matches_unique(meshgen.make_unit_square(n), None)
    if n >= meshgen.STRIP_MIN_ROWS:
        mesh = meshgen.make_strip_square(n, n_virt)
        state = motion.init_motion(mesh, (0.0, -1.0))
        motion.advance(mesh, state, rows * state.h_row)
        assert_run_plan_matches_unique(mesh, state)


@settings(max_examples=25, deadline=None)
@given(distance=st.floats(0.0, 0.2), **slab_draws)
def test_one_sort_plan_of_a_problem_matches_the_unique_plan(distance, n, frac, dt, alpha, seed):
    # one-off plans: a square whose interior nodes move (sheared elements)
    # and a band slab (translating, static and zipper elements)
    mesh, prob = square_problem(n=n, dt=dt, alpha=alpha)
    prob.coords_new, _ = moved_interior(mesh, n, frac, np.random.default_rng(seed))
    prob_band, _ = band_slab(distance)
    for p in (prob, prob_band):
        assert_same_plan(stfem.SlabPlan.of_problem(p), SlabPlanByUnique.of_problem(p))


@pytest.mark.parametrize("name, direction", [("probe.mesh", (0.0, -1.0)),
                                             ("ramp.mesh", (0.0, -1.0)),
                                             ("hotwire.mesh", (1.0, 0.0))])
def test_one_sort_plan_matches_the_unique_plan_on_the_fixtures(fixture_dir, name, direction):
    mesh = load_mesh(os.path.join(fixture_dir, name))
    assert_run_plan_matches_unique(mesh, motion.init_motion(mesh, direction))


def test_unreachable_solver_tolerance_raises(monkeypatch):
    mesh, prob = square_problem(n=6, dt=0.1)
    prob.t_prev = np.linspace(0.0, 1.0, mesh.n_nodes)
    monkeypatch.setattr(stfem, "SOLVER_TOL", 1e-30)
    with pytest.raises(NumericalError, match="residual"):
        solve_slab(prob)


def test_slab_factorization_keeps_fill_low(monkeypatch):
    # the ordering is pinned by the LU fill it leaves on the cooling slab's
    # complex n x n matrix, not by timing: with PANEL_SIZE = RELAX = 1, MMD on
    # A^T + A leaves about 6.2x nnz(A), the default COLAMD 8.8x
    fills = []
    splu = spla.splu

    def traced(a, *args, **kwargs):
        lu = splu(a, *args, **kwargs)
        fills.append(lu.nnz / a.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", traced)
    verify.run_cbf_case(h=0.02, dt=0.01, n_steps=1)
    assert len(fills) == 1
    assert fills[0] < 7.5


# -- reuse of the run's factor -------------------------------------------------


def counted_splu(monkeypatch):
    """Count the calls of spla.splu; returns the list they append to."""
    calls = []
    splu = spla.splu

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return calls


def fresh(problem):
    """``problem`` without the run's plan: a one-off plan, a new factor."""
    return dataclasses.replace(problem, plan=None, active=None)


def assert_matches_fresh_solve(prob, sol):
    ref = solve_slab(fresh(prob))
    assert ref.factored
    scale = max(np.max(np.abs(ref.t_bot)), np.max(np.abs(ref.t_top)))
    assert np.max(np.abs(sol.t_bot - ref.t_bot)) <= 1e-10 * scale
    assert np.max(np.abs(sol.t_top - ref.t_top)) <= 1e-10 * scale
    assert free_row_residual(prob, sol) <= 1e-12


def test_cooling_run_factors_once(monkeypatch):
    # the static cooling slab keeps its structure and its values, so the
    # first slab's factor solves every later one exactly
    calls = counted_splu(monkeypatch)
    reused = verify.run_cbf_case(h=0.02, dt=0.01, n_steps=10)
    assert len(calls) == 1
    operator = driver.SlabOperator
    monkeypatch.setattr(driver, "SlabOperator", lambda problem: operator(fresh(problem)))
    factored = verify.run_cbf_case(h=0.02, dt=0.01, n_steps=10)
    assert len(calls) == 11
    assert reused.error == factored.error


def test_band_factors_only_slabs_of_a_new_structure(monkeypatch):
    # 0.35 of a row per step: each slip changes the active mask and the
    # zipper connectivity of its own slab only; the slabs between slips
    # reuse the factor although the band moves and the zipper shears.  Three
    # virtual rows, as in the bundled meshes: with two, the rows that wrap at
    # a slip land next to the window and keep the entering row out of the
    # slip slab, so it joins one slab later, a second new structure.  The
    # step never lands a slip on a row line, where the end rows of the
    # window touch it without crossing it and so drop out for one slab.  The
    # plan's SlabStructure is made for exactly the slabs of a new structure
    mesh = meshgen.make_strip_square(8, n_virt=3)
    state = motion.init_motion(mesh, (0.0, -1.0))
    plan = driver.slab_plan(mesh, state)
    background = np.random.default_rng(12).uniform(-1.0, 2.0, mesh.n_nodes)
    flanks = np.unique(mesh.tagged_edges(("left", "right")))
    T = background.copy()
    calls = counted_splu(monkeypatch)
    made, make = [], stfem.SlabStructure
    monkeypatch.setattr(stfem, "SlabStructure", lambda *args: made.append(args) or make(*args))
    held, factored = None, []
    for _ in range(16):
        before, made_before = len(calls), len(made)
        op, sol, T, _ = driver.slab_step(
            mesh, state, T, 0.35 / 8, plan=plan, dt=0.37, alpha=1.7,
            dirichlet_nodes=flanks, dirichlet_values=background[flanks], background=background)
        prob = op.problem
        fixed = np.ones(mesh.n_nodes, dtype=bool)
        fixed[prob.conn] = False
        fixed[flanks] = True
        structure = (prob.active.copy(), prob.conn[plan.zipper[prob.active]], fixed)
        changed = held is None or not all(map(np.array_equal, structure, held))
        held = structure
        assert sol.factored == changed
        assert len(calls) - before == len(made) - made_before == int(changed)
        assert_matches_fresh_solve(prob, sol)
        factored.append(changed)
    assert state.n_slips >= 3
    assert factored.count(True) == state.n_slips + 1


def test_held_factor_serves_only_band_steps_near_its_own(monkeypatch):
    # the band of test_band_factors_only_slabs_of_a_new_structure, its step
    # growing 3x, then 1.5x, then falling 4x and growing 1.5x again, with a
    # slip on the way.  (A 3x fall after 3x and 1.5x could land on the bound,
    # 1/2 of the LU's step, where rounding of the node positions decides; the
    # bound itself is tested on exact displacements below.)  A slab is
    # factored exactly when its structure is new or its step is outside
    # [1/2, 2] of the held LU's, and each solve matches a fresh one
    mesh = meshgen.make_strip_square(8, n_virt=3)
    state = motion.init_motion(mesh, (0.0, -1.0))
    plan = driver.slab_plan(mesh, state)
    background = np.random.default_rng(12).uniform(-1.0, 2.0, mesh.n_nodes)
    flanks = np.unique(mesh.tagged_edges(("left", "right")))
    T = background.copy()
    calls = counted_splu(monkeypatch)
    rows = [0.04] * 3 + [0.12] * 3 + [0.18] * 3 + [0.045] * 3 + [0.0675] * 3
    held, lu_step, for_the_step, kept_a_new_step = None, None, 0, 0
    for distance in np.array(rows) / 8:
        before = len(calls)
        op, sol, T, _ = driver.slab_step(
            mesh, state, T, distance, plan=plan, dt=0.37, alpha=1.7,
            dirichlet_nodes=flanks, dirichlet_values=background[flanks], background=background)
        prob = op.problem
        structure = (prob.active.copy(), prob.conn[plan.zipper[prob.active]])
        new = held is None or not all(map(np.array_equal, structure, held))
        near = not new and lu_step / 2 <= distance <= 2 * lu_step
        kept_a_new_step += near and distance != lu_step
        for_the_step += not (new or near)
        held = structure
        assert sol.factored == (not near) and len(calls) - before == int(not near)
        assert_matches_fresh_solve(prob, sol)
        if sol.factored:
            lu_step = distance
            assert op.structure.lu_step == pytest.approx(distance, rel=1e-9)
    assert state.n_slips >= 1 and kept_a_new_step >= 3 and for_the_step >= 2


def test_held_factor_keeps_a_band_step_halved_or_doubled(monkeypatch):
    # the unit square translated down as a whole, as one band, by binary
    # fractions of its mesh spacing, so that every element's displacement is
    # exact: one structure throughout.  A step at exactly twice or half the
    # held LU's keeps it (the bound is inclusive), 4x and a stop do not, and
    # a static slab keeps the LU made at rest
    mesh = meshgen.make_unit_square(8)
    every = np.ones(mesh.n_triangles, dtype=bool)
    plan = stfem.SlabPlan(mesh.n_nodes, mesh.triangles, mesh.nodes[mesh.triangles], ~every, every)
    fixed = np.unique(mesh.tagged_edges("right"))
    t_prev = np.linspace(0.0, 1.0, mesh.n_nodes)
    calls = counted_splu(monkeypatch)
    for distance, factored in ((1 / 64, True), (1 / 32, False), (1 / 16, True),
                               (1 / 32, False), (0.0, True), (0.0, False), (1 / 64, True)):
        prob = SlabProblem(mesh.nodes, mesh.nodes - [0.0, distance], mesh.triangles, dt=0.1,
                           alpha=1.0, t_prev=t_prev, dirichlet_nodes=fixed,
                           dirichlet_values=np.zeros(len(fixed)), plan=plan,
                           active=np.ones(mesh.n_triangles, dtype=bool))
        before = len(calls)
        op = SlabOperator(prob)
        sol = op.solve()
        assert sol.factored == factored and len(calls) - before == int(factored)
        assert op.structure is plan.structure
        if factored:
            assert op.structure.lu_step == distance
        else:
            assert sol.refinements > 0 or distance == 0.0
        assert_matches_fresh_solve(prob, sol)


@pytest.mark.parametrize("h, factored, error", [(0.05, 4, 0.005864535820964645),
                                                (0.025, 8, 0.002640093057399192)],
                         ids=["0.05", "0.025"])
def test_slab_whose_window_alone_changes_keeps_the_factor(monkeypatch, h, factored, error):
    # two virtual rows: on the step after a slip the rows that wrap land
    # next to the window, which gains the entering row while the slab drops
    # its triangles (they touch the wrapped nodes).  That slab has the mask,
    # zipper connectivity and Dirichlet nodes of the slip slab, so it keeps
    # the slip slab's factor, with the error, bit for bit, of a run that
    # factors it anew
    calls = counted_splu(monkeypatch)
    assert verify.run_meshupdate_case(h) == error
    assert len(calls) == factored


def test_structure_made_anew_every_step_gives_the_same_run(fixture_dir, tmp_path,
                                                           monkeypatch):
    # the oracle of the held structure: every slab drops the plan's
    # structure and gets one of its own, which takes the last one's LU if
    # their masks, zipper connectivity and fixed nodes are equal.  The
    # temperatures (VTK snapshots), tip fluxes (run.csv) and the solver's
    # work are the same, bit for bit, as with the held structure
    cfg = driver.load_config(os.path.join(fixture_dir, "power_3kw.ini"))
    cfg = dataclasses.replace(cfg, n_steps=40, vtk_every=5)
    work = []
    solve = stfem.SlabOperator.solve

    def solved(op):
        sol = solve(op)
        work.append((sol.factored, sol.refinements))
        return sol

    def outputs(name):
        work.clear()
        out = tmp_path / name
        report = driver.run(dataclasses.replace(cfg, out_dir=str(out)))
        assert report.records[-1].slip_count >= 3
        return list(work), {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}

    monkeypatch.setattr(stfem.SlabOperator, "solve", solved)
    held = outputs("held")

    last = []
    operator, structure = driver.SlabOperator, stfem.SlabStructure

    def anew(problem):
        problem.plan.structure = None
        return operator(problem)

    def made(*args):
        rec = structure(*args)
        if last and all(np.array_equal(getattr(rec, a), getattr(last[-1], a))
                        for a in ("active", "zc", "fixed")):
            for a in ("lu", "lu_h", "lu_d", "lu_step", "lu_fit"):
                setattr(rec, a, getattr(last[-1], a))
        last.append(rec)
        return rec

    monkeypatch.setattr(driver, "SlabOperator", anew)
    monkeypatch.setattr(stfem, "SlabStructure", made)
    anew_each_step = outputs("anew")
    assert len(last) == cfg.n_steps
    assert len(held[0]) == cfg.n_steps and 1 < sum(f for f, _ in held[0]) < cfg.n_steps
    assert anew_each_step[0] == held[0]
    assert len(held[1]) == 9 and anew_each_step[1] == held[1]


@pytest.mark.parametrize("case", ["strip_square", "power_3kw"])
def test_only_factored_slabs_fit_their_zipper(fixture_dir, tmp_path, monkeypatch, case):
    # the operator applies the zipper blocks whole; only the LU's input needs
    # their fit, so a slab solved with the held factor builds neither
    calls = {"lhs": 0, "fit": 0, "factored": 0, "reused": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    solve = stfem.SlabOperator.solve

    def solved(op):
        sol = solve(op)
        calls["factored" if sol.factored else "reused"] += 1
        return sol

    monkeypatch.setattr(stfem, "_zipper_fit", counted("fit", stfem._zipper_fit))
    monkeypatch.setattr(stfem.SlabOperator, "_lhs", counted("lhs", stfem.SlabOperator._lhs))
    monkeypatch.setattr(stfem.SlabOperator, "solve", solved)
    if case == "strip_square":
        mesh = meshgen.make_strip_square(8, n_virt=3)
        state = motion.init_motion(mesh, (0.0, -1.0))
        plan = driver.slab_plan(mesh, state)
        T = np.zeros(mesh.n_nodes)
        flanks = np.unique(mesh.tagged_edges(("left", "right")))
        for _ in range(16):
            _, _, T, _ = driver.slab_step(
                mesh, state, T, 0.35 / 8, plan=plan, dt=0.37, alpha=1.7,
                dirichlet_nodes=flanks, dirichlet_values=np.ones(len(flanks)),
                background=np.zeros(mesh.n_nodes))
        assert state.n_slips >= 3
    else:
        cfg = driver.load_config(os.path.join(fixture_dir, "power_3kw.ini"))
        driver.run(dataclasses.replace(cfg, n_steps=30, vtk_every=0, out_dir=str(tmp_path)))
    assert calls["lhs"] == calls["fit"] == calls["factored"] > 1
    assert calls["reused"] > calls["factored"]


def test_residual_of_the_solved_state_is_the_solves_own_product(monkeypatch):
    # the solve's last residual check formed A x of the solution it returns;
    # the residual reads that product, bit for bit what a fresh one gives
    prob, _ = band_slab(0.4 / 8)
    prob = fix_flanks(prob, np.linspace(0.0, 1.0, len(prob.coords_old)))
    op = SlabOperator(prob)
    sol = op.solve()

    def fresh_residual(s):
        return (op._apply(np.stack([s.t_bot, s.t_top])) - op._rhs_raw).ravel()

    expected = fresh_residual(sol)
    applied = []
    apply = op._apply
    monkeypatch.setattr(op, "_apply", lambda x: applied.append(x) or apply(x))
    npt.assert_array_equal(op.unconstrained_residual(sol), expected)
    assert not applied
    # any other solution, even of the same values, is applied anew
    for other in (SlabSolution(sol.t_bot.copy(), sol.t_top.copy(), 0.0),
                  SlabSolution(sol.t_bot + 1.0, sol.t_top, 0.0)):
        npt.assert_array_equal(op.unconstrained_residual(other), fresh_residual(other))
    assert len(applied) == 4


def test_zipper_rewired_under_the_same_mask_is_factored_anew(monkeypatch):
    # the zipper reconnects one notch while the band stands still: the
    # active mask stays, and so do the fixed nodes once the ring node that
    # only the zipper reaches is held in both slabs.  Only the zipper
    # connectivity tells the second slab from the first, whose factor it
    # must not take
    mesh = meshgen.make_strip_square(8)
    state = motion.init_motion(mesh, (0.0, -1.0))
    plan = driver.slab_plan(mesh, state)
    act = motion.active_elements(mesh, state)
    t_prev = np.random.default_rng(13).uniform(-1.0, 2.0, mesh.n_nodes)
    zipper = mesh.triangles[plan.zipper].copy()
    state.n_slips += 1
    motion._rebuild_zippers(mesh, state)
    rewired = mesh.triangles[plan.zipper].copy()
    assert not np.array_equal(rewired, zipper)
    assert np.array_equal(motion.active_elements(mesh, state), act)
    others = np.unique(mesh.triangles[act & ~plan.zipper])
    held = np.setdiff1d(np.concatenate([zipper, rewired]), others)
    fixed = np.union1d(np.unique(mesh.tagged_edges(("left", "right"))), held)

    def problem(zipper_conn):
        tri = mesh.triangles.copy()
        tri[plan.zipper] = zipper_conn
        return SlabProblem(mesh.nodes, mesh.nodes, tri[act], dt=0.37, alpha=1.7,
                           t_prev=t_prev, dirichlet_nodes=fixed,
                           dirichlet_values=t_prev[fixed], plan=plan, active=act)

    calls = counted_splu(monkeypatch)
    first, second = SlabOperator(problem(zipper)), SlabOperator(problem(rewired))
    assert np.array_equal(first._fixed, second._fixed)
    assert first.solve().factored
    sol = second.solve()
    assert sol.factored and len(calls) == 2
    assert_matches_fresh_solve(second.problem, sol)


def test_factor_is_checked_when_the_slab_is_solved(monkeypatch):
    # right is built while the plan holds a factor of its structure, so it
    # keeps that structure and its factor; then corner (Dirichlet data on
    # the top edge too) replaces the plan's structure before right is
    # solved: right must not take corner's factor for its own (GMRES would
    # reach the tolerance with it, in 17 steps), but solve with its own
    mesh = meshgen.make_unit_square(8)
    plan = driver.slab_plan(mesh, None)
    t_prev = np.linspace(0.0, 1.0, mesh.n_nodes)

    def problem(edge):
        nodes = np.unique(mesh.tagged_edges(edge))
        return SlabProblem(mesh.nodes, mesh.nodes, mesh.triangles, dt=0.1, alpha=1.0,
                           t_prev=t_prev, dirichlet_nodes=nodes,
                           dirichlet_values=np.zeros(len(nodes)), plan=plan,
                           active=np.ones(mesh.n_triangles, dtype=bool))

    calls = counted_splu(monkeypatch)
    assert SlabOperator(problem("right")).solve().factored
    right, corner = SlabOperator(problem("right")), SlabOperator(problem(("right", "top")))
    assert right.structure is not corner.structure
    solved = [(op.problem, op.solve()) for op in (corner, right)]
    assert len(calls) == 2
    for (prob, sol), factored in zip(solved, (True, False)):
        assert sol.factored == factored and sol.refinements == 0
        assert_matches_fresh_solve(prob, sol)


def test_new_dirichlet_nodes_make_a_new_structure(monkeypatch):
    # without a band every slab has the same mask and zipper connectivity,
    # so only the Dirichlet nodes tell the third slab's structure from the
    # held one
    mesh = meshgen.make_unit_square(8)
    plan = driver.slab_plan(mesh, None)
    T = np.linspace(0.0, 1.0, mesh.n_nodes)
    calls = counted_splu(monkeypatch)
    for edges, factored in (("right", True), ("right", False), (("right", "top"), True)):
        nodes = np.unique(mesh.tagged_edges(edges))
        before = len(calls)
        op, sol, _, _ = driver.slab_step(
            mesh, None, T, 0.0, plan=plan, dt=0.1, alpha=1.0, dirichlet_nodes=nodes,
            dirichlet_values=np.zeros(len(nodes)), background=T)
        assert sol.factored == factored and len(calls) - before == int(factored)
        assert_matches_fresh_solve(op.problem, sol)


def test_held_factor_that_does_not_converge_is_replaced(monkeypatch):
    # the same structure with twice the time step: GMRES with the held
    # factor needs more steps than MAX_REFINEMENTS allows, so the slab is
    # factored anew and then solved exactly
    mesh, prob = square_problem(n=8, dt=0.01, t_prev=np.ones(81))
    prob.dirichlet_nodes = np.unique(mesh.tagged_edges("right"))
    prob.dirichlet_values = np.zeros(9)
    prob.plan = driver.slab_plan(mesh, None)
    prob.active = np.ones(mesh.n_triangles, dtype=bool)
    doubled = dataclasses.replace(prob, dt=0.02)
    calls = counted_splu(monkeypatch)
    assert solve_slab(prob).factored
    sol = solve_slab(doubled)
    assert not sol.factored and sol.refinements > 4
    monkeypatch.setattr(stfem, "MAX_REFINEMENTS", 4)
    sol = solve_slab(doubled)
    assert sol.factored and sol.refinements == 0
    assert len(calls) == 2
    assert_matches_fresh_solve(doubled, sol)


def twin_slabs(case):
    """One slab problem twice, each on a plan of its own: a static
    unit-square slab with its right edge fixed, or a strip-square slab whose
    band slides down 1.4 rows (a slip), with its flanks fixed."""
    rng = np.random.default_rng(21)
    if case == "static":
        mesh, state = meshgen.make_unit_square(8), None
        fixed = np.unique(mesh.tagged_edges(("right",)))
    else:
        mesh = meshgen.make_strip_square(8, n_virt=3)
        state = motion.init_motion(mesh, (0.0, -1.0))
        fixed = np.unique(mesh.tagged_edges(("left", "right")))
    plans = [driver.slab_plan(mesh, state) for _ in range(2)]
    coords_old = mesh.nodes.copy()
    act = np.ones(mesh.n_triangles, dtype=bool)
    if state is not None:
        motion.advance(mesh, state, 1.4 / 8)
        act = motion.active_elements(mesh, state)
    t_prev, values = rng.uniform(-1.0, 2.0, mesh.n_nodes), rng.uniform(-1.0, 2.0, len(fixed))
    return [SlabProblem(coords_old, mesh.nodes, mesh.triangles[act], dt=0.37, alpha=1.7,
                        t_prev=t_prev, dirichlet_nodes=fixed, dirichlet_values=values,
                        plan=plan, active=act) for plan in plans]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["static", "band"])
def test_slab_without_the_terms_its_motion_zeroes_is_the_same_to_the_bit(monkeypatch, case):
    # the static slab has no displacement and no zipper; the band moves
    # along y alone.  The left-out mesh-velocity terms would be +0.0, so
    # M' + iN', the load and the solution equal those of the slab that forms
    # every term.  A gradient sum that is not used is not formed
    prob, ref_prob = twin_slabs(case)
    called = []
    theta_blocks = stfem._theta_blocks
    monkeypatch.setattr(stfem, "_theta_blocks", lambda *a: called.append(a) or theta_blocks(*a))
    op = SlabOperator(prob)
    rec = op.structure
    assert rec.grad[0] is None and (rec.grad[1] is None) == (case == "static")
    assert (rec.band_node is None) == (case == "static")
    assert len(called) == int(case == "band")
    ref = SlabOperatorEveryTerm(ref_prob)
    assert len(called) == 1 + int(case == "band")    # the oracle runs it on any zipper
    for a, b in ((op._mn.data, ref._mn.data), (op._mn.indices, ref._mn.indices),
                 (op._mn.indptr, ref._mn.indptr), (op._rhs_raw, ref._rhs_raw)):
        assert same_bits(a, b)
    sol, ref_sol = op.solve(), ref.solve()
    assert same_bits(sol.t_bot, ref_sol.t_bot) and same_bits(sol.t_top, ref_sol.t_top)
    assert (sol.residual_norm, sol.refinements) == (ref_sol.residual_norm, ref_sol.refinements)
    assert rec.grad[0] is None


# -- warm start from the last slab's trajectory ---------------------------------


def started_cold(monkeypatch):
    """Clear the plan's rate before each slab's solve, so that every slab
    starts from the Dirichlet values."""
    solve = stfem.SlabOperator.solve

    def cold(op):
        op._plan.rate = None
        return solve(op)

    monkeypatch.setattr(stfem.SlabOperator, "solve", cold)


def band_run():
    """The strip-square band of test_band_factors_only_slabs_of_a_new_structure,
    16 steps of 0.35 of a row through driver.slab_step, each slab started
    from the plan's rate.  Checks each slab against a fresh solve and
    returns the solutions."""
    mesh = meshgen.make_strip_square(8, n_virt=3)
    state = motion.init_motion(mesh, (0.0, -1.0))
    plan = driver.slab_plan(mesh, state)
    background = np.random.default_rng(12).uniform(-1.0, 2.0, mesh.n_nodes)
    flanks = np.unique(mesh.tagged_edges(("left", "right")))
    T, solutions = background.copy(), []
    for _ in range(16):
        op, sol, T, _ = driver.slab_step(
            mesh, state, T, 0.35 / 8, plan=plan, dt=0.37, alpha=1.7,
            dirichlet_nodes=flanks, dirichlet_values=background[flanks], background=background)
        assert_matches_fresh_solve(op.problem, sol)
        npt.assert_array_equal(plan.rate, (sol.t_top - sol.t_bot) / 0.37)
        solutions.append(sol)
    assert state.n_slips >= 3
    return solutions


def test_warm_start_changes_where_the_solve_starts_not_what_it_solves(monkeypatch):
    warm = band_run()
    started_cold(monkeypatch)
    cold = band_run()
    assert [s.factored for s in warm] == [s.factored for s in cold]
    assert sum(s.refinements for s in warm) < sum(s.refinements for s in cold)


def test_slab_without_zipper_ignores_the_rate():
    # a rigid slab's own LU solves it in one step from the Dirichlet values;
    # R is zero, so a rate leaves its solve as it is, to the bit
    prob, ref_prob = twin_slabs("static")
    prob.plan.rate = np.random.default_rng(22).uniform(-1.0, 1.0, len(prob.t_prev))
    sol, ref = solve_slab(prob), solve_slab(ref_prob)
    assert same_bits(sol.t_bot, ref.t_bot) and same_bits(sol.t_top, ref.t_top)
    assert (sol.residual_norm, sol.refinements) == (ref.residual_norm, ref.refinements)


def test_wrong_rate_still_meets_the_tolerance_on_the_dirichlet_start_scale(monkeypatch):
    # a start far off the solution costs GMRES steps, not accuracy, and the
    # residual stays scaled by the right-hand side of the equations solved
    # for, not by the start's residual
    rng = np.random.default_rng(23)
    prob = fix_flanks(band_slab(0.4 / 8, planned=True)[0], rng.uniform(-1.0, 2.0, 76))
    cold = solve_slab(prob)
    wrong = 1e3 * (cold.t_top - cold.t_bot) / prob.dt
    prob.plan.rate = wrong
    sol = solve_slab(prob)
    assert sol.residual_norm <= stfem.SOLVER_TOL
    assert free_row_residual(prob, sol) <= 1e-12
    assert_matches_fresh_solve(prob, sol)
    monkeypatch.setattr(stfem, "REFINE_TOL", 1e-6)
    monkeypatch.setattr(stfem, "SOLVER_TOL", 1e-6)
    prob.plan.rate = wrong
    sol = solve_slab(prob)
    assert sol.residual_norm == pytest.approx(free_row_residual(prob, sol), rel=1e-6, abs=0.0)
    assert 1e-10 < sol.residual_norm <= 1e-6


# -- the Dirichlet start from the fixed columns; the held M' + iN' ---------------


def assert_start_residual_is_the_full_product(op):
    """The start residual from the fixed columns equals the residual of the
    full product at the Dirichlet values, bit for bit."""
    full, _ = op._residual(np.zeros_like(op._rhs))
    assert np.array_equal(op._start_residual(), full)
    assert np.any(full)


def recorded_operators(monkeypatch):
    """Record every operator that driver.slab_step builds."""
    ops, operator = [], driver.SlabOperator
    monkeypatch.setattr(driver, "SlabOperator",
                        lambda problem: ops.append(operator(problem)) or ops[-1])
    return ops


def test_start_residual_of_the_cooling_slab(monkeypatch):
    ops = recorded_operators(monkeypatch)
    verify.run_cbf_case(h=0.02, dt=0.01, n_steps=2)
    assert len(ops) == 2
    for op in ops:
        assert len(op.structure.fixed_entries[0]) and op._zipper is None
        assert_start_residual_is_the_full_product(op)


def test_start_residual_of_warm_started_band_slabs(monkeypatch):
    ops, warm = recorded_operators(monkeypatch), []
    solve = stfem.SlabOperator.solve

    def solved(op):
        if op._plan.rate is not None and op._zipper is not None:
            warm.append(op)
        return solve(op)

    monkeypatch.setattr(stfem.SlabOperator, "solve", solved)
    band_run()
    assert len(warm) >= 10
    for op in ops:
        assert_start_residual_is_the_full_product(op)


def test_start_residual_with_a_dirichlet_node_on_a_shearing_triangle():
    # the zipper's entries in a fixed column, which no bundled fixture has
    prob, zipper = band_slab(0.4 / 8)
    rng = np.random.default_rng(24)
    prob = fix_flanks(prob, rng.uniform(-1.0, 2.0, len(prob.coords_old)))
    corner = prob.conn[zipper][0]
    prob.dirichlet_nodes = np.union1d(prob.dirichlet_nodes, corner)
    prob.dirichlet_values = rng.uniform(-1.0, 2.0, len(prob.dirichlet_nodes))
    op = SlabOperator(prob)
    assert len(op.structure.zipper_fixed[0]) >= 3 * 6
    assert_start_residual_is_the_full_product(op)
    sol = op.solve()
    assert sol.residual_norm <= stfem.SOLVER_TOL
    assert free_row_residual(prob, sol) <= 1e-12


def held_matrix(rec):
    return rec.mn.data.tobytes(), rec.mn.indices.tobytes(), rec.mn.indptr.tobytes()


def test_held_complex_matrix_is_kept_by_static_slabs_and_left_alone_by_moving_ones():
    # the band stands a tenth of a row off its generated position for two
    # static slabs, then moves another tenth, which keeps the mask and the
    # zipper connectivity: all three slabs share one structure.  The static
    # slabs take its M' + i dt alpha K'/2 as their own; nothing writes into
    # it, and the moving slab equals one assembled on a fresh plan, to the bit
    mesh = meshgen.make_strip_square(8, n_virt=3)
    state = motion.init_motion(mesh, (0.0, -1.0))
    plan, fresh_plan = driver.slab_plan(mesh, state), driver.slab_plan(mesh, state)
    rng = np.random.default_rng(25)
    t_prev = rng.uniform(-1.0, 2.0, mesh.n_nodes)
    flanks = np.unique(mesh.tagged_edges(("left", "right")))
    motion.advance(mesh, state, 0.1 / 8)
    act = motion.active_elements(mesh, state)

    def problem(coords_old, on_plan):
        return SlabProblem(coords_old, mesh.nodes.copy(), mesh.triangles[act], dt=0.37,
                           alpha=1.7, t_prev=t_prev, dirichlet_nodes=flanks,
                           dirichlet_values=t_prev[flanks], plan=on_plan, active=act)

    static = SlabOperator(problem(mesh.nodes.copy(), plan))
    rec = static.structure
    held = held_matrix(rec)
    assert static._mn is rec.mn
    static._lhs(*stfem._zipper_fit(static._zke))
    assert held_matrix(rec) == held
    assert static.solve().factored
    assert held_matrix(rec) == held
    again = SlabOperator(problem(mesh.nodes.copy(), plan))
    assert again.structure is rec and again._mn is rec.mn
    assert not again.solve().factored

    coords_old = mesh.nodes.copy()
    motion.advance(mesh, state, 0.1 / 8)
    assert np.array_equal(motion.active_elements(mesh, state), act)
    moving = SlabOperator(problem(coords_old, plan))
    assert moving.structure is rec and moving._mn is not rec.mn
    assert held_matrix(rec) == held
    ref = SlabOperator(problem(coords_old, fresh_plan))
    assert ref.structure is not rec
    for a, b in ((moving._mn.data, ref._mn.data), (moving._mn.indices, ref._mn.indices),
                 (moving._mn.indptr, ref._mn.indptr), (moving._rhs_raw, ref._rhs_raw)):
        assert same_bits(a, b)
    moving.solve()
    assert held_matrix(rec) == held


def test_held_complex_matrix_follows_dt_alpha():
    # a new dt alpha on the same structure makes the held matrix anew, so it
    # equals a fresh assembly's; the every-term oracle refreshes it through
    # the same method, so the next operator does not meet a stale one
    prob, ref_prob = twin_slabs("static")
    first = SlabOperator(prob)
    rec = first.structure
    for dt in (0.74, 0.37):
        prob, ref_prob = (dataclasses.replace(p, dt=dt) for p in (prob, ref_prob))
        if dt == 0.37:
            SlabOperatorEveryTerm(prob)
        op = SlabOperator(prob)
        assert op.structure is rec and op._mn is rec.mn
        assert rec.half_dt_alpha == 0.5 * dt * prob.alpha
        ref = SlabOperator(ref_prob)
        assert ref.structure is not rec
        assert same_bits(op._mn.data, ref._mn.data)


# -- the factored matrix's identity rows -----------------------------------------


def assert_lhs_matches_identity_sum(op):
    a, ref = op._lhs(*stfem._zipper_fit(op._zke)), lhs_by_identity_sum(op)
    assert a.format == ref.format == "csc" and a.shape == ref.shape
    for x, y in ((a.data, ref.data), (a.indices, ref.indices), (a.indptr, ref.indptr)):
        assert same_bits(x, y)


@pytest.mark.parametrize("name", ["power_3kw", "probe_temperature", "cooling"])
def test_lhs_identity_rows_match_the_second_sum_on_fixture_slabs(fixture_dir, tmp_path,
                                                                 monkeypatch, name):
    # band slabs of the transient fixtures, moving and shearing, with idle
    # nodes (the ring rows outside the window) and Dirichlet nodes; and the
    # static cooling slab, which has no idle node and no zipper
    ops = recorded_operators(monkeypatch)
    if name == "cooling":
        verify.run_cbf_case(h=0.02, dt=0.01, n_steps=1)
    else:
        cfg = driver.load_config(os.path.join(fixture_dir, name + ".ini"))
        driver.run(dataclasses.replace(cfg, n_steps=4, vtk_every=0, out_dir=str(tmp_path)))
    assert len(ops) == (1 if name == "cooling" else 4)
    for op in ops:
        assert len(op.problem.dirichlet_nodes)
        assert op.structure.idle.any() == (name != "cooling")
        assert_lhs_matches_identity_sum(op)
    assert (name == "cooling") == (op._zipper is None)


def test_lhs_identity_rows_match_the_second_sum_with_a_dirichlet_node_on_a_zipper():
    # the zipper's entries in a fixed row and column, which no bundled
    # fixture has
    prob, zipper = band_slab(0.4 / 8)
    rng = np.random.default_rng(26)
    prob = fix_flanks(prob, rng.uniform(-1.0, 2.0, len(prob.coords_old)))
    prob.dirichlet_nodes = np.union1d(prob.dirichlet_nodes, prob.conn[zipper][0])
    prob.dirichlet_values = rng.uniform(-1.0, 2.0, len(prob.dirichlet_nodes))
    op = SlabOperator(prob)
    assert op.structure.idle.any() and len(op.structure.zipper_fixed[0])
    assert_lhs_matches_identity_sum(op)


# -- the split A = K + R of a slab solved with its structure's LU ------------------


def assert_split_is_exact(op):
    """With the structure's LU: on the free rows, ``v + R K^-1 v`` equals the
    exact operator on ``K^-1 v``, and ``-R z0``, ``z0`` the first solve's
    correction from the Dirichlet values, equals that solve's true residual,
    each to 1e-12 of the largest entry of its right-hand side (``v``, and
    the residual at the Dirichlet values).  Returns the rigid and zipper
    terms of R."""
    lu, free = op.structure.lu, ~op._fixed
    op._split = op._split_terms()
    v = np.random.default_rng(31).uniform(-1.0, 1.0, op._rhs.shape)
    v[:, op._fixed] = 0.0
    z = op._precondition(lu, v)
    exact = op._apply(z)[:, free]
    assert np.max(np.abs((v + op._remainder(z))[:, free] - exact)) <= 1e-12 * np.max(np.abs(v))
    r0 = op._start_residual()
    z0 = op._precondition(lu, r0)
    true, _ = op._residual(np.where(op._fixed, op._rhs, 0.0) + z0)
    split = -op._remainder(z0)
    assert np.any(true[:, free])
    assert np.max(np.abs(split - true)) <= 1e-12 * np.max(np.abs(r0))
    return op._split


def assert_rate_start_is_exact(op, rate):
    """With the structure's LU and the start ``u`` from ``rate``: on the
    free rows, the start through R, ``x_D + K^-1 (r_D - R u)``, equals the
    first solve from ``x_D + u`` with the exact operator's residual to 1e-12
    relative, and ``-R (z - u)`` equals that iterate's true residual to
    1e-12 of the largest entry of ``r_D``."""
    p, lu, free = op.problem, op.structure.lu, ~op._fixed
    op._split = op._split_terms()
    x_d = np.where(op._fixed, op._rhs, 0.0)
    u = np.stack([p.t_prev, p.t_prev + p.dt * rate])
    u[:, op._fixed] = 0.0
    r_d = op._start_residual()
    z = op._precondition(lu, r_d - op._remainder(u))
    x = x_d + z
    x_rate = x_d + u
    r_rate, _ = op._residual(x_rate.copy())
    old = x_rate + op._precondition(lu, r_rate)
    assert np.max(np.abs(x - old)[:, free]) <= 1e-12 * np.max(np.abs(old[:, free]))
    true, _ = op._residual(x.copy())
    assert np.any(true[:, free])
    assert np.max(np.abs(-op._remainder(z - u) - true)) <= 1e-12 * np.max(np.abs(r_d))


def split_checked(monkeypatch):
    """Check the split of every slab solved, with the LU it was solved
    with, and while that LU is held, of the same slab at 1.5 times its dt,
    and its start through R from the rate it had; returns, per case, the
    rigid terms of R seen, and the held slabs whose start was checked."""
    seen = {"held": [], "factored": [], "dt": [], "rate": []}
    solve = stfem.SlabOperator.solve

    def checked(op):
        rate = op._plan.rate
        sol = solve(op)
        rigid, zipper = assert_split_is_exact(op)
        assert zipper is not None
        seen["factored" if sol.factored else "held"].append(rigid)
        if not sol.factored and rate is not None:
            assert_rate_start_is_exact(op, rate)
            seen["rate"].append(op)
        if not sol.factored:
            other = stfem.SlabOperator(dataclasses.replace(op.problem, dt=1.5 * op.problem.dt))
            assert other.structure is op.structure
            seen["dt"].append(assert_split_is_exact(other)[0])
        return sol

    monkeypatch.setattr(stfem.SlabOperator, "solve", checked)
    return seen


@pytest.mark.parametrize("case", ["strip_square", "power_3kw"])
def test_the_split_of_a_slab_is_exact(fixture_dir, tmp_path, monkeypatch, case):
    # a freshly factored band slab (and a bare one, of the fresh solves that
    # band_run compares with) leaves out its zipper remainder alone; a held
    # one also the change of its band displacement, if any, and one held
    # across a change of dt the change of dt alpha K' / 2 too.  A held slab
    # started from its rate through R starts where the exact operator's
    # first solve from that rate would
    seen = split_checked(monkeypatch)
    if case == "strip_square":
        band_run()
    else:
        cfg = driver.load_config(os.path.join(fixture_dir, "power_3kw.ini"))
        driver.run(dataclasses.replace(cfg, n_steps=30, vtk_every=0, out_dir=str(tmp_path)))
    assert len(seen["factored"]) >= 3 and all(r is None for r in seen["factored"])
    assert len(seen["held"]) >= 3 and any(r is not None for r in seen["held"])
    assert len(seen["dt"]) == len(seen["held"]) and all(r is not None for r in seen["dt"])
    assert len(seen["rate"]) >= 3


def test_held_lu_on_a_stiff_band_slab_restarts_from_the_true_residual(monkeypatch):
    # dt alpha / h^2 = 1.1e9: after GMRES on v + R z, which cannot see the
    # held LU's own rounding, the true residual is still some 4e-10, above
    # SOLVER_TOL.  GMRES restarts from it and meets the tolerance; the
    # residual reported is that of the exact operator on the solution
    mesh = meshgen.make_strip_square(8, n_virt=3)
    state = motion.init_motion(mesh, (0.0, -1.0))
    plan = driver.slab_plan(mesh, state)
    background = np.random.default_rng(12).uniform(-1.0, 2.0, mesh.n_nodes)
    flanks = np.unique(mesh.tagged_edges(("left", "right")))
    applied, cycles = [], []
    apply, gmres = stfem.SlabOperator._apply, stfem.SlabOperator._gmres
    monkeypatch.setattr(stfem.SlabOperator, "_apply",
                        lambda op, x: applied.append(x.copy()) or apply(op, x))
    monkeypatch.setattr(stfem.SlabOperator, "_gmres",
                        lambda op, *a: cycles.append(gmres(op, *a)[1:]) or gmres(op, *a))
    T = background.copy()
    for _ in range(2):
        applied.clear()
        cycles.clear()
        op, sol, T, _ = driver.slab_step(
            mesh, state, T, 0.1 / 8, plan=plan, dt=1e7, alpha=1.7,
            dirichlet_nodes=flanks, dirichlet_values=background[flanks], background=background)
    assert 1.7e7 * 8 ** 2 >= 1e4 and not sol.factored
    assert len(cycles) >= 2 and all(reached for _, reached in cycles)
    assert sum(k for k, _ in cycles) == sol.refinements
    assert sol.residual_norm <= stfem.SOLVER_TOL
    npt.assert_array_equal(applied[-1], np.stack([sol.t_bot, sol.t_top]))
    r = op._rhs - apply(op, applied[-1])
    r[:, op._fixed] = 0.0
    assert np.linalg.norm(r) / np.linalg.norm(op._start_residual()) == sol.residual_norm
