import math

import numpy as np
import pytest
from scipy.integrate import quad

from graphnls.functions import (
    GraphFunction,
    Mesh,
    abs_power_integral,
    decreasing_rearrangement,
    interpolate,
    kinetic_energy,
    l2_norm_sq,
    linf_norm,
    load_function,
    lp_integral,
    lp_norm_core,
    project_mass,
    save_function,
)
from graphnls.graphs import double_bridge, line_graph, metric_graph, star_graph


def line_mesh(L=2.0, h=0.05, r=5.0):
    return Mesh(line_graph(L), h_max=h, r_cut=r)


def test_mesh_dof_sharing():
    mesh = line_mesh()
    # one dof per interior node, shared at the two junction vertices
    n_core = len(mesh.edge_coords["core"])
    n_lead = len(mesh.edge_coords["lead1"])
    assert mesh.n_dofs == n_core + 2 * (n_lead - 1)
    assert mesh.edge_dofs["core"][0] == mesh.edge_dofs["lead1"][0]
    assert mesh.edge_dofs["core"][-1] == mesh.edge_dofs["lead2"][0]


def test_mesh_numbers_vertices_first_and_edge_nodes_in_runs():
    # the solver reads a state's vertex values as its first V dofs on any
    # mesh of the graph; each edge's other nodes form one run, so the
    # stiffness off the vertices is tridiagonal
    graphs = [
        line_graph(1.0),
        double_bridge(0.5, 0.5),
        star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2),
        metric_graph(["v"], [("loop", "v", "v", 1.0)], [("lead", "v")]),
        metric_graph(["a", "b"], [("short", "a", "b", 0.01)], [("l1", "a"), ("l2", "b")]),
    ]
    for graph in graphs:
        mesh = Mesh(graph, h_max=0.05, r_cut=3.0)
        nv = len(mesh.vertex_dof)
        assert sorted(mesh.vertex_dof.values()) == list(range(nv))
        for dofs in mesh.edge_dofs.values():
            assert np.all(np.diff(dofs[dofs >= nv]) == 1)
        block = mesh.stiffness_matrix()[nv:, nv:].tocoo()
        assert np.all(np.abs(block.row - block.col) <= 1)


def test_mesh_h_subdivision():
    mesh = Mesh(line_graph(1.0), h_max=0.3, r_cut=2.0)
    for eid, coords in mesh.edge_coords.items():
        steps = np.diff(coords)
        assert steps.max() <= 0.3 + 1e-12
        # uniform within each edge
        assert np.allclose(steps, steps[0])


@pytest.mark.parametrize(
    "h_max, r_cut, name",
    [
        (0.05, math.inf, "r_cut"),
        (math.inf, 5.0, "h_max"),
        (math.nan, 5.0, "h_max"),
        (0.05, math.nan, "r_cut"),
        (0.0, 5.0, "h_max"),
        (0.05, -1.0, "r_cut"),
        (True, 5.0, "h_max"),
        (0.05, np.True_, "r_cut"),
    ],
)
def test_mesh_rejects_nonfinite_or_nonpositive_spacing_and_cut(h_max, r_cut, name):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        Mesh(line_graph(1.0), h_max=h_max, r_cut=r_cut)


@pytest.mark.parametrize("mu", [True, np.True_, math.nan, math.inf, 0.0, -1.0])
def test_project_mass_rejects_a_bad_mass(mu):
    u = GraphFunction.constant(Mesh(line_graph(1.0), h_max=0.1, r_cut=2.0), 1.0)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        project_mass(u, mu)


def test_constant_mass_equals_measure():
    mesh = line_mesh(L=2.0, r=5.0)
    u = GraphFunction.constant(mesh, 1.0)
    assert l2_norm_sq(u) == pytest.approx(12.0, rel=1e-12)
    assert float(mesh.mass_vector().sum()) == pytest.approx(12.0, rel=1e-12)
    assert l2_norm_sq(u, core_only=True) == pytest.approx(2.0, rel=1e-12)
    assert kinetic_energy(u) == 0.0
    assert linf_norm(u) == 1.0


def test_kinetic_exact_for_linear():
    # tent over the core [0,2]: u(x) = min(x, 2-x) has |u'| = 1 on the core
    mesh = line_mesh(L=2.0, h=0.05, r=3.0)
    vals = np.zeros(mesh.n_dofs)
    xs = mesh.edge_coords["core"]
    vals[mesh.edge_dofs["core"]] = np.minimum(xs, 2.0 - xs)
    u = GraphFunction(mesh, vals)
    assert kinetic_energy(u) == pytest.approx(2.0, rel=1e-12)


def test_lp_integral_against_quad():
    mesh = line_mesh(L=2.0, h=0.002, r=6.0)
    placement = {
        "core": lambda x: x - 1.0,
        "lead1": lambda x: -1.0 - x,
        "lead2": lambda x: 1.0 + x,
    }
    u = interpolate(mesh, lambda t: np.exp(-(t**2)), placement)
    for p in (2.0, 3.5):
        exact = quad(lambda t: math.exp(-(t**2)) ** p, -1.0, 1.0)[0]
        got = lp_integral(u, p, core_only=True)
        assert got == pytest.approx(exact, rel=1e-5)
    full = quad(lambda t: math.exp(-(t**2)) ** 3, -7.0, 7.0)[0]
    assert lp_integral(u, 3.0, core_only=False) == pytest.approx(full, rel=1e-4)


def test_lp_norm_core_consistency():
    mesh = line_mesh()
    u = GraphFunction.constant(mesh, 2.0)
    # (integral of 2^3 over the core of length 2)^(1/3)
    assert lp_norm_core(u, 3.0) == pytest.approx(16.0 ** (1.0 / 3.0), rel=1e-12)


def test_project_mass():
    mesh = line_mesh()
    rng = np.random.default_rng(3)
    u = GraphFunction(mesh, rng.uniform(0.5, 1.5, mesh.n_dofs))
    w = project_mass(u, 2.7)
    assert l2_norm_sq(w) == pytest.approx(2.7, rel=1e-13)
    with pytest.raises(ValueError):
        project_mass(GraphFunction.constant(mesh, 0.0), 1.0)


def test_abs_power_integral_exact_on_linear_cells():
    # piecewise linear u on a single cell: integral of |u|^r has a closed form
    mesh = Mesh(line_graph(1.0), h_max=1.0, r_cut=1.0)
    vals = np.zeros(mesh.n_dofs)
    vals[mesh.edge_dofs["core"]] = [0.0, 1.0]
    u = GraphFunction(mesh, vals)
    for r in (2.0, 2.5, 3.7):
        # int_0^1 x^r dx = 1/(r+1)
        assert abs_power_integral(u, r, core_only=True) == pytest.approx(
            1.0 / (r + 1.0), rel=1e-13
        )
    # sign change inside a cell: u crosses zero, split integral still exact
    vals[mesh.edge_dofs["core"]] = [-1.0, 1.0]
    u2 = GraphFunction(mesh, vals)
    assert abs_power_integral(u2, 2.0, core_only=True) == pytest.approx(
        quad(lambda x: (2 * x - 1) ** 2, 0, 1)[0], rel=1e-13
    )


def test_interpolate_requires_full_placement():
    mesh = line_mesh()
    with pytest.raises(ValueError):
        interpolate(mesh, lambda t: t, {"core": lambda x: x})


def test_interpolate_rejects_discontinuous_placement():
    mesh = line_mesh(L=1.0)
    placement = {
        "core": lambda x: x,
        "lead1": lambda x: 5.0 + x,  # jumps at the shared vertex
        "lead2": lambda x: 1.0 + x,
    }
    with pytest.raises(ValueError):
        interpolate(mesh, lambda t: t, placement)


def test_evaluate_interpolates_linearly():
    mesh = line_mesh(L=2.0, h=0.5, r=2.0)
    vals = np.zeros(mesh.n_dofs)
    xs = mesh.edge_coords["core"]
    vals[mesh.edge_dofs["core"]] = xs**2
    # midpoint of a cell gets the chord value, not the parabola value
    got = mesh.evaluate(vals, "core", 0.25)
    assert got == pytest.approx(0.5 * (0.0 + 0.25), rel=1e-12)
    # a node gets its own value, on every edge
    vals = np.arange(mesh.n_dofs, dtype=float)
    for eid, coords in mesh.edge_coords.items():
        assert np.array_equal(mesh.evaluate(vals, eid, coords), vals[mesh.edge_dofs[eid]])


def test_save_load_round_trip(tmp_path):
    mesh = Mesh(double_bridge(0.5, 1.5), h_max=0.1, r_cut=3.0)
    rng = np.random.default_rng(11)
    u = GraphFunction(mesh, rng.standard_normal(mesh.n_dofs))
    path = tmp_path / "state.csv"
    save_function(u, path)
    v = load_function(path, mesh)
    assert np.allclose(u.values, v.values, atol=0.0, rtol=0.0)


def test_load_rejects_wrong_mesh(tmp_path):
    mesh = line_mesh(h=0.1)
    u = GraphFunction.constant(mesh, 1.0)
    path = tmp_path / "state.csv"
    save_function(u, path)
    other = line_mesh(h=0.2)
    with pytest.raises(ValueError):
        load_function(path, other)


def test_graph_function_algebra():
    mesh = line_mesh()
    u = GraphFunction.constant(mesh, 2.0)
    v = GraphFunction.constant(mesh, 3.0)
    assert linf_norm(u + v) == 5.0
    assert linf_norm(u - v) == 1.0
    assert linf_norm(2.5 * u) == 5.0
    assert linf_norm(abs(u - v)) == 1.0


# rearrangement


def test_rearrangement_two_level_oracle():
    # two plateau levels with known measures -> explicit staircase profile
    g = metric_graph(
        ["a", "b", "c"],
        [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0)],
        [("l1", "a"), ("l2", "c")],
    )
    mesh = Mesh(g, h_max=0.01, r_cut=2.0)
    vals = np.zeros(mesh.n_dofs)
    vals[mesh.edge_dofs["e1"]] = 2.0
    vals[mesh.edge_dofs["e2"]] = 1.0
    u = GraphFunction(mesh, vals)
    prof = decreasing_rearrangement(u)
    assert prof.is_nonincreasing()
    # measures of the level sets are preserved up to mesh resolution
    for r in (2.0, 4.0):
        assert prof.abs_power_integral(r) == pytest.approx(
            abs_power_integral(u, r), rel=1e-8
        )


def test_rearrangement_of_monotone_profile_is_itself():
    mesh = Mesh(
        metric_graph(["a"], [], [("l1", "a")]),  # a single half-line
        h_max=0.01,
        r_cut=12.0,
    )
    u = interpolate(mesh, lambda t: np.exp(-t), {"l1": lambda x: x})
    prof = decreasing_rearrangement(u)
    assert prof.kinetic_energy() <= kinetic_energy(u) + 1e-10
    # already nonincreasing: kinetic energy is preserved, not just bounded
    assert prof.kinetic_energy() == pytest.approx(kinetic_energy(u), rel=1e-6)


def test_rearrangement_random_suite():
    rng = np.random.default_rng(7)
    shapes = [line_graph(1.0), double_bridge(0.7, 1.3), star_graph((0.5, 0.8, 1.1))]
    for graph in shapes:
        mesh = Mesh(graph, h_max=0.05, r_cut=4.0)
        total = sum(e.length for e in graph.edges if e.in_core) + graph.n_half_lines * 4.0
        for _ in range(5):
            vals = rng.uniform(0.0, 1.0, mesh.n_dofs)
            for eid, dofs in mesh.edge_dofs.items():
                if mesh.graph.edges_by_id[eid].is_half_line:
                    vals[dofs] = vals[dofs] * np.exp(-2.0 * mesh.edge_coords[eid])
            u = GraphFunction(mesh, vals)
            prof = decreasing_rearrangement(u)
            assert prof.is_nonincreasing()
            assert prof.measure() == pytest.approx(total, rel=1e-8)
            for r in (2.0, 3.0):
                assert prof.abs_power_integral(r) == pytest.approx(
                    abs_power_integral(u, r), rel=1e-8, abs=1e-30
                )
            assert kinetic_energy(u) - prof.kinetic_energy() >= -1e-10
