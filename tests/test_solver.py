"""Solver behavior against independently computed stationary states.

The reference energies below were produced by a two-parameter shooting
method on the stationary equation (amplitude and multiplier matched to the
decaying-tail condition and the mass constraint), integrated with an
adaptive RK at rtol 1e-12, an entirely different discretization from the
mesh descent under test. Agreement is limited by the P1 mesh (h = 0.02),
measured at roughly 1e-4 relative.
"""
import dataclasses
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from graphnls import functions, solver
from graphnls.energy import EnergyOperator, Leads, el_residual, energy_report
from graphnls.functions import (
    GraphFunction,
    Mesh,
    _abs_pow,
    _simpson_abs_pow,
    kinetic_energy,
    l2_norm_sq,
    linf_norm,
    project_mass,
    uniform_cells,
)
from graphnls.graphs import MetricGraph, double_bridge, line_graph, load_graph, metric_graph, star_graph
from graphnls.solver import (
    INCONCLUSIVE,
    NEGATIVE_MINIMUM,
    ZERO_INFIMUM_SUSPECTED,
    SolverConfig,
    _lead_shift,
    _lowest_shift,
    _shifted_factorizer,
    _verdict,
    dirichlet_line_min,
    existence_dichotomy,
    initializer_competitor,
    initializer_random,
    initializer_soliton,
    lead_forms,
    lead_profile,
    minimize,
    soliton_profile,
)
from graphnls.thresholds import (
    certify_nonexistence,
    inductive_bound_check,
    threshold_exist,
    threshold_nonexist,
    threshold_report,
)

# (graph factory, p, truncation schedule, shooting energy, shooting multiplier)
SHOOTING_CASES = [
    (lambda: line_graph(1.0), 2.5, (20.0, 40.0), -0.0332399179, 0.1044398066),
    (lambda: line_graph(1.0), 3.0, (20.0, 40.0), -0.0070495399, 0.0378741300),
    (lambda: double_bridge(0.5, 0.5), 2.5, (20.0, 40.0), -0.0302621171, 0.0939914897),
    (lambda: double_bridge(0.5, 0.5), 3.0, (20.0, 40.0), -0.0063390671, 0.0332659619),
    # multiplier 0.022: slow tail, the drift rule needs the longer cuts
    (lambda: line_graph(3.0), 4.0, (40.0, 80.0), -0.0012982770, 0.0221966684),
    (lambda: star_graph((3.0,), half_lines_per_terminal=2), 4.0, (20.0, 40.0), -0.0266207548, 0.2483844135),
]


@pytest.mark.parametrize("factory,p,schedule,e_ref,lam_ref", SHOOTING_CASES)
def test_minimize_matches_shooting_oracle(factory, p, schedule, e_ref, lam_ref):
    cfg = SolverConfig(r_cut_schedule=schedule, h_max=0.02)
    res = minimize(factory(), 1.0, p, cfg)
    assert res.verdict == NEGATIVE_MINIMUM
    assert res.energy == pytest.approx(e_ref, rel=5e-4)
    assert res.el.lambda_estimate == pytest.approx(lam_ref, rel=5e-3)
    assert res.report.mass == pytest.approx(1.0, abs=1e-10)
    assert res.strictly_positive
    assert res.energy == res.report.total_energy


def test_weakly_bound_state_needs_long_truncation():
    # p = 3.5 on line_graph(1): multiplier 0.00276, decay length about 19;
    # shooting energy -0.0002174268
    cfg = SolverConfig(r_cut_schedule=(20.0, 40.0, 80.0, 160.0), max_iters=8000)
    res = minimize(line_graph(1.0), 1.0, 3.5, cfg)
    assert res.verdict == NEGATIVE_MINIMUM
    assert res.energy == pytest.approx(-0.0002174268, rel=2e-3)
    assert res.el.lambda_estimate == pytest.approx(0.0027622728, rel=1e-2)
    # the multiplier-shifted preconditioner resolves the slow tail in a few
    # dozen iterations per stage; a fixed S + M shift needs about 13.5k
    assert res.iterations <= 500


def test_noisy_starts_reach_the_same_minimum():
    # the benchmark's recipe: plateau start times 1 + 5% noise, back on the
    # mass sphere; every stage must converge from every start
    graph = line_graph(1.0)
    cfg = SolverConfig(r_cut_schedule=(20.0, 40.0, 80.0, 160.0), h_max=0.02, max_iters=8000)
    start = initializer_competitor(graph, 1.0, 2.5, mesh=Mesh(graph, h_max=0.02, r_cut=20.0))
    energies = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noisy = start.values * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, start.values.shape))
        res = minimize(graph, 1.0, 2.5, cfg, initial=project_mass(start.with_values(noisy), 1.0))
        assert res.verdict == NEGATIVE_MINIMUM, (seed, res.r_cut_table)
        energies.append(res.energy)
    assert max(energies) - min(energies) <= 1e-9 * abs(energies[0])


def test_line_search_requires_strict_decrease():
    # strongly bound (mu = 4, p = 5): the Armijo margin falls below the
    # energy's ulp, and accepting equal energies used to creep on with
    # steps of about 3e-11 until max_iters in both stages
    graph = line_graph(1.0)
    start = initializer_random(graph, 4.0, 5.0, Mesh(graph, h_max=0.02, r_cut=10.0))
    res = minimize(graph, 4.0, 5.0, SolverConfig(r_cut_schedule=(10.0, 20.0)), initial=start)
    assert res.verdict == NEGATIVE_MINIMUM
    assert all(converged for *_, converged in res.r_cut_table)
    assert res.iterations < 1000
    # at p = 5.5 the shifted preconditioner alone does not prevent the
    # creep: a stage must end once no step lowers the energy
    res = minimize(line_graph(1.0), 4.0, 5.5, SolverConfig(r_cut_schedule=(10.0, 20.0)))
    assert res.iterations < 1000


def test_line_search_stops_at_the_energys_rounding_level(monkeypatch):
    # halving the step down to 1e-16 at a stage's minimum costs about 54
    # failing energy values: 130 values for 21 iterations here
    value = EnergyOperator.value
    calls = []

    def counted(self, *args):
        calls.append(1)
        return value(self, *args)

    monkeypatch.setattr(EnergyOperator, "value", counted)
    res = minimize(line_graph(1.0), 1.0, 2.5, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05))
    assert res.verdict == NEGATIVE_MINIMUM
    assert all(converged for *_, converged in res.r_cut_table)
    assert len(calls) <= 2 * res.iterations


def test_model_first_step_shortens_the_weakly_bound_descent():
    # with every search starting at step 1, the step is 1 at every iteration
    # and the gradient shrinks by about 0.7 per iteration: 102 iterations
    cfg = SolverConfig(r_cut_schedule=(20.0, 40.0, 80.0, 160.0))
    res = minimize(line_graph(1.0), 1.0, 3.5, cfg)
    assert res.verdict == NEGATIVE_MINIMUM
    assert res.iterations <= 70
    assert max(t for *_, t in res.trace) > 1.0


def test_stages_record_why_they_stopped():
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    res = minimize(line_graph(1.0), 1.0, 3.5, cfg)
    assert [row[0] for row in res.stages] == list(cfg.r_cut_schedule)
    for (r_cut, iterations, backtracks, stop), row in zip(res.stages, res.r_cut_table):
        assert iterations == row[2]
        assert backtracks >= 0
        assert stop in ("gradient", "no_descent", "line_search")
    res = minimize(line_graph(1.0), 1.0, 3.5, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05, max_iters=3))
    assert [stop for *_, stop in res.stages] == ["max_iters", "max_iters"]
    assert [iterations for _, iterations, _, _ in res.stages] == [3, 3]
    assert res.verdict == INCONCLUSIVE


def test_strongly_bound_stage_converges_on_relative_tolerance():
    # mu = 8, p = 5: E = -133.3 and lambda of order 100, so the gradient
    # cannot be resolved below about 5e-6; an absolute grad_tol of 1e-7
    # left both stages unconverged and the verdict INCONCLUSIVE
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), max_iters=2000)
    res = minimize(line_graph(1.0), 8.0, 5.0, cfg)
    assert res.verdict == NEGATIVE_MINIMUM
    assert all(converged for *_, converged in res.r_cut_table)


DEMO_GRAPHS_DIR = Path(__file__).resolve().parents[1] / "demos" / "graphs"
DEMO_GRAPHS = sorted(DEMO_GRAPHS_DIR.glob("*.graph"))
STRUCTURED_SOLVE_GRAPHS = [(f.stem, lambda f=f: load_graph(f)) for f in DEMO_GRAPHS] + [
    ("star_.5_.7_.9", lambda: star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2)),
    # a self-loop: both ends of its inner run couple to the same vertex
    ("self_loop", lambda: metric_graph(["v"], [("loop", "v", "v", 1.0)], [("lead", "v")])),
    # one cell shorter than h_max: the edge has no inner node and couples
    # its two vertices directly in the junction block
    (
        "short_edge",
        lambda: metric_graph(
            ["a", "b", "c"],
            [("short", "a", "b", 0.01), ("long", "b", "c", 1.0)],
            [("l1", "a"), ("l2", "c")],
        ),
    ),
]


def test_structured_solve_covers_the_demo_graphs():
    assert {f.stem for f in DEMO_GRAPHS} >= {"line", "double_bridge", "star", "broom"}


def _assert_structured_solve_matches_sparse_lu(mesh, sigma):
    stiffness, mass = mesh.stiffness_matrix(), mesh.mass_vector()
    b = np.random.default_rng(0).standard_normal(mesh.n_dofs)
    x = _shifted_factorizer(mesh)(sigma)(b)
    ref = splu((stiffness + diags(sigma * mass)).tocsc()).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("sigma", ["floor", 1.0, 1e3])
@pytest.mark.parametrize(
    "factory", [f for _, f in STRUCTURED_SOLVE_GRAPHS], ids=[n for n, _ in STRUCTURED_SOLVE_GRAPHS]
)
def test_structured_solve_matches_sparse_lu(factory, sigma):
    graph = factory()
    graph.require_valid()
    mesh = Mesh(graph, h_max=0.02, r_cut=20.0)
    _assert_structured_solve_matches_sparse_lu(mesh, 1.0 / mesh.r_cut**2 if sigma == "floor" else sigma)


def test_structured_solve_with_a_single_edge_node():
    # a lead cut at one cell next to a one-cell core edge: the tridiagonal
    # block is 1 x 1, with no off-diagonal
    graph = metric_graph(["a", "b"], [("e", "a", "b", 0.01)], [("lead", "a")])
    graph.require_valid()
    mesh = Mesh(graph, h_max=0.02, r_cut=0.01)
    assert mesh.n_dofs - len(mesh.vertex_dof) == 1
    _assert_structured_solve_matches_sparse_lu(mesh, 1.0)


def test_factor_rejects_a_non_positive_shift():
    # S alone is singular on constants
    factor = _shifted_factorizer(Mesh(line_graph(1.0), h_max=0.1, r_cut=5.0))
    for sigma in (0.0, -1e3, math.nan):
        with pytest.raises(ValueError, match="sigma must be positive"):
            factor(sigma)


def _stage_vertex_shift(graph, core, sigma, r_cut=20.0):
    """The vertex shift a stage at ``r_cut`` passes with ``sigma``."""
    counts = np.bincount([core.vertex_dof[e.tail] for e in graph.half_lines], minlength=core.n_vertices)
    phi, psi, _ = lead_forms(sigma, *uniform_cells(r_cut, 0.02))
    return counts * (psi + sigma * phi)


JUNCTION_GRAPHS = [
    *STRUCTURED_SOLVE_GRAPHS,
    # every core edge is one cell: no edge block, the junction is all there is
    (
        "single_cell_triangle",
        lambda: metric_graph(
            ["a", "b", "c"],
            [("ab", "a", "b", 0.01), ("bc", "b", "c", 0.015), ("ca", "c", "a", 0.02)],
            [("l1", "a"), ("l2", "c")],
        ),
    ),
]


FACTOR_CASES = [
    pytest.param(factory, sigma, id=f"{name}-{sigma:g}")
    for name, factory in JUNCTION_GRAPHS
    for sigma in (1.0 / 20.0**2, 0.3, 1.0, 1e3)
] + [
    # across a 10-long edge at sigma = 1e4 the coupling of its two vertices
    # decays like exp(-sqrt(sigma) * 10), far below rounding
    pytest.param(lambda: line_graph(10.0), 1e4, id="long_edge-10000"),
]


def _dense_solve(a, b):
    """``np.linalg.solve(a, b)`` refined twice on long-double residuals:
    at the floor shift the plain dense solve is itself about 1e-12 off
    (the self-loop core), the refined one is exact to rounding."""
    x = np.linalg.solve(a, b)
    a_ext, b_ext = a.astype(np.longdouble), b.astype(np.longdouble)
    for _ in range(2):
        x = x + np.linalg.solve(a, (b_ext - a_ext @ x).astype(float))
    return x


@pytest.mark.parametrize("factory,sigma", FACTOR_CASES)
def test_factor_solves_the_shifted_core_matrix(factory, sigma):
    graph = factory()
    graph.require_valid()
    core = _core_mesh(graph, 0.02)
    shift = _stage_vertex_shift(graph, core, sigma)
    diagonal = sigma * core.mass_vector()
    diagonal[: core.n_vertices] += shift
    b = np.random.default_rng(1).standard_normal(core.n_dofs)
    ref = _dense_solve(core.stiffness_matrix().toarray() + np.diag(diagonal), b)
    x = _shifted_factorizer(core)(sigma, shift)(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_a_solve_survives_the_next_factor():
    # every factor writes into the same CSC data array: a solve taken
    # before the next factor must not read it
    graph = star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2)
    core = _core_mesh(graph, 0.02)
    factor = _shifted_factorizer(core)
    b = np.random.default_rng(3).standard_normal(core.n_dofs)
    solve = factor(0.3, _stage_vertex_shift(graph, core, 0.3))
    first = solve(b)
    other = factor(40.0, _stage_vertex_shift(graph, core, 40.0))
    assert not np.array_equal(other(b), first)
    assert np.array_equal(solve(b), first)


@pytest.mark.parametrize("factory", [f for _, f in JUNCTION_GRAPHS], ids=[n for n, _ in JUNCTION_GRAPHS])
def test_stiffness_band_is_the_permuted_stiffness_matrix(factory):
    # the self-loop core, parallel one-cell edges and the one-cell triangle
    # included: expanded, the band is S in its order, entry for entry
    core = _core_mesh(factory(), 0.02)
    order, inverse, kd, band = core.stiffness_band()
    n = core.n_dofs
    assert np.array_equal(np.sort(order), np.arange(n))
    assert np.array_equal(inverse[order], np.arange(n))
    assert band.shape == (3 * kd + 1, n) and band.flags.f_contiguous
    rows, cols = np.indices(band.shape)
    i = cols + rows - 2 * kd
    inside = (0 <= i) & (i < n)
    expanded = np.zeros((n, n))
    expanded[i[inside], cols[inside]] = band[inside]
    assert not band[~inside].any() and not band[:kd].any()
    assert np.array_equal(expanded, core.stiffness_matrix().toarray()[np.ix_(order, order)])
    assert kd == max(abs(a - b) for a, b in zip(*np.nonzero(expanded)))


def test_a_second_factorizer_on_a_core_mesh_builds_no_new_order(monkeypatch):
    # the order and the band are the core mesh's, built on first use: a
    # second factorizer, or a second run from a start on the same mesh,
    # builds neither again
    ordered, rcm = [], functions.reverse_cuthill_mckee

    def counted(*args, **kwargs):
        ordered.append(1)
        return rcm(*args, **kwargs)

    monkeypatch.setattr(functions, "reverse_cuthill_mckee", counted)
    graph = star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2)
    core = _core_mesh(graph, 0.02)
    shift = _stage_vertex_shift(graph, core, 0.3)
    b = np.random.default_rng(3).standard_normal(core.n_dofs)
    first = _shifted_factorizer(core)(0.3, shift)(b)
    assert np.array_equal(_shifted_factorizer(core)(0.3, shift)(b), first)
    assert len(ordered) == 1
    mesh = Mesh(graph, h_max=0.05, r_cut=10.0)
    u0 = initializer_competitor(graph, 1.0, 3.0, mesh)
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    for _ in range(2):
        minimize(graph, 1.0, 3.0, cfg, initial=u0)
    assert len(ordered) == 2


@pytest.mark.parametrize("info", [2, -1])
def test_a_failed_banded_lu_raises(monkeypatch, info):
    # dgbtrf reports a zero pivot (info > 0) or a bad argument (info < 0):
    # the factor raises instead of handing out a solve
    dgbtrf = solver.dgbtrf

    def failing(*args, **kwargs):
        lu, pivots, _ = dgbtrf(*args, **kwargs)
        return lu, pivots, info

    monkeypatch.setattr(solver, "dgbtrf", failing)
    factor = _shifted_factorizer(Mesh(line_graph(1.0), h_max=0.1, r_cut=5.0))
    with pytest.raises(RuntimeError, match=f"dgbtrf info={info}"):
        factor(1.0)


RUN_FORM_MESHES = [
    (name, lambda factory=factory: Mesh(factory(), h_max=0.02, r_cut=20.0))
    for name, factory in STRUCTURED_SOLVE_GRAPHS
] + [
    # the core subgraph's mesh, the only one the solver factors
    (f"{name}_core", lambda factory=factory: _core_mesh(factory(), 0.02))
    for name, factory in STRUCTURED_SOLVE_GRAPHS
] + [
    # one edge node in all, next to a vertex on both sides: the lead's
    # cell and the core edge's vertex-to-vertex cell
    (
        "single_node",
        lambda: Mesh(metric_graph(["a", "b"], [("e", "a", "b", 0.01)], [("lead", "a")]), h_max=0.02, r_cut=0.01),
    ),
]


def _subtract_at_load(mesh, v, p, g):
    """``g`` less the Simpson load of the energy gradient at ``v``, taken
    off in place at each core cell's ends by ``np.subtract.at``, as the
    gradient was assembled before its single bincount."""
    ia, ib, h = mesh.cells(core_only=True)
    a, b = v[ia], v[ib]
    mid = 0.5 * (a + b)
    ga, gm, gb = (_abs_pow(x, p - 2) * x for x in (a, mid, b))
    w = h / 6.0
    np.subtract.at(g, ia, w * (ga + 2.0 * gm))
    np.subtract.at(g, ib, w * (gb + 2.0 * gm))
    return g


def _subtract_at_gradient(mesh, v, p):
    """The energy gradient as assembled before its single bincount: the
    stiffness action from two bincounts of the cell fluxes, less the load."""
    ia, ib, h = mesh.cells()
    flux = (v[ib] - v[ia]) / h
    n = mesh.n_dofs
    g = np.bincount(ib, weights=flux, minlength=n) - np.bincount(ia, weights=flux, minlength=n)
    return _subtract_at_load(mesh, v, p, g)


@pytest.mark.parametrize("make_mesh", [f for _, f in RUN_FORM_MESHES], ids=[n for n, _ in RUN_FORM_MESHES])
def test_run_forms_match_the_assembled_stiffness(make_mesh):
    mesh = make_mesh()
    stiffness = mesh.stiffness_matrix()
    v = np.random.default_rng(2).standard_normal(mesh.n_dofs)
    # the per-cell Dirichlet integral over every cell, as gathers
    ia, ib, h = mesh.cells()
    d = v[ib] - v[ia]
    per_cell = float(np.dot(d, d / h))
    assert kinetic_energy(GraphFunction(mesh, v)) == pytest.approx(per_cell, rel=1e-12)
    assert kinetic_energy(GraphFunction(mesh, v)) == pytest.approx(float(v @ (stiffness @ v)), rel=1e-12)
    # the gradient's stiffness action, its Simpson load taken off the
    # assembled S v as the energy gradient once did
    ref = _subtract_at_load(mesh, v, 3.0, stiffness @ v)
    op = EnergyOperator(mesh, 3.0)
    assert np.linalg.norm(op.gradient(v) - ref) <= 1e-12 * np.linalg.norm(ref)
    # the layout the preconditioner writes its diagonal into
    assert stiffness.format == "csc" and stiffness.has_sorted_indices
    cols = np.repeat(np.arange(mesh.n_dofs), np.diff(stiffness.indptr))
    assert np.array_equal(np.sort(cols[stiffness.indices == cols]), np.arange(mesh.n_dofs))
    # differences of equal values: exactly 0 on constants
    constant = np.full(mesh.n_dofs, 0.7)
    assert kinetic_energy(GraphFunction(mesh, constant)) == 0.0
    assert np.array_equal(op.gradient(constant), _subtract_at_load(mesh, constant, 3.0, np.zeros(mesh.n_dofs)))


CELL_PASS_GRAPHS = [
    (name, factory)
    for name, factory in JUNCTION_GRAPHS
    if name in ("line", "double_bridge", "star", "self_loop", "single_cell_triangle")
]


@pytest.mark.parametrize("p", [2.5, 4.0, 5.5])
@pytest.mark.parametrize("factory", [f for _, f in CELL_PASS_GRAPHS], ids=[n for n, _ in CELL_PASS_GRAPHS])
def test_cell_pass_gives_the_standalone_value_and_gradient(factory, p):
    core = _core_mesh(factory(), 0.02)
    op = EnergyOperator(core, p)
    v = np.random.default_rng(4).standard_normal(core.n_dofs)
    # the report reduces the same pass: a stage's energy is its report's
    assert energy_report(GraphFunction(core, v), p).total_energy == op.value(v)
    ref = _subtract_at_gradient(core, v, p)
    assert np.linalg.norm(op.gradient(v) - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("p", [2.5, 4.0, 5.5])
@pytest.mark.parametrize("factory", [f for _, f in CELL_PASS_GRAPHS], ids=[n for n, _ in CELL_PASS_GRAPHS])
def test_cell_pass_on_a_block_equals_its_rows(factory, p):
    # a (k, m) block's value and gradient are its rows' own, bit for bit:
    # each row reduced in the order of a lone vector
    core = _core_mesh(factory(), 0.02)
    op = EnergyOperator(core, p)
    rng = np.random.default_rng(6)
    wide = rng.standard_normal((3, core.n_dofs + 5))
    picked = wide[:, rng.permutation(core.n_dofs + 5)[: core.n_dofs]]
    # V[:, idx] is F-ordered: its rows are strided
    assert not picked.flags.c_contiguous
    blocks = [rng.standard_normal((4, core.n_dofs)), rng.standard_normal((1, core.n_dofs)), picked]
    for block in blocks:
        value, gradient = op.value(block), op.gradient(block)
        assert value.shape == (len(block), 1) and gradient.shape == block.shape
        for i, row in enumerate(block):
            alone = np.ascontiguousarray(row)
            assert value[i, 0] == op.value(alone)
            assert np.array_equal(gradient[i], op.gradient(alone))


LP_LEADS = [
    (0.3, 40, 0.05),
    (1e-4, 8000, 0.02),
    (-1e-3, 500, 0.02),
    # flat
    (0.0, 300, 0.02),
    (0.0, 20000, 0.02),
    # near the lowest shift, where the profile grows to 1/cos(n phi)
    (0.999 * _lowest_shift(500, 0.02), 500, 0.02),
    (0.999999 * _lowest_shift(20000, 0.02), 20000, 0.02),
    (0.999 * _lowest_shift(1, 0.05), 1, 0.05),
    (0.999 * _lowest_shift(40, 0.5), 40, 0.5),
    # one and two cells, and around the cells summed directly
    (0.3, 1, 0.05),
    (0.3, 2, 0.05),
    (-0.5, 2, 0.05),
    (0.3, 16, 0.05),
    (0.3, 17, 0.05),
    (-0.5, 17, 0.05),
    # steep cells: theta about 0.96, 3.3 and 5.3
    (400.0, 300, 0.05),
    (1e4, 200, 0.05),
    (1e6, 8000, 0.02),
]


@pytest.mark.parametrize("omega,n,h", LP_LEADS)
@pytest.mark.parametrize("p", [2.5, 4.0, 5.5])
def test_leads_lp_integral_raises_each_node_once(omega, n, h, p):
    # the O(1) sum against the direct Simpson pass, which raises each of
    # the lead's nodes once (largest error seen: 7e-15 relative, on the
    # flat lead of 20000 cells, where the direct sum rounds off n h)
    leads = Leads(line_graph(1.0), omega, n, h)
    profile = lead_profile(omega, n, h)
    direct = _simpson_abs_pow(profile[:-1], profile[1:], np.full(n, h), p)
    assert leads.lp_integral(p) == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_a_run_assembles_the_stiffness_once_and_leaves_it(monkeypatch):
    # one core mesh per run, so one assembly; the factors write their
    # diagonals into a copy
    built = []
    assemble = Mesh.stiffness_matrix

    def record(self):
        if self._stiffness is None:
            built.append(self)
        return assemble(self)

    monkeypatch.setattr(Mesh, "stiffness_matrix", record)
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    assert minimize(line_graph(1.0), 1.0, 2.5, cfg).verdict == NEGATIVE_MINIMUM
    assert len(built) == 1
    (core,) = built
    stiffness = core.stiffness_matrix()  # the cached matrix: no second assembly
    assert len(built) == 1
    fresh = assemble(Mesh(core.graph, core.h_max, core.r_cut))
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(stiffness, name), getattr(fresh, name))


def test_zero_infimum_below_threshold():
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0, 40.0))
    res = minimize(line_graph(0.25), 1.0, 4.0, cfg)
    assert res.verdict == ZERO_INFIMUM_SUSPECTED
    energies = [row[1] for row in res.r_cut_table]
    assert energies[0] < energies[1] < energies[2] <= 0.0
    assert abs(energies[-1]) < 1e-3


def test_energy_trace_monotone():
    res = minimize(line_graph(1.0), 1.0, 3.0, SolverConfig(r_cut_schedule=(10.0,)))
    trace = res.energy_trace
    assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))


def test_minimize_rejects_bad_parameters():
    with pytest.raises(ValueError):
        minimize(line_graph(1.0), -1.0, 3.0)
    with pytest.raises(ValueError):
        minimize(line_graph(1.0), 1.0, 6.5)


@pytest.mark.parametrize("mu", [math.inf, math.nan])
def test_non_finite_mass_is_rejected(mu):
    # NaN passes no comparison and infinity passes mu > 0
    for call in (
        lambda: minimize(line_graph(1.0), mu, 3.0),
        lambda: threshold_exist(4.0, mu, 2),
        lambda: threshold_nonexist(4.0, mu),
    ):
        with pytest.raises(ValueError, match="mu must be finite"):
            call()


@pytest.mark.parametrize("mu", [True, np.True_], ids=["bool", "numpy-bool"])
def test_boolean_mass_is_rejected(mu):
    # a bool passes the finite-and-positive test as 1.0: certify issued a
    # valid certificate for double_bridge(.9, .9) at p = 4 and mu = True
    graph = double_bridge(0.9, 0.9)
    for call in (
        lambda: minimize(graph, mu, 4.0),
        lambda: existence_dichotomy(graph, mu, 4.0),
        lambda: threshold_exist(4.0, mu, 2),
        lambda: threshold_nonexist(4.0, mu),
        lambda: threshold_report(4.0, mu, 2),
        lambda: certify_nonexistence(graph, 4.0, mu),
    ):
        with pytest.raises(ValueError, match="mu must be finite and positive"):
            call()


@pytest.mark.parametrize("mu", [True, np.True_, math.nan, math.inf], ids=["bool", "numpy-bool", "nan", "inf"])
@pytest.mark.parametrize("init", [initializer_competitor, initializer_soliton, initializer_random])
def test_initializers_reject_a_bad_mass(init, mu):
    # True ran as 1.0; inf reached the soliton profile's overflow first
    graph = line_graph(1.0)
    mesh = Mesh(graph, h_max=0.05, r_cut=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mu must be finite and positive"):
            init(graph, mu, 3.0, mesh)


def test_solver_config_rejects_non_integer_counts():
    for name, bad in (("max_iters", 2.5), ("max_iters", "10"), ("max_iters", True)):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: bad})


@pytest.mark.parametrize(
    "name,bad",
    [
        pytest.param("h_max", True, id="h_max"),
        pytest.param("grad_tol", True, id="grad_tol"),
        pytest.param("r_cut_schedule", (True, 10.0), id="r_cut_schedule"),
        pytest.param("r_cut_schedule", (np.True_, 10.0), id="r_cut_schedule-numpy-bool"),
        # float() reads each digit of "12" as a cut: stages at 1 and 2
        pytest.param("r_cut_schedule", "12", id="r_cut_schedule-string"),
        pytest.param("r_cut_schedule", ("10", "20"), id="r_cut_schedule-strings"),
    ],
)
def test_solver_config_rejects_booleans(name, bad):
    # a bool, like a numeric string, is a number to float() and passes the
    # finite-and-positive test
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: bad})


def test_dead_end_minimizer_within_single_lead_constants():
    # the broom's tip is a dead end, so the report checks the minimizer
    # against c = sqrt 2 (it violates the two-lead c = 1)
    res = minimize(star_graph((3.0,), 2), 1.0, 4.0, SolverConfig(r_cut_schedule=(20.0, 40.0)))
    assert res.report.gn_c == math.sqrt(2.0)
    assert res.report.gn_slack_inf > 0.0 and res.report.gn_slack_p > 0.0
    # contraction c^4 mu meas(K) = 4 * 1 * 3
    assert inductive_bound_check(res.function, 4.0).contraction == pytest.approx(12.0, abs=1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(r_cut_schedule=(20.0, 10.0))
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    # starting states are built by the initializers, not chosen by config
    with pytest.raises(TypeError):
        SolverConfig(initializer="fancy")


@pytest.mark.parametrize(
    "name,bad",
    [
        pytest.param("r_cut_schedule", (10.0, math.inf), id="r_cut_inf"),
        pytest.param("r_cut_schedule", (10.0, math.nan), id="r_cut_nan"),
        pytest.param("r_cut_schedule", (-5.0, 10.0), id="r_cut_negative"),
        pytest.param("r_cut_schedule", (0.0, 10.0), id="r_cut_zero"),
        pytest.param("h_max", math.inf, id="h_max_inf"),
        pytest.param("h_max", math.nan, id="h_max_nan"),
        pytest.param("h_max", 0.0, id="h_max_zero"),
        pytest.param("grad_tol", math.nan, id="grad_tol_nan"),
        pytest.param("grad_tol", math.inf, id="grad_tol_inf"),
        pytest.param("grad_tol", -1e-7, id="grad_tol_negative"),
    ],
)
def test_solver_config_rejects_non_finite_or_non_positive_values(name, bad):
    # the config is the only check on them: a run meshes its leads from
    # r_cut and h_max without building a Mesh per stage
    with pytest.raises(ValueError, match="finite and positive"):
        SolverConfig(**{name: bad})


# r_cut_table and stages of SolverConfig(r_cut_schedule=(10, 20), h_max=0.05)
# runs from the default start at mu = 1: where the stages get their core
# forms must not move them, and they do not move with the BLAS thread count
# either. Re-pinned when the gradient became one bincount of the cell pass,
# the lead shift a Newton iteration and the preconditioner a carry-over
# between stages: the energies moved in their last digits, the iterations
# not at all, and the rounding-level trials that end a stage by a few.
# Re-pinned when the preconditioner became a banded LU in reverse
# Cuthill-McKee order: energies moved in their last digits, one stage by an
# iteration, and the rounding-level trials by a few.
PINNED_STAGES = [
    pytest.param(
        lambda: line_graph(1.0),
        3.0,
        [(10.0, -0.00826461777908636, 12, True), (20.0, -0.007072884756353197, 7, True)],
        [(10.0, 12, 0, "line_search"), (20.0, 7, 0, "line_search")],
        id="line",
    ),
    pytest.param(
        lambda: double_bridge(0.5, 0.5),
        3.5,
        [(10.0, -0.0019902680780338475, 8, True), (20.0, -0.0007243027927813089, 10, True)],
        [(10.0, 8, 4, "line_search"), (20.0, 10, 0, "line_search")],
        id="double_bridge",
    ),
    pytest.param(
        lambda: star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2),
        3.0,
        [(10.0, -0.0019098137117035685, 11, True), (20.0, -0.0008086105552482252, 9, True)],
        [(10.0, 11, 0, "line_search"), (20.0, 9, 0, "line_search")],
        id="star",
    ),
]


@pytest.mark.parametrize("factory,p,table,stages", PINNED_STAGES)
def test_stage_tables_are_pinned(factory, p, table, stages):
    res = minimize(factory(), 1.0, p, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05))
    assert res.r_cut_table == table
    assert res.stages == stages
    # the result's energy is the last stage's, not a sum over its lifted mesh
    assert res.energy == table[-1][1]


@pytest.mark.parametrize("factory,p,table,stages", PINNED_STAGES)
def test_factorizations_count_the_lu_factors(monkeypatch, factory, p, table, stages):
    # every stage starts with the previous stage's factor, so a run of two
    # stages may factor once; result.json keeps its fields
    factors = []
    dgbtrf = solver.dgbtrf

    def counted(*args, **kwargs):
        factors.append(1)
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(solver, "dgbtrf", counted)
    res = minimize(factory(), 1.0, p, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05))
    assert res.factorizations == len(factors) >= 1
    assert "factorizations" not in res.to_dict()


_BLAS_RUN = """
from graphnls import SolverConfig, line_graph, minimize
res = minimize(line_graph(1), 1, 3, SolverConfig(r_cut_schedule=(20, 40, 80, 160), h_max=0.02))
print(repr(res.energy), repr(res.el.lambda_estimate), repr(res.report.gn_slack_p))
"""


def test_result_does_not_depend_on_the_blas_thread_count():
    # the threaded ddot sums in an order that depends on the thread count;
    # the result is computed on core vectors, below its threading threshold
    src = str(Path(solver.__file__).resolve().parents[1])
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-c", _BLAS_RUN], env=env, capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr
        printed.append(out.stdout)
    assert printed[0] == printed[1]


def test_determinism_with_seed():
    graph = line_graph(1.0)
    mesh = Mesh(graph, h_max=0.1, r_cut=6.0)
    cfg = SolverConfig(r_cut_schedule=(6.0,), h_max=0.1, max_iters=800)
    r1 = minimize(graph, 1.0, 3.0, cfg, initial=initializer_random(graph, 1.0, 3.0, mesh, seed=42))
    r2 = minimize(graph, 1.0, 3.0, cfg, initial=initializer_random(graph, 1.0, 3.0, mesh, seed=42))
    assert r1.energy == r2.energy
    assert np.array_equal(r1.function.values, r2.function.values)


# initializers


def test_initializer_masses():
    g = double_bridge(0.8, 1.2)
    mesh = Mesh(g, h_max=0.05, r_cut=10.0)
    for make in (initializer_competitor, initializer_soliton):
        u = make(g, 2.0, 3.5, mesh)
        assert l2_norm_sq(u) == pytest.approx(2.0, rel=1e-10)
    u = initializer_random(g, 2.0, 3.5, mesh, seed=1)
    assert l2_norm_sq(u) == pytest.approx(2.0, rel=1e-10)


def test_initializer_soliton_placement():
    g = line_graph(2.0)
    mesh = Mesh(g, h_max=0.05, r_cut=10.0)
    u = initializer_soliton(g, 1.0, 4.0, center_edge="core", center_offset=0.3, mesh=mesh)
    # peak node sits at the requested point
    peak_dof = int(np.argmax(u.values))
    core_dofs = list(mesh.edge_dofs["core"])
    assert peak_dof in core_dofs
    x_peak = mesh.edge_coords["core"][core_dofs.index(peak_dof)]
    assert x_peak == pytest.approx(0.3, abs=0.06)
    with pytest.raises(ValueError):
        initializer_soliton(g, 1.0, 4.0, center_edge="lead1", center_offset=0.5, mesh=mesh)
    with pytest.raises(ValueError):
        initializer_soliton(g, 1.0, 4.0, center_edge="core", center_offset=5.0, mesh=mesh)


def test_soliton_profile_solves_full_line_equation():
    # w'' + w^3 = lam w for the p = 4 profile, sampled pointwise; the decay
    # rate is 1/4, so +-60 captures the mass to well below 1e-6
    xs = np.linspace(-60.0, 60.0, 24001)
    h = xs[1] - xs[0]
    w = soliton_profile(xs, 1.0, 4.0)
    lam = 1.0 / 16.0
    resid = (w[2:] - 2 * w[1:-1] + w[:-2]) / h**2 + w[1:-1] ** 3 - lam * w[1:-1]
    assert np.max(np.abs(resid)) < 1e-5
    # mass integrates to mu over the whole line
    assert np.trapezoid(w**2, xs) == pytest.approx(1.0, rel=1e-6)


def test_soliton_profile_p4_constants():
    # amplitude sqrt(mu)/(2 sqrt(2)) ... peak value at x = 0 is sqrt(mu/8)
    assert soliton_profile(np.array([0.0]), 1.0, 4.0)[0] == pytest.approx(
        np.sqrt(1.0 / 8.0), rel=1e-12
    )


# dirichlet benchmark


def test_dirichlet_line_min_window():
    val, (xs, vs) = dirichlet_line_min(1.0, 1.0)
    assert 0.99 <= val <= 1.02
    # the pinned node carries the boundary value
    assert np.max(vs) == pytest.approx(1.0, abs=1e-12)


def test_dirichlet_half_line_window():
    val, _ = dirichlet_line_min(1.0, 1.0, half_line=True)
    assert 0.2475 <= val <= 0.255


def test_dirichlet_scaling_in_m_and_a():
    # exact value a^4/m on the line: double the mass, halve the value
    v1, _ = dirichlet_line_min(1.0, 1.0)
    v2, _ = dirichlet_line_min(2.0, 1.0)
    assert v2 == pytest.approx(v1 / 2.0, rel=0.03)
    v3, _ = dirichlet_line_min(1.0, 1.2)
    assert v3 == pytest.approx(1.2**4 * v1, rel=0.03)


@pytest.mark.parametrize(
    "args, kwargs, match",
    [
        ((1e-9, 1.0), {}, "infeasible"),
        ((1.0, 1.0), {"r_cut": 0.4}, "truncation too short"),
        ((math.nan, 1.0), {}, "m must be finite"),
        ((1.0, math.nan), {}, "a must be finite"),
        ((1.0, math.inf), {}, "a must be finite"),
        ((1.0, 1.0), {"r_cut": math.inf}, "r_cut must be finite"),
        ((1.0, 1.0), {"h_max": math.inf}, "h_max must be finite"),
        ((1.0, 1.0), {"h_max": math.nan}, "h_max must be finite"),
        # a bool ran as 1.0
        ((True, 1.0), {}, "m must be finite"),
        ((1.0, np.True_), {}, "a must be finite"),
        ((1.0, 1.0), {"h_max": True}, "h_max must be finite"),
        ((1.0, 1.0), {"r_cut": True}, "r_cut must be finite"),
    ],
    ids=[
        "infeasible", "short_cut", "nan_m", "nan_a", "inf_a", "inf_r_cut", "inf_h_max", "nan_h_max",
        "bool_m", "bool_a", "bool_h_max", "bool_r_cut",
    ],
)
def test_dirichlet_infeasible_pin(args, kwargs, match):
    with pytest.raises(ValueError, match=match):
        dirichlet_line_min(*args, **kwargs)


@pytest.mark.parametrize("half_line, exact", [(False, 1.0), (True, 0.25)], ids=["line", "half_line"])
def test_dirichlet_line_second_order_and_exact_mass(half_line, exact):
    errors = []
    for h in (0.04, 0.02, 0.01):
        val, (xs, vs) = dirichlet_line_min(1.0, 1.0, h_max=h, half_line=half_line)
        errors.append(abs(val - exact))
        weights = np.full(len(xs), xs[1] - xs[0])
        weights[0] = weights[-1] = weights[0] / 2.0
        assert float(np.dot(weights, vs * vs)) == pytest.approx(1.0, abs=1e-12)
    # O(h^2): each halving of the mesh width cuts the error about fourfold
    assert all(a >= 3.5 * b for a, b in zip(errors, errors[1:]))


# verdict classification on synthetic truncation tables


def tbl(energies, converged=True):
    return [(10.0 * 2**i, e, 100, converged) for i, e in enumerate(energies)]


def test_verdict_negative_minimum():
    assert _verdict(tbl([-0.51, -0.502, -0.5019]), 1e-5) == NEGATIVE_MINIMUM


def test_verdict_zero_small_last_energy():
    assert _verdict(tbl([-3e-4, -2e-5, -8e-6]), 1e-5) == ZERO_INFIMUM_SUSPECTED


def test_verdict_zero_by_extrapolation():
    # ratios 0.5: limit -1.95e-5 + 1e-5 ... extrapolates above -tol
    assert _verdict(tbl([-8e-5, -4e-5, -2e-5]), 1e-5) == ZERO_INFIMUM_SUSPECTED


def test_verdict_inconclusive_when_drifting():
    assert _verdict(tbl([-0.9, -0.5, -0.3]), 1e-5) == INCONCLUSIVE


def test_verdict_inconclusive_without_convergence():
    assert _verdict(tbl([-0.51, -0.502, -0.5019], converged=False), 1e-5) == INCONCLUSIVE


def test_verdict_inconclusive_nonmonotone_near_zero():
    assert _verdict(tbl([-2e-5, -9e-4, -3e-4]), 1e-5) == INCONCLUSIVE


# dichotomy


def test_existence_dichotomy_negative_side():
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05, max_iters=3000)
    d = existence_dichotomy(star_graph((3.0,), half_lines_per_terminal=2), 1.0, 4.0, cfg)
    assert d.verdict == NEGATIVE_MINIMUM
    assert d.best_energy < -0.02
    assert d.best_label in d.runs
    assert d.runs[d.best_label].energy == d.best_energy


@pytest.mark.parametrize(
    "factory,p",
    [
        pytest.param(lambda: line_graph(0.25), 4.0, id="line0.25"),
        pytest.param(lambda: star_graph((3.0,), 2), 4.0, id="broom"),
        pytest.param(lambda: double_bridge(0.9, 0.9), 4.0, id="double_bridge0.9"),
        pytest.param(lambda: line_graph(1.0), 3.0, id="line1"),
        pytest.param(lambda: load_graph(DEMO_GRAPHS_DIR / "star.graph"), 4.5, id="demo_star"),
    ],
)
def test_existence_dichotomy_breaks_energy_ties_by_start_order(factory, p):
    # several starts reach the same minimum to within rounding; the label
    # used to follow the last digits, here the competitor comes first
    cfg = SolverConfig(h_max=0.05, r_cut_schedule=(10.0, 20.0, 40.0), max_iters=3000)
    d = existence_dichotomy(factory(), 1.0, p, cfg)
    assert d.best_label == "competitor"
    assert d.best_energy == d.runs["competitor"].energy
    e_min = min(r.energy for r in d.runs.values())
    assert d.best_energy - e_min <= 64 * np.finfo(float).eps * abs(e_min)


def test_existence_dichotomy_zero_side():
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0, 40.0), h_max=0.05, max_iters=3000)
    d = existence_dichotomy(line_graph(0.25), 1.0, 4.0, cfg)
    assert d.verdict == ZERO_INFIMUM_SUSPECTED
    # no initializer may find a negative minimum where none exists
    for res in d.runs.values():
        assert res.verdict != NEGATIVE_MINIMUM


def test_postprocess_keeps_mass_and_positivity():
    graph = double_bridge(0.5, 0.5)
    start = initializer_random(graph, 1.0, 3.0, Mesh(graph, h_max=0.1, r_cut=8.0), seed=3)
    res = minimize(graph, 1.0, 3.0, SolverConfig(r_cut_schedule=(8.0,), h_max=0.1), initial=start)
    assert res.report.mass == pytest.approx(1.0, abs=1e-10)
    assert res.min_node_value >= 0.0


def test_warm_start_transfer_extends_tails():
    g = line_graph(1.0)
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    res = minimize(g, 1.0, 3.0, cfg)
    mesh = res.function.mesh
    assert mesh.r_cut == 20.0
    # tail values decay, no truncation spike at the old cut
    lead = res.function.values[mesh.edge_dofs["lead1"]]
    tail = lead[len(lead) // 2 :]
    assert np.all(np.diff(tail) <= 1e-12)


# what a run builds


@pytest.mark.parametrize(
    "other", [pytest.param(lambda: line_graph(3.0), id="graph"), pytest.param(lambda: double_bridge(0.5, 0.5), id="double_bridge")]
)
def test_minimize_rejects_mismatched_meshes(other):
    # a start's mesh must be built on the run's graph: a longer line would
    # be clipped onto the shorter core, another topology has other edges
    graph = other()
    start = initializer_competitor(graph, 1.0, 3.0, Mesh(graph, h_max=0.05, r_cut=10.0))
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    with pytest.raises(ValueError, match="another graph"):
        minimize(line_graph(1.0), 1.0, 3.0, cfg, initial=start)


def _count_meshes(monkeypatch) -> list:
    init = Mesh.__init__
    built = []

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Mesh, "__init__", counted)
    return built


def test_minimize_builds_the_core_and_the_last_stage_mesh(monkeypatch):
    graph = line_graph(1.0)
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0, 40.0), h_max=0.05)
    start = initializer_soliton(graph, 1.0, 3.0, Mesh(graph, h_max=0.05, r_cut=10.0), center_offset=0.3)
    built = _count_meshes(monkeypatch)
    res = minimize(graph, 1.0, 3.0, cfg, initial=start)
    # a run meshes its core alone
    assert len(built) == 1
    (core,) = built
    assert core.graph.n_half_lines == 0 and core.n_dofs == 21
    assert res.core.mesh is core
    # the last stage's mesh is built on the first read of the function
    function = res.function
    assert len(built) == 2 and built[1] is function.mesh and function.mesh.r_cut == 40.0
    assert res.function is function and len(built) == 2
    # the default start is sampled on the first stage's mesh, built for it
    built.clear()
    minimize(graph, 1.0, 3.0, cfg)
    assert [m.r_cut for m in built if m.graph is graph] == [10.0]
    assert len(built) == 2


def _count_assemblies(monkeypatch) -> list:
    assemble = Mesh.stiffness_matrix
    built = []

    def counted(self):
        if self._stiffness is None:
            built.append(self)
        return assemble(self)

    monkeypatch.setattr(Mesh, "stiffness_matrix", counted)
    return built


def test_dichotomy_builds_one_start_mesh_one_core_and_one_assembly(monkeypatch):
    # the six starts live on one mesh, which keeps one core for them all
    built, assembled = _count_meshes(monkeypatch), _count_assemblies(monkeypatch)
    d = existence_dichotomy(line_graph(1.0), 1.0, 3.0, SolverConfig(r_cut_schedule=(10.0, 20.0, 40.0), h_max=0.05))
    assert len(built) == 2
    assert [m.graph.n_half_lines for m in built] == [2, 0]
    assert assembled == built[1:]
    assert all(r.core.mesh is built[1] for r in d.runs.values())


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(lambda: line_graph(1.0), id="line"),
        pytest.param(lambda: double_bridge(0.5, 0.5), id="double_bridge"),
        pytest.param(lambda: star_graph((0.5, 0.7, 0.9)), id="star"),
    ],
)
@pytest.mark.parametrize("p", [3.5, 4.5])
def test_shared_core_runs_equal_standalone_runs(monkeypatch, factory, p):
    # the dichotomy's runs descend as one block on one core Mesh, its mass
    # vector and its stiffness matrix; each must be the one-start minimize
    # of an equal start on a fresh mesh, bit for bit
    graph = factory()
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05, max_iters=3000)
    calls, run = [], solver._minimize_starts

    def recorded(*args):
        calls.append(args[-1])
        return run(*args)

    monkeypatch.setattr(solver, "_minimize_starts", recorded)
    d = existence_dichotomy(graph, 1.0, p, cfg)
    (starts,) = calls
    assert len(starts) == len(d.runs) == 6
    for start, shared in zip(starts, d.runs.values()):
        fresh = Mesh(graph, h_max=start.mesh.h_max, r_cut=start.mesh.r_cut)
        alone = minimize(graph, 1.0, p, cfg, initial=GraphFunction(fresh, start.values.copy()))
        assert alone.core.mesh is not shared.core.mesh
        _assert_same_run(alone, shared)


def _assert_same_run(a, b):
    """Two results equal in everything a run records, bit for bit."""
    assert a.to_dict() == b.to_dict()
    assert a.stages == b.stages
    assert a.factorizations == b.factorizations
    assert a.trace == b.trace
    assert np.array_equal(a.core.values, b.core.values)
    assert a.lead_shift == b.lead_shift


@st.composite
def small_graphs(draw):
    """A star, a broom (a path with a lead at its far end) or a bridge of
    parallel edges: 1 to 3 core edges of length 0.2 to 3, 1 to 4 leads."""
    kind = draw(st.sampled_from(("star", "broom", "bridge")))
    lengths = draw(st.lists(st.floats(0.2, 3.0), min_size=1, max_size=3))
    if kind == "star":
        vertices = ["hub", *(f"t{i}" for i in range(len(lengths)))]
        core = [(f"arm{i}", "hub", f"t{i}", x) for i, x in enumerate(lengths)]
    elif kind == "broom":
        vertices = [f"v{i}" for i in range(len(lengths) + 1)]
        core = [(f"stick{i}", f"v{i}", f"v{i + 1}", x) for i, x in enumerate(lengths)]
    else:
        vertices = ["a", "b"]
        core = [(f"bridge{i}", "a", "b", x) for i, x in enumerate(lengths)]
    anchors = [draw(st.sampled_from(vertices)) for _ in range(draw(st.integers(1, 4)))]
    if kind == "broom":
        anchors[0] = vertices[-1]
    graph = metric_graph(vertices, core, [(f"lead{k}", a) for k, a in enumerate(anchors)])
    graph.require_valid()
    return graph


def _dichotomy_answer(runs):
    """The verdict and best energy existence_dichotomy draws from ``runs``,
    in start order."""
    e_min = min(r.energy for r in runs)
    best = next(r.energy for r in runs if r.energy <= e_min + solver._ENERGY_TIE * abs(e_min))
    if any(r.verdict == NEGATIVE_MINIMUM for r in runs):
        return NEGATIVE_MINIMUM, best
    if all(r.verdict == ZERO_INFIMUM_SUSPECTED for r in runs):
        return ZERO_INFIMUM_SUSPECTED, best
    return INCONCLUSIVE, best


# Runs that stop on the gradient test (grad_tol 1e-7) on one state spread
# in energy by up to about grad_tol^2 over the curvature of the state's
# softest mode. On stars with long dead-end arms that spread outgrows
# _ENERGY_TIE: up to 1.5e-11 relative among the runs on one branch of the
# first example below, whose two branches differ by 1.4e-3.
_FINISH_TIE = 1e-10


def _star(lengths, lead_at):
    return metric_graph(
        ["hub", *(f"t{i}" for i in range(len(lengths)))],
        [(f"arm{i}", "hub", f"t{i}", x) for i, x in enumerate(lengths)],
        [("lead0", lead_at)],
    )


@settings(deadline=None, derandomize=True)
@given(graph=small_graphs(), p=st.floats(2.5, 5.0, exclude_min=True, exclude_max=True))
# a random start ends 7.9e-12 below soliton@0.25, on the same branch
@example(graph=_star((2.3524646256658195,) * 2, "hub"), p=4.0)
# and 1.8e-14 below soliton@0.75
@example(graph=_star((2.5, 2.5000000000000004, 2.5000000000000004), "t0"), p=2.5000000000000004)
def test_random_starts_change_no_dichotomy_answer(graph, p):
    # the six deterministic starts against the same six plus three smoothed
    # random fields, descended as one block on the same mesh: every run is
    # its lone run, and the noise moves neither the verdict nor the best
    # energy beyond the spread of the descent's finish
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    calls, run = [], solver._minimize_starts

    def recorded(*args):
        calls.append(args[-1])
        return run(*args)

    with mock.patch.object(solver, "_minimize_starts", recorded):
        d = existence_dichotomy(graph, 1.0, p, cfg)
    (starts,) = calls
    randoms = [initializer_random(graph, 1.0, p, starts[0].mesh, seed=k) for k in (1, 2, 3)]
    nine = solver._minimize_starts(graph, 1.0, p, cfg, starts + randoms)
    for shared, alone in zip(nine, d.runs.values()):
        _assert_same_run(alone, shared)
    for shared, start in zip(nine[6:], randoms):
        _assert_same_run(minimize(graph, 1.0, p, cfg, initial=start), shared)
    verdict, best = _dichotomy_answer(nine)
    assert (d.verdict, d.best_energy) == (verdict, pytest.approx(best, rel=_FINISH_TIE, abs=0.0))


@pytest.mark.parametrize(
    "factory,p",
    [
        pytest.param(lambda: double_bridge(0.5, 0.5), 3.5, id="double_bridge"),
        pytest.param(lambda: star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2), 4.0, id="star"),
    ],
)
def test_block_runs_do_not_depend_on_their_neighbours(factory, p):
    # random starts leave their stages at different iterations, by different
    # stops (max_iters cuts the longer first stages short, with the step of
    # the last iteration taken); a run's result may not depend on which runs
    # share its block, nor on its place there, nor on a twin in it
    graph = factory()
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05, max_iters=11)
    mesh = Mesh(graph, h_max=0.05, r_cut=10.0)
    starts = [initializer_random(graph, 1.0, p, mesh, seed=seed) for seed in range(7)]
    alone = [minimize(graph, 1.0, p, cfg, initial=u0) for u0 in starts]
    stages = [res.stages for res in alone]
    assert len({row[0][1] for row in stages}) > 1  # first stages of several lengths
    assert {stop for row in stages for *_, stop in row} == {"line_search", "max_iters"}
    for order in ([6, 5, 4, 3, 2, 1, 0], [0, 1, 2, 3, 4, 5, 6, 3], [5, 5, 0]):
        block = solver._minimize_starts(graph, 1.0, p, cfg, [starts[k] for k in order])
        for k, res in zip(order, block):
            _assert_same_run(alone[k], res)
    # a stage cut by max_iters ends at the state of its last step, whose
    # energy the result reports
    cut = SolverConfig(r_cut_schedule=(10.0,), h_max=0.05, max_iters=5)
    for u0, res in zip(starts, solver._minimize_starts(graph, 1.0, p, cut, starts)):
        assert res.stages[0][1:] == (5, res.stages[0][2], "max_iters")
        assert res.energy == res.r_cut_table[-1][1] == res.trace[-1][1]
        _assert_same_run(minimize(graph, 1.0, p, cut, initial=u0), res)



def test_an_uphill_preconditioner_falls_back_to_the_mass_weighted_gradient(monkeypatch):
    # a preconditioner whose solves point uphill: the slope safeguard gives
    # each run the mass-weighted gradient instead, so the runs descend on
    # (an uphill search would stop at the first iteration), and a run in a
    # block is still its run alone
    factorizer = solver._shifted_factorizer

    def uphill(mesh):
        factor = factorizer(mesh)

        def flipped(sigma, vertex_shift=0.0):
            solve = factor(sigma, vertex_shift)
            return lambda r: -solve(r)

        return flipped

    graph, p = double_bridge(0.5, 0.5), 3.5
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05, max_iters=40)
    mesh = Mesh(graph, h_max=0.05, r_cut=10.0)
    starts = [initializer_random(graph, 1.0, p, mesh, seed=seed) for seed in range(3)]
    preconditioned = [minimize(graph, 1.0, p, cfg, initial=u0) for u0 in starts]
    monkeypatch.setattr(solver, "_shifted_factorizer", uphill)
    alone = [minimize(graph, 1.0, p, cfg, initial=u0) for u0 in starts]
    for res, other in zip(alone, preconditioned):
        assert all(iterations > 1 for _, iterations, _, _ in res.stages)
        assert res.trace != other.trace
    for k, res in enumerate(solver._minimize_starts(graph, 1.0, p, cfg, starts[::-1])):
        _assert_same_run(alone[2 - k], res)


def test_a_run_with_no_descent_direction_stops_there(monkeypatch):
    # with a zero gradient and nothing on the leads, neither the
    # preconditioned direction nor its fallback descends: each stage stops
    # at its first iteration, converged, by "no_descent", alone and in a
    # block beside a run that goes on
    monkeypatch.setattr(EnergyOperator, "gradient", lambda self, v: np.zeros_like(v))
    graph, p = double_bridge(0.5, 0.5), 3.5
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05, max_iters=40)
    mesh = Mesh(graph, h_max=0.05, r_cut=10.0)
    starts = []
    for seed in range(2):
        values = initializer_random(graph, 1.0, p, mesh, seed=seed).values.copy()
        values[: mesh.n_vertices] = 0.0
        for e in graph.half_lines:
            values[mesh.edge_dofs[e.id]] = 0.0
        starts.append(GraphFunction(mesh, values))
    alone = [minimize(graph, 1.0, p, cfg, initial=u0) for u0 in starts]
    for res in alone:
        assert res.stages == [(10.0, 1, 0, "no_descent"), (20.0, 1, 0, "no_descent")]
        assert res.converged and res.trace == [] and res.lead_mass == 0.0
    other = initializer_random(graph, 1.0, p, mesh, seed=5)
    block = solver._minimize_starts(graph, 1.0, p, cfg, [starts[0], other, starts[1]])
    _assert_same_run(alone[0], block[0])
    _assert_same_run(alone[1], block[2])
    _assert_same_run(minimize(graph, 1.0, p, cfg, initial=other), block[1])
    assert block[1].stages[0][3] != "no_descent"


@pytest.mark.parametrize(
    "factory,p,calls",
    [
        pytest.param(lambda: line_graph(1.0), 3.5, 35, id="line"),
        pytest.param(lambda: star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2), 4.0, 22, id="star"),
        pytest.param(lambda: double_bridge(0.5, 0.5), 4.5, 23, id="double_bridge"),
    ],
)
def test_dichotomy_runs_start_each_stage_together(monkeypatch, factory, p, calls):
    # every run ends a stage before any starts the next, so each stage's
    # j-th gradient block holds every run still going at its j-th iteration:
    # a stage takes as many gradient blocks as its longest run iterations
    gradient, rows = EnergyOperator.gradient, []

    def counted(self, v):
        rows.append(len(v) if v.ndim == 2 else 1)
        return gradient(self, v)

    monkeypatch.setattr(EnergyOperator, "gradient", counted)
    d = existence_dichotomy(factory(), 1.0, p, SolverConfig(r_cut_schedule=(10.0, 20.0, 40.0), h_max=0.05))
    stages = [[r.stages[k][1] for r in d.runs.values()] for k in range(3)]
    assert rows == [sum(n >= j for n in its) for its in stages for j in range(1, max(its) + 1)]
    assert len(rows) == sum(max(its) for its in stages) == calls


def test_runs_from_starts_on_one_mesh_build_one_core(monkeypatch):
    graph = double_bridge(0.5, 0.5)
    mesh = Mesh(graph, h_max=0.05, r_cut=10.0)
    starts = [initializer_competitor(graph, 1.0, 3.0, mesh), initializer_random(graph, 1.0, 3.0, mesh, seed=1)]
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    built, assembled = _count_meshes(monkeypatch), _count_assemblies(monkeypatch)
    runs = [minimize(graph, 1.0, 3.0, cfg, initial=u0) for u0 in starts]
    assert len(built) == 1 and assembled == built
    assert runs[0].core.mesh is runs[1].core.mesh is mesh.core_mesh(0.05) is built[0]
    assert built[0].graph == graph.core and len(built) == 1
    # the shared forms are read, never written
    assert not built[0].mass_vector().flags.writeable


def test_a_start_on_another_spacing_gets_a_core_at_the_configs(monkeypatch):
    graph = line_graph(1.0)
    start = initializer_competitor(graph, 1.0, 3.0, Mesh(graph, h_max=0.1, r_cut=10.0))
    built = _count_meshes(monkeypatch)
    res = minimize(graph, 1.0, 3.0, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05), initial=start)
    assert built == [res.core.mesh] and res.core.mesh.h_max == 0.05 and res.core.mesh.n_dofs == 21
    # the start's mesh keeps a core per spacing
    assert start.mesh.core_mesh(0.05) is res.core.mesh
    assert start.mesh.core_mesh(0.1) is not res.core.mesh and start.mesh.core_mesh(0.1).n_dofs == 11


# the leads in closed form


def _recurrence_lead(omega, n, h):
    """Phi, Psi and dPhi/domega summed node by node over the profile
    T_{n-i}(c) / T_n(c), c = 1 + delta, delta = omega h^2 / 2, with the
    Chebyshev recurrence and its delta-derivative written in differences
    (Delta_k = T_k - T_{k-1}), so that delta survives next to 1. Every
    array is rescaled together whenever T grows past 1e150, so n theta may
    exceed the float range of cosh."""
    delta = 0.5 * omega * h * h
    t, dt, step, dstep = [1.0, 1.0 + delta], [0.0, 1.0], [0.0, delta], [0.0, 1.0]
    for k in range(1, n):
        step.append(step[k] + 2.0 * delta * t[k])
        dstep.append(dstep[k] + 2.0 * t[k] + 2.0 * delta * dt[k])
        t.append(t[k] + step[k + 1])
        dt.append(dt[k] + dstep[k + 1])
        if t[-1] > 1e150:
            t, dt, step, dstep = ([x * 1e-150 for x in a] for a in (t, dt, step, dstep))
    t, dt, step = np.array(t[: n + 1]), np.array(dt[: n + 1]), np.array(step[: n + 1])
    u = t[::-1] / t[n]  # node i holds T_{n-i} / T_n
    du = (dt[::-1] * t[n] - t[::-1] * dt[n]) / t[n] ** 2  # d/d delta
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    phi = float(np.dot(w, u * u))
    psi = float(np.dot(step[1:], step[1:])) / (t[n] ** 2 * h)
    dphi = 0.5 * h * h * float(np.dot(w, 2.0 * u * du))
    return phi, psi, dphi


LEAD_CASES = [
    # n theta 0.28 and n phi 0.35: inside the range where the brackets are
    # summed as series
    pytest.param(0.02, 40, 0.05, id="series_range"),
    pytest.param(0.05 * _lowest_shift(50, 0.1), 50, 0.1, id="series_range_negative"),
    pytest.param(0.3, 40, 0.05, id="moderate"),
    pytest.param(5.0, 40, 0.05, id="n_theta_above_the_series_range"),
    pytest.param(1e-12, 1000, 0.02, id="tiny_positive"),
    pytest.param(-1e-12, 1000, 0.02, id="tiny_negative"),
    pytest.param(0.0, 300, 0.05, id="zero"),
    pytest.param(0.4 * _lowest_shift(50, 0.1), 50, 0.1, id="negative"),
    pytest.param(0.98 * _lowest_shift(50, 0.1), 50, 0.1, id="near_the_lowest_shift"),
    pytest.param(4.0, 2000, 0.5, id="n_theta_above_710"),
    pytest.param(2.0, 1, 0.3, id="one_cell"),
    pytest.param(-1.0, 1, 0.3, id="one_cell_negative"),
]


@pytest.mark.parametrize("omega,n,h", LEAD_CASES)
def test_lead_forms_match_the_recurrence_profile(omega, n, h):
    phi, psi, dphi = lead_forms(omega, n, h)
    ref_phi, ref_psi, ref_dphi = _recurrence_lead(omega, n, h)
    assert phi == pytest.approx(ref_phi, rel=1e-12)
    assert psi == pytest.approx(ref_psi, rel=1e-9, abs=1e-300)
    assert dphi == pytest.approx(ref_dphi, rel=1e-9)
    # the profile the leads are lifted with is the same one
    profile = lead_profile(omega, n, h)
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    assert profile[0] == 1.0
    assert float(np.dot(w, profile * profile)) == pytest.approx(phi, rel=1e-12)
    # differences of values near 1: their squares carry rounding of about
    # eps * |d| per cell, which only shows when Psi is near 0
    d = np.diff(profile)
    assert float(np.dot(d, d)) / h == pytest.approx(psi, rel=1e-9, abs=1e-24)


def test_lead_forms_are_continuous_at_zero_shift():
    n, h = 1000, 0.02
    at_zero = lead_forms(0.0, n, h)
    for omega in (1e-14, -1e-14):
        assert lead_forms(omega, n, h) == pytest.approx(at_zero, rel=1e-9, abs=1e-20)


def test_lead_forms_reject_shifts_at_the_lowest():
    n, h = 50, 0.1
    lowest = _lowest_shift(n, h)
    assert lead_forms(1.001 * lowest, n, h) is None
    assert lead_forms(-1e3, n, h) is None
    assert lead_forms(0.999 * lowest, n, h) is not None


@pytest.mark.parametrize("omega", [0.5, 1e-3, 0.0, 0.3 * _lowest_shift(500, 0.02)])
def test_lead_shift_recovers_the_shift_from_the_lead_mass(omega):
    n, h = 500, 0.02
    phi = lead_forms(omega, n, h)[0]
    back = _lead_shift(phi, n, h)
    assert lead_forms(back, n, h)[0] == pytest.approx(phi, rel=1e-12)
    assert back == pytest.approx(omega, abs=1e-9 * max(1.0, abs(omega)))


def _lead_shift_cases(n, h):
    """Shifts from just above the lowest to 1e3, through 0 and +-1e-12."""
    lowest = _lowest_shift(n, h)
    near_zero = [-1e-12, 0.0, 1e-12]
    return [lowest * f for f in (0.99, 0.9, 0.5, 0.1, 1e-3, 1e-6)] + near_zero + list(np.logspace(-9.0, 3.0, 13))


@pytest.mark.parametrize("n", [1, 50, 500, 8000])
def test_lead_shift_meets_the_lead_mass_in_a_few_newton_steps(monkeypatch, n):
    # the bisection took about 60 lead_forms calls; a return to it fails
    h = 0.02
    calls = []

    def counted(*args):
        calls.append(args)
        return lead_forms(*args)

    monkeypatch.setattr(solver, "lead_forms", counted)
    for omega in _lead_shift_cases(n, h):
        ratio = lead_forms(omega, n, h)[0]
        calls.clear()
        back = _lead_shift(ratio, n, h)
        assert len(calls) <= 12, omega
        assert abs(lead_forms(back, n, h)[0] - ratio) <= 4 * np.spacing(ratio), omega


@pytest.mark.parametrize("n", [1, 50, 500, 8000])
def test_lead_shift_caps_a_ratio_within_the_anchors_half_cell(n):
    # Phi never falls to h/2: such a ratio gets a lead empty to rounding
    h = 0.02
    for ratio in (0.5 * h, 0.25 * h):
        back = _lead_shift(ratio, n, h)
        assert lead_forms(back, n, h)[0] == 0.5 * h
        assert lead_profile(back, n, h)[1] < 1e-50


# the core alone


def _core_mesh(graph, h_max):
    return Mesh(MetricGraph(graph.vertex_ids, graph.core_edges), h_max)


def _core_dofs(core, mesh):
    """The dof of ``mesh`` that each node of the core mesh is."""
    dofs = np.empty(core.n_dofs, dtype=np.int64)
    for eid, local in core.edge_dofs.items():
        dofs[local] = mesh.edge_dofs[eid]
    return dofs


def test_core_forms_do_not_depend_on_the_truncation():
    # every truncation meshes the core edges as the core mesh does, and
    # its leads by uniform_cells
    graph = star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2)
    core = _core_mesh(graph, 0.05)
    for r_cut, cells in ((10.0, 200), (40.0, 800)):
        mesh = Mesh(graph, h_max=0.05, r_cut=r_cut)
        assert np.array_equal(_core_dofs(core, mesh)[: core.n_vertices], np.arange(core.n_vertices))
        for eid in core.edge_dofs:
            assert mesh.edge_h[eid] == core.edge_h[eid]
            assert np.array_equal(mesh.edge_coords[eid], core.edge_coords[eid])
        assert uniform_cells(r_cut, 0.05) == (cells, 0.05)
        for e in graph.half_lines:
            assert (len(mesh.edge_dofs[e.id]) - 1, mesh.edge_h[e.id]) == (cells, 0.05)


@pytest.mark.parametrize(
    "factory", [f for _, f in STRUCTURED_SOLVE_GRAPHS], ids=[n for n, _ in STRUCTURED_SOLVE_GRAPHS]
)
def test_core_forms_are_the_mesh_forms_on_the_core(factory):
    graph = factory()
    mesh = Mesh(graph, h_max=0.02, r_cut=5.0)
    core = _core_mesh(graph, 0.02)
    dofs = _core_dofs(core, mesh)
    # the core mesh's cells are the mesh's core cells, in the same order
    ia, ib, h = mesh.cells(core_only=True)
    core_a, core_b, core_h = core.cells()
    assert np.array_equal(dofs[core_a], ia) and np.array_equal(dofs[core_b], ib)
    assert np.array_equal(core_h, h)
    v = np.random.default_rng(3).standard_normal(mesh.n_dofs)
    d = v[ib] - v[ia]
    u = v[dofs]
    assert kinetic_energy(GraphFunction(core, u)) == pytest.approx(float(np.dot(d, d / h)), rel=1e-12)
    mass = np.bincount(np.concatenate((ia, ib)), weights=np.concatenate((h, h)) / 2.0, minlength=mesh.n_dofs)
    assert np.array_equal(core.mass_vector(), mass[dofs])


@pytest.mark.parametrize("sigma", [0.04, 1.0, 1e3])
@pytest.mark.parametrize(
    "factory", [f for _, f in STRUCTURED_SOLVE_GRAPHS], ids=[n for n, _ in STRUCTURED_SOLVE_GRAPHS]
)
def test_core_solve_is_the_schur_complement_of_the_stage_mesh(factory, sigma):
    # eliminating the lead nodes of S + sigma*M leaves, per lead, the
    # diagonal Psi + sigma*Phi at its anchor
    graph = factory()
    graph.require_valid()
    mesh = Mesh(graph, h_max=0.02, r_cut=5.0)
    core = _core_mesh(graph, 0.02)
    dofs = _core_dofs(core, mesh)
    counts = np.bincount([core.vertex_dof[e.tail] for e in graph.half_lines], minlength=core.n_vertices)
    b = np.zeros(mesh.n_dofs)
    b[dofs] = np.random.default_rng(0).standard_normal(core.n_dofs)
    ref = splu((mesh.stiffness_matrix() + diags(sigma * mesh.mass_vector())).tocsc()).solve(b)[dofs]
    phi, psi, _ = lead_forms(sigma, *uniform_cells(5.0, 0.02))
    x = _shifted_factorizer(core)(sigma, counts * (psi + sigma * phi))(b[dofs])
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_core_solve_without_edge_nodes():
    # every core edge is one cell: the core has no edge block at all
    graph = metric_graph(["a", "b"], [("e", "a", "b", 0.01)], [("lead", "a")])
    assert _core_mesh(graph, 0.02).n_dofs == 2
    res = minimize(graph, 1.0, 3.0, SolverConfig(r_cut_schedule=(5.0, 10.0), h_max=0.02))
    assert res.report.mass == pytest.approx(1.0, abs=1e-10)


FULL_PROBLEM_GRAPHS = [
    pytest.param(lambda: line_graph(1.0), 3.0, id="line"),
    pytest.param(lambda: double_bridge(0.5, 0.5), 3.0, id="bridge"),
    pytest.param(lambda: star_graph((3.0,), 2), 4.0, id="broom"),
    pytest.param(lambda: star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2), 3.0, id="star"),
    pytest.param(lambda: metric_graph(["v"], [("loop", "v", "v", 1.0)], [("lead", "v")]), 3.0, id="self_loop"),
]


@pytest.mark.parametrize("factory,p", FULL_PROBLEM_GRAPHS)
def test_result_solves_the_full_truncated_problem(factory, p):
    graph = factory()
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    res = minimize(graph, 1.0, p, cfg)
    mesh, u = res.function.mesh, res.function.values
    op = EnergyOperator(mesh, p)
    g = op.gradient(u)
    lam = float(np.dot(g, u))  # mu = 1
    residual = g - lam * op.mass_vec * u
    tangent = residual / op.mass_vec
    grad_norm = math.sqrt(float(np.dot(op.mass_vec, tangent * tangent)))
    # the last stage's gradient rule, read on the whole stage mesh
    tol = cfg.grad_tol * max(1.0, abs(lam))
    stop = res.stages[-1][3]
    assert stop in ("gradient", "line_search")
    assert grad_norm < (tol if stop == "gradient" else 10.0 * tol)
    assert grad_norm == pytest.approx(res.grad_norm, rel=1e-6)
    # on the lead nodes it is at the energy's rounding level: a gradient
    # step there would gain less than one ulp of the energy
    lead = np.concatenate([mesh.edge_dofs[e.id][1:] for e in graph.half_lines])
    lead_sq = float(np.dot(op.mass_vec[lead], tangent[lead] ** 2))
    assert lead_sq <= np.finfo(float).eps * abs(res.energy)
    # the result reports the leads' shift and mass
    assert res.lead_shift == pytest.approx(-lam, rel=1e-6)
    assert res.lead_mass == pytest.approx(l2_norm_sq(res.function) - l2_norm_sq(res.function, core_only=True), rel=1e-12)
    assert set(res.to_dict()) == set(res.report.to_dict()) | set(res.el.to_dict()) | {
        "verdict", "converged", "iterations", "grad_norm", "min_node_value", "strictly_positive", "mu", "r_cut_table"
    }


def test_no_stage_evaluates_the_energy_on_the_stage_mesh(monkeypatch):
    # a run builds one operator, on its core mesh, which has no half-lines
    init = EnergyOperator.__init__
    built = []

    def counted(self, mesh, p):
        init(self, mesh, p)
        built.append(mesh)

    monkeypatch.setattr(EnergyOperator, "__init__", counted)
    res = minimize(line_graph(1.0), 1.0, 2.5, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05))
    assert res.verdict == NEGATIVE_MINIMUM
    assert len(built) == 1 and built[0].graph.n_half_lines == 0


def _assert_matches_the_lifted_report(res, p):
    """Every report field and residual of ``res`` against energy_report and
    el_residual evaluated on its lifted function."""
    ref = energy_report(res.function, p).to_dict()
    for name, value in res.report.to_dict().items():
        if isinstance(value, bool) or name in ("schema_version", "p"):
            assert value == ref[name], name
        else:
            assert value == pytest.approx(ref[name], rel=1e-12), name
    assert res.min_node_value == float(res.function.values.min())
    assert res.strictly_positive == bool(res.function.values.min() > 0.0)
    ref_el = el_residual(res.function, p)
    assert res.el.lambda_estimate == pytest.approx(ref_el.lambda_estimate, rel=1e-12)
    assert res.el.lambda_lsq == pytest.approx(ref_el.lambda_lsq, rel=1e-9)
    for got, want in ((res.el.interior_residuals, ref_el.interior_residuals),
                      (res.el.kirchhoff_residuals, ref_el.kirchhoff_residuals)):
        assert list(got) == list(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-10), key


@pytest.mark.parametrize("factory,p", FULL_PROBLEM_GRAPHS)
def test_result_report_matches_the_lifted_function(factory, p):
    # the report is built from the core values and the closed-form leads
    res = minimize(factory(), 1.0, p, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05))
    assert res.energy == res.r_cut_table[-1][1]
    _assert_matches_the_lifted_report(res, p)


def test_negated_start_reports_its_absolute_value():
    graph = star_graph((0.5, 0.7, 0.9), half_lines_per_terminal=2)
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    start = initializer_competitor(graph, 1.0, 3.0, Mesh(graph, h_max=0.05, r_cut=10.0))
    res = minimize(graph, 1.0, 3.0, cfg, initial=-1.0 * start)
    assert res.strictly_positive
    assert res.energy == minimize(graph, 1.0, 3.0, cfg, initial=start).energy
    assert res.energy == res.r_cut_table[-1][1]
    _assert_matches_the_lifted_report(res, 3.0)


def test_result_dict_at_a_long_cut_is_closed_form_and_positive():
    # min_node_value reads each lead's free end in closed form, not its
    # profile; at 5e10 cells that end underflows, but the state stays
    # positive in exact arithmetic, and the result says so
    graph = line_graph(1.0)
    res = minimize(graph, 1.0, 3.0, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05))
    _assert_matches_the_lifted_report(res, 3.0)
    far = dataclasses.replace(res, leads=Leads(graph, res.leads.omega, 5 * 10**10, res.leads.h))
    t0 = time.perf_counter()
    d = far.to_dict()
    assert time.perf_counter() - t0 < 0.05
    assert d["strictly_positive"] is True and far.strictly_positive
    assert 0.0 <= d["min_node_value"] < res.min_node_value


def test_minimize_reports_through_the_module_level_functions(monkeypatch):
    # the benchmark's energy.report span times the result report through
    # these two names, the residuals once .el is read
    calls = []
    for name in ("energy_report", "el_residual"):
        original = getattr(solver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    minimize(line_graph(1.0), 1.0, 3.0, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)).el
    assert sorted(calls) == ["el_residual", "energy_report"]


def test_dichotomy_reports_and_factors_through_the_module_level_functions(monkeypatch):
    # the benchmark's energy.report and solver.lu_factor spans time the
    # dichotomy's runs through these names, as they time minimize's, the
    # residuals once .el is read
    calls = []
    for name in ("energy_report", "el_residual", "dgbtrf"):
        original = getattr(solver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    d = existence_dichotomy(double_bridge(0.5, 0.5), 1.0, 3.5, SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05))
    for res in d.runs.values():
        res.el
    assert calls.count("energy_report") == calls.count("el_residual") == len(d.runs) == 6
    assert calls.count("dgbtrf") == sum(r.factorizations for r in d.runs.values()) >= 6


def test_residuals_are_computed_once_on_first_read(monkeypatch):
    # minimize and the dichotomy leave a run's residuals to the first read
    # of .el, which computes them once; to_dict holds them as before
    calls = []
    original = solver.el_residual

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "el_residual", counted)
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), h_max=0.05)
    res = minimize(line_graph(1.0), 1.0, 3.0, cfg)
    d = existence_dichotomy(double_bridge(0.5, 0.5), 1.0, 3.5, cfg)
    assert calls == []
    for run in [res, *d.runs.values()]:
        el = run.el
        assert len(calls) == 1
        assert run.el is el and len(calls) == 1
        assert el == original(run.core, run.p, leads=run.leads)
        calls.clear()
    fresh = minimize(line_graph(1.0), 1.0, 3.0, cfg)
    payload = fresh.to_dict()
    assert len(calls) == 1
    assert fresh.to_dict() == payload and len(calls) == 1
    el = original(fresh.core, 3.0, leads=fresh.leads).to_dict()
    assert {key: payload[key] for key in el} == el
