import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnls.energy import (
    EnergyOperator,
    Leads,
    core_sums,
    default_gn_constants,
    el_residual,
    energy_gradient,
    energy_report,
    energy_value,
    gn_check,
    gn_constants,
    lead_forms,
    lead_profile,
    require_p,
)
from graphnls.functions import _abs_pow, GraphFunction, Mesh, interpolate, kinetic_energy, l2_norm_sq, project_mass
from graphnls.graphs import MetricGraph, double_bridge, line_graph, metric_graph, star_graph
from graphnls.solver import _lowest_shift, soliton_profile

from _samples import random_decaying, sample_graphs


def test_require_p_window():
    require_p(3.0)
    require_p(5.9)
    for bad in (2.0, 6.0, 7.0, 1.5):
        with pytest.raises(ValueError):
            require_p(bad)


def test_constant_energy_closed_form():
    # u = 1 on line_graph(2) with R=5: kinetic 0, potential over the core only
    mesh = Mesh(line_graph(2.0), h_max=0.02, r_cut=5.0)
    u = GraphFunction.constant(mesh, 1.0)
    for p in (2.5, 4.0):
        rep = energy_report(u, p)
        assert rep.kinetic == 0.0
        assert rep.potential == pytest.approx(2.0 / p, rel=1e-12)
        assert rep.total_energy == pytest.approx(-2.0 / p, rel=1e-12)
        assert rep.mass == pytest.approx(12.0, rel=1e-12)


def test_energy_scalar_scaling_identity():
    mesh = Mesh(double_bridge(0.8, 1.2), h_max=0.05, r_cut=4.0)
    rng = np.random.default_rng(5)
    u = GraphFunction(mesh, rng.standard_normal(mesh.n_dofs))
    p = 3.3
    rep = energy_report(u, p)
    for sigma in (0.5, 1.7):
        expected = sigma**2 * rep.kinetic - sigma**p * rep.potential
        assert energy_value(sigma * u, p) == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences():
    mesh = Mesh(double_bridge(0.8, 1.1), h_max=0.08, r_cut=5.0)
    rng = np.random.default_rng(17)
    eps = 1e-5
    for p in (2.5, 3.0, 4.0, 5.5):
        u = GraphFunction(mesh, rng.standard_normal(mesh.n_dofs))
        g = energy_gradient(u, p).values
        for _ in range(5):
            d = rng.standard_normal(mesh.n_dofs)
            fd = (
                energy_value(GraphFunction(mesh, u.values + eps * d), p)
                - energy_value(GraphFunction(mesh, u.values - eps * d), p)
            ) / (2 * eps)
            assert float(np.dot(g, d)) == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_gradient_is_exact_discrete_derivative():
    # the Simpson-rule potential is itself a smooth function of nodal values,
    # so at machine precision the analytic gradient must beat O(eps^2) noise
    mesh = Mesh(line_graph(1.0), h_max=0.2, r_cut=1.0)
    u = GraphFunction(mesh, np.linspace(0.5, 1.5, mesh.n_dofs))
    p = 4.0
    g = energy_gradient(u, p).values
    d = np.ones(mesh.n_dofs)
    h = 1e-6
    fd = (
        energy_value(GraphFunction(mesh, u.values + h * d), p)
        - energy_value(GraphFunction(mesh, u.values - h * d), p)
    ) / (2 * h)
    assert float(np.dot(g, d)) == pytest.approx(fd, rel=1e-9)


def test_gn_constants_by_half_line_count():
    C1, c1 = default_gn_constants(4.0, 1)
    C2, c2 = default_gn_constants(4.0, 2)
    assert c1 == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert C1 == pytest.approx(2.0, rel=1e-15)  # c^(p-2) at p=4
    assert c2 == 1.0 and C2 == 1.0
    C5, c5 = default_gn_constants(5.0, 2)
    assert C5 == 1.0 and c5 == 1.0


def test_gn_constants_follow_the_graph():
    broom = star_graph((3.0,), half_lines_per_terminal=2)
    single = default_gn_constants(4.0, 1)
    assert gn_constants(4.0, broom) == single  # dead end: one route out
    assert gn_constants(4.0, line_graph(1.0)) == default_gn_constants(4.0, 2)
    assert gn_constants(4.5, double_bridge(0.5, 0.5)) == default_gn_constants(4.5, 2)
    assert gn_constants(4.5, 3) == default_gn_constants(4.5, 3)  # N alone
    # explicit constants win, each on its own
    assert gn_constants(4.0, broom, C=1.0, c=1.0) == (1.0, 1.0)
    assert gn_constants(4.0, broom, c=1.0) == (single[0], 1.0)
    # no half-lines: the single-lead fallback
    loop = metric_graph(["a"], [("o", "a", "a", 1.0)], [])
    assert gn_constants(4.0, loop) == single
    with pytest.raises(ValueError):
        gn_constants(4.0, 0)


def test_gn_slack_nonnegative_for_decaying_functions():
    mesh = Mesh(line_graph(1.0), h_max=0.02, r_cut=10.0)
    placement = {
        "core": lambda x: x - 0.5,
        "lead1": lambda x: -0.5 - x,
        "lead2": lambda x: 0.5 + x,
    }
    u = interpolate(mesh, lambda t: 1.0 / np.cosh(2.0 * t), placement)
    for p in (3.0, 4.5):
        slack_p, slack_inf = gn_check(u, p)
        assert slack_p >= -1e-10
        assert slack_inf >= -1e-10


def test_gn_equality_case_exponential():
    # e^{-|x|} saturates the sup-norm bound with c = 1 on a two-lead line
    mesh = Mesh(line_graph(1.0), h_max=0.005, r_cut=16.0)
    placement = {
        "core": lambda x: x - 0.5,
        "lead1": lambda x: -0.5 - x,
        "lead2": lambda x: 0.5 + x,
    }
    u = interpolate(mesh, lambda t: np.exp(-np.abs(t)), placement)
    _, slack_inf = gn_check(u, 4.0, c=1.0)
    assert abs(slack_inf) < 1e-3


@functools.cache
def sample_mesh(k: int) -> Mesh:
    return Mesh(sample_graphs()[k], h_max=0.04, r_cut=9.0)


@settings(deadline=None, derandomize=True)
@given(k=st.integers(0, 2), seed=st.integers(0, 2**32 - 1), p=st.floats(2.5, 5.5))
def test_gn_inequalities_bound_random_decaying_functions(k, seed, p):
    # the graph's constants bound the L^p and sup norms, and through the
    # L^p bound the energy: E >= K/2 - (C/p) mu^((p+2)/4) K^((p-2)/4)
    u = random_decaying(sample_mesh(k), np.random.default_rng(seed))
    slack_p, slack_inf = gn_check(u, p)
    assert slack_p >= -1e-9 and slack_inf >= -1e-9
    K, mu = kinetic_energy(u), l2_norm_sq(u)
    C, _ = gn_constants(p, u.mesh.graph)
    assert energy_value(u, p) >= 0.5 * K - (C / p) * mu ** ((p + 2.0) / 4.0) * K ** ((p - 2.0) / 4.0) - 1e-9


def test_gn_check_detects_a_bad_sup_norm_constant():
    # c = 0.5 is below every graph's sup-norm constant: on each sample graph
    # some function that the graph's own constant bounds breaks it
    rng = np.random.default_rng(0)
    for k in range(3):
        samples = [random_decaying(sample_mesh(k), rng) for _ in range(5)]
        assert min(gn_check(u, 4.0)[1] for u in samples) >= -1e-9
        assert min(gn_check(u, 4.0, c=0.5)[1] for u in samples) < 0.0


def test_el_residual_zero_function_raises():
    mesh = Mesh(line_graph(1.0), h_max=0.1, r_cut=2.0)
    with pytest.raises(ValueError):
        el_residual(GraphFunction.constant(mesh, 0.0), 3.0)


def test_el_residual_takes_the_core_sums_it_would_compute():
    mesh = Mesh(double_bridge(0.7, 1.3), h_max=0.05, r_cut=3.0)
    u = random_decaying(mesh, np.random.default_rng(3))
    assert el_residual(u, 3.5, sums=core_sums(u, 3.5)).to_dict() == el_residual(u, 3.5).to_dict()
    # with the nonlinearity on every edge, the core's L^p sum is the wrong one
    with pytest.raises(ValueError, match="core sums"):
        el_residual(u, 3.5, uniform_nonlinearity=True, sums=core_sums(u, 3.5))


def soliton_graph_function(mesh, mu, p, L):
    placement = {
        "core": lambda x: x - L / 2.0,
        "lead1": lambda x: -L / 2.0 - x,
        "lead2": lambda x: L / 2.0 + x,
    }
    return interpolate(mesh, lambda t: soliton_profile(t, mu, p), placement)


def test_el_residual_of_full_line_soliton():
    # with the nonlinearity everywhere, the soliton solves the stationary
    # equation; interior residuals must vanish under refinement
    L, mu, p = 6.0, 1.0, 4.0
    prev = None
    for h in (0.04, 0.02, 0.01):
        mesh = Mesh(line_graph(L), h_max=h, r_cut=30.0)
        u = soliton_graph_function(mesh, mu, p, L)
        el = el_residual(u, p, uniform_nonlinearity=True)
        worst = max(el.interior_residuals.values())
        if prev is not None:
            assert worst < prev * 0.6  # better than first order
        prev = worst
        # multiplier matches the closed form lam = mu^2/16 at p=4
        assert el.lambda_estimate == pytest.approx(mu**2 / 16.0, rel=5e-3)
    assert prev < 5e-4


def test_kirchhoff_residual_flags_kinks():
    mesh = Mesh(line_graph(2.0), h_max=0.01, r_cut=6.0)
    placement = {
        "core": lambda x: x - 1.0,
        "lead1": lambda x: -1.0 - x,
        "lead2": lambda x: 1.0 + x,
    }
    # |t| has a kink at the core midpoint, which is not a vertex; smooth at vertices
    u = interpolate(mesh, lambda t: np.exp(-np.abs(t)), placement)
    el = el_residual(u, 3.0)
    # vertices v1, v2 sit at |t| = 1 where e^{-|t|} is smooth: small residual
    assert max(el.kirchhoff_residuals.values()) < 5e-4

    # now center the kink exactly at vertex v1 (t = 0 there)
    placement2 = {
        "core": lambda x: x,
        "lead1": lambda x: -np.asarray(x, dtype=float),
        "lead2": lambda x: 2.0 + x,
    }
    w = interpolate(mesh, lambda t: np.exp(-np.abs(t)), placement2)
    el2 = el_residual(w, 3.0)
    # outgoing slopes at v1: -1 along the core, -1 along the lead -> |sum| = 2
    assert el2.kirchhoff_residuals["v1"] == pytest.approx(2.0, rel=1e-2)


def test_lambda_least_squares_agrees_with_pairing():
    L, mu, p = 6.0, 1.0, 4.0
    mesh = Mesh(line_graph(L), h_max=0.01, r_cut=30.0)
    u = soliton_graph_function(mesh, mu, p, L)
    el = el_residual(u, p, uniform_nonlinearity=True)
    assert el.lambda_lsq == pytest.approx(el.lambda_estimate, rel=1e-3)


def test_gradient_core_localization():
    # off the core the equation is linear: gradient there must not depend on p
    mesh = Mesh(line_graph(1.0), h_max=0.05, r_cut=4.0)
    rng = np.random.default_rng(23)
    u = GraphFunction(mesh, rng.standard_normal(mesh.n_dofs))
    g3 = energy_gradient(u, 3.0).values
    g5 = energy_gradient(u, 5.0).values
    interior_lead = mesh.edge_dofs["lead1"][2:]
    assert np.allclose(g3[interior_lead], g5[interior_lead], atol=1e-14)
    core_interior = mesh.edge_dofs["core"][1:-1]
    assert not np.allclose(g3[core_interior], g5[core_interior], atol=1e-8)


def test_single_half_line_graph_energy():
    # half-line with a unit segment core: mass of e^{-x} tail plus segment
    g = metric_graph(["a", "b"], [("seg", "a", "b", 1.0)], [("l", "b")])
    mesh = Mesh(g, h_max=0.01, r_cut=14.0)
    u = interpolate(
        mesh, lambda t: np.exp(-np.maximum(t - 1.0, 0.0)), {"seg": lambda x: x, "l": lambda x: 1.0 + x}
    )
    rep = energy_report(u, 3.0)
    assert rep.mass == pytest.approx(1.0 + 0.5, rel=1e-4)  # 1 + int e^{-2x}
    assert rep.potential == pytest.approx(1.0 / 3.0, rel=1e-6)  # core value 1
    assert rep.kinetic == pytest.approx(0.5 * 0.5, rel=1e-3)  # half of int e^{-2x}


def test_el_residual_on_a_lead_skips_only_a_zero_term():
    mesh = Mesh(line_graph(1.0), h_max=0.05, r_cut=4.0)
    u = GraphFunction(mesh, np.random.default_rng(9).standard_normal(mesh.n_dofs))
    p = 3.0
    el = el_residual(u, p)
    vals = u.values[mesh.edge_dofs["lead1"]]
    mid = vals[1:-1]
    # the residual with the nonlinear term times kappa = 0 spelled out
    strong = (vals[:-2] - 2.0 * mid + vals[2:]) / 0.05**2 + 0.0 * _abs_pow(mid, p - 2) * mid
    r = strong - el.lambda_estimate * mid
    assert el.interior_residuals["lead1"] == float(math.sqrt(np.dot(r, r) * 0.05))


def _core_and_lifted(graph, omega, n, h, seed):
    """A random core function with its leads in closed form, and the same
    state lifted onto the mesh whose leads are those n cells of width h."""
    core = Mesh(MetricGraph(graph.vertex_ids, graph.core_edges), h)
    u = GraphFunction(core, np.random.default_rng(seed).uniform(0.2, 1.0, core.n_dofs))
    mesh = Mesh(graph, h_max=h, r_cut=n * h)
    values = np.empty(mesh.n_dofs)
    for eid, dofs in core.edge_dofs.items():
        values[mesh.edge_dofs[eid]] = u.values[dofs]
    for e in graph.half_lines:
        dofs = mesh.edge_dofs[e.id]
        values[dofs] = values[dofs[0]] * lead_profile(omega, n, h)
    return u, Leads(graph, omega, n, h), GraphFunction(mesh, values)


@pytest.mark.parametrize("omega", [0.3, -0.55], ids=["decaying", "growing"])
@pytest.mark.parametrize(
    "graph", [line_graph(1.0), star_graph((3.0,), 2), star_graph((0.5, 0.7, 0.9), 2)], ids=["line", "broom", "star"]
)
def test_closed_form_leads_match_the_lifted_function(graph, omega):
    # omega = -0.55 is near the lowest shift of 40 cells of 0.05 (-0.617),
    # where the profile grows to about 12 at the free end and sets the sup
    p = 3.5
    u, leads, lifted = _core_and_lifted(graph, omega, 40, 0.05, seed=1)
    got, want = energy_report(u, p, leads).to_dict(), energy_report(lifted, p).to_dict()
    assert set(got) == set(want)
    for name in want:
        assert got[name] == pytest.approx(want[name], rel=1e-12), name
    got, want = el_residual(u, p, leads=leads), el_residual(lifted, p)
    assert got.lambda_estimate == pytest.approx(want.lambda_estimate, rel=1e-12)
    assert got.lambda_lsq == pytest.approx(want.lambda_lsq, rel=1e-9)
    for a, b in ((got.interior_residuals, want.interior_residuals), (got.kirchhoff_residuals, want.kirchhoff_residuals)):
        assert list(a) == list(b)
        for key in b:
            assert a[key] == pytest.approx(b[key], abs=1e-10), key


def test_closed_form_leads_need_a_function_on_the_core():
    graph = line_graph(1.0)
    u, leads, lifted = _core_and_lifted(graph, 0.3, 40, 0.05, seed=1)
    with pytest.raises(ValueError, match="core"):
        energy_report(lifted, 3.0, leads)
    with pytest.raises(ValueError, match="nonlinearity"):
        el_residual(u, 3.0, uniform_nonlinearity=True, leads=leads)
    with pytest.raises(ValueError, match="lowest shift"):
        energy_report(u, 3.0, Leads(graph, -0.7, 40, 0.05))


@pytest.mark.parametrize(
    "omega,n,h",
    [
        # at or below the lowest shift (-0.617 for 40 cells of 0.05): the
        # profile changes sign, and the 500-cell lead gave an integral of 7.6
        (-1.0, 500, 0.02),
        (_lowest_shift(40, 0.05), 40, 0.05),
        (0.3, 0, 0.05),
        (0.3, -2, 0.05),
        (0.3, True, 0.05),
        (0.3, np.True_, 0.05),
        (0.3, 40.0, 0.05),
        (0.3, 2.5, 0.05),
        (0.3, 40, -0.02),
        (0.3, 40, 0.0),
        (0.3, 40, math.nan),
        (0.3, 40, math.inf),
        (0.3, 40, True),
        (math.nan, 40, 0.05),
        (math.inf, 40, 0.05),
        (-math.inf, 40, 0.05),
        (True, 40, 0.05),
    ],
)
def test_leads_reject_invalid_input(omega, n, h):
    with pytest.raises(ValueError):
        Leads(line_graph(1.0), omega, n, h)


def test_leads_accept_any_integer_cell_count():
    for n in (1, np.int64(40), 5 * 10**10):
        assert Leads(line_graph(1.0), 0.3, n, 0.02).n == n


@pytest.mark.parametrize("omega", [0.3, 0.0, -1e-18], ids=["decaying", "flat", "growing"])
def test_report_of_a_lead_cut_at_1e9_takes_constant_time_and_memory(omega):
    # r_cut 1e9 at h 0.02 is 5e10 cells a lead; -1e-18 lies above the
    # lowest shift of both cuts (-2.5e-18 at 5e10 cells)
    graph, h, p = star_graph((0.5, 0.7), 2), 0.02, 3.5
    core = Mesh(graph.core, h)
    u = GraphFunction(core, np.random.default_rng(3).uniform(0.2, 1.0, core.n_dofs))

    def peak(leads):
        tracemalloc.start()
        try:
            energy_report(u, p, leads)
            el_residual(u, p, leads=leads)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def seconds(report) -> float:
        start = time.perf_counter()
        report()
        return time.perf_counter() - start

    small, huge = Leads(graph, omega, 4000, h), Leads(graph, omega, 5 * 10**10, h)
    for report in (lambda: energy_report(u, p, huge), lambda: el_residual(u, p, leads=huge)):
        assert min(seconds(report) for _ in range(3)) < 0.05
    assert abs(peak(huge) - peak(small)) <= 64 * 1024
    rep = energy_report(u, p, huge)
    assert all(math.isfinite(v) for v in (rep.total_energy, rep.kinetic, rep.mass, rep.linf))


def test_lead_forms_of_a_subnormal_shift_are_the_flat_leads():
    # sinh(theta)^2 underflowed: dPhi/domega divided by zero
    for omega in (5e-324, -5e-324, 1e-310, -1e-310):
        assert lead_forms(omega, 5, 0.125) == lead_forms(0.0, 5, 0.125)
        leads = Leads(line_graph(1.0), omega, 5, 0.125)
        assert leads.sup == 1.0 and leads.inner_mass == pytest.approx(0.5, rel=1e-15)
