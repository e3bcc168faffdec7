"""Solver behavior against independently computed stationary states.

The reference energies below were produced by a two-parameter shooting
method on the stationary equation (amplitude and multiplier matched to the
decaying-tail condition and the mass constraint), integrated with an
adaptive RK at rtol 1e-12, an entirely different discretization from the
mesh descent under test. Agreement is limited by the P1 mesh (h = 0.02),
measured at roughly 1e-4 relative.
"""
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from graphnls.functions import GraphFunction, Mesh, l2_norm_sq, linf_norm, project_mass
from graphnls.graphs import double_bridge, line_graph, load_graph, metric_graph, star_graph
from graphnls.solver import (
    INCONCLUSIVE,
    NEGATIVE_MINIMUM,
    ZERO_INFIMUM_SUSPECTED,
    SolverConfig,
    _shifted_factorizer,
    _verdict,
    dirichlet_line_min,
    existence_dichotomy,
    initializer_competitor,
    initializer_random,
    initializer_soliton,
    minimize,
    soliton_profile,
)
from graphnls.thresholds import inductive_bound_check

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
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), initializer="random")
    res = minimize(line_graph(1.0), 4.0, 5.0, cfg)
    assert res.verdict == NEGATIVE_MINIMUM
    assert all(converged for *_, converged in res.r_cut_table)
    assert res.iterations < 1000
    # at p = 5.5 the shifted preconditioner alone does not prevent the
    # creep: a stage must end once no step lowers the energy
    res = minimize(line_graph(1.0), 4.0, 5.5, SolverConfig(r_cut_schedule=(10.0, 20.0)))
    assert res.iterations < 1000


def test_strongly_bound_stage_converges_on_relative_tolerance():
    # mu = 8, p = 5: E = -133.3 and lambda of order 100, so the gradient
    # cannot be resolved below about 5e-6; an absolute grad_tol of 1e-7
    # left both stages unconverged and the verdict INCONCLUSIVE
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0), max_iters=2000)
    res = minimize(line_graph(1.0), 8.0, 5.0, cfg)
    assert res.verdict == NEGATIVE_MINIMUM
    assert all(converged for *_, converged in res.r_cut_table)


DEMO_GRAPHS = sorted((Path(__file__).resolve().parents[1] / "demos" / "graphs").glob("*.graph"))
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


def test_structured_solve_rejects_an_indefinite_edge_block():
    mesh = Mesh(line_graph(1.0), h_max=0.1, r_cut=5.0)
    factor = _shifted_factorizer(mesh)
    with pytest.raises(LinAlgError, match="not positive definite"):
        factor(-1e3)


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


def test_solver_config_rejects_non_integer_counts():
    for name, bad in (("max_iters", 2.5), ("seed", 0.5), ("max_iters", "10")):
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
    with pytest.raises(ValueError):
        SolverConfig(initializer="fancy")


def test_determinism_with_seed():
    cfg = SolverConfig(
        r_cut_schedule=(6.0,), h_max=0.1, initializer="random", seed=42, max_iters=800
    )
    r1 = minimize(line_graph(1.0), 1.0, 3.0, cfg)
    r2 = minimize(line_graph(1.0), 1.0, 3.0, cfg)
    assert r1.energy == r2.energy
    assert np.array_equal(r1.function.values, r2.function.values)


# initializers


def test_initializer_masses():
    g = double_bridge(0.8, 1.2)
    for make in (initializer_competitor, initializer_soliton):
        u = make(g, 2.0, 3.5, h_max=0.05, r_cut=10.0)
        assert l2_norm_sq(u) == pytest.approx(2.0, rel=1e-10)
    u = initializer_random(g, 2.0, 3.5, seed=1, h_max=0.05, r_cut=10.0)
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


def test_dirichlet_infeasible_pin():
    with pytest.raises(ValueError):
        dirichlet_line_min(1e-9, 1.0)


def test_dirichlet_line_second_order_and_exact_mass():
    errors = []
    for h in (0.04, 0.02, 0.01):
        val, (xs, vs) = dirichlet_line_min(1.0, 1.0, SolverConfig(h_max=h))
        errors.append(abs(val - 1.0))
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


def test_existence_dichotomy_zero_side():
    cfg = SolverConfig(r_cut_schedule=(10.0, 20.0, 40.0), h_max=0.05, max_iters=3000)
    d = existence_dichotomy(line_graph(0.25), 1.0, 4.0, cfg)
    assert d.verdict == ZERO_INFIMUM_SUSPECTED
    # no initializer may find a negative minimum where none exists
    for res in d.runs.values():
        assert res.verdict != NEGATIVE_MINIMUM


def test_postprocess_keeps_mass_and_positivity():
    cfg = SolverConfig(r_cut_schedule=(8.0,), h_max=0.1, initializer="random", seed=3)
    res = minimize(double_bridge(0.5, 0.5), 1.0, 3.0, cfg)
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
