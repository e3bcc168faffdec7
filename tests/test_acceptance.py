"""End-to-end acceptance suite: twelve numbered criteria, one per test.

Each test prints a single "criterion NN: PASS ..." line with the measured
quantities once its assertions hold, so `pytest -v -s tests/test_acceptance.py`
reads as a checklist. The criteria pin down, at fixed tolerances:

  01 closed-form competitor energy reproduced by the mesh energy
  02 existence-threshold table exact to 1e-12
  03 negative minima with tails that decay within the cut above the threshold
  04 vanishing infima, with the mass spread over the leads, below the threshold
  05 unconditional existence for p in (2,4) on two topologies
  06 pinned-value Dirichlet benchmarks on the line and half-line
  07 rearrangement equimeasurability and kinetic-energy comparison
  08 sup-norm interpolation inequality saturated by e^{-|x|}
  09 directional-derivative consistency of the energy gradient
  10 mass-scaling covariance of the energy
  11 stationarity residuals of converged minimizers under refinement
  12 partition certificate succeeding where the whole-graph check fails
"""

import math
import time

import numpy as np
import pytest

from graphnls import (
    GraphFunction,
    Mesh,
    SolverConfig,
    abs_power_integral,
    certify_nonexistence,
    competitor_energy,
    const_Cp,
    decreasing_rearrangement,
    dirichlet_line_min,
    double_bridge,
    energy_gradient,
    energy_value,
    gn_check,
    interpolate,
    kinetic_energy,
    line_graph,
    minimize,
    project_mass,
    scaling_check,
    star_graph,
    threshold_exist,
    threshold_nonexist,
)
from graphnls.energy import el_residual

from _samples import random_decaying, sample_graphs


def _report(n: int, detail: str) -> None:
    print(f"criterion {n:02d}: PASS {detail}")


def broom(length: float):
    # compact core = one edge of the given length, two half-lines at its tip
    return star_graph((length,), half_lines_per_terminal=2)


@pytest.fixture(scope="module")
def band_runs():
    """Criterion-3 solves, shared with criterion 11."""
    runs = {}
    for length in (3.0, 4.0):
        t0 = time.monotonic()
        res = minimize(broom(length), 1.0, 4.0)
        runs[length] = (res, time.monotonic() - t0)
    return runs


def test_criterion_01_competitor_energy_match():
    a, L, mu, n, p = 0.5, 1.0, 1.0, 2, 4.0
    exact = competitor_energy(a, L, mu, n, p)
    assert exact == pytest.approx(5.0 / 192.0, rel=1e-12)

    t0 = time.monotonic()
    m = (mu - a**2 * L) / n
    rate = a**2 / (2.0 * m)
    mesh = Mesh(line_graph(L), h_max=1e-3, r_cut=40.0)
    placement = {
        "core": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        "lead1": lambda x: np.asarray(x, dtype=float),
        "lead2": lambda x: np.asarray(x, dtype=float),
    }
    u = interpolate(mesh, lambda t: a * np.exp(-rate * t), placement)
    got = energy_value(u, p)
    elapsed = time.monotonic() - t0

    rel = abs(got - exact) / abs(exact)
    assert rel < 1e-3
    assert elapsed < 10.0
    _report(1, f"competitor energy rel err {rel:.2e} in {elapsed:.1f}s")


def test_criterion_02_threshold_table_exact():
    l1_p4 = threshold_exist(4.0, 1.0, 2)
    assert abs(l1_p4 - 2.0) <= 1e-12
    c5 = const_Cp(5.0)
    assert abs(c5 - 675.0 / 256.0) <= 1e-12
    l1_p5 = threshold_exist(5.0, 1.0, 1)
    assert abs(l1_p5 - 675.0 / 256.0) <= 1e-12
    _report(2, f"L1(4,1,2)={l1_p4}, C5={c5} (=675/256), L1(5,1,1)={l1_p5}")


def test_criterion_03_existence_band(band_runs):
    # the leads decay by e^-(n theta) over the cut: a longer cut moves the
    # energy by a relative O(e^(-2 n theta)), which must stay below 1%
    details = []
    for length, (res, elapsed) in band_runs.items():
        assert elapsed < 120.0
        assert res.verdict == "NEGATIVE_MINIMUM"
        drift = math.exp(-2.0 * res.n_theta)
        assert res.n_theta > 20.0 and drift < 0.01
        details.append(f"meas={length}: E={res.energy:.6f} n_theta={res.n_theta:.3g} {elapsed:.1f}s")
    _report(3, "; ".join(details))


def test_criterion_04_nonexistence_band():
    # the mass escapes along the leads: the run spreads over the cut (n
    # theta of order 1) and ends within the rounding bound of 0
    details = []
    for length in (0.25, 0.5):
        res = minimize(line_graph(length), 1.0, 4.0)
        assert res.converged and res.n_theta <= 20.0
        assert abs(res.energy) <= res.bound < 1e-3
        assert res.verdict == "ZERO_INFIMUM_SUSPECTED"
        details.append(f"meas={length}: E={res.energy:.1e} bound={res.bound:.1e} n_theta={res.n_theta:.2f}")
    _report(4, "; ".join(details))


def test_criterion_05_subcritical_unconditional_existence():
    # weakly bound states near p=4 decay slowly, which the derived cut holds
    config = SolverConfig(max_iters=8000)
    details = []
    for p in (2.5, 3.0, 3.5):
        for name, graph in (
            ("line(1)", line_graph(1.0)),
            ("bridge(0.5,0.5)", double_bridge(0.5, 0.5)),
        ):
            res = minimize(graph, 1.0, p, config)
            assert res.verdict == "NEGATIVE_MINIMUM", (name, p, res.verdict)
            details.append(f"{name} p={p}: E={res.energy:.2e}")
    _report(5, "; ".join(details))


def test_criterion_06_dirichlet_benchmark():
    val_line, _ = dirichlet_line_min(1.0, 1.0)
    assert 0.99 <= val_line <= 1.02
    val_half, _ = dirichlet_line_min(1.0, 1.0, half_line=True)
    assert 0.2475 <= val_half <= 0.255
    _report(6, f"line={val_line:.6f} in [0.99,1.02]; half-line={val_half:.6f} in [0.2475,0.255]")


def test_criterion_07_rearrangement_suite():
    # 50 random_decaying samples at r = 2 and a random p over the three
    # sample shapes; raw uniform noise is test_rearrangement_random_suite's
    rng = np.random.default_rng(7)
    meshes = [Mesh(g, h_max=0.06, r_cut=4.0) for g in sample_graphs()]
    samples = [(random_decaying(meshes[i % 3], rng), float(rng.uniform(2.2, 5.8))) for i in range(50)]
    worst_eq, worst_slack = 0.0, math.inf
    for u, p in samples:
        graph = u.mesh.graph
        prof = decreasing_rearrangement(u)
        assert prof.is_nonincreasing()
        measure = sum(e.length for e in graph.core_edges) + graph.n_half_lines * 4.0
        assert prof.measure() == pytest.approx(measure, rel=1e-8)
        for r in (2.0, p):
            a = abs_power_integral(u, r)
            b = prof.abs_power_integral(r)
            rel = abs(a - b) / max(a, 1e-30)
            worst_eq = max(worst_eq, rel)
            assert rel <= 1e-8
        slack = kinetic_energy(u) - prof.kinetic_energy()
        worst_slack = min(worst_slack, slack)
        assert slack >= -1e-10
    _report(7, f"{len(samples)} samples: worst equimeasurability {worst_eq:.1e}, "
               f"worst kinetic slack {worst_slack:.1e}")


def test_criterion_08_gn_equality_case():
    mesh = Mesh(line_graph(1.0), h_max=0.005, r_cut=16.0)
    placement = {
        "core": lambda x: x - 0.5,
        "lead1": lambda x: -0.5 - x,
        "lead2": lambda x: 0.5 + x,
    }
    u = interpolate(mesh, lambda t: np.exp(-np.abs(t)), placement)
    _, slack_inf = gn_check(u, 4.0, c=1.0)
    assert abs(slack_inf) < 1e-3
    _report(8, f"e^-|x| sup-norm slack {slack_inf:.2e} at c=1")


def test_criterion_09_gradient_checks():
    rng = np.random.default_rng(9)
    mesh = Mesh(double_bridge(0.8, 1.1), h_max=0.08, r_cut=5.0)
    eps = 1e-5
    worst = 0.0
    for _ in range(100):
        p = float(rng.uniform(2.3, 5.7))
        u = GraphFunction(mesh, rng.standard_normal(mesh.n_dofs))
        v = rng.standard_normal(mesh.n_dofs)
        lhs = float(np.dot(energy_gradient(u, p).values, v))
        fd = (
            energy_value(GraphFunction(mesh, u.values + eps * v), p)
            - energy_value(GraphFunction(mesh, u.values - eps * v), p)
        ) / (2.0 * eps)
        rel = abs(lhs - fd) / max(1.0, abs(fd))
        worst = max(worst, rel)
        assert rel <= 1e-4
    _report(9, f"100 directional derivatives, worst rel err {worst:.1e}")


def test_criterion_10_scaling_law():
    rng = np.random.default_rng(10)
    mesh = Mesh(line_graph(2.0), h_max=0.02, r_cut=8.0)
    worst = 0.0
    for lam in (0.5, 2.0):
        for p in (3.0, 4.5):
            u = project_mass(random_decaying(mesh, rng), 1.0)
            sc = scaling_check(u, lam, p)
            worst = max(worst, sc.relative_gap)
            assert sc.relative_gap < 1e-3
    _report(10, f"worst covariance gap {worst:.1e} over lam in {{0.5,2}}, p in {{3,4.5}}")


def test_criterion_11_stationarity_at_optimum(band_runs):
    kmax_all = 0.0
    for length, (res, _) in band_runs.items():
        assert res.converged
        kmax = max(res.el.kirchhoff_residuals.values())
        kmax_all = max(kmax_all, kmax)
        assert kmax < 1e-3, (length, kmax)

    # multiplier-residual decay under mesh refinement
    residuals = []
    for h in (0.1, 0.05, 0.025):
        cfg = SolverConfig(h_max=h, max_iters=8000)
        res = minimize(broom(3.0), 1.0, 4.0, cfg)
        assert res.converged
        el = res.el
        residuals.append(abs(el.lambda_estimate - el.lambda_lsq))
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert all(o >= 1.0 for o in orders)
    _report(11, f"max Kirchhoff residual {kmax_all:.1e}; lambda residuals "
                f"{[f'{r:.1e}' for r in residuals]} orders {[f'{o:.2f}' for o in orders]}")


def test_criterion_12_partition_certificate():
    graph = double_bridge(0.9, 0.9)
    cert = certify_nonexistence(graph, 4.0, 1.0)
    assert cert.valid
    assert not cert.whole_graph
    assert cert.threshold == pytest.approx(threshold_nonexist(4.0, 1.0, n_half_lines=2), rel=1e-12)
    assert cert.max_part_measure == pytest.approx(0.9, rel=1e-12)
    assert cert.max_part_measure < cert.threshold

    whole = certify_nonexistence(graph, 4.0, 1.0, partitions=[])
    assert not whole.valid
    assert whole.whole_graph
    assert whole.max_part_measure == pytest.approx(1.8, rel=1e-12)
    _report(12, f"partition certificate max part {cert.max_part_measure} < "
                f"threshold {cert.threshold}; whole graph {whole.max_part_measure} fails")
