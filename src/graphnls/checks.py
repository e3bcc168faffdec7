"""Randomized property suites exercising the library invariants.

Each suite draws seeded random instances, verifies a batch of exact or
tolerance-based properties, and reports failures as human-readable strings.
The ``gn_c`` override exists for deliberate fault injection: passing an
invalid sup-norm constant (say 0.5) must surface violations, which is
itself a test that the slack computation can detect bad constants.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .energy import energy_gradient, energy_report, energy_value, gn_check, gn_constants
from .functions import (
    GraphFunction,
    Mesh,
    abs_power_integral,
    decreasing_rearrangement,
    kinetic_energy,
    l2_norm_sq,
    neighbor_average,
    project_mass,
)
from .graphs import (
    MetricGraph,
    core_measure,
    double_bridge,
    enumerate_partitions,
    homothety,
    line_graph,
    metric_graph,
    parse_graph_text,
    part_core_measure,
    partition_violations,
    graph_to_text,
    star_graph,
    validate,
)
from .solver import NEGATIVE_MINIMUM, SolverConfig, dirichlet_line_min, initializer_competitor, minimize
from .thresholds import (
    certify_nonexistence,
    competitor_energy,
    competitor_mass_requirement,
    const_Cp,
    g_critical_point,
    mass_thresholds,
    scaling_check,
    threshold_exist,
    threshold_nonexist,
    threshold_report,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    failures: list[str]

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.name:14s} {status}  ({self.cases} cases)"
        if self.failures:
            line += "".join(f"\n    - {msg}" for msg in self.failures[:8])
            if len(self.failures) > 8:
                line += f"\n    - ... {len(self.failures) - 8} more"
        return line


class _Collector:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures: list[str] = []

    def check(self, ok: bool, msg: str) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(msg)

    def result(self) -> CheckResult:
        return CheckResult(self.name, not self.failures, self.cases, self.failures)


def _sample_graphs() -> list[MetricGraph]:
    return [
        line_graph(1.0),
        double_bridge(0.7, 1.3),
        star_graph((0.5, 0.8, 1.1), half_lines_per_terminal=1),
    ]


def _random_decaying(mesh: Mesh, rng: np.random.Generator) -> GraphFunction:
    """Positive piecewise-linear function with exponential half-line tails;
    smooth enough for meaningful interpolation-inequality slacks."""
    values = np.empty(mesh.n_dofs)
    for eid, dofs in mesh.edge_dofs.items():
        xs = mesh.edge_coords[eid]
        base = rng.uniform(0.3, 1.0)
        wig = 0.2 * np.sin(rng.uniform(1.0, 3.0) * xs + rng.uniform(0.0, 6.28))
        prof = base + wig
        if mesh.graph.edges_by_id[eid].is_half_line:
            prof = prof * np.exp(-rng.uniform(1.5, 2.5) * xs)
        values[dofs] = prof
    # smooth wiggles across vertices with two averaging passes
    return GraphFunction(mesh, neighbor_average(mesh, np.abs(values) + 1e-3, 2))


def _brute_force_partitions(graph: MetricGraph, max_parts: int) -> set:
    """Assign every edge to one of r parts, filter by the partition rules,
    canonicalize. Exponential; only for small graphs."""
    edge_ids = sorted(e.id for e in graph.edges)
    found = set()
    for r in range(2, max_parts + 1):
        for assign in itertools.product(range(r), repeat=len(edge_ids)):
            parts = [frozenset(eid for eid, a in zip(edge_ids, assign) if a == i) for i in range(r)]
            if any(not part for part in parts):
                continue
            if partition_violations(graph, parts):
                continue
            found.add(tuple(sorted(tuple(sorted(part)) for part in parts)))
    return found


def check_graphs(seed: int = 0, gn_c: float | None = None) -> CheckResult:
    col = _Collector("graphs")
    rng = np.random.default_rng(seed)

    star = star_graph((0.4, 0.6, 0.9), half_lines_per_terminal=1)
    enum = enumerate_partitions(star, star.n_half_lines)
    brute = _brute_force_partitions(star, star.n_half_lines)
    got = set(tuple(sorted(tuple(sorted(part)) for part in q.parts)) for q in enum)
    col.check(got == brute, f"partition enumeration mismatch: {len(got)} vs {len(brute)}")
    col.check(len(enum) == len(set(map(str, enum))), "duplicate partitions returned")

    db = double_bridge(1.0, 2.0)
    for q in enumerate_partitions(db, 2):
        total = sum(part_core_measure(db, part) for part in q.parts)
        col.check(abs(total - core_measure(db)) < 1e-12, "partition measures not additive")

    for graph in _sample_graphs():
        fac = float(rng.uniform(0.3, 2.5))
        col.check(
            abs(core_measure(homothety(graph, fac)) - fac * core_measure(graph)) < 1e-12,
            "homothety does not scale the core measure linearly",
        )
        col.check(validate(graph).ok, "sample graph reported invalid")
        text = graph_to_text(graph)
        col.check(
            core_measure(parse_graph_text(text)) == core_measure(graph),
            "text round trip changed the core measure",
        )

    no_leads = metric_graph(["a", "b"], [("e", "a", "b", 1.0)], [])
    col.check(not validate(no_leads).ok, "graph without half-lines accepted")
    col.check(
        any("N >= 1" in v for v in validate(no_leads).violations),
        "missing half-line message does not state the requirement",
    )
    return col.result()


def check_meshing(seed: int = 0, gn_c: float | None = None) -> CheckResult:
    col = _Collector("meshing")
    rng = np.random.default_rng(seed + 1)
    for graph in _sample_graphs():
        r_cut = float(rng.uniform(3.0, 6.0))
        mesh = Mesh(graph, h_max=0.07, r_cut=r_cut)
        u = GraphFunction.constant(mesh, 1.0)
        expect = core_measure(graph) + graph.n_half_lines * r_cut
        col.check(abs(l2_norm_sq(u) - expect) < 1e-9 * expect, "constant mass != total measure")
        col.check(kinetic_energy(u) == 0.0, "constant has nonzero kinetic energy")
        col.check(abs(float(mesh.mass_vector().sum()) - expect) < 1e-9 * expect, "mass vector sum")
        v = _random_decaying(mesh, rng)
        for eid in mesh.edge_dofs:
            xs = mesh.edge_coords[eid]
            k = rng.integers(0, len(xs))
            got = mesh.evaluate(v.values, eid, float(xs[k]))
            col.check(
                abs(got - v.values[mesh.edge_dofs[eid][k]]) < 1e-12,
                "nodal evaluation mismatch",
            )
    return col.result()


def check_rearrangement(seed: int = 0, gn_c: float | None = None) -> CheckResult:
    col = _Collector("rearrangement")
    rng = np.random.default_rng(seed + 2)
    for graph in _sample_graphs():
        mesh = Mesh(graph, h_max=0.06, r_cut=4.0)
        for _ in range(6):
            u = _random_decaying(mesh, rng)
            prof = decreasing_rearrangement(u)
            col.check(prof.is_nonincreasing(), "rearrangement not nonincreasing")
            total = core_measure(graph) + graph.n_half_lines * 4.0
            col.check(abs(prof.measure() - total) < 1e-8 * total, "rearrangement measure drift")
            for r in (2.0, 3.7):
                a = abs_power_integral(u, r)
                b = prof.abs_power_integral(r)
                col.check(abs(a - b) <= 1e-8 * max(a, 1e-30), f"equimeasurability r={r}")
            col.check(
                kinetic_energy(u) - prof.kinetic_energy() >= -1e-10,
                "rearrangement increased the kinetic energy",
            )
    return col.result()


def check_gn(seed: int = 0, gn_c: float | None = None) -> CheckResult:
    col = _Collector("gn")
    rng = np.random.default_rng(seed + 3)
    for graph in _sample_graphs():
        mesh = Mesh(graph, h_max=0.04, r_cut=9.0)
        _, c_use = gn_constants(4.0, graph, c=gn_c)
        for _ in range(5):
            u = _random_decaying(mesh, rng)
            if kinetic_energy(u) <= 1e-12:
                continue
            p = float(rng.uniform(2.5, 5.5))
            C_use = c_use ** (p - 2.0)
            slack_p, slack_inf = gn_check(u, p, C_use, c_use)
            col.check(slack_p >= -1e-9, f"L^p interpolation slack negative: {slack_p:.3e} (c={c_use})")
            col.check(
                slack_inf >= -1e-9, f"sup-norm interpolation slack negative: {slack_inf:.3e} (c={c_use})"
            )
            # energy lower bound implied by the interpolation inequality
            K = kinetic_energy(u)
            mu = l2_norm_sq(u)
            Cq, _ = gn_constants(p, graph)
            lower = 0.5 * K - (Cq / p) * mu ** ((p + 2.0) / 4.0) * K ** ((p - 2.0) / 4.0)
            col.check(energy_value(u, p) >= lower - 1e-9, "energy below interpolation lower bound")
            # exact scalar scaling of the two energy terms
            sigma = float(rng.uniform(0.5, 2.0))
            rep = energy_report(u, p)
            e_scaled = energy_value(sigma * u, p)
            predicted = sigma**2 * rep.kinetic - sigma**p * rep.potential
            col.check(
                abs(e_scaled - predicted) <= 1e-12 * max(1.0, abs(predicted)),
                "scalar scaling of energy terms not exact",
            )
    return col.result()


def check_gradient(seed: int = 0, gn_c: float | None = None) -> CheckResult:
    col = _Collector("gradient")
    rng = np.random.default_rng(seed + 4)
    graph = double_bridge(0.8, 1.1)
    mesh = Mesh(graph, h_max=0.08, r_cut=5.0)
    eps = 1e-5
    for _ in range(30):
        p = float(rng.uniform(2.3, 5.7))
        u = GraphFunction(mesh, rng.standard_normal(mesh.n_dofs))
        v = rng.standard_normal(mesh.n_dofs)
        g = energy_gradient(u, p).values
        lhs = float(np.dot(g, v))
        fd = (
            energy_value(GraphFunction(mesh, u.values + eps * v), p)
            - energy_value(GraphFunction(mesh, u.values - eps * v), p)
        ) / (2.0 * eps)
        col.check(
            abs(lhs - fd) <= 1e-4 * max(1.0, abs(fd)),
            f"directional derivative mismatch at p={p:.2f}",
        )
    return col.result()


def check_scaling(seed: int = 0, gn_c: float | None = None) -> CheckResult:
    col = _Collector("scaling")
    rng = np.random.default_rng(seed + 5)
    mesh = Mesh(line_graph(2.0), h_max=0.02, r_cut=8.0)
    for lam in (0.5, 2.0):
        for p in (3.0, 4.5):
            u = project_mass(_random_decaying(mesh, rng), 1.0)
            sc = scaling_check(u, lam, p)
            col.check(sc.relative_gap < 1e-3, f"covariance gap {sc.relative_gap:.2e} lam={lam} p={p}")
            col.check(
                abs(sc.mass - sc.mass_expected) < 1e-6 * sc.mass_expected,
                "rescaled mass mismatch",
            )
    sc1 = scaling_check(project_mass(_random_decaying(mesh, rng), 1.0), 1.0, 3.0)
    col.check(sc1.relative_gap == 0.0, "identity rescaling not exact")
    return col.result()


def check_thresholds(seed: int = 0, gn_c: float | None = None) -> CheckResult:
    col = _Collector("thresholds")
    rng = np.random.default_rng(seed + 6)
    for _ in range(25):
        p = float(rng.uniform(4.0, 5.9))
        n = int(rng.integers(1, 4))
        mu = float(rng.uniform(0.2, 4.0))
        lam = float(rng.uniform(0.3, 3.0))
        inv1 = threshold_exist(p, mu, n) * mu ** ((p - 2.0) / (6.0 - p))
        inv1b = threshold_exist(p, lam * mu, n) * (lam * mu) ** ((p - 2.0) / (6.0 - p))
        col.check(abs(inv1 - inv1b) <= 1e-12 * abs(inv1), "existence threshold invariant drifts")
        inv2 = threshold_nonexist(p, mu, n_half_lines=n) * mu ** ((p - 2.0) / (6.0 - p))
        inv2b = threshold_nonexist(p, lam * mu, n_half_lines=n) * (lam * mu) ** (
            (p - 2.0) / (6.0 - p)
        )
        col.check(abs(inv2 - inv2b) <= 1e-12 * abs(inv2), "nonexistence threshold invariant drifts")
        col.check(threshold_report(p, mu, n).consistent, "thresholds inconsistent (L2 > L1)")
        mt = mass_thresholds(p, lam, n)
        col.check(
            abs(threshold_exist(p, mt.mu_exist, n) - lam) < 1e-10 * max(1.0, lam),
            "mass threshold round trip (existence)",
        )
        col.check(
            abs(threshold_nonexist(p, mt.mu_nonexist, n_half_lines=n) - lam)
            < 1e-10 * max(1.0, lam),
            "mass threshold round trip (nonexistence)",
        )
    # competitor bridge: above the existence threshold the competitor dips negative
    for _ in range(25):
        p = float(rng.uniform(4.0, 5.7))
        n = int(rng.integers(1, 4))
        mu = float(rng.uniform(0.4, 2.5))
        L = threshold_exist(p, mu, n) * float(rng.uniform(1.02, 3.0))
        if p == 4.0:
            a = 0.5 * math.sqrt(max(mu - n**2 / (2.0 * L), 0.0) / L)
        else:
            a = g_critical_point(L, mu, n, p).a_opt
        col.check(0.0 < a < math.sqrt(mu / L), "competitor amplitude out of range")
        col.check(
            competitor_energy(a, L, mu, n, p) < 0.0,
            f"competitor not negative above threshold (p={p:.2f})",
        )
    # convexity of the mass requirement for p in (4,6)
    for _ in range(10):
        p = float(rng.uniform(4.05, 5.9))
        L = float(rng.uniform(0.3, 2.0))
        n = int(rng.integers(1, 3))
        grid = np.linspace(0.2, 3.0, 40)
        vals = [competitor_mass_requirement(float(a), L, n, p) for a in grid]
        second = np.diff(vals, 2)
        col.check(bool(np.all(second > 0)), "mass requirement not convex")
    for p in (4.1, 4.5, 5.0, 5.5, 5.9):
        cp = const_Cp(p)
        col.check(math.isfinite(cp) and cp > 0, f"coefficient not positive/finite at p={p}")
    return col.result()


def check_solver(seed: int = 0, gn_c: float | None = None) -> CheckResult:
    col = _Collector("solver")
    cfg = SolverConfig(h_max=0.1, r_cut_schedule=(4.0, 8.0), max_iters=1500, grad_tol=1e-6)
    res = minimize(line_graph(1.0), 1.0, 3.0, cfg)
    col.check(
        all(b <= a + 1e-15 for a, b in zip(res.energy_trace, res.energy_trace[1:])),
        "energy trace not nonincreasing",
    )
    col.check(abs(res.report.mass - 1.0) < 1e-10, "final mass violates the constraint")
    col.check(res.energy < 0.0, "subcritical power failed to reach negative energy")
    col.check(res.strictly_positive, "minimizer not strictly positive")

    line = line_graph(1.0)
    u0 = initializer_competitor(line, 1.0, 3.0, Mesh(line, h_max=0.1, r_cut=4.0))
    col.check(abs(l2_norm_sq(u0) - 1.0) < 1e-10, "initializer mass projection")

    val, _ = dirichlet_line_min(1.0, 1.0, h_max=0.05)
    col.check(abs(val - 1.0) < 0.03, f"pinned line benchmark off: {val:.4f}")

    # analytic certificate and numeric trend must not contradict each other
    cert = certify_nonexistence(line_graph(0.3), 4.0, 1.0)
    col.check(cert.valid, "smallness certificate expected to hold at core measure 0.3")
    res2 = minimize(line_graph(0.3), 1.0, 4.0, SolverConfig(h_max=0.1, r_cut_schedule=(5.0, 10.0, 20.0), max_iters=2500, grad_tol=1e-6))
    col.check(
        res2.verdict != NEGATIVE_MINIMUM,
        "solver certified a negative minimum where nonexistence is proven",
    )
    return col.result()


SUITES = {
    "graphs": check_graphs,
    "meshing": check_meshing,
    "rearrangement": check_rearrangement,
    "gn": check_gn,
    "gradient": check_gradient,
    "scaling": check_scaling,
    "thresholds": check_thresholds,
    "solver": check_solver,
}


def run_checks(
    names: list[str] | None = None, seed: int = 0, gn_c: float | None = None
) -> list[CheckResult]:
    chosen = list(SUITES) if names is None else names
    results = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown check suite: {name}; available: {sorted(SUITES)}")
        results.append(SUITES[name](seed=seed, gn_c=gn_c))
    return results
