"""Constrained NLS energy with the nonlinearity confined to the core.

E(u) = 1/2 * int_G |u'|^2  -  1/p * int_K |u|^p,   2 < p < 6,

evaluated on piecewise-linear functions with the quadrature conventions of
:mod:`graphnls.functions`. The gradient returned here is the exact gradient
of the discrete energy (stiffness action minus the Simpson-rule core load),
so directional-derivative checks close to machine precision. The kinetic
value and the stiffness action come from the Mesh's edge runs
(``Mesh.dirichlet_integral``, ``Mesh.stiffness_action``), the same form
``kinetic_energy`` uses; ``energy_value`` is ``EnergyOperator.value``.
The solver evaluates it on a Mesh of the core subgraph and adds the leads
in closed form (:mod:`graphnls.solver`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (
    GraphFunction,
    Mesh,
    _abs_pow,
    _simpson_abs_pow,
    kinetic_energy,
    l2_norm_sq,
    linf_norm,
    lp_integral,
)
from .graphs import MetricGraph, has_dead_end

SCHEMA_VERSION = 1


def require_p(p: float) -> None:
    if not 2.0 < p < 6.0:
        raise ValueError("p must be in (2,6)")


def default_gn_constants(p: float, n_half_lines: int) -> tuple[float, float]:
    """Interpolation constants (C, c) by the number of half-lines alone.

    The sup-norm constant c is sqrt(2) for a single lead and 1 for two or
    more; the L^p constant is tied to it as C = c^(p-2). The two-lead value
    needs two edge-disjoint routes to infinity from a maximum point, which a
    dead end defeats; :func:`gn_constants` applies that rule for a graph.
    """
    require_p(p)
    if n_half_lines < 1:
        raise ValueError("need at least one half-line")
    c = math.sqrt(2.0) if n_half_lines == 1 else 1.0
    return c ** (p - 2.0), c


def gn_constants(
    p: float, graph_or_n: MetricGraph | int, C: float | None = None, c: float | None = None
) -> tuple[float, float]:
    """Interpolation constants (C, c): the caller's where given, otherwise
    the single-lead pair C = 2^((p-2)/2), c = sqrt(2) for a graph with a
    dead end (:func:`graphnls.graphs.has_dead_end`), whose peaked states
    drain to infinity through one edge only, and ``default_gn_constants``
    for the number of half-lines (at least one) of any other graph or N."""
    n = graph_or_n
    if isinstance(graph_or_n, MetricGraph):
        n = 1 if has_dead_end(graph_or_n) else max(1, graph_or_n.n_half_lines)
    dC, dc = default_gn_constants(p, n)
    return (dC if C is None else C), (dc if c is None else c)


@dataclass
class EnergyReport:
    total_energy: float
    kinetic: float          # 1/2 * Dirichlet integral
    potential: float        # 1/p * int_K |u|^p
    mass: float
    linf: float
    gn_slack_p: float
    gn_slack_inf: float
    gn_degenerate: bool
    p: float
    gn_C: float
    gn_c: float

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "energy": self.total_energy,
            "kinetic": self.kinetic,
            "potential": self.potential,
            "mass": self.mass,
            "linf": self.linf,
            "gn_slack_p": self.gn_slack_p,
            "gn_slack_inf": self.gn_slack_inf,
            "gn_degenerate": self.gn_degenerate,
            "p": self.p,
            "gn_C": self.gn_C,
            "gn_c": self.gn_c,
        }


@dataclass
class ELReport:
    lambda_estimate: float
    lambda_lsq: float
    interior_residuals: dict[str, float]
    kirchhoff_residuals: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "lambda": self.lambda_estimate,
            "lambda_lsq": self.lambda_lsq,
            "interior_residuals": dict(self.interior_residuals),
            "kirchhoff_residuals": dict(self.kirchhoff_residuals),
        }


class EnergyOperator:
    """Cached discrete forms for one (mesh, p) pair.

    The solver builds it on a Mesh of the core subgraph, which has no
    half-lines, and adds the leads' closed-form terms; the public functions
    below wrap it for one-off evaluations.
    """

    def __init__(self, mesh: Mesh, p: float):
        require_p(p)
        self.mesh = mesh
        self.p = float(p)
        self.mass_vec = mesh.mass_vector()
        self._ia, self._ib, self._h = mesh.cells(core_only=True)

    def potential_integral(self, v: np.ndarray) -> float:
        return _simpson_abs_pow(v[self._ia], v[self._ib], self._h, self.p)

    def value(self, v: np.ndarray) -> float:
        # kinetic_energy's form, which is exactly 0 on constants
        kinetic_sq = self.mesh.dirichlet_integral(v)
        return 0.5 * kinetic_sq - self.potential_integral(v) / self.p

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """Exact gradient of the discrete energy w.r.t. nodal values."""
        a, b = v[self._ia], v[self._ib]
        mid = 0.5 * (a + b)
        p = self.p
        ga = _abs_pow(a, p - 2) * a
        gm = _abs_pow(mid, p - 2) * mid
        gb = _abs_pow(b, p - 2) * b
        w = self._h / 6.0
        g = self.mesh.stiffness_action(v)
        # minus the Simpson load, subtracted in place at its cells' nodes
        np.subtract.at(g, self._ia, w * (ga + 2.0 * gm))
        np.subtract.at(g, self._ib, w * (gb + 2.0 * gm))
        return g


def energy_report(u: GraphFunction, p: float) -> EnergyReport:
    """Full energy accounting for one function, including GN slacks with
    the graph's constants (:func:`gn_constants`)."""
    require_p(p)
    ksq = kinetic_energy(u)
    pot = lp_integral(u, p, core_only=True) / p
    mass = l2_norm_sq(u)
    sup = linf_norm(u)
    C, c = gn_constants(p, u.mesh.graph)
    slack_p, slack_inf = gn_check(u, p, C, c)
    degenerate = ksq <= 1e-13 * max(1.0, mass)
    return EnergyReport(
        total_energy=0.5 * ksq - pot,
        kinetic=0.5 * ksq,
        potential=pot,
        mass=mass,
        linf=sup,
        gn_slack_p=slack_p,
        gn_slack_inf=slack_inf,
        gn_degenerate=degenerate,
        p=p,
        gn_C=C,
        gn_c=c,
    )


def energy_value(u: GraphFunction, p: float) -> float:
    return EnergyOperator(u.mesh, p).value(u.values)


def energy_gradient(u: GraphFunction, p: float) -> GraphFunction:
    op = EnergyOperator(u.mesh, p)
    return u.with_values(op.gradient(u.values))


def gn_check(
    u: GraphFunction, p: float, C: float | None = None, c: float | None = None
) -> tuple[float, float]:
    """Interpolation-inequality slacks (nonnegative when the constants are
    valid for the graph and u decays into the truncation), by default with
    the graph's :func:`gn_constants`.

    slack_p   = C ||u||_2^(p/2+1) ||u'||_2^(p/2-1) - ||u||_p^p   (whole graph)
    slack_inf = c ||u||_2^(1/2) ||u'||_2^(1/2)     - ||u||_inf
    """
    require_p(p)
    C, c = gn_constants(p, u.mesh.graph, C, c)
    mass = l2_norm_sq(u)
    ksq = kinetic_energy(u)
    norm2 = math.sqrt(max(mass, 0.0))
    dnorm = math.sqrt(max(ksq, 0.0))
    lp_all = lp_integral(u, p, core_only=False)
    slack_p = C * norm2 ** (p / 2.0 + 1.0) * dnorm ** (p / 2.0 - 1.0) - lp_all
    slack_inf = c * math.sqrt(norm2) * math.sqrt(dnorm) - linf_norm(u)
    return float(slack_p), float(slack_inf)


def _edge_end_derivative(vals: np.ndarray, h: float, start: bool) -> float:
    """One-sided derivative pointing out of the vertex into the edge.
    Second order when three nodes are available."""
    if not start:
        vals = vals[::-1]
    if len(vals) >= 3:
        return float((-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h))
    return float((vals[1] - vals[0]) / h)


def el_residual(
    u: GraphFunction, p: float, uniform_nonlinearity: bool = False
) -> ELReport:
    """Stationarity diagnostics for the constrained problem.

    The multiplier comes from pairing the stationarity relation with u:
    lambda = (int_K |u|^p - ||u'||^2) / ||u||^2. Interior residuals test
    u'' + kappa u|u|^(p-2) - lambda u = 0 through second differences edge by
    edge; vertex residuals test the Kirchhoff flux balance with one-sided
    derivatives oriented out of each vertex. With ``uniform_nonlinearity``
    the nonlinear term acts on every edge (diagnostic mode for closed-form
    solutions on intervals or the whole line).
    """
    require_p(p)
    mesh = u.mesh
    ksq = kinetic_energy(u)
    pot_int = lp_integral(u, p, core_only=not uniform_nonlinearity)
    mass = l2_norm_sq(u)
    if mass <= 0.0:
        raise ValueError("stationarity residuals undefined for the zero function")
    lam = (pot_int - ksq) / mass

    interior: dict[str, float] = {}
    num = 0.0
    den = 0.0
    by_id = mesh.graph.edges_by_id
    for eid in sorted(mesh.edge_dofs):
        vals = u.values[mesh.edge_dofs[eid]]
        h = mesh.edge_h[eid]
        kappa = 1.0 if (uniform_nonlinearity or by_id[eid].in_core) else 0.0
        if len(vals) < 3:
            interior[eid] = 0.0
            continue
        mid = vals[1:-1]
        d2 = (vals[:-2] - 2.0 * mid + vals[2:]) / h**2
        strong = d2 + kappa * _abs_pow(mid, p - 2) * mid
        r = strong - lam * mid
        interior[eid] = float(math.sqrt(np.dot(r, r) * h))
        num += float(np.dot(strong, mid) * h)
        den += float(np.dot(mid, mid) * h)
    lam_lsq = num / den if den > 0 else lam

    kirchhoff: dict[str, float] = {}
    for vid in sorted(mesh.graph.vertex_ids):
        total = 0.0
        touched = False
        for eid in sorted(mesh.edge_dofs):
            e = by_id[eid]
            vals = u.values[mesh.edge_dofs[eid]]
            h = mesh.edge_h[eid]
            if e.tail == vid:
                total += _edge_end_derivative(vals, h, start=True)
                touched = True
            if e.head == vid:
                total += _edge_end_derivative(vals, h, start=False)
                touched = True
        if touched:
            kirchhoff[vid] = abs(total)
    return ELReport(
        lambda_estimate=float(lam),
        lambda_lsq=float(lam_lsq),
        interior_residuals=interior,
        kirchhoff_residuals=kirchhoff,
    )
