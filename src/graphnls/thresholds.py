"""Closed-form existence and nonexistence thresholds on the core measure.

For powers p in [4,6) the attainment of the constrained minimum is decided
(outside an open gap) by comparing meas(K) with two explicit lengths: above
``threshold_exist`` a plateau-with-tails competitor pushes the infimum below
zero, below ``threshold_nonexist`` an iterated interpolation bound forces
every function to have positive energy. Partitioning the graph into pieces
that each carry a half-line lets the nonexistence test act piecewise, which
can certify graphs whose total core measure is too large for the direct
test. All formulas are scale covariant: mu -> lam*mu together with a
homothety by lam^((2-p)/(6-p)) leaves both thresholds' invariant
combinations mu^((p-2)/(6-p)) * L unchanged.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import asdict, dataclass

import numpy as np

from .energy import SCHEMA_VERSION, energy_value, gn_constants, require_mu, require_p
from .functions import GraphFunction, Mesh, kinetic_energy, l2_norm_sq, linf_norm, require_positive
from .graphs import (
    MetricGraph,
    Partition,
    core_measure,
    # unused here since certificates stopped enumerating, but bench/spans.py
    # hooks this name in this module, and a traced bench run fails without it
    enumerate_partitions,
    homothety,
    least_partition,
    part_core_measure,
    partition_violations,
)


def _require_p46(p: float) -> None:
    if not 4.0 <= p < 6.0:
        raise ValueError("p must be in [4,6)")


def _in_float64_range(form):
    """``form``, with a ValueError naming its arguments where its value
    leaves the float64 range: near p = 6 the thresholds' exponents grow like
    1/(6-p), and float ** raises OverflowError where * and / give inf."""

    @functools.wraps(form)
    def checked(*args, **kwargs):
        try:
            value = form(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            given = inspect.signature(form).bind(*args, **kwargs).arguments
            named = ", ".join(f"{name}={v!r}" for name, v in given.items())
            raise ValueError(f"{form.__name__} is out of float64 range at {named}")
        return value

    return checked


def _Cp(p: float) -> float:
    base = p * (p - 4.0) / 16.0
    inner = base ** (2.0 / (p - 2.0)) + (p / 8.0) * base ** ((4.0 - p) / (p - 2.0))
    return inner ** ((p - 2.0) / (6.0 - p))


@_in_float64_range
def const_Cp(p: float) -> float:
    """Coefficient of the existence threshold for p strictly between 4 and 6.

    C_p = [ (p(p-4)/16)^(2/(p-2)) + (p/8)(p(p-4)/16)^((4-p)/(p-2)) ]^((p-2)/(6-p)).

    Undefined at p = 4, where the separate closed form N^2/(2 mu) applies.
    """
    if not 4.0 < p < 6.0:
        raise ValueError("p must be in (4,6)")
    return _Cp(p)


@_in_float64_range
def threshold_exist(p: float, mu: float, n_half_lines: int) -> float:
    """Core measure above which a ground state is guaranteed to exist."""
    _require_p46(p)
    require_mu(mu)
    if n_half_lines < 1:
        raise ValueError("need at least one half-line")
    if p == 4.0:
        return n_half_lines**2 / (2.0 * mu)
    return _Cp(p) * mu ** ((2.0 - p) / (6.0 - p)) * n_half_lines ** (4.0 / (6.0 - p))


@_in_float64_range
def threshold_nonexist(
    p: float,
    mu: float,
    *,
    C: float | None = None,
    c: float | None = None,
    n_half_lines: int | None = None,
) -> float:
    """Core measure below which no ground state exists.

    L2 = C^((4-p)/(6-p)) * mu^((2-p)/(6-p)) * c^(-p), with (C, c) the
    interpolation constants, passed by keyword. Constants not passed come
    from the number of half-lines alone (two assumed when omitted), which
    knows nothing of dead ends; for a graph, pass ``gn_constants(p, graph)``
    as :func:`certify_nonexistence` does.
    """
    _require_p46(p)
    require_mu(mu)
    C, c = gn_constants(p, 2 if n_half_lines is None else n_half_lines, C, c)
    return C ** ((4.0 - p) / (6.0 - p)) * mu ** ((2.0 - p) / (6.0 - p)) * c ** (-p)


@dataclass
class ThresholdReport:
    p: float
    mu: float
    n_half_lines: int
    c: float
    C: float
    l1_exist: float
    l2_nonexist: float
    c_p: float | None
    scaling_invariant_l1: float
    scaling_invariant_l2: float
    consistent: bool

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


def threshold_report(
    p: float,
    mu: float,
    n_half_lines: int,
    C: float | None = None,
    c: float | None = None,
) -> ThresholdReport:
    _require_p46(p)
    Cu, cu = gn_constants(p, n_half_lines, C, c)
    l1 = threshold_exist(p, mu, n_half_lines)
    l2 = threshold_nonexist(p, mu, C=Cu, c=cu)
    inv = mu ** ((p - 2.0) / (6.0 - p))
    return ThresholdReport(
        p=p,
        mu=mu,
        n_half_lines=n_half_lines,
        c=cu,
        C=Cu,
        l1_exist=l1,
        l2_nonexist=l2,
        c_p=None if p == 4.0 else const_Cp(p),
        scaling_invariant_l1=inv * l1,
        scaling_invariant_l2=inv * l2,
        consistent=l2 <= l1,
    )


def competitor_energy(a: float, L: float, mu: float, n_half_lines: int, p: float) -> float:
    """Energy of the plateau competitor: constant a on a core of measure L,
    exponential tails splitting the leftover mass over the half-lines.

    E(a) = a^4 N^2 / (8 (mu - a^2 L)) - a^p L / p.
    """
    require_p(p)
    if not 0.0 < a < math.sqrt(mu / L):
        raise ValueError("amplitude must satisfy 0 < a < sqrt(mu/L)")
    return a**4 * n_half_lines**2 / (8.0 * (mu - a**2 * L)) - a**p * L / p


def competitor_mass_requirement(a: float, L: float, n_half_lines: int, p: float) -> float:
    """g(a) = a^2 L + N^2 p a^(4-p) / (8 L); the competitor has negative
    energy exactly when g(a) < mu."""
    require_p(p)
    if a <= 0:
        raise ValueError("amplitude must be positive")
    return a**2 * L + n_half_lines**2 * p * a ** (4.0 - p) / (8.0 * L)


@dataclass
class CompetitorCriticalPoint:
    a_opt: float
    mass_requirement: float     # g(a_opt); negative energy reachable iff < mu
    amplitude_admissible: bool  # a_opt^2 L < mu, so the tails carry positive mass
    mass_feasible: bool         # g(a_opt) < mu


def g_critical_point(L: float, mu: float, n_half_lines: int, p: float) -> CompetitorCriticalPoint:
    """Unique minimizer of the strictly convex mass requirement g on (0, inf)
    for p in (4,6): a_opt = (N^2 p (p-4) / (16 L^2))^(1/(p-2))."""
    if not 4.0 < p < 6.0:
        raise ValueError("p must be in (4,6)")
    require_positive(L, "L")
    require_mu(mu)
    if n_half_lines < 1:
        raise ValueError("need at least one half-line")
    a_opt = (n_half_lines**2 * p * (p - 4.0) / (16.0 * L**2)) ** (1.0 / (p - 2.0))
    g_min = competitor_mass_requirement(a_opt, L, n_half_lines, p)
    return CompetitorCriticalPoint(
        a_opt=a_opt,
        mass_requirement=g_min,
        amplitude_admissible=a_opt**2 * L < mu,
        mass_feasible=g_min < mu,
    )


@dataclass
class NonexistenceCertificate:
    valid: bool
    threshold: float
    part_core_measures: tuple[float, ...]
    max_part_measure: float
    partition: Partition | None   # None = single-region (whole graph) check
    whole_graph: bool
    offending_parts: tuple[int, ...]
    p: float
    mu: float
    C: float
    c: float

    def to_dict(self) -> dict:
        parts = None
        if self.partition is not None:
            parts = [sorted(part) for part in self.partition.parts]
        return {
            "schema_version": SCHEMA_VERSION,
            "valid": self.valid,
            "threshold": self.threshold,
            "part_core_measures": list(self.part_core_measures),
            "max_part_measure": self.max_part_measure,
            "partition": parts,
            "whole_graph": self.whole_graph,
            "offending_parts": list(self.offending_parts),
            "p": self.p,
            "mu": self.mu,
            "C": self.C,
            "c": self.c,
        }


def certify_nonexistence(
    graph: MetricGraph,
    p: float,
    mu: float,
    partitions: list[Partition] | None = None,
    C: float | None = None,
    c: float | None = None,
) -> NonexistenceCertificate:
    """Search for a piecewise smallness certificate ruling out ground states.

    Candidates are the single-region check (core measure of the whole graph
    against the threshold) plus either the supplied partitions or, when the
    graph has at least two half-lines, the partitions into at most one
    region per half-line. The best candidate minimizes the largest
    per-region core measure, and the first one in candidate order wins a
    tie: the single-region check, then the partitions in the order given.
    The certificate is valid when that measure is below the threshold.
    Constants not passed come from :func:`graphnls.energy.gn_constants`
    for the graph, which gives the single-lead pair on graphs with a dead
    end.

    Without supplied partitions none are enumerated: validity depends only
    on the least largest part, and :func:`graphnls.graphs.least_partition`
    builds one partition that attains it from a branch and bound over the
    groupings of the core lengths. Only it is weighed against the
    single-region check. Which of several least partitions it reports
    follows that search, not the canonical order of
    :func:`graphnls.graphs.enumerate_partitions`.
    """
    _require_p46(p)
    graph.require_valid()
    n = graph.n_half_lines
    used_C, used_c = gn_constants(p, graph, C, c)
    l2 = threshold_nonexist(p, mu, C=used_C, c=used_c)

    if partitions is not None:
        for q in partitions:
            bad = partition_violations(graph, q.parts)
            if bad:
                raise ValueError("invalid partition: " + "; ".join(bad))
        cands: list[Partition | None] = [None, *partitions]
    elif n >= 2:
        cands = [None, least_partition(graph)]
    else:
        cands = [None]

    def measures(cand: Partition | None) -> tuple[float, ...]:
        if cand is None:
            return (core_measure(graph),)
        return tuple(part_core_measure(graph, part) for part in cand.parts)

    # min keeps the first candidate of least largest part
    meas, cand = min(((measures(cand), cand) for cand in cands), key=lambda mc: max(mc[0]))
    worst = max(meas)
    offending = tuple(i for i, m in enumerate(meas) if m >= l2)
    return NonexistenceCertificate(
        valid=worst < l2,
        threshold=l2,
        part_core_measures=meas,
        max_part_measure=worst,
        partition=cand,
        whole_graph=cand is None,
        offending_parts=offending,
        p=p,
        mu=mu,
        C=used_C,
        c=used_c,
    )


@dataclass
class ScalingCheck:
    lhs: float        # energy of the rescaled function on the rescaled graph
    rhs: float        # lam^((2+p)/(6-p)) times the original energy
    relative_gap: float
    mass: float       # mass of the rescaled function
    mass_expected: float


def scaling_check(u: GraphFunction, lam: float, p: float, mu: float | None = None) -> ScalingCheck:
    """Verify the covariance E(w, G') = lam^((2+p)/(6-p)) E(u, G) where
    w(x) = lam^(2/(6-p)) u(lam^((p-2)/(6-p)) x) lives on the homothety of
    u's graph by lam^((2-p)/(6-p)).

    w is re-interpolated onto a fresh mesh of the rescaled graph, so the
    reported gap contains a quadrature component of order h^2 on top of the
    exact scaling identity.
    """
    require_p(p)
    if lam <= 0:
        raise ValueError("lam must be positive")
    factor = lam ** ((2.0 - p) / (6.0 - p))
    amp = lam ** (2.0 / (6.0 - p))
    mesh = u.mesh
    mesh2 = Mesh(homothety(mesh.graph, factor), h_max=mesh.h_max * factor, r_cut=mesh.r_cut * factor)
    vals = np.zeros(mesh2.n_dofs)
    for eid, dofs in mesh2.edge_dofs.items():
        vals[dofs] = amp * mesh.evaluate(u.values, eid, mesh2.edge_coords[eid] / factor)
    w = GraphFunction(mesh2, vals)
    lhs = energy_value(w, p)
    rhs = lam ** ((2.0 + p) / (6.0 - p)) * energy_value(u, p)
    gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    base_mass = l2_norm_sq(u) if mu is None else mu
    return ScalingCheck(
        lhs=lhs,
        rhs=rhs,
        relative_gap=gap,
        mass=l2_norm_sq(w),
        mass_expected=lam * base_mass,
    )


@dataclass
class MassThresholds:
    mu_exist: float      # masses above this admit a ground state
    mu_nonexist: float   # masses below this admit none
    consistent: bool

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


def mass_thresholds(
    p: float,
    L: float,
    n_half_lines: int,
    C: float | None = None,
    c: float | None = None,
) -> MassThresholds:
    """Invert both thresholds at fixed core measure L, trading the length
    dichotomy for a mass dichotomy."""
    _require_p46(p)
    require_positive(L, "L")
    # by scaling, each threshold at mass mu is its value at mass 1 times
    # mu^((2-p)/(6-p)); the exponent is 1 at p = 4
    expo = (6.0 - p) / (p - 2.0)
    mu1 = (threshold_exist(p, 1.0, n_half_lines) / L) ** expo
    mu2 = (threshold_nonexist(p, 1.0, C=C, c=c, n_half_lines=n_half_lines) / L) ** expo
    # dividing by a subnormal L gives inf past the range checks above
    if not (0.0 < mu1 < math.inf and 0.0 < mu2 < math.inf):
        raise ValueError(
            f"mass_thresholds is out of float64 range at p={p!r}, L={L!r}, n_half_lines={n_half_lines!r}"
        )
    return MassThresholds(mu_exist=mu1, mu_nonexist=mu2, consistent=mu2 <= mu1)


@dataclass
class CascadeTable:
    applicable: bool     # the bound chain assumes nonpositive energy
    energy: float
    kinetic_sq: float
    sup_norm: float
    mass: float
    core_length: float
    contraction: float   # c^4 * mu * meas(K); bounds shrink when < 1
    rows: tuple[tuple[int, float, float, bool], ...]  # (n, bound, slack, satisfied)


def inductive_bound_check(
    u: GraphFunction, p: float, c: float | None = None, n_max: int = 5
) -> CascadeTable:
    """Iterated kinetic bound for functions with nonpositive energy:

      ||u'||^2 <= (1/(c^4 mu)) ||u||_inf^(4 (p/4)^(n+1)) (c^4 mu l)^(sum_{i<=n} (p/4)^i)

    with l the core measure and mu the actual mass of u. When the
    contraction factor c^4 mu l is below 1 the right side tends to zero,
    which is the engine of the nonexistence proof; the table reports each
    level's bound and slack so the decay is observable."""
    _require_p46(p)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _, c = gn_constants(p, u.mesh.graph, c=c)
    ell = core_measure(u.mesh.graph)
    mu = l2_norm_sq(u)
    ksq = kinetic_energy(u)
    sup = linf_norm(u)
    energy = energy_value(u, p)
    contraction = c**4 * mu * ell
    rows = []
    for n in range(n_max + 1):
        ratio = p / 4.0
        s = float(n + 1) if p == 4.0 else (ratio ** (n + 1) - 1.0) / (ratio - 1.0)
        bound = sup ** (4.0 * ratio ** (n + 1)) * contraction**s / (c**4 * mu)
        slack = bound - ksq
        rows.append((n, bound, slack, ksq <= bound * (1.0 + 1e-12)))
    return CascadeTable(
        applicable=energy <= 0.0,
        energy=energy,
        kinetic_sq=ksq,
        sup_norm=sup,
        mass=mu,
        core_length=ell,
        contraction=contraction,
        rows=tuple(rows),
    )
