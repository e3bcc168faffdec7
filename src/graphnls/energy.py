"""Constrained NLS energy with the nonlinearity confined to the core.

E(u) = 1/2 * int_G |u'|^2  -  1/p * int_K |u|^p,   2 < p < 6,

evaluated on piecewise-linear functions with the quadrature conventions of
:mod:`graphnls.functions`. The gradient returned here is the exact gradient
of the discrete energy (stiffness action minus the Simpson-rule core load),
so directional-derivative checks close to machine precision. Each gathers
the Mesh's cells for one vector of nodal values or a block of them, and
reduces only what it needs; on a mesh without half-lines the value sums
them bit for bit as ``kinetic_energy`` and ``lp_integral`` do. The solver
evaluates it on a Mesh of the core subgraph and adds the leads in closed
form: the lead profile and its forms (``lead_profile``, ``lead_forms``)
live here. ``energy_report`` and ``el_residual`` each sum the Dirichlet
integral, int_K |u|^p and the mass of a function on its mesh themselves
(``kinetic_energy``, ``lp_integral``, ``l2_norm_sq``), and account for
such leads (:class:`Leads`) without meshing them, each lead term in O(1)
work: Phi and Psi, the profile's sup and its inner nodes' mass in closed
form. The nonlinearity acts on the core alone, so no lead term needs
int |u|^p; ``gn_check`` computes the Gagliardo-Nirenberg slacks of a
function on a mesh of the whole graph, with the constants of
``gn_constants``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .functions import (
    GraphFunction,
    Mesh,
    _abs_pow,
    _dots,
    kinetic_energy,
    l2_norm_sq,
    linf_norm,
    lp_integral,
    require_positive,
)
from .graphs import MetricGraph, has_dead_end

SCHEMA_VERSION = 1
# float64 machine epsilon: where the lead forms' series and the solver's
# line search stop
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the least normal float64
_END_SIGNS = np.array([[-1.0], [1.0]])  # of a cell's flux at its first and second end


def require_p(p: float) -> None:
    if not 2.0 < p < 6.0:
        raise ValueError("p must be in (2,6)")


def require_mu(mu: float) -> None:
    require_positive(mu, "mu")


def gn_constants(
    p: float, graph_or_n: MetricGraph | int, C: float | None = None, c: float | None = None
) -> tuple[float, float]:
    """Interpolation constants (C, c): the caller's where given, otherwise
    by the number N of half-lines of ``graph_or_n``, a graph or N itself.

    The sup-norm constant c is sqrt(2) for a single lead and 1 for two or
    more; the L^p constant is tied to it as C = c^(p-2). The two-lead value
    needs two edge-disjoint routes to infinity from a maximum point, which
    a dead end (:func:`graphnls.graphs.has_dead_end`) defeats: a graph with
    one, or with no half-line, takes the single-lead pair. An N below 1 is
    refused, and the caller's constants must be finite and positive."""
    for name, value in (("C", C), ("c", c)):
        if value is not None:
            require_positive(value, name)
    require_p(p)
    n = graph_or_n
    if isinstance(graph_or_n, MetricGraph):
        n = 1 if has_dead_end(graph_or_n) else max(1, graph_or_n.n_half_lines)
    elif n < 1:
        raise ValueError("need at least one half-line")
    dc = math.sqrt(2.0) if n == 1 else 1.0
    return (dc ** (p - 2.0) if C is None else C), (dc if c is None else c)


@dataclass
class EnergyReport:
    total_energy: float
    kinetic: float          # 1/2 * Dirichlet integral
    potential: float        # 1/p * int_K |u|^p
    mass: float
    linf: float
    p: float

    def to_dict(self) -> dict:
        d = asdict(self)
        return {"schema_version": SCHEMA_VERSION, "energy": d.pop("total_energy"), **d}


@dataclass
class ELReport:
    lambda_estimate: float
    lambda_lsq: float
    interior_residuals: dict[str, float]
    kirchhoff_residuals: dict[str, float]

    def to_dict(self) -> dict:
        d = asdict(self)
        return {"schema_version": SCHEMA_VERSION, "lambda": d.pop("lambda_estimate"), **d}


class EnergyOperator:
    """Cached discrete forms for one (mesh, p) pair.

    The solver builds it on a Mesh of the core subgraph, which has no
    half-lines, and adds the leads' closed-form terms; the public functions
    below wrap it for one-off evaluations.

    Each form takes one vector of nodal values or a (k, m) block of k of
    them, one per row, and gives each row exactly what the row alone gives:
    it gathers the cells' values once for the block (:meth:`cells`), one
    gather that a caller of both forms may pass to each, and every row is
    reduced in the 1-D order (:func:`graphnls.functions._dots`).
    """

    def __init__(self, mesh: Mesh, p: float):
        require_p(p)
        self.mesh = mesh
        self.p = float(p)
        self.mass_vec = mesh.mass_vector()
        ia, ib, self._h = mesh.cells()
        self._n = len(self._h)
        self._ends = np.concatenate((ia, ib))
        # each cell's first and second ends, and its first again, where
        # the gather makes its midpoint
        self._gather = np.concatenate((ia, ib, ia))
        self._w = np.where(mesh.cell_core, self._h / 6.0, 0.0)  # no nonlinearity off the core
        self._simpson_w = np.concatenate((self._w, self._w, 4.0 * self._w))  # against x of cells
        # per block shape ((k,) or () for a vector): the gradient's bincount
        # targets, row r's cell ends offset by r * n_dofs, and the shape of
        # its two halves of cell ends
        self._blocks = {(): (self._ends, (2, len(self._h)))}

    def cells(self, v: np.ndarray) -> tuple:
        """``(x, |x|, d, d / h)`` at ``v``, a vector or a block (one row per
        row): ``x = [first ends | second ends | midpoints]`` of the cells,
        ``d = second - first`` their differences and ``h`` their widths,
        all that ``value`` and ``gradient`` read."""
        n = self._n
        # one gather: take keeps a block's rows contiguous, where v[:, idx]
        # is F-ordered; a vector's index is the faster
        x = v[self._gather] if v.ndim == 1 else v.take(self._gather, -1)
        mid = x[..., 2 * n :]
        mid += x[..., n : 2 * n]
        mid *= 0.5
        d = x[..., n : 2 * n] - x[..., :n]
        # divided by the width: a stored 1/h rounds too far off (README)
        return x, np.abs(x), d, d / self._h

    def value(self, v: np.ndarray, cells: tuple | None = None):
        """The energy at ``v``: the sums of ``kinetic_energy`` (0 on
        constants) and ``lp_integral``, one dot each; a float, or a (k, 1)
        column of one per row of a block. ``cells`` are ``cells(v)`` when
        the caller has them."""
        _, ax, d, slope = cells or self.cells(v)
        lp = _dots(self._simpson_w, ax**self.p)
        return 0.5 * _dots(d, slope) - lp / self.p

    def gradient(self, v: np.ndarray, cells: tuple | None = None) -> np.ndarray:
        """Exact gradient of the discrete energy w.r.t. nodal values: at
        each cell end its signed flux less its load w (g_end + 2 g_mid),
        g = |x|^(p-2) x, summed by one bincount over the whole block, each
        row's ends in the order of a vector's. ``cells`` are ``cells(v)``
        when the caller has them."""
        x, ax, _, slope = cells or self.cells(v)
        n = self._n
        rows = v.shape[:-1]
        block = self._blocks.get(rows)
        if block is None:
            offsets = np.arange(rows[0])[:, None] * self.mesh.n_dofs
            block = self._blocks[rows] = ((offsets + self._ends).ravel(), (*rows, 2, n))
        targets, halves = block
        g = ax ** (self.p - 2.0) * x
        # each row's midpoints and fluxes broadcast over its two halves
        load = (g[..., : 2 * n].reshape(halves) + 2.0 * g[..., None, 2 * n :]) * self._w
        signed = _END_SIGNS * slope[..., None, :] - load
        return np.bincount(targets, weights=signed.ravel(), minlength=v.size).reshape(v.shape)


# ---------------------------------------------------------------------------
# the leads in closed form
#
# On a lead the discrete problem is linear. With anchor value a and shift
# omega (minus the multiplier), the minimizer's lead values solve
# (S + omega M) u = 0 off the anchor, with the natural far end, so
# u_i = a cosh((n - i) theta) / cosh(n theta), i = 0..n, where
# cosh(theta) = 1 + omega h^2 / 2 (cos and phi in place of cosh and theta
# when omega < 0, which needs n phi < pi/2). Per unit a^2 the lead then has
# lumped mass Phi (the anchor's half cell included) and Dirichlet integral
# Psi; stationarity of the profile gives Psi' = -omega Phi'.


def _sine_excesses(n: int, z: float, sign: float) -> tuple[float, float]:
    """The excesses f(m y) - m f(y) at (m, y) = (2n, z) and (n, 2z), with
    f = sinh for sign = 1 and sin for sign = -1, for x = 2 n z <= 1, by
    the Taylor series: its terms carry no cancellation, while the direct
    difference loses a relative x^-2 of precision, which ruins the lead
    forms at small |omega|. One loop raises the powers of x both share;
    each sum stops once its own term falls below eps of it."""
    m, x, y2 = 2 * n, 2 * n * z, 2.0 * z
    xx, yy, yy2 = x * x, z * z, y2 * y2
    xk, yk, y2k, fact, sk, k = x, z, y2, 1.0, 1.0, 0
    b, c, open_b, open_c = 0.0, 0.0, True, True
    while open_b or open_c:
        k += 1
        xk *= xx
        fact *= 2 * k * (2 * k + 1)
        sk *= sign
        if open_b:
            yk *= yy
            term = sk * (xk - m * yk) / fact
            b += term
            open_b = not abs(term) <= _EPS * abs(b)
        if open_c:
            y2k *= yy2
            term = sk * (xk - n * y2k) / fact
            c += term
            open_c = not abs(term) <= _EPS * abs(c)
    return b, c


def lead_forms(omega: float, n: int, h: float) -> tuple[float, float, float] | None:
    """(Phi, Psi, dPhi/domega) of a lead of ``n`` cells of width ``h`` at
    shift ``omega``, per unit squared anchor value, or None when omega is
    at or below the lead's lowest shift, where n phi reaches pi/2.

    Phi = h [n sech^2(n theta) + tanh(n theta) coth(theta)] / 2 and
    Psi = tanh(theta/2) / h [tanh(n theta) - n sinh(theta) sech^2(n theta)];
    the bracket of Psi, like that of dPhi/dtheta, is taken from a sine
    excess (:func:`_sine_excesses`) where n theta is small, and in the form
    above where cosh(n theta) may overflow. omega < 0 uses the cos
    analogue.
    """
    r = 0.5 * h * math.sqrt(abs(omega))
    # the flat lead's forms, also where sinh(theta)^2 ~ 4 r^2 would
    # underflow, and they differ from the flat ones by O((n theta)^2)
    if 4.0 * r * r < _TINY:
        return n * h, 0.0, -(h**3) * (4.0 * n**3 - n) / 6.0
    # z = theta and s2 = sech^2(n theta), or z = phi and s2 = sec^2(n phi)
    if omega > 0.0:
        sign, tan_, sin_ = 1.0, math.tanh, math.sinh
        z = 2.0 * math.asinh(r)
        x = n * z
        s2 = (2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x))) ** 2
    else:
        sign, tan_, sin_ = -1.0, math.tan, math.sin
        z = 2.0 * math.asin(min(r, 1.0))
        x = n * z
        if r >= 1.0 or not x < 0.5 * math.pi:
            return None
        s2 = 1.0 / math.cos(x) ** 2
    t = tan_(x)
    phi = 0.5 * h * (n * s2 + t / tan_(z))
    sn = sin_(z)
    if x <= 0.5:
        b, c = _sine_excesses(n, z, sign)
        b, c = sign * 0.5 * s2 * b, sign * s2 * c
    else:
        b = sign * (t - n * sn * s2)
        c = sign * (2.0 * t - n * sin_(2.0 * z) * s2)
    psi = tan_(0.5 * z) / h * b
    dphi = -(h**3) / (2.0 * sn) * (n * n * s2 * t + c / (4.0 * sn * sn))
    return phi, psi, dphi


def _lead_angle(omega: float, h: float) -> float:
    """theta = 2 asinh(h sqrt(omega) / 2) for omega >= 0, or
    phi = 2 asin(h sqrt(-omega) / 2) for omega < 0."""
    r = 0.5 * h * math.sqrt(abs(omega))
    return 2.0 * math.asinh(r) if omega >= 0.0 else 2.0 * math.asin(r)


def _profile_at(omega: float, n: int, h: float, i: np.ndarray) -> np.ndarray:
    """The lead profile at the distances ``i`` from the anchor, in cells,
    integers or not (:func:`lead_profile`)."""
    z = _lead_angle(omega, h)
    if omega >= 0.0:
        return np.exp(-i * z) * (1.0 + np.exp(-2.0 * (n - i) * z)) / (1.0 + math.exp(-2.0 * n * z))
    return np.cos((n - i) * z) / math.cos(n * z)


def lead_profile(omega: float, n: int, h: float) -> np.ndarray:
    """The lead's node values per unit anchor value, from the anchor
    (i = 0) to the free end (i = n): cosh((n - i) theta) / cosh(n theta),
    written with exponentials of -theta so that it cannot overflow, or its
    cos analogue when omega < 0."""
    return _profile_at(omega, n, h, np.arange(n + 1))


@dataclass(frozen=True)
class Leads:
    """The half-lines of ``graph`` in closed form, for a function given on
    a Mesh of its core subgraph (``graph.core``), whose
    :meth:`~graphnls.functions.Mesh.lead_anchors` are their anchors: each
    lead is cut into ``n`` cells of width ``h``
    and holds its anchor's value times ``lead_profile(omega, n, h)``, the
    solver's minimizer on it. :func:`energy_report` and
    :func:`el_residual` take it to account for the leads without a mesh
    of them: every lead term below costs O(1) work, whatever ``n`` is, and
    none builds the n + 1 node values.

    ``n`` must be a positive integer, ``h`` finite and positive and
    ``omega`` finite and above the lowest shift of the lead, where n phi
    reaches pi/2 and the profile would change sign (ValueError)."""

    graph: MetricGraph
    omega: float
    n: int
    h: float

    def __post_init__(self):
        if isinstance(self.n, (bool, np.bool_)) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        require_positive(self.h, "h")
        if isinstance(self.omega, (bool, np.bool_)) or not math.isfinite(self.omega):
            raise ValueError(f"omega must be a finite number, got {self.omega!r}")
        self.forms  # ValueError at or below the lowest shift

    @cached_property
    def forms(self) -> tuple[float, float, float]:
        """``lead_forms(omega, n, h)``: (Phi, Psi, dPhi/domega)."""
        forms = lead_forms(self.omega, self.n, self.h)
        if forms is None:
            raise ValueError(f"omega={self.omega!r} is at or below the lowest shift of {self.n} cells of {self.h!r}")
        return forms

    @property
    def sup(self) -> float:
        """The profile's largest value: 1, at the anchor, for omega >= 0,
        and 1 / cos(n phi), at the free end, for omega < 0."""
        if self.omega >= 0.0:
            return 1.0
        return 1.0 / math.cos(self.n * _lead_angle(self.omega, self.h))

    @property
    def inner_mass(self) -> float:
        """h sum_{i=1}^{n-1} prof_i^2, the lumped mass of the inner nodes,
        from sum_{k=1}^{m} cosh(2 k theta) = sinh(m theta) cosh((m+1) theta)
        / sinh(theta): h [(n-1)/2 sech^2(n theta) + sinh((n-1) theta) /
        (2 sinh(theta) cosh(n theta))], in exponentials of -theta, or its cos
        analogue; a sum of nonnegative terms, exact to rounding."""
        n, h, z = self.n, self.h, _lead_angle(self.omega, self.h)
        if z == 0.0:
            return h * (n - 1)
        if self.omega > 0.0:
            e = math.exp(-2.0 * n * z)
            sech2 = 4.0 * e / (1.0 + e) ** 2
            tail = math.exp(-2.0 * z) / -math.expm1(-2.0 * z) * -math.expm1(-2.0 * (n - 1) * z) / (1.0 + e)
        else:
            sec = 1.0 / math.cos(n * z)
            sech2, tail = sec * sec, 0.5 * math.sin((n - 1) * z) / math.sin(z) * sec
        return h * (0.5 * (n - 1) * sech2 + tail)

    @property
    def anchor_slope(self) -> float:
        """The profile's one-sided derivative out of the anchor, from its
        nodes 0, 1 and 2 (0 and 1 when n = 1), as on a meshed lead."""
        nodes = _profile_at(self.omega, self.n, self.h, np.arange(min(self.n, 2) + 1))
        return _edge_end_derivative(nodes, self.h, start=True)


def _lead_anchors(u: GraphFunction, leads: Leads) -> tuple[np.ndarray, np.ndarray, float]:
    """The leads' anchor dofs and counts A on ``u``'s mesh and s = A u.u,
    summed over every dof as the solver's energy sums it."""
    dofs, counts = u.mesh.lead_anchors(leads.graph)
    return dofs, counts, float(counts.dot(u.values * u.values))


def energy_report(u: GraphFunction, p: float, leads: Leads | None = None) -> EnergyReport:
    """Energy accounting for one function: the energy, its kinetic and
    potential terms, the mass and the sup. Its GN slacks are
    :func:`gn_check`'s.

    With ``leads``, ``u`` lives on a mesh of the core and the half-lines
    are those closed-form leads, as at the end of a solver run.
    Each lead term takes O(1) work, whatever the leads' cell count:

    - with s = sum_j a_j^2 over the leads' anchor values, the Dirichlet
      integral is S_K u.u + s Psi and the mass M_K u.u + s Phi
      (``leads.forms``, the run's own), and the energy is summed in the
      run's order, so it is the run's energy bit for bit;
    - the sup is the larger of the core's and max_j |a_j| times the
      profile's, ``leads.sup`` (1, or 1 / cos(n phi) when omega < 0),
      exact to rounding.
    """
    require_p(p)
    ksq, mass = kinetic_energy(u), l2_norm_sq(u)
    pot = lp_integral(u, p, core_only=True) / p
    energy = 0.5 * ksq - pot
    sup = linf_norm(u)
    if leads is not None:
        _, counts, s = _lead_anchors(u, leads)
        phi, psi, _ = leads.forms
        energy += 0.5 * psi * s
        ksq += psi * s
        mass += phi * s
        sup = max(sup, float(np.max(np.abs(u.values[counts > 0]), initial=0.0)) * leads.sup)
    return EnergyReport(total_energy=energy, kinetic=0.5 * ksq, potential=pot, mass=mass, linf=sup, p=p)


def energy_value(u: GraphFunction, p: float) -> float:
    return EnergyOperator(u.mesh, p).value(u.values)


def energy_gradient(u: GraphFunction, p: float) -> GraphFunction:
    op = EnergyOperator(u.mesh, p)
    return u.with_values(op.gradient(u.values))


def gn_check(
    u: GraphFunction, p: float, C: float | None = None, c: float | None = None
) -> tuple[float, float]:
    """Interpolation-inequality slacks, by default with the graph's
    :func:`gn_constants`; nonnegative when the constants are valid for the
    graph and u decays into the truncation:

    slack_p   = C ||u||_2^(p/2+1) ||u'||_2^(p/2-1) - ||u||_p^p
    slack_inf = c ||u||_2^(1/2) ||u'||_2^(1/2)     - ||u||_inf
    """
    require_p(p)
    C, c = gn_constants(p, u.mesh.graph, C, c)
    norm2 = math.sqrt(max(l2_norm_sq(u), 0.0))
    dnorm = math.sqrt(max(kinetic_energy(u), 0.0))
    slack_p = C * norm2 ** (p / 2.0 + 1.0) * dnorm ** (p / 2.0 - 1.0) - lp_integral(u, p, core_only=False)
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
    u: GraphFunction, p: float, uniform_nonlinearity: bool = False, leads: Leads | None = None
) -> ELReport:
    """Stationarity diagnostics for the constrained problem.

    The multiplier comes from pairing the stationarity relation with u:
    lambda = (int_K |u|^p - ||u'||^2) / ||u||^2. Interior residuals test
    u'' + kappa u|u|^(p-2) - lambda u = 0 through second differences edge by
    edge; vertex residuals test the Kirchhoff flux balance with one-sided
    derivatives oriented out of each vertex. With ``uniform_nonlinearity``
    the nonlinear term acts on every edge (diagnostic mode for closed-form
    solutions on intervals or the whole line).

    With ``leads`` (see :func:`energy_report`) the core edges are tested
    on ``u``'s mesh and each lead in closed form, in O(1) work: its
    profile solves the second difference equation d2 = omega v exactly,
    so a lead with anchor value a has interior residual
    |omega - lambda| |a| sqrt(h sum_i prof_i^2) over its inner nodes, and
    adds omega a^2 and a^2 times that sum to the least-squares
    multiplier's numerator and denominator; the sum is
    ``leads.inner_mass``, a closed form exact to rounding. It leaves its
    anchor with a times ``leads.anchor_slope``, the one-sided derivative
    from the profile's first three nodes, those of a meshed lead bit for
    bit.
    """
    require_p(p)
    if leads is not None and uniform_nonlinearity:
        raise ValueError("closed-form leads carry no nonlinearity")
    mesh = u.mesh
    ksq, mass = kinetic_energy(u), l2_norm_sq(u)
    pot_int = lp_integral(u, p, core_only=not uniform_nonlinearity)
    graph = mesh.graph
    if leads is not None:
        graph = leads.graph
        dofs, _, s = _lead_anchors(u, leads)
        phi, psi, _ = leads.forms
        ksq += psi * s
        mass += phi * s
    if mass <= 0.0:
        raise ValueError("stationarity residuals undefined for the zero function")
    lam = (pot_int - ksq) / mass

    interior: dict[str, float] = {}
    # each edge's outward derivatives at its (tail, head)
    slopes: dict[str, tuple[float, float]] = {}
    num = 0.0
    den = 0.0
    by_id = graph.edges_by_id
    for eid in sorted(mesh.edge_dofs):
        vals = u.values[mesh.edge_dofs[eid]]
        h = mesh.edge_h[eid]
        slopes[eid] = (_edge_end_derivative(vals, h, start=True), _edge_end_derivative(vals, h, start=False))
        if len(vals) < 3:
            interior[eid] = 0.0
            continue
        mid = vals[1:-1]
        strong = (vals[:-2] - 2.0 * mid + vals[2:]) / h**2
        if uniform_nonlinearity or by_id[eid].in_core:
            strong += _abs_pow(mid, p - 2) * mid
        r = strong - lam * mid
        interior[eid] = float(math.sqrt(np.dot(r, r) * h))
        num += float(np.dot(strong, mid) * h)
        den += float(np.dot(mid, mid) * h)
    if leads is not None:
        inner = leads.inner_mass
        slope = leads.anchor_slope
        for e, dof in zip(graph.half_lines, dofs):
            anchor = float(u.values[dof])
            interior[e.id] = abs(leads.omega - lam) * abs(anchor) * math.sqrt(inner)
            slopes[e.id] = (anchor * slope, 0.0)
        num += leads.omega * s * inner
        den += s * inner
        interior = dict(sorted(interior.items()))
    lam_lsq = num / den if den > 0 else lam

    # one pass over the edges in id order: each vertex sums its outward
    # derivatives in that order, its tail's before its head's
    totals: dict[str, float] = {}
    for eid in sorted(slopes):
        e = by_id[eid]
        for vid, slope in zip((e.tail, e.head), slopes[eid]):
            if vid is not None:
                totals[vid] = totals.get(vid, 0.0) + slope
    kirchhoff = {vid: abs(totals[vid]) for vid in sorted(graph.vertex_ids) if vid in totals}
    return ELReport(
        lambda_estimate=float(lam),
        lambda_lsq=float(lam_lsq),
        interior_residuals=interior,
        kirchhoff_residuals=kirchhoff,
    )
