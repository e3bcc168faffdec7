"""Mass-constrained energy minimization on truncated metric graphs.

Every truncation stage is solved on the compact core alone. On a lead the
discrete problem is linear, so the stage minimizer's lead values are the
closed-form profile a cosh((n - i) theta) / cosh(n theta) of the anchor
value a and the shift omega (minus the multiplier), cosh(theta) = 1 +
omega h^2/2; a lead carries mass s Phi(omega) and Dirichlet integral
s Psi(omega), s summing the squared anchor values over the leads. A stage
descends on the core dofs and the one shift omega that all leads share;
its energy and verdict are those of the truncated problem on the whole
stage mesh. The result keeps the last stage's state as core values and
closed-form leads (:class:`graphnls.energy.Leads`).

The scheme is projected gradient descent on the mass sphere with an
Armijo test that also demands a strict decrease. A trial point's energy
and the accepted point's gradient each take one gather of the core's
cells (:class:`EnergyOperator`). Directions are Sobolev gradients
preconditioned by S + sigma*M (Henning & Peterseim), eliminated onto the
core (the leads add Psi + sigma*Phi at their anchors), with sigma the
current multiplier estimate floored at 1/r_cut^2. One banded LU of the
core matrix, in the reverse Cuthill-McKee order of the core dofs (LAPACK's
dgbtrf and dgbtrs), is refactored only when the estimate leaves
[sigma/2, 2*sigma], a rule that also decides whether a stage keeps the
previous stage's factor. A start's shift comes from its lead mass by a
safeguarded Newton iteration (:func:`_lead_shift`).

Runs from starts on one mesh descend together (:func:`_minimize_starts`;
``minimize`` is its one-start case): on the core Mesh that mesh keeps
(``Mesh.core_mesh``), with one operator and one factorizer, each run
factoring its own preconditioner. Each run's scalars and decisions over
its whole schedule are one coroutine with the loop of a lone descent,
which asks for its vector work (a stage's start, a trial, a gradient) by
requests that carry its core values, and returns its record; one flat
loop (:func:`_descend`) serves the requests waiting in blocks that stack
the runs' core values, trials first, then gradients, then stage starts,
so the runs start each stage together. Every reduction is its own row's
1-D dot, so each run is, bit for bit, the run of its start alone. One
start's block is its vector, and its columns of scalars are plain floats.

Each line search starts at step 1, or at the minimizer of the parabola
through the last accepted search when that lies beyond 1, and halves the
step only while the predicted decrease is above one ulp of the energy.
Each stage records why it stopped and how many trials its searches
rejected (``MinimizationResult.stages``); a run counts its factors
(``MinimizationResult.factorizations``).
"""
from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

# unused: kept only because the benchmark's solver.lu_factor hook wraps
# solver.splu by name, until the benchmark hooks dgbtrf and dgbtrs instead
from scipy.sparse.linalg import splu  # noqa: F401

from .energy import (
    ELReport,
    EnergyOperator,
    EnergyReport,
    Leads,
    _profile_at,
    el_residual,
    energy_report,
    lead_forms,
    lead_profile,
    require_mu,
    require_p,
)
from .functions import (
    GraphFunction,
    Mesh,
    _dots,
    l2_norm_sq,
    neighbor_average,
    project_mass,
    require_positive,
    uniform_cells,
)
from .graphs import MetricGraph, core_measure, distance_to_point
from .thresholds import g_critical_point

NEGATIVE_MINIMUM = "NEGATIVE_MINIMUM"
ZERO_INFIMUM_SUSPECTED = "ZERO_INFIMUM_SUSPECTED"
INCONCLUSIVE = "INCONCLUSIVE"

# fixed descent parameters: first trial step, Armijo constant, backtrack
# factor, and the energy drop a stage must stay below over _STALL_WINDOW
# iterations to stop
_STEP0 = 1.0
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_ENERGY_TOL = 1e-5
_STALL_WINDOW = 10
# relative rounding level of an energy value, where the line search stops
_EPS = float(np.finfo(float).eps)
# energies within this relative distance of the lowest count as equal when
# existence_dichotomy picks its best start, so rounding does not flip it
_ENERGY_TIE = 64 * _EPS
# neighbor-averaging passes that smooth the random starting state
_SMOOTHING_PASSES = 5


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    grad_tol: float = 1e-7
    r_cut_schedule: tuple[float, ...] = (10.0, 20.0, 40.0)
    h_max: float = 0.02

    def __post_init__(self):
        # a bool is an int: max_iters=True would run one-iteration stages
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        # NaN tolerances never stop a stage, infinite spacings give one-cell
        # meshes
        for name in ("grad_tol", "h_max"):
            require_positive(getattr(self, name), name)
        sched = tuple(self.r_cut_schedule)
        # float() also reads a bool, and each digit of a string "12"; a
        # numpy bool is no numbers.Real
        if any(isinstance(r, bool) or not isinstance(r, numbers.Real) for r in sched):
            raise ValueError(f"r_cut_schedule entries must be numbers, got {sched!r}")
        sched = tuple(float(r) for r in sched)
        if not all(math.isfinite(r) and r > 0 for r in sched):
            raise ValueError(f"every r_cut must be finite and positive, got {sched!r}")
        if not sched or any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("r_cut_schedule must be strictly increasing and nonempty")
        object.__setattr__(self, "r_cut_schedule", sched)


# ---------------------------------------------------------------------------
# initializers: starting states for minimize(initial=...), each sampled on
# a mesh the caller builds


def initializer_competitor(graph: MetricGraph, mu: float, p: float, mesh: Mesh) -> GraphFunction:
    """Plateau on the core with exponential tails on the half-lines,
    sampled on ``mesh``.

    The amplitude is the minimizer of the competitor's mass requirement
    when p > 4 and that critical amplitude is admissible, otherwise half
    the largest admissible amplitude. Mass is re-projected after
    truncation.
    """
    require_p(p)
    require_mu(mu)
    graph.require_valid()
    ell = core_measure(graph)
    cap = math.sqrt(mu / ell)
    a = 0.5 * cap
    if p > 4.0:
        crit = g_critical_point(ell, mu, graph.n_half_lines, p)
        if crit.a_opt < cap:
            a = crit.a_opt
    return _plateau(graph, mu, mesh, a)


def _plateau(graph: MetricGraph, mu: float, mesh: Mesh, a: float) -> GraphFunction:
    """Plateau ``a`` on the core, with exponential tails that carry the rest
    of the mass on the half-lines, sampled on ``mesh`` and projected to mu."""
    ell = core_measure(graph)
    m = (mu - a**2 * ell) / graph.n_half_lines
    rate = a**2 / (2.0 * m)
    values = np.empty(mesh.n_dofs)
    for eid, dofs in mesh.edge_dofs.items():
        if mesh.graph.edges_by_id[eid].is_half_line:
            values[dofs] = a * np.exp(-rate * mesh.edge_coords[eid])
        else:
            values[dofs] = a
    return project_mass(GraphFunction(mesh, values), mu)


def soliton_constants(p: float) -> tuple[float, float, float]:
    """(amplitude, width rate, multiplier) of the unit-mass full-line
    profile amp * sech(rate * x)^(2/(p-2)) solving w'' + w^(p-1) = lam w."""
    require_p(p)
    q = 2.0 / (p - 2.0)

    def sech_integral(s: float) -> float:
        return math.sqrt(math.pi) * math.gamma(s / 2.0) / math.gamma((s + 1.0) / 2.0)

    i2q = sech_integral(2.0 * q)
    rate = (q * (q + 1.0)) ** (2.0 / (p - 6.0)) * i2q ** ((p - 2.0) / (p - 6.0))
    amp = math.sqrt(rate / i2q)
    lam = q**2 * rate**2
    return amp, rate, lam


def soliton_profile(x: np.ndarray, mu: float, p: float) -> np.ndarray:
    """Mass-mu minimizer of the full-line problem, evaluated at |x|.

    Scales the unit profile: mu^(2/(6-p)) * phi1(mu^((p-2)/(6-p)) x).
    sech is evaluated through exponentials to stay stable for large x.
    """
    amp, rate, _ = soliton_constants(p)
    q = 2.0 / (p - 2.0)
    y = rate * mu ** ((p - 2.0) / (6.0 - p)) * np.abs(np.asarray(x, dtype=float))
    sech = 2.0 * np.exp(-y) / (1.0 + np.exp(-2.0 * y))
    return mu ** (2.0 / (6.0 - p)) * amp * sech**q


def initializer_soliton(
    graph: MetricGraph,
    mu: float,
    p: float,
    mesh: Mesh,
    center_edge: str | None = None,
    center_offset: float | None = None,
) -> GraphFunction:
    """Bump profile centered on a core edge, transported along shortest
    path distance from the center, sampled on ``mesh`` and re-projected
    to the requested mass. Without ``center_edge`` it sits on the first
    core edge by id; without ``center_offset``, at the edge's middle."""
    require_p(p)
    require_mu(mu)
    graph.require_valid()
    if center_edge is None:
        center_edge = sorted(e.id for e in graph.core_edges)[0]
    edge = graph.edges_by_id.get(center_edge)
    if edge is None or edge.is_half_line:
        raise ValueError("soliton center must lie on a core edge")
    if center_offset is None:
        center_offset = edge.length / 2.0
    if not 0.0 <= center_offset <= edge.length:
        raise ValueError("center offset outside the edge")
    dist = distance_to_point(graph, center_edge, center_offset)
    values = np.empty(mesh.n_dofs)
    for eid, dofs in mesh.edge_dofs.items():
        values[dofs] = soliton_profile(dist[eid](mesh.edge_coords[eid]), mu, p)
    return project_mass(GraphFunction(mesh, values), mu)


def initializer_random(graph: MetricGraph, mu: float, p: float, mesh: Mesh, seed: int = 0) -> GraphFunction:
    """Seeded uniform noise on ``mesh``, smoothed by _SMOOTHING_PASSES
    neighbor-averaging passes and projected to mass mu."""
    require_p(p)
    require_mu(mu)
    graph.require_valid()
    rng = np.random.default_rng(seed)
    values = neighbor_average(mesh, rng.uniform(0.0, 1.0, mesh.n_dofs), _SMOOTHING_PASSES)
    return project_mass(GraphFunction(mesh, values), mu)


# ---------------------------------------------------------------------------
# the leads' shift: its closed-form profile and forms are in graphnls.energy
# (lead_forms, lead_profile)


def _lowest_shift(n: int, h: float) -> float:
    """The shift at which n phi reaches pi/2: below it the cos profile
    changes sign, at it Phi is infinite."""
    return -((2.0 * math.sin(0.25 * math.pi / n) / h) ** 2)


def _lead_shift(ratio: float, n: int, h: float) -> float:
    """The shift at which a lead carries mass ``ratio`` per unit squared
    anchor value (Phi(omega) = ratio), by Newton's method on
    g = (Phi - h/2)^(-1/2), concave and increasing in omega (README), from
    the untruncated lead's root theta = atanh(h / (2 ratio)), or from 0
    when the flat lead's mass n h is short of the ratio. A step out of the
    bracket of shifts evaluated takes the chord through the bracket's lower
    end instead (its midpoint when only rounding sent it up). A ratio at or
    below the anchor's half cell gets a shift whose lead is empty to
    rounding."""
    if not ratio > 0.5 * h:
        return (2.0 * math.sinh(64.0) / h) ** 2
    target = (ratio - 0.5 * h) ** -0.5
    # Phi > ratio at lo, where g is g_lo (0 at the lowest shift), Phi <= ratio at hi
    lo, g_lo, hi = _lowest_shift(n, h), 0.0, math.inf
    omega = (2.0 * math.sinh(0.5 * math.atanh(0.5 * h / ratio)) / h) ** 2 if ratio < n * h else 0.0
    best = (math.inf, omega)
    for _ in range(64):
        # no state at the lowest shift, to rounding: Phi is infinite there
        phi, _, dphi = lead_forms(omega, n, h) or (math.inf, 0.0, 0.0)
        best = min(best, (abs(phi - ratio), omega))
        if best[0] <= _EPS * ratio:
            break
        g = (phi - 0.5 * h) ** -0.5 if phi > 0.5 * h else math.inf
        if phi > ratio:
            lo, g_lo = omega, g
        else:
            hi = omega
        slope = -0.5 * g**3 * dphi  # dg/domega
        new = omega + (target - g) / slope if 0.0 < slope < math.inf else math.nan
        if not lo < new < hi:
            new = lo + (omega - lo) * (target - g_lo) / (g - g_lo) if omega == hi else 0.5 * (lo + hi)
        if not lo < new < hi or new == omega:
            break
        omega = new
    return best[1]


# ---------------------------------------------------------------------------
# descent core


def _shifted_factorizer(mesh: Mesh):
    """``factor(sigma, vertex_shift=0.0)``, which LU-factors
    ``S + diag(sigma*M)`` on ``mesh`` with ``vertex_shift`` added on the
    vertex dofs and returns the factor's ``solve``. Each factor copies the
    mesh's band of S in reverse Cuthill-McKee order
    (:meth:`Mesh.stiffness_band`), writes only its diagonal row and factors
    it with the module-level ``dgbtrf``; its ``solve`` permutes, calls the
    module-level ``dgbtrs`` and permutes back. S alone is singular on
    constants: ``sigma`` must be positive."""
    order, inverse, kd, band = mesh.stiffness_band()
    s_diag = band[2 * kd]
    mass = mesh.mass_vector()[order]
    vertices = inverse[: mesh.n_vertices]

    def factor(sigma: float, vertex_shift=0.0):
        if not sigma > 0.0:
            raise ValueError(f"sigma must be positive: S alone is singular on constants, got {sigma!r}")
        values = s_diag + sigma * mass
        values[vertices] += vertex_shift
        # each factor LU-factors its own copy: a solve taken before the
        # next factor keeps reading its own
        ab = band.copy(order="F")
        ab[2 * kd] = values
        lu, pivots, info = dgbtrf(ab, kd, kd, overwrite_ab=True)
        if info != 0:
            raise RuntimeError(f"the banded LU of the shifted core matrix failed: dgbtrf info={info}")

        def solve(b: np.ndarray) -> np.ndarray:
            return dgbtrs(lu, kd, kd, b[order], pivots, overwrite_b=True)[0][inverse]

        return solve

    return factor


# A block of runs keeps its core values as the rows of a (k, m) array and
# its per-run scalars as (k, 1) columns that broadcast against them; a block
# of one run is its vector, and its columns are plain floats.
#
# A run asks the driver for its vector work by requests (kind, i, u,
# *arguments), i its place among the runs and u its core values: its start,
# or a row of the trial block that made them (a lone run's trial is its
# vector). (_START, i, u, 0, Phi, 0), a stage's start, is a trial of step 0
# along a zero direction; (_TRIAL, i, u, t, Phi, pg) is the next trial of
# its line search, whose direction is -pg; (_ITERATE, i, u, omega, Phi, Psi,
# Phi - h/2, the stage's vertex weights) asks for the gradient there: the
# gradient test weighs the vertices on the whole stage mesh, with the
# anchors' half cells.
_START, _ITERATE, _TRIAL = "start", "iterate", "trial"


def _columns(requests: list[tuple]) -> tuple:
    """A block for each vector and a column for each scalar of the
    requests' arguments, their core values first (``np.array`` stacks
    vectors faster than ``np.stack``), or one request's as they are."""
    if len(requests) == 1:
        return requests[0][2:]
    places = list(zip(*requests))[2:]
    return tuple(np.array(x) if isinstance(x[0], np.ndarray) else np.array(x)[:, None] for x in places)


def _descend(
    op: EnergyOperator, factor, counts: np.ndarray, runs: list[tuple[np.ndarray, float]], mu: float, config: SolverConfig
) -> list[tuple]:
    """Every run over the truncation schedule, each stage descended on the
    core dofs and its lead shift omega: the leads are eliminated by their
    closed-form profile, so the stage energy is E(u, omega) = 1/2 (u.S_K u
    + s Psi(omega)) - 1/p int_K |u|^p on the sphere M_K.u^2 + s Phi(omega)
    = mu, where s = sum_j a_j^2 over the leads' anchor values (A u.u, A =
    ``counts`` the diagonal of lead counts on the vertex dofs). Its minimum
    is that of the truncated problem on the whole stage mesh.

    ``op`` evaluates the core terms on the core mesh and ``factor`` is
    that mesh's :func:`_shifted_factorizer`; each lead is cut at the
    stage's r_cut and meshed by :func:`uniform_cells`. Each run starts from
    its core values and lead mass in ``runs``. The core numbering does not
    depend on r_cut, so a stage takes the previous stage's core values,
    shift and factor as they are (the shift rule decides whether the factor
    stays).

    Each run is a coroutine (``descent`` below) with the loop of a lone
    descent, which asks for its vector work by requests and returns the
    run's record: (u, omega, lead mass, gradient norm, converged, trace,
    r_cut table, stages, factorizations), its last stage's state with that
    stage's gradient norm, convergence and trace, a row of the table and of
    the stages per stage, and its factors over the schedule. A stage stops
    by "gradient" (the gradient test passed), "no_descent" (no descent
    direction left), "line_search" (no acceptable step) or "max_iters".
    This loop serves the requests in blocks of the runs' core values, each
    a stack of their rows: every trial waiting, as one block; if none
    waits, every gradient; if none waits either, every stage start, so the
    runs start each stage together. Every reduction is its own row's 1-D
    dot (:func:`graphnls.functions._dots`), so each run is, bit for bit, the
    run it would be alone; one run's block is its vector. Returns the
    runs' records in order."""
    mass_k = op.mass_vec
    nv = op.mesh.n_vertices
    mass_v, mass_e = mass_k[:nv], mass_k[nv:]

    def descent(i: int, u: np.ndarray, lead_mass: float):
        # One run's schedule, the loop of a lone descent. A _START or _TRIAL
        # request is answered with the trial's (value, s, u); an _ITERATE
        # with lam_hat, the block's part of the gradient test and its rows
        # of the residual, weights and g.
        #
        # The preconditioner is the Schur complement of S + sigma*M on the
        # stage mesh, S_K + sigma*M_K plus (Psi + sigma*Phi)(sigma) per lead
        # at its anchor, at sigma ~ -lam_hat: with a fixed S + M the slow
        # tail modes contract only by about lam/(k^2 + 1) per step. 1/r_cut^2
        # floors the shift so the operator stays positive definite while
        # lam_hat >= 0. One banded LU is refactored only when the estimate
        # leaves [sigma/2, 2*sigma]; a stage starts with the previous stage's
        # factor, whose leads' terms are the shorter cut's, and the rule
        # decides there too.
        omega, sigma, solve = None, 0.0, None
        factorizations = 0
        table: list[tuple[float, float, int, bool]] = []
        stages: list[tuple[float, int, int, str]] = []
        for r_cut in config.r_cut_schedule:
            n, h = uniform_cells(r_cut, config.h_max)
            half_h = 0.5 * h
            # the vertex dofs' mass weights on the whole stage mesh: the
            # anchors' half cells too
            mass_full_v = mass_v + half_h * counts
            shift_floor = 1.0 / r_cut**2
            omega_floor = 0.5 * _lowest_shift(n, h)
            if omega is None or lead_forms(omega, n, h) is None:
                # the shift at which this stage's leads carry the lead mass;
                # with every anchor at zero they carry nothing and start flat
                s = float(np.dot(counts, u[:nv] ** 2))
                omega = _lead_shift(lead_mass / s, n, h) if s > 0.0 else 0.0
            phi, psi, dphi = lead_forms(omega, n, h)
            e, s, u = yield _START, i, u, 0.0, phi, 0.0
            energy = e + 0.5 * psi * s
            trace: list[tuple[int, float, float, float]] = []
            window = deque([energy], maxlen=_STALL_WINDOW + 1)
            grad_norm = math.inf
            converged = False
            stop = "max_iters"
            backtracks = 0
            t0 = _STEP0
            it = 0
            for it in range(1, config.max_iters + 1):
                # the gradient test reads the lifted state on the whole stage
                # mesh, where the leads' nodes carry -(omega + lam_hat) M u and
                # each anchor the lead's share of it beyond its half cell
                tail = phi - half_h
                lam_hat, core_sq, residual, weights, g = yield _ITERATE, i, u, omega, phi, psi, tail, mass_full_v
                drift = omega + lam_hat
                grad_norm = math.sqrt(max(core_sq + drift * drift * s * tail, 0.0))
                # relative to the multiplier term lam*M*u (norm |lam|*sqrt(mu)):
                # a strongly bound state cannot resolve its gradient below
                # rounding of that term, so an absolute grad_tol would never be
                # met there
                tol = config.grad_tol * max(1.0, abs(lam_hat) * math.sqrt(mu))
                stagnant = len(window) > _STALL_WINDOW and window[0] - energy < _ENERGY_TOL
                if grad_norm < tol and stagnant:
                    converged = True
                    stop = "gradient"
                    break

                shift = max(-lam_hat, shift_floor)
                if solve is None or not 0.5 * sigma <= shift <= 2.0 * sigma:
                    sigma = shift
                    phi_s, psi_s, _ = lead_forms(sigma, n, h)
                    solve = factor(sigma, counts * (psi_s + sigma * phi_s))
                    factorizations += 1
                # the preconditioned gradient, made tangent to the sphere; the
                # search direction -pg is never formed (negation is exact)
                pg = solve(residual)
                pg -= (float(weights.dot(pg * u)) / mu) * u
                # omega steps toward -lam_hat, adding -1/2 s Phi'(omega) (omega
                # + lam_hat) d_omega < 0 to the slope, its target kept above
                # omega_floor so that trials stay admissible; where that floor
                # would turn the step uphill, omega stays
                d_omega = max(-lam_hat, omega_floor) - omega
                lead_slope = -0.5 * s * dphi * drift * d_omega
                if lead_slope > 0.0:
                    d_omega = lead_slope = 0.0
                slope = lead_slope - float(g.dot(pg))
                if slope >= 0.0:
                    # safeguard: fall back to the plain mass-weighted gradient
                    pg = residual / weights
                    slope = lead_slope - float(g.dot(pg))
                if slope >= 0.0:
                    converged = grad_norm < tol
                    stop = "no_descent"
                    break

                t = t0
                accepted = False
                # halve t only while the predicted decrease t*|slope| is above
                # one ulp of the energy: below it a trial passes only on
                # rounding noise
                rounding = _EPS * abs(energy)
                while t > 1e-16 and t * -slope > rounding:
                    w_omega = omega + t * d_omega
                    forms = lead_forms(w_omega, n, h)
                    # a shift at or below the lead's lowest is no state: reject it
                    if forms is not None:
                        e, s_w, w = yield _TRIAL, i, u, t, forms[0], pg
                        e_new = e + 0.5 * forms[1] * s_w
                        # strict decrease too: an equal energy would let the
                        # stage creep on with vanishing steps until max_iters
                        if e_new < energy and e_new <= energy + _ARMIJO * t * slope:
                            accepted = True
                            break
                    t *= _BACKTRACK
                    backtracks += 1
                if not accepted:
                    # line search exhausted: descent direction no longer useful
                    # at this precision, treat as converged only if the
                    # gradient agrees
                    converged = grad_norm < 10.0 * tol
                    stop = "line_search"
                    break
                # the next search starts at the minimizer of the parabola
                # through E(0), the slope and E(t), never below _STEP0, when
                # this search took its first trial and the parabola curves
                # upward; else at _STEP0
                curvature = e_new - energy - t * slope
                if t == t0 and curvature > 0.0:
                    t0 = max(_STEP0, -slope * t * t / (2.0 * curvature))
                else:
                    t0 = _STEP0
                omega, s, u = w_omega, s_w, w
                phi, psi, dphi = forms
                energy = e_new
                trace.append((it, energy, grad_norm, t))
                window.append(energy)
            lead_mass = s * phi
            table.append((r_cut, energy, it, converged))
            stages.append((r_cut, it, backtracks, stop))
        # a copy: a row would keep its whole trial block
        return u.copy(), omega, lead_mass, grad_norm, converged, trace, table, stages, factorizations

    def project(v: np.ndarray, phi) -> tuple:
        # each row onto its sphere at its Phi, and its s = A w.w there
        vv = v * v
        m = _dots(mass_k, vv) + phi * _dots(counts, vv[..., :nv])
        block = isinstance(m, np.ndarray)
        if (m <= 0).any() if block else m <= 0:
            raise ValueError("cannot project the zero function onto the mass sphere")
        w = v * (np.sqrt(mu / m) if block else math.sqrt(mu / m))
        a = w[..., :nv]
        return w, _dots(counts, a * a)

    def trial(requests: list[tuple]) -> list[tuple]:
        # the trial points at the runs' (u, t, Phi, pg) and their energies
        u, step, phi, pg = _columns(requests)
        w, s = project(u - step * pg, phi)
        e = op.value(w)
        if len(requests) == 1:
            return [(e, s, w)]
        return list(zip(e.ravel().tolist(), s.ravel().tolist(), w))

    def gradient(requests: list[tuple]) -> list[tuple]:
        # the gradient at the runs' (u, omega, Phi, Psi, Phi - h/2,
        # full-mesh vertex weights)
        u, omega, phi, psi, tail, mass_full_v = _columns(requests)
        u_v = u[..., :nv]
        weights = np.empty_like(u)
        weights[..., :nv] = mass_v + phi * counts
        weights[..., nv:] = mass_e
        g = op.gradient(u)
        g_v = g[..., :nv]
        g_v += psi * counts * u_v
        # strip the multiplier component before preconditioning: near a
        # constrained minimum g is dominated by lam*M*u, and preconditioning
        # that part yields directions with vanishing slope
        lam = _dots(g, u) / mu
        residual = g - lam * (weights * u)
        # the gradient test's part on the block: the lifted residual on the
        # vertices and the mass-weighted gradient off them
        full_v = residual[..., :nv] + (omega + lam) * tail * counts * u_v
        tangent_e = residual[..., nv:] / mass_e
        core_sq = _dots(mass_e, tangent_e * tangent_e) + _dots(full_v, full_v / mass_full_v)
        if len(requests) == 1:
            return [(lam, core_sq, residual, weights, g)]
        return list(zip(lam.ravel().tolist(), core_sq.ravel().tolist(), residual, weights, g))

    coros = [descent(i, u, lead_mass) for i, (u, lead_mass) in enumerate(runs)]
    records = [None] * len(runs)
    # the runs' requests waiting, by kind, each in the order it was asked
    trials, gradients, starts = [], [], []
    queues = {_TRIAL: trials, _ITERATE: gradients, _START: starts}
    served = [((None, i), None) for i in range(len(runs))]  # to make each run's first request
    while True:
        # each run served takes its reply and asks again, until it is done
        for request, reply in served:
            i = request[1]
            try:
                request = coros[i].send(reply)
            except StopIteration as done:
                records[i] = done.value
                continue
            queues[request[0]].append(request)
        # a stage start waits until no run has a trial or a gradient left,
        # so the runs start each stage together
        queue = trials or gradients or starts
        if not queue:
            return records
        requests = queue.copy()
        queue.clear()
        served = zip(requests, (gradient if queue is gradients else trial)(requests))


def _start(initial: GraphFunction, core: Mesh) -> tuple[np.ndarray, float]:
    """Core values and lead mass of a start on any mesh of the graph: the
    core edges are interpolated onto the core mesh (exactly, on an equal
    spacing)."""
    old = initial.mesh
    values = np.empty(core.n_dofs)
    values[: core.n_vertices] = initial.values[: core.n_vertices]
    for eid, dofs in core.edge_dofs.items():
        values[dofs] = np.interp(core.edge_coords[eid], old.edge_coords[eid], initial.values[old.edge_dofs[eid]])
    return values, l2_norm_sq(initial) - l2_norm_sq(initial, core_only=True)


@dataclass
class MinimizationResult:
    # the last stage's state: its core values (|u| where it had a negative
    # value) and its leads, each its anchor's value times ``leads.profile``
    core: GraphFunction
    leads: Leads
    energy: float
    verdict: str
    report: EnergyReport
    energy_trace: list[float]
    trace: list[tuple[int, float, float, float]]
    r_cut_table: list[tuple[float, float, int, bool]]  # (r_cut, energy, iterations, converged)
    stages: list[tuple[float, int, int, str]]  # (r_cut, iterations, backtracks, stop)
    converged: bool
    iterations: int
    grad_norm: float
    mu: float
    p: float
    # the mass the leads carry, anchors' half cells included
    lead_mass: float
    # LU factors of the preconditioner over the run (not in to_dict)
    factorizations: int

    @cached_property
    def el(self) -> ELReport:
        """The Euler-Lagrange residuals of the state, computed on first
        read."""
        return el_residual(self.core, self.p, leads=self.leads)

    @property
    def lead_shift(self) -> float:  # omega, minus the multiplier the leads decay with
        return self.leads.omega

    @cached_property
    def function(self) -> GraphFunction:
        """The state on the last stage's mesh, built on first read."""
        graph, core = self.leads.graph, self.core
        mesh = Mesh(graph, h_max=core.mesh.h_max, r_cut=self.r_cut_table[-1][0])
        values = np.empty(mesh.n_dofs)
        for eid, dofs in core.mesh.edge_dofs.items():
            values[mesh.edge_dofs[eid]] = core.values[dofs]
        for e in graph.half_lines:
            dofs = mesh.edge_dofs[e.id]
            values[dofs] = values[dofs[0]] * self.leads.profile
        return GraphFunction(mesh, values)

    @property
    def min_node_value(self) -> float:
        """The least value of :attr:`function`, in O(1) work per lead:
        anchors are >= 0 and rounding monotone, so a lead's is its least
        anchor times the profile's least, which is its free end (node n)
        for omega > 0 and its anchor otherwise. At long cuts the free end
        underflows to 0."""
        values, leads = self.core.values, self.leads
        anchors = values[self.core.mesh.lead_anchors(leads.graph)[0]]
        least = _profile_at(leads.omega, leads.n, leads.h, np.array(leads.n)) if leads.omega > 0.0 else 1.0
        return min(float(values.min()), float(anchors.min() * least))

    @property
    def strictly_positive(self) -> bool:
        """Every core value, anchors included, is > 0: the closed-form lead
        profile is positive for every admissible shift, so the state is
        positive in exact arithmetic, also where :attr:`min_node_value`
        underflows."""
        return float(self.core.values.min()) > 0.0

    def to_dict(self) -> dict:
        d = self.report.to_dict()
        d.update(self.el.to_dict())
        d.update(
            {
                "verdict": self.verdict,
                "converged": self.converged,
                "iterations": self.iterations,
                "grad_norm": self.grad_norm,
                "min_node_value": self.min_node_value,
                "strictly_positive": self.strictly_positive,
                "mu": self.mu,
                "r_cut_table": [list(row) for row in self.r_cut_table],
            }
        )
        return d


def _verdict(table: list[tuple[float, float, int, bool]], energy_tol: float) -> str:
    if not all(row[3] for row in table):
        return INCONCLUSIVE
    energies = [row[1] for row in table]
    e_last = energies[-1]
    if len(energies) >= 2:
        rel = abs(energies[-1] - energies[-2]) / max(abs(energies[-1]), 1e-300)
        if e_last < -10.0 * energy_tol and rel < 0.01:
            return NEGATIVE_MINIMUM
    increasing = all(b >= a - 1e-15 for a, b in zip(energies, energies[1:]))
    if increasing and e_last <= energy_tol:
        if abs(e_last) < energy_tol:
            return ZERO_INFIMUM_SUSPECTED
        if len(energies) >= 3:
            d1 = energies[-2] - energies[-3]
            d2 = energies[-1] - energies[-2]
            if d1 > 0 and 0.0 < d2 / d1 < 0.9:
                r = d2 / d1
                e_inf = energies[-1] + d2 * r / (1.0 - r)
                if e_inf >= -energy_tol:
                    return ZERO_INFIMUM_SUSPECTED
    return INCONCLUSIVE


def _minimize_starts(
    graph: MetricGraph, mu: float, p: float, config: SolverConfig, starts: list[GraphFunction]
) -> list[MinimizationResult]:
    """The run from each of ``starts``, states on one mesh of ``graph``,
    descended together over the schedule (:func:`_descend`) on the core
    Mesh that mesh keeps (:meth:`Mesh.core_mesh`), with one operator and
    one factorizer for them all: each factor LU-factors its own copy of
    the core mesh's band, so each run's factor stays its own. Each result
    is, bit for bit, that of its start alone."""
    core = starts[0].mesh.core_mesh(config.h_max)
    op = EnergyOperator(core, p)
    factor = _shifted_factorizer(core)
    _, counts = core.lead_anchors(graph)
    records = _descend(op, factor, counts, [_start(u0, core) for u0 in starts], mu, config)
    n, h = uniform_cells(config.r_cut_schedule[-1], config.h_max)

    results = []
    for u, omega, lead_mass, grad_norm, converged, trace, table, stages, factorizations in records:
        # |u| has the same energy or lower, and the mass form only sees |u|
        values = np.abs(u) if np.any(u < 0.0) else u
        # the report, and the residuals once read, come from the core values
        # and the leads in closed form, with no sum over lead nodes; the
        # energy is then the last stage's, bit for bit, when its state has
        # one sign
        u_core = GraphFunction(core, values)
        leads = Leads(graph, omega, n, h)
        report = energy_report(u_core, p, leads)
        results.append(
            MinimizationResult(
                core=u_core,
                leads=leads,
                energy=report.total_energy,
                verdict=_verdict(table, _ENERGY_TOL),
                report=report,
                energy_trace=[row[1] for row in trace],
                trace=trace,
                r_cut_table=table,
                stages=stages,
                converged=converged,
                iterations=sum(row[2] for row in table),
                grad_norm=grad_norm,
                mu=mu,
                p=p,
                lead_mass=lead_mass,
                factorizations=factorizations,
            )
        )
    return results


def minimize(
    graph: MetricGraph,
    mu: float,
    p: float,
    config: SolverConfig | None = None,
    initial: GraphFunction | None = None,
) -> MinimizationResult:
    """Projected-gradient minimization over an increasing truncation
    schedule, warm starting each stage from the previous one.

    It is the one-start case of :func:`_minimize_starts`. Each stage
    descends on the core dofs and one lead shift (:func:`_descend`), on
    the core mesh that ``initial``'s mesh keeps (:meth:`Mesh.core_mesh`);
    later stages take the core values, the shift and the preconditioner's
    factor as they are.
    The first stage starts from ``initial``, a state on any mesh of
    ``graph`` (ValueError for another graph), its core interpolated onto
    the core mesh and its lead mass giving the shift; without it, from the
    plateau competitor. The result holds the last stage's state as
    ``core`` (|u| where it has a negative value) and ``leads``; its
    ``report``, ``el`` (on first read) and ``min_node_value`` come from
    them with no sum over lead nodes, so ``energy`` is the last entry of
    ``r_cut_table`` whenever that stage's state has one sign (|u| of a
    state of both signs has an energy no higher). ``function`` lifts it
    onto the last mesh.

    Every stage solves a compact surrogate problem, so the verdict encodes
    the truncation trend: NEGATIVE_MINIMUM for a stable strictly negative
    limit (evidence of existence, up to truncation and discretization
    error), ZERO_INFIMUM_SUSPECTED when energies rise monotonically to zero
    (mass escaping along the half-lines; evidence only), INCONCLUSIVE
    otherwise.
    """
    require_p(p)
    require_mu(mu)
    graph.require_valid()
    config = config or SolverConfig()
    if initial is None:
        initial = initializer_competitor(graph, mu, p, Mesh(graph, h_max=config.h_max, r_cut=config.r_cut_schedule[0]))
    elif initial.mesh.graph != graph:
        raise ValueError("the initial state lives on a mesh of another graph")

    return _minimize_starts(graph, mu, p, config, [initial])[0]


# ---------------------------------------------------------------------------
# Dirichlet benchmark on a (half-)line


def dirichlet_line_min(
    m: float,
    a: float,
    h_max: float = 0.02,
    half_line: bool = False,
    r_cut: float | None = None,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Minimal Dirichlet integral over P1 functions on a truncated line (or
    half-line) with prescribed trapezoid mass m and pinned value a at the
    origin. Exact values: a^4/m on the line, a^4/(4m) on the half-line.

    With the pin as anchor, each side is a lead of the solver's truncated
    problem (natural far end, no nonlinearity): its minimizer is
    a * :func:`lead_profile` at the shift :func:`_lead_shift` that carries
    ratio = m / (sides * a^2) per unit a^2, the pin's half cell included.
    The default cut is 12 decay lengths of the side's tail
    a exp(-x / (2 ratio)), and no less than 10; the grid is
    ``uniform_cells(r, min(h_max, r/50))``.

    Returns (minimal value, (grid, minimizer values)).
    """
    inputs = {"m": m, "a": a, "h_max": h_max}
    if r_cut is not None:
        inputs["r_cut"] = r_cut
    for name, value in inputs.items():
        require_positive(value, name)
    sides = 1 if half_line else 2
    ratio = m / (sides * a**2)
    r = r_cut if r_cut is not None else max(10.0, 24.0 * ratio)
    n, h = uniform_cells(r, min(h_max, r / 50.0))
    # Phi falls from n h at omega = 0 (the constant a) to h/2 as omega grows
    if ratio <= 0.5 * h:
        raise ValueError("infeasible: pinned node already exhausts the mass")
    if ratio >= n * h:
        raise ValueError("truncation too short: the constant a carries no more than mass m")
    v = a * lead_profile(_lead_shift(ratio, n, h), n, h)
    # the shift meets the mass only to rounding; rescale the side
    weights = np.full(n, h)
    weights[-1] = 0.5 * h
    v[1:] *= math.sqrt((ratio - 0.5 * h) * a**2 / float(np.dot(weights, v[1:] * v[1:])))
    if half_line:
        xs = np.linspace(0.0, r, n + 1)
    else:
        xs = np.linspace(-r, r, 2 * n + 1)
        v = np.concatenate((v[:0:-1], v))
    d = np.diff(v)
    return float(np.dot(d, d)) / h, (xs, v)


# ---------------------------------------------------------------------------
# multi-initializer dichotomy driver


@dataclass
class DichotomyResult:
    verdict: str
    best_label: str
    best_energy: float
    runs: dict[str, MinimizationResult] = field(repr=False, default_factory=dict)


def _core_position(graph: MetricGraph, frac: float) -> tuple[str, float]:
    edges = sorted(graph.core_edges, key=lambda e: e.id)
    total = sum(e.length for e in edges)
    target = frac * total
    acc = 0.0
    for e in edges:
        if acc + e.length >= target:
            return e.id, min(max(target - acc, 0.0), e.length)
        acc += e.length
    last = edges[-1]
    return last.id, last.length


def existence_dichotomy(graph: MetricGraph, mu: float, p: float, config: SolverConfig | None = None) -> DichotomyResult:
    """Run the minimizer from six deterministic starts, all sampled on the
    first stage's mesh: the plateau competitor, bump profiles centered at
    three core positions, and plateaus at 1/4 and 3/4 of the largest
    amplitude sqrt(mu / core measure). The six runs descend as one block
    on that mesh's core Mesh, with one operator and one factorizer
    (:func:`_minimize_starts`), and each is, bit for bit, the
    :func:`minimize` of its start. Any stably negative run settles the
    question in favor of existence; unanimous zero-trending runs are
    reported as suspicion of an unattained zero infimum."""
    require_p(p)
    require_mu(mu)
    graph.require_valid()
    config = config or SolverConfig()
    mesh0 = Mesh(graph, h_max=config.h_max, r_cut=config.r_cut_schedule[0])
    starts = {"competitor": initializer_competitor(graph, mu, p, mesh0)}
    for frac in (0.25, 0.5, 0.75):
        eid, off = _core_position(graph, frac)
        starts[f"soliton@{frac}"] = initializer_soliton(graph, mu, p, mesh0, center_edge=eid, center_offset=off)
    for frac in (0.25, 0.75):
        starts[f"plateau@{frac}"] = _plateau(graph, mu, mesh0, frac * math.sqrt(mu / core_measure(graph)))
    runs = dict(zip(starts, _minimize_starts(graph, mu, p, config, list(starts.values()))))

    # the first start, in order, whose energy ties with the lowest
    e_min = min(r.energy for r in runs.values())
    best_label = next(k for k, r in runs.items() if r.energy <= e_min + _ENERGY_TIE * abs(e_min))
    best = runs[best_label]
    if any(r.verdict == NEGATIVE_MINIMUM for r in runs.values()):
        verdict = NEGATIVE_MINIMUM
    elif all(r.verdict == ZERO_INFIMUM_SUSPECTED for r in runs.values()):
        verdict = ZERO_INFIMUM_SUSPECTED
    else:
        verdict = INCONCLUSIVE
    return DichotomyResult(verdict=verdict, best_label=best_label, best_energy=best.energy, runs=runs)
