"""Mass-constrained energy minimization on metric graphs with half-line leads.

A run descends with its leads cut at R (:func:`problem_scales`): with
a = sqrt(mu/L) the plateau that holds the mass on a core of measure L, the
verdict's rounding bound is 64 eps times the energy scale mu a^(p-2), and
R puts the flat state's energy (L/p) (mu/(N R + L))^(p/2) far below it.
When p > 4, where u = 0 is a local minimum of the untruncated problem that
a start spread over its leads would descend to, the run first descends at
its start mesh's own cut.
The scales, the bound, R and every tolerance rescale with the problem under
:func:`graphnls.graphs.homothety`. A converged run that ends below minus
the bound is NEGATIVE_MINIMUM; one that does not is ZERO_INFIMUM_SUSPECTED,
evidence only; a run that does not converge is INCONCLUSIVE.

The run is solved on the compact core alone. On a lead the discrete
problem is linear, so the minimizer's lead values are the closed-form
profile a cosh((n - i) theta) / cosh(n theta) of the anchor value a and
the shift omega (minus the multiplier), cosh(theta) = 1 + omega h^2/2; a
lead carries mass s Phi(omega) and Dirichlet integral s Psi(omega), s
summing the squared anchor values over the leads, and n enters only as a
number. A run descends on the core dofs and the one shift omega that all
leads share. The result keeps the state as core values and closed-form
leads (:class:`graphnls.energy.Leads`), and n theta, their decay over R.

The scheme is projected gradient descent on the mass sphere with an
Armijo test that also demands a strict decrease. Directions are Sobolev
gradients preconditioned by P = S + sigma*M (Henning & Peterseim, SIAM J.
Numer. Anal. 58, 2020), eliminated onto the core, with sigma the current
multiplier estimate floored at a fixed fraction of a^(p-2), and made
tangent to the mass sphere along u, or in P's metric where that floor
binds. One banded LU of the core matrix (LAPACK's dgbtrf and dgbtrs) is
refactored only when the estimate leaves [sigma/2, 2*sigma].

Runs from starts on one mesh descend together (:func:`_minimize_starts`;
``minimize`` is its one-start case): on the core Mesh that mesh keeps
(``Mesh.core_mesh``), with one operator and one factorizer, each run
factoring its own preconditioner. Each run is one coroutine with the loop
of a lone descent, which asks for its vector work (a trial, a gradient) by
requests that carry its core values, and returns its record; one flat
loop (:func:`_descend`) serves the requests waiting in blocks that stack
the runs' core values, trials first. Every reduction is its own row's 1-D
dot, so each run is, bit for bit, the run of its start alone.

Each line search starts at step 1, or at the minimizer of the parabola
through the last accepted search when that lies beyond 1, and halves the
step only while the predicted decrease is above one ulp of the energy. A
run records why it stopped and how many trials its searches rejected
(``MinimizationResult.stages``, a row per descent), and counts its factors
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
    _lead_angle,
    _profile_at,
    core_sums,
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

# Every tolerance is a fixed multiple of the problem's scales (problem_scales).
# Fixed descent parameters: first trial step, Armijo constant, backtrack
# factor, and the iterations over which a run's energy must drop by no more
# than the rounding bound for its gradient test to stop it
_STEP0 = 1.0
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_STALL_WINDOW = 10
# the gradient norm a run must reach, relative to sqrt(mu) times the larger
# of the multiplier scale and |lam|
_GRAD_TOL = 1e-7
# relative rounding level of an energy value, where the line search stops
_EPS = float(np.finfo(float).eps)
# the verdict's rounding bound, over the energy scale; energies within it
# of the lowest count as equal when existence_dichotomy picks its best
# start, so rounding does not flip the pick
_ROUNDING = 64 * _EPS
# the flat state's energy at the cut, over the rounding bound
_CUT_MARGIN = 2.0**-6
# the preconditioner's least shift, over the multiplier scale
_SHIFT_FLOOR = 1e-4
# the starts' mesh cuts its leads at this multiple of the core measure
_START_CUT = 10.0
# the lifted state's leads end where their profile falls below e^-_DISPLAY_DECAY
# (1e-16) of the anchor, after at most _DISPLAY_CELLS cells
_DISPLAY_DECAY = 16.0 * math.log(10.0)
_DISPLAY_CELLS = 2**14
# neighbor-averaging passes that smooth the random starting state
_SMOOTHING_PASSES = 5


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    # deprecated and ignored (a run derives its cut), still validated
    r_cut_schedule: tuple[float, ...] = (10.0, 20.0, 40.0)
    h_max: float = 0.02

    def __post_init__(self):
        # a bool is an int: max_iters=True would run one-iteration descents
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        # an infinite spacing gives one-cell meshes
        require_positive(self.h_max, "h_max")
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


def problem_scales(graph: MetricGraph, mu: float, p: float) -> tuple[float, float, float]:
    """(multiplier scale, rounding bound, cut) of the problem.

    With a = sqrt(mu/L) the plateau that holds the whole mass on the core
    of measure L, the multiplier scale is a^(p-2) and the energy scale mu
    a^(p-2), p times the plateau's potential term. The bound is _ROUNDING
    times the energy scale, and the cut R puts the flat state's energy
    (L/p) (mu/(N R + L))^(p/2) at _CUT_MARGIN times the bound: R = L ((p
    _CUT_MARGIN _ROUNDING)^(-2/p) - 1) / N, free of mu. Under homothety by
    f = lam^((2-p)/(6-p)) at mass lam mu the multiplier scale goes as
    f^-2, the bound as the energy, lam^((2+p)/(6-p)), and R as f."""
    ell = core_measure(graph)
    lam_scale = (mu / ell) ** (0.5 * (p - 2.0))
    r_cut = ell * ((p * _CUT_MARGIN * _ROUNDING) ** (-2.0 / p) - 1.0) / graph.n_half_lines
    return lam_scale, _ROUNDING * mu * lam_scale, r_cut


def start_mesh(graph: MetricGraph, h_max: float) -> Mesh:
    """The mesh the default starts are sampled on, its leads cut at
    _START_CUT core measures: a start is reduced to its core values and
    lead mass anyway (:func:`_start`)."""
    return Mesh(graph, h_max=h_max, r_cut=_START_CUT * core_measure(graph))


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


def _lead_shift(ratio: float, h: float) -> float:
    """The shift at which an untruncated lead of cells ``h`` carries mass
    ``ratio`` per unit squared anchor value: Phi = h coth(theta) / 2, so
    theta = atanh(h / (2 ratio)); a lead of n cells differs by a relative
    O(e^(-2 n theta)). A ratio at or below the anchor's half cell gets a
    shift whose lead is empty to rounding."""
    if not ratio > 0.5 * h:
        return (2.0 * math.sinh(64.0) / h) ** 2
    return (2.0 * math.sinh(0.5 * math.atanh(0.5 * h / ratio)) / h) ** 2


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
# or a row of the trial block that made them. (_TRIAL, i, u, t, Phi, pg) is
# the next trial of its line search, whose direction is -pg (its start is
# the trial of step 0 along a zero direction); (_ITERATE, i, u, omega, Phi,
# Psi, Phi - h/2) asks for the gradient there.
_ITERATE, _TRIAL = "iterate", "trial"


def _columns(requests: list[tuple]) -> tuple:
    """A block for each vector and a column for each scalar of the
    requests' arguments, their core values first (``np.array`` stacks
    vectors faster than ``np.stack``), or one request's as they are."""
    if len(requests) == 1:
        return requests[0][2:]
    places = list(zip(*requests))[2:]
    return tuple(np.array(x) if isinstance(x[0], np.ndarray) else np.array(x)[:, None] for x in places)


def _descend(
    op: EnergyOperator,
    factor,
    counts: np.ndarray,
    runs: list[tuple[np.ndarray, float]],
    mu: float,
    config: SolverConfig,
    scales: tuple[float, float, float],
) -> list[tuple]:
    """Every run descended on the core dofs and its lead shift omega at the
    cut of ``scales`` (:func:`problem_scales`): the leads are eliminated
    by their closed-form profile, so the energy is E(u, omega) = 1/2
    (u.S_K u + s Psi(omega)) - 1/p int_K |u|^p on the sphere M_K.u^2 + s
    Phi(omega) = mu, where s = sum_j a_j^2 over the leads' anchor values
    (A u.u, A = ``counts`` the diagonal of lead counts, 0 off the
    vertices). Its minimum is that of the problem cut at R on a mesh of
    the whole graph, each lead meshed by :func:`uniform_cells`.

    ``op`` evaluates the core terms on the core mesh and ``factor`` is
    that mesh's :func:`_shifted_factorizer`. Each run starts from its core
    values and lead mass in ``runs``, at the untruncated lead's shift for
    that mass.

    Each run is a coroutine (``descent`` below) with the loop of a lone
    descent, which asks for its vector work by requests and returns the
    run's record: (u, omega, lead mass, gradient norm, converged, trace,
    stage, factorizations), its stage the row (r_cut, iterations,
    backtracks, stop). A run stops by "gradient" (the gradient test
    passed), "no_descent" (no descent direction left), "line_search" (no
    acceptable step) or "max_iters". This loop serves the requests in
    blocks of the runs' core values: every trial waiting, as one block; if
    none waits, every gradient. Every reduction is its own row's 1-D dot
    (:func:`graphnls.functions._dots`), so each run is, bit for bit, the
    run it would be alone. Returns the runs' records in order."""
    mass_k = op.mass_vec
    vertex_counts = counts[: op.mesh.n_vertices]
    lam_scale, bound, r_cut = scales
    n, h = uniform_cells(r_cut, config.h_max)
    half_h = 0.5 * h
    # the mass weights on the whole cut mesh, anchors' half cells too
    mass_full = mass_k + half_h * counts
    # The preconditioner is the Schur complement of S + sigma*M on the cut
    # mesh at sigma ~ -lam_hat: with a fixed S + M the slow tail modes
    # contract only by about lam/(k^2 + 1) per step. The floor keeps it
    # positive definite, and clear of S's rounding, at any cut.
    shift_floor = _SHIFT_FLOOR * lam_scale
    omega_floor = 0.5 * _lowest_shift(n, h)
    grad_tol = _GRAD_TOL * math.sqrt(mu)

    def descent(i: int, u: np.ndarray, lead_mass: float):
        # One run, the loop of a lone descent. A _TRIAL request is answered
        # with the trial's (value, s, u); an _ITERATE with lam_hat, the
        # block's part of the gradient test and its rows of the residual,
        # W u and g.
        sigma, solve = 0.0, None
        factorizations = 0
        # the shift at which the leads carry the lead mass; with every
        # anchor at zero they carry nothing and start flat
        s = float(counts.dot(u * u))
        omega = _lead_shift(lead_mass / s, h) if s > 0.0 else 0.0
        phi, psi, dphi = lead_forms(omega, n, h)
        e, s, u = yield _TRIAL, i, u, 0.0, phi, np.zeros_like(u)
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
            # the gradient test reads the lifted state on the whole cut
            # mesh, where the leads' nodes carry -(omega + lam_hat) M u and
            # each anchor the lead's share of it beyond its half cell
            tail = phi - half_h
            lam_hat, core_sq, residual, wu, g = yield _ITERATE, i, u, omega, phi, psi, tail
            drift = omega + lam_hat
            grad_norm = math.sqrt(max(core_sq + drift * drift * s * tail, 0.0))
            # relative to the multiplier term lam*M*u (norm |lam|*sqrt(mu)):
            # a strongly bound state cannot resolve its gradient below
            # rounding of that term, so a tolerance on the scale alone
            # would never be met there
            tol = grad_tol * max(lam_scale, abs(lam_hat))
            stagnant = len(window) > _STALL_WINDOW and window[0] - energy <= bound
            if grad_norm < tol and stagnant:
                converged = True
                stop = "gradient"
                break

            shift = max(-lam_hat, shift_floor)
            if solve is None or not 0.5 * sigma <= shift <= 2.0 * sigma:
                sigma = shift
                phi_s, psi_s, _ = lead_forms(sigma, n, h)
                solve = factor(sigma, vertex_counts * (psi_s + sigma * phi_s))
                factorizations += 1
            # the preconditioned gradient, made tangent to the sphere (W u.pg
            # = 0); the search direction -pg is never formed (negation is
            # exact). At the floor the shift stays above the multiplier and
            # a correction along u overshoots: there it is taken in P's
            # metric, along z = P^-1 W u, for one more solve (Henning &
            # Peterseim)
            pg = solve(residual)
            if shift == shift_floor:
                z = solve(wu)
                pg -= (float(wu.dot(pg)) / float(wu.dot(z))) * z
            else:
                pg -= (float(wu.dot(pg)) / mu) * u
            # omega steps toward -lam_hat, adding -1/2 s Phi'(omega) (omega
            # + lam_hat) d_omega < 0 to the slope, its target kept above
            # omega_floor so that trials stay admissible; where that floor
            # would turn the step uphill, omega stays
            d_omega = max(-lam_hat, omega_floor) - omega
            lead_slope = -0.5 * s * dphi * drift * d_omega
            if lead_slope > 0.0:
                d_omega = lead_slope = 0.0
            # P is positive definite, so the slope is lead_slope - r.P^-1 r
            # <= 0 on either tangent branch: it reaches 0 only where the
            # residual r vanishes to rounding
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
                    # run creep on with vanishing steps until max_iters
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
        # a copy: a row would keep its whole trial block
        return u.copy(), omega, s * phi, grad_norm, converged, trace, (r_cut, it, backtracks, stop), factorizations

    def project(v: np.ndarray, phi) -> tuple:
        # each row onto its sphere at its Phi, and its s = A w.w there
        m = _dots(mass_k + phi * counts, v * v)
        block = isinstance(m, np.ndarray)
        if (m <= 0).any() if block else m <= 0:
            raise ValueError("cannot project the zero function onto the mass sphere")
        w = v * (np.sqrt(mu / m) if block else math.sqrt(mu / m))
        return w, _dots(counts, w * w)

    def trial(requests: list[tuple]) -> list[tuple]:
        # the trial points at the runs' (u, t, Phi, pg) and their energies
        u, step, phi, pg = _columns(requests)
        w, s = project(u - step * pg, phi)
        e = op.value(w)
        if len(requests) == 1:
            return [(e, s, w)]
        return list(zip(e.ravel().tolist(), s.ravel().tolist(), w))

    def gradient(requests: list[tuple]) -> list[tuple]:
        # the gradient at the runs' (u, omega, Phi, Psi, Phi - h/2)
        u, omega, phi, psi, tail = _columns(requests)
        g = op.gradient(u)
        g += psi * counts * u
        # strip the multiplier component before preconditioning: near a
        # constrained minimum g is dominated by lam*M*u, and preconditioning
        # that part yields directions with vanishing slope
        lam = _dots(g, u) / mu
        wu = (mass_k + phi * counts) * u
        residual = g - lam * wu
        # the gradient test's part on the block: the lifted residual,
        # weighted by the whole cut mesh's mass
        full = residual + (omega + lam) * tail * counts * u
        core_sq = _dots(full, full / mass_full)
        if len(requests) == 1:
            return [(lam, core_sq, residual, wu, g)]
        return list(zip(lam.ravel().tolist(), core_sq.ravel().tolist(), residual, wu, g))

    coros = [descent(i, u, lead_mass) for i, (u, lead_mass) in enumerate(runs)]
    records = [None] * len(runs)
    # the runs' requests waiting, by kind, each in the order it was asked
    trials, gradients = [], []
    queues = {_TRIAL: trials, _ITERATE: gradients}
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
        queue = trials or gradients
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
    # the state: its core values (|u| where it had a negative value) and
    # its leads, each its anchor's value times
    # ``lead_profile(leads.omega, leads.n, leads.h)``
    core: GraphFunction
    leads: Leads
    energy: float
    verdict: str
    report: EnergyReport
    # the last descent's (iteration, energy, gradient norm, step) rows
    energy_trace: list[float]
    trace: list[tuple[int, float, float, float]]
    # a row (r_cut, iterations, backtracks, stop) per descent, two if p > 4
    stages: list[tuple[float, int, int, str]]
    converged: bool
    iterations: int
    grad_norm: float
    mu: float
    p: float
    # the mass the leads carry, anchors' half cells included
    lead_mass: float
    # LU factors of the preconditioner over the run (not in to_dict)
    factorizations: int
    # the verdict's rounding bound (problem_scales)
    bound: float
    # graphnls.energy.core_sums of the state, for the report and residuals
    core_sums: tuple[float, float, float] = field(repr=False, default=None)

    @cached_property
    def el(self) -> ELReport:
        """The Euler-Lagrange residuals of the state, computed on first
        read from the report's core sums."""
        return el_residual(self.core, self.p, leads=self.leads, sums=self.core_sums)

    @property
    def lead_shift(self) -> float:  # omega, minus the multiplier the leads decay with
        return self.leads.omega

    @property
    def r_cut(self) -> float:
        return self.stages[-1][0]

    @property
    def n_theta(self) -> float:
        """The leads' decay over the cut, their profile ending near
        e^-(n theta) (0 for omega <= 0): >> 1 for a bound state."""
        leads = self.leads
        return leads.n * _lead_angle(leads.omega, leads.h) if leads.omega > 0.0 else 0.0

    @cached_property
    def function(self) -> GraphFunction:
        """The state on a mesh of the whole graph, built on first read, its
        leads on their own cells up to where the profile falls below 1e-16
        of the anchor, at most _DISPLAY_CELLS of them: for a bound state,
        the state to rounding."""
        graph, core, leads = self.leads.graph, self.core, self.leads
        theta = self.n_theta / leads.n
        cells = min(leads.n, _DISPLAY_CELLS)
        if theta > 0.0:
            cells = min(cells, math.ceil(_DISPLAY_DECAY / theta))
        mesh = Mesh(graph, h_max=core.mesh.h_max, r_cut=cells * leads.h)
        values = np.empty(mesh.n_dofs)
        for eid, dofs in core.mesh.edge_dofs.items():
            values[mesh.edge_dofs[eid]] = core.values[dofs]
        profile = _profile_at(leads.omega, leads.n, leads.h, np.arange(cells + 1))
        for e in graph.half_lines:
            dofs = mesh.edge_dofs[e.id]
            values[dofs] = values[dofs[0]] * profile
        return GraphFunction(mesh, values)

    @property
    def strictly_positive(self) -> bool:
        """Every core value, anchors included, is > 0: the lead profile is
        positive at every admissible shift, also where its free end
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
                "strictly_positive": self.strictly_positive,
                "mu": self.mu,
                "r_cut": self.r_cut,
                "bound": self.bound,
                "n_theta": self.n_theta,
            }
        )
        return d


def _verdict(energy: float, converged: bool, bound: float) -> str:
    """INCONCLUSIVE unless the run converged; then NEGATIVE_MINIMUM below
    minus the bound, ZERO_INFIMUM_SUSPECTED (evidence only) otherwise."""
    if not converged:
        return INCONCLUSIVE
    return NEGATIVE_MINIMUM if energy < -bound else ZERO_INFIMUM_SUSPECTED


def _minimize_starts(
    graph: MetricGraph, mu: float, p: float, config: SolverConfig, starts: list[GraphFunction]
) -> list[MinimizationResult]:
    """The run from each of ``starts``, states on one mesh of ``graph``,
    descended together (:func:`_descend`) on the core Mesh that mesh keeps
    (:meth:`Mesh.core_mesh`), with one operator and one factorizer; each
    result is, bit for bit, that of its start alone."""
    core = starts[0].mesh.core_mesh(config.h_max)
    op = EnergyOperator(core, p)
    factor = _shifted_factorizer(core)
    _, counts = core.lead_anchors(graph)
    scales = problem_scales(graph, mu, p)
    runs = [_start(u0, core) for u0 in starts]
    first = [None] * len(runs)
    if p > 4.0:
        # Above p = 4 the untruncated problem keeps a local minimum at
        # u = 0, and a start that holds much of its mass on its leads
        # spreads there at R. On the leads the starts' mesh cuts, the mass
        # can spread no further than the starts hold it: each run descends
        # there first and carries its core values and lead mass on to R.
        first = _descend(op, factor, counts, runs, mu, config, scales[:2] + (starts[0].mesh.r_cut,))
        runs = [(record[0], record[2]) for record in first]
    records = _descend(op, factor, counts, runs, mu, config, scales)
    bound = scales[1]
    n, h = uniform_cells(scales[2], config.h_max)

    results = []
    for before, (u, omega, lead_mass, grad_norm, converged, trace, stage, factorizations) in zip(first, records):
        stages = [stage] if before is None else [before[6], stage]
        if before is not None:
            factorizations += before[7]
        # |u| has the same energy or lower, and the mass form only sees |u|
        values = np.abs(u) if np.any(u < 0.0) else u
        # the report, and the residuals once read, come from the core values
        # and the leads in closed form, with no sum over lead nodes; the
        # energy is then the run's, bit for bit, when its state has one sign
        u_core = GraphFunction(core, values)
        leads = Leads(graph, omega, n, h)
        sums = core_sums(u_core, p)
        report = energy_report(u_core, p, leads, sums=sums)
        results.append(
            MinimizationResult(
                core=u_core,
                leads=leads,
                energy=report.total_energy,
                verdict=_verdict(report.total_energy, converged, bound),
                report=report,
                energy_trace=[row[1] for row in trace],
                trace=trace,
                stages=stages,
                converged=converged,
                iterations=sum(row[1] for row in stages),
                grad_norm=grad_norm,
                mu=mu,
                p=p,
                lead_mass=lead_mass,
                factorizations=factorizations,
                bound=bound,
                core_sums=sums,
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
    """Projected-gradient minimization at the cut :func:`problem_scales`
    derives, the one-start case of :func:`_minimize_starts`.

    The run descends on the core dofs and one lead shift (:func:`_descend`)
    on the core mesh that ``initial``'s mesh keeps (:meth:`Mesh.core_mesh`),
    from ``initial``, a state on any mesh of ``graph`` (ValueError for
    another graph), its core interpolated onto the core mesh and its lead
    mass giving the shift; without it, from the plateau competitor on
    :func:`start_mesh`. When p > 4 it first descends at the cut of
    ``initial``'s mesh, then from there at the derived cut. The result
    holds the state as ``core`` (|u| where it has a negative value) and
    ``leads``; its ``report`` and ``el`` (on first read) come from them
    with no sum over lead nodes, so ``energy`` is the run's last energy
    whenever its state has one sign.
    ``function`` lifts it onto a bounded display of the leads.

    The verdict: NEGATIVE_MINIMUM when the converged run ends below minus
    the rounding bound (``bound``), evidence of existence up to
    discretization error; ZERO_INFIMUM_SUSPECTED when it does not (mass
    escaping along the half-lines; evidence only); INCONCLUSIVE when the
    run did not converge.
    """
    require_p(p)
    require_mu(mu)
    graph.require_valid()
    config = config or SolverConfig()
    if initial is None:
        initial = initializer_competitor(graph, mu, p, start_mesh(graph, config.h_max))
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
    a * :func:`lead_profile` at the shift at which the side, cut at r,
    carries ratio = m / (sides * a^2) per unit a^2, the pin's half cell
    included. The default cut is 12 decay lengths of the side's tail
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
    # bisect for the cut side's shift, bracketed from the untruncated
    # lead's, which carries a relative O(e^(-2 n theta)) more or less
    lo, hi = 0.0, _lead_shift(ratio, h)
    while lead_forms(hi, n, h)[0] > ratio:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if lead_forms(mid, n, h)[0] > ratio else (lo, mid)
    v = a * lead_profile(hi, n, h)
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
    """Run the minimizer from six deterministic starts, all sampled on
    :func:`start_mesh`: the plateau competitor, bump profiles centered at
    three core positions, and plateaus at 1/4 and 3/4 of the largest
    amplitude sqrt(mu / core measure). The six runs descend as one block
    on that mesh's core Mesh, with one operator and one factorizer
    (:func:`_minimize_starts`), and each is, bit for bit, the
    :func:`minimize` of its start. Any stably negative run settles the
    question in favor of existence; unanimous runs that end above minus
    the rounding bound are reported as suspicion of an unattained zero
    infimum, evidence only."""
    require_p(p)
    require_mu(mu)
    graph.require_valid()
    config = config or SolverConfig()
    mesh0 = start_mesh(graph, config.h_max)
    starts = {"competitor": initializer_competitor(graph, mu, p, mesh0)}
    for frac in (0.25, 0.5, 0.75):
        eid, off = _core_position(graph, frac)
        starts[f"soliton@{frac}"] = initializer_soliton(graph, mu, p, mesh0, center_edge=eid, center_offset=off)
    for frac in (0.25, 0.75):
        starts[f"plateau@{frac}"] = _plateau(graph, mu, mesh0, frac * math.sqrt(mu / core_measure(graph)))
    runs = dict(zip(starts, _minimize_starts(graph, mu, p, config, list(starts.values()))))

    # the first start, in order, whose energy ties with the lowest
    e_min = min(r.energy for r in runs.values())
    bound = next(iter(runs.values())).bound
    best_label = next(k for k, r in runs.items() if r.energy <= e_min + bound)
    best = runs[best_label]
    if any(r.verdict == NEGATIVE_MINIMUM for r in runs.values()):
        verdict = NEGATIVE_MINIMUM
    elif all(r.verdict == ZERO_INFIMUM_SUSPECTED for r in runs.values()):
        verdict = ZERO_INFIMUM_SUSPECTED
    else:
        verdict = INCONCLUSIVE
    return DichotomyResult(verdict=verdict, best_label=best_label, best_energy=best.energy, runs=runs)
