"""Mass-constrained energy minimization on truncated metric graphs.

The scheme is projected gradient descent on the mass sphere: step along a
descent direction, rescale back to the constraint, accept via an Armijo
test that also demands a strict decrease. Directions are Sobolev
gradients preconditioned by S + sigma*M (Henning & Peterseim), with the
shift sigma the current multiplier estimate, floored at 1/r_cut^2 and
refactored whenever the estimate leaves [sigma/2, 2*sigma]. The
preconditioner then matches the linearized problem on the half-line tails
as well as on the core, which keeps the iteration count independent of
the mesh and of how weakly the state is bound. It is solved in O(n): the
Mesh numbers each edge's inner nodes consecutively after the vertices, so
a tridiagonal Cholesky eliminates them and only the small junction system
on the vertices goes through a sparse LU. That set-up (the stiffness
blocks, taken from the Mesh's edge runs with no sparse matrix assembled,
and the edge-node columns) is made once per mesh and kept as long as the
mesh lives, so every run on the same mesh only refactors for its own
shifts.

Each line search starts at step 1, or longer: after a search that took its
first trial, the next starts at the minimizer of the parabola through the
energy at 0, the slope and the energy at that step, when the parabola
curves upward and its minimizer lies beyond 1. Every stage starts at 1.
The search halves the step while the predicted first-order decrease
t*|slope| is above one ulp of the energy, and no further: below that level
a trial can pass the Armijo test only on rounding noise, so a stage that
has reached its minimum ends after a few trials instead of halving t
down to 1e-16. Each stage records why it stopped and how many trials its
searches rejected (``MinimizationResult.stages``).

Because the half-lines are truncated, every run solves a compact surrogate
problem. The truncation length is therefore swept over an increasing
schedule and the trend of the minimal energy is the computable evidence
for the attained / not-attained dichotomy: a stable negative limit
certifies a true minimizer, energies creeping up to zero indicate mass
escaping to infinity.
"""
from __future__ import annotations

import math
import weakref
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .energy import ELReport, EnergyOperator, EnergyReport, el_residual, energy_report, require_p
from .functions import GraphFunction, Mesh, project_mass
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
        if not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for name in ("grad_tol", "h_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        sched = tuple(float(r) for r in self.r_cut_schedule)
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
    graph.require_valid()
    ell = core_measure(graph)
    n = graph.n_half_lines
    cap = math.sqrt(mu / ell)
    a = 0.5 * cap
    if p > 4.0:
        crit = g_critical_point(ell, mu, n, p)
        if crit.a_opt < cap:
            a = crit.a_opt
    m = (mu - a**2 * ell) / n
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
    graph.require_valid()
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, mesh.n_dofs)
    ia, ib, _ = mesh.cells()
    # each bincount sums in np.add.at's order, so the result is the same
    ends, other = np.concatenate((ia, ib)), np.concatenate((ib, ia))
    deg = np.bincount(ends, minlength=mesh.n_dofs).astype(float)
    for _ in range(_SMOOTHING_PASSES):
        acc = np.bincount(ends, weights=values[other], minlength=mesh.n_dofs)
        values = (values + acc) / (1.0 + deg)
    return project_mass(GraphFunction(mesh, values), mu)


# ---------------------------------------------------------------------------
# descent core


@dataclass
class _StageResult:
    values: np.ndarray
    energy: float
    grad_norm: float
    iterations: int
    converged: bool
    trace: list[tuple[int, float, float, float]]
    # why the stage ended: "gradient" (the gradient test passed),
    # "no_descent" (no descent direction left), "line_search" (no
    # acceptable step) or "max_iters"
    stop: str
    backtracks: int  # rejected line-search trials over the stage


# one factorizer set-up per mesh, dropped with the mesh: the factor
# closures hold the assembled blocks only, never the mesh itself
_FACTORIZERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _shifted_factorizer(mesh: Mesh):
    """Direct solver for S + sigma*diag(M) built on the Mesh numbering,
    set up once per mesh.

    The vertices hold dofs 0..V-1 and every other node lies inside one
    edge, whose nodes are numbered consecutively, so the block on the
    non-vertex nodes is tridiagonal. Returns ``factor(sigma)``, which
    Cholesky-factors that block (LAPACK pttrf), eliminates it from the V
    vertex columns and LU-factors the V x V junction system that is left;
    the ``solve(b)`` it returns is one tridiagonal pass per side around a
    junction solve. Both cost O(n V) rather than a sparse LU of all n nodes.
    """
    factor = _FACTORIZERS.get(mesh)
    if factor is None:
        factor = _FACTORIZERS[mesh] = _build_factorizer(mesh)
    return factor


def _build_factorizer(mesh: Mesh):
    mass_vec = mesh.mass_vector()
    nv = len(mesh.vertex_dof)
    # only the end nodes of each edge touch a vertex: s_ev holds their rows
    s_vv, ends, s_ev, diag_i, off_i = mesh.stiffness_blocks()
    rhs = np.zeros((len(diag_i), nv), order="F")
    rhs[ends] = s_ev
    # the LAPACK wrapper wants a nonempty off-diagonal even for one node
    if len(diag_i) == 1:
        off_i = np.zeros(1)
    mass_v, mass_i = mass_vec[:nv], mass_vec[nv:]

    def factor(sigma: float):
        d, e, info = dpttrf(diag_i + sigma * mass_i, off_i)
        if info != 0:
            raise LinAlgError(
                f"edge block of S + sigma*M is not positive definite (sigma={sigma!r}, info={info})"
            )
        z = dpttrs(d, e, rhs)[0]
        junction = s_vv - s_ev.T @ z[ends]
        junction[np.diag_indices(nv)] += sigma * mass_v
        # through the module-level splu, so the benchmark's lu_factor and
        # lu_solve spans see one factor per refactor, one solve per step
        lu = splu(csc_matrix(junction))

        def solve(b: np.ndarray) -> np.ndarray:
            y = dpttrs(d, e, b[nv:])[0]
            x_v = lu.solve(b[:nv] - s_ev.T @ y[ends])
            return np.concatenate((x_v, y - z @ x_v))

        return solve

    return factor


def _descend(mesh: Mesh, v0: np.ndarray, p: float, mu: float, config: SolverConfig) -> _StageResult:
    op = EnergyOperator(mesh, p)
    mass_vec = op.mass_vec
    # the preconditioner S + sigma*M is shifted by the current multiplier
    # estimate sigma ~ -lam_hat: with a fixed S + M the slow tail modes
    # contract only by about lam/(k^2 + 1), which costs thousands of
    # iterations when lam is small (weakly bound states). 1/r_cut^2 floors
    # the shift so the operator stays positive definite while lam_hat >= 0
    # (random starts, zero-infimum runs); there is no cap. It is refactored
    # only when the estimate leaves [sigma/2, 2*sigma]. Each factorization
    # eliminates the edge nodes by a tridiagonal Cholesky and factors only
    # the small junction system on the vertices (_shifted_factorizer).
    shift_floor = 1.0 / mesh.r_cut**2
    factor = _shifted_factorizer(mesh)
    sigma = 0.0
    solve = None

    def project(v: np.ndarray) -> np.ndarray:
        m = float(np.dot(mass_vec, v * v))
        if m <= 0:
            raise ValueError("cannot project the zero function onto the mass sphere")
        return v * math.sqrt(mu / m)

    v = project(np.asarray(v0, dtype=float))
    energy = op.value(v)
    trace: list[tuple[int, float, float, float]] = []
    window = deque([energy], maxlen=_STALL_WINDOW + 1)
    grad_norm = math.inf
    converged = False
    stop = "max_iters"
    backtracks = 0
    t0 = _STEP0
    it = 0
    for it in range(1, config.max_iters + 1):
        g = op.gradient(v)
        # strip the multiplier component before preconditioning: near a
        # constrained minimum g is dominated by lam*M*u, and preconditioning
        # that part yields directions with vanishing slope
        lam_hat = float(np.dot(g, v)) / mu
        residual = g - lam_hat * (mass_vec * v)
        tangent = residual / mass_vec
        grad_norm = math.sqrt(max(float(np.dot(mass_vec, tangent * tangent)), 0.0))
        # relative to the multiplier term lam*M*u (norm |lam|*sqrt(mu)): a
        # strongly bound state cannot resolve its gradient below rounding
        # of that term, so an absolute grad_tol would never be met there
        tol = config.grad_tol * max(1.0, abs(lam_hat) * math.sqrt(mu))

        stagnant = (
            len(window) > _STALL_WINDOW
            and window[0] - energy < _ENERGY_TOL
        )
        if grad_norm < tol and stagnant:
            converged = True
            stop = "gradient"
            break

        shift = max(-lam_hat, shift_floor)
        if solve is None or not 0.5 * sigma <= shift <= 2.0 * sigma:
            sigma = shift
            solve = factor(sigma)
        d = -solve(residual)
        d -= (float(np.dot(mass_vec, d * v)) / mu) * v
        slope = float(np.dot(g, d))
        if slope >= 0.0:
            # safeguard: fall back to the plain mass-weighted gradient
            d = -tangent
            slope = float(np.dot(g, d))
        if slope >= 0.0:
            converged = grad_norm < tol
            stop = "no_descent"
            break

        t = t0
        accepted = False
        # halve t only while the predicted decrease t*|slope| is above one
        # ulp of the energy: below it a trial passes only on rounding noise,
        # and a stage at its minimum would otherwise spend about 54 failing
        # trials halving t down to the 1e-16 backstop
        rounding = _EPS * abs(energy)
        while t > 1e-16 and t * -slope > rounding:
            w = project(v + t * d)
            e_new = op.value(w)
            # strict decrease too: once the Armijo margin drops below the
            # energy's ulp, an equal energy would pass and the stage would
            # creep on with vanishing steps until max_iters
            if e_new < energy and e_new <= energy + _ARMIJO * t * slope:
                accepted = True
                break
            t *= _BACKTRACK
            backtracks += 1
        if not accepted:
            # line search exhausted: descent direction no longer useful at
            # this precision, treat as converged only if the gradient agrees
            converged = grad_norm < 10.0 * tol
            stop = "line_search"
            break
        # the next search starts at the minimizer of the parabola through
        # E(0), the slope and E(t), never below _STEP0, when this search
        # took its first trial and the parabola curves upward; with step 1
        # alone, weakly bound stages shrink the gradient by only about 0.7
        # per iteration. Otherwise it starts at _STEP0.
        curvature = e_new - energy - t * slope
        if t == t0 and curvature > 0.0:
            t0 = max(_STEP0, -slope * t * t / (2.0 * curvature))
        else:
            t0 = _STEP0
        v = w
        energy = e_new
        trace.append((it, energy, grad_norm, t))
        window.append(energy)
    return _StageResult(
        values=v,
        energy=energy,
        grad_norm=grad_norm,
        iterations=it,
        converged=converged,
        trace=trace,
        stop=stop,
        backtracks=backtracks,
    )


def _transfer(u: GraphFunction, mesh_new: Mesh) -> np.ndarray:
    """Warm start on a longer truncation: interpolate where the old mesh has
    data, extend half-line tails exponentially at the observed decay rate."""
    mesh_old = u.mesh
    values = np.empty(mesh_new.n_dofs)
    for eid, dofs in mesh_new.edge_dofs.items():
        xs = mesh_new.edge_coords[eid]
        edge = mesh_new.graph.edges_by_id[eid]
        if not edge.is_half_line:
            values[dofs] = np.interp(xs, mesh_old.edge_coords[eid], u.values[mesh_old.edge_dofs[eid]])
            continue
        xs_old = mesh_old.edge_coords[eid]
        vals_old = u.values[mesh_old.edge_dofs[eid]]
        r_old = xs_old[-1]
        inside = xs <= r_old
        values[dofs[inside]] = np.interp(xs[inside], xs_old, vals_old)
        if np.any(~inside):
            v_end = vals_old[-1]
            rate = 0.0
            if len(xs_old) >= 2 and vals_old[-2] > abs(v_end) > 0:
                # continue the tail at its observed log-slope
                rate = max(0.0, math.log(vals_old[-2] / abs(v_end)) / (xs_old[-1] - xs_old[-2]))
            values[dofs[~inside]] = v_end * np.exp(-rate * (xs[~inside] - r_old))
    return values


@dataclass
class MinimizationResult:
    function: GraphFunction
    energy: float
    verdict: str
    report: EnergyReport
    el: ELReport
    energy_trace: list[float]
    trace: list[tuple[int, float, float, float]]
    r_cut_table: list[tuple[float, float, int, bool]]  # (r_cut, energy, iterations, converged)
    stages: list[tuple[float, int, int, str]]  # (r_cut, iterations, backtracks, stop)
    converged: bool
    iterations: int
    grad_norm: float
    min_node_value: float
    strictly_positive: bool
    mu: float
    p: float

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


def _check_meshes(graph: MetricGraph, config: SolverConfig, meshes: Sequence[Mesh]) -> None:
    schedule = config.r_cut_schedule
    if len(meshes) != len(schedule):
        raise ValueError(f"expected {len(schedule)} meshes, one per r_cut of the schedule, got {len(meshes)}")
    for mesh, r_cut in zip(meshes, schedule):
        if mesh.graph != graph:
            raise ValueError("a stage mesh is built on a different graph")
        if mesh.h_max != config.h_max or mesh.r_cut != r_cut:
            raise ValueError(
                f"stage mesh has h_max={mesh.h_max!r}, r_cut={mesh.r_cut!r}; "
                f"the config needs h_max={config.h_max!r}, r_cut={r_cut!r}"
            )


def minimize(
    graph: MetricGraph,
    mu: float,
    p: float,
    config: SolverConfig | None = None,
    initial: GraphFunction | None = None,
    *,
    meshes: Sequence[Mesh] | None = None,
) -> MinimizationResult:
    """Projected-gradient minimization over an increasing truncation
    schedule, warm starting each stage from the previous one.

    The first stage starts from ``initial``, transferred onto its mesh
    (exactly, when ``initial`` lives on an equal mesh). Without one it
    starts from the plateau competitor on the first stage's mesh; other
    starts come from the ``initializer_*`` functions.

    ``meshes`` supplies the stage meshes, one per ``r_cut`` of the
    schedule, so that several runs share them and their preconditioner
    set-up; each must be built on ``graph`` with the config's ``h_max``
    and its stage's ``r_cut`` (ValueError otherwise). Without it every
    stage builds its own mesh.

    The verdict encodes the truncation trend: NEGATIVE_MINIMUM for a stable
    strictly negative limit (evidence of existence, up to truncation and
    discretization error), ZERO_INFIMUM_SUSPECTED when energies rise
    monotonically to zero (mass escaping along the half-lines; evidence
    only), INCONCLUSIVE otherwise.
    """
    require_p(p)
    if mu <= 0:
        raise ValueError("mu must be positive")
    graph.require_valid()
    config = config or SolverConfig()
    if meshes is not None:
        _check_meshes(graph, config, meshes)

    table: list[tuple[float, float, int, bool]] = []
    stages: list[tuple[float, int, int, str]] = []
    u_prev: GraphFunction | None = initial
    last_stage: _StageResult | None = None
    for k, r_cut in enumerate(config.r_cut_schedule):
        mesh = Mesh(graph, h_max=config.h_max, r_cut=r_cut) if meshes is None else meshes[k]
        if u_prev is None:
            v0 = initializer_competitor(graph, mu, p, mesh).values
        else:
            v0 = _transfer(u_prev, mesh)
        stage = _descend(mesh, v0, p, mu, config)
        u_prev = GraphFunction(mesh, stage.values)
        table.append((r_cut, stage.energy, stage.iterations, stage.converged))
        stages.append((r_cut, stage.iterations, stage.backtracks, stage.stop))
        last_stage = stage
    assert last_stage is not None and u_prev is not None

    values = u_prev.values
    if np.any(values < 0.0):
        # same energy or lower, and the mass form only sees |u|
        values = np.abs(values)
    u_final = GraphFunction(u_prev.mesh, values)
    report = energy_report(u_final, p)
    el = el_residual(u_final, p)
    min_node = float(values.min())
    return MinimizationResult(
        function=u_final,
        energy=last_stage.energy,
        verdict=_verdict(table, _ENERGY_TOL),
        report=report,
        el=el,
        energy_trace=[row[1] for row in last_stage.trace],
        trace=last_stage.trace,
        r_cut_table=table,
        stages=stages,
        converged=last_stage.converged,
        iterations=sum(row[2] for row in table),
        grad_norm=last_stage.grad_norm,
        min_node_value=min_node,
        strictly_positive=min_node > 0.0,
        mu=mu,
        p=p,
    )


# ---------------------------------------------------------------------------
# Dirichlet benchmark on a (half-)line


def dirichlet_line_min(
    m: float,
    a: float,
    config: SolverConfig | None = None,
    half_line: bool = False,
    r_cut: float | None = None,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Minimal Dirichlet integral over P1 functions on a truncated line (or
    half-line) with prescribed trapezoid mass m and pinned value a at the
    origin. Exact values: a^4/m on the line, a^4/(4m) on the half-line.

    A direct constrained solve: by symmetry one side suffices, whose free
    nodes solve (S_ff + lam W_ff) v_f = -S_fp a for a multiplier lam > 0,
    set by bisection on the mass, which falls monotonically in lam. Only
    ``config.h_max`` is used.

    Returns (minimal value, (grid, minimizer values)).
    """
    if m <= 0 or a <= 0:
        raise ValueError("m and a must be positive")
    config = config or SolverConfig()
    decay = m / a**2
    r = r_cut if r_cut is not None else max(10.0, 12.0 * decay)
    h = min(config.h_max, r / 50.0)
    n_side = int(math.ceil(r / h))
    h = r / n_side
    pin_weight = h / 2.0 if half_line else h
    if pin_weight * a**2 >= m:
        raise ValueError("infeasible: pinned node already exhausts the mass")
    # mass each side carries once the pinned node's trapezoid share is paid
    side_mass = (m - pin_weight * a**2) / (1 if half_line else 2)
    weights = np.full(n_side, h)
    weights[-1] = h / 2.0
    stiff_diag = np.full(n_side, 2.0 / h)
    stiff_diag[-1] = 1.0 / h  # natural far end
    band = np.full((3, n_side), -1.0 / h)
    rhs = np.zeros(n_side)
    rhs[0] = a / h

    def side(lam: float) -> np.ndarray:
        band[1] = stiff_diag + lam * weights
        return solve_banded((1, 1), band, rhs)

    def excess(lam: float) -> float:
        v = side(lam)
        return float(np.dot(weights, v * v)) - side_mass

    # at lam = 0 the side is the constant a
    if excess(0.0) <= 0.0:
        raise ValueError("truncation too short: the constant a carries no more than mass m")
    # bisection to floating-point resolution; scipy.optimize would slow imports
    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        lo, hi = hi, 4.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    v = side(hi)
    # the tridiagonal solve's rounding leaves the mass inexact; rescale
    v *= math.sqrt(side_mass / float(np.dot(weights, v * v)))
    if half_line:
        xs = np.linspace(0.0, r, n_side + 1)
        v = np.concatenate(([a], v))
    else:
        xs = np.linspace(-r, r, 2 * n_side + 1)
        v = np.concatenate((v[::-1], [a], v))
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


def existence_dichotomy(
    graph: MetricGraph, mu: float, p: float, config: SolverConfig | None = None, *, seed: int = 0
) -> DichotomyResult:
    """Run the minimizer from a spread of starting points, all sampled on
    the first stage's mesh: the plateau competitor, bump profiles centered
    at three core positions, and random starts seeded seed+1..seed+3. The
    runs share the stage meshes and their preconditioner set-up. Any
    stably negative run settles the question in favor of existence;
    unanimous zero-trending runs are reported as suspicion of an
    unattained zero infimum."""
    require_p(p)
    graph.require_valid()
    config = config or SolverConfig()
    meshes = [Mesh(graph, h_max=config.h_max, r_cut=r) for r in config.r_cut_schedule]
    mesh0 = meshes[0]
    starts = {"competitor": initializer_competitor(graph, mu, p, mesh0)}
    for frac in (0.25, 0.5, 0.75):
        eid, off = _core_position(graph, frac)
        starts[f"soliton@{frac}"] = initializer_soliton(graph, mu, p, mesh0, center_edge=eid, center_offset=off)
    for k in range(1, 4):
        starts[f"random{k}"] = initializer_random(graph, mu, p, mesh0, seed=seed + k)
    runs = {label: minimize(graph, mu, p, config, initial=u0, meshes=meshes) for label, u0 in starts.items()}

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
