"""Reference values computed apart from graphnls.

Nothing here imports the package under test. Ground-state energies come
from shooting on the stationary equation with scipy's adaptive integrator;
thresholds and partition measures come from the paper's closed forms and
from the graph's structure.
"""
from __future__ import annotations

import itertools
import math

from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def _core_half(length: float, p: float, lam: float, u0: float):
    """Integrate u'' = lam u - u^(p-1) from the midpoint (u=u0, u'=0) to the
    vertex at length/2, carrying int u^2, int u'^2 and int u^p along."""

    def rhs(_x, y):
        u, du = y[0], y[1]
        up = abs(u) ** p
        return [du, lam * u - abs(u) ** (p - 2.0) * u, u * u, du * du, up]

    sol = solve_ivp(
        rhs, (0.0, 0.5 * length), [u0, 0.0, 0.0, 0.0, 0.0],
        method="DOP853", rtol=1e-11, atol=1e-13,
    )
    return sol.y[:, -1]


def _matching_amplitude(length: float, p: float, lam: float) -> float:
    """Midpoint amplitude whose profile meets the decaying tail
    a*exp(-sqrt(lam) x) with continuous flux: u' + sqrt(lam) u = 0 at the
    vertex (Kirchhoff with one lead per end)."""
    k = math.sqrt(lam)

    def mismatch(u0: float) -> float:
        y = _core_half(length, p, lam, u0)
        return y[1] + k * y[0]

    # flat-core estimate: u0^(p-2) ~ lam + 2 sqrt(lam)/length
    guess = (lam + 2.0 * k / length) ** (1.0 / (p - 2.0))
    lo, hi = 0.5 * guess, 1.5 * guess
    while mismatch(lo) < 0.0:
        lo *= 0.5
    while mismatch(hi) > 0.0:
        hi *= 1.5
    return brentq(mismatch, lo, hi, xtol=1e-15, rtol=1e-13)


def line_ground_state(length: float, mu: float, p: float) -> tuple[float, float]:
    """(energy, multiplier) of the symmetric bound state on a segment of the
    given length with one half-line at each end, nonlinearity on the
    segment only, mass mu. Solves for the multiplier that gives mass mu."""

    def parts(lam: float):
        u0 = _matching_amplitude(length, p, lam)
        u_end, _du, m_half, k_half, p_half = _core_half(length, p, lam, u0)
        k = math.sqrt(lam)
        mass = 2.0 * m_half + u_end**2 / k
        kinetic = 2.0 * k_half + u_end**2 * k
        energy = 0.5 * kinetic - 2.0 * p_half / p
        return mass, energy

    lo, hi = 1e-4, 1e-2
    while parts(lo)[0] > mu:
        lo *= 0.25
    while parts(hi)[0] < mu:
        hi *= 4.0
    lam = brentq(lambda x: parts(x)[0] - mu, lo, hi, xtol=1e-16, rtol=1e-12)
    return parts(lam)[1], lam


# ---------------------------------------------------------------------------
# closed-form thresholds


def c_p(p: float) -> float:
    base = p * (p - 4.0) / 16.0
    inner = base ** (2.0 / (p - 2.0)) + (p / 8.0) * base ** ((4.0 - p) / (p - 2.0))
    return inner ** ((p - 2.0) / (6.0 - p))


def l1_exist(p: float, mu: float, n: int) -> float:
    if p == 4.0:
        return n * n / (2.0 * mu)
    return c_p(p) * mu ** ((2.0 - p) / (6.0 - p)) * n ** (4.0 / (6.0 - p))


def gn_constants(p: float, dead_end: bool, n: int) -> tuple[float, float]:
    """(C, c) of the interpolation inequalities. c = 1 needs two
    edge-disjoint routes to infinity from every core point; otherwise only
    the single-route pair c = sqrt(2), C = c^(p-2) is known to hold."""
    c = math.sqrt(2.0) if dead_end or n == 1 else 1.0
    return c ** (p - 2.0), c


def l2_nonexist(p: float, mu: float, C: float, c: float) -> float:
    return C ** ((4.0 - p) / (6.0 - p)) * mu ** ((2.0 - p) / (6.0 - p)) * c ** (-p)


# ---------------------------------------------------------------------------
# graph structure


def has_dead_end(vertices, core_edges, anchors) -> bool:
    """True when some core point has a single edge-disjoint route to infinity.

    ``core_edges`` are (tail, head) pairs, ``anchors`` the attachment vertex
    of each half-line. Every half-line becomes an edge to one added vertex at
    infinity; a core point lacks a second route exactly when its core edge is
    a bridge of that augmented multigraph (Tarjan's low-link test).
    """
    inf = object()
    edges = list(core_edges) + [(a, inf) for a in anchors]
    n_core = len(core_edges)
    adj: dict = {v: [] for v in vertices}
    adj[inf] = []
    for k, (a, b) in enumerate(edges):
        adj[a].append((b, k))
        adj[b].append((a, k))
    order: dict = {}
    low: dict = {}
    bridges: set[int] = set()
    root = next(iter(adj))
    order[root] = low[root] = 0
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        v, via, it = stack[-1]
        for w, k in it:
            if k == via:
                continue
            if w in order:
                low[v] = min(low[v], order[w])
            else:
                order[w] = low[w] = len(order)
                stack.append((w, k, iter(adj[w])))
                break
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] > order[parent]:
                    bridges.add(via)
    return any(k < n_core for k in bridges)


def best_partition_measure(core_lengths, n_half_lines: int) -> float:
    """Smallest largest-part core measure over the whole graph and every
    split of the core edges into at most N parts, each part taking at least
    one lead (brute force, desk-scale graphs only). Parts are not required
    to be connected. On a star with a lead at every terminal this is the
    longest arm: every arm is one edge, and one arm per part achieves it;
    that split has connected parts, so the value also holds if parts must
    be connected."""
    whole = math.fsum(core_lengths)
    if n_half_lines < 2:
        return whole
    best = whole
    for assign in itertools.product(range(n_half_lines), repeat=len(core_lengths)):
        loads = [0.0] * n_half_lines
        for length, k in zip(core_lengths, assign):
            loads[k] += length
        best = min(best, max(loads))
    return best
