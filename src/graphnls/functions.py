"""Piecewise-linear functions on meshed metric graphs.

Every bounded edge is meshed uniformly with spacing at most ``h_max``; each
half-line is truncated at ``r_cut`` and meshed the same way, with a free
(natural) far endpoint. Node values at shared vertices are stored once, so a
GraphFunction is continuous across junctions by construction.

Quadrature conventions: trapezoid for the L2 pairing, per-cell Simpson for
|u|^p, and the exact per-cell stencil for the kinetic term (which is exact
for piecewise-linear functions). An exact closed-form integral of |u|^r is
also provided; the rearrangement checks rely on it because equimeasurability
is an identity of the interpolant itself, not of any sampling rule.

Every form is computed on the Mesh's cells, one pass of gathers over the
endpoint values: the Dirichlet integral, the mass and the |u|^p integrals;
``Mesh.stiffness_matrix`` assembles the kinetic form from the same cells
as a CSC matrix, and ``Mesh.stiffness_band`` lays it out in reverse
Cuthill-McKee order as the band whose shifted copy the solver's
preconditioner factors, each once per mesh. The solver descends on a Mesh
of the core subgraph alone, whose numbering does not depend on the truncation: ``Mesh.core_mesh`` of
its start's mesh, built once and kept, so that runs from starts on one
mesh share it and its forms. ``Mesh.lead_anchors`` gives the core dofs
that anchor the leads, and ``uniform_cells`` each truncation's lead grid,
the rule every edge of a Mesh is meshed by.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .graphs import MetricGraph

__all__ = [
    "Mesh",
    "uniform_cells",
    "GraphFunction",
    "LineProfile",
    "l2_norm_sq",
    "kinetic_energy",
    "lp_integral",
    "lp_norm_core",
    "linf_norm",
    "project_mass",
    "abs_power_integral",
    "decreasing_rearrangement",
    "interpolate",
    "save_function",
    "load_function",
]


def require_positive(value: float, name: str) -> None:
    """ValueError unless ``value`` is a finite positive number: NaN passes
    no comparison, infinity passes > 0 and a bool passes it as 1.0."""
    if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def uniform_cells(length: float, h_max: float) -> tuple[int, float]:
    """Cell count and width of the uniform mesh of an edge of ``length``
    with spacing at most ``h_max``: the rule of every edge of a
    :class:`Mesh`, a truncated lead's length being its ``r_cut``."""
    cells = max(1, int(math.ceil(length / h_max - 1e-9)))
    return cells, length / cells


class Mesh:
    """Uniform P1 mesh over a metric graph.

    Numbering: the vertices take dofs ``0..V-1`` in sorted order; every
    other node lies inside one edge (a half-line's free end included), and
    each edge's nodes are numbered consecutively, edge after edge. The
    cells are kept once, as endpoint dofs, widths and a core flag, and
    every form is computed from them.

    Parameters
    ----------
    graph:
        The metric graph; it is kept by reference and not revalidated, so
        diagnostic meshes over structurally invalid graphs are possible.
    h_max:
        Upper bound on the node spacing of every edge.
    r_cut:
        Truncation length for each half-line.
    """

    def __init__(self, graph: MetricGraph, h_max: float = 0.05, r_cut: float = 20.0):
        # an infinite cut overflows the cell count, an infinite spacing
        # gives one cell per edge
        for name, value in (("h_max", h_max), ("r_cut", r_cut)):
            require_positive(value, name)
        self.graph = graph
        self.h_max = float(h_max)
        self.r_cut = float(r_cut)

        vertex_dof = {v: i for i, v in enumerate(sorted(graph.vertex_ids))}
        nv = next_dof = len(vertex_dof)
        edge_dofs: dict[str, np.ndarray] = {}
        edge_coords: dict[str, np.ndarray] = {}
        edge_h: dict[str, float] = {}
        ia, ib, hh, core = [], [], [], []
        for e in sorted(graph.edges, key=lambda e: e.id):
            length = e.length if e.in_core else self.r_cut
            cells, h = uniform_cells(length, self.h_max)
            dofs = np.empty(cells + 1, dtype=np.int64)
            dofs[0] = vertex_dof[e.tail]
            dofs[1:-1] = np.arange(next_dof, next_dof + cells - 1, dtype=np.int64)
            next_dof += cells - 1
            if e.head is None:
                dofs[-1] = next_dof  # free endpoint of the truncated lead
                next_dof += 1
            else:
                dofs[-1] = vertex_dof[e.head]
            edge_dofs[e.id] = dofs
            edge_coords[e.id] = np.linspace(0.0, length, cells + 1)
            edge_h[e.id] = h
            ia.append(dofs[:-1])
            ib.append(dofs[1:])
            hh.append(np.full(cells, h))
            core.append(np.full(cells, e.in_core))

        self.vertex_dof = vertex_dof
        self.edge_dofs = edge_dofs
        self.edge_coords = edge_coords
        self.edge_h = edge_h
        self.n_vertices = nv
        self.n_dofs = next_dof
        self._cell_a = np.concatenate(ia)
        self._cell_b = np.concatenate(ib)
        self._cell_h = np.concatenate(hh)
        self.cell_core = np.concatenate(core)  # whether each cell lies on a core edge
        self._mass = None
        self._stiffness = None
        self._band = None
        self._cores: dict[float, Mesh] = {}

    def cells(self, core_only: bool = False):
        """Cell endpoint dof indices and widths ``(ia, ib, h)``."""
        if core_only:
            m = self.cell_core
            return self._cell_a[m], self._cell_b[m], self._cell_h[m]
        return self._cell_a, self._cell_b, self._cell_h

    def core_mesh(self, h_max: float) -> Mesh:
        """The Mesh of the graph's core (:attr:`MetricGraph.core`) at
        spacing ``h_max``, built on first use and kept, so that the solver
        runs from starts on this Mesh share it and its assembled forms."""
        core = self._cores.get(h_max)
        if core is None:
            core = self._cores[h_max] = Mesh(self.graph.core, h_max)
        return core

    def lead_anchors(self, graph: MetricGraph) -> tuple[np.ndarray, np.ndarray]:
        """On this Mesh of the core of ``graph`` (ValueError for a mesh of
        another graph), the anchor dof of each half-line of ``graph``, in
        its order, and the number of half-lines at each vertex dof."""
        if self.graph != graph.core:
            raise ValueError("closed-form leads need a function on a mesh of their graph's core")
        dofs = np.array([self.vertex_dof[e.tail] for e in graph.half_lines], dtype=np.intp)
        return dofs, np.bincount(dofs, minlength=self.n_vertices).astype(float)

    def mass_vector(self) -> np.ndarray:
        """Lumped (trapezoid) mass weights per dof."""
        if self._mass is None:
            ia, ib, h = self.cells()
            # one bincount in add.at's order: bit-identical to it, faster
            self._mass = np.bincount(
                np.concatenate((ia, ib)), weights=np.concatenate((h, h)) / 2.0, minlength=self.n_dofs
            )
            self._mass.flags.writeable = False  # shared by every form and run on this mesh
        return self._mass

    def stiffness_matrix(self) -> sp.csc_matrix:
        """Assembled P1 stiffness matrix S, from the same cells as
        :func:`kinetic_energy`: u.S.u equals the exact Dirichlet integral of
        the interpolant. CSC with sorted rows and a stored diagonal entry
        for every dof, built once per mesh; :meth:`stiffness_band` lays it
        out for the solver's banded LU."""
        if self._stiffness is None:
            n = self.n_dofs
            # a one-cell self-loop joins a vertex to itself and adds nothing
            link = self._cell_a != self._cell_b
            ia, ib = self._cell_a[link], self._cell_b[link]
            w = 1.0 / self._cell_h[link]
            dofs = np.arange(n)
            diag = np.bincount(np.concatenate((ia, ib)), weights=np.concatenate((w, w)), minlength=n)
            rows = np.concatenate((dofs, ia, ib))
            cols = np.concatenate((dofs, ib, ia))
            # column-major keys: sorted, they give CSC order with sorted
            # rows; parallel one-cell edges share a key and are summed
            keys, where = np.unique(cols * n + rows, return_inverse=True)
            data = np.bincount(where, weights=np.concatenate((diag, -w, -w)))
            indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=n))))
            self._stiffness = sp.csc_matrix(
                (data, (keys % n).astype(np.intc), indptr.astype(np.intc)), shape=(n, n)
            )
        return self._stiffness

    def stiffness_band(self) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """``(order, inverse, kd, band)``: S in the reverse Cuthill-McKee
        order of the dofs (``order[k]`` the dof at place k, ``inverse`` its
        inverse), whose half-bandwidth is ``kd``, in LAPACK's band layout
        for an LU with kd sub- and superdiagonals: the Fortran-ordered
        ``band`` of shape (3 kd + 1, n_dofs) holds S[order[i], order[j]] at
        ``band[2 kd + i - j, j]``, its first kd rows zero for the LU's fill.
        Built once per mesh, read-only; the solver factors
        ``S + diag(sigma*M + shift)`` by writing only row 2 kd, the
        diagonal, of a copy."""
        if self._band is None:
            s = self.stiffness_matrix()
            n = self.n_dofs
            # RCM keeps each edge's chain of nodes adjacent: the band is 1
            # or 2 on the demo graphs, wider only at a vertex of high degree
            order = reverse_cuthill_mckee(s, symmetric_mode=True).astype(np.intp)
            inverse = np.empty_like(order)
            inverse[order] = np.arange(n)
            rows = inverse[s.indices]
            cols = inverse[np.repeat(np.arange(n), np.diff(s.indptr))]
            kd = int(np.abs(rows - cols).max())
            band = np.zeros((3 * kd + 1, n), order="F")
            band[2 * kd + rows - cols, cols] = s.data
            for a in (order, inverse, band):
                a.flags.writeable = False  # shared by every factor on this mesh
            self._band = (order, inverse, kd, band)
        return self._band

    @property
    def mesh_hash(self) -> str:
        parts = [f"r_cut={self.r_cut!r}"]
        for eid in sorted(self.edge_dofs):
            parts.append(f"{eid}:{len(self.edge_dofs[eid])}:{self.edge_h[eid]!r}")
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]

    def evaluate(self, values: np.ndarray, edge_id: str, x) -> np.ndarray:
        """Evaluate the interpolant of ``values`` on one edge at local
        coordinates ``x`` (clipped to the meshed range)."""
        coords = self.edge_coords[edge_id]
        v = values[self.edge_dofs[edge_id]]
        x = np.clip(np.asarray(x, dtype=float), coords[0], coords[-1])
        return np.interp(x, coords, v)


@dataclass
class GraphFunction:
    """Nodal values of a continuous piecewise-linear function on a Mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.mesh.n_dofs,):
            raise ValueError(
                f"expected {self.mesh.n_dofs} nodal values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("nodal values must be finite")
        self.values = v

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "GraphFunction":
        return cls(mesh, np.full(mesh.n_dofs, float(value)))

    def with_values(self, values: np.ndarray) -> "GraphFunction":
        return GraphFunction(self.mesh, values)

    def __add__(self, other: "GraphFunction") -> "GraphFunction":
        return GraphFunction(self.mesh, self.values + other.values)

    def __sub__(self, other: "GraphFunction") -> "GraphFunction":
        return GraphFunction(self.mesh, self.values - other.values)

    def __mul__(self, scalar: float) -> "GraphFunction":
        return GraphFunction(self.mesh, self.values * float(scalar))

    __rmul__ = __mul__

    def __abs__(self) -> "GraphFunction":
        return GraphFunction(self.mesh, np.abs(self.values))


def _abs_pow(x: np.ndarray, p: float) -> np.ndarray:
    return np.abs(x) ** p


def l2_norm_sq(u: GraphFunction, core_only: bool = False) -> float:
    """Trapezoid integral of u^2 (over the core only if asked)."""
    ia, ib, h = u.mesh.cells(core_only)
    v = u.values
    return float(np.dot(h, v[ia] ** 2 + v[ib] ** 2) / 2.0)


def neighbor_average(mesh: Mesh, values: np.ndarray, passes: int) -> np.ndarray:
    """``passes`` rounds of replacing every nodal value by the mean of
    itself and its neighbours across the mesh's cells."""
    ia, ib, _ = mesh.cells()
    # each bincount sums a node's neighbours in cell order, as np.add.at does
    ends, other = np.concatenate((ia, ib)), np.concatenate((ib, ia))
    deg = np.bincount(ends, minlength=mesh.n_dofs).astype(float)
    for _ in range(passes):
        acc = np.bincount(ends, weights=values[other], minlength=mesh.n_dofs)
        values = (values + acc) / (1.0 + deg)
    return values


def kinetic_energy(u: GraphFunction) -> float:
    """Exact Dirichlet integral of the interpolant (no 1/2 factor), summed
    over the cells."""
    ia, ib, h = u.mesh.cells()
    d = u.values[ib] - u.values[ia]
    # divided by the width: a stored 1/h rounds too far off (README)
    return float(np.dot(d, d / h))


def _dots(a: np.ndarray, b: np.ndarray):
    """``a.dot(b)`` over the last axis: a float for two vectors, else one dot
    per row of the broadcast (k, m) block, as a (k, 1) column. Each row is
    summed by the vector dot (BLAS ddot) of that row alone, which matmul
    calls for a row times a column: every row equals its own 1-D dot bit
    for bit, at any thread count, where a (k, m) gemv or einsum would sum
    in another order. Rows must have unit stride (``V.take(idx, axis=1)``,
    not ``V[:, idx]``, which is F-ordered). With ``b`` a vector, ``a`` must
    be one too."""
    if b.ndim == 1:
        return float(a.dot(b))
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


def _simpson(fa: np.ndarray, fm: np.ndarray, fb: np.ndarray, w: np.ndarray):
    """Simpson sum of an integrand at each cell's ends (fa, fb) and midpoint
    (fm), w = h/6: a float, or a column of one per row of a block
    (:func:`_dots`)."""
    return _dots(w, fa + 4.0 * fm + fb)


def _simpson_abs_pow(a: np.ndarray, b: np.ndarray, h: np.ndarray, p: float) -> float:
    """Per-cell Simpson integral of |u|^p over cells with endpoint values a, b."""
    return _simpson(_abs_pow(a, p), _abs_pow(0.5 * (a + b), p), _abs_pow(b, p), h / 6.0)


def lp_integral(u: GraphFunction, p: float, core_only: bool = True) -> float:
    """Per-cell Simpson integral of |u|^p."""
    if not p > 0:
        raise ValueError("p must be positive")
    ia, ib, h = u.mesh.cells(core_only)
    return _simpson_abs_pow(u.values[ia], u.values[ib], h, p)


def lp_norm_core(u: GraphFunction, p: float) -> float:
    return lp_integral(u, p, core_only=True) ** (1.0 / p)


def linf_norm(u: GraphFunction) -> float:
    return float(np.max(np.abs(u.values)))


def project_mass(u: GraphFunction, mu: float) -> GraphFunction:
    """Rescale to squared L2 norm ``mu``."""
    require_positive(mu, "mu")
    m = l2_norm_sq(u)
    if m <= 0.0:
        raise ValueError("cannot project the zero function onto a mass sphere")
    return u * math.sqrt(mu / m)


def _exact_abs_power_cells(a, b, h, r: float) -> float:
    """Exact integral of |linear|^r over cells with endpoint values a, b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = np.asarray(h, dtype=float)
    aa, ab = np.abs(a), np.abs(b)
    flat = a == b
    opposite = (a * b) < 0
    denom_same = np.where(flat, 1.0, np.abs(b - a))
    # same-sign cells (including a zero endpoint): h |B^{r+1}-A^{r+1}| / ((r+1)|B-A|)
    same = h * np.abs(_abs_pow(ab, r + 1) - _abs_pow(aa, r + 1)) / ((r + 1) * denom_same)
    # opposite-sign cells split at the zero crossing
    denom_opp = np.where(opposite, aa + ab, 1.0)
    opp = h * (_abs_pow(aa, r + 1) + _abs_pow(ab, r + 1)) / ((r + 1) * denom_opp)
    flat_val = h * _abs_pow(aa, r)
    out = np.where(flat, flat_val, np.where(opposite, opp, same))
    return float(out.sum())


def abs_power_integral(u: GraphFunction, r: float, core_only: bool = False) -> float:
    """Exact integral of |u|^r over the meshed graph (closed form per cell)."""
    if not r > 0:
        raise ValueError("r must be positive")
    ia, ib, h = u.mesh.cells(core_only)
    return _exact_abs_power_cells(u.values[ia], u.values[ib], h, r)


# ---------------------------------------------------------------------------
# decreasing rearrangement onto the half-line


@dataclass
class LineProfile:
    """Nonincreasing piecewise-linear profile on [0, total measure]."""

    xs: np.ndarray
    values: np.ndarray

    def measure(self) -> float:
        return float(self.xs[-1])

    def kinetic_energy(self) -> float:
        dx = np.diff(self.xs)
        dv = np.diff(self.values)
        keep = dx > 0
        return float(np.sum(dv[keep] ** 2 / dx[keep]))

    def abs_power_integral(self, r: float) -> float:
        dx = np.diff(self.xs)
        keep = dx > 0
        return _exact_abs_power_cells(
            self.values[:-1][keep], self.values[1:][keep], dx[keep], r
        )

    def is_nonincreasing(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.diff(self.values) <= tol))


def _distribution(levels: np.ndarray, lo, hi, h, strict: bool):
    """meas{u > t} (strict) or meas{u >= t} at each level, evaluated on the
    interpolant cell by cell. Chunked to bound the levels x cells workspace."""
    out = np.empty(len(levels))
    flat = lo == hi
    f_h, f_c = h[flat], lo[flat]
    s_h, s_lo, s_hi = h[~flat], lo[~flat], hi[~flat]
    span = s_hi - s_lo
    block = max(1, int(4e6 // max(1, len(lo))))
    for start in range(0, len(levels), block):
        t = levels[start : start + block, None]
        part = np.clip((s_hi[None, :] - t) / span[None, :], 0.0, 1.0) @ s_h
        if strict:
            part += (f_c[None, :] > t) @ f_h
        else:
            part += (f_c[None, :] >= t) @ f_h
        out[start : start + block] = part
    return out


def decreasing_rearrangement(u: GraphFunction) -> LineProfile:
    """Decreasing rearrangement of a nonnegative function onto [0, meas].

    Level-set lengths are measured on the piecewise-linear interpolant, so
    the profile is the exact rearrangement of the discrete function: it is
    equimeasurable with u (same exact integrals of every power) and its
    Dirichlet integral never exceeds that of u.
    """
    if np.any(u.values < 0):
        raise ValueError("decreasing_rearrangement needs u >= 0; rearrange abs(u)")
    ia, ib, h = u.mesh.cells()
    a = u.values[ia]
    b = u.values[ib]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    total = float(h.sum())

    levels = np.unique(np.concatenate([[0.0], lo, hi]))
    rho = _distribution(levels, lo, hi, h, strict=True)
    rho_left = _distribution(levels, lo, hi, h, strict=False)

    pts_x: list[float] = []
    pts_v: list[float] = []
    for k in range(len(levels) - 1, -1, -1):
        t = float(levels[k])
        x = float(rho[k])
        if not pts_x or x > pts_x[-1] + 1e-14 * max(1.0, total):
            pts_x.append(x)
            pts_v.append(t)
        xl = float(rho_left[k])
        if xl > pts_x[-1] + 1e-14 * max(1.0, total):
            pts_x.append(xl)  # plateau produced by a flat stretch of u
            pts_v.append(t)
    if pts_x[0] > 0.0:
        pts_x.insert(0, 0.0)
        pts_v.insert(0, pts_v[0])
    xs = np.asarray(pts_x)
    vals = np.maximum(np.asarray(pts_v), 0.0)
    # guard against roundoff in the accumulated measures
    xs = np.maximum.accumulate(xs)
    return LineProfile(xs, vals)


# ---------------------------------------------------------------------------
# interpolation of closed-form profiles


def interpolate(
    mesh: Mesh,
    profile: Callable,
    placement: Mapping[str, Callable],
) -> GraphFunction:
    """Sample ``profile(placement[edge](x))`` at every mesh node.

    ``placement`` maps each edge id to a coordinate chart (a callable on
    local coordinates). Charts must agree where edges meet: if two edges
    produce values differing by more than 1e-9 at a shared vertex, the
    placement is rejected as discontinuous.
    """
    values = np.full(mesh.n_dofs, np.nan)
    conflicts: list[str] = []
    for eid in sorted(mesh.edge_dofs):
        try:
            chart = placement[eid]
        except KeyError:
            raise ValueError(f"placement does not cover edge {eid!r}") from None
        v = np.asarray(profile(chart(mesh.edge_coords[eid])), dtype=float)
        dofs = mesh.edge_dofs[eid]
        prev = values[dofs]
        clash = ~np.isnan(prev) & (np.abs(prev - v) > 1e-9)
        if np.any(clash):
            conflicts.append(eid)
        keep = np.isnan(prev)
        values[dofs[keep]] = v[keep]
    if conflicts:
        raise ValueError(
            "discontinuous placement: edges "
            + ", ".join(conflicts)
            + " disagree with a neighbour at a shared vertex"
        )
    return GraphFunction(mesh, values)


# ---------------------------------------------------------------------------
# CSV serialization
#
# One row per (edge, local node); shared vertices therefore appear once per
# incident edge and must agree on reload.


def save_function(u: GraphFunction, path) -> None:
    mesh = u.mesh
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# mesh_hash={mesh.mesh_hash} schema_version=1\n")
        fh.write("edge_id,local_coordinate,value\n")
        for eid in sorted(mesh.edge_dofs):
            coords = mesh.edge_coords[eid]
            vals = u.values[mesh.edge_dofs[eid]]
            for x, v in zip(coords, vals):
                fh.write(f"{eid},{float(x)!r},{float(v)!r}\n")


def load_function(path, mesh: Mesh) -> GraphFunction:
    values = np.full(mesh.n_dofs, np.nan)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if "mesh_hash=" not in header:
            raise ValueError("missing mesh hash header")
        stored = header.split("mesh_hash=")[1].split()[0]
        if stored != mesh.mesh_hash:
            raise ValueError(
                f"mesh hash mismatch: file has {stored}, mesh is {mesh.mesh_hash}"
            )
        colnames = fh.readline().strip()
        if colnames != "edge_id,local_coordinate,value":
            raise ValueError(f"unexpected columns {colnames!r}")
        per_edge: dict[str, list[tuple[float, float]]] = {}
        for line in fh:
            line = line.strip()
            if not line:
                continue
            eid, xs, vs = line.split(",")
            per_edge.setdefault(eid, []).append((float(xs), float(vs)))
    for eid, dofs in mesh.edge_dofs.items():
        rows = per_edge.get(eid)
        if rows is None or len(rows) != len(dofs):
            raise ValueError(f"edge {eid!r} has wrong node count in file")
        rows.sort(key=lambda t: t[0])
        vals = np.array([v for _, v in rows])
        prev = values[dofs]
        known = ~np.isnan(prev)
        if np.any(np.abs(prev[known] - vals[known]) > 1e-12):
            raise ValueError(f"edge {eid!r} disagrees at a shared vertex")
        values[dofs] = vals
    return GraphFunction(mesh, values)
