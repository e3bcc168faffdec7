"""Metric graphs with a compact core and unbounded half-line leads.

A graph here is a metric multigraph: finitely many vertices, finitely many
bounded edges of positive length (the compact core), and at least one
half-line lead attached to a core vertex. Parallel edges and self-loops are
allowed. Half-lines keep only their finite anchor; the endpoint at infinity
is implicit and never appears in the vertex list.

Graphs are immutable. Construction is permissive; structural rules are
reported by :func:`validate` rather than raised, so that a caller can
collect every violation at once.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

INFINITE = math.inf


class GraphFormatError(ValueError):
    """Raised by the text-format parser on malformed input."""


class InvalidGraphError(ValueError):
    """Raised when an operation requires a structurally valid graph."""


@dataclass(frozen=True)
class Edge:
    """One edge of a metric graph.

    Bounded edges have a positive finite ``length`` and ``in_core=True``.
    Half-lines have ``length=inf``, ``in_core=False`` and ``head=None``
    (the implicit vertex at infinity).
    """

    id: str
    tail: str
    head: str | None
    length: float
    in_core: bool

    @property
    def is_half_line(self) -> bool:
        return self.head is None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class MetricGraph:
    vertex_ids: tuple[str, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def edges_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def core_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.in_core)

    @cached_property
    def half_lines(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if not e.in_core)

    @cached_property
    def core(self) -> MetricGraph:
        """The compact core subgraph: every vertex, the core edges alone."""
        return MetricGraph(self.vertex_ids, self.core_edges)

    @property
    def n_half_lines(self) -> int:
        return len(self.half_lines)

    @cached_property
    def validation(self) -> ValidationReport:
        return validate(self)

    def require_valid(self) -> None:
        if not self.validation.ok:
            raise InvalidGraphError(
                "invalid graph: " + "; ".join(self.validation.violations)
            )


def metric_graph(
    vertices: Iterable[str],
    core_edges: Iterable[tuple[str, str, str, float]] = (),
    half_lines: Iterable[tuple[str, str]] = (),
) -> MetricGraph:
    """Assemble a MetricGraph from plain tuples.

    ``core_edges`` rows are ``(edge_id, tail, head, length)``; ``half_lines``
    rows are ``(edge_id, anchor_vertex)``. No validation is performed here.
    """
    edges = [
        Edge(str(eid), str(a), str(b), float(length), True)
        for eid, a, b, length in core_edges
    ]
    edges += [
        Edge(str(eid), str(anchor), None, INFINITE, False)
        for eid, anchor in half_lines
    ]
    return MetricGraph(tuple(str(v) for v in vertices), tuple(edges))


def validate(graph: MetricGraph) -> ValidationReport:
    """Collect every structural violation of the core-plus-leads rules.

    Checks: unique ids, declared endpoints, positive finite core lengths,
    the core-membership/finiteness agreement, a nontrivial connected core,
    at least one half-line, every half-line anchored on the core, and
    overall connectedness of the finite part.
    """
    bad: list[str] = []
    vset = set(graph.vertex_ids)
    if len(vset) != len(graph.vertex_ids):
        bad.append("duplicate vertex ids")
    seen_edges: set[str] = set()
    for e in graph.edges:
        if e.id in seen_edges:
            bad.append(f"duplicate edge id {e.id!r}")
        seen_edges.add(e.id)
        if e.tail not in vset:
            bad.append(f"edge {e.id!r} references undeclared vertex {e.tail!r}")
        if e.head is not None and e.head not in vset:
            bad.append(f"edge {e.id!r} references undeclared vertex {e.head!r}")
        if e.in_core:
            if not (math.isfinite(e.length) and e.length > 0):
                bad.append(f"core edge {e.id!r} must have positive finite length")
            if e.head is None:
                bad.append(f"core edge {e.id!r} lacks a second endpoint")
        else:
            if math.isfinite(e.length):
                bad.append(f"half-line {e.id!r} must have infinite length")
            if e.head is not None:
                bad.append(f"half-line {e.id!r} must leave its far endpoint implicit")

    core = [e for e in graph.edges if e.in_core and e.head is not None]
    if not core:
        bad.append("core is trivial: no bounded edges")

    if graph.n_half_lines < 1:
        bad.append("N >= 1 required: graph has no half-lines")

    core_vertices = set()
    for e in core:
        core_vertices.add(e.tail)
        core_vertices.add(e.head)
    for e in graph.edges:
        if not e.in_core and e.tail in vset and core_vertices and e.tail not in core_vertices:
            bad.append(f"half-line {e.id!r} is not anchored on the core")

    # Connectivity of the finite part through bounded edges only.
    if core and not bad:
        parent = {v: v for v in vset}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in core:
            ra, rb = find(e.tail), find(e.head)
            if ra != rb:
                parent[ra] = rb
        roots = {find(v) for v in vset}
        if len(roots) > 1:
            bad.append("graph is disconnected: core does not reach every vertex")

    return ValidationReport(tuple(bad))


def core_measure(graph: MetricGraph) -> float:
    """Total length of the compact core (sum of bounded edge lengths)."""
    graph.require_valid()
    return math.fsum(e.length for e in graph.core_edges)


# canonical alias: "measure of the core" reads naturally both ways
measure_core = core_measure


def has_dead_end(graph: MetricGraph) -> bool:
    """True when some core edge is a bridge once every half-line is joined
    to one added vertex at infinity (its implicit head, ``None``).

    Mass peaked beyond such an edge drains to infinity through that edge
    alone, not along two edge-disjoint routes. An edge is a bridge when
    removing it leaves its endpoints apart.
    """
    links = [(e.tail, e.head) for e in graph.edges]
    for skip, edge in enumerate(graph.edges):
        if not edge.in_core:
            continue
        reached, frontier = {edge.tail}, [edge.tail]
        while frontier:
            v = frontier.pop()
            for k, (a, b) in enumerate(links):
                if k == skip or v not in (a, b):
                    continue
                w = b if a == v else a
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if edge.head not in reached:
            return True
    return False


def homothety(graph: MetricGraph, factor: float) -> MetricGraph:
    """Rescale every bounded edge length by ``factor`` (> 0)."""
    if not (factor > 0 and math.isfinite(factor)):
        raise ValueError("homothety factor must be positive and finite")
    edges = tuple(
        Edge(e.id, e.tail, e.head, e.length * factor if e.in_core else INFINITE, e.in_core)
        for e in graph.edges
    )
    return MetricGraph(graph.vertex_ids, edges)


# ---------------------------------------------------------------------------
# builders


def line_graph(core_length: float) -> MetricGraph:
    """Segment of the given length with one half-line at each endpoint."""
    if not core_length > 0:
        raise ValueError("core_length must be positive")
    return metric_graph(
        ["v1", "v2"],
        core_edges=[("core", "v1", "v2", core_length)],
        half_lines=[("lead1", "v1"), ("lead2", "v2")],
    )


def star_graph(
    core_edge_lengths: Sequence[float], half_lines_per_terminal: int = 1
) -> MetricGraph:
    """Hub with one bounded arm per length and leads at each arm terminal."""
    if not core_edge_lengths:
        raise ValueError("need at least one core edge")
    if half_lines_per_terminal < 0:
        raise ValueError("half_lines_per_terminal must be nonnegative")
    vertices = ["hub"]
    core = []
    leads = []
    for i, length in enumerate(core_edge_lengths, start=1):
        term = f"t{i}"
        vertices.append(term)
        core.append((f"arm{i}", "hub", term, float(length)))
        for k in range(1, half_lines_per_terminal + 1):
            leads.append((f"lead{i}_{k}", term))
    return metric_graph(vertices, core_edges=core, half_lines=leads)


def double_bridge(length1: float, length2: float) -> MetricGraph:
    """Two vertices joined by two parallel bounded edges, one lead at each."""
    return metric_graph(
        ["v1", "v2"],
        core_edges=[
            ("bridge1", "v1", "v2", float(length1)),
            ("bridge2", "v1", "v2", float(length2)),
        ],
        half_lines=[("lead1", "v1"), ("lead2", "v2")],
    )


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """Edge-disjoint split of a graph into parts, each holding a half-line.

    ``parts`` is a tuple of frozensets of edge ids. Parts are not required
    to induce connected subgraphs.
    """

    parts: tuple[frozenset[str], ...]

    @property
    def part_count(self) -> int:
        return len(self.parts)


def part_core_measure(graph: MetricGraph, part: frozenset[str]) -> float:
    by_id = graph.edges_by_id
    return math.fsum(by_id[eid].length for eid in part if by_id[eid].in_core)


def partition_violations(graph: MetricGraph, parts: Sequence[frozenset[str]]) -> list[str]:
    """Rules: cover every edge exactly once, 2 <= r <= N, and every part
    contains at least one half-line."""
    bad: list[str] = []
    n = graph.n_half_lines
    r = len(parts)
    if r < 2:
        bad.append("a partition needs at least 2 parts")
    if r > n:
        bad.append(f"part count {r} exceeds the number of half-lines {n}")
    all_ids = {e.id for e in graph.edges}
    seen: set[str] = set()
    half_ids = {e.id for e in graph.half_lines}
    for i, part in enumerate(parts):
        if not part:
            bad.append(f"part {i} is empty")
        unknown = part - all_ids
        if unknown:
            bad.append(f"part {i} references unknown edges {sorted(unknown)}")
        dup = part & seen
        if dup:
            bad.append(f"edges {sorted(dup)} appear in more than one part")
        seen |= part
        if not part & half_ids:
            bad.append(f"part {i} contains no half-line")
    missing = all_ids - seen
    if missing:
        bad.append(f"edges {sorted(missing)} belong to no part")
    return bad


def _splits(items: Sequence[int], r: int) -> Iterable[list[list[int]]]:
    """Every split of ``items`` into r nonempty unordered groups, each once:
    the first item either starts a group of its own or joins one group of
    a split of the rest."""
    if r == 0:
        if not items:
            yield []
        return
    if len(items) < r:
        return
    first, rest = items[0], items[1:]
    for groups in _splits(rest, r - 1):
        yield [[first], *groups]
    for groups in _splits(rest, r):
        for k in range(r):
            yield [[first, *g] if i == k else g for i, g in enumerate(groups)]


def enumerate_partitions(graph: MetricGraph, max_parts: int) -> list[Partition]:
    """All admissible partitions with 2..max_parts parts, each once as an
    unordered family, in lexicographic order of the canonical key.

    The half-lines are split into r nonempty groups, which tells the parts
    apart, and each core edge then joins one of them: sum_r S(N, r) r^E
    partitions for N half-lines and E core edges, so only desk scale is
    feasible for the enumeration. :func:`least_partition` finds the
    partition a certificate needs without it.

    A part is built as a bit mask over the sorted edge ids. Far fewer
    parts than partitions are distinct, so each distinct part gets its
    sorted id tuple and its frozenset once, and every partition holding
    it shares that frozenset; the partitions are sorted by the ranks of
    their parts' id tuples, which is the order of the canonical keys.
    """
    graph.require_valid()
    n = graph.n_half_lines
    if n < 2:
        raise ValueError("partitions need N >= 2 half-lines")
    if not 2 <= max_parts <= n:
        raise ValueError(f"max_parts must lie in [2, {n}]")
    ids = sorted(e.id for e in graph.edges)
    bit = {eid: 1 << i for i, eid in enumerate(ids)}
    half_bits = [bit[e.id] for e in graph.half_lines]
    core_bits = [bit[e.id] for e in graph.core_edges]
    families: list[list[int]] = []
    for r in range(2, max_parts + 1):
        # the core edges each group gets, per assignment of them to groups
        core_masks = []
        for c_assign in itertools.product(range(r), repeat=len(core_bits)):
            masks = [0] * r
            for b, k in zip(core_bits, c_assign):
                masks[k] |= b
            core_masks.append(masks)
        for groups in _splits(half_bits, r):
            base = [sum(g) for g in groups]
            families.extend([[h | c for h, c in zip(base, masks)] for masks in core_masks])
    id_tuples = {
        mask: tuple(eid for i, eid in enumerate(ids) if mask >> i & 1)
        for mask in {mask for parts in families for mask in parts}
    }
    ranked = sorted(id_tuples, key=id_tuples.__getitem__)
    rank = {mask: i for i, mask in enumerate(ranked)}
    shared = [frozenset(id_tuples[mask]) for mask in ranked]
    keys = sorted([tuple(sorted(map(rank.__getitem__, parts))) for parts in families])
    return [Partition(tuple(map(shared.__getitem__, key))) for key in keys]


def _least_largest_group(lengths: Sequence[float], n: int) -> float:
    """Least largest group measure over the groupings of ``lengths`` into
    at most n groups, each measured by ``math.fsum`` as
    :func:`part_core_measure` measures a part.

    Branch and bound: the lengths are placed longest first, each in a new
    group or an existing one, least loaded first, and a branch stops as
    soon as a group reaches the best largest group found. No grouping
    does better than the longest length alone, so reaching it ends the
    search.
    """
    order = sorted(lengths, reverse=True)
    best = math.fsum(order)
    groups: list[list[float]] = []
    loads: list[float] = []

    def place(k: int, worst: float) -> bool:
        """Place ``order[k:]``; True once ``best`` is the longest length."""
        nonlocal best
        if k == len(order):
            best = worst
            return best == order[0]
        x = order[k]
        if len(groups) < n:
            groups.append([x])
            loads.append(x)
            done = max(worst, x) < best and place(k + 1, max(worst, x))
            groups.pop()
            loads.pop()
            if done:
                return True
        for i in sorted(range(len(groups)), key=loads.__getitem__):
            group, load = groups[i], loads[i]
            group.append(x)
            loads[i] = math.fsum(group)
            done = max(worst, loads[i]) < best and place(k + 1, max(worst, loads[i]))
            group.pop()
            loads[i] = load
            if done:
                return True
        return False

    place(0, 0.0)
    return best


def least_partition(graph: MetricGraph) -> Partition:
    """The first partition, in the canonical order of
    ``enumerate_partitions(graph, N)``, whose largest part has the least
    core measure; found without the enumeration.

    The least largest part W* comes first: a partition's parts measure
    the groups its core edges fall in, so W* is the least largest group
    over the groupings of the core lengths into at most N groups. The
    partition is then built part by part. Each next part holds the
    smallest unassigned edge id, so canonical order makes it the first
    candidate part, in lexicographic order of its sorted ids, that holds
    a half-line, stays at or below W*, and leaves a remainder that still
    splits into such parts. The candidates are visited in lexicographic
    preorder, and a candidate above W* ends its subtree, since a part
    only grows there. Whether a remainder splits depends only on its core
    edges and its number of half-lines, and is memoized by them.
    """
    graph.require_valid()
    n = graph.n_half_lines
    if n < 2:
        raise ValueError("partitions need N >= 2 half-lines")
    bound = _least_largest_group([e.length for e in graph.core_edges], n)
    by_id = graph.edges_by_id
    ids = sorted(by_id)
    # the core length at each sorted position; None marks a half-line
    lengths = [by_id[eid].length if by_id[eid].in_core else None for eid in ids]

    def within(part: list[int]) -> bool:
        return math.fsum(lengths[i] for i in part if lengths[i] is not None) <= bound

    def parts(first: int, later: list[int]) -> Iterable[list[int]]:
        """``first`` with each subset of ``later`` that stays within W*,
        in lexicographic preorder; ``later`` is ascending. One edge alone
        stays within W*, which is at least the longest length."""
        part = [first]

        def visit(start: int) -> Iterable[list[int]]:
            yield part
            for k in range(start, len(later)):
                part.append(later[k])
                if within(part):
                    yield from visit(k + 1)
                part.pop()

        return visit(0)

    splits: dict[tuple[int, int], bool] = {}

    def splittable(core: int, halves: int) -> bool:
        """Whether the core edges of the bit mask ``core`` fall into at
        most ``halves`` groups within W*, one for each half-line left."""
        if not core:
            return True
        key = (core, halves)
        if key not in splits:
            low = (core & -core).bit_length() - 1
            rest = [i for i in range(low + 1, core.bit_length()) if core >> i & 1]
            splits[key] = halves > 0 and any(
                splittable(core & ~sum(1 << i for i in group), halves - 1)
                for group in parts(low, rest)
            )
        return splits[key]

    found: list[list[int]] = []
    left = list(range(len(ids)))
    while left:
        for part in parts(left[0], left[1:]):
            held = set(part)
            rest = [i for i in left if i not in held]
            core = sum(1 << i for i in rest if lengths[i] is not None)
            halves = sum(lengths[i] is None for i in rest)
            if any(lengths[i] is None for i in part) and splittable(core, halves):
                found.append(list(part))
                left = rest
                break
        else:
            raise AssertionError("no part within the least largest part")
    return Partition(tuple(frozenset(ids[i] for i in part) for part in found))


# ---------------------------------------------------------------------------
# metric structure


def shortest_distances(
    graph: MetricGraph, source_edge: str, offset: float
) -> dict[str, float]:
    """Distance from the point at ``offset`` along ``source_edge`` to every
    vertex, measured along bounded edges (half-lines are dead ends)."""
    e0 = graph.edges_by_id.get(source_edge)
    if e0 is None:
        raise ValueError(f"unknown edge {source_edge!r}")
    if e0.in_core:
        if not 0 <= offset <= e0.length:
            raise ValueError("offset outside the source edge")
        seeds = [(offset, e0.tail), (e0.length - offset, e0.head)]
    else:
        if offset < 0:
            raise ValueError("offset outside the source edge")
        seeds = [(offset, e0.tail)]
    dist = {v: math.inf for v in graph.vertex_ids}
    heap: list[tuple[float, str]] = []
    for d, v in seeds:
        if d < dist[v]:
            dist[v] = d
            heapq.heappush(heap, (d, v))
    adj: dict[str, list[tuple[str, float]]] = {v: [] for v in graph.vertex_ids}
    for e in graph.core_edges:
        adj[e.tail].append((e.head, e.length))
        adj[e.head].append((e.tail, e.length))
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, length in adj[v]:
            nd = d + length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def distance_to_point(
    graph: MetricGraph, source_edge: str, offset: float
) -> dict[str, Callable]:
    """Per-edge distance functions from a marked point, usable as an
    interpolation placement. Each callable maps local coordinates on its
    edge to graph distance from the marked point."""
    import numpy as np

    dist = shortest_distances(graph, source_edge, offset)

    def make(e: Edge) -> Callable:
        if e.is_half_line:
            d0 = dist[e.tail]

            def f(x, d0=d0):
                return d0 + np.asarray(x, dtype=float)

            return f
        da, db, length = dist[e.tail], dist[e.head], e.length
        direct = e.id == source_edge

        def f(x, da=da, db=db, length=length, direct=direct):
            x = np.asarray(x, dtype=float)
            d = np.minimum(da + x, db + (length - x))
            if direct:
                d = np.minimum(d, np.abs(x - offset))
            return d

        return f

    return {e.id: make(e) for e in graph.edges}


# ---------------------------------------------------------------------------
# text format
#
#   vertex <id>
#   edge <id> <v1> <v2> <length>
#   halfline <id> <v>
#
# '#' starts a comment; blank lines are ignored.


def parse_graph_text(text: str) -> MetricGraph:
    vertices: list[str] = []
    core: list[tuple[str, str, str, float]] = []
    leads: list[tuple[str, str]] = []
    errors: list[str] = []
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append((lineno, line.split()))

    for lineno, tok in rows:
        kind = tok[0]
        if kind == "vertex":
            if len(tok) != 2:
                errors.append(f"line {lineno}: vertex takes exactly one id")
                continue
            vertices.append(tok[1])
        elif kind == "edge":
            if len(tok) != 5:
                errors.append(f"line {lineno}: edge takes id, two vertices and a length")
                continue
            try:
                length = float(tok[4])
            except ValueError:
                errors.append(f"line {lineno}: length {tok[4]!r} is not a number")
                continue
            if not (math.isfinite(length) and length > 0):
                errors.append(f"line {lineno}: edge length must be positive and finite")
                continue
            core.append((tok[1], tok[2], tok[3], length))
        elif kind == "halfline":
            if len(tok) != 3:
                errors.append(f"line {lineno}: halfline takes id and anchor vertex")
                continue
            leads.append((tok[1], tok[2]))
        else:
            errors.append(f"line {lineno}: unknown directive {kind!r}")

    declared = set(vertices)
    for lineno, tok in rows:
        if tok[0] == "edge" and len(tok) == 5:
            for v in tok[2:4]:
                if v not in declared:
                    errors.append(f"line {lineno}: undeclared vertex {v!r}")
        elif tok[0] == "halfline" and len(tok) == 3:
            if tok[2] not in declared:
                errors.append(f"line {lineno}: undeclared vertex {tok[2]!r}")

    if errors:
        raise GraphFormatError("\n".join(errors))
    return metric_graph(vertices, core_edges=core, half_lines=leads)


def load_graph(path) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def graph_to_text(graph: MetricGraph) -> str:
    lines = [f"vertex {v}" for v in graph.vertex_ids]
    for e in graph.core_edges:
        lines.append(f"edge {e.id} {e.tail} {e.head} {e.length!r}")
    for e in graph.half_lines:
        lines.append(f"halfline {e.id} {e.tail}")
    return "\n".join(lines) + "\n"


def save_graph(graph: MetricGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(graph))
