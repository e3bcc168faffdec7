import itertools
import math
from pathlib import Path

import pytest

from graphnls.graphs import (
    GraphFormatError,
    InvalidGraphError,
    Partition,
    core_measure,
    distance_to_point,
    double_bridge,
    enumerate_partitions,
    graph_to_text,
    has_dead_end,
    homothety,
    line_graph,
    load_graph,
    metric_graph,
    parse_graph_text,
    part_core_measure,
    partition_violations,
    save_graph,
    shortest_distances,
    star_graph,
    validate,
)


def test_line_graph_shape():
    g = line_graph(2.5)
    assert core_measure(g) == 2.5
    assert g.n_half_lines == 2
    assert len(g.core_edges) == 1
    assert validate(g).ok


def test_measure_core_alias():
    # two parallel core edges are summed
    assert core_measure(double_bridge(0.7, 1.3)) == 2.0


def test_has_dead_end():
    assert not has_dead_end(line_graph(1.0))
    assert not has_dead_end(double_bridge(0.5, 0.5))
    assert not has_dead_end(star_graph((0.5, 0.8, 1.1)))
    # a core edge whose far end carries no lead
    assert has_dead_end(star_graph((0.9,), half_lines_per_terminal=2))
    assert has_dead_end(metric_graph(["a", "b"], [("seg", "a", "b", 1.0)], [("l", "b")]))
    # a loop at the far end gives no second route across the edge
    lollipop = metric_graph(
        ["a", "b"], [("e", "a", "b", 1.0), ("o", "b", "b", 1.0)], [("l1", "a"), ("l2", "a")]
    )
    assert has_dead_end(lollipop)
    assert not has_dead_end(metric_graph(["a"], [("o", "a", "a", 1.0)], [("l1", "a"), ("l2", "a")]))


def test_star_graph_counts():
    g = star_graph((1.0, 2.0, 3.0), half_lines_per_terminal=2)
    assert core_measure(g) == 6.0
    assert g.n_half_lines == 6
    assert validate(g).ok


def test_self_loop_and_parallel_edges_allowed():
    g = metric_graph(
        ["a"],
        [("loop", "a", "a", 1.0), ("loop2", "a", "a", 0.5)],
        [("l1", "a")],
    )
    assert validate(g).ok
    assert core_measure(g) == 1.5


def test_no_half_line_rejected():
    g = metric_graph(["a", "b"], [("e", "a", "b", 1.0)], [])
    rep = validate(g)
    assert not rep.ok
    assert any("N >= 1" in v for v in rep.violations)
    with pytest.raises(InvalidGraphError):
        g.require_valid()


def test_disconnected_core_rejected():
    g = metric_graph(
        ["a", "b", "c", "d"],
        [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)],
        [("l1", "a"), ("l2", "c")],
    )
    assert not validate(g).ok


def test_nonpositive_length_rejected():
    with pytest.raises((ValueError, InvalidGraphError)):
        metric_graph(["a", "b"], [("e", "a", "b", 0.0)], [("l", "a")]).require_valid()


def test_duplicate_edge_id_rejected():
    with pytest.raises((ValueError, InvalidGraphError)):
        metric_graph(
            ["a", "b"],
            [("e", "a", "b", 1.0), ("e", "b", "a", 2.0)],
            [("l", "a")],
        ).require_valid()


def test_homothety_scales_lengths_only():
    g = double_bridge(0.9, 0.9)
    h = homothety(g, 2.0)
    assert core_measure(h) == pytest.approx(3.6, abs=1e-15)
    assert h.n_half_lines == g.n_half_lines
    # factor 1 is the identity on measures
    assert core_measure(homothety(g, 1.0)) == core_measure(g)
    with pytest.raises(ValueError):
        homothety(g, 0.0)


def test_shortest_distances_double_bridge():
    g = double_bridge(1.0, 3.0)
    d = shortest_distances(g, "bridge1", 0.0)  # the point sitting at v1
    assert d["v1"] == 0.0
    assert d["v2"] == 1.0  # the shorter bridge wins
    d2 = shortest_distances(g, "bridge2", 1.5)  # middle of the long bridge
    assert d2["v1"] == 1.5
    assert d2["v2"] == 1.5


def test_distance_to_point_midedge():
    g = line_graph(2.0)
    charts = distance_to_point(g, "core", 0.5)
    # same edge: plain offset difference
    assert charts["core"](1.5) == pytest.approx(1.0, abs=1e-12)
    # onto a lead at v2: 1.5 along the core then out the half-line
    assert charts["lead2"](0.25) == pytest.approx(1.75, abs=1e-12)
    # lead at v1 is only 0.5 from the marked point
    assert charts["lead1"](0.0) == pytest.approx(0.5, abs=1e-12)


# partitions


def brute_force_partitions(graph, max_parts):
    edge_ids = sorted(e.id for e in graph.edges)
    found = set()
    for r in range(2, max_parts + 1):
        for assign in itertools.product(range(r), repeat=len(edge_ids)):
            parts = [
                frozenset(eid for eid, k in zip(edge_ids, assign) if k == i)
                for i in range(r)
            ]
            if any(not part for part in parts):
                continue
            if partition_violations(graph, parts):
                continue
            found.add(tuple(sorted(tuple(sorted(part)) for part in parts)))
    return found


DEMOS = Path(__file__).resolve().parents[1] / "demos"
PARTITION_GRAPHS = {
    "demo_star": lambda: load_graph(DEMOS / "graphs" / "star.graph"),
    # two leads at one terminal: a part can hold two half-lines
    "star_2_1_1": lambda: metric_graph(
        ["hub", "t1", "t2", "t3"],
        [("arm1", "hub", "t1", 0.4), ("arm2", "hub", "t2", 0.6), ("arm3", "hub", "t3", 0.9)],
        [("lead1_1", "t1"), ("lead1_2", "t1"), ("lead2_1", "t2"), ("lead3_1", "t3")],
    ),
    "double_bridge": lambda: double_bridge(1.0, 2.0),
}


@pytest.mark.parametrize("name", PARTITION_GRAPHS)
def test_enumerate_partitions_matches_brute_force(name):
    g = PARTITION_GRAPHS[name]()
    for max_parts in range(2, g.n_half_lines + 1):
        keys = [tuple(sorted(tuple(sorted(part)) for part in q.parts)) for q in enumerate_partitions(g, max_parts)]
        # each partition once, in canonical order (certify_nonexistence
        # returns the first of equally good candidates)
        assert keys == sorted(set(keys))
        assert set(keys) == brute_force_partitions(g, max_parts)


def test_double_bridge_partition_count():
    g = double_bridge(1.0, 1.0)
    # 2 half-lines -> only 2-part covers; each part needs its own lead
    quotients = enumerate_partitions(g, 2)
    assert len(quotients) == 4  # each bridge edge goes to either side
    for q in quotients:
        assert not partition_violations(g, q.parts)
        total = sum(part_core_measure(g, part) for part in q.parts)
        assert total == pytest.approx(core_measure(g), abs=1e-12)


def test_partition_violation_messages():
    g = double_bridge(1.0, 1.0)
    bad = [frozenset({"bridge1", "lead1"}), frozenset({"bridge2"})]
    msgs = partition_violations(g, bad)
    assert msgs and any("half-line" in m for m in msgs)
    overlap = [
        frozenset({"bridge1", "bridge2", "lead1"}),
        frozenset({"bridge1", "lead2"}),
    ]
    assert partition_violations(g, overlap)
    unknown = [frozenset({"nope", "lead1"}), frozenset({"bridge2", "lead2"})]
    assert partition_violations(g, unknown)


def test_part_core_measure_ignores_leads():
    g = double_bridge(0.9, 0.9)
    assert part_core_measure(g, frozenset({"bridge1", "lead1"})) == 0.9
    assert part_core_measure(g, frozenset({"lead1"})) == 0.0


# text format


def test_text_round_trip():
    g = star_graph((0.5, 1.5), half_lines_per_terminal=2)
    g2 = parse_graph_text(graph_to_text(g))
    assert core_measure(g2) == core_measure(g)
    assert g2.n_half_lines == g.n_half_lines
    assert sorted(e.id for e in g2.edges) == sorted(e.id for e in g.edges)


def test_save_load_round_trip(tmp_path):
    g = double_bridge(0.25, 0.75)
    path = tmp_path / "g.graph"
    save_graph(g, path)
    g2 = load_graph(path)
    assert core_measure(g2) == 1.0
    assert g2.n_half_lines == 2


def test_parse_error_reports_line_number():
    text = "vertex a\nvertex b\nedge e a b not_a_number\nhalfline l a\n"
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text(text)
    assert "3" in str(err.value)


def test_parse_unknown_vertex():
    text = "vertex a\nedge e a ghost 1.0\nhalfline l a\n"
    with pytest.raises(GraphFormatError):
        parse_graph_text(text)


def test_parse_comments_and_blank_lines():
    text = (
        "# a broom\nvertex hub\nvertex t\n\n"
        "edge arm hub t 2.0  # the core\nhalfline l1 t\nhalfline l2 t\n"
    )
    g = parse_graph_text(text)
    assert core_measure(g) == 2.0
    assert g.n_half_lines == 2


def test_partition_dataclass_part_count():
    q = Partition((frozenset({"a"}), frozenset({"b"})))
    assert q.part_count == 2
