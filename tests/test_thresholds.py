import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from graphnls import graphs, thresholds
from graphnls.energy import energy_value, gn_check, gn_constants
from graphnls.functions import GraphFunction, Mesh, interpolate, project_mass
from graphnls.graphs import (
    Partition,
    core_measure,
    double_bridge,
    has_dead_end,
    least_partition,
    line_graph,
    load_graph,
    metric_graph,
    part_core_measure,
    partition_violations,
    star_graph,
)
from graphnls.thresholds import (
    NonexistenceCertificate,
    certify_nonexistence,
    enumerate_partitions,
    competitor_energy,
    competitor_mass_requirement,
    const_Cp,
    g_critical_point,
    inductive_bound_check,
    mass_thresholds,
    scaling_check,
    threshold_exist,
    threshold_nonexist,
    threshold_report,
)


def cp_direct(p):
    # independent evaluation with a different grouping of the exponents
    q = p * (p - 4.0) / 16.0
    term = q ** (2.0 / (p - 2.0)) + (p / 8.0) * q ** ((4.0 - p) / (p - 2.0))
    return term ** ((p - 2.0) / (6.0 - p))


def test_threshold_exist_p4_closed_form():
    # mu * L1 = N^2 / 2 at p = 4
    assert threshold_exist(4.0, 1.0, 2) == pytest.approx(2.0, abs=1e-12)
    assert threshold_exist(4.0, 1.0, 1) == pytest.approx(0.5, abs=1e-12)
    assert threshold_exist(4.0, 2.0, 2) == pytest.approx(1.0, abs=1e-12)
    assert threshold_exist(4.0, 0.5, 3) == pytest.approx(9.0, abs=1e-12)


def test_const_C5_exact_rational():
    # C_5 = [ (5/16)^(2/3) + (5/8)(5/16)^(-1/3) ]^3 = 675/256 exactly
    assert const_Cp(5.0) == pytest.approx(675.0 / 256.0, abs=1e-12)
    assert const_Cp(5.0) == pytest.approx(2.63671875, abs=1e-12)


def test_threshold_exist_p5_value():
    # L1 = C_5 * mu^{-3} * N^4 at p = 5
    assert threshold_exist(5.0, 1.0, 1) == pytest.approx(675.0 / 256.0, abs=1e-12)
    assert threshold_exist(5.0, 1.0, 2) == pytest.approx(16.0 * 675.0 / 256.0, rel=1e-12)
    assert threshold_exist(5.0, 2.0, 1) == pytest.approx(675.0 / 256.0 / 8.0, rel=1e-12)


def test_const_cp_matches_independent_grouping():
    for p in (4.1, 4.5, 5.0, 5.5, 5.9):
        assert 0.0 < const_Cp(p) < math.inf
        assert const_Cp(p) == pytest.approx(cp_direct(p), rel=1e-12)


def test_const_cp_domain():
    for bad in (4.0, 6.0, 3.0):
        with pytest.raises(ValueError):
            const_Cp(bad)


def test_threshold_nonexist_values():
    # C = c = 1 for N >= 2: L2 = mu^{(2-p)/(6-p)}
    assert threshold_nonexist(4.0, 1.0, n_half_lines=2) == pytest.approx(1.0, abs=1e-12)
    assert threshold_nonexist(4.0, 4.0, n_half_lines=2) == pytest.approx(0.25, rel=1e-12)
    # N = 1 uses c = sqrt(2), C = c^{p-2}
    l2_n1 = threshold_nonexist(4.0, 1.0, n_half_lines=1)
    c = math.sqrt(2.0)
    assert l2_n1 == pytest.approx((c ** 2.0) ** 0.0 * c ** (-4.0), rel=1e-12)


def test_threshold_nonexist_constants_are_keyword_only():
    # a positional third argument would be read as C, not as N: at p = 5
    # C = 2 gives L2 = 2^(-1) instead of 1
    with pytest.raises(TypeError):
        threshold_nonexist(5.0, 1.0, 2)
    assert threshold_nonexist(5.0, 1.0, n_half_lines=2) == pytest.approx(1.0, rel=1e-12)


def test_threshold_scaling_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = float(rng.uniform(4.0, 5.9))
        mu = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.3, 3.0))
        n = int(rng.integers(1, 4))
        w = (p - 2.0) / (6.0 - p)
        assert threshold_exist(p, mu, n) * mu**w == pytest.approx(
            threshold_exist(p, lam * mu, n) * (lam * mu) ** w, rel=1e-12
        )
        assert threshold_nonexist(p, mu, n_half_lines=n) * mu**w == pytest.approx(
            threshold_nonexist(p, lam * mu, n_half_lines=n) * (lam * mu) ** w, rel=1e-12
        )


def test_threshold_report_consistency():
    rng = np.random.default_rng(9)
    for _ in range(40):
        p = float(rng.uniform(4.0, 5.9))
        mu = float(rng.uniform(0.2, 3.0))
        n = int(rng.integers(1, 4))
        rep = threshold_report(p, mu, n)
        assert rep.consistent
        assert rep.l2_nonexist <= rep.l1_exist + 1e-15
    with pytest.raises(ValueError):
        threshold_report(3.0, 1.0, 2)


def test_mass_thresholds_round_trip():
    for p in (4.0, 4.7, 5.5):
        mt = mass_thresholds(p, 1.3, 2)
        assert threshold_exist(p, mt.mu_exist, 2) == pytest.approx(1.3, rel=1e-10)
        assert threshold_nonexist(p, mt.mu_nonexist, n_half_lines=2) == pytest.approx(
            1.3, rel=1e-10
        )
        assert mt.consistent
        assert mt.mu_exist >= mt.mu_nonexist  # more mass needed to guarantee


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, True, np.True_, 0.0, -1.0], ids=["nan", "inf", "bool", "numpy-bool", "zero", "negative"]
)
def test_mass_thresholds_and_critical_point_reject_a_bad_measure_or_mass(bad):
    # NaN passes no comparison, infinity passes L > 0 and a bool passes it as
    # 1.0: mass_thresholds(4.5, inf, 2) claimed a ground state at every mass
    # (mu_exist = mu_nonexist = 0.0, consistent) and mass_thresholds(4.0,
    # True, 2) ran as L = 1
    for call in (
        lambda: mass_thresholds(4.5, bad, 2),
        lambda: mass_thresholds(4.0, bad, 2),
        lambda: g_critical_point(bad, 1.0, 2, 4.5),
    ):
        with pytest.raises(ValueError, match="L must be finite and positive"):
            call()
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        g_critical_point(1.3, bad, 2, 4.5)
    # a subnormal L passes those checks, and dividing by it overflowed:
    # both thresholds came back inf, consistent
    for p in (4.5, 4.0):
        with pytest.raises(ValueError, match=f"mass_thresholds is out of float64 range at p={p}, L=1e-320, n_half_lines=2"):
            mass_thresholds(p, 1e-320, 2)


@pytest.mark.parametrize(
    "call,named",
    [
        pytest.param(lambda: const_Cp(5.999), "const_Cp is out of float64 range at p=5.999", id="const_Cp"),
        pytest.param(
            lambda: threshold_exist(5.999, 1.0, 8),
            "threshold_exist is out of float64 range at p=5.999, mu=1.0, n_half_lines=8",
            id="exist",
        ),
        # mu^((2-p)/(6-p)) overflows alone, C_p being finite at p = 5.99
        pytest.param(
            lambda: threshold_exist(5.99, 1e-3, 1),
            "threshold_exist is out of float64 range at p=5.99, mu=0.001, n_half_lines=1",
            id="exist-small-mu",
        ),
        pytest.param(
            lambda: threshold_nonexist(5.999, 0.5, n_half_lines=2),
            "threshold_nonexist is out of float64 range at p=5.999, mu=0.5, n_half_lines=2",
            id="nonexist",
        ),
        pytest.param(lambda: threshold_report(5.999, 1.0, 2), "p=5.999", id="report"),
        pytest.param(lambda: mass_thresholds(5.999, 1.0, 8), "p=5.999", id="mass"),
    ],
)
def test_thresholds_out_of_float64_range_are_value_errors(call, named):
    # near p = 6 the exponents grow like 1/(6-p): each of these raised
    # OverflowError, which the CLI reports as an internal error
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


# competitor


def test_competitor_energy_closed_form_value():
    # a = 1/2, L = 1, mu = 1, N = 2, p = 4 evaluates to 5/192 exactly
    assert competitor_energy(0.5, 1.0, 1.0, 2, 4.0) == pytest.approx(
        5.0 / 192.0, rel=1e-14
    )


def test_competitor_energy_admissibility_window():
    with pytest.raises(ValueError):
        competitor_energy(1.1, 1.0, 1.0, 2, 4.0)  # a^2 L > mu
    with pytest.raises(ValueError):
        competitor_energy(0.0, 1.0, 1.0, 2, 4.0)
    with pytest.raises(ValueError):
        competitor_energy(-0.3, 1.0, 1.0, 2, 4.0)


def test_competitor_discrete_energy_matches_formula():
    # plateau on the core plus exponential tails, evaluated by the mesh energy
    a, L, mu, n, p = 0.5, 1.0, 1.0, 2, 4.0
    m = (mu - a**2 * L) / n
    rate = a**2 / (2.0 * m)
    mesh = Mesh(line_graph(L), h_max=0.002, r_cut=40.0)
    placement = {
        "core": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        "lead1": lambda x: np.asarray(x, dtype=float),
        "lead2": lambda x: np.asarray(x, dtype=float),
    }
    u = interpolate(mesh, lambda t: a * np.exp(-rate * t), placement)
    got = energy_value(u, p)
    assert got == pytest.approx(competitor_energy(a, L, mu, n, p), rel=1e-4)


def test_g_critical_point_against_scalar_minimizer():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = float(rng.uniform(4.05, 5.9))
        L = float(rng.uniform(0.3, 2.5))
        n = int(rng.integers(1, 4))
        # g is strictly convex on (0, inf), so its critical point is its minimum
        grid = np.linspace(0.2, 3.0, 40)
        assert np.all(np.diff([competitor_mass_requirement(float(a), L, n, p) for a in grid], 2) > 0.0)
        cp = g_critical_point(L, 1.0, n, p)
        res = minimize_scalar(
            lambda a: competitor_mass_requirement(a, L, n, p),
            bounds=(1e-6, 20.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert cp.a_opt == pytest.approx(res.x, rel=1e-6)
        assert cp.mass_requirement == pytest.approx(res.fun, rel=1e-10)


def test_mass_feasible_implies_amplitude_admissible():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = float(rng.uniform(4.05, 5.9))
        L = float(rng.uniform(0.2, 3.0))
        mu = float(rng.uniform(0.2, 3.0))
        n = int(rng.integers(1, 4))
        cp = g_critical_point(L, mu, n, p)
        if cp.mass_feasible:
            assert cp.amplitude_admissible


def test_negative_competitor_exactly_above_threshold():
    # the optimal-competitor criterion reproduces threshold_exist
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = float(rng.uniform(4.05, 5.9))
        mu = float(rng.uniform(0.3, 2.0))
        n = int(rng.integers(1, 3))
        l1 = threshold_exist(p, mu, n)
        above = g_critical_point(l1 * 1.01, mu, n, p)
        below = g_critical_point(l1 * 0.99, mu, n, p)
        assert above.mass_feasible
        assert not below.mass_feasible
        a = above.a_opt
        assert competitor_energy(a, l1 * 1.01, mu, n, p) < 0.0
        # at p = 4 the energy is negative iff a^2 L < mu - N^2 / (2L), which
        # above L1 = N^2 / (2 mu) holds at half the largest such amplitude
        L = threshold_exist(4.0, mu, n) * 1.01
        a = 0.5 * math.sqrt((mu - n**2 / (2.0 * L)) / L)
        assert competitor_energy(a, L, mu, n, 4.0) < 0.0


# certificates


def test_certificate_double_bridge_partition_beats_whole_graph():
    g = double_bridge(0.9, 0.9)
    cert = certify_nonexistence(g, 4.0, 1.0)
    assert cert.valid
    assert not cert.whole_graph
    assert cert.max_part_measure == pytest.approx(0.9, abs=1e-15)
    assert cert.threshold == pytest.approx(1.0, abs=1e-12)
    # the single-region route alone fails: 1.8 > 1
    whole = certify_nonexistence(g, 4.0, 1.0, partitions=[])
    assert not whole.valid
    assert whole.whole_graph
    assert whole.max_part_measure == pytest.approx(1.8, abs=1e-15)


def test_certificate_explicit_partition():
    g = double_bridge(0.9, 0.9)
    q = Partition((frozenset({"bridge1", "lead1"}), frozenset({"bridge2", "lead2"})))
    cert = certify_nonexistence(g, 4.0, 1.0, partitions=[q])
    assert cert.valid
    assert cert.part_core_measures == (0.9, 0.9)


def test_certificate_invalid_partition_raises():
    g = double_bridge(0.9, 0.9)
    bad = Partition((frozenset({"bridge1"}), frozenset({"bridge2", "lead1", "lead2"})))
    with pytest.raises(ValueError):
        certify_nonexistence(g, 4.0, 1.0, partitions=[bad])


def test_certificate_single_half_line_whole_graph_only():
    g = metric_graph(["a", "b"], [("seg", "a", "b", 0.1)], [("l", "b")])
    cert = certify_nonexistence(g, 4.0, 1.0)
    assert cert.whole_graph
    # N = 1 constants: c = sqrt 2 -> threshold = c^{-4} = 1/4 > 0.1
    assert cert.threshold == pytest.approx(0.25, rel=1e-12)
    assert cert.valid


def test_certificate_dead_end_uses_single_lead_constants():
    # the hub of this broom is a dead end: c = sqrt 2, threshold 1/4 < 0.9
    cert = certify_nonexistence(star_graph((0.9,), 2), 4.0, 1.0)
    assert cert.threshold == pytest.approx(0.25, rel=1e-12)
    assert cert.c == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert cert.valid is False


def test_certificate_respects_custom_constants():
    g = line_graph(0.5)
    strict = certify_nonexistence(g, 4.0, 1.0, C=1.0, c=1.0)
    assert strict.valid
    loose = certify_nonexistence(g, 4.0, 1.0, C=4.0, c=2.0)
    # larger constants shrink the threshold: c^{-p} = 1/16 < 0.5
    assert not loose.valid


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, True])
@pytest.mark.parametrize("name", ["C", "c"])
def test_gn_constant_overrides_must_be_finite_and_positive(name, bad):
    # NaN passes no comparison and infinity passes > 0: c = inf gave
    # mu_nonexist = 0 with consistent=True, c = nan a nan threshold; True
    # ran as 1.0
    g = line_graph(0.5)
    u = project_mass(GraphFunction.constant(Mesh(g, h_max=0.1, r_cut=4.0), 1.0), 1.0)
    for call in (
        lambda: gn_constants(4.5, g, **{name: bad}),
        lambda: threshold_nonexist(4.5, 1.0, **{name: bad}),
        lambda: threshold_report(4.5, 1.0, 2, **{name: bad}),
        lambda: mass_thresholds(4.5, 1.0, 2, **{name: bad}),
        lambda: certify_nonexistence(g, 4.5, 1.0, **{name: bad}),
        lambda: gn_check(u, 4.5, **{name: bad}),
    ):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            call()


# the partition search against brute force, on small graphs with tied lengths

TIED_LENGTHS = (0.25, 0.5, 1.0)


@st.composite
def small_graphs(draw):
    """A star, a broom (a path with two leads or more at its far end) or a
    bridge of parallel edges: 1 to 4 core edges, 2 to 5 leads."""
    kind = draw(st.sampled_from(("star", "broom", "bridge")))
    lengths = draw(st.lists(st.sampled_from(TIED_LENGTHS), min_size=1, max_size=4))
    if kind == "star":
        vertices = ["hub", *(f"t{i}" for i in range(len(lengths)))]
        core = [(f"arm{i}", "hub", f"t{i}", x) for i, x in enumerate(lengths)]
    elif kind == "broom":
        vertices = [f"v{i}" for i in range(len(lengths) + 1)]
        core = [(f"stick{i}", f"v{i}", f"v{i + 1}", x) for i, x in enumerate(lengths)]
    else:
        vertices = ["a", "b"]
        core = [(f"bridge{i}", "a", "b", x) for i, x in enumerate(lengths)]
    n = draw(st.integers(2, 5))
    anchors = [draw(st.sampled_from(vertices)) for _ in range(n)]
    if kind == "broom":
        anchors[:2] = [vertices[-1]] * 2
    graph = metric_graph(vertices, core, [(f"lead{k}", a) for k, a in enumerate(anchors)])
    graph.require_valid()
    return graph


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for parts in _set_partitions(rest):
        yield [[first], *parts]
        for k in range(len(parts)):
            yield [*parts[:k], [first, *parts[k]], *parts[k + 1:]]


def _brute_force_keys(graph, max_parts):
    """Canonical keys of every split of all edges into 2..max_parts parts,
    each holding a half-line, in sorted order."""
    half = {e.id for e in graph.half_lines}
    keys = {
        tuple(sorted(tuple(sorted(part)) for part in parts))
        for parts in _set_partitions(sorted(e.id for e in graph.edges))
        if 2 <= len(parts) <= max_parts and all(half.intersection(part) for part in parts)
    }
    return sorted(keys)


def _scanned_certificate(graph, p, mu):
    """certify_nonexistence as a scan that sums every candidate's parts
    afresh, over the brute-force partitions."""
    C, c = gn_constants(p, graph)
    l2 = threshold_nonexist(p, mu, C=C, c=c)
    keys = _brute_force_keys(graph, graph.n_half_lines)
    best = None
    for cand in [None, *(Partition(tuple(map(frozenset, key))) for key in keys)]:
        if cand is None:
            meas = (core_measure(graph),)
        else:
            meas = tuple(part_core_measure(graph, part) for part in cand.parts)
        if best is None or max(meas) < best[0]:
            best = (max(meas), meas, cand)
    worst, meas, cand = best
    return NonexistenceCertificate(
        valid=worst < l2,
        threshold=l2,
        part_core_measures=meas,
        max_part_measure=worst,
        partition=cand,
        whole_graph=cand is None,
        offending_parts=tuple(i for i, m in enumerate(meas) if m >= l2),
        p=p,
        mu=mu,
        C=C,
        c=c,
    ).to_dict()


def _assert_matches_the_scan(graph, p, mu):
    """certify_nonexistence against the scan on every field but which least
    partition it picked, and that partition on its own."""
    cert = certify_nonexistence(graph, p, mu)
    got, want = cert.to_dict(), _scanned_certificate(graph, p, mu)
    for name in ("partition", "part_core_measures", "offending_parts"):
        del got[name], want[name]
    assert got == want
    if cert.whole_graph:
        assert cert.part_core_measures == (core_measure(graph),)
    else:
        parts = cert.partition.parts
        assert partition_violations(graph, parts) == []
        assert cert.part_core_measures == tuple(part_core_measure(graph, part) for part in parts)
    assert cert.offending_parts == tuple(i for i, m in enumerate(cert.part_core_measures) if m >= cert.threshold)


@settings(deadline=None, derandomize=True)
@given(graph=small_graphs(), data=st.data())
def test_enumerated_partitions_match_brute_force(graph, data):
    max_parts = data.draw(st.integers(2, graph.n_half_lines))
    found = enumerate_partitions(graph, max_parts)
    # each part in canonical order, each partition once, sorted by key
    assert [tuple(tuple(sorted(part)) for part in q.parts) for q in found] == _brute_force_keys(graph, max_parts)


@settings(deadline=None, derandomize=True)
@given(
    graph=small_graphs(),
    p=st.sampled_from((4.0, 4.5, 5.0)),
    mu=st.sampled_from((0.5, 1.0, 2.0)),
)
def test_certificate_matches_a_scan_of_every_candidate(graph, p, mu):
    _assert_matches_the_scan(graph, p, mu)


def test_certificates_of_the_demo_graphs_are_pinned():
    # pure fsum of edge lengths against closed-form thresholds: the same
    # on every platform
    demos = Path(__file__).resolve().parents[1] / "demos" / "graphs"
    pinned = json.loads((Path(__file__).with_name("certify_demo_graphs.json")).read_text())
    assert [(row["graph"], row["p"]) for row in pinned] == [
        (name, p) for name in ("broom", "double_bridge", "line", "star") for p in (4.0, 4.5, 5.0)
    ]
    for row in pinned:
        cert = certify_nonexistence(load_graph(demos / f"{row['graph']}.graph"), row["p"], row["mu"])
        assert json.loads(json.dumps(cert.to_dict())) == row["certificate"]


def _bridge(lengths, n_half_lines):
    return metric_graph(
        ["a", "b"],
        [(f"bridge{i}", "a", "b", x) for i, x in enumerate(lengths)],
        [(f"lead{k}", "ab"[k % 2]) for k in range(n_half_lines)],
    )


@settings(deadline=None, derandomize=True)
@given(graph=small_graphs())
# longest first, each to the least loaded group, gives 1.75 and not 1.5
@example(graph=_bridge((0.75, 0.75, 0.5, 0.5, 0.5), 2))
# 0.1 + 0.2 + 0.3 rounds above 0.6 one by one, but math.fsum gives 0.6
@example(graph=_bridge((0.1, 0.2, 0.3, 0.6), 2))
def test_least_partition_is_a_least_enumerated_partition(graph):
    # also where the whole-graph check wins the certificate's tie
    found = least_partition(graph)
    assert partition_violations(graph, found.parts) == []
    least = min(max(part_core_measure(graph, part) for part in q.parts) for q in enumerate_partitions(graph, graph.n_half_lines))
    assert max(part_core_measure(graph, part) for part in found.parts) == least


def _least_largest_group_by_brute_force(lengths, n):
    """Over every grouping of the lengths into at most n groups."""
    return min(
        max(math.fsum(lengths[i] for i in group) for group in groups)
        for groups in _set_partitions(list(range(len(lengths))))
        if len(groups) <= n
    )


def test_least_largest_group_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(40):
        lengths = [float(x) for x in rng.choice((0.1, 0.2, 0.3, 0.25, 0.5, 1.0), int(rng.integers(1, 8)))]
        n = int(rng.integers(1, 5))
        least, grouping = graphs._least_largest_group(lengths, n)
        assert least == _least_largest_group_by_brute_force(lengths, n), (lengths, n)
        # each index once, in at most n groups, the largest measuring W*
        assert sorted(i for group in grouping for i in group) == list(range(len(lengths)))
        assert 1 <= len(grouping) <= n and all(grouping)
        assert max(math.fsum(lengths[i] for i in group) for group in grouping) == least


# the star topologies of the benchmark's certificate op, by leads per terminal
BENCH_STAR_LEADS = ((1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (2, 2, 1))


def test_certificates_do_not_enumerate_partitions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify_nonexistence enumerated the partitions")

    monkeypatch.setattr(graphs, "enumerate_partitions", refuse)
    monkeypatch.setattr(thresholds, "enumerate_partitions", refuse)
    demos = Path(__file__).resolve().parents[1] / "demos" / "graphs"
    pinned = json.loads((Path(__file__).with_name("certify_demo_graphs.json")).read_text())
    assert len(pinned) == 12
    for row in pinned:
        cert = certify_nonexistence(load_graph(demos / f"{row['graph']}.graph"), row["p"], row["mu"])
        assert json.loads(json.dumps(cert.to_dict())) == row["certificate"]
    rng = np.random.default_rng(23)
    for leads in BENCH_STAR_LEADS:
        for _ in range(3):
            lengths = [float(x) for x in rng.uniform(0.2, 1.2, len(leads))]
            vertices = ["hub", *(f"t{i}" for i in range(1, len(leads) + 1))]
            core = [(f"arm{i}", "hub", f"t{i}", x) for i, x in enumerate(lengths, 1)]
            half = [(f"lead{i}_{k}", f"t{i}") for i, n in enumerate(leads, 1) for k in range(1, n + 1)]
            graph = metric_graph(vertices, core, half)
            p, mu = float(rng.choice([4.0, 4.5, 5.0])), float(rng.uniform(0.8, 1.25))
            _assert_matches_the_scan(graph, p, mu)


@pytest.mark.parametrize(
    "graph",
    [
        # N = 12 half-lines: the enumeration would build about 10^10 partitions
        pytest.param(star_graph(np.random.default_rng(6).uniform(0.2, 1.2, 6).tolist(), 2), id="star-6-arms-2-leads"),
        pytest.param(star_graph(np.random.default_rng(8).uniform(0.2, 1.2, 8).tolist(), 1), id="star-8-arms-1-lead"),
        # more core edges than half-lines, with ties: the parts must share edges
        pytest.param(_bridge((1.0, 0.5, 0.5, 0.25) * 2, 3), id="bridge-8-edges-3-leads"),
    ],
)
def test_certificates_scale_past_the_enumeration(graph):
    start = time.perf_counter()
    cert = certify_nonexistence(graph, 4.0, 1.0)
    assert time.perf_counter() - start < 1.0
    assert not cert.whole_graph
    assert partition_violations(graph, cert.partition.parts) == []
    lengths = [e.length for e in graph.core_edges]
    assert cert.max_part_measure == _least_largest_group_by_brute_force(lengths, graph.n_half_lines)
    assert cert.part_core_measures == tuple(part_core_measure(graph, part) for part in cert.partition.parts)


def _grid(k):
    """A k x k grid core of edges of 0.1, a lead at each vertex of its left
    and right columns."""
    vertices = [f"v{r}_{c}" for r in range(k) for c in range(k)]
    core = [(f"h{r}_{c}", f"v{r}_{c}", f"v{r}_{c + 1}", 0.1) for r in range(k) for c in range(k - 1)]
    core += [(f"u{r}_{c}", f"v{r}_{c}", f"v{r + 1}_{c}", 0.1) for r in range(k - 1) for c in range(k)]
    leads = [(f"lead{r}_{c}", f"v{r}_{c}") for r in range(k) for c in (0, k - 1)]
    return metric_graph(vertices, core, leads)


@pytest.mark.parametrize("k", [4, 5])
def test_certificates_of_grid_cores_return(k):
    # 24 core edges and 8 leads, then 40 and 10: many equal lengths, which
    # the search for the least largest part must not branch over
    graph = _grid(k)
    assert (len(graph.core_edges), graph.n_half_lines) == (2 * k * (k - 1), 2 * k)
    start = time.perf_counter()
    cert = certify_nonexistence(graph, 4.5, 1.0)
    assert time.perf_counter() - start < 1.0
    assert partition_violations(graph, cert.partition.parts) == []
    lengths = [e.length for e in graph.core_edges]
    # the even split: k - 1 edges per part, each measuring the exact
    # total over N, rounded
    assert cert.max_part_measure == float(sum(map(Fraction, lengths)) / graph.n_half_lines) > max(lengths)


def test_certificate_of_an_8x8_grid_core_is_quick():
    # 112 core edges and 16 leads: the dead-end test is one bridge search,
    # O(V + E), where a reachability scan per core edge took about 0.1-0.2 s
    # (O(E^2 V)); the whole certificate takes about 1.5 ms on a shared
    # 2-core Linux host, and its best of three must stay under 50 ms
    graph = _grid(8)
    assert not has_dead_end(graph)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        cert = certify_nonexistence(graph, 4.5, 1.0)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.05
    assert cert.valid and partition_violations(graph, cert.partition.parts) == []


# scaling


def test_scaling_check_identity_and_gap():
    mesh = Mesh(line_graph(2.0), h_max=0.02, r_cut=8.0)
    placement = {
        "core": lambda x: x - 1.0,
        "lead1": lambda x: -1.0 - x,
        "lead2": lambda x: 1.0 + x,
    }
    u = project_mass(
        interpolate(mesh, lambda t: np.exp(-(t**2) / 2.0), placement), 1.0
    )
    for lam in (0.5, 2.0):
        for p in (3.0, 4.5):
            sc = scaling_check(u, lam, p)
            assert sc.relative_gap < 1e-3
            assert sc.mass_expected == pytest.approx(lam * 1.0, rel=1e-12)
            assert sc.mass == pytest.approx(sc.mass_expected, rel=1e-6)
    assert scaling_check(u, 1.0, 3.0).relative_gap == 0.0


# kinetic cascade


def test_inductive_bound_rows():
    # a negative-energy state on a generous graph: bound applies
    mesh = Mesh(line_graph(3.0), h_max=0.02, r_cut=15.0)
    placement = {
        "core": lambda x: x - 1.5,
        "lead1": lambda x: -1.5 - x,
        "lead2": lambda x: 1.5 + x,
    }
    u = project_mass(interpolate(mesh, lambda t: 1.0 / np.cosh(t), placement), 6.0)
    rep = inductive_bound_check(u, 4.0, n_max=4)
    assert rep.applicable and rep.energy <= 0.0
    assert len(rep.rows) == 5
    for n, bound, slack, satisfied in rep.rows:
        assert satisfied
        assert slack == pytest.approx(bound - rep.kinetic_sq, rel=1e-12)
    # the n = 0 level is the direct bound: core measure times sup^p
    assert rep.rows[0][1] == pytest.approx(
        rep.core_length * rep.sup_norm**4.0, rel=1e-12
    )


def test_inductive_bound_positive_energy_not_applicable():
    mesh = Mesh(line_graph(0.2), h_max=0.02, r_cut=6.0)
    rng = np.random.default_rng(3)
    u = GraphFunction(mesh, rng.standard_normal(mesh.n_dofs))
    # a wiggly random function has big kinetic energy: E > 0
    rep = inductive_bound_check(u, 4.0)
    assert not rep.applicable
