"""Scan the core measure across both analytic thresholds and compare the
solver verdict at each point with the predicted band.

Setup: p = 4, mu = 1, two half-lines, so L1 = 2 (negative competitor above)
and L2 = 1 (nonexistence below). The graph at measure L is a line segment
of length L with one half-line at each end. Points inside [L2, L1] carry no
analytic prediction; the solver output is the only evidence there.

Weakly bound states near the transition decay slowly along the half-lines,
so the truncation schedule is deeper than the default; the last section
shows one stubborn point being resolved by deepening it further.
"""

from graphnls import SolverConfig, line_graph, minimize, threshold_exist, threshold_nonexist

P, MU = 4.0, 1.0
l1 = threshold_exist(P, MU, 2)
l2 = threshold_nonexist(P, MU, n_half_lines=2)
print(f"p={P}, mu={MU}, N=2:  L1={l1}  L2={l2}\n")

config = SolverConfig(r_cut_schedule=(10.0, 20.0, 40.0, 80.0), max_iters=8000)
print(f"{'meas(K)':>8} {'band':>14} {'verdict':>24} {'E_min':>13}")
for L in (0.25, 0.5, 0.8, 1.2, 1.6, 2.5, 3.0, 4.0):
    if L > l1:
        band = "EXIST"
    elif L < l2:
        band = "NONEXIST"
    else:
        band = "GAP"
    result = minimize(line_graph(L), MU, P, config)
    print(f"{L:8.2f} {band:>14} {result.verdict:>24} {result.energy:13.6f}")

print("""
Reading the table: NEGATIVE_MINIMUM in the NONEXIST band or vanishing
infima in the EXIST band would be soundness bugs; INCONCLUSIVE only means
the truncation schedule did not settle the point. GAP rows carry no
analytic prediction, and the monotone vanishing energies there suggest the
actual transition sits above meas(K) = 1.6 for this family.

The meas(K) = 2.5 state is bound so weakly that its tails still feel the
R = 80 cutoff. Extending the schedule settles it:""")

deep = SolverConfig(r_cut_schedule=(20.0, 40.0, 80.0, 160.0), max_iters=12000)
result = minimize(line_graph(2.5), MU, P, deep)
for r_cut, energy, _, _ in result.r_cut_table:
    print(f"  R_cut {r_cut:6.1f}: E = {energy:.6e}")
print(f"  verdict: {result.verdict}")
