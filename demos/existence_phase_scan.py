"""Scan the core measure across both analytic thresholds and compare the
solver verdict at each point with the predicted band.

Setup: p = 4, mu = 1, two half-lines, so L1 = 2 (negative competitor above)
and L2 = 1 (nonexistence below). The graph at measure L is a line segment
of length L with one half-line at each end. Points inside [L2, L1] carry no
analytic prediction; the solver output is the only evidence there.

Each run descends once, at a cut of the half-lines derived from the core
measure so that the flat state, which spreads the mass over the core and
the cut half-lines, has an energy far below the verdict's rounding bound.
n theta tells how far a run's tails decay within that cut: a bound state's
by many e-folds, a spreading one's by about one.
"""

from graphnls import SolverConfig, line_graph, minimize, threshold_exist, threshold_nonexist

P, MU = 4.0, 1.0
l1 = threshold_exist(P, MU, 2)
l2 = threshold_nonexist(P, MU, n_half_lines=2)
print(f"p={P}, mu={MU}, N=2:  L1={l1}  L2={l2}\n")

config = SolverConfig(max_iters=8000)
print(f"{'meas(K)':>8} {'band':>9} {'verdict':>24} {'E_min':>13} {'bound':>9} {'n theta':>9} {'cut':>9}")
for L in (0.25, 0.5, 0.8, 1.2, 1.6, 2.5, 3.0, 4.0):
    if L > l1:
        band = "EXIST"
    elif L < l2:
        band = "NONEXIST"
    else:
        band = "GAP"
    result = minimize(line_graph(L), MU, P, config)
    print(f"{L:8.2f} {band:>9} {result.verdict:>24} {result.energy:13.6e} {result.bound:9.1e} "
          f"{result.n_theta:9.2e} {result.r_cut:9.2e}")

print("""
Reading the table: NEGATIVE_MINIMUM in the NONEXIST band or a zero infimum
in the EXIST band would be soundness bugs. ZERO_INFIMUM_SUSPECTED is
evidence only: the run ended within the rounding bound of 0 with its mass
spread over the cut. GAP rows carry no analytic prediction, and the
vanishing energies there suggest the actual transition sits above
meas(K) = 1.6 for this family. The meas(K) = 2.5 state is bound weakly, yet
its tails decay within the cut by far more than the 20 e-folds that settle
its energy.""")
