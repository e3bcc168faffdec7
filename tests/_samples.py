"""Sample graphs and random decaying functions shared by the property tests."""
import numpy as np

from graphnls.functions import GraphFunction, Mesh, neighbor_average
from graphnls.graphs import MetricGraph, double_bridge, line_graph, star_graph


def sample_graphs() -> list[MetricGraph]:
    """One graph per shape: a line, parallel core edges, a three-armed star."""
    return [
        line_graph(1.0),
        double_bridge(0.7, 1.3),
        star_graph((0.5, 0.8, 1.1), half_lines_per_terminal=1),
    ]


def random_decaying(mesh: Mesh, rng: np.random.Generator) -> GraphFunction:
    """Positive piecewise-linear function with exponential half-line tails;
    smooth enough for meaningful interpolation-inequality slacks."""
    values = np.empty(mesh.n_dofs)
    for eid, dofs in mesh.edge_dofs.items():
        xs = mesh.edge_coords[eid]
        base = rng.uniform(0.3, 1.0)
        wig = 0.2 * np.sin(rng.uniform(1.0, 3.0) * xs + rng.uniform(0.0, 6.28))
        prof = base + wig
        if mesh.graph.edges_by_id[eid].is_half_line:
            prof = prof * np.exp(-rng.uniform(1.5, 2.5) * xs)
        values[dofs] = prof
    # smooth wiggles across vertices with two averaging passes
    return GraphFunction(mesh, neighbor_average(mesh, np.abs(values) + 1e-3, 2))
