"""The benchmark's span hooks name attributes of graphnls by string: a
rename or a removal in the program would otherwise surface only when a
traced benchmark run fails to install its hooks."""
import importlib.util
from pathlib import Path

import pytest

from graphnls import cli, energy, functions, solver, thresholds

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _hook_points():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    gn = {"functions": functions, "energy": energy, "solver": solver, "thresholds": thresholds, "cli": cli}
    return spans.hook_points(gn)


HOOKS = [(name, owner, attr) for name, points in _hook_points().items() for owner, attr, _ in points]


@pytest.mark.parametrize(
    "name,owner,attr", HOOKS, ids=[f"{name}:{getattr(owner, '__name__', owner)}.{attr}" for name, owner, attr in HOOKS]
)
def test_every_benchmark_hook_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"span {name} hooks {owner!r}.{attr}, which does not exist"


def test_hooks_cover_the_solver_entry_points():
    hooked = {(owner, attr) for _, owner, attr in HOOKS}
    for point in (
        (solver, "minimize"),
        (solver, "splu"),
        (solver, "energy_report"),
        (solver, "el_residual"),
        (energy.EnergyOperator, "value"),
        (energy.EnergyOperator, "gradient"),
        (cli, "existence_dichotomy"),
    ):
        assert point in hooked
