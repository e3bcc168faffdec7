"""Command-line front end.

Subcommands cover the full workflow: validate a graph file, run a single
constrained minimization, print threshold reports, search for nonexistence
certificates, and sweep a parameter axis into a phase-diagram CSV.

Exit codes: 0 ok, 1 usage/validation, 2 certificate-not-found, 3 internal.
CSV outputs are byte-identical for identical inputs, apart from the
versioned header line. All JSON payloads carry a schema_version field.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .energy import SCHEMA_VERSION, gn_constants, require_mu, require_p
from .functions import save_function
from .graphs import (
    MetricGraph,
    Partition,
    core_measure,
    homothety,
    load_graph,
    validate,
)
from .solver import (
    INCONCLUSIVE,
    ZERO_INFIMUM_SUSPECTED,
    SolverConfig,
    existence_dichotomy,
    initializer_random,
    initializer_soliton,
    minimize,
    start_mesh,
)
from .thresholds import (
    certify_nonexistence,
    threshold_exist,
    threshold_nonexist,
    threshold_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CERTIFICATE = 2
EXIT_INTERNAL = 3

try:
    from importlib.metadata import version as _dist_version

    _VERSION = _dist_version("graphnls")
except Exception:  # pragma: no cover - metadata missing in odd installs
    _VERSION = "unknown"


def _csv_header() -> str:
    return f"# graphnls {_VERSION} schema_version={SCHEMA_VERSION}\n"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 1 for usage errors; argparse's default
    # error() would sys.exit(2), which is the certificate-not-found code
    def error(self, message: str):
        raise _UsageError(message)


def _spec_number(value, key: str) -> float:
    # float() reads JSON true and false as 1.0 and 0.0, and "2" as 2.0, and
    # raises OverflowError on a JSON integer beyond the float64 range
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _UsageError(f"{key} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise _UsageError(f"{key} is out of float64 range, got an integer of {len(str(abs(value)))} digits") from None


def _spec_path(value, key: str, base: Path) -> Path:
    # relative paths resolve next to the sweep file itself
    if not isinstance(value, str):
        raise _UsageError(f"{key} must be a path string, got {json.dumps(value)}")
    path = Path(value)
    return path if path.is_absolute() else base / path


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    graph = load_graph(args.graph)
    report = validate(graph)
    if report.ok:
        print(
            f"valid: {len(graph.edges)} edge(s), core measure {core_measure(graph)!r}, "
            f"{graph.n_half_lines} half-line(s)"
        )
        return EXIT_OK
    print("invalid:")
    for violation in report.violations:
        print(f"  - {violation}")
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# minimize


def _solver_config(args) -> SolverConfig:
    updates: dict = {}
    if args.h is not None:
        updates["h_max"] = args.h
    if args.max_iters is not None:
        updates["max_iters"] = args.max_iters
    return SolverConfig(**updates)


def cmd_minimize(args) -> int:
    require_p(args.p)
    require_mu(args.mu)
    graph = load_graph(args.graph)
    graph.require_valid()
    cfg = _solver_config(args)

    if (args.init_edge is not None or args.init_offset is not None) and args.init != "soliton":
        raise _UsageError("--init-edge/--init-offset require --init soliton")
    # the start is sampled on the start mesh; the competitor is minimize's
    # own default start
    initial = None
    if args.init != "competitor":
        mesh = start_mesh(graph, cfg.h_max)
        if args.init == "soliton":
            initial = initializer_soliton(
                graph, args.mu, args.p, mesh, center_edge=args.init_edge, center_offset=args.init_offset
            )
        else:
            initial = initializer_random(graph, args.mu, args.p, mesh, seed=args.seed)

    result = minimize(graph, args.mu, args.p, cfg, initial=initial)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    payload = result.to_dict()
    payload.update(
        {
            "graph_file": str(args.graph),
            "initializer": args.init,
            "seed": args.seed,
            "h_max": cfg.h_max,
        }
    )
    (out_dir / "result.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    with open(out_dir / "trace.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_header())
        fh.write("iter,energy,grad_norm,step\n")
        for it, energy, grad_norm, step in result.trace:
            fh.write(f"{it},{energy!r},{grad_norm!r},{step!r}\n")

    save_function(result.function, out_dir / "state.csv")

    print(f"verdict: {_verdict_text(result.verdict)}")
    print(f"energy: {result.energy!r}")
    print(f"wrote {out_dir / 'result.json'}, trace.csv, state.csv")
    return EXIT_OK


def _verdict_text(verdict: str) -> str:
    return f"{verdict} (evidence only)" if verdict == ZERO_INFIMUM_SUSPECTED else verdict


# ---------------------------------------------------------------------------
# thresholds


def cmd_thresholds(args) -> int:
    require_p(args.p)
    require_mu(args.mu)
    if args.N < 1:
        raise _UsageError("N must be at least 1")
    # caller-given constants are checked at every p, also below 4, where no
    # threshold uses them
    gn_constants(args.p, args.N, args.C, args.c)
    if args.p < 4.0:
        # below the L^2-critical power of the half-line problem the ground
        # state is attained for every mass and every core measure
        print("existence unconditional")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "p": args.p,
            "mu": args.mu,
            "n_half_lines": args.N,
            "existence": "unconditional",
            "l1_exist": 0.0,
            "l2_nonexist": 0.0,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    report = threshold_report(args.p, args.mu, args.N, C=args.C, c=args.c)
    rows = [
        ("p", report.p),
        ("mu", report.mu),
        ("half-lines", report.n_half_lines),
        ("gn constant c", report.c),
        ("gn constant C", report.C),
        ("L1 (exists above)", report.l1_exist),
        ("L2 (none below)", report.l2_nonexist),
        ("coefficient C_p", report.c_p),
        ("consistent (L2 <= L1)", report.consistent),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value!r}")
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def _read_partition_file(path) -> list[frozenset[str]]:
    """One part per line: whitespace-separated edge ids; # starts a comment."""
    parts: list[frozenset[str]] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        ids = line.split()
        if len(set(ids)) != len(ids):
            raise _UsageError(f"partition file line {lineno}: repeated edge id")
        parts.append(frozenset(ids))
    if not parts:
        raise _UsageError("partition file defines no parts")
    return parts


def cmd_certify(args) -> int:
    require_p(args.p)
    require_mu(args.mu)
    if args.p < 4.0:
        raise _UsageError(
            "nonexistence certification applies to p in [4,6); "
            "for p in (2,4) existence is unconditional"
        )
    graph = load_graph(args.graph)
    graph.require_valid()
    partitions = None
    if args.partition is not None:
        partitions = [Partition(tuple(_read_partition_file(args.partition)))]
    certificate = certify_nonexistence(graph, args.p, args.mu, partitions=partitions)
    print(json.dumps(certificate.to_dict(), indent=2, sort_keys=True))
    if certificate.valid:
        where = "whole graph" if certificate.whole_graph else (
            f"partition into {len(certificate.partition.parts)} regions"
        )
        print(f"certificate found ({where}): largest region core measure "
              f"{certificate.max_part_measure!r} < threshold {certificate.threshold!r}")
        return EXIT_OK
    print("certificate not found")
    return EXIT_NO_CERTIFICATE


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    grid: tuple[float, ...]
    graph_file: Path
    mu: float
    p: float
    out_dir: Path
    config: SolverConfig

    @staticmethod
    def from_file(path) -> "SweepSpec":
        sweep_path = Path(path)
        try:
            data = json.loads(sweep_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise _UsageError(f"sweep file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise _UsageError("sweep file must hold a JSON object")
        for key in ("axis", "grid", "graph"):
            if key not in data:
                raise _UsageError(f"sweep file missing required key {key!r}")
        axis = data["axis"]
        if axis not in ("core_scale", "mu", "p"):
            raise _UsageError("axis must be one of core_scale, mu, p")
        if not isinstance(data["grid"], list):
            raise _UsageError("grid must be a list of numbers")
        grid = tuple(_spec_number(v, "grid") for v in data["grid"])
        if not grid:
            raise _UsageError("grid must be nonempty")
        # json reads NaN and Infinity
        for v in grid:
            if axis == "p":
                if not 2.0 < v < 6.0:
                    raise _UsageError(f"grid value {v!r} outside (2,6) for axis p")
            elif not (math.isfinite(v) and v > 0.0):
                raise _UsageError(f"grid value {v!r} must be finite and positive for axis {axis}")
        graph_file = _spec_path(data["graph"], "graph", sweep_path.parent)
        out_dir = _spec_path(data.get("out_dir", "sweep_out"), "out_dir", sweep_path.parent)
        mu = _spec_number(data.get("mu", 1.0), "mu")
        p = _spec_number(data.get("p", 4.0), "p")
        if axis != "mu":
            require_mu(mu)
        if axis != "p":
            require_p(p)
        # "threads" and "seed" keys from older specs are ignored (points run
        # serially, from deterministic starts), and so is the solver's
        # "r_cut_schedule"; the seed and the schedule are still validated.
        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise _UsageError(f"seed must be an integer, got {seed!r}")
        solver = data.get("solver", {})
        if not isinstance(solver, dict):
            raise _UsageError("solver overrides must be a JSON object")
        # an unknown key or bad value caught only inside the sweep would
        # turn every point into an undecided row
        try:
            config = SolverConfig(**solver)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad solver overrides {solver!r}: {exc}")
        return SweepSpec(axis, grid, graph_file, mu, p, out_dir, config)


def _band(graph: MetricGraph, p: float, mu: float) -> tuple[float, float, str]:
    """Analytic bands: above L1 existence is guaranteed, below L2 (with the
    graph's GN constants) it is ruled out, in between the theory is open."""
    meas = core_measure(graph)
    if p < 4.0:
        return 0.0, 0.0, "EXIST_BAND"
    l1 = threshold_exist(p, mu, graph.n_half_lines)
    C, c = gn_constants(p, graph)
    l2 = threshold_nonexist(p, mu, C=C, c=c)
    if meas > l1:
        return l1, l2, "EXIST_BAND"
    if meas < l2:
        return l1, l2, "NONEXIST_BAND"
    return l1, l2, "GAP"


def _sweep_problem(base, spec: SweepSpec, axis_value: float) -> tuple:
    """The graph, mu, p and ``_band`` of the sweep point at ``axis_value``."""
    graph = homothety(base, axis_value) if spec.axis == "core_scale" else base
    mu = axis_value if spec.axis == "mu" else spec.mu
    p = axis_value if spec.axis == "p" else spec.p
    return graph, mu, p, _band(graph, p, mu)


def _sweep_point(spec: SweepSpec, axis_value: float, problem: tuple) -> tuple[tuple, dict]:
    """One phase.csv row and its sweep_log.json record (wall time, and
    the exception that ended the point, if any)."""
    t0 = time.perf_counter()
    graph, mu, p, (l1, l2, band) = problem
    error = None
    try:
        result = existence_dichotomy(graph, mu, p, spec.config)
        row = (axis_value, result.best_energy, result.verdict, l1, l2, band)
    except Exception as exc:
        # a failed point must not kill the sweep: its row is undecided and
        # the log names the exception
        error = f"{type(exc).__name__}: {exc}"
        row = (axis_value, float("nan"), INCONCLUSIVE, l1, l2, band)
    return row, {"axis_value": axis_value, "seconds": time.perf_counter() - t0, "error": error}


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_file(args.sweep)
    base = load_graph(spec.graph_file)
    base.require_valid()

    # every point's closed-form bands before any point runs: a threshold out
    # of float64 range (near p = 6) is a usage error, not a lost sweep
    problems = [_sweep_problem(base, spec, v) for v in spec.grid]
    # one point after another: the work holds the GIL, so worker threads
    # would only contend for it
    points = [_sweep_point(spec, v, problem) for v, problem in zip(spec.grid, problems)]
    rows = [row for row, _ in points]

    spec.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = spec.out_dir / "phase.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_header())
        fh.write("axis_value,E_min,verdict,L1,L2,band\n")
        for value, e_min, verdict, l1, l2, band in rows:
            fh.write(f"{value!r},{e_min!r},{verdict},{l1!r},{l2!r},{band}\n")
    # wall times change between reruns: keep them out of the byte-identical phase.csv
    log = {"schema_version": SCHEMA_VERSION, "axis": spec.axis, "points": [record for _, record in points]}
    (spec.out_dir / "sweep_log.json").write_text(json.dumps(log, indent=2) + "\n", encoding="utf-8")

    for value, e_min, verdict, l1, l2, band in rows:
        print(f"{spec.axis}={value!r}: {_verdict_text(verdict)} E_min={e_min!r} band={band}")
    print(f"wrote {out_path}, sweep_log.json")

    unsound = [
        row for row in rows if row[5] == "EXIST_BAND" and row[2] == ZERO_INFIMUM_SUSPECTED
    ]
    if unsound:
        values = ", ".join(repr(row[0]) for row in unsound)
        print(
            "sweep soundness violation: zero infimum reported inside the "
            f"guaranteed-existence band at {spec.axis} in {{{values}}}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    # built once per process: parsing leaves the parser as it was
    ap = _Parser(
        prog="graphnls",
        description=(
            "Ground states of the focusing NLS energy on metric graphs with "
            "the nonlinearity confined to the compact core"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse and validate a graph file")
    sp.add_argument("graph", help="graph text file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("minimize", help="run a single constrained minimization")
    sp.add_argument("graph", help="graph text file")
    sp.add_argument("--mu", type=float, default=1.0, help="mass constraint (default 1)")
    sp.add_argument("--p", type=float, default=4.0, help="nonlinearity power in (2,6)")
    sp.add_argument("--h", type=float, default=None, help="target mesh width")
    sp.add_argument(
        "--init",
        choices=("competitor", "soliton", "random"),
        default="competitor",
        help="initial guess family",
    )
    sp.add_argument("--init-edge", default=None, help="core edge id for the soliton center")
    sp.add_argument(
        "--init-offset",
        type=float,
        default=None,
        help="soliton center offset along --init-edge",
    )
    sp.add_argument("--seed", type=int, default=0, help="seed for the random initializer")
    sp.add_argument("--max-iters", type=int, default=None, help="iteration cap of the descent")
    sp.add_argument("--out", default="run_out", help="output directory for artifacts")
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("thresholds", help="print the analytic threshold report")
    sp.add_argument("--p", type=float, required=True, help="nonlinearity power in (2,6)")
    sp.add_argument("--mu", type=float, default=1.0, help="mass constraint (default 1)")
    sp.add_argument("--N", type=int, default=2, help="number of half-lines (default 2)")
    sp.add_argument("--c", type=float, default=None, help="override sup-norm constant")
    sp.add_argument("--C", type=float, default=None, help="override L^p constant")
    sp.set_defaults(func=cmd_thresholds)

    sp = sub.add_parser("certify", help="search for a nonexistence certificate")
    sp.add_argument("graph", help="graph text file")
    sp.add_argument("--p", type=float, required=True, help="nonlinearity power in [4,6)")
    sp.add_argument("--mu", type=float, default=1.0, help="mass constraint (default 1)")
    sp.add_argument(
        "--partition",
        default=None,
        help="file with one region per line (whitespace-separated edge ids)",
    )
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("sweep", help="run a parameter sweep into phase.csv")
    sp.add_argument("sweep", help="JSON sweep file (axis, grid, graph, solver)")
    sp.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    # GraphFormatError and InvalidGraphError are ValueErrors
    except (_UsageError, FileNotFoundError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
