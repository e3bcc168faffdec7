"""graphnls benchmark: fixed workloads timed end to end, and per layer on request.

Run from the repository root:

    python3 bench/run.py --workload bound_states --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload phase_sweep --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --smoke        # tiny inputs, every workload, both modes

A run sets up its inputs (several times, reporting the median), then runs
whole rounds of the workload's operations until ``--seconds`` have passed,
checks every output against references computed apart from graphnls, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics and the tracing
overhead. See README.md next to this file.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS thread pools would add threads beyond the sweep's two workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from spans import LAYER_METRICS, Tracer, hooks, layer_metrics  # noqa: E402

MU = 1.0
SETUP_REPEATS = 3
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import graphnls from this checkout's sources, never from elsewhere."""
    src = REPO / "src"
    if not (src / "graphnls" / "__init__.py").is_file():
        sys.exit(f"error: graphnls sources not found under {src}")
    sys.path.insert(0, str(src))
    import graphnls
    from graphnls import cli, energy, functions, solver, thresholds

    if Path(graphnls.__file__).resolve().parent != (src / "graphnls").resolve():
        sys.exit(f"error: imported graphnls from {graphnls.__file__}, not from {src}")
    return {"graphnls": graphnls, "cli": cli, "energy": energy, "functions": functions,
            "solver": solver, "thresholds": thresholds}


class Checks:
    """Collects every output that disagrees with its reference."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def close(self, got: float, want: float, rel: float, what: str) -> bool:
        return self.expect(math.isclose(got, want, rel_tol=rel, abs_tol=0.0),
                           f"{what}: got {got!r}, reference {want!r} (rel tol {rel:g})")


def _structure(graph):
    """(vertices, core edge endpoints, half-line anchors) of a graph."""
    return ([v for v in graph.vertex_ids], [(e.tail, e.head) for e in graph.core_edges],
            [e.tail for e in graph.half_lines])


# ---------------------------------------------------------------------------
# workloads


class BoundStates:
    """One op is one ``minimize`` call on line(1) or bridge(.5,.5) at one p.

    Every round draws fresh starting states from the seed: the default
    plateau start times 1 + 5% noise, back on the mass sphere. No two rounds
    share an input, yet the descent forgets the noise within its first
    stage (iteration counts move by a few in 14k), so the work per op does
    not depend on the seed or the round.
    """

    name = "bound_states"
    base_hooks: tuple[str, ...] = ()
    faulty_per_round = 0

    def __init__(self, gn, seed: int, smoke: bool):
        self.gn, self.seed = gn, seed
        # p = 3.5 decays over about 19 lengths and needs the deep schedule
        self.powers = (2.5, 3.0) if smoke else (2.5, 3.0, 3.5)
        self.schedule = (20.0, 40.0) if smoke else (20.0, 40.0, 80.0, 160.0)
        self.observers = {}
        self.energies: dict[str, float] = {}

    def setup(self, checks: Checks) -> None:
        g = self.gn["graphnls"]
        self.rng = np.random.default_rng(self.seed)
        self.config = g.SolverConfig(r_cut_schedule=self.schedule, h_max=0.02, max_iters=8000)
        self.cases = []
        for label, graph in (("line(1)", g.line_graph(1.0)), ("bridge(.5,.5)", g.double_bridge(0.5, 0.5))):
            for p in self.powers:
                mesh = g.Mesh(graph, h_max=0.02, r_cut=self.schedule[0])
                start = g.initializer_competitor(graph, MU, p, mesh=mesh)
                self.cases.append((f"{label} p={p}", graph, p, start))
        self.refs = {p: ref.line_ground_state(1.0, MU, p)[0] for p in self.powers}

    def next_round(self) -> None:
        g = self.gn["graphnls"]
        self.ops = []
        for label, graph, p, start in self.cases:
            noisy = start.values * (1.0 + 0.05 * self.rng.uniform(-1.0, 1.0, start.values.shape))
            self.ops.append((label, graph, p, g.project_mass(start.with_values(noisy), MU)))

    def warm_up(self):
        g = self.gn["graphnls"]
        return self.gn["solver"].minimize(g.line_graph(1.0), MU, 3.0,
                                          g.SolverConfig(r_cut_schedule=(5.0,), h_max=0.1)).energy

    def run_round(self, tracer: Tracer, checks: Checks) -> list[tuple[str, float, bool]]:
        out = []
        for label, graph, p, initial in self.ops:
            t0 = time.perf_counter()
            try:
                res = self.gn["solver"].minimize(graph, MU, p, self.config, initial=initial)
            except Exception as exc:  # an op that raises is a failed op and a wrong result
                out.append((label, time.perf_counter() - t0, True))
                checks.expect(False, f"{label}: raised {type(exc).__name__}: {exc}")
                continue
            out.append((label, time.perf_counter() - t0, False))
            self.check(label, p, res, checks)
        return out

    def check(self, label: str, p: float, res, checks: Checks) -> None:
        checks.expect(res.verdict == "NEGATIVE_MINIMUM", f"{label}: verdict {res.verdict} for p < 4")
        checks.expect(abs(res.report.mass - MU) <= 1e-10, f"{label}: mass {res.report.mass!r} != {MU}")
        if label.startswith("line"):
            checks.close(res.energy, self.refs[p], 1e-3, f"{label}: energy vs shooting")
        # the starting noise must not reach the minimum
        first = self.energies.setdefault(label, res.energy)
        checks.close(res.energy, first, 1e-9, f"{label}: energy vs an earlier round's")

    def close(self) -> None:
        pass


# stars with one or two leads per terminal; partition enumeration walks an
# r^(N+E) product, so these span about 0.1 ms to 0.2 s per certificate
STAR_LEADS = ((1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (2, 2, 1))
SMOKE_STAR_LEADS = STAR_LEADS[:4]
DEMO_GRAPHS = ("line", "double_bridge", "star", "broom")


class Certificates:
    """The analytic side of the existence question, as one op per round:
    ``threshold_report`` plus ``certify_nonexistence`` on each of the demo
    graphs (p = 4, mu = 1), a seeded family of stars and a broom (one arm of
    0.9, two leads at its end; p = 4, mu = 1).

    Every round draws each star's arm lengths, p and mu. The broom's hub is
    a dead end, so only c = sqrt(2) holds there; a certificate valid only
    under the two-lead constant c = 1 is unsound, and the op that issues one
    counts as failed.
    """

    label = "certificates"

    def __init__(self, gn, rng, star_leads):
        self.gn, self.rng, self.star_leads = gn, rng, star_leads

    def setup(self) -> None:
        g = self.gn["graphnls"]
        self.demos = [self._case(name, g.load_graph(REPO / "demos" / "graphs" / f"{name}.graph"), 4.0, MU)
                      for name in DEMO_GRAPHS]
        self.broom = self._case("broom(0.9)", g.star_graph((0.9,), half_lines_per_terminal=2), 4.0, MU)

    def next_round(self) -> None:
        """Fresh arm lengths, p and mu for every star; the topologies, and
        with them the enumeration work, stay fixed."""
        g = self.gn["graphnls"]
        stars = []
        for leads in self.star_leads:
            lengths = [float(x) for x in self.rng.uniform(0.2, 1.2, len(leads))]
            p = float(self.rng.choice([4.0, 4.5, 5.0]))
            mu = float(self.rng.uniform(0.8, 1.25))
            vertices = ["hub"] + [f"t{i}" for i in range(1, len(leads) + 1)]
            core = [(f"arm{i}", "hub", f"t{i}", length) for i, length in enumerate(lengths, 1)]
            half = [(f"lead{i}_{k}", f"t{i}") for i, n in enumerate(leads, 1) for k in range(1, n + 1)]
            stars.append(self._case(f"star{leads}", g.metric_graph(vertices, core, half), p, mu))
        self.cases = [*self.demos, *stars, self.broom]

    @staticmethod
    def _case(label, graph, p, mu):
        n = graph.n_half_lines
        dead_end = ref.has_dead_end(*_structure(graph))
        expect = {
            "n": n,
            "dead_end": dead_end,
            "l1": ref.l1_exist(p, mu, n),
            "l2_by_n": ref.l2_nonexist(p, mu, *ref.gn_constants(p, False, n)),
            "l2": ref.l2_nonexist(p, mu, *ref.gn_constants(p, dead_end, n)),
            "best": ref.best_partition_measure([e.length for e in graph.core_edges], n),
        }
        return label, graph, p, mu, expect

    def warm_up(self):
        g = self.gn["graphnls"]
        report = self.gn["thresholds"].threshold_report(4.5, MU, 2)
        cert = self.gn["thresholds"].certify_nonexistence(g.star_graph((0.5, 0.5)), 4.0, MU)
        return report.to_dict(), cert.to_dict()

    def run(self, checks: Checks) -> tuple[str, float, bool]:
        """The op: every case once. Its time excludes the checks."""
        thresholds = self.gn["thresholds"]
        elapsed, failed = 0.0, False
        for label, graph, p, mu, expect in self.cases:
            t0 = time.perf_counter()
            try:
                report = thresholds.threshold_report(p, mu, expect["n"])
                cert = thresholds.certify_nonexistence(graph, p, mu)
            except Exception as exc:  # an op that raises is a failed op and a wrong result
                elapsed += time.perf_counter() - t0
                checks.expect(False, f"{label}: raised {type(exc).__name__}: {exc}")
                failed = True
                continue
            elapsed += time.perf_counter() - t0
            failed |= self.check(label, p, expect, report, cert, checks)
        return self.label, elapsed, failed

    def check(self, label, p, expect, report, cert, checks: Checks) -> bool:
        """Checks one op; returns True when its certificate is unsound."""
        checks.close(report.l1_exist, expect["l1"], 1e-12, f"{label}: L1")
        # threshold_report sees only N, so its L2 uses the constants for N
        checks.close(report.l2_nonexist, expect["l2_by_n"], 1e-12, f"{label}: L2 by N")
        if p > 4.0:
            checks.close(report.c_p, ref.c_p(p), 1e-12, f"{label}: C_p")
        checks.close(cert.max_part_measure, expect["best"], 1e-12, f"{label}: best largest-part measure")
        checks.expect(cert.valid == (cert.max_part_measure < cert.threshold),
                      f"{label}: valid={cert.valid} but {cert.max_part_measure!r} vs threshold {cert.threshold!r}")
        if not expect["dead_end"]:
            checks.close(cert.threshold, expect["l2"], 1e-12, f"{label}: certificate threshold")
            checks.expect(cert.valid == (expect["best"] < expect["l2"]), f"{label}: valid={cert.valid}")
            return False
        # with a dead end only c = sqrt(2) is known to hold: a certificate
        # that needs more is issued on the wrong constants
        return bool(cert.valid and cert.max_part_measure >= expect["l2"])


class PhaseSweep:
    """The existence question answered both ways. Each round runs an
    in-process ``graphnls sweep`` of the demo line graph at p = 4 with two
    worker threads, one op per grid point, and then the ``Certificates`` op.

    The grid has one point in each band (NONEXIST, GAP, EXIST). The seed is
    the sweep's own ``seed`` key, which moves the three random starts of
    every dichotomy and changes their iteration counts by well under 1%,
    and it draws the certified stars. Every round repeats the same spec, so
    that its phase.csv rows can be compared byte for byte.
    """

    name = "phase_sweep"
    base_hooks = ("cli.point",)   # per-point wall times come from these spans
    faulty_per_round = 1   # the broom certificate
    P = 4.0

    def __init__(self, gn, seed: int, smoke: bool):
        self.gn, self.seed = gn, seed
        self.grid = (0.25, 1.25, 4.0)
        if smoke:
            self.solver, self.rel = {"h_max": 0.05, "r_cut_schedule": [10, 20], "max_iters": 3000}, 2e-2
        else:
            self.solver, self.rel = {"h_max": 0.02, "r_cut_schedule": [10, 20, 40, 80], "max_iters": 8000}, 2e-3
        self.certs = Certificates(gn, np.random.default_rng(seed), SMOKE_STAR_LEADS if smoke else STAR_LEADS)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=BENCH_DIR))
        self.observers = {"cli.point": self._check_runs}
        self.rows: list[str] | None = None
        cap = os.environ.get("GRAPHNLS_THREADS")   # the program's own cap on the pool
        self.workers = max(1, min(2, int(cap) if cap else 2, len(self.grid)))

    def _write_spec(self, name: str, grid, solver: dict) -> Path:
        spec = {"axis": "core_scale", "grid": list(grid), "graph": "line.graph", "mu": MU, "p": self.P,
                "out_dir": f"{name}_out", "threads": 2, "seed": self.seed, "solver": solver}
        path = self.tmp / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def setup(self, checks: Checks) -> None:
        demo = self.gn["graphnls"].load_graph(REPO / "demos" / "graphs" / "line.graph")
        shutil.copyfile(REPO / "demos" / "graphs" / "line.graph", self.tmp / "line.graph")
        self.spec = self._write_spec("sweep", self.grid, self.solver)
        self.warm_spec = self._write_spec("warm", (0.5, 4.0), {"h_max": 0.1, "r_cut_schedule": [5, 10]})
        n = demo.n_half_lines
        dead_end = ref.has_dead_end(*_structure(demo))
        self.l1 = ref.l1_exist(self.P, MU, n)
        self.l2 = ref.l2_nonexist(self.P, MU, *ref.gn_constants(self.P, dead_end, n))
        base = sum(e.length for e in demo.core_edges)
        self.bands = {s: self._band(s * base) for s in self.grid}
        checks.expect(sorted(self.bands.values()) == ["EXIST_BAND", "GAP", "NONEXIST_BAND"],
                      f"grid does not cover every band: {self.bands}")
        self.refs = {s: ref.line_ground_state(s * base, MU, self.P)[0]
                     for s in self.grid if self.bands[s] == "EXIST_BAND"}
        self.certs.setup()

    def _band(self, meas: float) -> str:
        if meas > self.l1:
            return "EXIST_BAND"
        return "NONEXIST_BAND" if meas < self.l2 else "GAP"

    def _sweep(self, spec: Path) -> tuple[int, list[str]]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.gn["cli"].main(["sweep", str(spec)])
        out = self.tmp / f"{spec.stem}_out" / "phase.csv"
        lines = out.read_text(encoding="utf-8").splitlines() if out.is_file() else []
        # the header names the installed version ("unknown" from a checkout)
        return code, [ln for ln in lines if not ln.startswith("#")]

    def warm_up(self):
        return self._sweep(self.warm_spec), self.certs.warm_up()

    def next_round(self) -> None:
        self.certs.next_round()

    def _check_runs(self, _tracer, result) -> None:
        for label, run in result.runs.items():
            self.checks.expect(abs(run.report.mass - MU) <= 1e-10,
                               f"dichotomy start {label}: mass {run.report.mass!r} != {MU}")

    def run_round(self, tracer: Tracer, checks: Checks) -> list[tuple[str, float, bool]]:
        self.checks = checks   # for the dichotomy results seen by _check_runs
        mark = len(tracer.spans)
        code, lines = self._sweep(self.spec)
        points = sorted(t1 - t0 for _sid, name, _tid, _par, t0, t1 in tracer.spans[mark:] if name == "cli.point")
        checks.expect(code == 0, f"sweep exit code {code}")
        checks.expect(len(points) == len(self.grid), f"{len(points)} timed points for {len(self.grid)} grid values")
        self.check_rows(lines, checks)
        if self.rows is None:
            self.rows = lines
        checks.expect(lines == self.rows, "phase.csv data rows differ from an earlier round's")
        # spans do not name their grid value; the points differ in cost
        # enough that rank by duration identifies them
        return [*((f"point{k}", dt, False) for k, dt in enumerate(points)), self.certs.run(checks)]

    def check_rows(self, lines: list[str], checks: Checks) -> None:
        if not checks.expect(bool(lines) and lines[0] == "axis_value,E_min,verdict,L1,L2,band",
                             f"phase.csv header row {lines[:1]}"):
            return
        rows = [ln.split(",") for ln in lines[1:]]
        checks.expect([float(r[0]) for r in rows] == list(self.grid), f"phase.csv axis values {[r[0] for r in rows]}")
        for value, e_min, verdict, l1, l2, band in rows:
            s = float(value)
            want = self.bands.get(s)
            checks.expect(band == want, f"point {value}: band {band}, closed forms give {want}")
            checks.close(float(l1), self.l1, 1e-12, f"point {value}: L1")
            checks.close(float(l2), self.l2, 1e-12, f"point {value}: L2")
            if want == "NONEXIST_BAND":
                checks.expect(verdict != "NEGATIVE_MINIMUM", f"point {value}: NEGATIVE_MINIMUM below L2")
            if want == "EXIST_BAND":
                checks.expect(verdict != "ZERO_INFIMUM_SUSPECTED", f"point {value}: ZERO_INFIMUM_SUSPECTED above L1")
                checks.close(float(e_min), self.refs[s], self.rel, f"point {value}: E_min vs shooting")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (BoundStates, PhaseSweep)}


# ---------------------------------------------------------------------------
# harness


def timed_round(workload, tracer: Tracer, checks: Checks, records: list) -> float:
    """Runs one round of the workload's ops; returns their wall time."""
    gc.collect()  # start every round from the same heap state
    t0 = time.perf_counter()
    records.extend(workload.run_round(tracer, checks))
    return time.perf_counter() - t0


def import_seconds(repeats: int) -> float:
    """Median time to import graphnls in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import graphnls.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=REPO, capture_output=True,
                             text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def set_up(gn, cls, seed: int, smoke: bool, checks: Checks, repeats: int):
    """Builds inputs and warms up ``repeats`` times; returns the last
    workload and the median set-up time. Warm-up results must repeat
    exactly from one set-up to the next."""
    times, outputs, workload = [], [], None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = cls(gn, seed, smoke)
        try:
            workload.setup(checks)
            outputs.append(workload.warm_up())
        except BaseException:
            workload.close()
            raise
        times.append(time.perf_counter() - t0)
    checks.expect(all(out == outputs[0] for out in outputs), "warm-up results differ between set-ups")
    return workload, statistics.median(times)


def measure(gn, cls, seed: int, seconds: float, trace: bool, smoke: bool = False, spans_path=None):
    """One benchmark run. Returns the result object printed as JSON and the
    number of rounds run."""
    checks = Checks()
    repeats = 1 if smoke else SETUP_REPEATS
    import_s = import_seconds(repeats)
    workload, setup_s = set_up(gn, cls, seed, smoke, checks, repeats)
    plain = Tracer()   # only the workload's own hooks, for op timing
    records: list[tuple[str, float, bool]] = []   # (op, wall time, failed)
    rounds = 0
    try:
        if not trace:
            round_times = []
            with hooks(plain, gn, workload.base_hooks, workload.observers):
                while not round_times or (sum(round_times) < seconds and not smoke):
                    workload.next_round()
                    round_times.append(timed_round(workload, plain, checks, records))
            rounds = len(round_times)
            # best of the run's rounds: on a shared host one op's time can
            # drift by tens of percent within seconds (README.md has
            # figures), and its fastest instance is the least disturbed
            fastest: dict[str, float] = {}
            for label, dt, _ in records:
                fastest[label] = min(dt, fastest.get(label, math.inf))
            values = {
                "setup_s": import_s + setup_s,
                "ops_per_s": len(records) / rounds / min(round_times),
                "op_p50_s": statistics.median(fastest.values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        else:
            # untraced and traced rounds alternate in the order U T T U ...,
            # so that drift of the machine's speed cancels; the untraced
            # rounds are the overhead baseline
            full = Tracer()
            plain_s = traced_s = 0.0
            pairs = 0
            while pairs == 0 or (traced_s < seconds and not smoke):
                for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
                    workload.next_round()
                    if traced:
                        with hooks(full, gn, None, workload.observers):
                            traced_s += timed_round(workload, full, checks, records)
                    else:
                        with hooks(plain, gn, workload.base_hooks, workload.observers):
                            plain_s += timed_round(workload, plain, checks, records)
                pairs += 1
            rounds = 2 * pairs
            values = layer_metrics(full.spans, full.notes, pairs, getattr(workload, "workers", 1))
            values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
            if spans_path:
                full.write(spans_path)
    finally:
        workload.close()
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not checks.problems, "attempted": len(records),
              "failed": sum(1 for _, _, failed in records if failed), "metrics": metrics}
    return result, rounds


def smoke(gn) -> int:
    """Self-test: every workload on tiny inputs, untraced and traced."""
    ok = True
    for name, cls in WORKLOADS.items():
        for trace in (False, True):
            result, rounds = measure(gn, cls, seed=0, seconds=0.0, trace=trace, smoke=True)
            want = LAYER_METRICS if trace else END_TO_END
            complete = set(result["metrics"]) == set(want)
            good = result["correct"] and complete and result["failed"] == rounds * cls.faulty_per_round
            ok &= good
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, also write every span to this JSON-lines file")
    parser.add_argument("--smoke", action="store_true", help="run the tiny self-test and exit")
    args = parser.parse_args(argv)
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    gn = import_program()
    if args.smoke:
        return smoke(gn)
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = measure(gn, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                        spans_path=args.spans)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
