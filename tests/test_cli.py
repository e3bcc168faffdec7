import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from graphnls import cli, solver
from graphnls.graphs import load_graph
from graphnls.solver import initializer_soliton, start_mesh

CLI = [sys.executable, "-m", "graphnls.cli"]
STAR = Path(__file__).resolve().parents[1] / "demos" / "graphs" / "star.graph"

BROOM = """\
vertex hub
vertex t1
edge arm1 hub t1 1.0
halfline lead1_1 t1
halfline lead1_2 t1
"""

DOUBLE_BRIDGE_09 = """\
vertex v1
vertex v2
edge bridge1 v1 v2 0.9
edge bridge2 v1 v2 0.9
halfline lead1 v1
halfline lead2 v2
"""

NO_LEADS = """\
vertex a
vertex b
edge e1 a b 1.0
"""


def run_module(*args):
    """``python -m graphnls.cli <args>`` in a fresh interpreter."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=600)


def run_cli(*args):
    """The same command by ``cli.main`` in this process: its exit code and
    captured output, shaped as ``run_module``'s."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


@pytest.fixture
def broom_file(tmp_path):
    path = tmp_path / "broom.graph"
    path.write_text(BROOM)
    return str(path)


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.graph"
    path.write_text(DOUBLE_BRIDGE_09)
    return str(path)


def test_validate_ok(broom_file):
    proc = run_cli("validate", broom_file)
    assert proc.returncode == 0
    assert "valid" in proc.stdout
    assert "2 half-line" in proc.stdout


def test_validate_missing_half_line(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text(NO_LEADS)
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert "N >= 1" in proc.stdout


def test_validate_parse_error_line_number(tmp_path):
    path = tmp_path / "broken.graph"
    path.write_text("vertex a\nedge e a a oops\nhalfline l a\n")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert "2" in proc.stderr  # the offending line


def test_validate_missing_file():
    proc = run_cli("validate", "/nonexistent/g.graph")
    assert proc.returncode == 1


def test_thresholds_p4_table_and_json(broom_file):
    proc = run_cli("thresholds", "--p", "4", "--mu", "1", "--N", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout[proc.stdout.index("{") :])
    assert payload["l1_exist"] == 2.0
    assert payload["l2_nonexist"] == 1.0
    assert payload["schema_version"] == 1


def test_thresholds_p3_unconditional():
    proc = run_cli("thresholds", "--p", "3")
    assert proc.returncode == 0
    assert "existence unconditional" in proc.stdout
    payload = json.loads(proc.stdout[proc.stdout.index("{") :])
    assert payload["existence"] == "unconditional"


def test_thresholds_p7_usage_error():
    proc = run_cli("thresholds", "--p", "7")
    assert proc.returncode == 1
    assert "p must be in (2,6)" in proc.stderr


def test_certify_auto_partition(db_file):
    proc = run_cli("certify", db_file, "--p", "4", "--mu", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout[: proc.stdout.rindex("}") + 1])
    assert payload["valid"] is True
    assert payload["max_part_measure"] == 0.9
    assert payload["whole_graph"] is False


def test_certify_explicit_partition(db_file, tmp_path):
    parts = tmp_path / "parts.txt"
    parts.write_text("# split at the vertices\nbridge1 lead1\nbridge2 lead2\n")
    proc = run_cli("certify", db_file, "--p", "4", "--mu", "1", "--partition", str(parts))
    assert proc.returncode == 0
    assert "certificate found" in proc.stdout


def test_certify_invalid_partition(db_file, tmp_path):
    parts = tmp_path / "parts.txt"
    parts.write_text("bridge1 lead1\nbridge2\n")  # second part misses its lead
    proc = run_cli("certify", db_file, "--p", "4", "--mu", "1", "--partition", str(parts))
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


def test_certify_not_found_exit_2(db_file):
    # mu = 4 shrinks the threshold to 0.25 < 0.9: no certificate anywhere
    # through the module entry point: its exit code is the process's
    proc = run_module("certify", db_file, "--p", "4", "--mu", "4")
    assert proc.returncode == 2
    assert "certificate not found" in proc.stdout


def test_certify_p_below_4_usage_error(db_file):
    proc = run_cli("certify", db_file, "--p", "3", "--mu", "1")
    assert proc.returncode == 1


def test_minimize_artifacts_and_determinism(broom_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = (
        "minimize", broom_file, "--p", "3", "--mu", "1", "--h", "0.1",
    )
    p1 = run_module(*args, "--out", str(out1))
    assert p1.returncode == 0, p1.stderr
    assert "verdict:" in p1.stdout and "energy:" in p1.stdout
    # the state is displayed where its leads are above 1e-16 of their anchors
    state = (out1 / "state.csv").read_text().splitlines()
    assert state[0].startswith("# mesh_hash=") and len(state) < 2 * (solver._DISPLAY_CELLS + 1) + 40
    for name in ("result.json", "trace.csv", "state.csv"):
        assert (out1 / name).exists()
    payload = json.loads((out1 / "result.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["mu"] == 1.0
    assert payload["verdict"] in (
        "NEGATIVE_MINIMUM",
        "ZERO_INFIMUM_SUSPECTED",
        "INCONCLUSIVE",
    )
    header = (out1 / "trace.csv").read_text().splitlines()
    assert header[0].startswith("# graphnls")
    assert header[1] == "iter,energy,grad_norm,step"

    p2 = run_module(*args, "--out", str(out2))
    assert p2.returncode == 0
    # determinism modulo nothing: same inputs, same bytes
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "state.csv").read_bytes() == (out2 / "state.csv").read_bytes()
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


def test_minimize_p_out_of_range(broom_file):
    proc = run_cli("minimize", broom_file, "--p", "7")
    assert proc.returncode == 1
    assert "p must be in (2,6)" in proc.stderr


def test_minimize_soliton_placement(db_file, tmp_path):
    proc = run_cli(
        "minimize", db_file, "--p", "3", "--mu", "1",
        "--h", "0.1", "--init", "soliton",
        "--init-edge", "bridge1", "--init-offset", "0.45",
        "--out", str(tmp_path / "sol"),
    )
    assert proc.returncode == 0, proc.stderr


def test_minimize_soliton_offset_without_edge(tmp_path):
    # --init-offset alone places the bump on the first core edge (arm1)
    # instead of being reset to that edge's middle
    args = ("minimize", str(STAR), "--p", "4", "--h", "0.05", "--init", "soliton")
    plain = run_cli(*args, "--out", str(tmp_path / "plain"))
    offset = run_cli(*args, "--init-offset", "0.1", "--out", str(tmp_path / "offset"))
    assert plain.returncode == 0 and offset.returncode == 0, offset.stderr
    assert (tmp_path / "plain" / "state.csv").read_bytes() != (tmp_path / "offset" / "state.csv").read_bytes()
    # the descent moves the peak, so check the start the command builds
    graph = load_graph(STAR)
    mesh = start_mesh(graph, 0.05)
    u0 = initializer_soliton(graph, 1.0, 4.0, mesh, center_offset=0.1)
    peak = int(np.argmax(u0.values))
    arm = list(mesh.edge_dofs["arm1"])
    assert peak in arm
    assert abs(mesh.edge_coords["arm1"][arm.index(peak)] - 0.1) <= mesh.edge_h["arm1"]


def test_minimize_rejects_an_infinite_cut(broom_file, tmp_path):
    # the run derives its cut: a cut on the command line, finite or not, is
    # a usage error that names the option
    proc = run_cli("minimize", broom_file, "--rcut", "10,inf", "--out", str(tmp_path / "x"))
    assert proc.returncode == 1
    assert "unrecognized arguments: --rcut" in proc.stderr


def test_minimize_init_edge_requires_soliton(broom_file, tmp_path):
    proc = run_cli(
        "minimize", broom_file, "--init-edge", "arm1", "--out", str(tmp_path / "x")
    )
    assert proc.returncode == 1


def test_sweep_phase_csv(broom_file, tmp_path):
    spec = {
        "axis": "core_scale",
        "grid": [0.25, 3.0],
        "graph": broom_file,
        "mu": 1.0,
        "p": 4.0,
        "out_dir": str(tmp_path / "out"),
        # from older specs: accepted and ignored
        "threads": 2,
        "seed": 0,
        "solver": {"h_max": 0.05, "r_cut_schedule": [10, 20, 40]},
    }
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(spec))
    proc = run_cli("sweep", str(sweep_file))
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "out" / "phase.csv").read_text().splitlines()
    assert lines[0].startswith("# graphnls")
    assert lines[1] == "axis_value,E_min,verdict,L1,L2,band"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["0.25", "3.0"]  # grid order
    by_val = {r[0]: r for r in rows}
    # the broom's hub is a dead end: L2 uses c = sqrt 2, so L2 = 1/4 and the
    # 0.25 point (core measure 1/4) sits in the gap, not below L2
    assert by_val["0.25"][5] == "GAP"
    assert float(by_val["0.25"][4]) == pytest.approx(0.25, abs=1e-12)
    assert by_val["0.25"][2] == "ZERO_INFIMUM_SUSPECTED"
    assert by_val["3.0"][5] == "EXIST_BAND"
    assert by_val["3.0"][2] == "NEGATIVE_MINIMUM"
    assert by_val["3.0"][3] == "2.0" and float(by_val["3.0"][4]) == pytest.approx(0.25, abs=1e-12)

    # byte determinism of the data rows on a rerun
    first = (tmp_path / "out" / "phase.csv").read_bytes()
    proc2 = run_cli("sweep", str(sweep_file))
    assert proc2.returncode == 0
    assert (tmp_path / "out" / "phase.csv").read_bytes() == first


# demos/sweep.json's phase.csv rows as (axis_value, E_min, verdict, L1, L2,
# band); CI reruns the demo and compares the reruns, this pins the rows
DEMO_SWEEP_ROWS = [
    ("0.25", -9.275056372293424e-16, "ZERO_INFIMUM_SUSPECTED", "2.0", "1.0", "NONEXIST_BAND"),
    ("0.5", -4.861173150223537e-16, "ZERO_INFIMUM_SUSPECTED", "2.0", "1.0", "NONEXIST_BAND"),
    ("1.5", -2.0833844036339783e-16, "ZERO_INFIMUM_SUSPECTED", "2.0", "1.0", "GAP"),
    ("3.0", -0.0012982100854022289, "NEGATIVE_MINIMUM", "2.0", "1.0", "EXIST_BAND"),
    ("4.0", -0.0038299665192024906, "NEGATIVE_MINIMUM", "2.0", "1.0", "EXIST_BAND"),
]


def test_demo_sweep_keeps_its_rows(tmp_path):
    demos = Path(__file__).resolve().parents[1] / "demos"
    spec = json.loads((demos / "sweep.json").read_text())
    spec["graph"] = str(demos / spec["graph"])
    spec["out_dir"] = str(tmp_path / "out")
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(spec))
    assert cli.main(["sweep", str(sweep_file)]) == 0
    lines = (tmp_path / "out" / "phase.csv").read_text().splitlines()
    assert lines[1] == "axis_value,E_min,verdict,L1,L2,band"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == len(DEMO_SWEEP_ROWS)
    for row, (axis_value, e_min, *rest) in zip(rows, DEMO_SWEEP_ROWS):
        assert [row[0], *row[2:]] == [axis_value, *rest]
        assert float(row[1]) == pytest.approx(e_min, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "keys,named",
    [
        pytest.param({"solver": {"max_iter": 50}}, "max_iter", id="solver0-max_iter"),
        pytest.param({"solver": {"r_cut_schedule": None}}, "r_cut_schedule", id="solver1-r_cut_schedule"),
        pytest.param({"solver": {"max_iters": 2.5}}, "max_iters", id="solver2-max_iters"),
        # a bool is an int: true ran one-iteration runs
        pytest.param({"solver": {"max_iters": True}}, "max_iters", id="solver3-max_iters-bool"),
        # starting states are not solver settings; the seed is top-level only
        pytest.param({"solver": {"seed": 3}}, "seed", id="solver-seed"),
        pytest.param({"solver": {"initializer": "random"}}, "initializer", id="solver-initializer"),
        # an ignored top-level seed must still be an integer
        pytest.param({"seed": 2.5}, "seed", id="seed-float"),
        pytest.param({"seed": "7"}, "seed", id="seed-string"),
        pytest.param({"seed": True}, "seed", id="seed-bool"),
    ],
)
def test_sweep_bad_solver_overrides(tmp_path, broom_file, keys, named):
    # caught up front, not turned into an INCONCLUSIVE row per point
    spec = {
        "axis": "core_scale",
        "grid": [0.25],
        "graph": broom_file,
        "out_dir": str(tmp_path / "out"),
        **keys,
    }
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(spec))
    proc = run_cli("sweep", str(sweep_file))
    assert proc.returncode == 1
    assert named in proc.stderr
    assert not (tmp_path / "out" / "phase.csv").exists()


def test_sweep_ignores_an_old_spec_seed(tmp_path, broom_file):
    # the dichotomy's starts are deterministic: an integer top-level seed is
    # accepted and moves no byte of the data rows
    rows = []
    specs = {"none": {}, "zero": {"seed": 0}, "seven": {"seed": 7}, "negative": {"seed": -3}}
    for name, keys in specs.items():
        spec = {
            "axis": "core_scale",
            "grid": [0.25, 3.0],
            "graph": broom_file,
            "out_dir": str(tmp_path / name),
            "solver": {"h_max": 0.1, "r_cut_schedule": [5, 10]},
            **keys,
        }
        sweep_file = tmp_path / f"{name}.json"
        sweep_file.write_text(json.dumps(spec))
        assert cli.main(["sweep", str(sweep_file)]) == 0
        rows.append((tmp_path / name / "phase.csv").read_bytes().split(b"\n")[1:])
    assert len(rows[0]) == 4
    assert rows[1:] == [rows[0]] * (len(specs) - 1)


@pytest.mark.parametrize(
    "argv,spec,named",
    [
        pytest.param(["thresholds", "--p", "4", "--mu", "inf"], None, "inf", id="thresholds-mu-inf"),
        pytest.param(["certify", "{graph}", "--p", "4", "--mu", "inf"], None, "inf", id="certify-mu-inf"),
        pytest.param(["minimize", "{graph}", "--p", "3", "--mu", "nan", "--out", "{out}"], None, "nan", id="minimize-mu-nan"),
        pytest.param(None, {"axis": "mu", "grid": [math.inf]}, "inf", id="sweep-grid-inf"),
        pytest.param(None, {"axis": "core_scale", "grid": [math.nan]}, "nan", id="sweep-grid-nan"),
        pytest.param(None, {"axis": "core_scale", "grid": [1.0], "mu": math.inf}, "inf", id="sweep-mu-inf"),
        # caller-given GN constants: a nan c gave a nan L2 with exit 0
        pytest.param(["thresholds", "--p", "4.5", "--c", "nan"], None, "nan", id="thresholds-c-nan"),
        pytest.param(["thresholds", "--p", "4.5", "--C", "inf"], None, "inf", id="thresholds-C-inf"),
        # below p = 4 the report is unconditional, and the constants went
        # unchecked with exit 0
        pytest.param(["thresholds", "--p", "3", "--c", "nan"], None, "nan", id="thresholds-p3-c-nan"),
        pytest.param(["thresholds", "--p", "3", "--C", "inf"], None, "inf", id="thresholds-p3-C-inf"),
    ],
)
def test_non_finite_inputs_are_usage_errors(tmp_path, broom_file, capsys, argv, spec, named):
    # json reads NaN and Infinity, argparse reads nan and inf: both are
    # refused up front instead of giving zero thresholds or nan rows
    out = tmp_path / "out"
    if spec is not None:
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps({"graph": broom_file, "out_dir": str(out), **spec}))
        argv = ["sweep", str(sweep_file)]
    assert cli.main([arg.format(graph=broom_file, out=out) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec,message",
    [
        pytest.param({"axis": "core_scale", "grid": [True]}, "grid must be a number", id="grid"),
        pytest.param({"axis": "core_scale", "grid": [1.0], "mu": True}, "mu must be a number", id="mu"),
        # on the p axis the top-level p is not range-checked
        pytest.param({"axis": "p", "grid": [4.0], "p": True}, "p must be a number", id="p"),
        pytest.param(
            {"axis": "core_scale", "grid": [1.0], "solver": {"h_max": True}},
            "h_max must be finite and positive, got True",
            id="solver-h_max",
        ),
        # the gradient tolerance is fixed: the key is unknown
        pytest.param(
            {"axis": "core_scale", "grid": [1.0], "solver": {"grad_tol": True}},
            "unexpected keyword argument 'grad_tol'",
            id="solver-grad_tol",
        ),
        pytest.param(
            {"axis": "core_scale", "grid": [1.0], "solver": {"r_cut_schedule": [True, 10.0]}},
            "r_cut_schedule entries must be numbers",
            id="solver-r_cut_schedule",
        ),
        # float() reads a JSON string as its number, and each digit of a
        # string schedule as a cut: each of these ran and exited 0
        pytest.param({"axis": "core_scale", "grid": ["1"]}, 'grid must be a number, got "1"', id="grid-string"),
        pytest.param({"axis": "core_scale", "grid": "12"}, "grid must be a list of numbers", id="grid-not-a-list"),
        pytest.param({"axis": "core_scale", "grid": [1.0], "mu": "2"}, 'mu must be a number, got "2"', id="mu-string"),
        pytest.param(
            {"axis": "core_scale", "grid": [1.0], "solver": {"r_cut_schedule": "12"}},
            "r_cut_schedule entries must be numbers",
            id="solver-r_cut_schedule-string",
        ),
        # each of these ended as an internal error (exit 3)
        pytest.param({"axis": "core_scale", "grid": [1.0], "mu": None}, "mu must be a number, got null", id="mu-null"),
        pytest.param({"axis": "core_scale", "grid": [1.0], "p": [4]}, "p must be a number, got [4]", id="p-list"),
        pytest.param({"axis": "core_scale", "grid": [1.0], "graph": 5}, "graph must be a path string, got 5", id="graph"),
        pytest.param({"axis": "core_scale", "grid": [1.0], "out_dir": 5}, "out_dir must be a path string, got 5", id="out_dir"),
        # float() raised OverflowError on a JSON integer beyond float64
        pytest.param(
            {"axis": "mu", "grid": [10**400]},
            "grid is out of float64 range, got an integer of 401 digits",
            id="grid-huge-integer",
        ),
    ],
)
def test_sweep_json_booleans_are_usage_errors(tmp_path, broom_file, capsys, spec, message):
    # float() reads JSON true as 1.0, and a string as its number: each of
    # these values of the wrong JSON type is refused, naming its key
    out = tmp_path / "out"
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps({"graph": broom_file, "out_dir": str(out), **spec}))
    assert cli.main(["sweep", str(sweep_file)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,spec",
    [
        pytest.param(["thresholds", "--p", "5.999", "--N", "8"], None, id="thresholds"),
        pytest.param(["certify", "{graph}", "--p", "5.999", "--mu", "0.5"], None, id="certify"),
        pytest.param(None, {"axis": "p", "grid": [4.5, 5.999]}, id="sweep-p"),
    ],
)
def test_thresholds_out_of_float64_range_are_usage_errors(tmp_path, broom_file, capsys, monkeypatch, argv, spec):
    # near p = 6 the closed forms overflowed: internal error (exit 3), and a
    # sweep lost its other rows; a sweep now refuses before any point runs
    monkeypatch.setattr(cli, "existence_dichotomy", mock.Mock(side_effect=AssertionError("a point ran")))
    out = tmp_path / "out"
    if spec is not None:
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps({"graph": broom_file, "out_dir": str(out), **spec}))
        argv = ["sweep", str(sweep_file)]
    assert cli.main([arg.format(graph=broom_file) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "out of float64 range at p=5.999" in err
    assert not out.exists()


def test_sweep_log_records_failed_points(tmp_path, broom_file, monkeypatch, capsys):
    real = cli.existence_dichotomy

    def failing_at_mu_2(graph, mu, p, config):
        if mu == 2.0:
            raise RuntimeError("no convergence")
        return real(graph, mu, p, config)

    monkeypatch.setattr(cli, "existence_dichotomy", failing_at_mu_2)
    spec = {
        "axis": "mu",
        "grid": [1.0, 2.0],
        "graph": broom_file,
        "p": 3.0,
        "out_dir": str(tmp_path / "out"),
        "solver": {"h_max": 0.1, "r_cut_schedule": [5, 10]},
    }
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(spec))
    assert cli.main(["sweep", str(sweep_file)]) == 0
    assert "sweep_log.json" in capsys.readouterr().out
    rows = (tmp_path / "out" / "phase.csv").read_text().splitlines()[2:]
    assert rows[1].startswith("2.0,nan,INCONCLUSIVE,")
    assert not rows[0].startswith("1.0,nan,")
    log = json.loads((tmp_path / "out" / "sweep_log.json").read_text())
    assert log["schema_version"] == 1 and log["axis"] == "mu"
    assert [r["axis_value"] for r in log["points"]] == [1.0, 2.0]
    assert [r["error"] for r in log["points"]] == [None, "RuntimeError: no convergence"]
    assert all(math.isfinite(r["seconds"]) and r["seconds"] >= 0.0 for r in log["points"])


def test_sweep_missing_key(tmp_path):
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps({"axis": "mu", "grid": [1.0]}))
    proc = run_cli("sweep", str(sweep_file))
    assert proc.returncode == 1


def test_sweep_empty_grid(tmp_path, broom_file):
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(
        json.dumps({"axis": "mu", "grid": [], "graph": broom_file})
    )
    proc = run_cli("sweep", str(sweep_file))
    assert proc.returncode == 1
    assert "nonempty" in proc.stderr


def test_sweep_bad_axis(tmp_path, broom_file):
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(
        json.dumps({"axis": "temperature", "grid": [1.0], "graph": broom_file})
    )
    proc = run_cli("sweep", str(sweep_file))
    assert proc.returncode == 1


def test_unknown_subcommand_is_usage_error():
    for argv in (["frobnicate"], ["check"]):
        assert run_cli(*argv).returncode == 1
