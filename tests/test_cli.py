import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "graphnls.cli"]

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


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=600)


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
    proc = run_cli("certify", db_file, "--p", "4", "--mu", "4")
    assert proc.returncode == 2
    assert "certificate not found" in proc.stdout


def test_certify_p_below_4_usage_error(db_file):
    proc = run_cli("certify", db_file, "--p", "3", "--mu", "1")
    assert proc.returncode == 1


def test_minimize_artifacts_and_determinism(broom_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = (
        "minimize", broom_file, "--p", "3", "--mu", "1",
        "--rcut", "6,12", "--h", "0.1",
    )
    p1 = run_cli(*args, "--out", str(out1))
    assert p1.returncode == 0, p1.stderr
    assert "verdict:" in p1.stdout and "energy:" in p1.stdout
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

    p2 = run_cli(*args, "--out", str(out2))
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
        "--rcut", "6", "--h", "0.1", "--init", "soliton",
        "--init-edge", "bridge1", "--init-offset", "0.45",
        "--out", str(tmp_path / "sol"),
    )
    assert proc.returncode == 0, proc.stderr


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
        "threads": 2,  # from older specs: accepted and ignored
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


@pytest.mark.parametrize(
    "solver,named",
    [
        ({"max_iter": 50}, "max_iter"),
        ({"r_cut_schedule": None}, "r_cut_schedule"),
        ({"max_iters": 2.5}, "max_iters"),
    ],
)
def test_sweep_bad_solver_overrides(tmp_path, broom_file, solver, named):
    # caught up front, not turned into an INCONCLUSIVE row per point
    spec = {
        "axis": "core_scale",
        "grid": [0.25],
        "graph": broom_file,
        "out_dir": str(tmp_path / "out"),
        "solver": solver,
    }
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(spec))
    proc = run_cli("sweep", str(sweep_file))
    assert proc.returncode == 1
    assert named in proc.stderr
    assert not (tmp_path / "out" / "phase.csv").exists()


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


def test_check_single_suite():
    proc = run_cli("check", "--suite", "graphs,thresholds")
    assert proc.returncode == 0, proc.stdout
    assert "graphs" in proc.stdout and "pass" in proc.stdout


def test_check_fault_injection():
    proc = run_cli("check", "--suite", "gn", "--gn-c", "0.5")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "slack negative" in proc.stdout


def test_check_unknown_suite():
    proc = run_cli("check", "--suite", "nope")
    assert proc.returncode == 1


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1
