"""End-to-end CLI checks: exit codes, determinism, artifact contents."""
import hashlib
import json

import pytest

from rampc import cli
from rampc.cli import main
from rampc.system import default_problem_path

from conftest import scalar_problem_dict


@pytest.fixture()
def scalar_file(tmp_problem_file):
    return tmp_problem_file(scalar_problem_dict(w=0.1, x=2.0, u=2.0, N=2))


def test_terminal_set_report_and_svg(scalar_file, tmp_path, capsys):
    out = tmp_path / "term.json"
    svg = tmp_path / "term.svg"
    # scalar problem: svg is skipped gracefully only for d=2; use report only
    rc = main(["terminal-set", "--problem", str(scalar_file), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["descent_residual"] <= 1e-8
    assert "terminal_set" in doc and "manifest" in doc
    assert doc["manifest"]["command"] == "terminal-set"


def test_terminal_set_svg_2d(tmp_path):
    out = tmp_path / "term.json"
    svg = tmp_path / "term.svg"
    rc = main(["terminal-set", "--problem", "default", "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<polygon" in text
    assert "terminal set" in text


def test_terminal_set_json_bytes_pinned(tmp_path, monkeypatch):
    # the default terminal-set report, byte for byte, as the per-row LP loop
    # produced it; only the checkout-dependent problem path is masked
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    out = tmp_path / "term.json"
    assert main(["terminal-set", "--problem", "default", "--out", str(out)]) == 0
    path = json.dumps(str(default_problem_path())).encode()
    data = out.read_bytes()
    assert data.count(path) == 1
    masked = data.replace(path, b'"<problem>"')
    assert hashlib.sha256(masked).hexdigest() == (
        "611f513f362f854b3d18be9490a3a3c5f06120c158fd5888cbedc545b1188fa4"
    )


@pytest.mark.parametrize(
    "command, x0, digest",
    [
        ("simulate", "6,-6", "26b8c37be125b79c7fe299922a92942326ae02979a726b3942555a34bac83852"),
        ("rollout", "5,-5", "2f943e5473e34956bf9ebbae5990e9f4989c8ad54608d548a377795c27a816b7"),
    ],
)
def test_trace_csv_bytes_pinned(command, x0, digest, tmp_path, monkeypatch):
    # default-problem traces, byte for byte; only the checkout-dependent
    # problem path is masked
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    out = tmp_path / "trace.csv"
    argv = [command, "--problem", "default", "--x0", x0, "--steps", "50", "--seed", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    path = json.dumps(str(default_problem_path())).encode()
    data = out.read_bytes()
    assert data.count(path) == 1
    assert hashlib.sha256(data.replace(path, b'"<problem>"')).hexdigest() == digest


def test_simulate_deterministic_bytes(scalar_file, tmp_path):
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--problem", str(scalar_file), "--x0", "0.5", "--steps", "10", "--seed", "3"]
    assert main(args + ["--out", str(o1)]) == 0
    assert main(args + ["--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_simulate_zero_state(scalar_file, tmp_path):
    out = tmp_path / "zero.csv"
    rc = main(
        ["simulate", "--problem", str(scalar_file), "--x0", "0.0", "--steps", "5",
         "--seed", "0", "--out", str(out)]
    )
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    # header + 5 steps + final state row
    assert len(rows) == 7


def test_simulate_infeasible_x0_is_success(scalar_file, tmp_path):
    out = tmp_path / "inf.csv"
    rc = main(
        ["simulate", "--problem", str(scalar_file), "--x0", "1.9", "--steps", "3",
         "--seed", "0", "--out", str(out)]
    )
    assert rc == 0  # infeasibility is data, not an error
    assert out.exists()


def test_malformed_problem_exits_2(tmp_problem_file, tmp_path, capsys):
    data = scalar_problem_dict()
    data["cost"]["P"] = [[0.0]]
    path = tmp_problem_file(data)
    rc = main(["terminal-set", "--problem", str(path), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "cost.P" in capsys.readouterr().err


def test_unstable_gain_exits_3(tmp_problem_file, tmp_path):
    data = scalar_problem_dict(k=0.5)  # a_cl = 1.5: unstable
    path = tmp_problem_file(data)
    rc = main(["terminal-set", "--problem", str(path), "--out", str(tmp_path / "x.json")])
    assert rc == 3


@pytest.mark.parametrize("x0", ["1,2,3", "nan,0", "inf,0"])
def test_bad_x0_exits_2(x0, tmp_path, capsys, monkeypatch):
    # a wrong component count or a component that is not finite, rejected
    # before terminal synthesis runs
    def synthesis(prob):
        raise AssertionError("terminal synthesis ran")

    monkeypatch.setattr(cli, "config_from_problem", synthesis)
    out = tmp_path / "x.csv"
    rc = main(
        ["simulate", "--problem", "default", "--x0", x0, "--steps", "2",
         "--seed", "0", "--out", str(out)]
    )
    assert rc == 2
    assert "--x0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--steps", "0"),
        ("simulate", "--steps", "-3"),
        ("rollout", "--steps", "0"),
        ("rollout", "--steps", "-3"),
        ("roa", "--grid", "0"),
        ("roa", "--grid", "-2"),
        ("roa", "--jobs", "0"),
        ("roa", "--jobs", "-4"),
        ("bench", "--reps", "0"),
    ],
)
def test_count_below_one_exits_2(command, flag, value, scalar_file, tmp_path, capsys):
    args = [command, "--problem", str(scalar_file), "--out", str(tmp_path / "x.out"), flag, value]
    if command in ("simulate", "rollout"):
        args += ["--x0", "0.5"]
    assert main(args) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


def test_roa_with_baseline_and_svg(tmp_path):
    out = tmp_path / "roa.json"
    svg = tmp_path / "roa.svg"
    rc = main(
        ["roa", "--problem", "default", "--grid", "4", "--baseline",
         "--out", str(out), "--svg", str(svg)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["grid_n"] == 4
    assert len(doc["feasible_mask"]) == doc["n_points"]
    assert "baseline" in doc
    assert doc["baseline"]["mask_contained_in_proposed"] is True
    assert svg.read_text().startswith("<?xml")


def test_rollout_cmd(scalar_file, tmp_path):
    out = tmp_path / "roll.csv"
    rc = main(
        ["rollout", "--problem", str(scalar_file), "--x0", "0.5", "--steps", "8",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 10


def test_numerical_failure_exits_4(scalar_file, tmp_path, monkeypatch):
    from rampc.controller import _LawTable
    from rampc.qpsolver import SolveOutcome, SolveStatus
    from rampc.qpsolver.admm import ParametricQP

    # the whole solve layer fails: no ADMM solve succeeds and no law, the
    # controller's central law 0 included, passes the KKT screen
    monkeypatch.setattr(
        ParametricQP, "solve",
        lambda self, q, h_ineq: SolveOutcome(status=SolveStatus.NUMERICAL_FAILURE),
    )
    monkeypatch.setattr(_LawTable, "first", lambda self, x, q: None)
    rc = main(
        ["simulate", "--problem", str(scalar_file), "--x0", "0.1", "--steps", "2",
         "--seed", "0", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 4


def test_bench_cmd(scalar_file, tmp_path):
    out = tmp_path / "bench.json"
    rc = main(
        ["bench", "--problem", str(scalar_file), "--horizons", "1..2", "--reps", "3",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [r["N_t"] for r in doc["rows"]] == [1, 2]
    assert all(r["factor_nnz"] >= r["n_variables"] for r in doc["rows"])
    assert "kernel_comparison" not in doc
