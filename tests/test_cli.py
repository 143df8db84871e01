"""Command line: parsing, matrix I/O round trips, JSON schema, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_complex, rng
import globcert.cli as cli
from globcert.cli import main, parse_args, result_to_dict
from globcert.mmio import MatrixMarketError, read_matrix, write_matrix
from globcert.solver import SolveResult, SolveStatus, kreiss_continuous


def test_parse_args_kreiss_c(tmp_path):
    m = tmp_path / "A.mtx"
    write_matrix(m, np.diag([-1.0, -2.0]))
    req = parse_args(["kreiss-c", str(m), "--start", "1+1i", "--json", "out.json"])
    assert req.command == "kreiss-c"
    assert req.starts == (1 + 1j,)
    assert req.json_path == "out.json"


def test_parse_args_dtu_flags(tmp_path):
    a = tmp_path / "A.mtx"
    b = tmp_path / "B.mtx"
    write_matrix(a, np.eye(2))
    write_matrix(b, np.ones((2, 1)))
    req = parse_args(["dtu", str(a), str(b), "--trace", "c.csv", "--workers", "8"])
    assert req.command == "dtu"
    assert req.b_path == str(b)
    assert req.trace_path == "c.csv"
    assert req.config.workers == 8


def test_parse_args_infeasible_discrete_start(tmp_path, capsys):
    m = tmp_path / "A.mtx"
    write_matrix(m, np.diag([0.5, 0.2]))
    with pytest.raises(SystemExit) as info:
        parse_args(["kreiss-d", str(m), "--start", "0.5"])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "globcert kreiss-d: error: --start (0.5+0j) is infeasible (|z| <= 1)" in err


def test_parse_args_infeasible_continuous_start(tmp_path, capsys):
    m = tmp_path / "A.mtx"
    write_matrix(m, np.diag([-1.0, -2.0]))
    with pytest.raises(SystemExit) as info:
        parse_args(["kreiss-c", str(m), "--start=-1+1i"])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "globcert kreiss-c: error: --start (-1+1j) is infeasible (Re z <= 0)" in err


@pytest.mark.parametrize("command, start", [("kreiss-d", "-1-1i"), ("dtu", "-2-1i")])
def test_cli_negative_start_spellings(tmp_path, capsys, command, start):
    # argparse would read "-1-1i" as a flag; both spellings must solve alike
    a_path, b_path = tmp_path / "A.mtx", tmp_path / "B.mtx"
    write_matrix(a_path, np.array([[0.9, 0.8], [0.0, 0.5]] if command == "kreiss-d" else [[2.0]]))
    write_matrix(b_path, np.array([[1.0]]))
    paths = [str(a_path)] + ([str(b_path)] if command == "dtu" else [])
    results = []
    for spelling in (["--start", start], [f"--start={start}"]):
        assert parse_args([command, *paths, *spelling]).starts == (complex(start.replace("i", "j")),)
        json_path = tmp_path / "out.json"
        assert main([command, *paths, *spelling, "--workers", "1", "--json", str(json_path)]) == 0
        data = json.loads(json_path.read_text())
        del data["wall_time_s"]
        results.append(data)
    assert results[0] == results[1]
    assert results[0]["status"] == "Converged"
    if command == "kreiss-d":
        assert results[0]["quantity"] == 1.1180339887498951
    capsys.readouterr()
    # a flag after --start is still not its value
    assert main([command, *paths, "--start", "--workers", "1"]) == 1
    assert "argument --start: expected one argument" in capsys.readouterr().err


def test_cli_has_no_shift_center(tmp_path, capsys):
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[-0.5, 5.0], [0.0, -0.5]]))
    assert main(["kreiss-c", str(a_path), "--shift-center"]) == 1
    assert "unrecognized arguments: --shift-center" in capsys.readouterr().err


def test_env_var_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("GLOBCERT_WORKERS", "3")
    m = tmp_path / "A.mtx"
    write_matrix(m, np.eye(2))
    req = parse_args(["kreiss-c", str(m)])
    assert req.config.workers == 3


def test_default_workers_follow_the_affinity_mask(tmp_path, monkeypatch):
    # a process restricted to one CPU of two gets one worker, not two
    monkeypatch.delenv("GLOBCERT_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    m = tmp_path / "A.mtx"
    write_matrix(m, np.eye(2))
    assert parse_args(["kreiss-c", str(m)]).config.workers == 1
    # where the platform has no affinity mask, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parse_args(["kreiss-c", str(m)]).config.workers == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_env_var_workers_rejects_non_counts(tmp_path, monkeypatch, capsys, value):
    # the same rule as --workers: a bad value is a usage error naming the variable
    monkeypatch.setenv("GLOBCERT_WORKERS", value)
    m = tmp_path / "A.mtx"
    write_matrix(m, np.eye(2))
    with pytest.raises(SystemExit) as info:
        parse_args(["kreiss-c", str(m)])
    assert info.value.code == 1
    assert "GLOBCERT_WORKERS" in capsys.readouterr().err
    assert main(["kreiss-c", str(m)]) == 1


def test_matrix_market_array_column_major(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
    )
    m = read_matrix(path)
    assert np.array_equal(m.real, [[1.0, 3.0], [2.0, 4.0]])


def test_matrix_market_coordinate_complex(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate complex general\n"
        "2 2 2\n1 1 -1 0\n2 2 -2 0\n"
    )
    m = read_matrix(path)
    assert np.allclose(m, np.diag([-1.0, -2.0]))


def test_matrix_market_rejects_symmetry_and_garbage(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(MatrixMarketError):
        read_matrix(path)
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nhello\n3\n4\n")
    with pytest.raises(MatrixMarketError) as info:
        read_matrix(path)
    assert "line" in str(info.value)


def test_matrix_market_errors_name_the_file_line(tmp_path):
    path = tmp_path / "m.mtx"
    cases = [
        ("%%MatrixMarket matrix array real general\n2 x\n1\n2\n3\n4\n", "line 2:"),
        ("%%MatrixMarket matrix array real general\n2 2\n1\nabc\n3\n4\n", "line 4:"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "line 3:"),
    ]
    for text, where in cases:
        path.write_text(text)
        with pytest.raises(MatrixMarketError) as info:
            read_matrix(path)
        assert where in str(info.value), (where, str(info.value))


def test_round_trip_both_formats(tmp_path):
    gen = rng(71)
    m = random_complex(gen, 4, 3)
    for fmt in ("array", "coordinate"):
        path = tmp_path / f"m_{fmt}.mtx"
        write_matrix(path, m, fmt=fmt)
        back = read_matrix(path)
        assert np.max(np.abs(back - m)) <= 1e-15 * np.max(np.abs(m))


def test_json_schema_stable(tmp_path):
    res = kreiss_continuous(np.diag([-1.0, -2.0]), [1 + 1j])
    d = result_to_dict(res)
    assert set(d) == {
        "quantity",
        "gamma_final",
        "minimizer",
        "status",
        "restarts",
        "samples_per_round",
        "wall_time_s",
    }
    assert d["status"] == "TrivialNormal"
    assert d["quantity"] == 1.0
    assert d["minimizer"] is None
    assert d["restarts"] == []

    res = kreiss_continuous(np.array([[-0.5, 5.0], [0.0, -0.5]]), [1 + 1j])
    d = result_to_dict(res)
    assert set(d) == {
        "quantity",
        "gamma_final",
        "minimizer",
        "status",
        "restarts",
        "samples_per_round",
        "wall_time_s",
    }
    assert isinstance(d["minimizer"]["re"], float)
    assert json.loads(json.dumps(d)) == d


def test_cli_end_to_end(tmp_path, capsys):
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[-0.5, 5.0], [0.0, -0.5]]))
    json_path = tmp_path / "out.json"
    trace_path = tmp_path / "trace.csv"
    code = main(
        [
            "kreiss-c",
            str(a_path),
            "--start",
            "1+1i",
            "--json",
            str(json_path),
            "--trace",
            str(trace_path),
            "--workers",
            "1",
        ]
    )
    assert code == 0
    data = json.loads(json_path.read_text())
    assert data["status"] == "Converged"
    assert abs(data["quantity"] - 2.6) <= 1e-8
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "round,gamma,theta,value,n_candidates,stage"
    assert len(lines) > 1
    stages = {ln.split(",")[-1] for ln in lines[1:]}
    assert stages <= {"probe", "final-min", "root-midpoint"}


def test_cli_exit_codes(tmp_path):
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[0.5, 1.0], [0.0, 0.2]]))  # unstable
    assert main(["kreiss-c", str(a_path)]) == 2
    assert main(["kreiss-c", str(tmp_path / "missing.mtx")]) == 1
    assert main(["kreiss-d", str(a_path), "--start", "0.5"]) == 1


@pytest.mark.parametrize(
    "flag, value", [("--workers", "0"), ("--workers", "-1"), ("--max-restarts", "0")]
)
def test_cli_rejects_counts_below_one(tmp_path, capsys, flag, value):
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[-0.5, 5.0], [0.0, -0.5]]))
    assert main(["kreiss-c", str(a_path), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}" in err


def test_cli_uncertified_exits_like_max_restarts(tmp_path, monkeypatch, capsys):
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[0.5, 2.0], [0.0, 0.4]]))
    for status in (SolveStatus.MAX_RESTARTS, SolveStatus.UNCERTIFIED):
        res = SolveResult(2.0, 0.5, 1.5 + 0j, status, certificate_samples=(17, 40))
        monkeypatch.setattr(cli, "kreiss_discrete", lambda a, starts, cfg, res=res: res)
        json_path = tmp_path / f"{status.value}.json"
        assert main(["kreiss-d", str(a_path), "--json", str(json_path)]) == 1
        assert f"status = {status.value}" in capsys.readouterr().out
        data = json.loads(json_path.read_text())
        assert data["status"] == status.value and data["quantity"] == 2.0


def test_cli_trivial_normal_and_verify(tmp_path, capsys):
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.diag([-1.0, -2.0]))
    assert main(["kreiss-c", str(a_path)]) == 0
    out = capsys.readouterr().out
    assert "TrivialNormal" in out

    b_path = tmp_path / "B.mtx"
    write_matrix(b_path, np.array([[1.0]]))
    a1 = tmp_path / "A1.mtx"
    write_matrix(a1, np.array([[2.0]]))
    assert main(["verify", "dtu", str(a1), str(b_path), "--expect", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "oracle dtu" in out


def test_cli_dtu_solve(tmp_path, capsys):
    a_path, b_path = tmp_path / "A.mtx", tmp_path / "B.mtx"
    write_matrix(a_path, np.array([[2.0]]))
    write_matrix(b_path, np.array([[1.0]]))
    json_path = tmp_path / "out.json"
    assert main(["dtu", str(a_path), str(b_path), "--start", "3", "--workers", "1",
                 "--json", str(json_path)]) == 0
    assert "tau(A,B) = " in capsys.readouterr().out
    data = json.loads(json_path.read_text())
    assert data["status"] == "Converged"
    assert abs(data["quantity"] - 1.0) <= 1e-10


@pytest.mark.parametrize("target", ["kreiss-c", "kreiss-d"])
def test_cli_verify_kreiss(tmp_path, capsys, target):
    a_path = tmp_path / "A.mtx"
    a = [[-0.5, 5.0], [0.0, -0.5]] if target == "kreiss-c" else [[0.9, 0.8], [0.0, 0.5]]
    write_matrix(a_path, np.array(a))
    assert main(["verify", target, str(a_path), "--resolution", "60", "--expect", "2.0"]) == 0
    out = capsys.readouterr().out
    assert f"oracle {target}: quantity = " in out
    assert "relative difference vs --expect: " in out


def test_cli_reports_solver_errors(tmp_path, capsys):
    # a zero eigenvalue is a continuous-time input the solver rejects
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert main(["kreiss-c", str(a_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("globcert: error: ") and "zero eigenvalue" in err


def test_cli_names_a_start_whose_square_underflows(tmp_path):
    # Re z > 0 holds but Re z * Re z underflows; the solve used to end in
    # "no starting point produced a feasible local minimum"
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[-1.0, 4.0], [0.0, -2.0]]))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "globcert.cli", "kreiss-c", str(a_path), "--start", "1e-200"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "globcert kreiss-c: error: --start (1e-200+0j) is infeasible" in proc.stderr


def test_verify_dtu_requires_b(tmp_path, capsys):
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.eye(2))
    assert main(["verify", "dtu", str(a_path)]) == 1
    assert "globcert verify: error: dtu requires a B matrix" in capsys.readouterr().err


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "globcert.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "kreiss-c" in proc.stdout


def test_imports_load_no_scipy():
    # scipy costs most of a cold start; only oracle.transient_samples needs it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import globcert\n"
        "print(scipy_modules())\n"
        "import globcert.cli\n"
        "print(scipy_modules())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"], proc.stdout[:500]
