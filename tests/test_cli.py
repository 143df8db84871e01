"""Command line: parsing, matrix I/O round trips, JSON schema, exit codes."""

import json
import os
import re
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


def test_default_workers_follow_the_affinity_mask(tmp_path, monkeypatch):
    # one worker by default, whatever CPUs the process may run on: threads
    # of stacked eigensolves run no faster than one
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    m = tmp_path / "A.mtx"
    write_matrix(m, np.eye(2))
    for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        assert parse_args(["kreiss-c", str(m)]).config.workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parse_args(["kreiss-c", str(m)]).config.workers == 1
    assert parse_args(["kreiss-c", str(m), "--workers", "3"]).config.workers == 3


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


_MM_ARRAY = "%%MatrixMarket matrix array real general\n"
_MM_COORD = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        pytest.param("", 1, "empty file", id="empty-file"),
        pytest.param("%%MatrixMarket matrix array real\n2 2\n", 1, "bad header", id="header"),
        pytest.param(
            "%%MatrixMarket matrix dense real general\n", 1, "unsupported format 'dense'",
            id="format",
        ),
        pytest.param(
            "%%MatrixMarket matrix array pattern general\n", 1, "unsupported field 'pattern'",
            id="field",
        ),
        pytest.param(
            "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n4\n", 1,
            "only general symmetry", id="symmetry",
        ),
        pytest.param(_MM_ARRAY + "% a comment\n\n", 4, "missing size line", id="no-size-line"),
        pytest.param(_MM_COORD + "2 2\n", 2, "expected 3 size fields", id="size-fields"),
        pytest.param(_MM_ARRAY + "2 x\n1\n2\n3\n4\n", 2, "non-integer size", id="size-value"),
        pytest.param(_MM_ARRAY + "0 2\n", 2, "empty dimensions", id="empty-dimensions"),
        pytest.param(_MM_ARRAY + "2 2\n1\nabc\n3\n4\n", 4, "bad real value 'abc'", id="value"),
        pytest.param(_MM_ARRAY + "1 2\n1\n1 2\n", 4, "bad real value '1 2'", id="value-fields"),
        pytest.param(
            "%%MatrixMarket matrix array complex general\n1 1\n1\n", 3, "bad complex value '1'",
            id="complex-value-fields",
        ),
        pytest.param(
            _MM_ARRAY + "2 2\n1\n2\n3\n", 6, "expected 4 array entries, got 3", id="too-few"
        ),
        pytest.param(
            _MM_COORD + "2 2 1\n1 1 1\n2 2 1\n", 4, "expected 1 coordinate entries, got 2",
            id="too-many",
        ),
        pytest.param(_MM_COORD + "2 2 1\n1 1\n", 3, "short entry", id="short-entry"),
        pytest.param(_MM_COORD + "2 2 1\n1 x 1.0\n", 3, "non-integer indices", id="index-value"),
        pytest.param(_MM_COORD + "2 2 1\n3 1 1.0\n", 3, "index out of range", id="index-above"),
        pytest.param(_MM_COORD + "2 2 1\n1 0 1.0\n", 3, "index out of range", id="index-below"),
        pytest.param(_MM_ARRAY + "% café\n1 1\n2\n", 2, "non-ASCII byte", id="non-ascii"),
    ],
)
def test_matrix_market_errors_name_the_file_and_line(tmp_path, text, line, message):
    path = tmp_path / "m.mtx"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MatrixMarketError) as info:
        read_matrix(path)
    assert str(info.value).startswith(f"{path}: line {line}: "), str(info.value)
    assert message in str(info.value)


def test_write_matrix_rejects_an_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unsupported format 'csv'"):
        write_matrix(tmp_path / "m.mtx", np.eye(2), fmt="csv")


def test_cli_reports_a_malformed_matrix_file(tmp_path, capsys):
    path = tmp_path / "A.mtx"
    path.write_text(_MM_ARRAY + "2 x\n")
    assert main(["kreiss-c", str(path)]) == 1
    assert f"globcert: error: {path}: line 2: non-integer size" in capsys.readouterr().err


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


def test_cli_rejects_a_non_integer_count(tmp_path, capsys):
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[-0.5, 5.0], [0.0, -0.5]]))
    assert main(["kreiss-c", str(a_path), "--workers", "abc"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "argument --workers: invalid integer 'abc'" in err


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


def test_cli_names_a_non_finite_start(tmp_path, capsys):
    # "nan" parses as a complex number; it was rejected for "Re z <= 0"
    a_path = tmp_path / "A.mtx"
    write_matrix(a_path, np.array([[-1.0, 4.0], [0.0, -2.0]]))
    assert main(["kreiss-c", str(a_path), "--start", "nan"]) == 1
    err = capsys.readouterr().err
    assert "globcert kreiss-c: error: --start (nan+0j) is infeasible (z is not finite)" in err


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


def test_imports_load_no_scipy(tmp_path):
    # numpy is the one runtime dependency: with every scipy import refused,
    # the README example, a dtu solve and the grid oracle still run.
    # Importing the package and a one-worker solve load no scipy module and
    # no thread pool (concurrent.futures)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    a_path = tmp_path / "D.mtx"
    write_matrix(a_path, np.array([[0.9, 0.8], [0.0, 0.5]]))
    code = (
        "import sys\n"
        "class RefuseScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, RefuseScipy())\n"
        "def unwanted_modules():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'\n"
        "                  or m.startswith('concurrent.futures'))\n"
        "import globcert\n"
        "print(unwanted_modules())\n"
        "import globcert.cli\n"
        "print(unwanted_modules())\n"
        "res = globcert.dtu([[2.0]], [[1.0]], [3.0], globcert.SolverConfig(workers=1))\n"
        "assert res.status is globcert.SolveStatus.CONVERGED, res.status\n"
        "print(unwanted_modules())\n"
        "exec(compile(sys.argv[1], 'README.md', 'exec'), {})\n"
        "sys.exit(globcert.cli.main(['verify', 'kreiss-d', sys.argv[2], '--resolution', '60']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, example, str(a_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "[]", "[]"], proc.stdout[:500]
    assert "oracle kreiss-d: quantity = " in proc.stdout
