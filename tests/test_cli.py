import importlib.resources
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import tfloc
from tfloc.cli import THREAD_ENV_VARS, _build_parser, main

WHITNEY_D8 = """\
# tfloc whitney
# D=8
left,length,in_Jprime
-4,1,1
-3,1,1
-2,4,1
2,1,1
3,1,1
# large_pieces=5
# pieces=5
"""

WITNESS_ARGS = ["witness", "--scheme", "rv", "--R1", "2", "--R2", "2",
                "--C", "0.3", "--eps", "0.1", "--thin", "0.35", "--seed", "7"]


def _schema():
    ref = importlib.resources.files("tfloc.data").joinpath("report.schema.json")
    return json.loads(ref.read_text())


def test_whitney_csv_exact(capsys):
    assert main(["whitney", "--D", "8"]) == 0
    assert capsys.readouterr().out == WHITNEY_D8


def test_whitney_admissible_summary(capsys):
    assert main(["whitney", "--D", "8", "--C", "0.5", "--eps", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "# size_S=3" in out
    assert "# deficit_constant=1.07468676686" in out


def test_reports_validate_against_schema(tmp_path):
    schema = _schema()
    invocations = [
        ["whitney", "--D", "8", "--C", "0.5", "--eps", "0.1"],
        ["bells", "--D", "4", "--eta", "0.25", "--samples", "16"],
        ["basis", "check", "--D", "8", "--eta", "0.25", "--count", "6",
         "--n", "4096"],
        ["prolate", "--W", "1", "--T", "1"],
        ["bound", "--scheme", "rv", "--R1-max", "3", "--R2-max", "3",
         "--step", "0.5", "--eps", "0.1"],
        ["zeta", "--T-max", "50", "--eps", "0.1"],
    ]
    for i, argv in enumerate(invocations):
        out = tmp_path / f"report{i}.json"
        assert main(argv + ["--json", "--output", str(out)]) == 0
        jsonschema.validate(json.loads(out.read_text()), schema)


def test_witness_report_deterministic(tmp_path):
    schema = _schema()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(WITNESS_ARGS + ["--json", "--output", str(p1)]) == 0
    assert main(WITNESS_ARGS + ["--json", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    rep = json.loads(p1.read_text())
    jsonschema.validate(rep, schema)
    s = rep["summary"]
    assert s["null_dim"] >= 1
    assert s["residual"] < 1e-8
    assert s["outside_support_max"] == 0
    assert "tail_weighted_sum" in s
    assert rep["columns"] == ["ft_order", "tail_max"]
    assert [row[0] for row in rep["rows"]] == [0, 1, 2]
    assert rep["config"]["seed"] == 7


def test_output_goes_to_file_not_stdout(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["whitney", "--D", "8", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == WHITNEY_D8


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["whitney"])  # missing required --D
    assert ei.value.code == 1
    capsys.readouterr()


def test_options_no_command_reads_exit_1(capsys):
    # --seed belongs to witness alone, and decay fit has no --xi-max
    unread = [
        ["whitney", "--D", "8", "--seed", "3"],
        ["decay", "fit", "--D", "32", "--eta", "0.3", "--j", "5", "--k", "0",
         "--xi-max", "5"],
    ]
    for argv in unread:
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def _readme_commands():
    """The argv lists of README's CLI block, `\\` continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("tfloc ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) == 9
    parser = _build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0], argv


def test_zeta_witness_reports(tmp_path):
    # 455,205 rows against 22 atoms: the solve must not form the rows x rows U
    out = tmp_path / "z.csv"
    assert main(["witness", "--scheme", "zeta", "--R1", "1.01", "--R2", "6",
                 "--C", "0.22", "--eps", "0.1", "--thin", "0.3", "--seed", "1",
                 "--output", str(out)]) == 0
    text = out.read_text()
    assert "# constraint_rows=455205" in text
    assert "# size_S=22" in text
    assert "# null_dim=0" in text


def test_input_errors_exit_1(tmp_path, capsys):
    assert main(["whitney", "--D", "8", "--C", "0.5"]) == 1
    assert "--eps" in capsys.readouterr().err
    missing = tmp_path / "absent.txt"
    assert main(["zeta", "--T-max", "50", "--eps", "0.1",
                 "--zeros-file", str(missing)]) == 1
    assert "absent.txt" in capsys.readouterr().err
    out_of_range = [
        ["bound", "--scheme", "rv", "--R1-max", "0.5", "--R2-max", "3",
         "--step", "0.1", "--eps", "0.1"],
        ["bound", "--scheme", "rv", "--R1-max", "3", "--R2-max", "0.9",
         "--step", "0.1", "--eps", "0.1"],
        ["zeta", "--T-max", "0.99", "--eps", "0.1", "--json"],
        ["zeta", "--T-max", "50", "--eps", "-1"],
        ["basis", "check", "--D", "32", "--eta", "0.3", "--count", "5", "--n", "0"],
        ["basis", "check", "--D", "32", "--eta", "0.3", "--count", "5", "--n", "-3"],
        ["decay", "fit", "--D", "32", "--eta", "0.3", "--j", "5", "--k", "0", "--n", "0"],
        ["witness", "--scheme", "rv", "--R1", "3", "--R2", "3", "--C", "0.22",
         "--eps", "0.1", "--thin", "0.2", "--seed", "-1"],
    ]
    for argv in out_of_range:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"tfloc {argv[0]}: "), argv


def test_non_finite_zero_tables_exit_1(tmp_path, capsys):
    # every comparison with nan is False, so only an explicit finiteness
    # check keeps nan or inf out of the zero count
    for tail in ("nan", "inf"):
        table = tmp_path / f"{tail}.txt"
        table.write_text(f"14.134725\n{tail}\n")
        for argv in (["zeta", "--T-max", "20", "--eps", "0.1"],
                     ["bound", "--scheme", "zeta", "--R1-max", "1.1", "--R2-max", "10",
                      "--step", "0.1", "--eps", "0.1"]):
            assert main(argv + ["--zeros-file", str(table)]) == 1, (tail, argv)
            captured = capsys.readouterr()
            assert captured.out == "" and "finite" in captured.err, (tail, argv)


NON_FINITE_OPTIONS = [
    ["witness", "--scheme", "rv", "--R1", "nan", "--R2", "3", "--C", "0.22", "--eps", "0.1"],
    ["witness", "--scheme", "rv", "--R1", "3", "--R2", "inf", "--C", "0.22", "--eps", "0.1"],
    ["witness", "--scheme", "rv", "--R1", "3", "--R2", "3", "--C", "0.22", "--eps", "nan"],
    ["bound", "--scheme", "rv", "--R1-max", "nan", "--R2-max", "3", "--step", "0.1",
     "--eps", "0.1"],
    ["prolate", "--W", "nan", "--T", "1"],
]


@pytest.mark.parametrize("argv", NON_FINITE_OPTIONS,
                         ids=["R1-nan", "R2-inf", "eps-nan", "R1-max-nan", "W-nan"])
def test_non_finite_options_are_usage_errors(argv):
    env = dict(os.environ)
    src = str(Path(tfloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "tfloc.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "is not a finite number" in done.stderr and done.stderr.startswith("usage: ")


def test_property_failures_exit_2(capsys):
    rc = main(["basis", "check", "--D", "8", "--eta", "0.25", "--count", "6",
               "--n", "4096", "--tol", "1e-30"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "# passed=0" in out
    rc = main(["zeta", "--T-max", "236", "--eps", "0.1", "--C", "0"])
    assert rc == 2
    assert "# passed=0" in capsys.readouterr().out


def test_zeta_pass_reports_margin(capsys):
    assert main(["zeta", "--T-max", "236", "--eps", "0.1", "--C", "10"]) == 0
    out = capsys.readouterr().out
    assert "# passed=1" in out
    assert "# C_min=" in out


def test_thread_cap_sets_env(tmp_path, monkeypatch):
    for var in THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "t.csv"
    assert main(["whitney", "--D", "4", "--threads", "2",
                 "--output", str(out)]) == 0
    assert all(os.environ[var] == "2" for var in THREAD_ENV_VARS)


def test_bad_thread_counts_exit_1(capsys):
    assert main(["whitney", "--D", "4", "--threads", "0"]) == 1
    capsys.readouterr()


def test_import_loads_no_numpy():
    # --threads must set the BLAS thread variables before numpy first loads
    env = dict(os.environ)
    src = str(Path(tfloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, tfloc, tfloc.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
