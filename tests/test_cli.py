import argparse
import importlib.resources
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import tfloc
from tfloc.cli import THREAD_ENV_VARS, _build_parser, _emit, _fmt, _g12_fields, main
from tfloc.schemes import audit_bound, rv_scheme

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

BOUND_README = ["bound", "--scheme", "rv", "--R1-max", "10", "--R2-max", "10",
                "--step", "0.01", "--eps", "0.1"]

WITNESS_ARGS = ["witness", "--scheme", "rv", "--R1", "2", "--R2", "2",
                "--C", "0.3", "--eps", "0.1", "--thin", "0.35", "--seed", "7"]


def _cli_env():
    """The environment of a `python -m tfloc.cli` subprocess: this tfloc first."""
    env = dict(os.environ)
    src = str(Path(tfloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    # --seed belongs to witness alone, decay fit has no --xi-max, and the
    # thread count is no option: every command runs at one BLAS thread
    unread = [
        ["whitney", "--D", "8", "--seed", "3"],
        ["whitney", "--D", "4", "--threads", "2"],
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
        # a 9,000,001^2 grid is above the 47-bit address space: MemoryError
        [*BOUND_README[:-3], "1e-6", "--eps", "0.1"],
        # lambda node counts above the cap, checked before R is squared or
        # exponentiated, and localization eigenvectors beyond physical memory
        ["witness", "--scheme", "rv", "--R1", "1e10", "--R2", "3", "--C", "0.22",
         "--eps", "0.1"],
        ["bound", "--scheme", "rv", "--R1-max", "1e300", "--R2-max", "3",
         "--step", "0.1", "--eps", "0.1"],
        ["bound", "--scheme", "zeta", "--R1-max", "1e300", "--R2-max", "10",
         "--step", "0.1", "--eps", "0.1"],
        ["prolate", "--W", "1e9", "--T", "1e9"],
        ["prolate", "--W", "1e300", "--T", "1e300"],
    ]
    for argv in out_of_range:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"tfloc {argv[0]}: "), argv


@pytest.mark.parametrize("C, eps", [("50", "0.1"), ("0.22", "3"), ("0.22", "1000")])
def test_witness_without_admissible_atoms_names_the_input(C, eps, capsys):
    # C log^(1+eps) D exceeds every piece length at D = 36, so |S| = 0
    argv = ["witness", "--scheme", "rv", "--R1", "3", "--R2", "3", "--C", C, "--eps", eps]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "admissible" in captured.err and f"C={C}" in captured.err


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
    done = subprocess.run([sys.executable, "-m", "tfloc.cli", *argv], env=_cli_env(),
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
        monkeypatch.setenv(var, "2")
    out = tmp_path / "t.csv"
    assert main(["whitney", "--D", "4", "--output", str(out)]) == 0
    assert all(os.environ[var] == "1" for var in THREAD_ENV_VARS)


def test_import_loads_no_numpy():
    # the CLI's one-thread pin must set the BLAS thread variables before
    # numpy first loads
    code = "import sys, tfloc, tfloc.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def _reference_grid_csv(report):
    """A grid report's CSV written value by value with _fmt."""
    lines = [f"# tfloc {report['command']}"]
    lines += [f"# {k}={_fmt(v)}" for k, v in sorted(report["config"].items())]
    lines.append(",".join(report["columns"]))
    x, y, z = report["grid"]
    for i, xv in enumerate(x.tolist()):
        for j, yv in enumerate(y.tolist()):
            lines.append(",".join(map(_fmt, (xv, yv, float(z[i, j])))))
    lines += [f"# {k}={_fmt(v)}" for k, v in sorted(report["summary"].items())]
    return "\n".join(lines) + "\n"


SPECIAL_Z = [-0.0, 1e-05, 3.5e-14, 1e16, 123456789012.5, 2.0, -7.0, 0.1 + 0.2]

# every power of ten from 1e-6 to 1e13 with both float neighbours, ties at
# 12 digits, values with no fixed-notation form, and near-ties: v * 10^k
# rounds to an odd N + 1/2 while the exact product is below it, so %.12g
# ends in N where rint, rounding half to even, would give N + 1
G12_EDGES = [v for k in range(-6, 14) for p in [float(f"1e{k}")]
             for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]
G12_EDGES += [9.99999999999e-05, 12345678901.25, 999999999999.5,
              np.inf, -np.inf, np.nan, 5e-324, 5971.895478455, 0.02039809641435]
# every fixed-notation layout: 1 to 12 significant digits, none of them a
# trailing zero, at each exponent from -4 to 11, of both signs
G12_EDGES += [sign * float(f"{'234567891234'[:k]}e{X - k + 1}")
              for X in range(-4, 12) for k in range(1, 13) for sign in (1, -1)]


def _g12_values(rng, n):
    """n floats of both signs from 1e-7 to 1e14: half with 12 random digits,
    half short decimals such as 12.345."""
    sign = rng.choice([-1.0, 1.0], n)
    long = 10.0 ** rng.uniform(-7, 14, n)
    short = rng.integers(1, 10 ** 5, n) / 10.0 ** rng.integers(-9, 12, n)
    return sign * np.where(rng.random(n) < 0.5, long, short)


@pytest.mark.parametrize("shape", [(3, 8), (8, 3), (1, 8), (8, 1), (1, 1),
                                   (37, 5003), (1, 40000)])
def test_grid_csv_matches_per_value_format(shape, tmp_path):
    # the wide shapes split into blocks of rows that do not divide the grid,
    # and (1, 40000) has one row wider than a block
    rng = np.random.default_rng(sum(shape))
    heads = ([1.0, 1.25, 3.0, -0.0, 1e-05, 2.5e13, 7.0, 1 / 3],
             [2.0, 123456789012.5, -0.0, 1e16, 0.5, 1e-300, 9.75, 2 / 3])
    x, y = (np.array([*head, *G12_EDGES, *_g12_values(rng, size)][:size])
            for head, size in zip(heads, shape))
    n = shape[0] * shape[1]
    z = rng.permutation(np.resize([*SPECIAL_Z, *G12_EDGES, *_g12_values(rng, n)], n))
    z = z.reshape(shape)
    report = {"command": "bound", "config": {"step": 0.25, "scheme": "rv"},
              "columns": ["R1", "R2", "slack"], "grid": (x, y, z),
              "summary": {"min_slack": -0.0, "argmin_R1": 1.0, "C_fit": 1e-05}}
    out = tmp_path / "grid.csv"
    _emit(report, argparse.Namespace(json=False, output=str(out)))
    got, want = out.read_text(), _reference_grid_csv(report)
    # the first differing lines, not a diff of a 4 MB text
    assert [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w][:5] == []
    assert got == want


def test_g12_fields_match_per_value_format():
    # each field of 2e5 seeded floats, the edge cases and the README bound
    # report's slack values is the bytes of "%.12g" % v
    rng = np.random.default_rng(20260)
    slack = audit_bound(rv_scheme(101), (1.0, 10.0), (1.0, 10.0), 0.01, 0.1).slack
    v = np.concatenate([_g12_values(rng, 200_000), G12_EDGES, slack.ravel()])
    lines = np.pad(_g12_fields(v), ((0, 0), (0, 1)), constant_values=ord("\n"))
    got = lines.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    want = [b"%.12g" % x for x in v.tolist()]
    assert len(got) == len(want)
    assert [(x, g, w) for x, g, w in zip(v.tolist(), got, want) if g != w][:5] == []


def test_closed_stdout_exits_quietly():
    # `tfloc bound ... | head -c 100`: the reader leaves after 100 bytes of a
    # 14 MB report, and the rest of the report must not raise
    proc = subprocess.Popen([sys.executable, "-m", "tfloc.cli", *BOUND_README],
                            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_bound_memory_stays_below_the_report_rows(tmp_path):
    # the CSV is written a block of grid rows at a time: at step 0.04 (51,076 rows)
    # the whole report as one string, with its row tuples, peaked at 10 MiB;
    # each float array of the grid takes 0.4 MiB
    out = tmp_path / "b.csv"
    argv = [*BOUND_README[:-3], "0.04", "--eps", "0.1", "--output", str(out)]
    assert main(argv) == 0  # imports stay out of the traced peak
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_unallocatable_bound_fails_before_any_array(tmp_path, capsys):
    # the step-1e-6 grid (9,000,001^2 points, 589 TiB) is sized from the
    # ranges and the step before any axis or count exists, so it fails at
    # once and small; built after both axes and their counts it took
    # 0.5-0.7 s and 312 MiB of peak RSS to fail
    out = tmp_path / "b.csv"
    assert main([*BOUND_README[:-3], "0.5", "--eps", "0.1", "--output", str(out)]) == 0
    capsys.readouterr()  # imports stay out of the traced peak
    argv = [*BOUND_README[:-3], "1e-6", "--eps", "0.1", "--output", str(out)]
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        assert main(argv) == 1
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 4 * 2**20
    err = capsys.readouterr().err
    assert err.startswith("tfloc bound: out of memory: ") and "9000001 x 9000001" in err
