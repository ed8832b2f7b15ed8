"""Self-test of the benchmark's output checks: none of them is vacuous.

    python3 perfbench/selftest.py

Builds genuine outputs at small sizes (a thinned and an unthinned witness,
a 4WT = 4 spectrum, small CLI reports, a 64-point derivative-bound sweep),
requires every check to pass on them, then feeds each check corrupted
copies and requires each to fail.  Takes under 10 s; exits 1 if any check
accepts a corrupted output or rejects a genuine one.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tfloc import cli, fourier, lcbasis, localization, schemes, whitney, witness  # noqa: E402

FAILURES = []


def expect(ok_or_fail: bool, label: str, check, *args) -> None:
    """Run check(*args); ok_or_fail True means it must pass, False fail."""
    try:
        check(*args)
        passed = True
    except checks.CheckFailed:
        passed = False
    if passed != ok_or_fail:
        FAILURES.append(label)
    print(f"{'ok  ' if passed == ok_or_fail else 'BAD '} {label}")


def altered(rec: dict, **changes) -> dict:
    out = copy.deepcopy(rec)
    out.update(changes)
    return out


def edit_row(text: str, row: int, column: int, delta: float) -> str:
    """The report with data row `row` (0-based) changed by delta in `column`."""
    lines = text.split("\n")
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    cells = lines[first + row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[first + row] = ",".join(cells)
    return "\n".join(lines)


def edit_summary(text: str, key: str, value: str) -> str:
    return "\n".join(f"# {key}={value}" if ln.startswith(f"# {key}=") else ln
                     for ln in text.split("\n"))


def report(argv, tmp) -> str:
    path = os.path.join(tmp, "report.csv")
    status = cli.main([*argv, "--output", path])
    if status != 0:
        raise SystemExit(f"selftest: tfloc {' '.join(argv)} exited {status}")
    with open(path) as fh:
        return fh.read()


def witness_cases():
    full = schemes.rv_scheme(10)
    thin = witness.thin_scheme(full, 0.2, 3.0, 3.0, seed=workloads.DEFAULT_SEED)
    res = witness.solve_witness(witness.WitnessProblem(thin, 3.0, 3.0, 0.22, 0.1))
    good = workloads.witness_record("thinned", True, res, witness.outside_support_max(res),
                                    witness.tail_certificate(res, n_xi=8))
    expect(True, "witness: genuine thinned report", checks.check_witness, good)
    v = good["samples"]
    for label, bad in (
        ("residual 1e-6", altered(good, residual=1e-6)),
        ("null_dim 0 on a thinned input", altered(good, null_dim=0)),
        ("null_dim below |S| - rows", altered(good, null_dim=good["size_S"] - good["rows"] - 1)),
        ("witness scaled by 1 + 1e-5", altered(good, samples=v * (1 + 1e-5))),
        ("reported l2 off by 1e-8", altered(good, l2=good["l2"] + 1e-8)),
        ("sup below 1/sqrt(D)", altered(good, sup_value=0.16)),
        ("sup below the sampled maximum", altered(good, sup_value=float(np.max(np.abs(v))) * 0.99)),
        ("mass outside [-R1, R1]", altered(good, outside_support_max=1e-300)),
        ("missing tail orders", altered(good, tail=[])),
    ):
        expect(False, f"witness: {label}", checks.check_witness, bad)
    res = witness.solve_witness(witness.WitnessProblem(full, 3.0, 3.0, 0.22, 0.1))
    good = workloads.witness_record("unthinned", False, res,
                                    witness.outside_support_max(res), None)
    expect(True, "witness: genuine unthinned report", checks.check_witness, good)
    expect(False, "witness: unthinned null_dim 1", checks.check_witness,
           altered(good, null_dim=1))


def spectrum_cases():
    spec = localization.localization_spectrum(1.0, 1.0)
    good = {"W": 1.0, "T": 1.0, "eigenvalues": spec.eigenvalues,
            "trace": spec.trace, "count_half": spec.count_half}
    hs = checks.hilbert_schmidt(1.0, 1.0)
    expect(True, "spectrum: genuine 4WT=4", checks.check_spectrum, good, hs)
    ev = spec.eigenvalues
    swapped = ev.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    for label, bad, ref in (
        ("reported trace off by 1e-6", altered(good, trace=spec.trace + 1e-6), hs),
        ("an eigenvalue off by 1e-6", altered(good, eigenvalues=ev + np.eye(1, len(ev), 5)[0] * 1e-6), hs),
        ("eigenvalues out of order", altered(good, eigenvalues=swapped), hs),
        ("eigenvalue above 1", altered(good, eigenvalues=np.concatenate([[1.0 + 1e-7], ev[1:] - 1e-7 / (len(ev) - 1)])), hs),
        ("count_half off by 1", altered(good, count_half=spec.count_half + 1), hs),
        ("Hilbert-Schmidt reference off by 2e-3", good, hs + 2e-3),
    ):
        expect(False, f"spectrum: {label}", checks.check_spectrum, bad, ref)
    flat = np.full(len(ev), 4.0 / len(ev))  # right trace, far too little mass near 1
    expect(False, "spectrum: 4WT count from a flat spectrum", checks.check_spectrum,
           altered(good, eigenvalues=flat, trace=float(np.sum(flat)), count_half=0), hs)


def audit_cases(tmp):
    text = report(["bound", "--scheme", "rv", "--R1-max", "3", "--R2-max", "3",
                   "--step", "0.01", "--eps", "0.1"], tmp)
    expect(True, "bound: genuine report", checks.check_bound, text)
    row_at_2_2 = 100 * 201 + 100  # R1 = R2 = 2: both radii at a perfect square
    for label, bad in (
        ("one slack row off by 1", edit_row(text, 777, 2, 1.0)),
        ("perfect-square row counted exclusive", edit_row(text, row_at_2_2, 2, -2.0)),
        ("min_slack misreported", edit_summary(text, "min_slack", "-1.5")),
        ("C_fit misreported", edit_summary(text, "C_fit", "0.5")),
    ):
        expect(False, f"bound: {label}", checks.check_bound, bad)

    zeros = checks.read_zeros(os.path.join(os.path.dirname(HERE), "src", "tfloc", "data",
                                           "zeta_zeros_100.txt"))
    text = report(["zeta", "--T-max", "236", "--eps", "0.1", "--C", "10"], tmp)
    expect(True, "zeta: genuine report", checks.check_zeta, text, zeros)
    for label, bad, table in (
        ("one margin row off by 1", edit_row(text, 500, 1, 1.0), zeros),
        ("worst_margin misreported", edit_summary(text, "worst_margin", "0.45"), zeros),
        ("C_min misreported", edit_summary(text, "C_min", "0.00304"), zeros),
        ("table missing a zero below 100", text, np.delete(zeros, 3)),
    ):
        expect(False, f"zeta: {label}", checks.check_zeta, bad, table)
    again = os.path.join(tmp, "zeta-again.csv")
    with open(again, "w") as fh:
        fh.write(edit_row(text, 10, 1, 1e-9))
    expect(False, "audit: a later round's report differs from the first's",
           workloads.Audit().check, {"zeta": {"status": 0, "path": again}},
           {"texts": {"zeta": text}, "zeta": zeros})

    texts = [report(["whitney", "--D", str(2**p), "--C", "1", "--eps", "0.1"], tmp)
             for p in range(4, 12)]
    expect(True, "whitney: genuine sweep", checks.check_whitney, texts)
    size = int(checks.parse_report(texts[2])[3]["size_S"])
    for label, bad in (
        ("size_S off by 1", [*texts[:2], edit_summary(texts[2], "size_S", str(size + 1)), *texts[3:]]),
        ("a piece length off by 1e-3", [*texts[:2], edit_row(texts[2], 1, 1, 1e-3), *texts[3:]]),
        ("deficit constant misreported", [*texts[:2], edit_summary(texts[2], "deficit_constant", "1.3"), *texts[3:]]),
    ):
        expect(False, f"whitney: {label}", checks.check_whitney, bad)

    text = report(["basis", "check", "--D", "32", "--eta", "0.3", "--count", "10"], tmp)
    expect(True, "basis: genuine report", checks.check_basis, text)
    expect(False, "basis: gram deviation 2e-6", checks.check_basis,
           edit_summary(text, "gram_deviation", "2e-06"))
    expect(False, "basis: an xi off by 1e-6", checks.check_basis, edit_row(text, 4, 2, 1e-6))

    text = report(["decay", "fit", "--D", "32", "--eta", "0.3", "--j", "5", "--k", "0"], tmp)
    expect(True, "decay: genuine report", checks.check_decay, text)
    expect(False, "decay: exponent 0.5", checks.check_decay,
           edit_row(text, 0, 2, 0.5 - float(checks.parse_report(text)[2][0, 2])))


def sweep_cases():
    atom = lcbasis.build_basis(whitney.whitney_decompose(32.0), 0.3).atom(4, 2)
    xi_top = float(np.geomspace(*workloads.SWEEP)[workloads.PEAK_POINTS - 1])
    rep = lcbasis.derivative_bound_check(atom, n=1, T1=0.0, T2=1.0, C=0.5, eta=0.3,
                                         xi_hi=xi_top, n_xi=workloads.PEAK_POINTS)
    out = {"c_measured": rep.c_measured, "admissible": rep.admissible,
           "n": rep.n, "D": rep.D, "T1": rep.T1, "T2": rep.T2}
    good = {**out, **workloads.sweep_evidence(fourier, atom, out, 7)}
    expect(True, "derivative bound: genuine sweep", checks.check_derivative_bound, good)
    for label, bad in (
        ("c_measured off by 1e-6 relative", altered(good, c_measured=rep.c_measured * (1 + 1e-6))),
        ("ft_at off by 1e-6 of the scale", altered(good, ft_at=good["ft_at"] + 1e-6 * good["scale"])),
        ("quadrature missing the moment factor", altered(good, quad=[q / (2j * np.pi) for q in good["quad"]])),
        ("admissible atom flagged vacuous", altered(good, admissible=False)),
    ):
        expect(False, f"derivative bound: {label}", checks.check_derivative_bound, bad)


def main() -> int:
    witness_cases()
    spectrum_cases()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        audit_cases(tmp)
    sweep_cases()
    if FAILURES:
        print(f"{len(FAILURES)} checks misjudged: " + "; ".join(FAILURES))
        return 1
    print("every check passed its genuine output and failed every corrupted one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
