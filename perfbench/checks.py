"""Output checks for the benchmark workloads.

Every check compares a report against a value computed here without tfloc
(closed forms, scipy quadrature, the zero table read directly) or against a
property the method must have.  None compares against a stored copy of an
earlier output.  Each check raises CheckFailed naming the quantity and the
bound it broke; selftest.py feeds every check a corrupted output to show
that none is vacuous.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.integrate


class CheckFailed(AssertionError):
    """An output broke a property or disagreed with its reference value."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------- reports


def parse_report(text: str):
    """(config, columns, rows, summary) of a tfloc CSV report.

    rows is a float array of shape (n_rows, n_columns).  Config lines sit
    above the column header and summary lines below the rows, all prefixed
    by '# '.
    """
    lines = text.rstrip("\n").split("\n")
    head = 1  # "# tfloc <command>"
    config = {}
    while lines[head].startswith("# "):
        key, _, val = lines[head][2:].partition("=")
        config[key] = val
        head += 1
    columns = lines[head].split(",")
    tail = len(lines)
    summary = {}
    while lines[tail - 1].startswith("# "):
        key, _, val = lines[tail - 1][2:].partition("=")
        summary[key] = val
        tail -= 1
    body = lines[head + 1 : tail]
    if body:
        rows = np.array(",".join(body).split(","), dtype=float)
        rows = rows.reshape(len(body), len(columns))
    else:
        rows = np.zeros((0, len(columns)))
    return config, columns, rows, summary


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------- witness


def check_witness(rec: dict) -> None:
    """Certificates of one witness report.

    rec holds the reported fields plus the sampled witness (samples, step)
    and the radii, parity and whether the scheme was thinned.  Thinned
    schemes must admit a witness (null_dim >= max(1, |S| - rows)) with
    residual < 1e-8, L2 norm on target (recomputed here by the trapezoid
    rule), sup at or above 1/sqrt(D) and nothing outside [-R1, R1].  The
    unthinned scheme has more rows than atoms and must admit none.
    """
    name = rec["label"]
    if not rec["thinned"]:
        _require(rec["null_dim"] == 0,
                 f"{name}: unthinned null_dim {rec['null_dim']} != 0")
        _require(rec["rows"] >= rec["size_S"],
                 f"{name}: unthinned rows {rec['rows']} < |S| {rec['size_S']}")
        return
    need = max(1, rec["size_S"] - rec["rows"])
    _require(rec["null_dim"] >= need,
             f"{name}: null_dim {rec['null_dim']} < max(1, |S| - rows) = {need}")
    _require(rec["residual"] < 1e-8, f"{name}: residual {rec['residual']:.3e} >= 1e-8")
    v = np.asarray(rec["samples"], dtype=float)
    h = rec["step"]
    l2_own = math.sqrt(h * (float(np.sum(v * v)) - 0.5 * (v[0] ** 2 + v[-1] ** 2)))
    R1, R2 = rec["R1"], rec["R2"]
    if rec["parity"] == "none":
        D, target = 4.0 * R1 * R2, 1.0 / math.sqrt(2.0 * R2)
    else:
        D, target = 2.0 * R1 * R2, 1.0 / math.sqrt(R2)
    _require(abs(l2_own - target) < 1e-6,
             f"{name}: trapezoid L2 {l2_own:.12g} off target {target:.12g} by >= 1e-6")
    _require(abs(rec["l2"] - l2_own) < 1e-9,
             f"{name}: reported l2 {rec['l2']:.12g} != trapezoid {l2_own:.12g}")
    floor = 1.0 / math.sqrt(D)
    _require(rec["sup_value"] >= floor,
             f"{name}: sup {rec['sup_value']:.6g} < 1/sqrt(D) = {floor:.6g}")
    _require(rec["sup_value"] >= float(np.max(np.abs(v))) * (1.0 - 1e-12),
             f"{name}: sup {rec['sup_value']:.12g} below the sampled maximum")
    _require(rec["outside_support_max"] == 0.0,
             f"{name}: |f| = {rec['outside_support_max']:.3e} outside [-R1, R1]")
    orders = [k for k, _ in rec["tail"]]
    _require(orders == list(range(len(orders))) and len(orders) >= 1,
             f"{name}: tail orders {orders} are not 0..k_max")
    _require(all(math.isfinite(m) and m >= 0.0 for _, m in rec["tail"]),
             f"{name}: tail maxima {rec['tail']} not finite and nonnegative")


# ---------------------------------------------------------------- spectrum


def hilbert_schmidt(W: float, T: float) -> float:
    """sum of lambda^2 for the kernel sin(2 pi W (x-y)) / (pi (x-y)) on [-T, T].

    The double integral over the square reduces to
    2 * int_0^{2T} (2T - u) k(u)^2 du with k(u)^2 = (1 - cos 4 pi W u) / (2 pi^2 u^2),
    integrated with scipy quad one half-period of sin^2 at a time.
    """
    def k2(u):
        if u < 1e-6:
            s = 2.0 * W * (1.0 - (2.0 * math.pi * W * u) ** 2 / 6.0)
            return s * s
        return (math.sin(2.0 * math.pi * W * u) / (math.pi * u)) ** 2

    edges = np.append(np.arange(0.0, 2.0 * T, 1.0 / (2.0 * W)), 2.0 * T)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = scipy.integrate.quad(lambda u: (2.0 * T - u) * k2(u), a, b,
                                      epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return 2.0 * total


def check_spectrum(rec: dict, hs: float) -> None:
    """Eigenvalues descending in [-1e-8, 1 + 1e-8], trace = 4WT to 1e-9,
    count above 1/2 within 2 of 4WT, sum of squares on the Hilbert-Schmidt
    integral hs to 1e-3."""
    ev = np.asarray(rec["eigenvalues"], dtype=float)
    fwt = 4.0 * rec["W"] * rec["T"]
    name = f"4WT={fwt:g}"
    _require(np.all(np.diff(ev) <= 0.0), f"{name}: eigenvalues not descending")
    _require(ev.min() >= -1e-8 and ev.max() <= 1.0 + 1e-8,
             f"{name}: eigenvalues span [{ev.min():.3e}, {ev.max():.12g}] outside [0, 1]")
    trace = float(np.sum(ev))
    _require(abs(trace - fwt) <= 1e-9 * fwt, f"{name}: trace {trace!r} != 4WT")
    _require(abs(rec["trace"] - trace) <= 1e-12 * fwt,
             f"{name}: reported trace {rec['trace']!r} != eigenvalue sum {trace!r}")
    count = int(np.sum(ev >= 0.5))
    _require(rec["count_half"] == count,
             f"{name}: reported count_half {rec['count_half']} != {count}")
    _require(abs(count - fwt) <= 2, f"{name}: count_half {count} not within 2 of 4WT")
    hs_ev = float(np.sum(ev * ev))
    _require(abs(hs_ev - hs) < 1e-3,
             f"{name}: sum lambda^2 {hs_ev:.9g} off Hilbert-Schmidt {hs:.9g} by >= 1e-3")


# ---------------------------------------------------------------- audit


def check_bound(text: str) -> None:
    """rv slack rows against (1 + 2[R1^2]) + (1 + 2[R2^2]) - 4 R1 R2.

    The radii are read as exact hundredths m/100, so [R^2] = m^2 // 10^4 in
    integers and radii at perfect squares need no rounding.  Also checks the
    grid, min_slack >= -4 and the summary minimum, argmin and C_fit.
    """
    config, columns, rows, summary = parse_report(text)
    _require(columns == ["R1", "R2", "slack"], f"bound: columns {columns}")
    step = float(config["step"])
    m1 = np.rint(rows[:, 0] / step).astype(np.int64)
    m2 = np.rint(rows[:, 1] / step).astype(np.int64)
    _require(np.all(np.abs(rows[:, :2] - np.column_stack([m1, m2]) * step) < 1e-9),
             "bound: radii off the step grid")
    per_axis = int(round((float(config["R1_max"]) - 1.0) / step)) + 1
    _require(len(rows) == per_axis * per_axis,
             f"bound: {len(rows)} rows, expected {per_axis}^2")
    scale = int(round(1.0 / step)) ** 2
    n1 = 1 + 2 * (m1 * m1 // scale)
    n2 = 1 + 2 * (m2 * m2 // scale)
    r1, r2 = m1 * step, m2 * step
    closed = (n1 + n2) - 4.0 * r1 * r2
    err = np.abs(rows[:, 2] - closed)
    worst = int(np.argmax(err - 1e-9 * np.maximum(1.0, np.abs(closed))))
    _require(err[worst] <= 1e-9 * max(1.0, abs(closed[worst])),
             f"bound: slack at R1={r1[worst]:g}, R2={r2[worst]:g} reads "
             f"{rows[worst, 2]!r}, closed form {closed[worst]!r}")
    i = int(np.argmin(closed))
    _require(closed[i] >= -4.0, f"bound: min slack {closed[i]:.6g} < -4")
    _require(_close(float(summary["min_slack"]), closed[i], 1e-10, 1e-10),
             f"bound: summary min_slack {summary['min_slack']} != {closed[i]!r}")
    _require(_close(float(summary["argmin_R1"]), r1[i], 1e-10)
             and _close(float(summary["argmin_R2"]), r2[i], 1e-10),
             f"bound: summary argmin ({summary['argmin_R1']}, {summary['argmin_R2']})"
             f" != ({r1[i]:g}, {r2[i]:g})")
    eps = float(config["eps"])
    c_fit = max(0.0, float(np.max(-closed / np.log(4.0 * r1 * r2) ** (2.0 + eps))))
    _require(_close(float(summary["C_fit"]), c_fit, 1e-9),
             f"bound: C_fit {summary['C_fit']} != {c_fit!r}")


def read_zeros(path) -> np.ndarray:
    """Zero ordinates from the table: one decimal per line, '#' comments."""
    with open(path, encoding="ascii") as fh:
        vals = [float(s) for s in (ln.split("#", 1)[0].strip() for ln in fh) if s]
    return np.asarray(vals)


def _rvm_main(T):
    return T / (2.0 * math.pi) * np.log(T / (2.0 * math.pi * math.e))


def check_zeta(text: str, zeros: np.ndarray) -> None:
    """Zero-counting margins against the Riemann-von Mangoldt main term.

    N(100) = 29 on the table; every row's margin equals
    N(T) - (main(T) - C log^(2+eps) T); worst_margin and C_min equal this
    module's own extremes, taken over the left and right limits at every
    ordinate, the two ends and a 0.01 grid.
    """
    config, columns, rows, summary = parse_report(text)
    _require(int(np.searchsorted(zeros, 100.0, side="right")) == 29,
             "zeta: N(100) != 29 on the table")
    C, eps = float(config["C"]), float(config["eps"])
    T_max = float(config["T_max"])
    T, margin = rows[:, 0], rows[:, 1]
    N = np.searchsorted(zeros, T, side="right")
    own = N - (_rvm_main(T) - C * np.log(T) ** (2.0 + eps))
    bad = np.abs(margin - own) > 1e-9 * np.maximum(1.0, np.abs(own))
    _require(not np.any(bad), f"zeta: {int(np.sum(bad))} margin rows off the closed form")
    # left limits (N one lower) and values at every ordinate, plus ends and grid
    inside = zeros[(zeros >= 1.0) & (zeros <= T_max)]
    grid = np.arange(1.0, T_max, 0.01)
    pts = np.concatenate([[1.0, T_max], grid, inside, inside])
    counts = np.concatenate([
        np.searchsorted(zeros, [1.0, T_max], side="right"),
        np.searchsorted(zeros, grid, side="right"),
        np.searchsorted(zeros, inside, side="left"),
        np.searchsorted(zeros, inside, side="right"),
    ])
    logs = np.log(pts) ** (2.0 + eps)
    worst = float(np.min(counts - (_rvm_main(pts) - C * logs)))
    _require(_close(float(summary["worst_margin"]), worst, 1e-8, 1e-8),
             f"zeta: worst_margin {summary['worst_margin']} != {worst!r}")
    live = logs > 0
    c_min = max(0.0, float(np.max((_rvm_main(pts[live]) - counts[live]) / logs[live])))
    _require(_close(float(summary["C_min"]), c_min, 1e-6, 1e-10),
             f"zeta: C_min {summary['C_min']} != {c_min!r}")
    _require(int(summary["passed"]) == int(worst >= 0.0),
             f"zeta: passed={summary['passed']} but worst margin {worst:.6g}")


def check_whitney(texts) -> None:
    """Whitney deficit sweep: each report's pieces partition [-D/2, D/2];
    |S| = sum over pieces with delta >= 1 of ceil(delta - C log^(1+eps) D)
    (0 when negative); the deficit constants match and their max/min < 10."""
    deficits = []
    for text in texts:
        config, columns, rows, summary = parse_report(text)
        D, C, eps = float(config["D"]), float(config["C"]), float(config["eps"])
        left, length, large = rows[:, 0], rows[:, 1], rows[:, 2]
        name = f"whitney D={D:g}"
        _require(abs(left[0] + D / 2) <= 1e-9 * D, f"{name}: first piece not at -D/2")
        _require(np.all(np.abs(left[1:] - (left[:-1] + length[:-1])) <= 1e-9 * D),
                 f"{name}: pieces not adjacent")
        _require(abs(float(np.sum(length)) - D) <= 1e-9 * D,
                 f"{name}: lengths sum to {float(np.sum(length))!r}, not D")
        _require(np.array_equal(large == 1, length >= 1.0),
                 f"{name}: in_Jprime flags disagree with length >= 1")
        thr = C * math.log(D) ** (1.0 + eps)
        size = sum(max(0, math.ceil(d - thr)) for d in length if d >= 1.0)
        _require(int(summary["size_S"]) == size,
                 f"{name}: size_S {summary['size_S']} != {size}")
        deficit = (D - size) / math.log(D) ** (2.0 + eps)
        _require(_close(float(summary["deficit_constant"]), deficit, 1e-10),
                 f"{name}: deficit_constant {summary['deficit_constant']} != {deficit!r}")
        deficits.append(deficit)
    ratio = max(deficits) / min(deficits)
    _require(ratio < 10.0, f"whitney: deficit ratio {ratio:.3f} >= 10")


def check_basis(text: str) -> None:
    """Gram deviation < 1e-6, and the listed atoms are the first ones by
    center frequency with xi = (2k + 1) / (4 delta)."""
    config, columns, rows, summary = parse_report(text)
    dev = float(summary["gram_deviation"])
    _require(dev < 1e-6 and int(summary["passed"]) == 1,
             f"basis: gram deviation {dev:.3e} >= 1e-6")
    _require(len(rows) == int(config["count"]), f"basis: {len(rows)} atoms listed")
    k, xi, delta = rows[:, 1], rows[:, 2], rows[:, 3]
    _require(np.allclose(xi, (2.0 * k + 1.0) / (4.0 * delta), rtol=1e-10, atol=0.0),
             "basis: xi != (2k + 1) / (4 delta)")
    _require(np.all(np.diff(xi) >= 0.0), "basis: atoms not ordered by xi")


def check_decay(text: str) -> None:
    """Fitted transform-decay exponent within 15% of 1 - eta, positive rate."""
    config, columns, rows, summary = parse_report(text)
    fit = dict(zip(columns, rows[0]))
    target = 1.0 - float(config["eta"])
    _require(fit["rate"] > 0.0, f"decay: rate {fit['rate']:.6g} <= 0")
    _require(abs(fit["exponent"] - target) <= 0.15 * target,
             f"decay: exponent {fit['exponent']:.6g} not within 15% of {target:.6g}")


def atom_transform_quad(fn, support, xi: float, m: int) -> complex:
    """int (-2 pi i x)^m fn(x) exp(-2 pi i x xi) dx by scipy's QAWO rule."""
    lo, hi = support
    g = lambda x: x**m * float(fn(np.array([x]))[0])
    kw = dict(wvar=2.0 * math.pi * xi, limit=400, epsabs=1e-14, epsrel=1e-12)
    with warnings.catch_warnings():
        # tolerances sit at the roundoff floor on purpose; the check's own
        # tolerance is 1e6 times looser
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        re, _ = scipy.integrate.quad(g, lo, hi, weight="cos", **kw)
        im, _ = scipy.integrate.quad(g, lo, hi, weight="sin", **kw)
    return (-2j * math.pi) ** m * complex(re, -im)


def check_derivative_bound(rec: dict) -> None:
    """The derivative-bound sweep against tfloc's ft_at and scipy quad.

    rec holds the report (c_measured, admissible, D, T1, T2), head_max (the
    largest |F Phi^(n)(xi)| D^T1 xi^T2 over the sweep points that hold its
    peak, from ft_at), the checked xi, ft_at and atom_transform_quad there,
    and the atom's L1 scale.  The atom is admissible; ft_at must agree with
    quad to 1e-8 of the scale; c_measured must equal head_max and cover
    every quadrature value.
    """
    _require(rec["admissible"], "derivative bound: admissible atom flagged vacuous")
    xi = np.asarray(rec["xi"], dtype=float)
    got = np.asarray(rec["ft_at"], dtype=complex)
    want = np.asarray(rec["quad"], dtype=complex)
    err = np.abs(got - want)
    i = int(np.argmax(err))
    _require(err[i] <= 1e-8 * rec["scale"],
             f"derivative bound: ft_at at xi={xi[i]:.6g} is {got[i]:.12g}, "
             f"quad {want[i]:.12g}")
    _require(_close(rec["c_measured"], rec["head_max"], 1e-9),
             f"derivative bound: c_measured {rec['c_measured']!r} != sweep peak "
             f"{rec['head_max']!r}")
    weight = rec["D"] ** rec["T1"] * xi ** rec["T2"]
    floor = float(np.max(np.abs(want) * weight))
    _require(rec["c_measured"] >= floor - 1e-8 * rec["scale"],
             f"derivative bound: c_measured {rec['c_measured']:.12g} below the "
             f"quadrature value {floor:.12g} at a sweep point")
