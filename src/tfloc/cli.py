"""Command-line front end: one deterministic report per invocation.

Every subcommand produces the same report shape: a config echo, a column
list, data rows, and a summary mapping.  CSV mode prints `#` comment lines
around the rows (config above, summary below); `--json` emits one object
matching data/report.schema.json instead.  All floats are printed with 12
significant digits, and a fixed config yields byte-identical output.  Each
subcommand accepts only the options it reads: --json and --output
everywhere, and a seed only where a step is randomized (witness --seed, the
--thin orbit choice).

Exit codes: 0 success, 1 usage or input error (a report too large to
allocate included), 2 a mathematical property check failed.

Every command runs at one BLAS thread: products, eigensolves and SVDs round
differently at each thread count, and no report may.  `run` sets the thread
variables to 1 before any handler imports numpy, so heavy imports stay
inside the handlers.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from .errors import InputError, PropertyViolation, TflocInputError

THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
LAMBDA_NODE_CAP = 5_000_000


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _jval(v):
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, float):
        return float(f"{v:.12g}")
    return v


def _json_rows(report: dict) -> list:
    """The report's rows, each value rounded for JSON.

    A report may give `grid` = (x, y, z), float arrays, in place of rows: one
    row (x[i], y[j], z[i, j]) per grid point, i-major.
    """
    if "grid" not in report:
        return [[_jval(v) for v in row] for row in report["rows"]]
    # float("%.12g" % v) is _jval's float rule, without its per-value type tests
    xs, ys, zs = ([float("%.12g" % v) for v in a.ravel().tolist()]
                  for a in report["grid"])
    n = len(ys)
    return [row for i, xv in enumerate(xs)
            for row in zip(itertools.repeat(xv, n), ys, zs[i * n:(i + 1) * n])]


@functools.cache
def _g12_tables():
    """The lookup tables of `_g12_fields`, built on the first grid report.

    words: the 4-byte strings "0000".."9999", then ".000"..".999", as uint32;
    trailing: the count of trailing "0" bytes of each word;
    flip: for each (X, fraction digits nF, sign bit), the 32 bytes to XOR
    onto a value's layout: every "0" before its first digit or after its
    last fraction digit becomes NUL, the byte before its first digit becomes
    "-" if it is negative, and the "." becomes NUL if nF = 0.
    """
    import numpy as np

    words = [b"%04d" % k for k in range(10000)] + [b".%03d" % k for k in range(1000)]
    trailing = np.array([len(w) - len(w.rstrip(b"0")) for w in words], np.intp)
    flip = np.zeros((16, 16, 2, 32), np.uint8)
    for X in range(-4, 12):
        first = 15 - max(X, 0)   # the byte of the first digit
        for nF in range(16):
            row = flip[X + 4, nF]
            row[:, :first] = ord("0")
            row[1, first - 1] = ord("0") ^ ord("-")
            row[:, 17 + nF:] = ord("0")
            if nF == 0:
                row[:, 16] = ord(".")
    return (np.array(words).view(np.uint32), trailing, flip.view(np.uint32).reshape(512, 8),
            10 ** np.arange(16))


def _digit_groups(val, count: int) -> list:
    """The last `count` 4-digit groups of the integers val, most significant first."""
    groups = []
    for k in range(count - 1, 0, -1):
        q = val // 10 ** (4 * k)
        groups.append(q)
        val = val - q * 10 ** (4 * k)
    return groups + [val]


def _g12_fields(v):
    """The text "%.12g" % x of each float x of the 1-D array v, as the rows
    of a uint8 array: row i holds the bytes of v[i] in order, with NUL bytes
    before, between and after them.  The rule is _csv_chunks's.
    """
    import numpy as np

    words, trailing, flip, pow10 = _g12_tables()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        # fmin and fmax, unlike clip, take nan into [-4, 11] too
        X = np.fmax(np.fmin(np.floor(np.log10(a)), 11), -4).astype(np.intp)
        s = a * pow10[11 - X]   # 10^k, k <= 15, is exact as a float
        m = np.rint(s)
        fast = (np.abs(s - m) < 0.499) & (m > 1e11) & (m < 1e12)
    X = np.where(fast, X, -4)   # other values: I = F = 0 and the narrowest field
    # the rounded |v| is I.F, F its 15 fraction digits; the layout is 32
    # bytes: I zero-padded to 16 digits, ".", F's 15 digits
    I, F = np.divmod(np.where(fast, m, 0).astype(np.int64), pow10[11 - X])
    F *= pow10[X + 4]
    fraction = _digit_groups(F, 4)
    fraction[0] += 10000   # F < 10^15: its first word is ".ddd"
    t = trailing.take(fraction[0])
    for g in fraction[1:]:
        t = np.where(g == 0, t + 4, trailing.take(g))
    nF = 15 - t
    # the bytes [lo, hi) hold every field of the block: from the sign byte
    # of the value with the most integer digits to the last fraction digit
    # of the value with the most fraction digits
    lo = 14 - X.max(initial=0)
    hi = 17 + nF.max(initial=0)
    w0, w1 = lo // 4, -(-hi // 4)
    groups = _digit_groups(I, 4 - w0) + fraction[:w1 - 4]
    w = np.empty((len(v), w1 - w0), np.uint32)
    for c, g in enumerate(groups):
        w[:, c] = words.take(g)
    w ^= flip[:, w0:w1].take(((X + 4) * 16 + nF) * 2 + np.signbit(v), axis=0)
    out = w.view(np.uint8)[:, lo - 4 * w0:hi - 4 * w0]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([b"%.12g" % x for x in v[slow].tolist()])
        if text.itemsize > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.itemsize - out.shape[1])))
        out[slow] = 0
        out[slow, :text.itemsize] = text.view(np.uint8).reshape(len(slow), -1)
    return out


def _csv_chunks(report: dict):
    """The CSV report as a sequence of strings: the config lines and column
    header, the rows, then the summary lines.

    A `grid` report yields one chunk per block of x values, about 2^13 rows
    (one x value at least), so a block's temporaries stay under 2 MiB.  Each
    value becomes a field of bytes with NULs among them (`_g12_fields`); a
    block's lines are laid out as x field and ",", y field and ",", z field
    and newline in one uint8 array, and dropping its NUL bytes gives the
    chunk.

    A field holds the bytes of "%.12g" % v, _fmt's float rule.  For
    X = floor(log10 |v|) in [-4, 11] that is fixed notation with the
    12-digit significand m = round(|v| 10^(11 - X)), trailing zeros
    stripped.  s = |v| * float(10**(11 - X)) has exact factors and one
    rounding, so below 10^12 < 2^40 it is within 2^-14 of |v| 10^(11 - X).
    Where |s - rint(s)| < 0.499 and 10^11 < rint(s) < 10^12, rint(s) is
    therefore m, and X is the exponent of the rounded value too: its digits
    come from tables.  Every other value (+-0, inf, nan, the exponent forms,
    ties and near-ties, and m at either end of the decade) is formatted by
    "%.12g" % v itself.
    """
    head = [f"# tfloc {report['command']}"]
    head += [f"# {k}={_fmt(report['config'][k])}" for k in sorted(report["config"])]
    head.append(",".join(report["columns"]))
    yield "\n".join(head) + "\n"
    if "grid" in report:
        import numpy as np

        x, y, z = report["grid"]
        xs, ys = (np.pad(_g12_fields(a), ((0, 0), (0, 1)), constant_values=ord(","))
                  for a in (x, y))
        start = xs.shape[1] + ys.shape[1]   # the z field's column
        rows = max(1, 2 ** 13 // len(ys))
        for i in range(0, len(xs), rows):
            xi = xs[i:i + rows, None]
            zs = _g12_fields(z[i:i + rows].ravel()).reshape(len(xi), len(ys), -1)
            line = np.empty((len(xi), len(ys), start + zs.shape[2] + 1), np.uint8)
            line[..., :xs.shape[1]] = xi
            line[..., xs.shape[1]:start] = ys
            line[..., start:-1] = zs
            line[..., -1] = ord("\n")
            yield line.tobytes().translate(None, b"\0").decode("ascii")
    else:
        yield "".join(",".join(map(_fmt, row)) + "\n" for row in report["rows"])
    yield "".join(f"# {k}={_fmt(report['summary'][k])}\n"
                  for k in sorted(report["summary"]))


def _emit(report: dict, args) -> None:
    """Write the report to --output or stdout.

    CSV goes out chunk by chunk (`_csv_chunks`), so a `grid` report is never
    held as one string.  A reader that closes stdout early (`| head`) ends
    the report quietly: the rest is sent to os.devnull.
    """
    if args.json:
        clean = {
            "command": report["command"],
            "config": {k: _jval(v) for k, v in report["config"].items()},
            "columns": list(report["columns"]),
            "rows": _json_rows(report),
            "summary": {k: _jval(v) for k, v in report["summary"].items()},
        }
        chunks = [json.dumps(clean, sort_keys=True) + "\n"]
    else:
        chunks = _csv_chunks(report)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter's final flush would raise again: point stdout's
        # descriptor at os.devnull, as the Python signal docs recommend
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load_zeros(path):
    from .schemes import bundled_zeros, parse_zeros_file

    return parse_zeros_file(path) if path else bundled_zeros()


def _build_scheme(name: str, zeros_file, R1_need: float, R2_need: float):
    """Scheme whose node extents cover the requested radii, with lambda node
    indices n up to max(R1, R2)^2 (rv) or exp(4 pi R1) (zeta), at most
    LAMBDA_NODE_CAP: a radius is checked before it is squared or exponentiated."""
    if name == "rv":
        from .schemes import rv_scheme

        R = max(R1_need, R2_need)
        if R > math.sqrt(LAMBDA_NODE_CAP):
            raise InputError(f"R = {R:g} needs ~R^2 rv lambda nodes (cap {LAMBDA_NODE_CAP})")
        max_n = int(math.ceil(R ** 2)) + 1
        return rv_scheme(max_n)
    from .schemes import zeta_scheme

    zeros = _load_zeros(zeros_file)
    if 4.0 * math.pi * R1_need > math.log(LAMBDA_NODE_CAP):
        raise InputError(
            f"R1 = {R1_need:g} needs ~exp(4 pi R1) zeta lambda nodes (cap {LAMBDA_NODE_CAP})"
        )
    if len(zeros) == 0 or R2_need > zeros[-1]:
        raise InputError("zeros table does not reach the requested R2 extent")
    return zeta_scheme(zeros, int(math.ceil(math.exp(4.0 * math.pi * R1_need))) + 1)


def _cmd_whitney(args) -> tuple[dict, int]:
    from .whitney import admissible_set, whitney_decompose

    w = whitney_decompose(args.D)
    large = set(w.large_indices)
    rows = [(left, length, 1 if j in large else 0)
            for j, (left, length) in enumerate(w.pieces)]
    config = {"D": args.D}
    summary = {"pieces": len(w.pieces), "large_pieces": len(w.large_indices)}
    if (args.C is None) != (args.eps is None):
        raise InputError("--C and --eps must be given together")
    if args.C is not None:
        S = admissible_set(w, args.C, args.eps)
        config.update(C=args.C, eps=args.eps)
        summary.update(size_S=S.size, deficit_constant=S.deficit_constant())
    report = {"command": "whitney", "config": config,
              "columns": ["left", "length", "in_Jprime"],
              "rows": rows, "summary": summary}
    return report, 0


def _cmd_bells(args) -> tuple[dict, int]:
    import numpy as np

    from .whitney import whitney_decompose
    from .windows import build_bells

    if args.samples < 2:
        raise InputError("--samples must be at least 2")
    w = whitney_decompose(args.D)
    bells = build_bells(w, args.eta)
    rows = []
    for j, bell in enumerate(bells):
        lo, hi = bell.support
        x = np.linspace(lo, hi, args.samples)
        vals = bell.value(x)
        rows.extend((j, float(xi), float(vi)) for xi, vi in zip(x, vals))
    report = {
        "command": "bells",
        "config": {"D": args.D, "eta": args.eta, "samples": args.samples},
        "columns": ["piece", "x", "value"],
        "rows": rows,
        "summary": {"bells": len(bells)},
    }
    return report, 0


def _cmd_basis(args) -> tuple[dict, int]:
    from .lcbasis import build_basis, gram_check
    from .whitney import whitney_decompose

    basis = build_basis(whitney_decompose(args.D), args.eta)
    atoms = basis.first_atoms(args.count)
    deviation = gram_check(atoms, n=args.n)
    rows = [(a.j, a.k, a.xi, a.delta) for a in atoms]
    passed = deviation < args.tol
    report = {
        "command": "basis",
        "config": {"D": args.D, "eta": args.eta, "count": args.count,
                   "n": args.n, "tol": args.tol},
        "columns": ["j", "k", "xi", "delta"],
        "rows": rows,
        "summary": {"gram_deviation": deviation, "passed": passed},
    }
    return report, 0 if passed else 2


def _cmd_decay(args) -> tuple[dict, int]:
    from .lcbasis import build_basis, concentration_check
    from .whitney import whitney_decompose

    basis = build_basis(whitney_decompose(args.D), args.eta)
    if not 0 <= args.j < len(basis.bells):
        raise InputError(f"piece index j={args.j} outside 0..{len(basis.bells) - 1}")
    if args.k < 0:
        raise InputError("atom index k must be nonnegative")
    atom = basis.atom(args.j, args.k)
    rep = concentration_check(atom, args.eta, n=args.n)
    fit = rep.fit
    u_lo, u_hi = fit.u_range
    row = (fit.amplitude, fit.rate, fit.exponent, fit.prefactor_power,
           fit.n_points, fit.residual, u_lo, u_hi)
    report = {
        "command": "decay",
        "config": {"D": args.D, "eta": args.eta, "j": args.j, "k": args.k,
                   "n": args.n},
        "columns": ["amplitude", "rate", "exponent", "prefactor_power",
                    "n_points", "residual", "u_lo", "u_hi"],
        "rows": [row],
        "summary": {
            "target_exponent": 1.0 - args.eta,
            "bound_rate": rep.bound_rate,
            "bound_amplitude": rep.bound_amplitude,
            "worst_ratio": rep.worst_ratio,
        },
    }
    return report, 0


def _cmd_prolate(args) -> tuple[dict, int]:
    from .localization import localization_spectrum

    spec = localization_spectrum(args.W, args.T)
    rows = list(enumerate(float(v) for v in spec.eigenvalues))
    report = {
        "command": "prolate",
        "config": {"W": args.W, "T": args.T, "N": spec.N},
        "columns": ["index", "eigenvalue"],
        "rows": rows,
        "summary": {
            "four_wt": 4.0 * args.W * args.T,
            "count_half": spec.count_half,
            "count_plunge": spec.count_plunge,
            "trace": spec.trace,
        },
    }
    return report, 0


def _cmd_bound(args) -> tuple[dict, int]:
    from .schemes import audit_bound

    scheme = _build_scheme(args.scheme, args.zeros_file, args.R1_max, args.R2_max)
    audit = audit_bound(scheme, (1.0, args.R1_max), (1.0, args.R2_max),
                        args.step, args.eps)
    report = {
        "command": "bound",
        "config": {"scheme": args.scheme, "R1_max": args.R1_max,
                   "R2_max": args.R2_max, "step": args.step, "eps": args.eps},
        "columns": ["R1", "R2", "slack"],
        "grid": (audit.R1, audit.R2, audit.slack),
        "summary": {
            "min_slack": audit.min_slack,
            "argmin_R1": audit.argmin[0],
            "argmin_R2": audit.argmin[1],
            "C_fit": audit.C_fit,
        },
    }
    return report, 0


def _cmd_zeta(args) -> tuple[dict, int]:
    from .schemes import riemann_von_mangoldt_check

    zeros = _load_zeros(args.zeros_file)
    rep = riemann_von_mangoldt_check(zeros, (1.0, args.T_max), eps=args.eps,
                                     C=args.C)
    rows = [(float(t), float(m)) for t, m in zip(rep.T, rep.margin)]
    report = {
        "command": "zeta",
        "config": {"T_max": args.T_max, "eps": args.eps, "C": args.C},
        "columns": ["T", "margin"],
        "rows": rows,
        "summary": {
            "worst_margin": rep.worst_margin,
            "worst_T": rep.worst_T,
            "C_min": rep.C_min,
            "passed": rep.passed,
        },
    }
    return report, 0 if rep.passed else 2


# residual and sigma_min print no lower than this times sigma_max: below it
# they are rounding noise that changes with the BLAS build and thread count
NOISE_REL_FLOOR = 1e-14


def _cmd_witness(args) -> tuple[dict, int]:
    from .witness import (WitnessProblem, outside_support_max, solve_witness,
                          tail_certificate, thin_scheme)

    scheme = _build_scheme(args.scheme, args.zeros_file, args.R1, args.R2)
    config = {"scheme": args.scheme, "R1": args.R1, "R2": args.R2,
              "C": args.C, "eps": args.eps, "parity": args.parity}
    if args.thin is not None:
        scheme = thin_scheme(scheme, args.thin, args.R1, args.R2, seed=args.seed)
        config.update(thin=args.thin, seed=args.seed)
    problem = WitnessProblem(scheme, args.R1, args.R2, C=args.C, eps=args.eps,
                             parity=args.parity)
    res = solve_witness(problem)
    floor = NOISE_REL_FLOOR * res.sigma_max
    summary = {
        "D": problem.D,
        "eta": problem.eta,
        "size_S": len(res.entries),
        "constraint_rows": problem.constraint_count,
        "null_dim": res.null_dim,
        "residual": max(res.residual, floor),
        "sigma_min": max(res.sigma_min, floor),
        "sigma_max": res.sigma_max,
        "l2": res.l2,
        "l2_target": res.l2_target,
        "sup_x": res.sup_x,
        "sup_value": res.sup_value,
        "sup_floor": res.sup_floor,
        "outside_support_max": outside_support_max(res),
    }
    rows = []
    if res.null_dim >= 1:
        tail = tail_certificate(res)
        rows = [(k, v) for k, v in tail.max_by_order]
        summary["tail_weighted_sum"] = tail.weighted_sum
    report = {"command": "witness", "config": config,
              "columns": ["ft_order", "tail_max"], "rows": rows,
              "summary": summary}
    return report, 0


_HANDLERS = {
    "whitney": _cmd_whitney,
    "bells": _cmd_bells,
    "basis": _cmd_basis,
    "decay": _cmd_decay,
    "prolate": _cmd_prolate,
    "bound": _cmd_bound,
    "zeta": _cmd_zeta,
    "witness": _cmd_witness,
}


def finite(text: str) -> float:
    """argparse type of every float option: a float other than nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; argparse's default is 2, which we reserve
    # for failed property checks
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of CSV")
    common.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")

    p = _Parser(prog="tfloc",
                description="verification reports for the tfloc package")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    q = sub.add_parser("whitney", parents=[common],
                       help="dyadic decomposition table")
    q.add_argument("--D", type=finite, required=True)
    q.add_argument("--C", type=finite)
    q.add_argument("--eps", type=finite)

    q = sub.add_parser("bells", parents=[common], help="sampled bell windows")
    q.add_argument("--D", type=finite, required=True)
    q.add_argument("--eta", type=finite, required=True)
    q.add_argument("--samples", type=int, default=256)

    q = sub.add_parser("basis", parents=[common],
                       help="orthonormality check of the atom family")
    q.add_argument("action", choices=["check"])
    q.add_argument("--D", type=finite, required=True)
    q.add_argument("--eta", type=finite, required=True)
    q.add_argument("--count", type=int, default=50)
    q.add_argument("--n", type=int, default=1 << 16)
    q.add_argument("--tol", type=finite, default=1e-6)

    q = sub.add_parser("decay", parents=[common],
                       help="transform decay fit for one atom")
    q.add_argument("action", choices=["fit"])
    q.add_argument("--D", type=finite, required=True)
    q.add_argument("--eta", type=finite, required=True)
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, default=1 << 16)

    q = sub.add_parser("prolate", parents=[common],
                       help="time-frequency localization spectrum")
    q.add_argument("--W", type=finite, required=True)
    q.add_argument("--T", type=finite, required=True)

    q = sub.add_parser("bound", parents=[common],
                       help="counting bound slack surface")
    q.add_argument("--scheme", choices=["rv", "zeta"], required=True)
    q.add_argument("--zeros-file", dest="zeros_file")
    q.add_argument("--R1-max", type=finite, dest="R1_max", required=True)
    q.add_argument("--R2-max", type=finite, dest="R2_max", required=True)
    q.add_argument("--step", type=finite, required=True)
    q.add_argument("--eps", type=finite, required=True)

    q = sub.add_parser("zeta", parents=[common],
                       help="zero-counting margin table")
    q.add_argument("--zeros-file", dest="zeros_file")
    q.add_argument("--T-max", type=finite, dest="T_max", required=True)
    q.add_argument("--eps", type=finite, required=True)
    q.add_argument("--C", type=finite, default=10.0)

    q = sub.add_parser("witness", parents=[common],
                       help="annihilating witness certificates")
    q.add_argument("--scheme", choices=["rv", "zeta"], required=True)
    q.add_argument("--zeros-file", dest="zeros_file")
    q.add_argument("--R1", type=finite, required=True)
    q.add_argument("--R2", type=finite, required=True)
    q.add_argument("--C", type=finite, required=True)
    q.add_argument("--eps", type=finite, required=True)
    q.add_argument("--thin", type=finite)
    q.add_argument("--seed", type=int, default=0,
                   help="seed of the --thin orbit choice (default 0)")
    q.add_argument("--parity", choices=["none", "even", "odd"], default="none")
    return p


def run(args) -> int:
    for var in THREAD_ENV_VARS:
        os.environ[var] = "1"
    report, status = _HANDLERS[args.command](args)
    _emit(report, args)
    return status


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except PropertyViolation as exc:
        print(f"tfloc {args.command}: property violation: {exc}", file=sys.stderr)
        return 2
    except TflocInputError as exc:
        print(f"tfloc {args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"tfloc {args.command}: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
