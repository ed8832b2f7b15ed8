"""Command-line front end: one deterministic report per invocation.

Every subcommand produces the same report shape: a config echo, a column
list, data rows, and a summary mapping.  CSV mode prints `#` comment lines
around the rows (config above, summary below); `--json` emits one object
matching data/report.schema.json instead.  All floats are printed with 12
significant digits, and a fixed config yields byte-identical output.  Each
subcommand accepts only the options it reads: --json, --output and
--threads everywhere, and a seed only where a step is randomized (witness
--seed, the --thin orbit choice).

Exit codes: 0 success, 1 usage or input error, 2 a mathematical property
check failed.  Heavy imports happen inside the handlers so that --threads
can cap the BLAS pool before the first numpy import.
"""

from __future__ import annotations

import argparse
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
ZETA_LAMBDA_NODE_CAP = 5_000_000


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


def _cells(report: dict, as_json: bool) -> list:
    """The report's rows, each value formatted for CSV or rounded for JSON.

    A report may give `grid` = (x, y, z), float arrays, in place of rows: one
    row (x[i], y[j], z[i, j]) per grid point, i-major, with each axis value
    formatted once.
    """
    fmt = _jval if as_json else _fmt
    if "grid" not in report:
        return [[fmt(v) for v in row] for row in report["rows"]]
    # "%.12g" % v is _fmt's float rule, without its per-value type tests
    xs, ys, zs = (["%.12g" % v for v in a.ravel().tolist()] for a in report["grid"])
    if as_json:
        xs, ys, zs = ([float(t) for t in col] for col in (xs, ys, zs))
    n = len(ys)
    return [row for i, xv in enumerate(xs)
            for row in zip(itertools.repeat(xv, n), ys, zs[i * n:(i + 1) * n])]


def _emit(report: dict, args) -> None:
    if args.json:
        clean = {
            "command": report["command"],
            "config": {k: _jval(v) for k, v in report["config"].items()},
            "columns": list(report["columns"]),
            "rows": _cells(report, True),
            "summary": {k: _jval(v) for k, v in report["summary"].items()},
        }
        text = json.dumps(clean, sort_keys=True) + "\n"
    else:
        lines = [f"# tfloc {report['command']}"]
        for k in sorted(report["config"]):
            lines.append(f"# {k}={_fmt(report['config'][k])}")
        lines.append(",".join(report["columns"]))
        lines.extend(map(",".join, _cells(report, False)))
        for k in sorted(report["summary"]):
            lines.append(f"# {k}={_fmt(report['summary'][k])}")
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_zeros(path):
    from .schemes import bundled_zeros, parse_zeros_file

    return parse_zeros_file(path) if path else bundled_zeros()


def _build_scheme(name: str, zeros_file, R1_need: float, R2_need: float):
    """Scheme whose node extents cover the requested radii."""
    if name == "rv":
        from .schemes import rv_scheme

        max_n = int(math.ceil(max(R1_need, R2_need) ** 2)) + 1
        return rv_scheme(max_n)
    from .schemes import zeta_scheme

    zeros = _load_zeros(zeros_file)
    need = math.exp(4.0 * math.pi * R1_need)
    if need > ZETA_LAMBDA_NODE_CAP:
        raise InputError(
            f"R1 = {R1_need:g} needs ~exp(4 pi R1) = {need:.3g} zeta lambda "
            f"nodes (cap {ZETA_LAMBDA_NODE_CAP})"
        )
    if len(zeros) == 0 or R2_need > zeros[-1]:
        raise InputError("zeros table does not reach the requested R2 extent")
    return zeta_scheme(zeros, int(math.ceil(need)) + 1)


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


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of CSV")
    common.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--threads", type=int,
                        help="cap BLAS worker threads")

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


def _apply_threads(threads) -> None:
    if threads is None:
        return
    if threads < 1:
        raise InputError("thread count must be a positive integer")
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def run(args) -> int:
    _apply_threads(args.threads)
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


if __name__ == "__main__":
    sys.exit(main())
