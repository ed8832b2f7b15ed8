"""The three benchmark workloads: inputs, one round of reports, checks.

A workload object loads the tfloc modules it calls (load), builds its inputs
from the seed (setup), lists the operations of one round (operations: label
and callable, each producing one report) and checks a round's outputs
(check).  Calls go through module attributes at call time, so the tracer's
wrappers see them.  This module imports nothing heavy at the top: the set-up
time it measures starts before numpy loads.
"""

from __future__ import annotations

import importlib
import math
import os
import random

# Thinning seeds at which the even-parity thinned rv problem below has
# null_dim >= 1 (2 to 4 measured; see README).  Pigeonhole covers parity
# none for any seed; nothing does for parity even, so a run's seed picks
# from this list.
THIN_SEEDS = (20260, *range(24))
DEFAULT_SEED = 20260


def _load(names):
    return [importlib.import_module(f"tfloc.{n}") for n in names]


def witness_record(label, thinned, res, outside, tail) -> dict:
    """What checks.check_witness reads from one witness report."""
    p = res.problem
    return {
        "label": label, "thinned": thinned, "parity": p.parity, "R1": p.R1,
        "R2": p.R2, "size_S": len(res.entries), "rows": p.constraint_count,
        "null_dim": res.null_dim, "residual": res.residual, "l2": res.l2,
        "sup_value": res.sup_value, "samples": res.function.samples,
        "step": res.function.step, "outside_support_max": outside,
        "tail": list(tail.max_by_order) if tail is not None else [],
    }


class Witness:
    """README witness (rv, R1 = R2 = 3, C 0.22, eps 0.1, thin 0.2) at parity
    none and even, plus the unthinned scheme, which must admit no witness."""

    name = "witness"
    R1 = R2 = 3.0
    C, EPS, THIN = 0.22, 0.1, 0.2

    def load(self):
        self.schemes, self.witness = _load(("schemes", "witness"))

    def setup(self, seed: int):
        thin_seed = DEFAULT_SEED if seed == DEFAULT_SEED else THIN_SEEDS[seed % len(THIN_SEEDS)]
        full = self.schemes.rv_scheme(int(math.ceil(max(self.R1, self.R2) ** 2)) + 1)
        thinned = self.witness.thin_scheme(full, self.THIN, self.R1, self.R2, seed=thin_seed)
        make = lambda s, parity: self.witness.WitnessProblem(
            s, self.R1, self.R2, C=self.C, eps=self.EPS, parity=parity)
        self.problems = (("thinned-none", make(thinned, "none"), True),
                         ("thinned-even", make(thinned, "even"), True),
                         ("unthinned", make(full, "none"), False))
        return {"thin_seed": thin_seed}

    def _report(self, problem, thinned: bool, label: str) -> dict:
        # the certificate set of `tfloc witness`
        w = self.witness
        res = w.solve_witness(problem)
        outside = w.outside_support_max(res)
        tail = w.tail_certificate(res) if res.null_dim >= 1 else None
        return witness_record(label, thinned, res, outside, tail)

    def operations(self, workdir, tracer):
        return [(label, lambda p=p, t=t, label=label: self._report(p, t, label))
                for label, p, t in self.problems]

    def check(self, outputs, cache):
        import checks

        for rec in outputs.values():
            checks.check_witness(rec)


class Spectrum:
    """localization_spectrum at 4WT in {16, 32, 64}; the seed picks W per
    size from {1, 2, 4}, with T = 4WT / (4W).  The spectrum and the grid
    size depend on W T only, so the cost does not depend on the seed."""

    name = "spectrum"
    FOUR_WT = (16, 32, 64)

    def load(self):
        (self.localization,) = _load(("localization",))

    def setup(self, seed: int):
        rng = random.Random(seed)
        self.sizes = []
        for fwt in self.FOUR_WT:
            W = float(rng.choice((1, 2, 4)))
            self.sizes.append((W, fwt / (4.0 * W)))
        return {"W_T": self.sizes}

    def _report(self, W, T):
        spec = self.localization.localization_spectrum(W, T)
        return {"W": W, "T": T, "eigenvalues": spec.eigenvalues,
                "trace": spec.trace, "count_half": spec.count_half}

    def operations(self, workdir, tracer):
        return [(f"4WT={4 * W * T:g}", lambda W=W, T=T: self._report(W, T))
                for W, T in self.sizes]

    def check(self, outputs, cache):
        import checks

        for rec in outputs.values():
            key = ("hs", rec["W"], rec["T"])
            if key not in cache:
                cache[key] = checks.hilbert_schmidt(rec["W"], rec["T"])
            checks.check_spectrum(rec, cache[key])


# derivative_bound_check's default sweep; for every central-piece atom of the
# audit its sup of |F Phi'| xi lies within the first PEAK_POINTS points
# (index 22 at most, see README), where sweep_evidence recomputes it
SWEEP = (0.6, 100.0, 2000)
PEAK_POINTS = 64


def sweep_evidence(fourier, atom, report: dict, seed: int) -> dict:
    """What checks.check_derivative_bound compares the sweep's report with:
    tfloc's ft_at over the sweep's first PEAK_POINTS points (head_max) and at
    the peak, the first point and one seeded point, scipy quad at those
    three, and the atom's L1 scale."""
    import numpy as np

    import checks

    f = atom.to_sampled()
    xi = np.geomspace(*SWEEP)
    weight = report["D"] ** report["T1"] * xi ** report["T2"]
    head = np.abs(fourier.ft_at(f, xi[:PEAK_POINTS], m=report["n"])) * weight[:PEAK_POINTS]
    pick = sorted({0, int(np.argmax(head)), random.Random(seed).randrange(len(xi))})
    support = atom.bell.support
    return {
        "xi": xi[pick], "ft_at": fourier.ft_at(f, xi[pick], m=report["n"]),
        "quad": [checks.atom_transform_quad(atom.value, support, x, report["n"])
                 for x in xi[pick]],
        "head_max": float(np.max(head)),
        "scale": (2.0 * math.pi) ** report["n"]
        * float(np.sum(np.abs(f.grid ** report["n"] * f.samples)) * f.step),
    }


class Audit:
    """CLI counting and basis reports plus one derivative-bound sweep.

    Reports: the rv bound surface over [1, 10]^2 at step 0.01 as CSV
    (811,801 rows), the zeta margin table to T = 236, the Whitney deficit
    sweep D = 2^4 .. 2^20, basis check on 50 atoms and one decay fit.  The
    sweep is derivative_bound_check (n = 1, T2 = 1, C = 0.5) over 2000
    geomspace xi for an admissible atom of the central piece (D = 32,
    eta = 0.3) that the seed picks; the grid and sweep, hence the cost, do
    not depend on the atom.
    """

    name = "audit"
    D, ETA, C = 32.0, 0.3, 0.5
    CLI = (
        ("bound", ["bound", "--scheme", "rv", "--R1-max", "10", "--R2-max", "10",
                   "--step", "0.01", "--eps", "0.1"]),
        ("zeta", ["zeta", "--T-max", "236", "--eps", "0.1", "--C", "10"]),
        *((f"whitney-2^{p}", ["whitney", "--D", str(2**p), "--C", "1", "--eps", "0.1"])
          for p in range(4, 21)),
        ("basis", ["basis", "check", "--D", "32", "--eta", "0.3", "--count", "50"]),
        ("decay", ["decay", "fit", "--D", "32", "--eta", "0.3", "--j", "5", "--k", "0"]),
    )

    def load(self):
        self.cli, self.lcbasis, self.whitney, self.fourier = _load(
            ("cli", "lcbasis", "whitney", "fourier"))

    def setup(self, seed: int):
        w = self.whitney.whitney_decompose(self.D)
        basis = self.lcbasis.build_basis(w, self.ETA)
        j = len(w.pieces) // 2
        threshold = self.C * math.log(self.D) ** (1.0 / (1.0 - self.ETA))
        k = random.Random(seed).randrange(math.ceil(w.pieces[j][1] - threshold))
        self.atom = basis.atom(j, k)
        self.seed = seed
        return {"atom": [j, k]}

    def _cli(self, argv, path, tracer):
        status = self.cli.main([*argv, "--output", path])
        if tracer is not None:
            tracer.add_count("cli.report_bytes", os.path.getsize(path))
        return {"status": status, "path": path}

    def _sweep(self):
        rep = self.lcbasis.derivative_bound_check(
            self.atom, n=1, T1=0.0, T2=1.0, C=self.C, eta=self.ETA)
        return {"c_measured": rep.c_measured, "admissible": rep.admissible,
                "n": rep.n, "D": rep.D, "T1": rep.T1, "T2": rep.T2}

    def operations(self, workdir, tracer):
        ops = [(label, lambda a=argv, p=os.path.join(workdir, f"{label}.csv"):
                self._cli(a, p, tracer)) for label, argv in self.CLI]
        ops.append(("derivative-bound", self._sweep))
        return ops

    def check(self, outputs, cache):
        import checks

        texts = {}
        for label, out in outputs.items():
            if label == "derivative-bound":
                if "sweep" not in cache:
                    cache["sweep"] = sweep_evidence(self.fourier, self.atom, out, self.seed)
                checks.check_derivative_bound({**out, **cache["sweep"]})
                continue
            if out["status"] != 0:
                raise checks.CheckFailed(f"{label}: exit status {out['status']}")
            with open(out["path"]) as fh:
                texts[label] = fh.read()
        # the first round's reports are checked in full; a later round's must
        # repeat them byte for byte, which costs far less than re-parsing the
        # 13.9 MB bound report
        first = cache.setdefault("texts", {})
        for label, text in texts.items():
            if label in first and text != first[label]:
                raise checks.CheckFailed(f"{label}: report differs from the first round's")
        fresh = {k: t for k, t in texts.items() if k not in first}
        first.update(fresh)
        if "zeta" not in cache:
            here = os.path.dirname(os.path.abspath(__file__))
            cache["zeta"] = checks.read_zeros(
                os.path.join(here, "..", "src", "tfloc", "data", "zeta_zeros_100.txt"))
        whitney = [t for k, t in fresh.items() if k.startswith("whitney")]
        for label, check in (("bound", checks.check_bound),
                             ("zeta", lambda t: checks.check_zeta(t, cache["zeta"])),
                             ("basis", checks.check_basis),
                             ("decay", checks.check_decay)):
            if label in fresh:
                check(fresh[label])
        if whitney:
            checks.check_whitney(whitney)


WORKLOADS = {w.name: w for w in (Witness, Spectrum, Audit)}
