"""Spans and counts around tfloc's public functions, kept in memory.

install() replaces each traced function by a wrapper at every tfloc module
that holds it by name (for example tfloc.witness.ft_at as well as
tfloc.fourier.ft_at), and each traced method on its class.  A wrapper
records a span (name, start, end, parent, phase) and, for some calls, a
count.  Nothing inside tfloc changes; the untraced runs never install it.

Phase 0 is the set-up that builds a workload's inputs and phase r >= 1 is
round r; calls made while no phase is set (the output checks) are not
recorded.  A per-layer metric is its value in the set-up plus its median
over the rounds, i.e. the cost of one set-up followed by one typical round.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (metric, traced names, time kind): "self" subtracts the time of
# child spans, "total" counts a span unless an ancestor belongs to the same
# metric.  cli.emit_s is cli.main minus every library span inside it.
TIMED_LAYERS = (
    ("whitney.decompose_s", ("whitney.whitney_decompose", "whitney.admissible_set"), "total"),
    ("windows.bell_eval_s", ("windows.BellWindow.value", "windows.BellWindow.derivative"), "self"),
    ("lcbasis.atom_eval_s", ("lcbasis.LocalCosineAtom.value", "lcbasis.LocalCosineAtom.derivative"), "self"),
    ("lcbasis.gram_s", ("lcbasis.gram_check",), "total"),
    ("lcbasis.concentration_s", ("lcbasis.concentration_check",), "self"),
    ("lcbasis.derivative_bound_s", ("lcbasis.derivative_bound_check",), "self"),
    ("fourier.ft_at_s", ("fourier.ft_at",), "total"),
    ("fourier.ft_grid_s", ("fourier.ft_grid",), "total"),
    ("fitting.fit_s", ("fitting.envelope_points", "fitting.fit_decay"), "total"),
    ("witness.assemble_s", ("witness.assemble_constraints",), "self"),
    ("witness.solve_s", ("witness.solve_witness",), "self"),
    ("witness.tail_s", ("witness.tail_certificate",), "self"),
    ("witness.outside_support_s", ("witness.outside_support_max",), "self"),
    ("localization.spectrum_s", ("localization.localization_spectrum",), "total"),
    ("schemes.build_s", ("schemes.rv_scheme", "schemes.zeta_scheme", "schemes.bundled_zeros"), "total"),
    ("schemes.audit_s", ("schemes.audit_bound", "schemes.riemann_von_mangoldt_check",
                         "schemes.counting_function"), "total"),
    ("cli.emit_s", ("cli.main",), "self"),
)
COUNTS = (
    "windows.bell_points",
    "lcbasis.atom_points",
    "fourier.ft_at_phase_evals",
    "localization.matrix_order",
    "cli.report_bytes",
)
UNITS = {name: "s" for name, _, _ in TIMED_LAYERS}
UNITS.update({c: "count" for c in COUNTS})
UNITS["cli.report_bytes"] = "bytes"


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _points(args, kwargs):
    return int(np.size(_arg(args, kwargs, 1, "x")))


def _phase_evals(args, kwargs, out):
    f, xi = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "xi")
    return int(np.size(xi)) * len(f.samples)


# traced name -> (count name, counter(args, kwargs, result))
_COUNTERS = {
    "windows.BellWindow.value": ("windows.bell_points", lambda a, k, o: _points(a, k)),
    "windows.BellWindow.derivative": ("windows.bell_points", lambda a, k, o: _points(a, k)),
    "lcbasis.LocalCosineAtom.value": ("lcbasis.atom_points", lambda a, k, o: _points(a, k)),
    "lcbasis.LocalCosineAtom.derivative": ("lcbasis.atom_points", lambda a, k, o: _points(a, k)),
    "fourier.ft_at": ("fourier.ft_at_phase_evals", _phase_evals),
    "localization.localization_spectrum": ("localization.matrix_order", lambda a, k, o: o.N),
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, phase]
        self.counts = defaultdict(int)   # (phase, count name) -> total
        self.phase = None
        self._stack = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.phase]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if counter is not None:
                self.counts[(self.phase, counter[0])] += counter[1](args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced name wherever tfloc holds it."""
        names = {n for _, group, _ in TIMED_LAYERS for n in group}
        for home in {n.split(".")[0] for n in names}:
            importlib.import_module(f"tfloc.{home}")
        modules = {k: v for k, v in sys.modules.items()
                   if k == "tfloc" or k.startswith("tfloc.")}
        for name in sorted(names):
            parts = name.split(".")
            home = modules[f"tfloc.{parts[0]}"]
            if len(parts) == 3:  # module.Class.method
                cls = getattr(home, parts[1])
                setattr(cls, parts[2], self._wrap(name, getattr(cls, parts[2])))
                continue
            original = getattr(home, parts[1])
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)

    def add_count(self, name: str, value: int) -> None:
        if self.phase is not None:
            self.counts[(self.phase, name)] += value

    def _per_phase(self):
        """{phase: {metric: value}} from the recorded spans and counts."""
        metric_of = {n: m for m, group, _ in TIMED_LAYERS for n in group}
        kind = {m: k for m, _, k in TIMED_LAYERS}
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, parent, phase) in enumerate(self.spans):
            metric = metric_of[name]
            if kind[metric] == "self":
                out[phase][metric] += (t1 - t0) - child_time[i]
                continue
            p = parent
            while p >= 0 and metric_of[self.spans[p][0]] != metric:
                p = self.spans[p][3]
            if p < 0:
                out[phase][metric] += t1 - t0
        for (phase, name), value in self.counts.items():
            out[phase][name] += value
        return out

    def layer_metrics(self, rounds: int) -> dict:
        """One set-up plus the median round, for every per-layer metric."""
        per = self._per_phase()
        result = {}
        for metric in UNITS:
            setup = per[0][metric]
            typical = statistics.median(per[r][metric] for r in range(1, rounds + 1))
            value = setup + typical
            if UNITS[metric] != "s":
                value = int(round(value))
            result[metric] = {"value": value, "unit": UNITS[metric]}
        return result

    def coverage(self, round_walls) -> list:
        """Share of each round's wall time spent inside top-level spans."""
        top = defaultdict(float)
        for name, t0, t1, parent, phase in self.spans:
            if parent < 0:
                top[phase] += t1 - t0
        return [top[r] / w for r, w in enumerate(round_walls, start=1)]

    def dump(self, path, extra: dict) -> None:
        data = dict(extra)
        data["spans"] = self.spans
        data["counts"] = [[ph, n, v] for (ph, n), v in sorted(self.counts.items())]
        with open(path, "w") as fh:
            json.dump(data, fh)
