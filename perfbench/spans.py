"""Span recording around the public functions of each ``markovlab`` module.

The program itself has no timers yet, so the traced pass wraps the layer
boundaries from outside: every module attribute bound to a listed function
is replaced by a wrapper that records a span (id, parent id, name, start,
end).  A name imported into several modules (``partial_trace_env`` lives in
``linalg`` and is bound again in ``dynamics``, ``master`` and
``scenarios``) is wrapped in every module that binds it, so calls made
through any binding are seen.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter

#: (module, attribute, layer name).  Two attributes may share a layer name.
FUNCTIONS = (
    ("config", "parse_config", "config.parse_config"),
    ("scenarios", "run_scenario", "scenarios.run_scenario"),
    ("spectral", "solve_green", "spectral.solve_green"),
    ("spectral", "kernel_on_grid", "spectral.kernel_on_grid"),
    ("spectral", "analytic_green1_lorentzian", "spectral.analytic"),
    ("spectral", "analytic_green_const", "spectral.analytic"),
    ("spectral", "amplitude_phase", "spectral.amplitude_phase"),
    ("dynamics", "supermatrix", "dynamics.supermatrix"),
    ("dynamics", "divisibility_defect", "dynamics.divisibility_defect"),
    ("dynamics", "entangled_divisibility", "dynamics.entangled_divisibility"),
    ("dynamics", "entropy_sie_check", "dynamics.entropy_sie_check"),
    ("dynamics", "environment_stationarity", "dynamics.environment_stationarity"),
    ("dynamics", "distinguishability_witness", "dynamics.distinguishability_witness"),
    ("master", "effective_commutator_rhs", "master.effective_commutator_rhs"),
    ("master", "exact_rho_dot", "master.exact_rho_dot"),
    ("master", "evolve_rho_s", "master.evolve_rho_s"),
    ("master", "maximally_mixed_invariance", "master.maximally_mixed_invariance"),
    ("master", "commuting_block_evolution", "master.commuting_block_evolution"),
    ("linalg", "partial_trace_env", "linalg.partial_trace"),
    ("linalg", "partial_trace_sys", "linalg.partial_trace"),
    ("linalg", "von_neumann_entropy", "linalg.von_neumann_entropy"),
    ("linalg", "trace_distance", "linalg.trace_distance"),
    ("linalg", "validate_density_matrix", "linalg.validate_density_matrix"),
)

#: (module, class, method, layer name); methods are patched on the class.
METHODS = (
    ("dynamics", "Propagator", "__init__", "dynamics.Propagator.init"),
    ("dynamics", "Propagator", "unitary", "dynamics.Propagator.unitary"),
    ("dynamics", "Propagator", "rho_full", "dynamics.Propagator.rho_full"),
)

#: Layers reported with busy time only; every other layer wraps calls into
#: listed layers and also reports ``.self_ms``.
LEAVES = frozenset({
    "config.parse_config", "spectral.kernel_on_grid", "spectral.analytic",
    "spectral.amplitude_phase",
    "dynamics.Propagator.init", "dynamics.Propagator.unitary",
    "linalg.partial_trace", "linalg.von_neumann_entropy", "linalg.trace_distance",
})

#: Layers reported by call count only.
COUNT_ONLY = frozenset({"linalg.validate_density_matrix"})

#: Work counters recorded beside the spans, with their units.
COUNTERS = {
    "scenarios.csv_bytes": "bytes",
    "spectral.solve_green.steps": "count",
    "spectral.kernel_on_grid.lags": "count",
    "spectral.kernel_on_grid.tabulated.ms": "ms",
    "spectral.kernel_on_grid.lorentzian_cut.ms": "ms",
    "spectral.kernel_on_grid.closed_form.ms": "ms",
    "spectral.step_size_warnings": "count",
}

MODULES = ("linalg", "spectral", "dynamics", "master", "sampling", "config",
           "scenarios", "cli")


def layer_names() -> list[str]:
    """Layer names in table order, each once."""
    names = [name for *_, name in FUNCTIONS] + [name for *_, name in METHODS]
    return list(dict.fromkeys(names))


def per_layer_metrics() -> list[tuple[str, str]]:
    """(metric name, unit) of every traced per-layer metric."""
    out = []
    for layer in layer_names():
        out.append((f"{layer}.calls", "count"))
        if layer in COUNT_ONLY:
            continue
        out.append((f"{layer}.ms", "ms"))
        if layer not in LEAVES:
            out.append((f"{layer}.self_ms", "ms"))
    out.extend(COUNTERS.items())
    out.append(("trace.overhead_frac", "ratio"))
    out.extend((f"{m}.src_lines", "lines") for m in MODULES)
    out.append(("src.lines", "lines"))
    return out


def _kernel_kind(density) -> str:
    if density.kind == "tabulated":
        return "tabulated"
    if density.kind == "lorentzian" and not math.isinf(density.omega_cut):
        return "lorentzian_cut"
    return "closed_form"


# The package calls both noted functions with positional arguments only.
def _note_kernel(counters, args, ns):
    density, lags = args[:2]
    counters["spectral.kernel_on_grid.lags"] += len(lags)
    counters[f"spectral.kernel_on_grid.{_kernel_kind(density)}.ms"] += ns / 1e6


def _note_green(counters, args, ns):
    problem = args[0]
    counters["spectral.solve_green.steps"] += problem.grid.steps * problem.es.size


_NOTES = {"spectral.kernel_on_grid": _note_kernel,
          "spectral.solve_green": _note_green}


class Tracer:
    """In-memory span store.  Spans are recorded only while ``active``."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int) -> int:
        now = time.perf_counter_ns()
        self.ends[sid] = now
        self._stack.pop()
        return now - self.starts[sid]

    def _wrap(self, fn, name):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                ns = self.end(sid)
                if note is not None:
                    note(self.counters, args, ns)
        return wrapper

    def install(self):
        """Wrap every binding of the listed functions and methods."""
        modules = [importlib.import_module("markovlab")]
        modules += [importlib.import_module(f"markovlab.{m}") for m in MODULES]
        wrappers = {}
        for mod, attr, name in FUNCTIONS:
            fn = getattr(importlib.import_module(f"markovlab.{mod}"), attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, key, value))
                    setattr(module, key, wrappers[id(value)][1])
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"markovlab.{mod}"), cls_name)
            fn = cls.__dict__[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, name))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def spans(self):
        """(id, parent id or -1, name, start ns, end ns) of every span."""
        return list(zip(range(len(self.names)), self.parents, self.names,
                        self.starts, self.ends))

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans():
                fh.write(",".join(map(str, span)) + "\n")

    def layer_totals(self) -> dict:
        """Per layer: calls, busy ns and self ns over all recorded spans.

        Busy time counts a span only when no enclosing span has the same
        name, so a layer that calls itself is not counted twice.  Self time
        is a span's duration minus that of its direct children; children of
        one span never overlap, since the traced code is single threaded.
        """
        child_ns = [0] * len(self.names)
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_ns: Counter = Counter()
        for sid, parent, name, start, end in self.spans():
            dur = end - start
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += dur
            if not self._has_ancestor_named(sid, name):
                busy[name] += dur
        for sid, name in enumerate(self.names):
            self_ns[name] += (self.ends[sid] - self.starts[sid]) - child_ns[sid]
        return {"calls": calls, "busy_ns": busy, "self_ns": self_ns}

    def _has_ancestor_named(self, sid: int, name: str) -> bool:
        parent = self.parents[sid]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False
