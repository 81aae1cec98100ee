"""Spans around eelab's public functions, installed from outside the program.

A traced repetition wraps every public function of every ``eelab.*`` module,
a few hot methods, and the check table of ``eelab.cli``.  Each call records a
span ``(id, name, start, end, parent, thread, work)``; the parent comes from a
thread-local stack, so spans of checks running on worker threads nest under
their own thread's calls.  Spans stay in memory until the run ends.

``per_layer`` turns a span list into the benchmark's per-layer metrics:

* ``<module>.<function>_s`` is the inclusive wall time of that function,
  summed over its outermost calls (a recursive call is not counted twice);
* ``<module>.self_s`` is the module's self time: the duration of its spans
  minus the time covered by their child spans on the same thread;
* ``*_calls`` and the work counts (value pairs, offset-cells, terms, bytes)
  are exact and must repeat between two traced runs of the same input.

Under ``--jobs 2`` checks overlap, so inclusive times summed over threads can
exceed the run's wall time, and the self time of ``cli.run_config`` includes
the time it waits for the worker threads.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: dict


class Tracer:
    def __init__(self):
        # shared by worker threads without a lock: list.append and next() on
        # itertools.count are single atomic operations under the GIL
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, work: Callable[[dict], dict] | None = None) -> Callable:
        """Return ``fn`` recording a span per call; ``work`` maps bound arguments to counts."""
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = {}
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = work(bound.arguments)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), counts)
                )

        return traced


def rebind(modules, wrappers: dict[int, Callable]) -> None:
    """Replace, in every module namespace, each name bound to a wrapped original.

    ``from .x import y`` copies the function object into the importing module,
    so wrapping it in ``x`` alone would miss those callers.  ``wrappers`` maps
    ``id(original)`` to its wrapper.
    """
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


# ---------------------------------------------------------------------------
# eelab-specific installation
# ---------------------------------------------------------------------------

#: hot methods traced on their classes: (module, class, method, span name)
METHODS = (
    ("circle", "CircleFunction", "__call__", "circle.eval"),
    ("entropy", "ExtendedEntropy", "value", "entropy.extension_value"),
    ("entropy", "ExtendedEntropy", "jacobian", "entropy.extension_jacobian"),
    ("grids", "AngleField", "unit_vectors", "grids.unit_vectors"),
)


def _cubic_offset_cells(a: dict) -> dict:
    # the disk of lattice offsets cubic_difference_average loops over, times grid cells
    grid, eps = a["m"].grid, a["eps"]
    h = grid.spacing
    r = int(np.ceil(eps / h))
    ox, oy = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
    offsets = int(np.count_nonzero((ox * h) ** 2 + (oy * h) ** 2 < eps**2)) - 1
    return {"offset_cells": offsets * grid.nx * grid.ny}


def _work_functions(direction_offsets: Callable) -> dict[str, Callable[[dict], dict]]:
    def value_pairs(a):
        return {"value_pairs": int(np.broadcast(np.asarray(a["theta0"]), np.asarray(a["theta1"])).size)}

    def besov_offsets(a):
        grid, nd = a["m"].grid, a["n_directions"]
        return {"besov_offsets": sum(len(direction_offsets(grid, float(h), nd)) for h in a["h_ladder"])}

    return {
        "quadrature.interaction_pair_value": value_pairs,
        "quadrature.interaction_pair_flux": value_pairs,
        "production.cubic_difference_average": _cubic_offset_cells,
        "regularity.besov_seminorm": besov_offsets,
        "circle.eval": lambda a: {"eval_terms": int(np.size(a["t"])) * (2 * a["self"].band + 1)},
        "reporting.atomic_write_bytes": lambda a: {"bytes_written": len(a["data"])},
    }


def install_eelab(tracer: Tracer) -> None:
    """Wrap eelab's public functions, hot methods and check table."""
    modules = {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == "eelab" or name.startswith("eelab."))
    }
    cli = modules["eelab.cli"]
    work = _work_functions(modules["eelab.regularity"].direction_offsets)
    wrappers: dict[int, Callable] = {
        id(fn): tracer.wrap(f"cli.check.{key}", fn) for key, fn in cli._CHECK_FNS.items()
    }
    for modname, mod in modules.items():
        short = modname.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or id(obj) in wrappers or not inspect.isfunction(obj)
                    or obj.__module__ != modname):
                continue
            name = f"{short}.{attr}"
            wrappers[id(obj)] = tracer.wrap(name, obj, work.get(name))
    rebind(modules.values(), wrappers)
    for key, fn in list(cli._CHECK_FNS.items()):
        cli._CHECK_FNS[key] = wrappers[id(fn)]
    for modname, clsname, attr, name in METHODS:
        cls = getattr(modules[f"eelab.{modname}"], clsname)
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, work.get(name)))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

#: modules whose self time is reported
MODULES = (
    "quadrature", "production", "circle", "entropy", "kinetic",
    "grids", "regularity", "factorization", "cli", "reporting",
)
CHECKS = ("produce", "besov", "kinetic", "interaction", "factorize", "entropy-identities")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


class Aggregate:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.call_counts = Counter(s.name for s in spans)
        self.work_counts: Counter = Counter()
        for s in spans:
            self.work_counts.update(s.work)
        selfs = self_seconds(spans)
        self.module_self: dict[str, float] = defaultdict(float)
        for s in spans:
            self.module_self[s.name.split(".", 1)[0]] += selfs[s.id]

    def inclusive(self, *names: str) -> float:
        """Wall time of spans named in ``names`` that have no ancestor named in ``names``."""
        total = 0.0
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            while p is not None and self.by_id[p].name not in names:
                p = self.by_id[p].parent
            if p is None:
                total += s.end - s.start
        return total

    def calls(self, name: str) -> int:
        return self.call_counts[name]

    def work(self, key: str) -> int:
        return self.work_counts[key]


def _ratio(num: float, base: int, scale: float) -> float:
    # a ratio over an empty base is reported as 0; its base is reported beside it
    return num * scale / base if base else 0.0


def per_layer(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    a = Aggregate(spans)
    t, n, w = a.inclusive, a.calls, a.work
    pair_s = t("quadrature.interaction_pair_value") + t("quadrature.interaction_pair_flux")
    circle_s = t("circle.eval")
    m = {
        "quadrature.interaction_pair_value_s": (t("quadrature.interaction_pair_value"), "s"),
        "quadrature.interaction_pair_flux_s": (t("quadrature.interaction_pair_flux"), "s"),
        "quadrature.value_pairs": (w("value_pairs"), "count"),
        "quadrature.us_per_value_pair": (_ratio(pair_s, w("value_pairs"), 1e6), "us"),
        "regularity.interaction_identity_check_s": (t("regularity.interaction_identity_check"), "s"),
        "production.cubic_difference_average_s": (t("production.cubic_difference_average"), "s"),
        "production.cubic_difference_average_calls": (n("production.cubic_difference_average"), "count"),
        "production.cubic_offset_cells": (w("offset_cells"), "count"),
        "production.div_entropy_s": (t("production.div_entropy"), "s"),
        "production.div_entropy_calls": (n("production.div_entropy"), "count"),
        "circle.eval_s": (circle_s, "s"),
        "circle.eval_calls": (n("circle.eval"), "count"),
        "circle.eval_terms": (w("eval_terms"), "count"),
        "circle.ns_per_term": (_ratio(circle_s, w("eval_terms"), 1e9), "ns"),
        "entropy.extension_eval_s": (t("entropy.extension_value", "entropy.extension_jacobian"), "s"),
        "kinetic.chi_pairing_s": (t("kinetic.chi_pairing"), "s"),
        "kinetic.kinetic_residual_s": (t("kinetic.kinetic_residual"), "s"),
        "grids.build_field_calls": (n("grids.build_field"), "count"),
        "grids.mollify_calls": (n("grids.mollify"), "count"),
        "grids.mollify_s": (t("grids.mollify"), "s"),
        "grids.unit_vectors_calls": (n("grids.unit_vectors"), "count"),
        "grids.unit_vectors_s": (t("grids.unit_vectors"), "s"),
        "regularity.besov_seminorm_s": (t("regularity.besov_seminorm"), "s"),
        "regularity.besov_offsets": (w("besov_offsets"), "count"),
        "regularity.coercivity_scan_s": (t("regularity.coercivity_scan"), "s"),
        "factorization.vanishing_production_check_s": (t("factorization.vanishing_production_check"), "s"),
        "factorization.verify_factorization_s": (t("factorization.verify_factorization"), "s"),
        "cli.config_s": (t("cli.config_from_json"), "s"),
        "reporting.write_s": (t("reporting.atomic_write_bytes", "reporting.atomic_write_text"), "s"),
        "reporting.bytes_written": (w("bytes_written"), "bytes"),
    }
    for check in CHECKS:
        m[f"cli.check.{check}_s"] = (t(f"cli.check.{check}"), "s")
    for mod in MODULES:
        m[f"{mod}.self_s"] = (a.module_self.get(mod, 0.0), "s")
    m["trace.spans"] = (len(spans), "count")
    return m
