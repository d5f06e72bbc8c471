"""Per-layer tracing of truncring, applied from outside the package.

``Tracer.install()`` swaps the public functions and methods of each layer
module for wrappers, together with every alias of them: ``cli`` and
``verify`` import names from ``subrings``, the package ``__init__``
re-exports them, and ``verify.SUITES`` holds the check functions in tuples.
``Tracer.uninstall()`` puts the originals back.  No file under ``src/`` is
touched.

A *span* wrapper records (name, start, end, parent) for each call and keeps
call counts, inclusive time and self time (inclusive time minus the time
of the wrapped calls made inside it).  A *leaf* wrapper times and counts
calls without keeping a span each: ring ``mul`` runs close to a million
times per pass.  A *count* wrapper only counts calls: it is for the
hottest leaves, where a clock read per call would cost more than the call
itself, so their time lands in the self time of the caller.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

PACKAGE = "truncring"
SPAN = "span"
LEAF = "leaf"
COUNT = "count"

# (metric name, module, owner class or None, attribute, mode).  Several
# originals may share one metric name; their calls are pooled.
TARGETS = (
    ("cli.main", "cli", None, "main", SPAN),
    ("verify.run_suite", "verify", None, "run_suite", SPAN),
    ("subrings.canonicalize", "subrings", None, "canonicalize", SPAN),
    ("subrings.closure", "subrings", None, "closure", SPAN),
    ("subrings.project_subring", "subrings", None, "project_subring", SPAN),
    ("subrings.exponent_set", "subrings", None, "exponent_set", SPAN),
    ("subrings.ideal_data", "subrings", None, "ideal_data", SPAN),
    ("subrings.cotangent_dim", "subrings", None, "cotangent_dim", SPAN),
    ("subrings.restricted_extension", "subrings", None, "restricted_extension", SPAN),
    ("subrings.lift_isomorphic", "subrings", None, "lift_isomorphic", SPAN),
    ("subrings.enumerate_subrings", "subrings", None, "enumerate_subrings", SPAN),
    ("subrings.census", "subrings", None, "census", SPAN),
    ("subrings.counterexample_family", "subrings", None, "counterexample_family", SPAN),
    ("subrings.in_row_span", "subrings", None, "in_row_span", COUNT),
    ("shapes.shape_of", "shapes", "Shape", "of", SPAN),
    ("shapes.minimal_generators", "shapes", None, "minimal_generators", SPAN),
    ("shapes.bound", "shapes", None, "e_bound", SPAN),
    ("shapes.bound", "shapes", None, "eps_bound", SPAN),
    ("shapes.enumerate_shapes", "shapes", None, "enumerate_shapes", SPAN),
    ("rings.mul", "rings", "FieldPolyCtx", "mul", LEAF),
    ("rings.mul", "rings", "ZpNPolyCtx", "mul", LEAF),
    ("rings.nu", "rings", "FieldPolyCtx", "nu", COUNT),
    ("rings.nu", "rings", "ZpNPolyCtx", "nu", COUNT),
    ("coefficients.mul", "coefficients", "FieldCtx", "mul", COUNT),
    ("coefficients.mul", "coefficients", "ZpNCtx", "mul", COUNT),
    ("coefficients.add", "coefficients", "FieldCtx", "add", COUNT),
    ("coefficients.add", "coefficients", "ZpNCtx", "add", COUNT),
    ("coefficients.inv", "coefficients", "FieldCtx", "inv", COUNT),
    ("coefficients.inv", "coefficients", "ZpNCtx", "inv", COUNT),
)


class Tracer:
    """Span and count collector for one traced pass; create a fresh one
    per pass."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.enumerate_in_census_s = 0.0
        # subrings produced by enumerate_subrings per target ring: [s, count]
        self.levels: dict = {}
        self.verify_enumerate_calls = 0
        self.verify_census_calls = 0
        self.lift_calls = 0
        self.lifts_made = 0
        self.obstructed = 0
        self._counters: dict[str, list] = {}  # name -> [calls, seconds]
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._patches: list[tuple] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, modname, owner, attr, mode in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            if owner is None:
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, mode)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, wrapped)
                continue
            cls = getattr(mod, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, raw.__func__, mode)))
            else:
                self._patch(cls, attr, self._wrap(name, raw, mode))
        verify = sys.modules[f"{PACKAGE}.verify"]
        for suite, checks in list(verify.SUITES.items()):
            new = tuple((cname, self._wrap(f"verify.{cname}", fn, SPAN)) for cname, fn in checks)
            self._patch(verify.SUITES, suite, new, item=True)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, old, item = self._patches.pop()
            if item:
                obj[key] = old
            else:
                setattr(obj, key, old)
        for name, cell in self._counters.items():
            self.calls[name] += cell[0]
            self.incl_s[name] += cell[1]
            self.self_s[name] += cell[1]
            cell[0], cell[1] = 0, 0.0

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, obj, key, new, item: bool = False) -> None:
        old = obj[key] if item else vars(obj)[key]
        self._patches.append((obj, key, old, item))
        if item:
            obj[key] = new
        else:
            setattr(obj, key, new)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn, mode: str):
        stack = self._stack
        if mode == COUNT:
            cell = self._counters.setdefault(name, [0, 0.0])

            def counted(*args, **kw):
                cell[0] += 1
                return fn(*args, **kw)

            return counted

        if mode == LEAF:
            cell = self._counters.setdefault(name, [0, 0.0])

            def timed(*args, **kw):
                t0 = perf_counter()
                try:
                    return fn(*args, **kw)
                finally:
                    dur = perf_counter() - t0
                    cell[0] += 1
                    cell[1] += dur
                    if stack:
                        stack[-1][2] += dur

            return timed

        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        def spanned(*args, **kw):
            sid = len(self.span_start)
            parent = stack[-1] if stack else None
            self.span_name.append(name_id)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_end.append(0.0)
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.span_end[sid] = t1
                dur = t1 - t0
                self.calls[name] += 1
                self.incl_s[name] += dur
                self.self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
            if hook is not None:
                hook(result, dur, parent[1] if parent else None)
            return result

        return spanned

    # -- hooks that derive the per-layer ratios ---------------------------

    def _level(self, ring, dur: float, made: int) -> None:
        cell = self.levels.setdefault(ring, [0.0, 0])
        cell[0] += dur
        cell[1] += made

    def _on_subrings_restricted_extension(self, ext, dur, parent):
        if parent == "subrings.enumerate_subrings":
            self._level(ext.src.ctx, dur, 1)

    def _on_subrings_lift_isomorphic(self, fam, dur, parent):
        self.lift_calls += 1
        self.lifts_made += len(fam.lifts)
        self.obstructed += not fam.exists
        if parent == "subrings.enumerate_subrings":
            self._level(fam.extension.src.ctx, dur, len(fam.lifts))

    def _in_suite(self) -> bool:
        return any(frame[1] == "verify.run_suite" for frame in self._stack)

    def _on_subrings_enumerate_subrings(self, subs, dur, parent):
        self.verify_enumerate_calls += self._in_suite()
        if parent == "subrings.census":
            self.enumerate_in_census_s += dur

    def _on_subrings_census(self, rows, dur, parent):
        self.verify_census_calls += self._in_suite()

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write the spans, gzipped, as tab-separated id, name, start, end
        and parent id (-1 for a root), times in seconds from the first
        span; returns the span count."""
        n = len(self.span_start)
        t_origin = self.span_start[0] if n else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(n):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i] - t_origin:.9f}"
                    f"\t{self.span_end[i] - t_origin:.9f}\t{self.span_parent[i]}\n"
                )
        return n
