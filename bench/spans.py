"""Span tracer for the traced benchmark run.

The program under test is never edited: `install` replaces functions with
recording wrappers at run time, in every place a name is looked up when it
is called.  That means class attributes (including the aliases
``__rmul__ = __mul__`` and ``__radd__ = __add__``), every module global that
holds the function (``from .geom import midpoint`` copies a reference into
the importing module), and the dispatch tables that hold direct references
(``dsl._FUNCTION_IMPLS``, ``dsl._PREDICATE_IMPLS``, ``theorems._SUITE`` and
``theorems._PROVERS``).

Each wrapped call records one span (name, start, end, parent) in flat
arrays kept in memory; `write` dumps them when the run ends.  A span's self
time is its duration minus the durations of its direct children, which
cover disjoint parts of it because the workload runs on one thread.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from butterfly.errors import DegenerateConfig

# Every DegenerateConfig subclass at the commit that defined the benchmark,
# plus the base class itself (raised directly by gauge_from_cyclic).  A class
# added later is histogrammed as "other" so the metric names stay fixed.
DEGENERATE_CLASSES = (
    "DegenerateConfig", "DivisionByZero", "CoincidentPoints", "ParallelLines",
    "CoincidentLines", "CollinearPoints", "NotCollinear",
    "DegenerateNewtonLine", "CoincidentCircles", "PointNotOnCircle",
    "PointNotOnLine", "DenominatorVanishes",
)

GEOM_CONSTRUCTIONS = (
    "midpoint", "line_through", "intersect_lines", "perp_bisector",
    "perp_through", "parallelogram_fourth", "newton_line", "circumcenter",
    "circumcircle", "circle_on_diameter", "power_of_point",
    "second_intersection", "on_unit_circle", "cross_ratio",
    "pencil_cross_ratio",
)
GEOM_PREDICATES = (
    "is_collinear", "is_midpoint", "is_on_line", "is_parallel",
    "is_perpendicular", "is_on_circle", "point_on", "are_concyclic",
    "are_coaxial", "harmonic",
)
SAMPLERS = ("sample_gauge", "sample_cyclic", "sample_chord", "sample_quad",
            "sample_lemma2")
BUILDERS = ("build_thm1", "build_thm2", "build_lemma3", "build_thm0",
            "build_chord", "build_lemma2")
PROVERS = ("prove_thm1", "prove_thm2", "prove_lemma3")


class Tracer:
    """In-memory span recorder; wrappers record only while `enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._context: str | None = None
        # result label -> Counter of DegenerateConfig classes that ended a trial
        self.skips_by_result: dict[str, Counter] = {}
        self.redraws = 0
        self._sampler_ids: set[int] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, *, measure=None, trial_boundary=False,
             sampler=False):
        """A recording wrapper around `fn`.

        `measure(args, result)` returns an op count added to ``<name>.<key>``
        as ``(key, amount)``.  A DegenerateConfig leaving a `trial_boundary`
        span is one skipped trial; one leaving a span whose parent is a
        `sampler` span is one sampler redraw.
        """
        nid = self._id(name)
        tracer = self
        stack = self._stack
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        if sampler:
            self._sampler_ids.add(nid)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except DegenerateConfig as exc:
                end[index] = perf_counter()
                stack.pop()
                tracer._record_degenerate(exc, index, trial_boundary)
                raise
            except BaseException:
                end[index] = perf_counter()
                stack.pop()
                raise
            end[index] = perf_counter()
            stack.pop()
            if measure is not None:
                key, amount = measure(args, result)
                tracer.counts[f"{name}.{key}"] += amount
            return result

        return traced

    def _record_degenerate(self, exc, index: int, trial_boundary: bool) -> None:
        if trial_boundary:
            cls = type(exc).__name__
            if cls not in DEGENERATE_CLASSES:
                cls = "other"
            label = self._context or "?"
            self.skips_by_result.setdefault(label, Counter())[cls] += 1
            return
        up = self.parent[index]
        if up >= 0 and self.name_id[up] in self._sampler_ids:
            self.redraws += 1

    def context(self, fn, label_of):
        """Wrapper that names the result whose trials run inside `fn`."""
        tracer = self

        @functools.wraps(fn)
        def labelled(*args, **kwargs):
            previous = tracer._context
            tracer._context = label_of(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._context = previous

        return labelled

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and self time in seconds."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name_id = self.name_id
        for i in range(n):
            nid = name_id[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        return {name: {"calls": calls[i], "self_s": self_s[i]}
                for i, name in enumerate(self.names)}

    def write(self, directory: Path, stem: str) -> None:
        """Dump the raw spans (binary arrays) and their name table."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans", "wb") as out:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(out)
        (directory / f"{stem}.spans.json").write_text(json.dumps({
            "spans": len(self.start),
            "layout": ["name_id:int32", "parent:int32", "start:float64",
                       "end:float64"],
            "names": self.names,
        }, indent=1) + "\n", encoding="utf-8")


def _poly_term_pairs(args, _result):
    other = args[1]
    right = len(other.terms) if hasattr(other, "terms") else 1
    return "term_pairs", len(args[0].terms) * right


def _poly_terms(args, _result):
    return "terms", len(args[0].terms)


def _source_bytes(args, _result):
    return "bytes", len(args[0].encode("utf-8"))


def _svg_bytes(_args, result):
    return "bytes", len(result.encode("utf-8"))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the loaded `butterfly` package."""
    import butterfly
    from butterfly import cli, closedforms, dsl, geom, poly, ratfun, render
    from butterfly import scalar, theorems

    modules = (butterfly, scalar, poly, ratfun, geom, closedforms, theorems,
               dsl, render, cli)
    replaced: dict[int, object] = {}

    def wrap_global(owner, attr, name, **kw):
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, **kw)
        replaced[id(original)] = wrapper
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def wrap_method(cls, attrs, name, **kw):
        originals = {}
        for attr in attrs:
            original = cls.__dict__[attr]
            if id(original) not in originals:
                originals[id(original)] = tracer.wrap(name, original, **kw)
            setattr(cls, attr, originals[id(original)])

    Polynomial, RationalFunction = poly.Polynomial, ratfun.RationalFunction
    wrap_method(Polynomial, ("__mul__", "__rmul__"), "poly.mul",
                measure=_poly_term_pairs)
    wrap_method(Polynomial, ("__add__", "__radd__", "__sub__", "__rsub__"),
                "poly.add")
    wrap_method(Polynomial, ("evaluate",), "poly.eval", measure=_poly_terms)
    wrap_method(RationalFunction, ("__init__",), "ratfun.new")
    wrap_method(RationalFunction, ("__eq__",), "ratfun.eq")
    wrap_method(RationalFunction, ("evaluate",), "ratfun.eval")
    wrap_method(RationalFunction,
                ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                 "__pow__"), "ratfun.arith")

    wrap_global(scalar, "sample_rational", "scalar.sample_rational")
    wrap_global(scalar, "derive_rng", "scalar.derive_rng")
    for fn in GEOM_CONSTRUCTIONS:
        wrap_global(geom, fn, "geom.construct")
    for fn in GEOM_PREDICATES:
        wrap_global(geom, fn, "geom.predicate")
    for fn in SAMPLERS:
        wrap_global(theorems, fn, "theorems.sample", sampler=True)
    for fn in BUILDERS:
        wrap_global(theorems, fn, "theorems.build")
    for fn in PROVERS:
        wrap_global(theorems, fn, "theorems.prove")
    wrap_global(dsl, "parse", "dsl.parse", measure=_source_bytes)
    wrap_global(dsl, "eval_expr", "dsl.eval_expr")
    wrap_global(dsl, "_run_trial", "dsl.trial", trial_boundary=True)
    wrap_global(render, "scene_from_construction", "render.scene")
    wrap_global(render, "render_svg", "render.svg", measure=_svg_bytes)
    wrap_global(cli, "main", "cli.main")

    # Dispatch tables hold direct references, so the globals above miss them.
    # An entry with no wrapper stays as it is; its time counts to its caller.
    for table in (dsl._FUNCTION_IMPLS, dsl._PREDICATE_IMPLS, theorems._PROVERS):
        for key, value in table.items():
            table[key] = replaced.get(id(value), value)
    for key, (sampler, checker) in theorems._SUITE.items():
        # Checkers get their own boundary wrapper: a DegenerateConfig leaving
        # it is exactly one skipped trial of that result.
        theorems._SUITE[key] = (
            replaced.get(id(sampler), sampler),
            tracer.wrap("theorems.check", checker, trial_boundary=True))

    # Label trials with the report they belong to, for the skip self-check:
    # "prove:<theorem>" for built-in results, "verify:<file stem>" for .geo.
    theorems.run_numeric = tracer.context(
        theorems.run_numeric,
        lambda args, kw: "prove:" + kw.get("theorem", args[0] if args else ""))
    dsl._evaluate_numeric = tracer.context(
        dsl._evaluate_numeric, lambda args, kw: "verify:" + args[4])
