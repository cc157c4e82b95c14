"""Outside-in tracer for the tropbetti modules.

The tracer wraps public callables of each layer module and rebinds every
name that refers to them in every ``tropbetti`` module, so calls made
inside the package (``cells_via_arrangement`` from ``bounds``, the global
``enumerate_faces`` that ``Arrangement.faces`` looks up, ...) pass through
the wrappers too.  ``uninstall`` puts every original object back.

Two kinds of wrapper:

* a *span* records calls, outermost-call inclusive time (a recursive or
  re-entrant call is timed once, at its outermost activation), self time
  (inclusive time minus the time of spans directly below it) and the
  exceptions that escape it;
* a *counter* records calls and escaping exceptions only.  It opens no
  span, so its time stays in the enclosing span's self time.  Helper
  methods called from many stages are counters, so that each
  ``solve_lp`` call is attributed to the stage that caused it.

Every ``solve_lp`` call is attributed to its nearest enclosing span.
Time spent inside the tracer's own result hooks is excluded from all
open spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "linalg",
    "linprog",
    "exactgeom",
    "tropical",
    "arrangement",
    "prevariety",
    "topology",
    "bounds",
    "realize",
    "cli",
)

# Arithmetic leaves called hundreds of thousands of times per pass; a
# wrapper on them would cost more than the work it measures.
LEAVES = frozenset(
    {
        "linalg.fvec",
        "linalg.dot",
        "linalg.vadd",
        "linalg.vsub",
        "linalg.vscale",
        "linalg.is_zero_vec",
    }
)

# Methods wrapped as spans: the stages the benchmark reports on.
METHOD_SPANS = {
    "exactgeom.VPolytope": ("volume",),
    "exactgeom.HPolyhedron": ("canonical", "is_bounded"),
}

# Methods wrapped as counters: helpers shared by many stages.
METHOD_COUNTERS = {
    "exactgeom.VPolytope": ("hull",),
    "exactgeom.HPolyhedron": (
        "feasible_point",
        "is_empty",
        "contains",
        "relative_interior_point",
        "affine_hull_rows",
        "affine_dim",
        "lineality_basis",
        "intersect",
        "vertices",
    ),
}

LP = "linprog.solve_lp"


class Stat:
    __slots__ = ("calls", "s", "self_s", "errors", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = dict.fromkeys(_COUNT_NAMES, 0)
        self.lp_under: dict[str, int] = {}
        self.stack: list[list] = []  # [name, start, child_s, excluded_at_start]
        self.excluded = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._cache_info = None
        self._cache_base = None
        self._cache_end = None
        self._k_of: dict[int, int] = {}

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tropbetti.{layer}")
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in LEAVES or not _is_own_function(obj, mod):
                    continue
                replaced[id(obj)] = self._span(name, obj, _HOOKS.get(name))
        for qual in METHOD_SPANS.keys() | METHOD_COUNTERS.keys():
            layer, cls_name = qual.split(".")
            cls = getattr(sys.modules[f"tropbetti.{layer}"], cls_name)
            for meth in METHOD_SPANS.get(qual, ()):
                self._wrap_method(cls, meth, f"{qual}.{meth}", span=True)
            for meth in METHOD_COUNTERS.get(qual, ()):
                self._wrap_method(cls, meth, f"{qual}.{meth}", span=False)
        arrangement = sys.modules["tropbetti.arrangement"]
        info = getattr(arrangement.build_arrangement, "cache_info", None)
        if info is not None:
            self._cache_info = info
            self._cache_base = info()
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        if self._cache_info is not None:
            self._cache_end = self._cache_info()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_method(self, cls, meth: str, name: str, span: bool) -> None:
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            fn = raw.__func__
            wrapped = self._span(name, fn, None) if span else self._counter(name, fn)
            setattr(cls, meth, classmethod(wrapped))
        else:
            setattr(cls, meth, self._span(name, raw, None) if span else self._counter(name, raw))
        self._restore.append((cls, meth, raw))

    # ----------------------------------------------------------- wrappers

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _counter(self, name: str, fn):
        stat = self._stat(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stat.calls += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise

        return counted

    def _span(self, name: str, fn, hook):
        stat = self._stat(name)
        stack = self.stack
        tracer = self
        is_lp = name == LP

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if is_lp:
                caller = stack[-1][0] if stack else "<root>"
                tracer.lp_under[caller] = tracer.lp_under.get(caller, 0) + 1
            frame = [name, 0.0, 0.0, tracer.excluded]
            stack.append(frame)
            stat.active += 1
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = perf_counter() - frame[1] - (tracer.excluded - frame[3])
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - frame[2]
                if not stat.active:
                    stat.s += dt
                if stack:
                    stack[-1][2] += dt
            if hook is not None:
                t0 = perf_counter()
                hook(tracer, args, result)
                tracer.excluded += perf_counter() - t0
            return result

        return spanned

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # ------------------------------------------------------------- report

    def metric(self, name: str):
        """Value of one per-layer metric name (see README.md)."""
        if name.startswith(LP + ".calls_under."):
            return self.lp_under.get(name[len(LP + ".calls_under.") :], 0)
        if name.endswith(".errors") and name.count(".") == 1:
            layer = name.split(".")[0]
            return sum(s.errors for n, s in self.stats.items() if n.split(".")[0] == layer)
        if name == "arrangement.covering_ratio":
            faces = self.counts.get("arrangement.faces", 0)
            return self.counts.get("arrangement.covering_faces", 0) / faces if faces else 0.0
        if name in ("arrangement.cache_hits", "arrangement.cache_misses"):
            if self._cache_info is None:
                return 0
            field = "hits" if name.endswith("hits") else "misses"
            end = self._cache_end or self._cache_info()
            return getattr(end, field) - getattr(self._cache_base, field)
        if name in self.counts:
            return self.counts[name]
        base, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls"):
            stat = self.stats.get(base)
            return getattr(stat, field) if stat is not None else 0
        raise KeyError(name)

    def table(self) -> list[tuple[str, int, float, float, int]]:
        """(name, calls, inclusive s, self s, errors), slowest first."""
        rows = [(n, s.calls, s.s, s.self_s, s.errors) for n, s in self.stats.items() if s.calls]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows


def _is_own_function(obj, mod) -> bool:
    # lru_cache objects are not functions but carry __wrapped__ and __module__.
    if not (inspect.isfunction(obj) or hasattr(obj, "__wrapped__")):
        return False
    return getattr(obj, "__module__", None) == mod.__name__


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "tropbetti" or n.startswith("tropbetti.")]


# ------------------------------------------------------------ result hooks


def _after_build_arrangement(tracer: Tracer, args, arrangement) -> None:
    tracer._k_of[id(arrangement)] = args[0].k


def _after_enumerate_faces(tracer: Tracer, args, faces) -> None:
    arrangement = args[0]
    k = tracer._k_of.get(id(arrangement))
    polys = [frozenset(i for i, _, _ in h.sources) for h in arrangement.hyperplanes]
    everything = frozenset(range(k)) if k is not None else None
    covering = 0
    for face in faces:
        # From the signs, not face.zero_set: filling that cached property
        # here would take work out of the traced cells_via_arrangement.
        covered: set[int] = set()
        for i, sign in enumerate(face.signs):
            if sign == 0:
                covered |= polys[i]
        covering += covered == everything
    tracer.count("arrangement.hyperplanes", arrangement.ell)
    tracer.count("arrangement.faces", len(faces))
    tracer.count("arrangement.covering_faces", covering)


def _after_dual_subdivision(tracer: Tracer, args, faces) -> None:
    tracer.count("prevariety.dual_faces", len(faces))


def _after_tropical_faces(tracer: Tracer, args, faces) -> None:
    tracer.count("prevariety.tropical_faces", len(faces))


def _after_triangulate(tracer: Tracer, args, complex_) -> None:
    tracer.count("topology.simplices", len(complex_.simplices))


_HOOKS = {
    "arrangement.build_arrangement": _after_build_arrangement,
    "arrangement.enumerate_faces": _after_enumerate_faces,
    "prevariety.dual_subdivision": _after_dual_subdivision,
    "prevariety.tropical_faces": _after_tropical_faces,
    "topology.triangulate": _after_triangulate,
}

_COUNT_NAMES = frozenset(
    {
        "arrangement.hyperplanes",
        "arrangement.faces",
        "arrangement.covering_faces",
        "prevariety.dual_faces",
        "prevariety.tropical_faces",
        "topology.simplices",
    }
)
