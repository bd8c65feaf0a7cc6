"""Out-of-program tracing of the currentfock layers.

`Tracer.install` wraps every public function of the traced modules from
outside, in every module namespace that binds it, so calls between modules
are caught as well as calls from the CLI.  Coarse calls (the CLI entry, the
identity sweeps, vacuum spaces, exact linear algebra, basis enumeration) get
one span each.  The hot per-state functions are aggregated instead: each
open span keeps their call count, self time and one work count, which keeps
the trace small.  A function's self time is its duration minus the time of
its traced children.  Spans stay in memory until `span_records` is read
at the end of the run.
"""

from __future__ import annotations

import inspect
import itertools
import time

MODULES = ("cli", "vertexops", "fock", "exactmath", "repcat", "dims")

# Functions that get a span per call; every other public function is aggregated.
COARSE = {
    "cli.main",
    "vertexops.check_virasoro",
    "vertexops.check_field_commutator",
    "vertexops.check_l_mode_commutator",
    "dims.check_strong_grading",
    "repcat.vacuum_space",
    "exactmath.rank_nullspace",
    "fock.enumerate_basis",
}

# Work counts taken from a call's arguments and result, summed per function.
WORK = {
    "vertexops.l_apply": ("terms_out", lambda args, out: len(out[0].terms)),
    "vertexops.vertex_mode": ("zero", lambda args, out: out.is_zero()),
    "fock.apply_mode": ("zero", lambda args, out: out.is_zero()),
    "fock.enumerate_basis": ("monomials", lambda args, out: len(out)),
    "exactmath.rank_nullspace": ("cells", lambda args, out: args[0].rows * args[0].cols),
}


class _Span:
    __slots__ = ("id", "name", "start", "end", "parent", "invocation", "child_s", "work", "hot")

    def __init__(self, sid, name, start, parent, invocation):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.invocation = invocation
        self.child_s = 0.0
        self.work = 0
        self.hot = {}

    def to_json(self):
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "invocation": self.invocation,
            "self_s": self.end - self.start - self.child_s,
            "work": self.work,
            "hot": {
                key: {"calls": calls, "self_s": self_s, work_name or "work": work}
                for key, (calls, self_s, work_name, work) in self.hot.items()
            },
        }


class Tracer:
    """Collects spans and per-function totals for one process."""

    def __init__(self, package):
        self.package = package
        self.clock = time.perf_counter
        self.closed = []
        root = _Span(0, "root", self.clock(), None, None)
        # The innermost open span, and a frame per open traced call holding the
        # time spent in its traced children.
        self.spans = [root]
        self.frames = [[0.0]]
        self.depth = {}
        self.inclusive = {}
        self.invocations = 0
        self.ids = itertools.count(1)

    def install(self):
        """Wrap every public function of the traced modules, in every binding."""
        modules = [getattr(self.package, name) for name in MODULES]
        wrappers = {}
        for module in modules:
            key_prefix = module.__name__.rsplit(".", 1)[-1]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    key = "%s.%s" % (key_prefix, name)
                    wrap = self._coarse if key in COARSE else self._hot
                    wrappers[id(fn)] = wrap(key, fn)
        for namespace in [self.package] + modules:
            for name, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    setattr(namespace, name, wrappers[id(value)])

    def _enter(self, key):
        depth = self.depth.get(key, 0)
        self.depth[key] = depth + 1
        return depth == 0

    def _leave(self, key, outermost, elapsed):
        self.depth[key] -= 1
        if outermost:
            self.inclusive[key] = self.inclusive.get(key, 0.0) + elapsed

    def _hot(self, key, fn):
        work_name, work_of = WORK.get(key, (None, None))
        clock, frames, spans = self.clock, self.frames, self.spans

        def traced(*args, **kwargs):
            outermost = self._enter(key)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1][0] += elapsed
                self._leave(key, outermost, elapsed)
            agg = spans[-1].hot.get(key)
            if agg is None:
                agg = spans[-1].hot[key] = [0, 0.0, work_name, 0]
            agg[0] += 1
            agg[1] += elapsed - frame[0]
            if work_of is not None:
                agg[3] += work_of(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _coarse(self, key, fn):
        work_name, work_of = WORK.get(key, (None, None))
        clock, frames, spans = self.clock, self.frames, self.spans

        def traced(*args, **kwargs):
            outermost = self._enter(key)
            parent = spans[-1]
            if key == "cli.main":
                self.invocations += 1
            span = _Span(next(self.ids), key, clock(), parent.id, self.invocations)
            spans.append(span)
            frame = [0.0]
            frames.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                elapsed = span.end - span.start
                span.child_s = frame[0]
                frames.pop()
                frames[-1][0] += elapsed
                spans.pop()
                self.closed.append(span)
                self._leave(key, outermost, elapsed)
            if work_of is not None:
                span.work = work_of(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def totals(self):
        """Per function: calls, self_s, inclusive_s and its work count, over all spans."""
        out = {}

        def add(key, calls, self_s, work_name, work):
            row = out.setdefault(key, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_s
            if work_name is not None:
                row[work_name] = row.get(work_name, 0) + work

        for span in self.closed + self.spans[:1]:
            if span.end is not None:
                work_name = WORK.get(span.name, (None,))[0]
                add(span.name, 1, span.end - span.start - span.child_s, work_name, span.work)
            for key, (calls, self_s, work_name, work) in span.hot.items():
                add(key, calls, self_s, work_name, work)
        for key, row in out.items():
            row["incl_s"] = self.inclusive.get(key, 0.0)
        return out

    def span_records(self):
        """Every closed span, in the order it ended."""
        return [span.to_json() for span in self.closed]
