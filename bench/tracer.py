"""Traced in-process run of ``bicat-check``, for per-layer numbers.

Usage (``src`` must be importable, e.g. through ``PYTHONPATH``)::

    python bench/tracer.py RESULT.json -- <bicat-check arguments>

The tracer imports ``bicat``, wraps the public functions of each module (and
the public methods of the two instance classes) from outside the package,
runs ``bicat.cli.main`` on the given arguments and writes what it saw to
``RESULT.json``.  No file of the package is changed.

Every wrapped call is a span with a name, start, end and parent.  Spans are
aggregated as they close into per-name call counts, inclusive time and self
time (duration minus the time covered by child spans); the few spans near
the top of the call tree (``LOG_DEPTH``) are also kept individually.  Value
classes of ``fin`` are counted on construction only, because their methods
run millions of times and a span around each would swamp the run.

Names bound with ``from ... import`` are rebound in every importing module,
so a call site that imported a function by name is traced like one that
goes through the defining module.

Counts (calls, constructions, yields, ...) are a pure function of the
configuration; the benchmark compares them across two traced runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import traceback

MODULES = ("spans", "rels", "kernel", "homprod", "mapprod", "groth",
           "cartesian", "coherence", "gen", "report", "fmt", "harness", "cli")
#: Spans opened at fewer than this many enclosing spans are logged one by one.
LOG_DEPTH = 4


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names = []
        self.slots = {}
        self.calls = []
        self.total = []
        self.self_s = []
        self.counts = {}
        self.stack = []   # one [child seconds, logged span id] per open span
        self.log = []     # (slot, start, end, parent span id)

    def slot(self, name: str) -> int:
        if name not in self.slots:
            self.slots[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_s.append(0.0)
        return self.slots[name]

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self):
        stack, log = self.stack, self.log
        sid = -1
        if len(stack) < LOG_DEPTH:
            sid = len(log)
            log.append(stack[-1][1] if stack else -1)
        frame = [0.0, sid]
        stack.append(frame)
        return frame

    def _close(self, i, frame, t0, t1, extra=0.0):
        stack = self.stack
        stack.pop()
        dt = t1 - t0
        self.total[i] += dt
        self.self_s[i] += dt - frame[0]
        if stack:
            # Work done by a post hook is tracing overhead: hide it from
            # the parent's self time along with the child's own span.
            stack[-1][0] += dt + extra
        sid = frame[1]
        if sid >= 0:
            self.log[sid] = (i, t0, t1, self.log[sid])

    def wrap(self, name, fn, post=None):
        """A traced stand-in for ``fn``; ``post(args, result)`` runs after
        the span closes and is excluded from every layer's time."""
        i = self.slot(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(name, i, fn)
        clock, calls = self.clock, self.calls
        opener, closer = self._open, self._close

        def traced(*args, **kwargs):
            frame = opener()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                calls[i] += 1
                closer(i, frame, t0, clock())
                raise
            t1 = clock()
            calls[i] += 1
            if post is None:
                closer(i, frame, t0, t1)
            else:
                post(args, result)
                closer(i, frame, t0, t1, clock() - t1)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_gen(self, name, i, fn):
        """Generators: a call creates one; each resumption is a span."""
        clock, calls = self.clock, self.calls
        opener, closer = self._open, self._close
        yielded = name + ".yielded"
        self.count(yielded, 0)

        def traced(*args, **kwargs):
            calls[i] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = opener()
                t0 = clock()
                try:
                    value = next(it)
                except StopIteration:
                    closer(i, frame, t0, clock())
                    return
                except BaseException:
                    closer(i, frame, t0, clock())
                    raise
                closer(i, frame, t0, clock())
                self.counts[yielded] += 1
                yield value

        return functools.update_wrapper(traced, fn)

    def result(self) -> dict:
        spans = {n: {"calls": self.calls[i], "total_s": self.total[i],
                     "self_s": self.self_s[i]}
                 for i, n in enumerate(self.names)}
        log = [(self.names[e[0]], e[1], e[2], e[3])
               for e in self.log if isinstance(e, tuple)]
        return {"spans": spans, "counts": dict(sorted(self.counts.items())),
                "log": log}

    def deterministic(self) -> dict:
        """The part of the trace that must repeat exactly at one config."""
        calls = {"%s.calls" % n: self.calls[i]
                 for i, n in enumerate(self.names)}
        return dict(sorted({**calls, **self.counts}.items()))


def _count_inits(tracer, cls, name):
    orig = cls.__init__
    tracer.count(name, 0)

    def __init__(self, *args, **kwargs):
        tracer.counts[name] += 1
        orig(self, *args, **kwargs)

    cls.__init__ = __init__


def install(tracer: Tracer):
    """Wrap the ``bicat`` package in place and return its ``cli`` module."""
    import importlib
    import bicat
    mods = {m: importlib.import_module("bicat." + m) for m in MODULES}
    fin, harness = importlib.import_module("bicat.fin"), mods["harness"]
    replaced = {}   # id(original) -> wrapper

    def instance_hooks(prefix, apex_size):
        seen = set()
        tracer.count(prefix + ".comp.distinct", 0)
        tracer.count(prefix + ".comp.max_apex", 0)

        def comp_post(args, result):
            key = (args[1], args[2])
            if key not in seen:
                seen.add(key)
                tracer.counts[prefix + ".comp.distinct"] += 1
            size = apex_size(result)
            if size > tracer.counts[prefix + ".comp.max_apex"]:
                tracer.counts[prefix + ".comp.max_apex"] = size
        return {"comp": comp_post}

    tracer.count("gen.map_cell.none", 0)

    def map_cell_post(args, result):
        if result is None:
            tracer.counts["gen.map_cell.none"] += 1

    tracer.count("fmt.parse_document.lines", 0)

    def parse_post(args, result):
        tracer.counts["fmt.parse_document.lines"] += len(args[0].splitlines())

    posts = {"gen.map_cell": map_cell_post, "fmt.parse_document": parse_post}
    classes = {"spans": (mods["spans"].SpanBicat, lambda s: len(s.apex)),
               "rels": (mods["rels"].RelBicat, lambda r: len(r.pairs))}
    for prefix, (cls, size) in classes.items():
        hooks = instance_hooks(prefix, size)
        for attr, fn in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                setattr(cls, attr, tracer.wrap("%s.%s" % (prefix, attr), fn,
                                               hooks.get(attr)))

    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = "%s.%s" % (short, attr)
            replaced[id(fn)] = tracer.wrap(name, fn, posts.get(name))

    replaced[id(harness._payload)] = tracer.wrap("fmt.payload",
                                                 harness._payload)
    orig_shrink = harness._shrink
    tracer.count("harness.shrink_steps", 0)

    def shrink(attempt, trial, carriers, cx):
        def counted(*args):
            tracer.counts["harness.shrink_steps"] += 1
            return attempt(*args)
        return orig_shrink(counted, trial, carriers, cx)

    replaced[id(orig_shrink)] = tracer.wrap("harness.shrink", shrink)

    run_suite, per_suite = harness.run_suite, {}

    def suite_dispatch(B, cfg, suite):
        if suite not in per_suite:
            per_suite[suite] = tracer.wrap("harness.suite." + suite, run_suite)
        return per_suite[suite](B, cfg, suite)

    replaced[id(run_suite)] = suite_dispatch

    for mod in (bicat, *mods.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)])

    for specs in harness.SUITE_CHECKS.values():
        for spec in specs:
            object.__setattr__(spec, "run", tracer.wrap(
                "harness.check." + spec.check_id, spec.run))

    _count_inits(tracer, fin.FinSet, "fin.FinSet.built")
    _count_inits(tracer, fin.SetFn, "fin.SetFn.built")
    _count_inits(tracer, mods["groth"].GArr, "groth.garr_built")
    return mods["cli"]


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py RESULT.json -- <bicat-check arguments>",
              file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    except Exception:
        traceback.print_exc()
        code = 70
    wall = time.perf_counter() - t0
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "main_wall_s": wall,
                   "deterministic": tracer.deterministic(),
                   **tracer.result()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
