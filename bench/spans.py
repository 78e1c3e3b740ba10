"""Spans recorded from the benchmark side, around public functions and
methods of the program's modules.

Nothing inside the program is changed: :meth:`Tracer.install` swaps the
module attributes and class attributes listed in ``BOUNDARIES`` for
wrappers, and :meth:`Tracer.uninstall` puts the originals back.  A wrapper
of kind

* ``span`` records one span (name, start, end, parent, thread, phase,
  attributes).  A call made while the innermost open span on the thread
  has the same name passes straight through, so recursive methods such as
  ``Enumerator.enumerate`` give one span per top-level call;
* ``hot`` is for boundaries crossed hundreds of times per draw: it keeps
  only the call's duration and a count keyed by the enclosing span;
* ``count`` keeps only the count keyed by the enclosing span, for the
  first ``COUNT_WINDOW`` calls; then it puts the original back, because
  ``GibbsModel.inner_value`` is called some twenty times per rejection
  attempt and a wrapper on every call would double the round.  Hot calls
  are keyed by whether that window was still open, so a ratio of the two
  is taken over the same calls.

Spans live in per-thread lists in memory and are written out once, at the
end of the run, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, kind).  "Class.method" attributes are
# patched on the class; plain names on every polyagibbs module that binds
# the same function object.  Recursive module functions are patched
# everywhere except their own module, so only top-level calls are seen.
BOUNDARIES = [
    ("species", "parse_spec", "species.parse", "span"),
    ("species", "Enumerator.enumerate", "species.enumerate", "span"),
    ("species", "object_to_string", "species.object_to_string", "span-toplevel"),
    ("series", "TruncatedSeries.__mul__", "series.mul", "span"),
    ("series", "TruncatedSeries.__rmul__", "series.mul", "span"),
    ("series", "TruncatedSeries.exp", "series.exp", "span"),
    ("series", "evaluate", "series.evaluate", "span"),
    ("series", "radius_estimate", "series.radius_estimate", "span"),
    ("cycleindex", "multiset_ogf_product", "cycleindex.multiset_ogf_product", "span"),
    ("engine", "ogf", "engine.ogf", "span"),
    ("engine", "SeriesEngine.ogf", "engine.ogf", "span"),
    ("sampler", "ExactSampler.sample", "sampler.sample", "span"),
    ("gibbs", "GibbsModel.sample_S_n", "gibbs.sample_S_n", "span"),
    ("gibbs", "GibbsModel.extract_remainder", "gibbs.extract_remainder", "span"),
    ("gibbs", "GibbsModel.limit_remainder_distribution", "gibbs.limit_law", "span"),
    ("gibbs", "GibbsModel.limit_component_count_law", "gibbs.count_law", "span"),
    ("gibbs", "sample_set_symmetry", "gibbs.symmetry_draw", "hot"),
    ("gibbs", "GibbsModel.inner_value", "gibbs.inner_value", "count"),
    ("asymptotics", "coefficient_ratio_experiment", "asymptotics.ratio_experiment", "span"),
    ("asymptotics", "diagnose_subexponential", "asymptotics.diagnose", "span"),
    ("stats", "remainder_convergence_experiment", "stats.experiment", "span"),
    ("stats", "component_count_experiment", "stats.experiment", "span"),
    ("stats", "tv_distance", "stats.tv_distance", "span"),
]


def _span_attrs(name, args, kwargs, parent):
    """Attributes the per-layer metrics group by: the requested size, the
    sampling method, and whether a sampler call is a whole exact-recursive
    draw (called straight from sample_S_n) or an inner-object draw."""
    if name == "gibbs.sample_S_n":
        method = args[3] if len(args) > 3 else kwargs.get("method", "exact_recursive")
        return {"n": args[1], "method": method}
    if name == "sampler.sample":
        whole = (parent is not None and parent[0] == "gibbs.sample_S_n"
                 and parent[5]["method"] == "exact_recursive")
        return {"n": args[1], "kind": "draw" if whole else "inner"}
    return None


COUNT_WINDOW = 1_000_000


class _ThreadLog:
    def __init__(self, tid: int):
        self.tid = tid
        self.spans = []  # [name, start, end, parent index, phase, attrs]
        self.stack = []  # indices of open spans
        self.hot = defaultdict(lambda: array("d"))
        self.counts = Counter()


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.epoch = perf_counter()
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self._undo = []
        self.window_open = True
        self._window_calls = 0

    # -- recording

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(threading.get_ident())
            with self._lock:
                self._logs.append(log)
        return log

    def _enclosing(self, log):
        if not log.stack:
            return None
        rec = log.spans[log.stack[-1]]
        return rec[0], (rec[5] or {}).get("n")

    def _span_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            log = tracer._log()
            if log.stack and log.spans[log.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            parent = log.stack[-1] if log.stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.phase,
                   _span_attrs(name, args, kwargs, log.spans[parent] if parent >= 0 else None)]
            log.stack.append(len(log.spans))
            log.spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                log.stack.pop()

        return wrapper

    def _hot_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            log = tracer._log()
            log.counts[(name, tracer._enclosing(log), tracer.window_open)] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                log.hot[name].append(perf_counter() - t0)

        return wrapper

    def _count_wrapper(self, fn, name, restore):
        tracer = self

        def wrapper(*args, **kwargs):
            log = tracer._log()
            log.counts[(name, tracer._enclosing(log), True)] += 1
            tracer._window_calls += 1  # unlocked: only closes the window
            if tracer._window_calls >= COUNT_WINDOW:
                tracer.window_open = False
                restore()
            return fn(*args, **kwargs)

        return wrapper

    # -- patching

    def install(self):
        modules = {
            mod_name: mod for mod_name, mod in sys.modules.items()
            if mod_name == "polyagibbs" or mod_name.startswith("polyagibbs.")
        }
        for home, attr, name, kind in BOUNDARIES:
            home_mod = modules[f"polyagibbs.{home}"]
            if kind == "hot":
                make = self._hot_wrapper
            else:
                make = self._span_wrapper
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home_mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                if kind == "count":
                    restore = (lambda c=cls, m=meth, o=orig: setattr(c, m, o))
                    setattr(cls, meth, self._count_wrapper(orig, name, restore))
                else:
                    setattr(cls, meth, make(orig, name))
                continue
            orig = getattr(home_mod, attr)
            wrapped = make(orig, name)
            for mod in modules.values():
                if kind == "span-toplevel" and mod is home_mod:
                    continue
                if getattr(mod, attr, None) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reading

    def records(self):
        """(thread id, span list) per thread, with self time appended to
        each closed span as element 6."""
        out = []
        for log in self._logs:
            child_time = [0.0] * len(log.spans)
            for rec in log.spans:
                if rec[3] >= 0:
                    child_time[rec[3]] += rec[2] - rec[1]
            spans = [rec[:6] + [rec[2] - rec[1] - child_time[i]]
                     for i, rec in enumerate(log.spans)]
            out.append((log.tid, spans))
        return out

    def hot_durations(self, name) -> list:
        vals = []
        for log in self._logs:
            vals.extend(log.hot.get(name, ()))
        return vals

    def counts(self) -> Counter:
        total = Counter()
        for log in self._logs:
            total.update(log.counts)
        return total

    def write(self, path, meta: dict):
        """All spans, plus totals for the hot and counted boundaries, as
        gzip-compressed JSON."""
        threads = []
        for tid, spans in self.records():
            threads.append({
                "thread": tid,
                "columns": ["name", "start", "end", "parent", "phase", "attrs", "self"],
                "spans": [[s[0], s[1] - self.epoch, s[2] - self.epoch] + s[3:]
                          for s in spans],
            })
        hot = {}
        for log in self._logs:
            for name, vals in log.hot.items():
                h = hot.setdefault(name, {"calls": 0, "total_s": 0.0})
                h["calls"] += len(vals)
                h["total_s"] += sum(vals)
        counts = [[name, list(ctx) if ctx else None, in_window, c]
                  for (name, ctx, in_window), c in sorted(self.counts().items(), key=repr)]
        doc = dict(meta, threads=threads, hot=hot, counts=counts)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
