"""Tracing the program from outside: wrappers on its public callables.

A :class:`Tracer` replaces attributes of the program's classes and
modules with timing wrappers while it is active and puts every original
back when it exits.  Nothing under ``src/`` knows it is being traced.

Two kinds of wrapper:

* **span** — one record per call (name, start, end, parent span, run
  id), kept in memory and written out when the run ends.  For coarse
  calls: a partitioner run, an engine batch, a journal append.
* **hot** — a per-thread count and total time.  For calls made
  hundreds of thousands of times per run (gain-container operations,
  ``node_gain``, ``move_and_lock``), where a record per call would cost
  more than the call.  Only the outermost call of a group is timed, so
  an override that calls ``super()`` or a ``top`` that iterates counts
  once.  A call that returns an iterator also gets the time spent
  stepping that iterator, whether the method is a generator or returns
  one it built.

:func:`install_layers` names the targets.  Classes are found at run
time through ``__subclasses__()``, so a container or gain engine added
or renamed later is traced under its own name; a named target that no
longer exists is listed in :attr:`Tracer.absent` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import self_time

RunOf = Optional[Callable[[tuple, dict], Optional[str]]]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: Optional[str]
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _ThreadState(threading.local):
    """Per-thread span stack, run id, hot-call depth and totals."""

    def __init__(self, tables: list, lock: threading.Lock) -> None:
        self.stack: List[int] = []
        self.run: Optional[str] = None
        self.depth: Dict[str, int] = {}
        self.hot: Dict[str, List[float]] = {}
        with lock:
            tables.append(self.hot)


def _timed_iter(it: Iterator, cell: List[float], tls: "_ThreadState",
                group: str):
    """Yield from ``it``, adding the time spent inside it to ``cell``.

    A step taken inside an outer timed call of ``group`` is left to that
    call; while a step is timed, calls of ``group`` it makes are not
    counted again.
    """
    while True:
        depth = tls.depth
        if depth.get(group):
            try:
                item = next(it)
            except StopIteration:
                return
        else:
            depth[group] = 1
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                cell[1] += perf_counter() - t0
                depth[group] = 0
        yield item


class Tracer:
    """Makes the wrappers, keeps what they record, and puts every
    original back on :meth:`restore` (or on leaving a ``with`` block)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.absent: List[str] = []
        #: Span names and hot groups with no target left to wrap.
        self.missing: set = set()
        self.installed: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._tables: List[Dict[str, List[float]]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tls = _ThreadState(self._tables, self._lock)

    # -- run ids --------------------------------------------------------
    def set_run(self, run: Optional[str]) -> None:
        """Tag spans opened by this thread from now on with ``run``."""
        self._tls.run = run

    # -- wrappers -------------------------------------------------------
    def span_wrapper(self, name: str, fn: Callable, run_of: RunOf = None):
        tls, spans, ids = self._tls, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            stack = tls.stack
            parent = stack[-1] if stack else None
            outer_run = tls.run
            if run_of is not None:
                run = run_of(args, kwargs)
                if run is not None:
                    tls.run = run
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, tls.run,
                                  threading.get_ident()))
                tls.run = outer_run

        return wrapper

    def hot_wrapper(self, group: str, fn: Callable, by_type: bool = False):
        """Count and time calls of ``fn`` under ``group`` (or
        ``group.<class of self>`` when ``by_type``)."""
        tls = self._tls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = tls.depth
            if depth.get(group):
                return fn(*args, **kwargs)
            key = f"{group}.{type(args[0]).__name__}" if by_type else group
            cell = tls.hot.get(key)
            if cell is None:
                cell = tls.hot[key] = [0, 0.0]
            depth[group] = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - t0
                depth[group] = 0
            cell[0] += 1
            if isinstance(result, Iterator):
                return _timed_iter(result, cell, tls, group)
            return result

        return wrapper

    # -- patching -------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper_of: Callable) -> bool:
        """Replace ``owner.attr`` by ``wrapper_of(original)``."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{_name(owner)}.{attr}")
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))
        self.installed.append(f"{_name(owner)}.{attr}")
        return True

    def patch_path(
        self, name: str, module: str, path: str, wrapper_of: Callable
    ) -> bool:
        """Patch ``module:path`` (``"Class.method"`` or ``"function"``);
        when the module or any step is gone, ``name`` goes missing."""
        try:
            owner: Any = importlib.import_module(module)
        except ImportError:
            owner = None
        *steps, attr = path.split(".")
        for step in steps:
            owner = getattr(owner, step, None)
        if owner is None or not self.patch(owner, attr, wrapper_of):
            if owner is None:
                self.absent.append(f"{module}.{path}")
            self.missing.add(name)
            return False
        return True

    def restore(self) -> None:
        """Put every original back, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results --------------------------------------------------------
    def hot_totals(self) -> Dict[str, Tuple[int, float]]:
        """``{key: (calls, seconds)}`` summed over every thread."""
        out: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (count, seconds) in list(table.items()):
                cell = out.setdefault(key, [0, 0.0])
                cell[0] += count
                cell[1] += seconds
        return {k: (int(c), s) for k, (c, s) in out.items()}

    def span_records(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


def _name(owner: Any) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return getattr(owner, "__name__", repr(owner))


def subclasses(base: type) -> List[type]:
    """``base`` and every class below it, parents before children."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop(0)
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out


def patch_methods(
    tracer: Tracer, base: type, methods: Tuple[str, ...], group: str
) -> None:
    """Hot-wrap ``methods`` wherever a class under ``base`` defines them
    concretely, keyed by the class of the receiver."""
    found = False
    for cls in subclasses(base):
        for attr in methods:
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            found = tracer.patch(
                cls, attr, lambda f: tracer.hot_wrapper(group, f, by_type=True)
            ) or found
    if not found:
        tracer.absent.append(f"{_name(base)}: {', '.join(methods)}")
        tracer.missing.add(group)


#: The GainContainer operations; ``top`` is concrete on the base.
CONTAINER_METHODS = (
    "insert", "remove", "update", "peek_best", "iter_descending", "top",
)
APQ_METHODS = ("push", "pop", "discard", "peek")

#: Class hierarchies whose methods are hot-wrapped wherever defined:
#: (group, module, base class, methods).
CLASS_TARGETS = (
    ("datastructures.gain_container", "repro.datastructures.gain_container",
     "GainContainer", CONTAINER_METHODS),
    ("core.node_gain", "repro.core.gains", "ProbabilisticGainEngine",
     ("node_gain",)),
    ("kernels.all_gains", "repro.core.gains", "ProbabilisticGainEngine",
     ("all_gains",)),
    ("datastructures.apq", "repro.datastructures.heap",
     "AddressablePriorityQueue", APQ_METHODS),
)

#: Coarse calls traced as spans: (span name, module, attribute path).
SPAN_TARGETS = (
    ("core.prop", "repro.core.prop", "PropPartitioner.partition"),
    ("multilevel.nlevel", "repro.multilevel.uncoarsen",
     "NLevelPartitioner.partition"),
    ("multilevel.coarsen", "repro.multilevel.uncoarsen", "nlevel_coarsen"),
    ("multilevel.uncoarsen", "repro.multilevel.uncoarsen",
     "UncoarsenState.uncoarsen"),
    ("multilevel.rebalance", "repro.multilevel.uncoarsen",
     "UncoarsenState.rebalance"),
    ("baselines.fm", "repro.baselines.fm", "FMPartitioner.partition"),
    ("baselines.eig1", "repro.baselines.spectral.eig1",
     "Eig1Partitioner.partition"),
    ("baselines.melo", "repro.baselines.spectral.melo",
     "MeloPartitioner.partition"),
    ("engine.cache_get", "repro.engine.cache", "ResultCache.get"),
    ("engine.cache_put", "repro.engine.cache", "ResultCache.put"),
    ("engine.journal_append", "repro.engine.journal",
     "RunJournal.append_unit"),
)

#: Span targets whose calls carry their own run id.
RUN_SPAN_TARGETS = (
    ("engine.run", "repro.engine.engine", "Engine.run",
     lambda a, k: k.get("run_id")),
    ("service.journal_append", "repro.service.recovery",
     "ServiceJournal.append_job",
     lambda a, k: getattr(a[1], "job_id", None) if len(a) > 1 else None),
    ("service.journal_append", "repro.service.recovery",
     "ServiceJournal.append_state",
     lambda a, k: a[1] if len(a) > 1 else None),
)

#: Hot calls on named targets: (group, module, attribute path).
HOT_TARGETS = (
    ("partition.move_and_lock", "repro.partition.partition",
     "Partition.move_and_lock"),
)


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap every traced layer boundary of the program."""
    # Subclasses are only visible once their modules are imported.
    for module in ("repro.kernels.numpy_backend", "repro.multilevel",
                   "repro.service"):
        try:
            importlib.import_module(module)
        except ImportError:
            tracer.absent.append(module)
    for group, module, base, methods in CLASS_TARGETS:
        cls = getattr(_module(module), base, None)
        if cls is None:
            tracer.absent.append(f"{module}.{base}")
            tracer.missing.add(group)
        else:
            patch_methods(tracer, cls, methods, group)
    for group, module, path in HOT_TARGETS:
        tracer.patch_path(group, module, path,
                          lambda f, g=group: tracer.hot_wrapper(g, f))
    for name, module, path in SPAN_TARGETS:
        tracer.patch_path(name, module, path,
                          lambda f, n=name: tracer.span_wrapper(n, f))
    for name, module, path, run_of in RUN_SPAN_TARGETS:
        tracer.patch_path(name, module, path,
                          lambda f, n=name, r=run_of:
                          tracer.span_wrapper(n, f, run_of=r))
    return tracer


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _hot_sum(hot: Dict[str, Tuple[int, float]], group: str) -> Tuple[float, float]:
    calls = seconds = 0.0
    for key, (count, secs) in hot.items():
        if key == group or key.startswith(group + "."):
            calls += count
            seconds += secs
    return calls, seconds


#: Hot groups and the (count, seconds) metrics read from them.
HOT_METRICS = (
    ("core.node_gain", "core.node_gain_calls", "core.node_gain_s"),
    ("datastructures.gain_container", "datastructures.gain_container_ops",
     "datastructures.gain_container_s"),
    ("datastructures.apq", "datastructures.apq_ops", "datastructures.apq_s"),
    ("kernels.all_gains", "kernels.all_gains_calls", "kernels.all_gains_s"),
    ("partition.move_and_lock", "partition.move_and_lock_calls",
     "partition.move_and_lock_s"),
)

#: Span metrics: name -> (how, span names).  ``sum`` adds durations,
#: ``count`` counts calls; spans of one name never nest.
SPAN_METRICS = {
    "baselines.fm_s": ("sum", ("baselines.fm",)),
    "baselines.fm_runs": ("count", ("baselines.fm",)),
    "baselines.spectral_s": ("sum", ("baselines.eig1", "baselines.melo")),
    "engine.run_s": ("sum", ("engine.run",)),
    "engine.cache_get_s": ("sum", ("engine.cache_get",)),
    "engine.cache_put_s": ("sum", ("engine.cache_put",)),
    "engine.journal_append_s": ("sum", ("engine.journal_append",)),
    "service.journal_append_s": ("sum", ("service.journal_append",)),
}

#: Metrics read from the n-level span and the refiner spans under it.
NLEVEL_METRICS = ("multilevel.refiner_calls", "multilevel.final_refine_s",
                  "multilevel.unattributed_s")


def layer_metrics(tracer: Tracer, lo: float, hi: float) -> Dict[str, float]:
    """Per-layer metrics from a finished trace of the window [lo, hi].

    A metric whose every source target was missing is left out, so a
    refactor that removes a target reads as absent, not as zero.
    """
    hot = tracer.hot_totals()
    out: Dict[str, float] = {}
    for group, calls, secs in HOT_METRICS:
        if group not in tracer.missing:
            out[calls], out[secs] = _hot_sum(hot, group)
    for name, (how, sources) in SPAN_METRICS.items():
        if all(src in tracer.missing for src in sources):
            continue
        picked = [s.seconds for s in tracer.spans if s.name in sources]
        out[name] = sum(picked) if how == "sum" else float(len(picked))

    children: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    refiner_calls = final_refine = ml_self = 0.0
    for span in tracer.spans:
        if span.name != "multilevel.nlevel":
            continue
        kids = sorted(children.get(span.sid, []), key=lambda s: s.start)
        refines = [k for k in kids if k.name == "core.prop"]
        refiner_calls += len(refines)
        if refines:
            final_refine += refines[-1].seconds
        ml_self += self_time(span.start, span.end,
                             [(k.start, k.end) for k in kids])
    if not {"multilevel.nlevel", "core.prop"} & tracer.missing:
        out.update(zip(NLEVEL_METRICS,
                       (refiner_calls, final_refine, ml_self)))
    out["trace.unattributed_s"] = self_time(
        lo, hi, [(s.start, s.end) for s in tracer.spans if s.parent is None]
    )
    return out
