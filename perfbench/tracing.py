"""Spans around normconst's layer entry points, recorded from outside.

A :class:`Tracer` replaces each entry point where its caller looks it up
(a class attribute, or a module global read at call time) with a wrapper
that records one span per call: name, start, end, parent span and thread,
plus one count (rows, evaluations, probes) where the layer has one.  Spans
are kept per thread in flat arrays and merged when the run ends;
:meth:`Tracer.restore` puts every replaced attribute back.
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

# Constants that verify and the CLI reach through getattr(constants, id), and
# that call each other through module globals.
TRACED_CONSTANTS = ("gamma_p", "cinj_iso", "cinj_via_gamma", "cnj_p", "cnj_modified_p",
                    "james", "schaffer", "rho", "nu_p", "omega_prime", "smoothness_quotient")


class _ThreadSpans:
    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.stack: list[int] = []


class Tracer:
    """Install with :meth:`patch` calls, run the workload, then :meth:`restore`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            with self._lock:
                spans = _ThreadSpans(len(self._threads))
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def wrap(self, name: str, fn, count=None, prepare=None):
        """A function that calls ``fn`` inside a span named ``name``.

        ``count(args, kwargs, result)`` gives the span's count.  ``prepare(args)``
        may replace the arguments and returns ``(args, count_fn)``, for
        counts that can only be taken during the call.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            s = self._spans()
            idx = len(s.start)
            s.name.append(nid)
            s.parent.append(s.stack[-1] if s.stack else -1)
            s.count.append(0)
            s.start.append(0.0)
            s.end.append(0.0)
            s.stack.append(idx)
            late = None
            if prepare is not None:
                args, late = prepare(args)
            s.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end[idx] = clock()
                s.stack.pop()
            if late is not None:
                s.count[idx] = late()
            elif count is not None:
                s.count[idx] = count(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, prepare=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, prepare))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        """All spans as arrays; ``parent`` indexes into the merged arrays."""
        names, parents, starts, ends, counts, threads = [], [], [], [], [], []
        offset = 0
        for s in self._threads:
            n = len(s.start)
            if n == 0:
                continue
            p = np.frombuffer(s.parent, dtype=np.int32)[:n].astype(np.int64)
            parents.append(np.where(p >= 0, p + offset, -1))
            names.append(np.frombuffer(s.name, dtype=np.int32)[:n])
            starts.append(np.frombuffer(s.start, dtype=np.float64)[:n])
            ends.append(np.frombuffer(s.end, dtype=np.float64)[:n])
            counts.append(np.frombuffer(s.count, dtype=np.int64)[:n])
            threads.append(np.full(n, s.thread, dtype=np.int32))
            offset += n
        cat = (lambda xs, dt: np.concatenate(xs) if xs else np.zeros(0, dtype=dt))
        return {"name": cat(names, np.int32), "parent": cat(parents, np.int64),
                "start": cat(starts, np.float64), "end": cat(ends, np.float64),
                "count": cat(counts, np.int64), "thread": cat(threads, np.int32)}


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children of one span run in its thread one after another, so the time
    they cover is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def nearest_ancestor(parent: np.ndarray, mask: np.ndarray, i: int) -> int:
    """Index of the closest ancestor of span ``i`` with ``mask`` set, or -1."""
    j = int(parent[i])
    while j >= 0 and not mask[j]:
        j = int(parent[j])
    return j


# ---------------------------------------------------------------------------
# normconst's entry points and the per-layer metrics built from their spans


def _rows(args, kwargs, result) -> int:
    v = args[1]
    return int(v.shape[0]) if v.ndim > 1 else 1


def _evaluations(args, kwargs, result) -> int:
    return int(result.evaluations)


def _count_probes(args):
    probes = [0]
    g = args[0]

    def counted(t):
        probes[0] += 1
        return g(t)

    return (counted,) + tuple(args[1:]), lambda: probes[0]


class SuiteKeys:
    """Distinct estimate-cache keys per ``run_suite`` call.

    The key is the one ``_Context.estimate`` caches under: constant id,
    space, strategy and parameters.  Spaces compare by identity and
    strategies by value, as their descriptors would.
    """

    def __init__(self):
        self._current: set = set()

    def add(self, args, kwargs, result) -> int:
        self._current.add((args[1], args[2], args[3], tuple(sorted(kwargs.items()))))
        return 0

    def close(self, args, kwargs, result) -> int:
        n, self._current = len(self._current), set()
        return n


def install(tracer: Tracer, nc) -> None:
    """Wrap every traced entry point of the imported normconst package ``nc``."""
    keys = SuiteKeys()
    tracer.patch(nc.spaces.NormedSpace, "norm_rows", "spaces.norm_rows", count=_rows)
    for module in (nc.constants, nc.verify):
        for engine in ("sup_pairs_2d", "sup_pairs_nd"):
            tracer.patch(module, engine, f"search.{engine}", count=_evaluations)
    tracer.patch(nc.constants, "sup_vertex_pairs", "search.sup_vertex_pairs", count=_evaluations)
    tracer.patch(nc.constants, "t_sweep", "search.t_sweep", prepare=_count_probes)
    tracer.patch(nc.constants, "_iso_partner_rows", "orthogonality.iso_partner", count=_rows)
    for cid in TRACED_CONSTANTS:
        tracer.patch(nc.constants, cid, f"constants.{cid}")
    tracer.patch(nc.verify, "run_suite", "verify.run_suite", count=keys.close)
    tracer.patch(nc.verify, "_run_one", "verify.check")
    tracer.patch(nc.verify._Context, "estimate", "verify.estimate", count=keys.add)
    tracer.patch(nc.cli, "main", "cli.main")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer counts and times from the spans of ``rounds`` identical rounds, per round."""
    sp = tracer.spans()
    name, parent, count = sp["name"], sp["parent"], sp["count"]
    dur = sp["end"] - sp["start"]
    own = self_times(sp["start"], sp["end"], parent)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(n: str) -> np.ndarray:
        return name == ids.get(n, -1)

    def is_one_of(names) -> np.ndarray:
        return np.isin(name, [ids.get(n, -1) for n in names])

    m: dict[str, float] = {}
    rows = sel("spaces.norm_rows")
    m["spaces.norm_rows.calls"] = int(rows.sum())
    m["spaces.norm_rows.rows"] = int(count[rows].sum())
    m["spaces.norm_rows.single_row_calls"] = int((count[rows] == 1).sum())
    m["spaces.norm_rows.s"] = float(dur[rows].sum())
    for layer, unit in (("search.sup_pairs_2d", "evals"), ("search.sup_pairs_nd", "evals"),
                        ("search.sup_vertex_pairs", "evals"), ("search.t_sweep", "probes"),
                        ("orthogonality.iso_partner", "rows")):
        mask = sel(layer)
        m[f"{layer}.calls"] = int(mask.sum())
        m[f"{layer}.{unit}"] = int(count[mask].sum())
        m[f"{layer}.self_s"] = float(own[mask].sum())
    const = is_one_of([f"constants.{c}" for c in TRACED_CONSTANTS])
    for cid in TRACED_CONSTANTS:
        mask = sel(f"constants.{cid}")
        m[f"constants.{cid}.calls"] = int(mask.sum())
        m[f"constants.{cid}.s"] = float(dur[mask].sum())
    cnj = ids.get("constants.cnj_p", -1)
    m["constants.cnj_p.inner_calls"] = sum(
        1 for i in np.flatnonzero(const)
        if (a := nearest_ancestor(parent, const, i)) >= 0 and name[a] == cnj)
    checks = sel("verify.check")
    m["verify.checks"] = int(checks.sum())
    has_parent = parent >= 0
    from_estimate = np.zeros(name.size, dtype=bool)
    from_estimate[has_parent] = name[parent[has_parent]] == ids.get("verify.estimate", -1)
    m["verify.estimate.computes"] = int((const & from_estimate).sum())
    m["verify.estimate.keys"] = int(count[sel("verify.run_suite")].sum())
    m["verify.estimate.duplicates"] = m["verify.estimate.computes"] - m["verify.estimate.keys"]
    main = sel("cli.main")
    m["cli.main.calls"] = int(main.sum())
    m["cli.main.self_s"] = float(own[main].sum())
    per_round = {k: v / rounds for k, v in m.items()}
    # checks run in pool threads, outside the suite's span tree: take those inside its interval
    per_round["verify.pool.workers"] = max(
        (np.unique(sp["thread"][checks & (sp["start"] >= sp["start"][i])
                                & (sp["end"] <= sp["end"][i])]).size
         for i in np.flatnonzero(sel("verify.run_suite"))), default=0)
    return per_round
