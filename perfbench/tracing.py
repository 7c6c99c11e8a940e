"""Driver-side spans around the program's public calls, plus executor replay.

The benchmark does not change ``src/repro``. It times each layer from the
outside:

- :class:`Tracer` replaces a fixed set of driver-side callables (class
  attributes and module globals) with wrappers that record a span per
  call, with its parent span, and restores the originals on
  :meth:`Tracer.uninstall`. Spark transformations are lazy, so their
  time appears in the action span (``toPandas``, ``collect``, ``count``)
  that runs them.
- Executor-side work (blob load, PM-tree range query, true-distance
  verification inside ``PMLSH._probe_round``'s closure) cannot be wrapped
  from the driver. :func:`replay` re-runs it single-threaded on the driver
  with the radii captured from ``_probe_round``, which yields exact,
  repeatable distance-computation, node and row counts.
"""
from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import exact
from repro.core import partindex, pmlsh, projection
from repro.core.partindex import PartitionedIndex
from repro.core.pmlsh import PMLSH

__all__ = ["Tracer", "replay", "layer_metrics", "SPAN_NAMES"]

# span name -> (owner, attribute). The DataFrame class is resolved at
# install time: Spark 4 dispatches DataFrame methods to
# ``pyspark.sql.classic.dataframe.DataFrame``, not ``pyspark.sql.DataFrame``.
_TARGETS = {
    "pmlsh.build": (PMLSH, "build"),
    "pmlsh.query_batch": (PMLSH, "query_batch"),
    "pmlsh.probe_round": (PMLSH, "_probe_round"),
    "partindex.build": (PartitionedIndex, "build"),
    "partindex.probe": (PartitionedIndex, "probe"),
    "partitioner.kmeans": (pmlsh, "kmeans"),
    "costmodel.DistanceDistribution": (pmlsh, "DistanceDistribution"),
    "projection.project": (projection.GaussianProjection, "project"),
    "exact.ground_truth": (exact, "exact_knn_arrays"),
    "dataframe.toPandas": (None, "toPandas"),
    "dataframe.collect": (None, "collect"),
    "dataframe.count": (None, "count"),
}
SPAN_NAMES = tuple(_TARGETS)
_MAX_ROUNDS = inspect.signature(PMLSH.query_batch).parameters["max_rounds"].default


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class ProbeRound:
    """Inputs and output size of one ``_probe_round`` call."""

    span: int
    QP: dict
    QV: dict
    radii: dict
    got: object  # the returned pandas frame, until its query_batch ends


class Tracer:
    """Records spans for calls into the program while installed."""

    def __init__(self, dataframe_cls: type):
        self.dataframe_cls = dataframe_cls
        self.spans: list[Span] = []
        self.rounds: list[ProbeRound] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        sp = Span(name, 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name: str, fn):
        tracer = self

        if name == "pmlsh.probe_round":
            def traced(index, QP, QV, radii):
                at = len(tracer.spans)
                with tracer.span(name) as sp:
                    got = fn(index, QP, QV, radii)
                sp.attrs["rows"] = len(got)
                tracer.rounds.append(ProbeRound(at, QP, QV, dict(radii), got))
                return got
        elif name == "pmlsh.query_batch":
            def traced(index, Q, k=50, **kw):
                first_round = len(tracer.rounds)
                with tracer.span(name) as sp:
                    out = fn(index, Q, k, **kw)
                rounds = tracer.rounds[first_round:]
                sp.attrs.update(nq=len(out), k=k, rounds=len(rounds),
                                cap_hits=_cap_hits(index, rounds, k, kw))
                for r in rounds:  # keep the inputs, drop the candidate rows
                    r.got = None
                return out
        elif name == "partindex.probe":
            def traced(index, *a, **kw):
                with tracer.span(name) as sp:
                    out = fn(index, *a, **kw)
                pids = kw.get("pids", a[2] if len(a) > 2 else None)
                sp.attrs["total"] = len(index.summaries)
                sp.attrs["probed"] = len(index.summaries) if pids is None else len(pids)
                return out
        else:
            def traced(*a, **kw):
                with tracer.span(name):
                    return fn(*a, **kw)
        return traced

    # ---- patching --------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (owner, attr) in _TARGETS.items():
            owner = self.dataframe_cls if owner is None else owner
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrapper(name, raw.__func__))
            else:
                patched = self._wrapper(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # ---- queries over recorded spans --------------------------------------
    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def rounds_of(self, query_batch: int) -> list[ProbeRound]:
        return [r for r in self.rounds if self.spans[r.span].parent == query_batch]

    def children(self, i: int, name: str) -> list[int]:
        return [j for j, s in enumerate(self.spans) if s.parent == i and s.name == name]

    def summary(self) -> dict[str, dict]:
        """Calls, total and self milliseconds per span name."""
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] += s.ms
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            e = out.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            e["calls"] += 1
            e["total_ms"] += s.ms
            e["self_ms"] += s.ms - child_ms[i]
        return out


def _cap_hits(index: PMLSH, rounds: list[ProbeRound], k: int, kw: dict) -> int:
    """Queries still unanswered when ``query_batch`` ran out of rounds.

    Re-evaluates Algorithm 2's termination test on the candidates that
    the last allowed round saw; only needed once that round is reached.
    """
    if len(rounds) < kw.get("max_rounds", _MAX_ROUNDS):
        return 0
    c = kw.get("c") or index.ci.c
    need = index.beta * index.n + k
    hits = 0
    for qid, pr in rounds[-1].radii.items():
        cand: dict[int, float] = {}
        for r in rounds:
            grp = r.got[r.got["qid"] == qid]
            cand.update(zip(grp["id"].astype(int), grp["dist"].astype(float)))
        d = np.fromiter(cand.values(), dtype=np.float64, count=len(cand))
        r_orig = pr / index.ci.t
        done = (len(d) >= k and int(np.sum(d <= c * r_orig)) >= k) \
            or len(d) >= need or len(d) >= index.n
        hits += not done
    return hits


def replay(index: PMLSH, rounds: list[ProbeRound], paths: dict[int, str]) -> dict:
    """Re-run one query's executor work on the driver, single-threaded.

    Mirrors the probe closure of ``PMLSH._probe_round``: per partition,
    the ball+ring prune test, ``PMTree.range_query`` and the einsum
    verification, for every (partition, query) pair of every round.
    """
    out = {"blob_load_ms": 0.0, "range_query_ms": 0.0, "verify_ms": 0.0,
           "cc": 0, "nodes_accessed": 0, "rows": 0, "rows_per_round": []}
    blobs = {}
    for pid, path in paths.items():
        partindex._BLOB_CACHE.pop(path, None)  # time a cold load
        t0 = time.perf_counter()
        blobs[pid] = partindex.load_blob(path)
        out["blob_load_ms"] += (time.perf_counter() - t0) * 1e3
    try:
        for rnd in rounds:
            rows_this_round = 0
            qpiv = {qid: np.linalg.norm(index.pivots - rnd.QP[qid][None, :], axis=1)
                    if len(index.pivots) else np.zeros(0) for qid in rnd.radii}
            for pid, blob in blobs.items():
                summary = index.index.summaries[pid]
                tree = blob["tree"]
                for qid, pr in rnd.radii.items():
                    qp = rnd.QP[qid]
                    if pmlsh._partition_pruned(summary, qp, qpiv[qid], pr):
                        continue
                    tree.reset_counters()
                    t0 = time.perf_counter()
                    rows, _ = tree.range_query(qp, pr)
                    t1 = time.perf_counter()
                    out["cc"] += tree.cc
                    out["nodes_accessed"] += tree.nodes_accessed
                    out["range_query_ms"] += (t1 - t0) * 1e3
                    if len(rows) == 0:
                        continue
                    t0 = time.perf_counter()
                    diff = blob["X"][rows] - rnd.QV[qid][None, :]
                    np.sqrt(np.einsum("ij,ij->i", diff, diff))
                    out["verify_ms"] += (time.perf_counter() - t0) * 1e3
                    rows_this_round += len(rows)
            out["rows_per_round"].append(rows_this_round)
            out["rows"] += rows_this_round
    finally:
        for path in paths.values():
            partindex._BLOB_CACHE.pop(path, None)
    return out


def _mean(xs) -> float:
    xs = list(xs)
    return float(np.mean(xs)) if xs else float("nan")


def layer_metrics(tr: Tracer, rep: dict, *, nq: int, k: int) -> dict[str, float]:
    """Per-layer numbers from recorded spans and one replayed query op."""
    S = tr.spans
    qb = tr.named("pmlsh.query_batch")
    rounds = tr.named("pmlsh.probe_round")
    builds = tr.named("pmlsh.build")
    probe = tr.named("partindex.probe")
    in_query = {
        j for i in qb for j in tr.children(i, "projection.project")
    }
    cand_per_query = rep["rows"] / nq
    return {
        "pmlsh.query_batch_ms": _mean(S[i].ms for i in qb),
        "pmlsh.rounds_per_op": _mean(S[i].attrs["rounds"] for i in qb),
        "pmlsh.probe_round_ms": _mean(S[i].ms for i in rounds),
        "pmlsh.merge_ms": _mean(
            S[i].ms - sum(S[j].ms for j in tr.children(i, "pmlsh.probe_round"))
            for i in qb),
        "pmlsh.radius_cap_hits": float(sum(S[i].attrs["cap_hits"] for i in qb)),
        "pmlsh.build_ms": _mean(S[i].ms for i in builds),
        "pmlsh.sample_collect_ms": _mean(
            sum(S[j].ms for name in ("dataframe.collect", "dataframe.count")
                for j in tr.children(i, name))
            for i in builds),
        "partindex.build_ms": _mean(S[i].ms for i in tr.named("partindex.build")),
        "partindex.spark_pass_ms": _mean(
            sum(S[j].ms for name in ("partindex.probe", "dataframe.toPandas")
                for j in tr.children(i, name))
            for i in rounds),
        "partindex.rows_collected": _mean(
            sum(S[j].attrs["rows"] for j in tr.children(i, "pmlsh.probe_round"))
            for i in qb),
        "partindex.partitions_probed": _mean(S[i].attrs["probed"] for i in probe),
        "partindex.partitions_total": _mean(S[i].attrs["total"] for i in probe),
        "partindex.blob_load_ms": rep["blob_load_ms"],
        "pmtree.range_query_ms": rep["range_query_ms"],
        "pmtree.cc": float(rep["cc"]),
        "pmtree.nodes_accessed": float(rep["nodes_accessed"]),
        "pmtree.rows_per_cc": rep["rows"] / rep["cc"] if rep["cc"] else float("nan"),
        "verify.ms": rep["verify_ms"],
        "verify.candidates": cand_per_query,
        "verify.topk_per_candidate": k / cand_per_query if cand_per_query else float("nan"),
        "projection.query_ms": _mean(S[i].ms for i in in_query),
        "partitioner.kmeans_ms": _mean(S[i].ms for i in tr.named("partitioner.kmeans")),
        "costmodel.F_build_ms": _mean(
            S[i].ms for i in tr.named("costmodel.DistanceDistribution")),
        "exact.ground_truth_ms": _mean(S[i].ms for i in tr.named("exact.ground_truth")),
        "trace.replay_rows": float(rep["rows"]),
    }
