"""Shared substrate: per-partition index blobs on the local filesystem.

Every distributed index in this repo (PM-LSH, R-LSH, SRS, QALSH,
Multi-Probe) follows the same dataflow:

1. *build* — ``applyInPandas`` over points grouped by ``pid`` runs an
   index-specific ``build_fn`` whose output (a picklable dict of NumPy
   arrays, or of flat trees made only of them) is written to
   ``<index_dir>/part-<pid>.pkl``. Only a tiny row (pid, path, pickled
   summary) flows back through Spark; the summaries stay on the driver.
2. *probe* — ``mapInPandas`` over the meta DataFrame (a small local
   DataFrame of ``(pid, path)`` rows, never ``.cache()``d) runs an
   index-specific ``probe_fn(blob, pid)`` per partition. Whatever a pass
   needs per partition (PM-LSH's plan of queries per pid) is decided on
   the driver and travels in ``probe_fn``'s closure; the partitions a pass
   selects (``pids``) are picked inside the executors, not by a
   driver-side filter. Executors memoize deserialized blobs per worker
   process, so repeated probe rounds (PM-LSH's radius enlarging, QALSH's
   virtual rehashing) pay the disk+pickle cost once.

Running in ``local[*]`` all executors share the driver's filesystem; on a
real cluster ``index_dir`` would simply move to shared storage — the
dataflow is unchanged, which is why this layering was chosen over
shipping multi-hundred-MB blobs through every query's task closure.
"""
from __future__ import annotations

import os
import pickle
import sys
import uuid
import zipimport
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    BinaryType,
    IntegerType,
    StringType,
    StructField,
    StructType,
)

__all__ = ["PartitionedIndex", "load_blob", "default_index_root",
           "skip_spark_archive_rereads"]

META_SCHEMA = StructType(
    [
        StructField("pid", IntegerType(), False),
        StructField("path", StringType(), False),
    ]
)
# what each build group returns: its meta row and its pickled summary
BUILT_SCHEMA = StructType(META_SCHEMA.fields + [StructField("summary", BinaryType(), False)])

# Per-worker-process blob cache; keyed by file path (paths embed a uuid,
# so a rebuilt index never aliases a stale cache entry).
_BLOB_CACHE: dict[str, dict] = {}


def skip_spark_archive_rereads() -> None:
    """Stop ``importlib.invalidate_caches()`` from re-reading Spark's archives.

    PySpark calls ``importlib.invalidate_caches()`` at the start of every
    task, and on CPython < 3.13 each ``zipimport.zipimporter`` then re-reads
    its archive's whole directory. A worker holds 16 of them, over
    ``pyspark.zip``, the py4j zip and the ``spark-core`` jar, which do not
    change while Spark runs. This wraps ``zipimporter.invalidate_caches``
    once per process so that it skips archives whose real path lies under
    the real ``$SPARK_HOME``; every other archive is still re-read. It does
    nothing without ``SPARK_HOME`` or on Python >= 3.13, whose
    ``invalidate_caches`` only drops the cache entry.

    Call it first in every function handed to Spark: Python workers are
    reused, so from a worker's second task on the re-read is skipped.
    """
    home = os.environ.get("SPARK_HOME")
    invalidate = zipimport.zipimporter.invalidate_caches
    if (sys.version_info >= (3, 13) or not home
            or getattr(invalidate, "skips_spark_archives", False)):
        return
    spark_root = os.path.join(os.path.realpath(home), "")

    def invalidate_caches(self):
        if not os.path.realpath(self.archive).startswith(spark_root):
            invalidate(self)

    invalidate_caches.skips_spark_archives = True
    zipimport.zipimporter.invalidate_caches = invalidate_caches


def load_blob(path: str) -> dict:
    """Deserialize (and memoize) one partition's index blob."""
    blob = _BLOB_CACHE.get(path)
    if blob is None:
        with open(path, "rb") as f:
            blob = pickle.load(f)
        _BLOB_CACHE[path] = blob
    return blob


def default_index_root() -> str:
    root = os.environ.get("REPRO_INDEX_DIR", "/tmp/repro_indexes")
    os.makedirs(root, exist_ok=True)
    return root


@dataclass
class PartitionedIndex:
    """Meta DataFrame + driver-side summaries for one built index."""

    meta: DataFrame              # local (pid, path) rows
    summaries: dict[int, dict]   # pid -> summary dict (driver copy)
    n: int                       # total indexed points
    index_dir: str

    @classmethod
    def build(
        cls,
        spark: SparkSession,
        assigned: DataFrame,
        build_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[dict, dict]],
        *,
        name: str,
    ) -> "PartitionedIndex":
        """Group ``assigned`` (``ASSIGNED_SCHEMA``: id, vec, proj, pid) and
        build one blob per pid.

        ``build_fn(ids, P, X) -> (blob, summary)`` gets one partition's ids,
        projected points and original vectors as arrays. The blob is
        pickled to disk; the summary must be a small picklable dict (it is
        collected to the driver), to which the partition's point ``count``
        is added.
        """
        index_dir = os.path.join(default_index_root(), f"{name}-{uuid.uuid4().hex[:12]}")
        os.makedirs(index_dir, exist_ok=True)

        def _build(key, pdf):  # untyped: lets Spark infer the grouped-map eval type
            skip_spark_archive_rereads()
            pid = int(key[0])
            ids = pdf["id"].to_numpy(dtype=np.int64)
            blob, summary = build_fn(ids, np.stack(pdf["proj"].to_numpy()),
                                     np.stack(pdf["vec"].to_numpy()))
            summary["count"] = len(ids)
            path = os.path.join(index_dir, f"part-{pid}.pkl")
            with open(path, "wb") as f:
                pickle.dump(blob, f, protocol=pickle.HIGHEST_PROTOCOL)
            return pd.DataFrame(
                {"pid": [pid], "path": [path], "summary": [pickle.dumps(summary)]})

        built = assigned.groupBy("pid").applyInPandas(_build, schema=BUILT_SCHEMA)
        rows = built.collect()  # materializes every blob file exactly once
        # Recreate meta as a fresh local DataFrame: probing must not keep a
        # lineage to the (possibly cached-then-unpersisted) input — stale
        # cache entries trip Spark's CacheManager on later .cache() calls,
        # and a retained lineage could silently re-run the build.
        meta_pdf = pd.DataFrame({"pid": [int(r["pid"]) for r in rows],
                                 "path": [r["path"] for r in rows]})
        meta = spark.createDataFrame(meta_pdf, schema=META_SCHEMA)
        summaries = {int(r["pid"]): pickle.loads(bytes(r["summary"])) for r in rows}
        n = int(sum(s["count"] for s in summaries.values()))
        return cls(meta=meta, summaries=summaries, n=n, index_dir=index_dir)

    def probe(self, probe_fn: Callable[[dict, int], pd.DataFrame | None],
              schema, pids: list[int] | None = None) -> DataFrame:
        """Run ``probe_fn(blob, pid)`` on each (selected) partition.

        ``pids`` are selected inside the executors: a row whose pid is not
        selected is skipped before its blob is loaded. Every meta partition
        runs a task either way, so a driver-side filter would save no task,
        only add a Catalyst plan per pass.
        """
        wanted = None if pids is None else frozenset(int(p) for p in pids)

        def _probe(batches):
            skip_spark_archive_rereads()
            for pdf in batches:
                for pid, path in zip(pdf["pid"].tolist(), pdf["path"].tolist()):
                    if wanted is not None and pid not in wanted:
                        continue
                    out = probe_fn(load_blob(path), pid)
                    if out is not None and len(out):
                        yield out

        return self.meta.mapInPandas(_probe, schema=schema)
