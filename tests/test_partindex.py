"""Tests for the partitioned-index substrate (build blobs + probe)."""
import os
import pickle
import uuid

import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import DoubleType, IntegerType, LongType, StructField, StructType

from repro import datasets
from repro.core.partindex import PartitionedIndex, load_blob
from repro.core.partitioner import assign_partitions, kmeans
from repro.core.projection import GaussianProjection

OUT_SCHEMA = StructType(
    [
        StructField("pid", IntegerType(), False),
        StructField("id", LongType(), False),
        StructField("norm", DoubleType(), False),
    ]
)


@pytest.fixture(scope="module")
def built(spark):
    g = np.random.default_rng(0)
    X = g.standard_normal((300, 12))
    proj = GaussianProjection(12, 5, seed=0)
    df = proj.transform(datasets.to_spark(spark, X))
    centers = kmeans(proj.project(X), 4, seed=0)
    assigned = assign_partitions(df, centers)

    def build_fn(ids, P, V):
        return {"V": V, "ids": ids}, {"mean_norm": float(
            np.mean(np.linalg.norm(V, axis=1)))}

    idx = PartitionedIndex.build(spark, assigned, build_fn, name="test")
    return idx, X


def test_build_covers_all_points(built):
    idx, X = built
    assert idx.n == len(X)
    assert sum(s["count"] for s in idx.summaries.values()) == len(X)


def test_blob_files_exist(built):
    idx, _ = built
    for row in idx.meta.collect():
        assert os.path.exists(row["path"])


def test_summaries_are_driver_side_dicts(built):
    idx, _ = built
    for s in idx.summaries.values():
        assert "mean_norm" in s and s["mean_norm"] > 0


def test_probe_runs_on_every_partition(built):
    idx, X = built

    def probe_fn(blob, pid):
        return pd.DataFrame(
            {
                "pid": np.full(len(blob["ids"]), pid, dtype=np.int32),
                "id": blob["ids"],
                "norm": np.linalg.norm(blob["V"], axis=1),
            }
        )

    out = idx.probe(probe_fn, schema=OUT_SCHEMA).toPandas()
    assert len(out) == len(X)
    got = out.sort_values("id")["norm"].to_numpy()
    np.testing.assert_allclose(got, np.linalg.norm(X, axis=1), rtol=1e-9)


def test_probe_pid_filter(built, tmp_path):
    idx, _ = built
    all_pids = sorted(idx.summaries)
    calls_dir = str(tmp_path)

    def probe_fn(blob, pid):
        # one file per call (executors share the driver's filesystem in
        # local mode), so the pids probe_fn sees are recorded on the driver
        open(os.path.join(calls_dir, f"{pid}-{uuid.uuid4().hex}"), "w").close()
        return pd.DataFrame(
            {
                "pid": np.full(len(blob["ids"]), pid, dtype=np.int32),
                "id": blob["ids"],
                "norm": np.zeros(len(blob["ids"])),
            }
        )

    def probed(pids):
        for f in os.listdir(calls_dir):
            os.remove(os.path.join(calls_dir, f))
        out = idx.probe(probe_fn, schema=OUT_SCHEMA, pids=pids).toPandas()
        return out, sorted(int(f.split("-")[0]) for f in os.listdir(calls_dir))

    some_pid = all_pids[0]
    out, seen = probed([some_pid])
    assert seen == [some_pid]
    assert set(out["pid"]) == {some_pid}
    assert len(out) == idx.summaries[some_pid]["count"]

    chosen = all_pids[1::2]
    out, seen = probed(chosen)
    assert seen == chosen
    assert sorted(set(out["pid"])) == chosen

    out, seen = probed([])
    assert seen == []
    assert len(out) == 0

    _, seen = probed(None)
    assert seen == all_pids


def test_probe_empty_result(built):
    idx, _ = built
    out = idx.probe(lambda b, p: None, schema=OUT_SCHEMA).toPandas()
    assert len(out) == 0


def test_load_blob_caches(built):
    idx, _ = built
    path = idx.meta.first()["path"]
    b1 = load_blob(path)
    b2 = load_blob(path)
    assert b1 is b2  # same object: per-process memoization


def test_distinct_builds_get_distinct_dirs(spark, built):
    idx, X = built
    proj = GaussianProjection(12, 5, seed=0)
    df = proj.transform(datasets.to_spark(spark, X))
    centers = kmeans(proj.project(X), 2, seed=0)
    assigned = assign_partitions(df, centers)
    idx2 = PartitionedIndex.build(
        spark, assigned, lambda ids, P, X: ({"n": len(ids)}, {}),
        name="test",
    )
    assert idx2.index_dir != idx.index_dir


def _leaves(obj, where="blob"):
    """Every leaf of a blob, descending into str-keyed dicts, lists, tuples
    and the attributes of plain objects (the flat trees)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            assert isinstance(key, str), f"{where} has key {key!r}"
            yield from _leaves(value, f"{where}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{where}[{i}]")
    elif hasattr(obj, "__dict__"):
        yield from _leaves(vars(obj), f"{where}.vars")
    else:
        yield where, obj


@pytest.mark.parametrize(
    "fixture", ["pmlsh_index", "rlsh_index", "srs_index", "qalsh_index", "mp_index"])
def test_index_blobs_hold_only_arrays_and_scalars(fixture, request):
    index = request.getfixturevalue(fixture).index
    paths = [os.path.join(index.index_dir, f) for f in os.listdir(index.index_dir)]
    assert paths
    for path in paths:
        with open(path, "rb") as f:
            blob = pickle.load(f)
        for where, leaf in _leaves(blob):
            assert isinstance(leaf, (np.ndarray, int, float, np.number)), where
            assert getattr(leaf, "dtype", None) != object, where
