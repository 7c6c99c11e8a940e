"""Tests for ``skip_spark_archive_rereads``: Spark's own zip and jar
archives are not re-read on ``importlib.invalidate_caches()``, every
other archive is."""
import importlib
import os
import sys
import zipfile
import zipimport

import pandas as pd
import pytest

from repro.core.partindex import skip_spark_archive_rereads


@pytest.fixture
def original(monkeypatch):
    """The unwrapped method; restored on ``zipimporter`` after the test."""
    method = zipimport.zipimporter.invalidate_caches
    monkeypatch.setattr(zipimport.zipimporter, "invalidate_caches", method)
    return method


def _zip(path, member):
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "a") as z:
        z.writestr(f"{member}.py", "x = 1\n")


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="no-op on Python >= 3.13")
def test_spark_archives_skipped_other_archives_reread(tmp_path, monkeypatch, original):
    real = tmp_path / "spark-real"
    home = tmp_path / "spark"
    home.symlink_to(real, target_is_directory=True)
    monkeypatch.setenv("SPARK_HOME", str(home))
    # importer path -> archive file. One Spark archive is reached through
    # the SPARK_HOME symlink, one by its real path (as PySpark puts the
    # spark-core jar on a worker's path).
    archives = {
        str(home / "python" / "lib" / "a.zip"): real / "python" / "lib" / "a.zip",
        str(real / "jars" / "b.jar"): real / "jars" / "b.jar",
        str(tmp_path / "c.zip"): tmp_path / "c.zip",
    }
    for f in archives.values():
        _zip(f, "old")

    skip_spark_archive_rereads()
    importers = {p: zipimport.zipimporter(p) for p in archives}
    for p, imp in importers.items():
        assert imp.find_spec("old") is not None
        monkeypatch.setitem(sys.path_importer_cache, p, imp)
        _zip(archives[p], "new")
    importlib.invalidate_caches()

    spark_zip, spark_jar, outside = importers.values()
    assert spark_zip.find_spec("new") is None
    assert spark_jar.find_spec("new") is None
    assert outside.find_spec("new") is not None


def test_wraps_once(tmp_path, monkeypatch, original):
    monkeypatch.setenv("SPARK_HOME", str(tmp_path))
    monkeypatch.setattr(sys, "version_info", (3, 11, 0))
    skip_spark_archive_rereads()
    wrapped = zipimport.zipimporter.invalidate_caches
    skip_spark_archive_rereads()
    assert wrapped is not original
    assert zipimport.zipimporter.invalidate_caches is wrapped


def test_no_wrap_without_spark_home(monkeypatch, original):
    monkeypatch.delenv("SPARK_HOME", raising=False)
    skip_spark_archive_rereads()
    assert zipimport.zipimporter.invalidate_caches is original


def test_no_wrap_on_python_313(tmp_path, monkeypatch, original):
    monkeypatch.setenv("SPARK_HOME", str(tmp_path))
    monkeypatch.setattr(sys, "version_info", (3, 13, 0))
    skip_spark_archive_rereads()
    assert zipimport.zipimporter.invalidate_caches is original


@pytest.mark.skipif(sys.version_info >= (3, 13) or not os.environ.get("SPARK_HOME"),
                    reason="no-op on Python >= 3.13 or without SPARK_HOME")
def test_worker_skips_every_archive_on_its_path(spark):
    """Every ``zipimporter`` a live Python worker holds keeps its directory
    across ``invalidate_caches()``: Spark puts no archive on the worker's
    path that lies outside ``$SPARK_HOME``."""

    def _scan(batches):
        skip_spark_archive_rereads()
        for _ in batches:
            pass
        kept: dict[str, bool] = {}
        for imp in list(sys.path_importer_cache.values()):
            if isinstance(imp, zipimport.zipimporter):
                files = imp._files
                imp.invalidate_caches()
                kept[imp.archive] = kept.get(imp.archive, True) and imp._files is files
        yield pd.DataFrame({"archive": list(kept), "kept": list(kept.values())})

    rows = (spark.range(1, numPartitions=1)
            .mapInPandas(_scan, "archive string, kept boolean")
            .collect())
    assert rows
    assert {r["archive"]: r["kept"] for r in rows} == {r["archive"]: True for r in rows}
