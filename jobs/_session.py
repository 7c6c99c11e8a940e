"""Shared SparkSession bootstrap for the jobs, perfbench and the test suite.

Every entrypoint builds the same local session: local[*], Arrow enabled,
broadcast joins disabled, and Python-worker traffic over Unix domain
sockets in ``/tmp`` (DESIGN.md "Worker transport").
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from pyspark.sql import SparkSession

# Spark names each socket ``<dir>/.<uuid>.sock``: the directory plus 43
# characters, within AF_UNIX's 107-byte limit wherever the checkout lies.
UDS_DIR = "/tmp"


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.python.unix.domain.socket.enabled", "true")
        .config("spark.python.unix.domain.socket.dir", UDS_DIR)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
