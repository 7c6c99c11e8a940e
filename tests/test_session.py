"""The shared session sends Python-worker traffic over Unix domain sockets
whose paths fit AF_UNIX wherever the checkout lies (DESIGN.md "Worker
transport")."""
import os

# sun_path holds 108 bytes including the terminating NUL.
AF_UNIX_PATH_MAX = 107
# Spark names each socket "<dir>/.<uuid4>.sock": "/." + 36 + ".sock".
SOCK_NAME_LEN = 43


def test_worker_transport_is_unix_domain_socket(spark):
    conf = spark.sparkContext.getConf()
    assert conf.get("spark.python.unix.domain.socket.enabled") == "true"
    # Unset, the directory falls back to java.io.tmpdir, whose length
    # depends on where Spark runs; so it must be set, and short.
    sock_dir = conf.get("spark.python.unix.domain.socket.dir")
    assert sock_dir is not None
    assert len(os.fsencode(sock_dir)) + SOCK_NAME_LEN <= AF_UNIX_PATH_MAX


def test_python_workers_listen_on_the_configured_directory(spark):
    sock_dir = spark.sparkContext.getConf().get("spark.python.unix.domain.socket.dir")
    got = spark.sparkContext.parallelize([0], 1).map(lambda _: (
        os.environ.get("PYTHON_UNIX_DOMAIN_ENABLED", "").lower(),
        os.environ.get("PYTHON_WORKER_FACTORY_SOCK_DIR"),
    )).collect()
    assert got == [("true", sock_dir)]
