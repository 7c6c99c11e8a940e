"""PM-LSH benchmark: one workload and seed, timed end to end or per layer.

Run from the repository root::

    python3 perfbench/run.py --workload deep-batch --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics (see ``perfbench/README.md``). The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is a JSON report with the environment, the set-up stages,
the samples and, when traced, every span and self-check. The exit code is
non-zero when any operation fails its correctness gate.

Everything runs in one process tree: Spark ``local[*]`` and a single
closed-loop client (the next call starts when the previous one returns).
Index blobs, Spark scratch space and temp files go to a per-run directory
inside the checkout, which is removed on exit, also on failure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from procs import RssSampler, descendants, wait_gone

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_run"
# the program's package and its Spark session set-up, which the benchmark reuses
PROGRAM_FILES = (SRC / "repro" / "__init__.py", ROOT / "jobs" / "_session.py")

DRIVER_MEM = "1g"
K = 50
C = 1.5
RECALL_FLOOR = 0.85  # the Table 4 benchmark's floor for PM-LSH
DATA_PARTITIONS = 8
# Table 4 defaults (repro.experiments.table4.build_algorithm), pinned here so
# a change to that harness cannot silently change the benchmark.
INDEX_PARAMS = dict(m=15, c=C, n_partitions=8, s=5, seed=0, beta=0.2809,
                    sample_size=2048)


@dataclass(frozen=True)
class Workload:
    dataset: str     # stand-in from repro.datasets, at its Table 4 size (sf=0.02)
    batch: int       # queries per operation; 1 means PMLSH.query
    draws: int       # query draws of ``nq_draw`` points each, made per seed
    nq_draw: int

    @property
    def nq(self) -> int:
        return self.draws * self.nq_draw

    @property
    def pass_ops(self) -> int:
        """Operations in one pass over the query set."""
        return self.nq // self.batch


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# deep-batch cycles through four 50-query draws because batch time depends
# on the draw; one draw per run would make the run's median a single draw's.
WORKLOADS = {
    "deep-batch": Workload("Deep", batch=50, draws=4, nq_draw=50),
    "audio-single": Workload("Audio", batch=1, draws=1, nq_draw=100),
}
# Query draw j of seed s uses seed_offset 2*s + 1 + 2*j*DRAW_STRIDE: always odd,
# so never a data draw (2*s). Draw 0 uses the seed_offset of Table 4's
# held-out queries (make_queries), but it draws more than Table 4's 20
# points, so its rows are not Table 4's queries.
DRAW_STRIDE = 100_000


@dataclass
class Outcome:
    """What the operations produced, plus the gate's verdicts."""

    op_s: list[float] = field(default_factory=list)   # timed operations
    answers: dict = field(default_factory=dict)       # qid -> first (ids, dists)
    probed: dict = field(default_factory=dict)        # qid -> verified candidates
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def gate(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{label}: {p}" for p in problems)


# ---- environment ------------------------------------------------------------
def configure_env(run_dir: Path) -> None:
    """Route every file Spark and the program write into ``run_dir``."""
    tmp, local, index = run_dir / "tmp", run_dir / "spark-local", run_dir / "index"
    for d in (tmp, local, index):
        d.mkdir(parents=True)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    # Driver heap, temp dirs and the progress bar must be set before the
    # JVM starts; the session configs come from jobs/_session.get_spark.
    os.environ.update(
        REPRO_INDEX_DIR=str(index),
        SPARK_LOCAL_DIRS=str(local),
        TMPDIR=str(tmp),
        SPARK_LAUNCHER_OPTS=java_opts,
        PYSPARK_PYTHON=sys.executable,
        PYSPARK_DRIVER_PYTHON=sys.executable,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p),
        PYSPARK_SUBMIT_ARGS=" ".join([
            "--driver-memory", DRIVER_MEM,
            "--conf", shlex.quote(f"spark.driver.extraJavaOptions={java_opts}"),
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", shlex.quote(f"spark.sql.warehouse.dir={run_dir / 'warehouse'}"),
            "pyspark-shell",
        ]),
    )
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(SRC), str(ROOT)]


def start_spark():
    from jobs._session import get_spark

    return get_spark("perfbench")


def stop_spark(spark) -> list[int]:
    """Stop Spark, the JVM and its Python workers; wait until all have exited.

    Tolerates a broken JVM connection (e.g. after SIGTERM interrupted a
    call): whatever does not exit is killed. Returns the pids killed.
    """
    from py4j.protocol import Py4JError
    from pyspark import SparkContext

    procs = descendants(os.getpid())
    gateway = SparkContext._gateway
    try:
        if spark is not None:
            spark.stop()
        if gateway is not None:
            gateway.shutdown()
    except Py4JError:
        pass  # the JVM is unreachable; it is stopped below
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    SparkContext._gateway = None
    SparkContext._jvm = None
    return wait_gone(procs, timeout_s=30)


def environment(spark, wl: Workload, args, n: int, d: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "driver_memory": DRIVER_MEM,
        "spark": spark.version,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "master": spark.sparkContext.master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "dataset": wl.dataset,
        "n": n, "d": d, "nq": wl.nq, "batch": wl.batch, "k": K,
        "index": INDEX_PARAMS,
    }


# ---- correctness gate ---------------------------------------------------------
def check_queries(results, truth, answers: dict, qids, *, floor: bool) -> list[str]:
    """Gate one operation's query results.

    Fails on: other than k ascending results, any query's overall ratio
    above c^2, a result that differs from an earlier answer to the same
    query (kept in ``answers``) or, with ``floor``, mean recall below the
    floor.
    """
    from repro.metrics import overall_ratio, recall

    problems, recalls = [], []
    for qi, (ids, dists) in zip(qids, results):
        eid, ed = truth[qi]
        if len(ids) != K or len(dists) != K or np.any(np.diff(dists) < 0):
            problems.append(f"query {qi}: {len(ids)} results, not {K} ascending")
            continue
        ratio = overall_ratio(dists, ed)
        if not ratio <= C * C:
            problems.append(f"query {qi}: overall ratio {ratio:.4f} > c^2")
        recalls.append(recall(ids, eid, dists, ed))
        first = answers.setdefault(qi, (ids, dists))
        if not (np.array_equal(first[0], ids) and np.array_equal(first[1], dists)):
            problems.append(f"query {qi}: differs from an earlier answer")
    if floor and recalls and float(np.mean(recalls)) < RECALL_FLOOR:
        problems.append(f"recall {np.mean(recalls):.4f} < {RECALL_FLOOR}")
    return problems


def dir_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


# ---- timed loop -----------------------------------------------------------------
def timed_ops(op, seconds: float, pass_ops: int, out: Outcome) -> list[float]:
    """Closed loop: call ``op(i)`` back to back, in whole passes of
    ``pass_ops`` calls over the query set, for about ``seconds``.

    The loop runs at least one pass, and stops only between passes, so
    every query counts equally often whatever the program's speed. A new
    pass starts only if, at the median call time so far, at least half of
    it fits in the window, so the loop makes the whole number of passes
    nearest to the window. Returns this loop's call durations.
    """
    times: list[float] = []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        result = op(len(times))
        times.append(time.perf_counter() - t0)
        result()  # gate the answer outside the timed call
        if len(times) % pass_ops == 0 and \
                time.perf_counter() + pass_ops * statistics.median(times) / 2 > t_end:
            break
    out.op_s.extend(times)
    return times


class Bench:
    """One workload on one seed: set-up, timed operations, gates."""

    def __init__(self, wl: Workload, args, spark):
        from repro import datasets

        self.wl, self.args, self.spark = wl, args, spark
        self.n = datasets.scaled_n(datasets.DATASETS[wl.dataset])
        self.d = datasets.DATASETS[wl.dataset].d
        self.out = Outcome()
        self.stages: dict[str, float] = {}

    def _stage(self, name: str, fn):
        t0 = time.perf_counter()
        value = fn()
        self.stages[name] = time.perf_counter() - t0
        return value

    def setup(self) -> None:
        """Data, cache, exact ground truth, index build and one warm-up call."""
        from repro import datasets
        from repro.baselines import exact
        from repro.core.pmlsh import PMLSH

        wl, seed = self.wl, self.args.seed
        X = self._stage("generate", lambda: datasets.generate(
            wl.dataset, n=self.n, seed_offset=2 * seed))
        self.Q = np.concatenate([
            datasets.generate(wl.dataset, n=wl.nq_draw,
                              seed_offset=2 * seed + 1 + 2 * j * DRAW_STRIDE)
            for j in range(wl.draws)])

        def cache():
            df = datasets.to_spark(self.spark, X, partitions=DATA_PARTITIONS).cache()
            df.count()
            return df
        self.df = self._stage("cache", cache)
        self.truth = self._stage(
            "ground_truth", lambda: exact.exact_knn_arrays(self.df, self.Q, K))
        self.index = self._stage(
            "build", lambda: PMLSH.build(self.spark, self.df, **INDEX_PARAMS))
        self.blob_bytes = dir_bytes(self.index.index.index_dir)
        self._stage("warmup", lambda: self.op(0, "warm-up")())

    def op(self, i: int, label: str = "op"):
        """Operation ``i`` cycles through the query set; it runs the timed
        call and returns a closure that gates the answer."""
        wl, out = self.wl, self.out
        first = i * wl.batch % wl.nq
        qids = list(range(first, first + wl.batch))
        if wl.batch == 1:
            results = [self.index.query(self.Q[first], K)]
        else:
            results = self.index.query_batch(self.Q[first:first + wl.batch], K)

        def gate():
            for j, qi in enumerate(qids):
                out.probed.setdefault(qi, self.index.last_probed[j])
            out.gate(f"{label} {i}", check_queries(
                results, self.truth, out.answers, qids, floor=wl.batch > 1))
        return gate

    def ops(self, seconds: float) -> list[float]:
        return timed_ops(self.op, seconds, self.wl.pass_ops, self.out)

    def quality(self) -> dict[str, float]:
        """Eq. 11 and Eq. 12 over every distinct query answered."""
        from repro.metrics import summarize

        qids = sorted(self.out.answers)
        return summarize([self.out.answers[q] for q in qids],
                         [self.truth[q] for q in qids])

    def finish(self) -> None:
        """The single-query workload's recall floor, over its query set:
        like Table 4's floor, it bounds a mean, not one query."""
        got = self.quality()["recall"]
        if self.wl.batch == 1 and got < RECALL_FLOOR:
            self.out.failed += 1
            self.out.failures.append(f"query set: recall {got:.4f} < {RECALL_FLOOR}")

    def end_to_end(self, setup_s: float, peak_rss: int) -> dict[str, tuple[float, str]]:
        o = self.out
        quality = self.quality()
        return {
            "setup_s": (setup_s, "s"),
            "op_ms_p50": (statistics.median(o.op_s) * 1e3, "ms"),
            "op_ms_p90": (float(np.percentile(o.op_s, 90)) * 1e3, "ms"),
            "qps": (len(o.op_s) * self.wl.batch / sum(o.op_s), "1/s"),
            "recall": (quality["recall"], "ratio"),
            "overall_ratio": (quality["overall_ratio"], "ratio"),
            "probed_per_query": (float(np.mean(list(o.probed.values()))), "count"),
            "index_bytes_per_input_byte": (self.blob_bytes / (self.n * self.d * 8), "ratio"),
            "peak_rss_mb": (peak_rss / 2**20, "MB"),
        }


PER_LAYER_UNITS = {
    "pmlsh.query_batch_ms": "ms", "pmlsh.rounds_per_op": "count",
    "pmlsh.probe_round_ms": "ms", "pmlsh.merge_ms": "ms",
    "pmlsh.radius_cap_hits": "count", "pmlsh.build_ms": "ms",
    "pmlsh.sample_collect_ms": "ms",
    "partindex.build_ms": "ms", "partindex.spark_pass_ms": "ms",
    "partindex.rows_collected": "count", "partindex.partitions_probed": "count",
    "partindex.partitions_total": "count", "partindex.blob_load_ms": "ms",
    "partindex.blob_bytes": "bytes",
    "pmtree.range_query_ms": "ms", "pmtree.cc": "count",
    "pmtree.nodes_accessed": "count", "pmtree.rows_per_cc": "ratio",
    "verify.ms": "ms", "verify.candidates": "count",
    "verify.topk_per_candidate": "ratio",
    "projection.query_ms": "ms", "partitioner.kmeans_ms": "ms",
    "costmodel.F_build_ms": "ms", "exact.ground_truth_ms": "ms",
    "trace.overhead_ms": "ms", "trace.replay_rows": "count",
}


def run_untraced(bench: Bench, sampler: RssSampler, t_start: float, report: dict) -> dict:
    bench.setup()
    setup_s = time.perf_counter() - t_start
    bench.ops(bench.args.seconds)
    bench.finish()
    report["stages_s"] = bench.stages
    return bench.end_to_end(setup_s, sampler.peak_bytes)


def run_traced(bench: Bench, report: dict) -> dict:
    """Untraced then traced halves of the window, then one replayed query op."""
    import math

    import tracing

    df_cls = type(bench.spark.range(1))
    setup_tr, op_tr = tracing.Tracer(df_cls), tracing.Tracer(df_cls)
    setup_tr.install()
    try:
        bench.setup()
    finally:
        setup_tr.uninstall()
    half = bench.args.seconds / 2
    plain = bench.ops(half)
    op_tr.install()
    try:
        traced = bench.ops(half)
        bench.finish()
    finally:
        op_tr.uninstall()

    batch = op_tr.named("pmlsh.query_batch")[-1]
    rounds = op_tr.rounds_of(batch)
    paths = {int(r["pid"]): r["path"]
             for r in bench.index.index.meta.select("pid", "path").collect()}
    rep = tracing.replay(bench.index, rounds, paths)
    nq = op_tr.spans[batch].attrs["nq"]
    op_m = tracing.layer_metrics(op_tr, rep, nq=nq, k=K)
    setup_m = tracing.layer_metrics(setup_tr, rep, nq=nq, k=K)
    metrics = {k: v if not math.isnan(v) else setup_m[k] for k, v in op_m.items()}
    metrics["partindex.blob_bytes"] = float(bench.blob_bytes)
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) * 1e3

    collected = [op_tr.spans[r.span].attrs["rows"] for r in rounds]
    spans = {"setup": setup_tr.summary(), "ops": op_tr.summary()}
    calls = {name: sum(s.get(name, {}).get("calls", 0) for s in spans.values())
             for name in tracing.SPAN_NAMES}
    spark_pass = [j for i in op_tr.named("pmlsh.probe_round")
                  for j in op_tr.children(i, "dataframe.toPandas")]
    checks = {
        "spans_without_calls": [n for n, c in calls.items() if c == 0],
        "probe_round_toPandas_calls": len(spark_pass),
        "replay_rows_per_round": rep["rows_per_round"],
        "collected_rows_per_round": collected,
    }
    if checks["spans_without_calls"]:
        bench.out.failures.append(f"spans never called: {checks['spans_without_calls']}")
    if not spark_pass or any(op_tr.spans[j].ms <= 0 for j in spark_pass):
        bench.out.failures.append("no timed toPandas under _probe_round")
    if rep["rows_per_round"] != collected:
        bench.out.failures.append(
            f"replayed rows {rep['rows_per_round']} != collected {collected}")
    nan = [k for k, v in metrics.items() if math.isnan(v)]
    if nan:
        bench.out.failures.append(f"per-layer metrics without a value: {nan}")
    report.update(stages_s=bench.stages, checks=checks,
                  untraced_op_s=plain, traced_op_s=traced,
                  spans=spans,
                  replay={k: v for k, v in rep.items() if k != "rows_per_round"})
    return {k: (metrics[k], u) for k, u in PER_LAYER_UNITS.items()}


def remove_run_dir(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        RUNS_DIR.rmdir()
    except OSError:
        pass  # another run is using it


def _abort(run_dir: Path, signum: int) -> None:
    """SIGTERM: stop the process tree, remove the run directory, exit.

    Done in the handler itself, because an exception raised into a
    blocked py4j call can be swallowed or leave the JVM link hanging.
    """
    signal.signal(signum, signal.SIG_IGN)
    procs = descendants(os.getpid())
    for pid in procs:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    wait_gone(procs, timeout_s=10)
    remove_run_dir(run_dir)
    os._exit(128 + signum)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(f.relative_to(ROOT)) for f in PROGRAM_FILES if not f.is_file()]
    if missing:
        print(f"perfbench: program files not found: {missing}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    run_dir = RUNS_DIR / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    signal.signal(signal.SIGTERM, lambda signum, _: _abort(run_dir, signum))
    configure_env(run_dir)
    wl = WORKLOADS[args.workload]
    sampler = RssSampler().start()
    spark = bench = None
    report: dict = {}
    try:
        spark = start_spark()
        bench = Bench(wl, args, spark)
        report["environment"] = environment(spark, wl, args, bench.n, bench.d)
        metrics = run_traced(bench, report) if args.trace else \
            run_untraced(bench, sampler, t_start, report)
    except Exception:  # noqa: BLE001 - report, clean up, exit non-zero
        traceback.print_exc()
        return 1
    finally:
        sampler.stop()
        try:
            report["killed_after_stop"] = stop_spark(spark)
        finally:
            remove_run_dir(run_dir)
    out = bench.out
    report.update(op_s=out.op_s, failures=out.failures[:20])
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not out.failures else 1


if __name__ == "__main__":
    sys.exit(main())
