"""Query contract shared by every index: deterministic ties, fail-fast input."""
import numpy as np
import pytest

from repro import datasets
from repro.core.partindex import PartitionedIndex

K = 20
INDEXES = ("pmlsh_index", "rlsh_index", "srs_index", "qalsh_index", "mp_index",
           "lscan_index")


# ---- ties ------------------------------------------------------------------

@pytest.fixture(scope="module")
def duplicated(spark):
    """Audio with points 0..199 duplicated at 1999-i: every query near one
    of them has exactly tied true distances to two ids."""
    X = datasets.generate("Audio", n=2000)
    X[1800:] = X[199::-1]
    df = datasets.to_spark(spark, X, partitions=8).cache()
    df.count()
    yield df, X[:20] + 1e-3
    df.unpersist()


def _build_tied(name, spark, df):
    from repro.baselines.lscan import LScan
    from repro.baselines.multiprobe import MultiProbe
    from repro.baselines.qalsh import QALSH
    from repro.baselines.srs import SRS
    from repro.core.pmlsh import PMLSH

    if name == "pmlsh":
        return PMLSH.build(spark, df, m=15, c=1.5, n_partitions=6, seed=0,
                           beta=0.2809)
    if name == "qalsh":
        return QALSH.build(spark, df, c=1.5, n_partitions=6, seed=0)
    if name == "srs":
        return SRS.build(spark, df, m=15, c=1.5, n_partitions=6, seed=0,
                         early_stop=False)
    if name == "lscan":
        return LScan(spark, df, fraction=0.7, seed=0)
    return MultiProbe.build(spark, df, L=4, m_mp=8, n_probe=64, n_partitions=6,
                            seed=0)


@pytest.mark.parametrize("name", ["pmlsh", "qalsh", "srs", "multiprobe", "lscan"])
def test_ties_break_by_ascending_id(name, spark, duplicated):
    df, Q = duplicated
    index = _build_tied(name, spark, df)
    tied_pairs = 0
    for ids, dists in index.query_batch(Q, k=K):
        tie = dists[1:] == dists[:-1]
        tied_pairs += int(tie.sum())
        assert np.all(ids[1:][tie] > ids[:-1][tie]), (ids, dists)
    assert tied_pairs > 0  # the data really produces ties


# ---- fail fast on the driver ----------------------------------------------

@pytest.fixture
def no_spark_jobs(monkeypatch):
    """Fail the test if a query reaches a Spark pass."""
    def fail(*a, **kw):
        raise AssertionError("a Spark job started before input validation")

    monkeypatch.setattr(PartitionedIndex, "probe", fail)
    monkeypatch.setattr("repro.baselines.lscan.exact_knn_arrays", fail)


def _bad_inputs(Q, n):
    nan, inf = Q.copy(), Q.copy()
    nan[1, 3] = np.nan
    inf[0, 0] = np.inf
    return {"nan": (nan, K), "inf": (inf, K), "k=0": (Q, 0), "k>n": (Q, n + 1)}


@pytest.mark.parametrize("fixture", INDEXES)
@pytest.mark.parametrize("case", ["nan", "inf", "k=0", "k>n"])
def test_query_batch_rejects_bad_input(fixture, case, request, audio_small,
                                       no_spark_jobs):
    index = request.getfixturevalue(fixture)
    n = getattr(index, "n", None) or index.n_sampled
    Q, k = _bad_inputs(audio_small[1], n)[case]
    with pytest.raises(ValueError):
        index.query_batch(Q, k)


def test_ball_cover_rejects_non_finite_query(pmlsh_index, audio_small,
                                             no_spark_jobs):
    q = audio_small[1][0].copy()
    q[5] = np.nan
    with pytest.raises(ValueError):
        pmlsh_index.ball_cover(q, 1.0)


def test_wrong_dimension_still_rejected(request, audio_small, no_spark_jobs):
    for fixture in INDEXES:
        index = request.getfixturevalue(fixture)
        with pytest.raises(ValueError, match="dim"):
            index.query_batch(audio_small[1][:, :-1], K)
