"""Tests for the Table 3 dataset statistics (HV, RC, LID) and the
distributed distance fan-out they rely on."""
import numpy as np
import pandas as pd
import pytest

from repro import datasets
from repro.oracle import assert_equivalent
from repro.stats import (
    dataset_stats,
    homogeneity_of_viewpoints,
    local_intrinsic_dimensionality,
    pairwise_distances_spark,
    relative_contrast,
)


@pytest.fixture(scope="module")
def blob_df(spark):
    g = np.random.default_rng(0)
    X = g.standard_normal((500, 16))
    df = datasets.to_spark(spark, X, partitions=4).cache()
    df.count()
    yield df, X
    df.unpersist()


def test_pairwise_distances_match_numpy(blob_df):
    df, X = blob_df
    Q = X[:3] + 0.5
    got = pairwise_distances_spark(df, Q).toPandas()
    assert len(got) == 3 * len(X)
    for qi in range(3):
        grp = got[got["qid"] == qi].sort_values("id")
        expected = np.linalg.norm(X - Q[qi][None, :], axis=1)
        np.testing.assert_allclose(grp["dist"].to_numpy(), expected, rtol=1e-9)


def test_pairwise_distances_oracle(spark, blob_df):
    """DuckDB list_distance as independent oracle for the Spark fan-out."""
    df, X = blob_df
    Q = X[:2] * 0.9
    spark_out = pairwise_distances_spark(df, Q).selectExpr(
        "qid", "id", "round(dist, 6) as dist"
    )
    vec_pdf = pd.DataFrame(
        {"id": np.arange(len(X), dtype=np.int64), "vec": list(X)}
    )
    q_pdf = pd.DataFrame({"qid": np.arange(2, dtype=np.int64), "qvec": list(Q)})
    assert_equivalent(
        spark_out,
        """
        SELECT q.qid AS qid, v.id AS id,
               round(list_distance(v.vec, q.qvec), 6) AS dist
        FROM vectors v CROSS JOIN queries q
        """,
        vectors=vec_pdf,
        queries=q_pdf,
    )


@pytest.fixture(scope="module")
def grid_df(spark):
    """A shuffled 5x4x3 integer grid. Every distance is exact in floating
    point, so ties are real: a corner's 4th and 5th nearest neighbours
    both lie at sqrt(2)."""
    X = np.stack(np.meshgrid(np.arange(5), np.arange(4), np.arange(3),
                             indexing="ij"), axis=-1).reshape(-1, 3).astype(float)
    X = X[np.random.default_rng(6).permutation(len(X))]
    df = datasets.to_spark(spark, X, partitions=4).cache()
    df.count()
    yield df, X
    df.unpersist()


def _others(X):
    """Each point's distances to every other point, ascending."""
    D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    return np.sort(D[~np.eye(len(X), dtype=bool)].reshape(len(X), -1), axis=1)


def test_lid_matches_numpy_with_tie_at_k_plus_1(grid_df):
    """Every point is a query (n_query = n), and with k = 4 some queries'
    k-th and (k+1)-th neighbours tie."""
    df, X = grid_df
    k = 4
    R = _others(X)
    assert np.any(R[:, k - 1] == R[:, k])
    lids = []
    for r in R[:, :k]:
        denom = np.mean(np.log(r / r[-1])[:-1])
        if denom < 0:
            lids.append(-1.0 / denom)
    got = local_intrinsic_dimensionality(df, n_query=len(X), k=k)
    assert got == pytest.approx(np.mean(lids), rel=1e-12)


def test_rc_matches_numpy(grid_df):
    df, X = grid_df
    R = _others(X)
    got = relative_contrast(df, n_query=len(X))
    assert got == pytest.approx(np.mean(R.mean(axis=1) / R[:, 0]), rel=1e-12)


def test_rc_higher_for_clustered_data(spark):
    g = np.random.default_rng(1)
    blob = datasets.to_spark(spark, g.standard_normal((400, 16)))
    centers = g.standard_normal((10, 16)) * 10
    clustered = datasets.to_spark(
        spark, centers[g.integers(0, 10, 400)] + g.standard_normal((400, 16)) * 0.3
    )
    rc_blob = relative_contrast(blob, n_query=20)
    rc_clustered = relative_contrast(clustered, n_query=20)
    assert rc_clustered > rc_blob
    assert rc_blob > 1.0


@pytest.mark.parametrize("latent", [3, 8])
def test_lid_tracks_latent_dimensionality(spark, latent):
    """LID of data on a latent-dim subspace ~ latent dim (MLE estimator)."""
    g = np.random.default_rng(latent)
    B = g.standard_normal((32, latent))
    X = g.standard_normal((1500, latent)) @ B.T
    df = datasets.to_spark(spark, X)
    lid = local_intrinsic_dimensionality(df, n_query=25, k=80)
    assert lid == pytest.approx(latent, rel=0.5)


def test_hv_in_unit_interval_and_high_for_homogeneous(spark):
    g = np.random.default_rng(3)
    df = datasets.to_spark(spark, g.standard_normal((400, 16)))
    hv = homogeneity_of_viewpoints(df, n_view=15, n_ref=200)
    assert 0.0 <= hv <= 1.0
    assert hv > 0.85  # iid Gaussian: viewpoints all see the same F_o


def test_hv_lower_for_heterogeneous(spark):
    g = np.random.default_rng(4)
    # one tight cluster plus a huge-spread cluster: viewpoint CDFs differ
    a = g.standard_normal((200, 8)) * 0.1
    b = g.standard_normal((200, 8)) * 20 + 100
    df_het = datasets.to_spark(spark, np.vstack([a, b]))
    df_hom = datasets.to_spark(spark, g.standard_normal((400, 8)))
    assert homogeneity_of_viewpoints(df_het, n_view=15, n_ref=200) < \
        homogeneity_of_viewpoints(df_hom, n_view=15, n_ref=200)


def test_dataset_stats_keys(spark):
    g = np.random.default_rng(5)
    df = datasets.to_spark(spark, g.standard_normal((300, 12)))
    out = dataset_stats(
        df,
        hv={"n_view": 10, "n_ref": 100},
        rc={"n_query": 10},
        lid={"n_query": 10, "k": 40},
    )
    assert out["n"] == 300
    assert out["d"] == 12
    assert 0 <= out["hv"] <= 1
    assert out["rc"] > 1
    assert out["lid"] > 0


def test_dataset_stats_rejects_empty_dataframe(spark):
    from repro.core.projection import VECTOR_SCHEMA

    empty = spark.createDataFrame([], schema=VECTOR_SCHEMA)
    with pytest.raises(ValueError, match="non-empty"):
        dataset_stats(empty)
