"""Golden equality: every index returns exactly the pinned results.

``tests/golden_audio.npz`` holds the ids, distances and ``last_probed``
counts of PM-LSH, R-LSH, SRS, QALSH, Multi-Probe and LScan on the session
Audio fixture (k=20), plus two ``PMLSH.ball_cover`` answers. It was
generated once and must never be regenerated to make a refactor pass: a
refactor that changes a query answer is a behaviour change.

Generating snippet, run inside a test that requests the ``spark``,
``audio_df``, ``audio_small``, ``audio_exact`` and ``pmlsh_index``
fixtures (the other indexes use the parameters of their fixtures in
``tests/conftest.py``)::

    _, Q = audio_small
    indexes = {
        "pmlsh": pmlsh_index,
        "rlsh": RLSH.build(spark, audio_df, m=15, c=1.5, n_partitions=6,
                           seed=0, beta=0.2809),
        "srs": SRS.build(spark, audio_df, m=15, c=1.5, n_partitions=6, seed=0),
        "qalsh": QALSH.build(spark, audio_df, c=1.5, n_partitions=6, seed=0),
        "multiprobe": MultiProbe.build(spark, audio_df, L=4, m_mp=8,
                                       n_probe=64, n_partitions=6, seed=0),
        "lscan": LScan(spark, audio_df, fraction=0.7, seed=0),
    }
    out = {"default_parallelism": spark.sparkContext.defaultParallelism}
    for name, index in indexes.items():
        res = index.query_batch(Q, k=20)
        out[f"{name}_ids"] = np.stack([ids for ids, _ in res])
        out[f"{name}_dists"] = np.stack([d for _, d in res])
        out[f"{name}_probed"] = np.array(
            [index.last_probed[i] for i in range(len(Q))])
    nn = audio_exact[0][1][0]
    for tag, scale in BALL_COVER_SCALES.items():
        hit = pmlsh_index.ball_cover(Q[0], nn * scale)
        out[f"ball_cover_{tag}"] = np.array(hit if hit else [], dtype=float)
    np.savez("tests/golden_audio.npz", **out)

The session DataFrame is built from a pandas frame sliced into
``defaultParallelism`` pieces and then repartitioned, so which rows share
a Spark partition (and hence the seeded sample behind k-means and F(x))
depends on the core count. The goldens are therefore only comparable
under the ``defaultParallelism`` they were generated with.
"""
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden_audio.npz")
INDEXES = ("pmlsh", "rlsh", "srs", "qalsh", "multiprobe", "lscan")
# the two radii of test_pmlsh's ball-cover tests, as multiples of the NN distance
BALL_COVER_SCALES = {"near": 1.2, "tiny": 1e-4}


@pytest.fixture(scope="module")
def golden(spark):
    g = dict(np.load(GOLDEN))
    made_with = int(g["default_parallelism"])
    if made_with != spark.sparkContext.defaultParallelism:
        pytest.skip(f"goldens pinned at defaultParallelism={made_with}")
    return g


@pytest.fixture(scope="module")
def indexes(pmlsh_index, rlsh_index, srs_index, qalsh_index, mp_index, lscan_index):
    return dict(zip(INDEXES, (pmlsh_index, rlsh_index, srs_index, qalsh_index,
                              mp_index, lscan_index)))


@pytest.mark.parametrize("name", INDEXES)
def test_golden_knn(name, golden, indexes, audio_small):
    _, Q = audio_small
    index = indexes[name]
    res = index.query_batch(Q, k=20)
    for i, (ids, dists) in enumerate(res):
        np.testing.assert_array_equal(ids, golden[f"{name}_ids"][i])
        np.testing.assert_allclose(dists, golden[f"{name}_dists"][i], rtol=1e-12)
    probed = np.array([index.last_probed[i] for i in range(len(Q))])
    np.testing.assert_array_equal(probed, golden[f"{name}_probed"])


@pytest.mark.parametrize("tag", BALL_COVER_SCALES)
def test_golden_ball_cover(tag, golden, pmlsh_index, audio_small, audio_exact):
    _, Q = audio_small
    nn = audio_exact[0][1][0]
    hit = pmlsh_index.ball_cover(Q[0], nn * BALL_COVER_SCALES[tag])
    want = golden[f"ball_cover_{tag}"]
    if len(want) == 0:
        assert hit is None
    else:
        assert hit is not None and hit[0] == int(want[0])
        np.testing.assert_allclose(hit[1], want[1], rtol=1e-12)
