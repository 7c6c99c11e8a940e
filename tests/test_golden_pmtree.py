"""Golden equality: the PM-tree's and the R-tree's range queries and cost
models return exactly the pinned results.

``tests/golden_pmtree.npz`` holds, for Deep and Audio projections (m=15,
s=5 pivots, capacity 16, 2,500 points, 20 held-out queries) at three
radii, every ``range_query`` answer (rows in order, distances), its
``cc`` and ``nodes_accessed``, and the ``cc_pmtree`` model value. The
radii are PM-LSH's first-round projected radius ``t * r_min`` for Table
4's parameters (k=50, beta=0.2809, c=1.5) and 0.5x and 2x that. The file
was generated once, before the tree was stored as flat arrays, and must
never be regenerated to make a change pass. One ``range_query_batch``
over the 20 queries must give the same answers and the summed counters.

Generating snippet::

    t = ConfidenceInterval.derive(m=15, c=1.5, alpha1=1 / math.e).t
    out = {}
    for name in DATASETS:
        P, QP, F_orig, F_proj, tree = _setup(name)
        r_tab4 = t * 0.9 * F_orig.quantile((0.2809 * N + 50) / N)
        for tag, scale in SCALES.items():
            key, r = f"{name}_{tag}", scale * r_tab4
            rows, dists, cc, nodes = [], [], [], []
            for qp in QP:
                tree.reset_counters()
                got_rows, got_dists = tree.range_query(qp, r)
                rows.append(got_rows)
                dists.append(got_dists)
                cc.append(tree.cc)
                nodes.append(tree.nodes_accessed)
            out[f"{key}_radius"] = np.float64(r)
            out[f"{key}_offsets"] = np.cumsum([0] + [len(x) for x in rows])
            out[f"{key}_rows"] = np.concatenate(rows)
            out[f"{key}_dists"] = np.concatenate(dists)
            out[f"{key}_cc"] = np.array(cc)
            out[f"{key}_nodes"] = np.array(nodes)
            out[f"{key}_model"] = np.float64(cc_pmtree(tree, r, F_proj))
    np.savez_compressed("tests/golden_pmtree.npz", **out)

``tests/golden_rtree.npz`` holds the same for the STR R-tree (capacity
16) over the same projections, queries and radii, with ``cc_rtree`` as the
model value. R-LSH ranks through ``(dist, id)`` and Table 2 reads only
counts, so row order is not part of the R-tree's contract: each answer is
stored with its rows sorted ascending. It was generated once, before the
R-tree was stored as flat arrays, and must never be regenerated either.
Generating snippet (same loop as above, with these lines changed)::

    tree, G = RTree(P, capacity=16), marginal_cdfs(P)
    r = float(golden_pmtree[f"{key}_radius"])
    order = np.argsort(got_rows)
    rows.append(got_rows[order])
    dists.append(got_dists[order])
    out[f"{key}_model"] = np.float64(cc_rtree(tree, r, G))
    np.savez_compressed("tests/golden_rtree.npz", **out)
"""
from pathlib import Path

import numpy as np
import pytest

from repro import datasets
from repro.baselines.rtree import RTree
from repro.core.pmtree import PMTree
from repro.core.projection import GaussianProjection
from repro.costmodel import DistanceDistribution, cc_pmtree, cc_rtree, marginal_cdfs

GOLDEN = Path(__file__).with_name("golden_pmtree.npz")
GOLDEN_RTREE = Path(__file__).with_name("golden_rtree.npz")
DATASETS = ("Deep", "Audio")
SCALES = {"half": 0.5, "tab4": 1.0, "double": 2.0}
N = 2500


def _setup(name: str):
    X = datasets.generate(name, n=N)
    proj = GaussianProjection(X.shape[1], 15, seed=0)
    P = proj.project(X)
    QP = proj.project(datasets.make_queries(name, nq=20))
    F_orig = DistanceDistribution(X, n_pairs=100_000, seed=0)
    F_proj = DistanceDistribution(P, n_pairs=75_000, seed=0)
    tree = PMTree(P, n_pivots=5, capacity=16, seed=0)
    return P, QP, F_orig, F_proj, tree


@pytest.fixture(scope="module")
def golden():
    return dict(np.load(GOLDEN))


@pytest.fixture(scope="module")
def golden_rtree():
    return dict(np.load(GOLDEN_RTREE))


@pytest.fixture(scope="module", params=DATASETS)
def case(request):
    return request.param, _setup(request.param)


@pytest.fixture(scope="module")
def rtree_case(case):
    name, (P, QP, _, _, _) = case
    return name, QP, RTree(P, capacity=16), marginal_cdfs(P)


@pytest.mark.parametrize("tag", SCALES)
def test_golden_range_query(case, tag, golden):
    name, (_, QP, _, _, tree) = case
    key = f"{name}_{tag}"
    r = float(golden[f"{key}_radius"])
    off = golden[f"{key}_offsets"]
    for i, qp in enumerate(QP):
        tree.reset_counters()
        rows, dists = tree.range_query(qp, r)
        np.testing.assert_array_equal(rows, golden[f"{key}_rows"][off[i]:off[i + 1]])
        np.testing.assert_array_equal(dists, golden[f"{key}_dists"][off[i]:off[i + 1]])
        assert tree.cc == golden[f"{key}_cc"][i]
        assert tree.nodes_accessed == golden[f"{key}_nodes"][i]


@pytest.mark.parametrize("tag", SCALES)
def test_golden_range_query_batch(case, tag, golden):
    """One walk for all 20 queries gives each query's pinned answer, and the
    counters grow by the pinned per-query sums."""
    name, (_, QP, _, _, tree) = case
    key = f"{name}_{tag}"
    r = float(golden[f"{key}_radius"])
    off = golden[f"{key}_offsets"]
    tree.reset_counters()
    hits = tree.range_query_batch(QP, np.full(len(QP), r))
    assert len(hits) == len(QP)
    for i, (rows, dists) in enumerate(hits):
        np.testing.assert_array_equal(rows, golden[f"{key}_rows"][off[i]:off[i + 1]])
        np.testing.assert_array_equal(dists, golden[f"{key}_dists"][off[i]:off[i + 1]])
    assert tree.cc == golden[f"{key}_cc"].sum()
    assert tree.nodes_accessed == golden[f"{key}_nodes"].sum()


@pytest.mark.parametrize("tag", SCALES)
def test_golden_cost_model(case, tag, golden):
    name, (_, _, _, F_proj, tree) = case
    key = f"{name}_{tag}"
    r = float(golden[f"{key}_radius"])
    np.testing.assert_allclose(cc_pmtree(tree, r, F_proj), golden[f"{key}_model"],
                               rtol=1e-12)


@pytest.mark.parametrize("tag", SCALES)
def test_golden_rtree_range_query(rtree_case, tag, golden_rtree):
    name, QP, tree, _ = rtree_case
    key = f"{name}_{tag}"
    r = float(golden_rtree[f"{key}_radius"])
    off = golden_rtree[f"{key}_offsets"]
    for i, qp in enumerate(QP):
        tree.reset_counters()
        rows, dists = tree.range_query(qp, r)
        order = np.argsort(rows)
        np.testing.assert_array_equal(rows[order],
                                      golden_rtree[f"{key}_rows"][off[i]:off[i + 1]])
        np.testing.assert_array_equal(dists[order],
                                      golden_rtree[f"{key}_dists"][off[i]:off[i + 1]])
        assert tree.cc == golden_rtree[f"{key}_cc"][i]
        assert tree.nodes_accessed == golden_rtree[f"{key}_nodes"][i]


@pytest.mark.parametrize("tag", SCALES)
def test_golden_rtree_range_query_batch(rtree_case, tag, golden_rtree):
    name, QP, tree, _ = rtree_case
    key = f"{name}_{tag}"
    r = float(golden_rtree[f"{key}_radius"])
    off = golden_rtree[f"{key}_offsets"]
    tree.reset_counters()
    hits = tree.range_query_batch(QP, np.full(len(QP), r))
    assert len(hits) == len(QP)
    for i, (rows, dists) in enumerate(hits):
        order = np.argsort(rows)
        np.testing.assert_array_equal(rows[order],
                                      golden_rtree[f"{key}_rows"][off[i]:off[i + 1]])
        np.testing.assert_array_equal(dists[order],
                                      golden_rtree[f"{key}_dists"][off[i]:off[i + 1]])
    assert tree.cc == golden_rtree[f"{key}_cc"].sum()
    assert tree.nodes_accessed == golden_rtree[f"{key}_nodes"].sum()


@pytest.mark.parametrize("tag", SCALES)
def test_golden_rtree_cost_model(rtree_case, tag, golden_rtree):
    name, _, tree, G = rtree_case
    key = f"{name}_{tag}"
    r = float(golden_rtree[f"{key}_radius"])
    np.testing.assert_allclose(cc_rtree(tree, r, G), golden_rtree[f"{key}_model"],
                               rtol=1e-12)
