"""Tests for the PM-tree: structural invariants and range-query correctness."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rtree import RTree
from repro.core.pmtree import PMTree, select_pivots


def brute_range(X, q, r):
    d = np.linalg.norm(X - q[None, :], axis=1)
    return set(np.where(d <= r)[0].tolist())


@pytest.fixture(scope="module")
def tree_and_data():
    g = np.random.default_rng(0)
    X = g.standard_normal((1200, 15))
    return PMTree(X, n_pivots=5, capacity=16, seed=0), X


def test_invariants(tree_and_data):
    tree, _ = tree_and_data
    tree.check_invariants()


@pytest.mark.parametrize("r", [0.5, 1.5, 3.0, 5.0, 8.0])
def test_range_query_matches_brute_force(tree_and_data, r):
    tree, X = tree_and_data
    q = np.random.default_rng(int(r * 10)).standard_normal(15)
    rows, dists = tree.range_query(q, r)
    assert set(rows.tolist()) == brute_range(X, q, r)
    np.testing.assert_allclose(dists, np.linalg.norm(X[rows] - q[None, :], axis=1))


def test_range_query_radius_zero_from_member(tree_and_data):
    tree, X = tree_and_data
    rows, dists = tree.range_query(X[17], 0.0)
    assert 17 in rows.tolist()
    assert np.min(dists) == 0.0


def test_range_query_counts_distance_computations(tree_and_data):
    tree, X = tree_and_data
    tree.reset_counters()
    tree.range_query(np.zeros(15), 2.0)
    assert tree.cc > 0
    assert tree.nodes_accessed > 0


def test_small_radius_costs_less_than_large(tree_and_data):
    tree, _ = tree_and_data
    q = np.random.default_rng(4).standard_normal(15)
    tree.reset_counters()
    tree.range_query(q, 0.5)
    small = tree.cc
    tree.reset_counters()
    tree.range_query(q, 10.0)
    large = tree.cc
    assert small < large


@pytest.mark.parametrize("capacity", [4, 16, 64])
def test_capacity_variants_all_correct(capacity):
    g = np.random.default_rng(capacity)
    X = g.standard_normal((400, 8))
    tree = PMTree(X, n_pivots=3, capacity=capacity, seed=1)
    tree.check_invariants()
    q = g.standard_normal(8)
    rows, _ = tree.range_query(q, 2.5)
    assert set(rows.tolist()) == brute_range(X, q, 2.5)


@pytest.mark.parametrize("s", [0, 1, 3, 8])
def test_pivot_count_variants(s):
    g = np.random.default_rng(s)
    X = g.standard_normal((300, 6))
    tree = PMTree(X, n_pivots=s, capacity=8, seed=2)
    tree.check_invariants()
    q = g.standard_normal(6)
    rows, _ = tree.range_query(q, 2.0)
    assert set(rows.tolist()) == brute_range(X, q, 2.0)


def test_external_pivots_used_verbatim():
    g = np.random.default_rng(9)
    X = g.standard_normal((200, 5))
    pv = g.standard_normal((4, 5))
    tree = PMTree(X, capacity=8, pivots=pv, seed=0)
    np.testing.assert_array_equal(tree.pivots, pv)
    tree.check_invariants()
    q = g.standard_normal(5)
    rows, _ = tree.range_query(q, 2.0)
    assert set(rows.tolist()) == brute_range(X, q, 2.0)


def test_duplicate_points_all_returned():
    X = np.tile(np.ones((1, 4)), (50, 1))
    tree = PMTree(X, n_pivots=2, capacity=8, seed=0)
    rows, dists = tree.range_query(np.ones(4), 0.1)
    assert len(rows) == 50
    assert np.all(dists == 0.0)


def test_singleton_dataset():
    X = np.array([[1.0, 2.0, 3.0]])
    tree = PMTree(X, n_pivots=2, capacity=4, seed=0)
    rows, _ = tree.range_query(np.array([1.0, 2.0, 3.1]), 0.2)
    assert rows.tolist() == [0]
    rows, _ = tree.range_query(np.array([9.0, 9.0, 9.0]), 0.2)
    assert rows.tolist() == []


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError):
        PMTree(np.ones(5))


def batch_walk_cases(X):
    """``(Q, r)`` batches over the points ``X``: per-query radii including 0
    and one above the data's diameter, a query with no result, duplicate
    query rows, and zero queries."""
    far = np.full(X.shape[1], 1e3)
    diameter = 2 * np.linalg.norm(X - X.mean(axis=0), axis=1).max()
    Q = np.stack([X[17], X[17], X[3] + 0.1, far, X[5], X[5], X[40] - 0.2])
    r = np.array([0.0, 2.0, 1.5, 1.0, diameter * 1.01, 0.7, 3.0])
    return [(Q, r), (Q[::-1], r[::-1]), (Q[:1], r[:1]), (Q[3:4], r[3:4]),
            (Q[:0], r[:0])]


def assert_batch_is_loop(tree, Q, r):
    """``range_query_batch`` equals a loop of one-query calls: rows in the
    same order, bit-identical distances, summed counters."""
    tree.reset_counters()
    want = [tree.range_query(q, rq) for q, rq in zip(Q, r)]
    counters = tree.cc, tree.nodes_accessed
    tree.reset_counters()
    got = tree.range_query_batch(Q, r)
    assert len(got) == len(want)
    for (rows, dists), (want_rows, want_dists) in zip(got, want):
        assert rows.dtype == want_rows.dtype and dists.dtype == want_dists.dtype
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(dists, want_dists)
    assert (tree.cc, tree.nodes_accessed) == counters
    return got


@pytest.mark.parametrize("s", [5, 0])
def test_range_query_batch_is_a_loop_of_single_queries(tree_and_data, s):
    _, X = tree_and_data
    tree = PMTree(X, n_pivots=s, capacity=16, seed=0)
    for Q, r in batch_walk_cases(X):
        got = assert_batch_is_loop(tree, Q, r)
        for q, rq, (rows, _) in zip(Q, r, got):
            assert set(rows.tolist()) == brute_range(X, q, rq)
    got = tree.range_query_batch(*batch_walk_cases(X)[0])
    assert len(got[3][0]) == 0 and len(got[4][0]) == len(X)


def test_nodes_enumeration_covers_all_leaf_entries(tree_and_data):
    tree, X = tree_and_data
    leaf_total = tree.entries[tree.n_children == 0].sum()
    assert leaf_total == len(X)


def test_pickled_tree_holds_only_arrays_and_scalars(tree_and_data):
    pm, X = tree_and_data
    for tree in (pm, RTree(X, capacity=16)):
        state = vars(pickle.loads(pickle.dumps(tree)))
        assert state
        for name, value in state.items():
            assert isinstance(value, (np.ndarray, int, float, np.number)), name


def test_select_pivots_spread():
    g = np.random.default_rng(1)
    X = g.standard_normal((500, 10))
    pv = select_pivots(X, 5, seed=0)
    assert pv.shape == (5, 10)
    # farthest-first pivots should be pairwise farther apart than random picks
    dmin_pv = min(
        np.linalg.norm(pv[i] - pv[j]) for i in range(5) for j in range(i + 1, 5)
    )
    rnd = X[g.choice(500, 5, replace=False)]
    dmin_rnd = min(
        np.linalg.norm(rnd[i] - rnd[j]) for i in range(5) for j in range(i + 1, 5)
    )
    assert dmin_pv >= dmin_rnd * 0.8


def test_select_pivots_empty_and_zero():
    assert len(select_pivots(np.zeros((0, 3)), 2)) == 0
    assert len(select_pivots(np.ones((5, 3)), 0)) == 0


@given(
    n=st.integers(5, 120),
    dim=st.integers(2, 10),
    r=st.floats(0.1, 6.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_range_query_property(n, dim, r, seed):
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, dim)) * 2
    tree = PMTree(X, n_pivots=3, capacity=8, seed=seed)
    q = g.standard_normal(dim)
    rows, _ = tree.range_query(q, r)
    assert set(rows.tolist()) == brute_range(X, q, r)
