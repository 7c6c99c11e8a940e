"""Spark-free checks of the driver merge (``enlarge_radius``) and the
executor-side true-distance verification (``_verified``).

``enlarge_radius`` is driven by a scripted fake probe over a fixed world
of ``qid -> {id: (dist, reach)}``: a point is found once the round's
radius reaches ``reach``. As the probe contract requires, each round
returns every point found so far for each active query. The shuffled
variant returns a round's rows in a seeded random order, as rows from
Spark partitions interleave queries in no fixed order.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.pmlsh import _topk, _verified, enlarge_radius

# query 0 stops on k within c*r in round 2; query 1 stops on the budget in
# round 3 (exactly 5 candidates, none within c*r = 8); ids 11 and 12 tie on
# distance, and so do 23 and 24
WORLD = {
    0: {10: (0.5, 1.0), 11: (3.0, 1.0), 12: (3.0, 2.0), 13: (5.0, 4.0)},
    1: {20: (9.0, 1.0), 21: (8.5, 2.0), 22: (9.5, 2.0), 23: (10.0, 4.0),
        24: (10.0, 4.0), 25: (1.0, 16.0)},
}
K, C, R0, BUDGET = 2, 2.0, 1.0, 5


def _scripted(world, *, shuffled):
    calls = []
    rng = np.random.default_rng(0)

    def probe(radii):
        calls.append(dict(radii))
        rows = [(q, i, d) for q, r in radii.items()
                for i, (d, reach) in world[q].items() if reach <= r]
        if shuffled:
            rows = [rows[j] for j in rng.permutation(len(rows))]
        return pd.DataFrame(rows, columns=["qid", "id", "dist"])

    return probe, calls


def _found(world, q, r):
    return {i: d for i, (d, reach) in world[q].items() if reach <= r}


def _brute_topk(found, k):
    best = sorted(found.items(), key=lambda t: (t[1], t[0]))[:k]
    return (np.array([i for i, _ in best], dtype=np.int64),
            np.array([d for _, d in best], dtype=np.float64))


@pytest.mark.parametrize("shuffled", [False, True])
def test_enlarge_radius_stops_on_k_and_budget(shuffled):
    probe, calls = _scripted(WORLD, shuffled=shuffled)
    results, probed, unfinished = enlarge_radius(2, K, r0=R0, c=C, probe=probe,
                                                 budget=BUDGET, max_rounds=10)
    assert calls == [{0: 1.0, 1: 1.0}, {0: 2.0, 1: 2.0}, {1: 4.0}]
    final_r = {0: 2.0, 1: 4.0}
    for q in (0, 1):
        found = _found(WORLD, q, final_r[q])
        ids, dists = results[q]
        want_ids, want_dists = _brute_topk(found, K)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_dists)
        assert ids.dtype == np.int64 and dists.dtype == np.float64
        assert probed[q] == len(found)
    assert probed == {0: 3, 1: 5}
    assert unfinished == []


@pytest.mark.parametrize("shuffled", [False, True])
def test_enlarge_radius_round_cap_is_best_effort(shuffled):
    probe, calls = _scripted(WORLD, shuffled=shuffled)
    results, probed, unfinished = enlarge_radius(2, K, r0=R0, c=C, probe=probe,
                                                 budget=100, max_rounds=2)
    assert calls == [{0: 1.0, 1: 1.0}, {0: 2.0, 1: 2.0}]
    # query 1 has no point within c*r = 4 when the rounds run out: it is
    # reported unfinished and returns the top-k of what it has
    assert unfinished == [1]
    found = _found(WORLD, 1, 2.0)
    want_ids, want_dists = _brute_topk(found, K)
    np.testing.assert_array_equal(results[1][0], want_ids)
    np.testing.assert_array_equal(results[1][1], want_dists)
    assert probed == {0: 3, 1: len(found)} == {0: 3, 1: 3}


def _reference_loop(nq, k, *, r0, c, probe, budget, max_rounds):
    """Algorithm 2's loop over per-query dicts: the merge as it was written
    before it kept its candidates in arrays. It takes the union of a
    query's rounds, which equals the last round when rounds are supersets."""
    r = {i: r0 for i in range(nq)}
    cand = {i: {} for i in range(nq)}
    active = set(range(nq))
    for _ in range(max_rounds):
        if not active:
            break
        got = probe({i: r[i] for i in sorted(active)})
        for qid, grp in got.groupby("qid"):
            cand[int(qid)].update(zip(grp["id"].astype(int), grp["dist"].astype(float)))
        done = set()
        for i in active:
            close = sum(1 for d in cand[i].values() if d <= c * r[i])
            if close >= k or len(cand[i]) >= budget:
                done.add(i)
            else:
                r[i] *= c
        active -= done
    results = [_brute_topk(C, k) for C in cand.values()]
    return results, {i: len(C) for i, C in cand.items()}, sorted(active)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shuffled", [False, True])
def test_enlarge_radius_equals_dict_loop(seed, shuffled):
    rng = np.random.default_rng(seed)
    nq, k = 7, 5
    world = {q: {int(i): (float(d), float(reach)) for i, d, reach in zip(
                 rng.choice(1000, size=40, replace=False),
                 rng.integers(1, 30, size=40) / 4.0,  # many exact ties
                 1.5 ** rng.integers(0, 8, size=40))}
             for q in range(nq)}
    kw = dict(r0=1.0, c=1.5, budget=18, max_rounds=3)
    probe, calls = _scripted(world, shuffled=shuffled)
    results, probed, unfinished = enlarge_radius(nq, k, probe=probe, **kw)
    probe, ref_calls = _scripted(world, shuffled=shuffled)
    ref_results, ref_probed, ref_unfinished = _reference_loop(nq, k, probe=probe, **kw)
    assert calls == ref_calls
    assert probed == ref_probed
    assert unfinished == ref_unfinished
    for (ids, dists), (ref_ids, ref_dists) in zip(results, ref_results):
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)


def test_enlarge_radius_with_no_candidates():
    probe, calls = _scripted({0: {}}, shuffled=False)
    results, probed, unfinished = enlarge_radius(1, K, r0=R0, c=C, probe=probe,
                                                 budget=BUDGET, max_rounds=3)
    assert calls == [{0: 1.0}, {0: 2.0}, {0: 4.0}]
    ids, dists = results[0]
    assert len(ids) == len(dists) == 0
    assert ids.dtype == np.int64 and dists.dtype == np.float64
    assert probed == {0: 0}
    assert unfinished == [0]


@pytest.mark.parametrize("seed", range(20))
def test_topk_equals_sorted_by_dist_then_id(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 80)), int(rng.integers(1, 40))
    dists = rng.integers(0, 8, size=n).astype(np.float64)  # many exact ties
    ids = rng.permutation(10 * n)[:n].astype(np.int64)
    got_ids, got_dists = _topk(ids, dists, k)
    want_ids, want_dists = _brute_topk(dict(zip(ids.tolist(), dists.tolist())), k)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_dists, want_dists)


# a tuple would index X's dimensions, not its rows, if it were not made an array
@pytest.mark.parametrize("as_rows", [list, tuple, np.array,
                                     lambda r: np.array(r)[::2]])
def test_verified_leaves_matrix_unchanged_and_is_bit_equal(as_rows):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 13))
    q = rng.normal(size=13)
    rows = as_rows([3, 0, 3, 39, 17, 5, 6, 7])
    before = X.copy()
    got = _verified(X, rows, q)
    np.testing.assert_array_equal(X, before)
    diff = X[np.asarray(rows)] - q[None, :]
    assert np.array_equal(got, np.sqrt(np.einsum("ij,ij->i", diff, diff)))
