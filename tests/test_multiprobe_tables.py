"""Spark-free checks of Multi-Probe's flat bucket tables.

``bucket_table`` and ``probe_tables`` are compared with the
dict-of-tuple tables they replaced, kept here as the reference: the same
rows per bucket, and the same ascending candidate rows per query.
"""
import numpy as np
import pytest

from repro.baselines.multiprobe import bucket_table, probe_tables


def _dict_table(B):
    """Reference table: bucket tuple -> the rows in it, ascending."""
    by_key = {}
    for i, row in enumerate(B):
        by_key.setdefault(tuple(row), []).append(i)
    return {kk: np.asarray(rows, dtype=np.int64) for kk, rows in by_key.items()}


def _dict_probe(tables, plans):
    """Reference lookup: per query, the unique rows of every bucket it
    probes in every table; ``plans[qi][t]`` lists query qi's buckets."""
    out = {}
    for qi, per_table in enumerate(plans):
        hits = [tab[bk] for tab, buckets in zip(tables, per_table)
                for bk in buckets if bk in tab]
        if hits:
            out[qi] = np.unique(np.concatenate(hits))
    return out


def _assert_same(Bs, plans):
    """Flat tables and flat probes give the reference's rows per query."""
    m = Bs[0].shape[1]
    probes = [
        (np.array([bk for per_table in plans for bk in per_table[t]],
                  dtype=np.int64).reshape(-1, m),
         np.array([qi for qi, per_table in enumerate(plans)
                   for _ in per_table[t]], dtype=np.int64))
        for t in range(len(Bs))
    ]
    qid, rows = probe_tables([bucket_table(B) for B in Bs], probes, len(Bs[0]))
    assert np.all(np.diff(qid) >= 0)
    want = _dict_probe([_dict_table(B) for B in Bs], plans)
    assert sorted(set(qid.tolist())) == sorted(want)
    for qi, expect in want.items():
        np.testing.assert_array_equal(rows[qid == qi], expect)


def test_bucket_table_matches_dict():
    B = np.random.default_rng(0).integers(-3, 3, size=(200, 4))
    keys, offsets, rows = bucket_table(B)
    ref = _dict_table(B)
    assert len(keys) == len(ref) and offsets[0] == 0 and offsets[-1] == len(B)
    for b, key in enumerate(keys):
        np.testing.assert_array_equal(rows[offsets[b]:offsets[b + 1]],
                                      ref[tuple(key)])
    # keys are distinct and sorted, which searchsorted relies on
    flat = np.ascontiguousarray(keys).view(np.dtype((np.void, 32))).ravel()
    np.testing.assert_array_equal(np.searchsorted(flat, flat), np.arange(len(keys)))


def test_negative_coordinates():
    B = np.array([[-1, -2], [3, -4], [-1, -2], [0, 0], [-5, 7]])
    _assert_same([B], [[[(-1, -2), (-5, 7)]], [[(3, -4), (0, 0)]]])


def test_buckets_in_no_table():
    B = np.array([[1, 2], [3, 4], [1, 2]])
    # (-1, -1) is all 0xff bytes, past every key; (0, 0) before every key
    plans = [[[(-1, -1), (0, 0), (9, 9)]], [[(1, 2), (7, 7)]], [[(2, 1)]]]
    _assert_same([B], plans)


def test_same_bucket_probed_by_two_queries():
    B = np.array([[0, 1], [2, 3], [0, 1], [4, 5]])
    _assert_same([B, B[::-1].copy()], [[[(0, 1)], [(2, 3)]], [[(0, 1)], [(0, 1)]]])


def test_bucket_holding_every_point():
    B = np.full((50, 3), -7)
    keys, offsets, rows = bucket_table(B)
    np.testing.assert_array_equal(keys, [[-7, -7, -7]])
    np.testing.assert_array_equal(offsets, [0, 50])
    np.testing.assert_array_equal(rows, np.arange(50))
    _assert_same([B], [[[(-7, -7, -7)]], [[(-7, -7, 6)]]])


@pytest.mark.parametrize("seed", range(5))
def test_random_worlds(seed):
    g = np.random.default_rng(seed)
    n, m, L, nq = int(g.integers(1, 300)), int(g.integers(1, 6)), 3, 7
    Bs = [g.integers(-2, 2, size=(n, m)) for _ in range(L)]
    plans = [[[tuple(int(v) for v in g.integers(-3, 3, size=m))
               for _ in range(g.integers(1, 12))] for _ in range(L)]
             for _ in range(nq)]
    _assert_same(Bs, plans)
