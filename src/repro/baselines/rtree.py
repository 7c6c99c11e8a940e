"""R-tree over the projected space (substrate for R-LSH and Table 2), as flat arrays.

Bulk-loaded with Sort-Tile-Recursive (STR), fixed node capacity (16 in
the paper's cost study), then stored like the PM-tree: nodes in BFS
order, so each node's children are contiguous:

- ``mbr_lo``, ``mbr_hi`` (N, m): node i's minimum bounding rectangle;
- ``first_child``, ``n_children`` (N,): node i's children are nodes
  ``first_child[i] .. first_child[i] + n_children[i] - 1``; a leaf has none;
- ``lo``, ``hi`` (N,): node i's points are ``points[lo[i]:hi[i]]``. STR
  puts every leaf at the same depth, so the leaf level in BFS order is the
  DFS leaf order, and every subtree is one contiguous range; ``perm`` maps
  the points back to the rows of the matrix the tree was built on.

It serves ``range_query_batch(Q, r)`` (ball/MBR intersection via
mindist, evaluated level by level over a frontier of ``(query, node)``
pairs at once) and its one-query case ``range_query(q, r)``, used by the
R-LSH baseline (PM-LSH with the PM-tree swapped out) and by the measured
side of the Table 2 cost comparison. Distance computations are counted in
``cc`` with the same accounting as the PM-tree (one unit per point
distance or per node mindist), so the two trees' empirical costs are
comparable.
"""
from __future__ import annotations

import numpy as np

from repro.core.pmtree import FlatTree, _pair_rows, _ranges

__all__ = ["RTree"]


def _mindist2(q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance from ``q`` (or ``q[i]`` for a matrix ``q``) to every
    box ``[lo[i], hi[i]]``, one dot per row, so a pruning decision does not
    depend on how many nodes or queries share a level."""
    d = np.maximum(np.maximum(lo - q, 0.0), q - hi)
    return np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]


def _str_tiles(pts: np.ndarray, cap: int) -> list[np.ndarray]:
    """Sort-Tile-Recursive grouping of the rows of ``pts`` into size<=cap tiles.

    Sort along dimension 0, cut into slabs, recurse on the next dimension
    inside each slab; the final dimension is chunked in sorted order.
    """
    n, m = pts.shape
    if n <= cap:
        return [np.arange(n)]

    def rec(pos: np.ndarray, dim: int) -> list[np.ndarray]:
        order = pos[np.argsort(pts[pos, dim], kind="stable")]
        if len(pos) <= cap or dim >= m - 1:
            return [order[i : i + cap] for i in range(0, len(order), cap)]
        n_tiles = int(np.ceil(len(pos) / cap))
        rem = m - dim
        n_slabs = max(1, int(np.ceil(n_tiles ** (1.0 / rem))))
        slab = int(np.ceil(len(order) / n_slabs))
        if slab >= len(order):  # one slab: avoid infinite recursion
            return rec(order, dim + 1)
        out: list[np.ndarray] = []
        for i in range(0, len(order), slab):
            out.extend(rec(order[i : i + slab], dim + 1))
        return out

    return rec(np.arange(n), 0)


class RTree(FlatTree):
    """STR bulk-loaded R-tree over an (n, m) point matrix."""

    def __init__(self, X: np.ndarray, *, capacity: int = 16):
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim != 2:
            raise ValueError("X must be a 2-D point matrix")
        self.capacity = int(capacity)
        # bottom-up: tile the points into leaves, then tile each level's MBR
        # centres into the level above; a level is (lo, hi, sizes, groups)
        tiles = _str_tiles(X, self.capacity)
        levels = [(np.stack([X[t].min(axis=0) for t in tiles]),
                   np.stack([X[t].max(axis=0) for t in tiles]),
                   np.array([len(t) for t in tiles]), [])]
        while len(levels[-1][0]) > 1:
            lo, hi, sizes, _ = levels[-1]
            groups = _str_tiles((lo + hi) * 0.5, self.capacity)
            levels.append((np.stack([lo[g].min(axis=0) for g in groups]),
                           np.stack([hi[g].max(axis=0) for g in groups]),
                           np.array([sizes[g].sum() for g in groups]), groups))
        # top-down into BFS order: a level's nodes are the concatenated child
        # groups of the level above, and each level tiles all the points
        order = np.zeros(1, dtype=np.intp)
        cols = []
        for lo, hi, sizes, groups in reversed(levels):
            n_ch = np.array([len(groups[i]) for i in order]) if groups else np.zeros_like(order)
            start = np.cumsum(sizes[order]) - sizes[order]
            cols.append((lo[order], hi[order], n_ch, start, start + sizes[order]))
            if groups:
                order = np.concatenate([groups[i] for i in order])
        self.mbr_lo, self.mbr_hi, self.n_children, self.lo, self.hi = (
            np.concatenate(c) for c in zip(*cols))
        self.first_child = 1 + np.cumsum(self.n_children) - self.n_children
        self.perm = np.concatenate([tiles[i] for i in order])
        self.points = X[self.perm]
        self.reset_counters()

    # ---- query -----------------------------------------------------------
    def range_query_batch(self, Q: np.ndarray, r: np.ndarray
                          ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``range_query(Q[i], r[i])`` for every row of ``Q``, in one walk.

        Every ``(query, node)`` pair on the frontier costs one mindist; the
        children of the nodes whose MBR meets the query's ball form the next
        frontier. Per query, rows come grouped by leaf, leaves in DFS order;
        ``cc`` and ``nodes_accessed`` grow by the sum over the queries.
        """
        Q = np.asarray(Q, dtype=np.float64)
        r = np.asarray(r, dtype=np.float64)
        r2 = r * r
        at = _pair_rows(len(Q))
        qid = np.arange(len(Q))
        node = np.zeros_like(qid)
        leaf_q, leaf_n = [qid[:0]], [qid[:0]]
        while len(node):
            self.nodes_accessed += len(node)
            self.cc += len(node)
            keep = (_mindist2(at(Q, qid), self.mbr_lo.take(node, axis=0),
                              self.mbr_hi.take(node, axis=0)) <= at(r2, qid))
            qid, node = qid[keep], node[keep]
            n_ch = self.n_children[node]
            leaf = n_ch == 0
            leaf_q.append(qid[leaf])
            leaf_n.append(node[leaf])
            first = self.first_child[node]
            qid, node = qid.repeat(n_ch), _ranges(first, first + n_ch)
        hits = []
        for i, idx in enumerate(self._leaf_points(len(Q), np.concatenate(leaf_q),
                                                  np.concatenate(leaf_n))):
            diff = self.points[idx] - Q[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            keep = d2 <= r2[i]
            hits.append((self.perm[idx[keep]], np.sqrt(d2[keep])))
        return hits

    # ---- test hook -------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the layout and that every MBR contains its points."""
        self._check_layout()
        for i in range(len(self.n_children)):
            pts = self.points[self.lo[i]:self.hi[i]]
            assert len(pts) and np.all(pts >= self.mbr_lo[i]) \
                and np.all(pts <= self.mbr_hi[i]), "MBR must contain its points"
