"""PM-tree (Skopal et al., DASFAA'05) over the projected space, as flat arrays.

The PM-tree augments the M-tree's hyper-sphere node regions with *hyper
rings*: for a fixed global pivot set ``p_1..p_s``, every node keeps, per
pivot, the min/max distance of the points below it (``e.HR``). A node's
region is the intersection of its ball and its rings, which is what makes
its cost model (paper Eq. 6) beat the R-tree's.

This implementation bulk-loads by recursive ball partitioning with a
fixed node capacity (16 in the paper's cost study), then stores the tree
as NumPy arrays with the nodes in BFS order, so each node's children are
contiguous:

- ``ro`` (N, m) routing objects, ``radius`` (N,) covering radii, ``pd``
  (N,) distances to the parent's routing object (0 at the root), ``hr``
  (N, s, 2) per-pivot [min, max] rings;
- ``first_child``, ``n_children`` (N,): node i's children are nodes
  ``first_child[i] .. first_child[i] + n_children[i] - 1``; a leaf has none;
- ``lo``, ``hi`` (N,): node i's points are ``points[lo[i]:hi[i]]``. The
  points are stored in leaf (DFS) order, so every subtree is one
  contiguous range, and ``perm`` maps them back to the rows of the matrix
  the tree was built on.

It serves the only query PM-LSH needs: ``range(q, r)`` with the pruning
conditions of paper Eq. 5 plus the classic M-tree parent-distance filter,
evaluated level by level over the whole frontier at once. The frontier
holds ``(query, node)`` pairs, so one walk (``range_query_batch``) serves
a batch of queries, each with its own radius; ``range_query`` is its
one-query case. Distance
computations are counted (``CC``) so the empirical cost can be checked
against the analytic cost model of ``repro.costmodel``.

Queries return *row indices* into the point matrix the tree was built on,
so the same structure serves the driver-local path and the per-Spark-
partition path (where that matrix's rows line up with the blob's ids).
A PM-LSH partition summary is the same region one level up: ``region``
builds both, and ``region_touched`` (Eq. 5) plans PM-LSH's probe rounds.
"""
from __future__ import annotations

import numpy as np

__all__ = ["FlatTree", "PMTree", "select_pivots", "region", "region_touched"]


def _dists(X: np.ndarray, q: np.ndarray) -> np.ndarray:
    diff = X - q[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _ro_dists(R: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(R[i] - q)`` (or ``- q[i]`` for a matrix ``q``) for
    every row, bit for bit (one dot per row), so a pruning decision does not
    depend on how many nodes or queries share a level."""
    D = R - q
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])


def _pivot_dists(X: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """(n, s) point-to-pivot distances, each as ``_dists`` computes it."""
    D = (X[:, None, :] - pivots[None, :, :]).reshape(-1, X.shape[1])
    return np.sqrt(np.einsum("ij,ij->i", D, D)).reshape(len(X), len(pivots))


def region(P: np.ndarray, PD: np.ndarray, ro: np.ndarray) -> tuple[float, np.ndarray]:
    """The covering radius of points ``P`` around ``ro`` and the (s, 2)
    per-pivot [min, max] rings of their pivot distances ``PD``."""
    return (float(_dists(P, ro).max()),
            np.stack([PD.min(axis=0), PD.max(axis=0)], axis=1))


def _rings_touched(lo: np.ndarray, hi: np.ndarray, hr: np.ndarray) -> np.ndarray:
    """Whether pivot-distance intervals [lo, hi] meet every ring of hr (..., s, 2)."""
    return ~((lo > hr[..., 1]) | (hi < hr[..., 0])).any(axis=-1)


def region_touched(ro: np.ndarray, radius: float, hr: np.ndarray, Q: np.ndarray,
                   QPD: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Eq. 5 for one region and many queries: whether each ball B(Q[i], r[i]),
    with pivot distances QPD[i], meets the ball (ro, radius) and the rings hr."""
    return ((_ro_dists(Q, ro) <= radius + r)
            & _rings_touched(QPD - r[:, None], QPD + r[:, None], hr))


def _pair_rows(nq: int):
    """``a[qid]``: the rows of per-query array ``a`` for the ``(query, node)``
    pairs of an ``nq``-query walk. With one query every pair is its own, so
    its rows broadcast and nothing is gathered. Rows are gathered with
    ``take`` here and in the walks: it is faster than fancy indexing."""
    return (lambda a, qid: a) if nq == 1 else (lambda a, qid: a.take(qid, axis=0))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(lo[i], hi[i])`` over i."""
    n = hi - lo
    return (lo - n.cumsum() + n).repeat(n) + np.arange(n.sum())


def select_pivots(X: np.ndarray, s: int, *, seed: int = 0) -> np.ndarray:
    """Max-min (farthest-first) pivot selection on a sample of ``X``.

    Greedy farthest-first traversal approximates the paper's goal of
    pivots whose hyper-rings minimize the PM-tree region volume.
    """
    g = np.random.default_rng(seed)
    n = len(X)
    if n == 0 or s <= 0:
        return np.empty((0, X.shape[1] if X.ndim == 2 else 0))
    sample = X[g.choice(n, size=min(n, 2048), replace=False)]
    pivots = [sample[g.integers(len(sample))]]
    dmin = _dists(sample, pivots[0])
    for _ in range(1, min(s, len(sample))):
        far = int(np.argmax(dmin))
        pivots.append(sample[far])
        dmin = np.minimum(dmin, _dists(sample, sample[far]))
    return np.stack(pivots)


def _ball_partition(X: np.ndarray, PD: np.ndarray, capacity: int,
                    rng: np.random.Generator) -> tuple[list[tuple], list[np.ndarray]]:
    """Recursive ball partitioning of ``X``; ``PD`` holds its pivot distances.

    Returns the nodes in preorder as ``(ro, radius, hr, pd, parent, lo,
    size)`` tuples (``parent`` is a preorder index, -1 at the root) and the
    leaves' rows in preorder, whose concatenation is the leaf order that
    ``lo`` and ``size`` index.
    """
    nodes: list[tuple] = []
    leaf_rows: list[np.ndarray] = []
    n_leaf_rows = 0

    def make(rows: np.ndarray, ro: np.ndarray, parent: int, leaf: bool) -> int:
        nonlocal n_leaf_rows
        pd = float(np.linalg.norm(ro - nodes[parent][0])) if parent >= 0 else 0.0
        nodes.append((ro, *region(X[rows], PD[rows], ro), pd, parent,
                      n_leaf_rows, len(rows)))
        if leaf:
            leaf_rows.append(rows)
            n_leaf_rows += len(rows)
        return len(nodes) - 1

    def build(rows: np.ndarray, parent: int) -> None:
        # routing object: the point closest to the group centroid, a cheap
        # medoid that keeps covering radii tight
        pts = X[rows]
        ro = pts[int(np.argmin(_dists(pts, pts.mean(axis=0))))]
        if len(rows) <= capacity:
            make(rows, ro, parent, leaf=True)
            return
        me = make(rows, ro, parent, leaf=False)
        # ball partition into `capacity` groups around sampled seeds
        k = min(capacity, len(rows))
        seeds = pts[rng.choice(len(rows), size=k, replace=False)]
        assign = np.argmin(
            np.linalg.norm(pts[:, None, :] - seeds[None, :, :], axis=2), axis=1
        )
        for j in range(k):
            grp = rows[assign == j]
            if len(grp) == 0:
                continue
            # a group as big as its parent cannot be split further by this
            # seeding — fall back to a leaf chain to guarantee progress
            if len(grp) == len(rows):
                make(grp, ro, me, leaf=True)
            else:
                build(grp, me)

    build(np.arange(len(X)), -1)
    return nodes, leaf_rows


class FlatTree:
    """The array layout the PM-tree and the R-tree share: nodes in BFS order
    with contiguous children, points in leaf order, ``perm`` to input rows;
    and the parts of their batch walks that do not depend on the node region."""

    @property
    def entries(self) -> np.ndarray:
        """Entries per node: children of an inner node, points of a leaf."""
        return np.where(self.n_children > 0, self.n_children, self.hi - self.lo)

    def reset_counters(self) -> None:
        self.cc = 0          # distance computations (paper's CC metric)
        self.nodes_accessed = 0

    def range_query(self, q: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """All row indices with ``||X[i], q|| <= r`` plus their distances:
        the one-query case of the tree's ``range_query_batch``."""
        return self.range_query_batch(np.asarray(q, dtype=np.float64)[None, :], [r])[0]

    def _leaf_points(self, nq: int, qid: np.ndarray, leaves: np.ndarray
                     ) -> list[np.ndarray]:
        """For each of ``nq`` queries, the positions in ``points`` under the
        leaves paired with it, leaves in ``lo`` (DFS) order: one gather per
        query. Counts one distance computation per position."""
        order = np.argsort(self.lo[leaves] + qid * len(self.points))
        lo, hi = self.lo[leaves[order]], self.hi[leaves[order]]
        idx = _ranges(lo, hi)
        self.cc += len(idx)
        if nq == 1:  # nothing to group
            return [idx]
        ends = np.concatenate([[0], np.cumsum(hi - lo)])
        bounds = ends[np.searchsorted(qid[order], np.arange(nq + 1))]
        return [idx[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def _check_layout(self) -> None:
        """Assert BFS-ordered children that tile their parent's points."""
        kids = _ranges(self.first_child, self.first_child + self.n_children)
        assert np.array_equal(kids, np.arange(1, len(self.n_children))), \
            "children not in BFS order"
        for i in np.flatnonzero(self.n_children):
            ch = slice(self.first_child[i], self.first_child[i] + self.n_children[i])
            assert self.lo[ch][0] == self.lo[i] and self.hi[ch][-1] == self.hi[i] \
                and np.array_equal(self.lo[ch][1:], self.hi[ch][:-1]), \
                "children must tile their parent's points"
        assert self.lo[0] == 0 and self.hi[0] == len(self.points)
        assert np.array_equal(np.sort(self.perm), np.arange(len(self.perm))), \
            "tree must cover every point once"


class PMTree(FlatTree):
    """Bulk-loaded PM-tree over an (n, m) point matrix."""

    def __init__(self, X: np.ndarray, *, n_pivots: int = 5, capacity: int = 16,
                 seed: int = 0, pivots: np.ndarray | None = None):
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim != 2:
            raise ValueError("X must be a 2-D point matrix")
        # ``pivots`` may be supplied externally (the distributed index shares
        # one global pivot set across partitions so rings stay comparable).
        self.pivots = (
            np.asarray(pivots, dtype=np.float64)
            if pivots is not None
            else select_pivots(X, n_pivots, seed=seed)
        )
        nodes, leaf_rows = _ball_partition(X, _pivot_dists(X, self.pivots),
                                           int(capacity), np.random.default_rng(seed + 1))
        ro, radius, hr, pd, parent, lo, size = zip(*nodes)
        # preorder -> BFS order: a stable sort by depth keeps every node's
        # children together and in order
        parent = np.array(parent)
        depth = np.zeros(len(nodes), dtype=np.int64)
        for i in range(1, len(nodes)):
            depth[i] = depth[parent[i]] + 1
        order = np.argsort(depth, kind="stable")
        bfs = np.empty_like(order)
        bfs[order] = np.arange(len(order))
        self.ro = np.stack(ro)[order]
        self.radius = np.array(radius)[order]
        self.pd = np.array(pd)[order]
        self.hr = np.stack(hr)[order]
        self.lo = np.array(lo)[order]
        self.hi = self.lo + np.array(size)[order]
        self.n_children = np.bincount(bfs[parent[order[1:]]], minlength=len(order))
        self.first_child = 1 + np.cumsum(self.n_children) - self.n_children
        self.perm = np.concatenate(leaf_rows)
        self.points = X[self.perm]
        self.reset_counters()

    # ---- query -----------------------------------------------------------
    def range_query_batch(self, Q: np.ndarray, r: np.ndarray
                          ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``range_query(Q[i], r[i])`` for every row of ``Q``, in one walk.

        Implements the access condition of paper Eq. 5: a subtree is
        visited only if the query ball intersects the node ball *and*
        every pivot ring. The parent-distance filter
        ``|d(q, parent) - e.pd| > r + e.radius`` prunes without a fresh
        distance computation. The frontier holds ``(query, node)`` pairs,
        so each level's tests are one NumPy call for all queries; every
        distance is computed as in a walk for its query alone. Per query,
        rows come grouped by leaf, leaves in DFS order; ``cc`` and
        ``nodes_accessed`` grow by the sum over the queries.
        """
        Q = np.asarray(Q, dtype=np.float64)
        r = np.asarray(r, dtype=np.float64)
        at = _pair_rows(len(Q))
        QPD = _pivot_dists(Q, self.pivots)
        q_lo, q_hi = QPD - r[:, None], QPD + r[:, None]
        self.cc += len(Q) * (len(self.pivots) + 1)
        d = _ro_dists(Q, self.ro[0])
        qid = np.flatnonzero(d <= self.radius[0] + r)
        node, dist = np.zeros_like(qid), d[qid]
        leaf_q, leaf_n = [qid[:0]], [qid[:0]]
        while len(node):
            self.nodes_accessed += len(node)
            rings = _rings_touched(at(q_lo, qid), at(q_hi, qid),
                                   self.hr.take(node, axis=0))
            qid, node, dist = qid[rings], node[rings], dist[rings]
            n_ch = self.n_children[node]
            leaf = n_ch == 0
            leaf_q.append(qid[leaf])
            leaf_n.append(node[leaf])
            first = self.first_child[node]
            child = _ranges(first, first + n_ch)
            qid = qid.repeat(n_ch)
            # pruned for free via the triangle inequality
            near = (np.abs(dist.repeat(n_ch) - self.pd[child])
                    <= at(r, qid) + self.radius[child])
            qid, child = qid[near], child[near]
            self.cc += len(child)
            d = _ro_dists(self.ro.take(child, axis=0), at(Q, qid))
            inside = d <= self.radius[child] + at(r, qid)
            qid, node, dist = qid[inside], child[inside], d[inside]
        hits = []
        for i, idx in enumerate(self._leaf_points(len(Q), np.concatenate(leaf_q),
                                                  np.concatenate(leaf_n))):
            d = _dists(self.points[idx], Q[i])
            keep = d <= r[i]
            hits.append((self.perm[idx[keep]], d[keep]))
        return hits

    # ---- test hook -------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the layout and radius/ring containment of every node."""
        self._check_layout()
        PD = _pivot_dists(self.points, self.pivots)
        for i in range(len(self.radius)):
            span = slice(self.lo[i], self.hi[i])
            d = _dists(self.points[span], self.ro[i])
            assert np.all(d <= self.radius[i] + 1e-9), "covering radius violated"
            assert np.all(PD[span] >= self.hr[i, :, 0][None, :] - 1e-9), "ring min violated"
            assert np.all(PD[span] <= self.hr[i, :, 1][None, :] + 1e-9), "ring max violated"
            ch = slice(self.first_child[i], self.first_child[i] + self.n_children[i])
            pd = _ro_dists(self.ro[ch], self.ro[i])
            assert np.allclose(self.pd[ch], pd, rtol=0, atol=1e-9), "parent distance"
