"""R-LSH: the paper's ablation baseline — PM-LSH with an R-tree.

Identical projection, partitioning, confidence interval and query
algorithms; only the per-partition index is an STR-bulk-loaded R-tree
instead of a PM-tree (Section 6.1, competitor 4). Comparing it against
PM-LSH isolates the PM-tree's contribution.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.rtree import RTree
from repro.core.pmlsh import NODE_CAPACITY, PMLSH

__all__ = ["RLSH"]


class RLSH(PMLSH):
    """PM-LSH with the per-partition PM-tree swapped for an R-tree."""

    _index_name = "rlsh"

    @staticmethod
    def _tree_factory(*, pivots: np.ndarray, seed: int):
        return lambda P: RTree(P, capacity=NODE_CAPACITY)
