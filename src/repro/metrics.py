"""Result-quality metrics from the paper's evaluation (Eqs. 11 and 12).

For a (c,k)-ANN result R = <o_1..o_k> and exact kNNs R* = <o*_1..o*_k>::

    OverallRatio = (1/k) * sum_i ||q, o_i|| / ||q, o*_i||
    Recall       = |R intersect R*| / |R*|

Both take the *distances* (already computed by the algorithms), so ties in
distance do not penalize recall: a returned point at exactly the distance
of the i-th true NN counts as a hit even if its id differs, as long as it
has not already counted as a hit by its own id.
"""
from __future__ import annotations

import numpy as np

__all__ = ["overall_ratio", "recall", "summarize"]


def overall_ratio(result_dists: np.ndarray, exact_dists: np.ndarray) -> float:
    """Mean per-rank distance ratio; clamps 0/0 (exact duplicates) to 1.

    An algorithm may legitimately return fewer than k points (e.g. a
    probing method whose buckets ran dry); the ratio is then computed
    over the returned prefix — standard ANN-benchmark practice — and an
    empty result is NaN (callers average with nanmean). A result *longer*
    than the ground truth is a harness bug and raises.
    """
    got = np.asarray(result_dists, dtype=np.float64)
    ref = np.asarray(exact_dists, dtype=np.float64)
    if got.shape[0] > ref.shape[0]:
        raise ValueError(f"result longer than ground truth: {got.shape} vs {ref.shape}")
    if got.shape[0] == 0:
        return float("nan")
    ref = ref[: got.shape[0]]
    ratios = np.where(ref > 0, got / np.where(ref > 0, ref, 1.0), 1.0)
    return float(np.mean(ratios))


def recall(result_ids: np.ndarray, exact_ids: np.ndarray,
           result_dists: np.ndarray | None = None,
           exact_dists: np.ndarray | None = None) -> float:
    """|R intersect R*| / |R*|, with distance-tie credit when dists given.

    Each returned point credits at most one exact neighbour: its own id,
    or else one exact neighbour left unmatched by id whose distance it ties.
    """
    result_ids = np.asarray(result_ids).ravel()
    exact_ids = np.asarray(exact_ids).ravel()
    by_id = np.isin(exact_ids, result_ids)
    hits = int(by_id.sum())
    if result_dists is not None and exact_dists is not None:
        # returned points not matched by id, each usable for one tie
        free = list(np.asarray(result_dists)[~np.isin(result_ids, exact_ids)])
        for j in np.flatnonzero(~by_id):
            tie = np.flatnonzero(np.isclose(free, exact_dists[j], rtol=1e-9, atol=1e-12))
            if len(tie):
                del free[tie[0]]
                hits += 1
    return hits / len(exact_ids)


def summarize(results: list[tuple[np.ndarray, np.ndarray]],
              exact: list[tuple[np.ndarray, np.ndarray]]) -> dict[str, float]:
    """Average overall ratio and recall over a query batch.

    Each element is ``(ids, dists)`` for one query, ranked ascending.
    """
    if len(results) != len(exact):
        raise ValueError("results and exact must cover the same query batch")
    ratios, recalls = [], []
    for (rid, rd), (eid, ed) in zip(results, exact):
        ratios.append(overall_ratio(rd, ed))
        recalls.append(recall(rid, eid, rd, ed))
    return {
        "overall_ratio": float(np.nanmean(ratios)) if ratios else float("nan"),
        "recall": float(np.mean(recalls)) if recalls else float("nan"),
    }
