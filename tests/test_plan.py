"""Partition summaries and the driver's probe-round plan.

A partition summary is a PM-tree node's ball+ring region one level up
(``pmtree.region``), and ``PMLSH._plan`` tests it against every active
query at once (``pmtree.region_touched``). The reference below is the
scalar test and the per-(partition, query) loop the vectorised plan
replaced; the plans must be equal, pair for pair.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import pmlsh
from repro.core.partindex import PartitionedIndex, load_blob

K = 20
FACTORS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0)  # times r_min(K)


def _pruned_reference(summary, qp, qpiv, pradius):
    """True if the query ball B(qp, pradius) cannot touch this partition."""
    if float(np.linalg.norm(qp - summary["ro"])) > summary["radius"] + pradius:
        return True
    hr = summary["hr"]
    if hr.shape[0] and (
        np.any(qpiv - pradius > hr[:, 1]) or np.any(qpiv + pradius < hr[:, 0])
    ):
        return True
    return False


def _plan_reference(index, QP, radii):
    qpiv = {
        qid: np.linalg.norm(index.pivots - QP[qid][None, :], axis=1)
        if len(index.pivots) else np.zeros(0)
        for qid in radii
    }
    plan = {}
    for pid, summ in index.index.summaries.items():
        qids = [qid for qid, pr in radii.items()
                if not _pruned_reference(summ, QP[qid], qpiv[qid], pr)]
        if qids:
            plan[pid] = qids
    return plan


def _queries(index, audio_small):
    """The held-out queries and every 100th data point, projected."""
    X, Q = audio_small
    return dict(enumerate(index.proj.project(np.vstack([Q, X[::100]]))))


def _radii(index, QP, factor):
    """Projected radii around ``factor * r_min``, a little different per query."""
    r = index.r_min(K) * factor
    return {qid: index.ci.projected_radius(r * (1 + 0.01 * (qid % 3))) for qid in QP}


@pytest.mark.parametrize("fixture", ["pmlsh_index", "rlsh_index"])
def test_plan_equals_scalar_reference(fixture, request, audio_small):
    index = request.getfixturevalue(fixture)
    QP = _queries(index, audio_small)
    n_pairs = len(QP) * len(index.index.summaries)
    pruned = []
    for factor in FACTORS:
        radii = _radii(index, QP, factor)
        plan = index._plan(QP, radii)
        assert plan == _plan_reference(index, QP, radii), factor
        assert all(isinstance(qid, int) for qids in plan.values() for qid in qids)
        pruned.append(n_pairs - sum(len(qids) for qids in plan.values()))
    # the sweep covers radii that prune some pairs and radii that prune none
    assert max(pruned) > 0 and min(pruned) == 0, pruned


def test_partition_pruned_is_the_one_pair_case(pmlsh_index, audio_small):
    index = pmlsh_index
    QP = _queries(index, audio_small)
    for factor in FACTORS:
        radii = _radii(index, QP, factor)
        plan = index._plan(QP, radii)
        for pid, summ in index.index.summaries.items():
            for qid, pr in radii.items():
                qpiv = np.linalg.norm(index.pivots - QP[qid][None, :], axis=1)
                assert pmlsh._partition_pruned(summ, QP[qid], qpiv, pr) \
                    == (qid not in plan.get(pid, ())) \
                    == _pruned_reference(summ, QP[qid], qpiv, pr)


def test_probe_round_probes_the_plan(pmlsh_index, audio_small, monkeypatch):
    index = pmlsh_index
    QP = _queries(index, audio_small)
    radii = _radii(index, QP, 0.1)
    probed = []

    class Empty:
        def toPandas(self):
            return pd.DataFrame(columns=["qid", "id", "dist"])

    def record(self, probe_fn, schema, pids=None):
        probed.append(pids)
        return Empty()

    monkeypatch.setattr(PartitionedIndex, "probe", record)
    index._probe_round(QP, {}, radii)
    plan = index._plan(QP, radii)
    assert 0 < len(plan) and probed == [list(plan)]


@pytest.mark.parametrize("fixture", ["pmlsh_index", "rlsh_index"])
def test_partition_summaries_contain_their_points(fixture, request):
    index = request.getfixturevalue(fixture)
    meta = index.index.meta.toPandas()
    assert sorted(meta["pid"]) == sorted(index.index.summaries)
    for pid, path in zip(meta["pid"], meta["path"]):
        summ = index.index.summaries[pid]
        P = load_blob(path)["tree"].points
        assert summ["count"] == len(P)
        assert np.all(np.linalg.norm(P - summ["ro"], axis=1) <= summ["radius"] + 1e-9)
        PD = np.linalg.norm(P[:, None, :] - index.pivots[None], axis=2)
        assert summ["hr"].shape == (len(index.pivots), 2)
        assert np.all(PD >= summ["hr"][:, 0] - 1e-9)
        assert np.all(PD <= summ["hr"][:, 1] + 1e-9)


def test_zero_pivots_give_the_same_answers(spark, audio_df, audio_small, pmlsh_index):
    """Range queries are exact and the ball partition does not read the
    pivots, so without pivots only the plan's ring test is gone."""
    no_rings = pmlsh.PMLSH.build(spark, audio_df, m=15, c=1.5, n_partitions=6,
                                 s=0, seed=0, beta=0.2809)
    assert no_rings.pivots.shape == (0, 15)
    assert all(s["hr"].shape == (0, 2) for s in no_rings.index.summaries.values())
    _, Q = audio_small
    got = no_rings.query_batch(Q, K)
    want = pmlsh_index.query_batch(Q, K)
    for (ids, dists), (wids, wdists) in zip(got, want):
        np.testing.assert_array_equal(ids, wids)
        np.testing.assert_array_equal(dists, wdists)
    assert no_rings.last_probed == pmlsh_index.last_probed
    QP = _queries(no_rings, audio_small)
    radii = _radii(no_rings, QP, 0.25)
    assert no_rings._plan(QP, radii) == _plan_reference(no_rings, QP, radii)
    summ = next(iter(no_rings.index.summaries.values()))
    assert pmlsh._partition_pruned(summ, QP[0], np.zeros(0), radii[0]) \
        == _pruned_reference(summ, QP[0], np.zeros(0), radii[0])
