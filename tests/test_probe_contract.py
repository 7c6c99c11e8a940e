"""The probe contract on the Audio fixture: a probe round returns every
candidate of each active query at its radius, and a round at a larger
radius contains every ``(qid, id)`` pair of a smaller one, with a
bit-equal ``dist``. Algorithm 1 (``ball_cover``) is one such round.
"""
import numpy as np
import pytest

from repro.baselines import qalsh
from repro.core import pmlsh


def _pairs(got, qids=None):
    """``(qid, id) -> dist`` of a candidate frame, for ``qids`` if given."""
    qid, ids, dist = pmlsh._cand_arrays(got)
    return {(q, i): d for q, i, d in zip(qid.tolist(), ids.tolist(), dist.tolist())
            if qids is None or q in qids}


def _assert_nested(small: dict, big: dict):
    assert small.keys() <= big.keys()
    assert all(small[key] == big[key] for key in small)  # bit-equal


@pytest.mark.parametrize("fixture", ["pmlsh_index", "rlsh_index"])
def test_probe_round_at_larger_radius_contains_smaller(fixture, request, audio_small):
    index = request.getfixturevalue(fixture)
    _, Q = audio_small
    QP, QV = dict(enumerate(index.proj.project(Q))), dict(enumerate(Q))
    c, r = index.ci.c, index.r_min(20)
    rounds = [_pairs(index._probe_round(
                  QP, QV, {i: index.ci.projected_radius(r * c ** j) for i in QP}))
              for j in (-1, 0, 1)]
    for small, big in zip(rounds, rounds[1:]):
        assert len(small) < len(big)
        _assert_nested(small, big)


def test_qalsh_rounds_contain_earlier_rounds(qalsh_index, audio_small, monkeypatch):
    rounds = []

    def recording(*args, probe, **kw):
        def probe_and_record(radii):
            got = probe(radii)
            rounds.append((set(radii), got))
            return got
        return pmlsh.enlarge_radius(*args, probe=probe_and_record, **kw)

    monkeypatch.setattr(qalsh, "enlarge_radius", recording)
    _, Q = audio_small
    qalsh_index.query_batch(Q, 20)
    assert len(rounds) >= 2
    for (_, earlier), (active, later) in zip(rounds, rounds[1:]):
        _assert_nested(_pairs(earlier, active), _pairs(later))


def _algorithm1(index, q, r):
    """Algorithm 1 written out over one probe round at ``t * r``: the best
    candidate if it lies within c*r or if there are at least beta*n + 1
    candidates, else None; also which test decided."""
    got = index._probe_round({0: index.proj.project(q)[0]}, {0: q},
                             {0: index.ci.projected_radius(r)})
    _, ids, dist = pmlsh._cand_arrays(got)
    if not len(dist):
        return None, "no candidate"
    best = np.lexsort((ids, dist))[0]
    hit = int(ids[best]), float(dist[best])
    if hit[1] <= index.ci.c * r:
        return hit, "within c*r"
    if len(dist) >= index.beta * index.n + 1:
        return hit, "beta*n + 1"
    return None, "too few"


def test_ball_cover_is_algorithm_1(pmlsh_index, audio_small, audio_exact):
    X, Q = audio_small
    index = pmlsh_index
    c = index.ci.c
    # far from every point in the original space, but projected onto the
    # data's mean: every point is a candidate and none lies within c*r
    A = index.proj.A
    v = np.random.default_rng(12345).standard_normal(A.shape[1])
    v -= A.T @ np.linalg.solve(A @ A.T, A @ v)
    far = X.mean(axis=0) + v * (10 * np.linalg.norm(X - X.mean(axis=0), axis=1).max()
                                / np.linalg.norm(v))
    far_nn = np.linalg.norm(X - far, axis=1).min()
    # a projected radius between the 11th and 12th projected distances
    pdist = np.sort(np.linalg.norm(index.proj.project(X) - index.proj.project(far),
                                   axis=1))
    eleven = (pdist[10] + pdist[11]) / 2 / index.ci.t
    nn = audio_exact[0][1][0]
    cases = [(Q[0], nn * s) for s in (1e-4, 0.9 / c, 1.01 / c, 1.2, 2.0)]
    cases += [(far, r) for r in (far_nn * 0.99 / c, eleven, far_nn * 1e-6)]
    decided = set()
    for q, r in cases:
        want, why = _algorithm1(index, q, r)
        assert index.ball_cover(q, r) == want, why
        decided.add(why)
    assert decided == {"no candidate", "within c*r", "beta*n + 1", "too few"}
