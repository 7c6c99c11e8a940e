"""Tests for the node-based cost model (Eqs. 4-9) behind Table 2."""
import math

import numpy as np
import pytest

from repro.baselines.rtree import RTree
from repro.core.pmtree import PMTree
from repro.costmodel import (
    DistanceDistribution,
    cc_pmtree,
    cc_rtree,
    isochoric_cube_side,
    marginal_cdfs,
    radius_for_fraction,
)


@pytest.fixture(scope="module")
def projected_data():
    """Clustered data in a 15-dim 'projected space' (the Table 2 setting)."""
    g = np.random.default_rng(0)
    centers = g.standard_normal((8, 15)) * 6
    X = centers[g.integers(0, 8, 2000)] + g.standard_normal((2000, 15))
    return X


@pytest.fixture(scope="module")
def F(projected_data):
    return DistanceDistribution(projected_data, n_pairs=60_000, seed=1)


def test_distance_distribution_is_cdf(F):
    xs = np.linspace(0, float(F.sorted[-1]) + 1.0, 100)
    vals = F(xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)
    assert F(-1.0) == 0.0


def test_distance_distribution_quantile_inverts_cdf(F):
    for p in (0.05, 0.3, 0.8):
        assert F(F.quantile(p)) == pytest.approx(p, abs=0.01)


def test_quantile_clipped(F):
    assert F.quantile(-0.5) <= F.quantile(0.0) + 1e-9
    assert F.quantile(1.5) == F.quantile(1.0)


def test_distance_distribution_matches_direct_fraction(projected_data, F):
    g = np.random.default_rng(2)
    q = projected_data[g.integers(len(projected_data))]
    r = F.quantile(0.1)
    frac = float(np.mean(np.linalg.norm(projected_data - q[None, :], axis=1) <= r))
    # homogeneity: a typical viewpoint's local fraction tracks the global F
    assert frac == pytest.approx(0.1, abs=0.08)


@pytest.mark.parametrize("m", [2, 3, 10, 15])
def test_isochoric_cube_has_ball_volume(m):
    rq = 2.0
    l = isochoric_cube_side(rq, m)
    vol_ball = math.pi ** (m / 2) / math.gamma(m / 2 + 1) * rq**m
    assert l**m == pytest.approx(vol_ball, rel=1e-9)


def test_cc_estimates_positive_and_bounded(projected_data, F):
    pm = PMTree(projected_data, n_pivots=5, capacity=16, seed=0)
    rt = RTree(projected_data, capacity=16)
    G = marginal_cdfs(projected_data)
    rq = radius_for_fraction(F, 0.08)
    cc_pm = cc_pmtree(pm, rq, F)
    cc_rt = cc_rtree(rt, rq, G)
    n = len(projected_data)
    assert 0 < cc_pm
    assert 0 < cc_rt
    # total entries over all nodes is ~ n * (1 + 1/cap + ...) < 1.2 n per
    # level count; the model cannot exceed visiting everything
    total_pm = pm.entries.sum()
    total_rt = rt.entries.sum()
    assert cc_pm <= total_pm
    assert cc_rt <= total_rt


def test_pmtree_model_beats_rtree_model(projected_data, F):
    """The paper's Table 2 claim: PM-tree CC < R-tree CC on this workload."""
    pm = PMTree(projected_data, n_pivots=5, capacity=16, seed=0)
    rt = RTree(projected_data, capacity=16)
    G = marginal_cdfs(projected_data)
    rq = radius_for_fraction(F, 0.08)
    assert cc_pmtree(pm, rq, F) < cc_rtree(rt, rq, G)


def test_cc_monotone_in_radius(projected_data, F):
    pm = PMTree(projected_data, n_pivots=5, capacity=16, seed=0)
    r1 = radius_for_fraction(F, 0.02)
    r2 = radius_for_fraction(F, 0.3)
    assert cc_pmtree(pm, r1, F) <= cc_pmtree(pm, r2, F)


def test_model_tracks_empirical_cc_on_homogeneous_data():
    """On i.i.d. Gaussian data (HV -> 1, the model's independence
    assumption holds) the estimated CC matches the measured CC closely —
    on clustered data the model only gives a lower bound, which is why
    the paper restricts it to high-HV datasets (Table 3)."""
    g = np.random.default_rng(5)
    X = g.standard_normal((2000, 15))
    F_blob = DistanceDistribution(X, n_pairs=60_000, seed=1)
    pm = PMTree(X, n_pivots=5, capacity=16, seed=0)
    rq = radius_for_fraction(F_blob, 0.08)
    emp = []
    for _ in range(20):
        q = X[g.integers(len(X))]
        pm.reset_counters()
        pm.range_query(q, rq)
        emp.append(pm.cc)
    model = cc_pmtree(pm, rq, F_blob)
    ratio = model / np.mean(emp)
    assert 0.6 < ratio < 1.6


def test_radius_for_fraction_returns_requested_mass(projected_data, F):
    r = radius_for_fraction(F, 0.08)
    assert F(r) == pytest.approx(0.08, abs=0.01)
