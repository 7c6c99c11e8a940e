"""PM-LSH's tunable confidence interval (paper Section 4.3, Eq. 10).

Given ``m`` hash functions and approximation ratio ``c``, choose ``t``
such that::

    t^2 = chi2_{alpha1}(m)            (true positives kept w.p. >= 1 - alpha1)
    t^2 = c^2 * chi2_{1 - alpha2}(m)  (false positives bounded, Lemma 4 E2)

The paper fixes ``alpha1 = 1/e``; ``alpha2`` then follows from the second
equation and ``beta = 2 * alpha2`` (Lemma 5) so that E2 holds with
probability >= 1 - alpha2/beta = 1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from repro.numerics.chi2 import chi2_cdf, chi2_upper_quantile

__all__ = ["ConfidenceInterval"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """Derived PM-LSH query parameters for a given (m, c, alpha1)."""

    m: int
    c: float
    alpha1: float
    t: float
    alpha2: float
    beta: float

    @classmethod
    def derive(cls, m: int = 15, c: float = 1.5,
               alpha1: float = 1.0 / math.e) -> "ConfidenceInterval":
        """Solve Eq. 10 for t and alpha2, then set beta = 2 * alpha2 (Lemma 5).

        ``t^2 = chi2_{alpha1}(m)`` fixes t from the true-positive side;
        ``chi2_{1-alpha2}(m) = t^2 / c^2`` is the point whose upper tail has
        mass 1 - alpha2, so ``alpha2 = CDF(t^2 / c^2; m)``.
        """
        if not (0.0 < alpha1 < 1.0):
            raise ValueError(f"alpha1 must be in (0,1), got {alpha1}")
        if c <= 1.0:
            raise ValueError(f"approximation ratio c must exceed 1, got {c}")
        t2 = chi2_upper_quantile(alpha1, m)
        t = math.sqrt(t2)
        alpha2 = chi2_cdf(t2 / (c * c), m)
        return cls(m=m, c=c, alpha1=alpha1, t=t, alpha2=alpha2, beta=2.0 * alpha2)

    def projected_radius(self, r: float) -> float:
        """The projected-space search radius t*r for original radius r."""
        return self.t * r
