"""Electromigration (EM) lifetime modeling (paper Sec. 3.3).

A conductor's EM-limited life follows a lognormal distribution whose
median comes from Black's equation; an *array* of conductors (the C4 pad
array, a TSV tier) fails when its first member fails, with

    P(t) = 1 - prod_i (1 - F_i(t)),

and the paper's reliability metric is the time at which ``P(t) = 0.5``
("expected EM-damage-free lifetime").
"""

from repro.em.black import (
    C4_CROSS_SECTION,
    TSV_CROSS_SECTION,
    black_median_lifetime,
    median_lifetimes_from_currents,
)
from repro.em.array_mttf import (
    array_failure_cdf,
    expected_em_lifetime,
    lognormal_failure_cdf,
)
from repro.em.montecarlo import MonteCarloLifetime, simulate_array_lifetime

__all__ = [
    "MonteCarloLifetime",
    "simulate_array_lifetime",
    "C4_CROSS_SECTION",
    "TSV_CROSS_SECTION",
    "black_median_lifetime",
    "median_lifetimes_from_currents",
    "array_failure_cdf",
    "expected_em_lifetime",
    "lognormal_failure_cdf",
]
