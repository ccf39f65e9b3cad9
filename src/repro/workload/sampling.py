"""Statistical sampling and stack scheduling of application samples.

Reproduces the methodology of the paper's Sec. 5.2: draw many short
execution samples per application, schedule samples onto the layers of a
3D stack, and measure the resulting adjacent-layer workload imbalance.
The paper's scheduling observation — running instances of the *same*
application in one core stack keeps imbalance near that application's own
(small) spread, while mixing applications exposes the cross-application
spread — is directly reproducible with :func:`schedule_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config.stackups import ProcessorSpec
from repro.errors import ReproError
from repro.utils.rng import SeedLike, make_rng
from repro.workload.imbalance import adjacent_imbalances
from repro.workload.parsec import PARSEC_APPLICATIONS, ApplicationProfile


@dataclass(frozen=True)
class SampleSet:
    """Power samples of one application plus summary statistics."""

    name: str
    powers: np.ndarray  # W, one entry per 2k-cycle sample
    dynamic_powers: np.ndarray  # W, leakage removed

    @property
    def max_imbalance(self) -> float:
        """Largest imbalance any two samples of this app can produce."""
        high = float(self.dynamic_powers.max())
        low = float(self.dynamic_powers.min())
        if high == 0:
            return 0.0
        return (high - low) / high

    def percentiles(self, qs: Sequence[float] = (0, 25, 50, 75, 100)) -> np.ndarray:
        """Power percentiles for box-plot rendering (W)."""
        return np.percentile(self.powers, qs)


def sample_suite(
    processor: ProcessorSpec,
    n_samples: int = 1000,
    rng: SeedLike = None,
    applications: Optional[Dict[str, ApplicationProfile]] = None,
) -> Dict[str, SampleSet]:
    """Draw the full suite's sample sets (paper: 1000 samples/app)."""
    apps = PARSEC_APPLICATIONS if applications is None else applications
    gen = make_rng(rng)
    result: Dict[str, SampleSet] = {}
    for name, profile in apps.items():
        activities = profile.sample_activities(n_samples, gen)
        if not np.all(np.isfinite(activities)):
            raise ReproError(
                f"application {name!r} produced NaN/Inf activity samples"
            )
        dynamic = activities * processor.dynamic_power
        result[name] = SampleSet(
            name=name,
            powers=processor.leakage_power + dynamic,
            dynamic_powers=dynamic,
        )
    return result


def schedule_stack(
    sample_sets: Dict[str, SampleSet],
    layer_apps: Sequence[str],
    rng: SeedLike = None,
) -> np.ndarray:
    """Assign one random sample of ``layer_apps[i]`` to layer ``i``.

    Returns the adjacent-layer imbalance ratios for the resulting stack
    (length ``len(layer_apps) - 1``).  Scheduling the same application on
    every layer reproduces the paper's low-imbalance recommendation.
    """
    if len(layer_apps) < 2:
        raise ValueError("need at least two layers to compute imbalance")
    gen = make_rng(rng)
    dynamics: List[float] = []
    for app in layer_apps:
        if app not in sample_sets:
            raise KeyError(f"no sample set for application {app!r}")
        samples = sample_sets[app].dynamic_powers
        dynamics.append(float(samples[gen.integers(len(samples))]))
    return adjacent_imbalances(dynamics)
