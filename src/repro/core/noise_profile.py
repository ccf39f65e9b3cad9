"""Statistical supply-noise profiling under sampled workloads.

The paper evaluates V-S noise at the *average* PARSEC imbalance (0.75%
Vdd penalty at 65%).  This module computes the full noise *distribution*
instead: draw many scheduled operating points from the workload sample
sets, solve the PDN for each (the LU factorisation is shared, so each
sample costs one triangular solve), and report percentiles — the
quantity a margin-setting designer actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config.stackups import ProcessorSpec
from repro.pdn.builder import BasePDN3D
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_positive_int
from repro.workload.sampling import SampleSet


@dataclass(frozen=True)
class NoiseProfile:
    """Distribution of worst-case IR drop over sampled workloads."""

    #: Per-sample max IR drop (fraction of Vdd).
    samples: np.ndarray
    #: Scheduling policy label.
    policy: str

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def worst(self) -> float:
        return float(self.samples.max())

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.samples, q))

    def exceedance_fraction(self, threshold: float) -> float:
        """Fraction of operating points whose noise exceeds ``threshold``."""
        return float(np.mean(self.samples > threshold))


class NoiseProfiler:
    """Monte-Carlo noise profiling of one built PDN.

    Parameters
    ----------
    pdn:
        A built (regular or voltage-stacked) PDN; its factorisation is
        reused for every sampled operating point.
    sample_sets:
        Per-application workload samples (from
        :func:`repro.workload.sampling.sample_suite`).
    """

    def __init__(
        self,
        pdn: BasePDN3D,
        sample_sets: Dict[str, SampleSet],
        processor: Optional[ProcessorSpec] = None,
    ):
        if not sample_sets:
            raise ValueError("sample_sets must be non-empty")
        self.pdn = pdn
        self.samples = sample_sets
        self.processor = processor or pdn.stack.processor
        self._names = sorted(sample_sets)

    # ------------------------------------------------------------------
    def _activities_for(self, apps: Sequence[str], rng) -> np.ndarray:
        activities = []
        for app in apps:
            dynamic = self.samples[app].dynamic_powers
            draw = float(dynamic[rng.integers(len(dynamic))])
            activities.append(draw / self.processor.dynamic_power)
        return np.clip(np.asarray(activities), 0.0, 1.0)

    def profile(
        self,
        policy: str = "mixed",
        trials: int = 100,
        rng: SeedLike = None,
    ) -> NoiseProfile:
        """Sample ``trials`` operating points under a scheduling policy.

        ``policy``: ``"mixed"`` draws an independent application per
        layer; ``"same-app"`` runs one application's instances on every
        layer of the stack (the paper's recommendation).
        """
        if policy not in ("mixed", "same-app"):
            raise ValueError("policy must be 'mixed' or 'same-app'")
        check_positive_int("trials", trials)
        gen = make_rng(rng)
        n_layers = self.pdn.stack.n_layers
        drops = np.empty(trials)
        for k in range(trials):
            if policy == "same-app":
                app = self._names[gen.integers(len(self._names))]
                apps = [app] * n_layers
            else:
                apps = [
                    self._names[gen.integers(len(self._names))]
                    for _ in range(n_layers)
                ]
            activities = self._activities_for(apps, gen)
            result = self.pdn.solve(layer_activities=activities)
            drops[k] = result.max_ir_drop_fraction()
        return NoiseProfile(samples=drops, policy=policy)

    def compare_policies(
        self, trials: int = 100, rng: SeedLike = None
    ) -> Dict[str, NoiseProfile]:
        """Profile both scheduling policies with a shared RNG stream."""
        gen = make_rng(rng)
        return {
            "mixed": self.profile("mixed", trials, gen),
            "same-app": self.profile("same-app", trials, gen),
        }
