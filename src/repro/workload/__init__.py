"""Synthetic PARSEC-like workload power behaviour.

The paper samples one thousand 2k-cycle windows from each PARSEC 2.0
application with Gem5 + McPAT (the statistical-sampling methodology of
VoltSpot/ISCA'14) and reports the resulting power distributions (Fig. 7).
This package substitutes parametric per-application activity
distributions calibrated to the statistics the paper quotes:

* blackscholes' samples span only ~10% maximum imbalance,
* the maximum imbalance across all samples exceeds 90%,
* the *average* per-application maximum imbalance is ~65%.

It also provides the interleaved "high-low" layer-power pattern used as
the stress benchmark of Fig. 6 and the imbalance metrics shared by all
experiments.
"""

from repro.workload.parsec import (
    PARSEC_APPLICATIONS,
    ApplicationProfile,
    average_max_imbalance,
    sample_application_powers,
)
from repro.workload.imbalance import (
    adjacent_imbalances,
    imbalance_ratio,
    interleaved_layer_activities,
    layer_powers_from_activities,
)
from repro.workload.sampling import SampleSet, sample_suite, schedule_stack

__all__ = [
    "PARSEC_APPLICATIONS",
    "ApplicationProfile",
    "average_max_imbalance",
    "sample_application_powers",
    "adjacent_imbalances",
    "imbalance_ratio",
    "interleaved_layer_activities",
    "layer_powers_from_activities",
    "SampleSet",
    "sample_suite",
    "schedule_stack",
]
