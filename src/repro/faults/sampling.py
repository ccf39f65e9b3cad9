"""Failure-set samplers: from EM statistics (or a flat rate) to a plan.

The EM model (:mod:`repro.em`) gives every physical conductor a
lognormal lifetime whose median follows Black's equation from the
current it carries at the solved operating point.  The sampler here
inverts that: pick an operating time ``t``, evaluate each conductor's
failure probability ``F_i(t)`` and draw a *correlated* failure set —
correlated because conductors in high-current regions (lower tiers of a
regular PDN, pads under hot cores) fail together, exactly the weakest-
element physics of paper Sec. 3.3.

Two simpler samplers support the N-k contingency experiment: a uniform
random sampler (every conductor fails i.i.d. with one probability) and
the deterministic :func:`severed_layer_plan` worst case that cuts every
connection of one layer, producing a genuine floating island.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from repro.config.technology import EMParameters, default_em
from repro.em.black import (
    C4_CROSS_SECTION,
    TSV_CROSS_SECTION,
    median_lifetimes_from_currents,
)
from repro.errors import FaultInjectionError
from repro.faults.plan import FaultPlan
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_fraction, check_positive

#: Conductor-group key prefixes the samplers target by default.
DEFAULT_PREFIXES: Tuple[str, ...] = ("tsv", "c4")


def _cross_section_for(key: str) -> float:
    """EM cross-section by conductor-group key prefix."""
    return C4_CROSS_SECTION if key.startswith("c4") else TSV_CROSS_SECTION


def _matching_groups(pdn, prefixes: Sequence[str]):
    items = [
        (key, group)
        for key, group in pdn.conductor_groups.items()
        if any(key.startswith(p) for p in prefixes)
    ]
    if not items:
        raise FaultInjectionError(
            f"no conductor groups match prefixes {tuple(prefixes)!r}; "
            f"available: {sorted(pdn.conductor_groups)}"
        )
    return items


def em_fault_plan(
    result,
    at_time: float,
    em: Optional[EMParameters] = None,
    rng: SeedLike = None,
    prefixes: Sequence[str] = DEFAULT_PREFIXES,
) -> FaultPlan:
    """Draw an EM failure set at operating time ``at_time`` (hours).

    ``result`` is the pre-damage :class:`repro.pdn.results.PDNResult`
    whose branch currents set each conductor's stress.  Every conductor
    of every matching group fails independently with its own lognormal
    probability ``F_i(at_time)``; a conductor whose branch chains
    ``segments`` series segments fails when any segment does.  Apply the
    returned plan to a freshly built PDN of the same design point.
    """
    try:
        check_positive("at_time", at_time)
    except ValueError as exc:
        raise FaultInjectionError(str(exc)) from exc
    em = em or default_em()
    gen = make_rng(rng)
    plan = FaultPlan()
    for key, group in _matching_groups(result, prefixes):
        branch_currents = np.abs(result.solution.resistor_currents(group.tag))
        per_conductor = branch_currents / np.maximum(group.multiplicity, 1)
        medians = median_lifetimes_from_currents(
            per_conductor, _cross_section_for(key), em
        )
        # Vectorised lognormal CDF at time t across per-branch medians.
        p_segment = ndtr((np.log(at_time) - np.log(medians)) / em.sigma)
        # A conductor dies when any of its series segments dies.
        p_conductor = 1.0 - (1.0 - p_segment) ** group.segments
        failures = gen.binomial(group.multiplicity, p_conductor)
        for branch in np.flatnonzero(failures):
            plan.fail_conductors(key, int(branch), int(failures[branch]))
    return plan


def uniform_fault_plan(
    pdn,
    fraction: float,
    rng: SeedLike = None,
    prefixes: Sequence[str] = ("tsv",),
    converter_fraction: float = 0.0,
) -> FaultPlan:
    """Fail a uniform random ``fraction`` of the matching conductors.

    Each physical conductor fails i.i.d. with probability ``fraction``
    (binomial per bundle), which is the N-k contingency sweep's failure
    model.  ``converter_fraction`` additionally kills that fraction of
    SC converter cells on PDNs that have them (ignored otherwise).
    """
    try:
        check_fraction("fraction", fraction)
        check_fraction("converter_fraction", converter_fraction)
    except ValueError as exc:
        raise FaultInjectionError(str(exc)) from exc
    gen = make_rng(rng)
    plan = FaultPlan()
    if fraction > 0:
        for key, group in _matching_groups(pdn, prefixes):
            failures = gen.binomial(group.multiplicity, fraction)
            for branch in np.flatnonzero(failures):
                plan.fail_conductors(key, int(branch), int(failures[branch]))
    conv_mult = getattr(pdn, "converter_multiplicity", None)
    if converter_fraction > 0 and conv_mult is not None:
        from repro.grid.netlist import CONVERTER

        store = pdn.circuit.store(CONVERTER)
        for tag in store.tags:
            indices = store.tag_indices(tag)
            failures = gen.binomial(conv_mult[indices], converter_fraction)
            for branch in np.flatnonzero(failures):
                plan.fail_converters(tag, int(branch), int(failures[branch]))
    return plan


def severed_layer_plan(pdn, layer: Optional[int] = None) -> FaultPlan:
    """Cut every connection of one layer (worst-case N-k contingency).

    Uses the PDN's ``isolation_tags`` hook, so the same call isolates a
    layer of either topology: for the regular PDN both TSV nets of the
    adjacent tier(s) are opened; for the voltage-stacked PDN the rail
    tiers, SC converter banks and their parasitic branches touching the
    layer are all killed.  The result is a genuine floating island the
    resilient solver must detect and prune.
    """
    hook = getattr(pdn, "isolation_tags", None)
    if hook is None:
        raise FaultInjectionError(
            f"{type(pdn).__name__} does not expose an isolation_tags hook"
        )
    tags = hook(layer)
    plan = FaultPlan()
    for tag in tags.get("groups", ()):
        plan.open_group(tag)
    for tag in tags.get("converters", ()):
        plan.open_converter_bank(tag)
    for tag in tags.get("resistors", ()):
        plan.open_resistor_tag(tag)
    return plan
