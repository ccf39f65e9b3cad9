"""Trace analysis: span-tree reassembly and the ``repro trace`` report.

Loads the spans a run flushed (possibly from several worker processes),
stitches them back into one tree via parent ids, and derives the
numbers an engineer profiling a sweep actually wants:

* a flamegraph-style table of **self** vs **total** time per span name,
* the top-N slowest topology groups,
* attribution of retries, escalation-ladder rungs, and contract
  violations to the spans that incurred them,
* per-stage totals (build / factorize / solve / post / contracts)
  recomputed from spans alone — these must agree with the BENCH JSON's
  ``stage_totals`` (the acceptance bar is <1%, by construction they are
  the same measurements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .trace import Span

__all__ = [
    "SpanNode",
    "build_tree",
    "aggregate_by_name",
    "stage_totals_from_spans",
    "slowest_groups",
    "attribution",
    "render_profile",
]

#: Span names that map 1:1 onto BENCH stage timers.
STAGE_SPANS = ("build", "factorize", "solve", "post", "contracts")


@dataclass
class SpanNode:
    """One span plus its reassembled children."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def self_s(self) -> float:
        child_total = sum(c.span.duration_s for c in self.children)
        return max(0.0, self.span.duration_s - child_total)

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def build_tree(spans: Iterable[Span]) -> List[SpanNode]:
    """Reassemble spans into root trees (orphans become roots).

    Works across process boundaries: worker spans carry the parent id
    of the span that was live in the coordinator when the task was
    dispatched, so the forest collapses into one tree per run.
    """
    nodes: Dict[str, SpanNode] = {s.span_id: SpanNode(s) for s in spans}
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.span.parent_id) if node.span.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.span.start_s)
    roots.sort(key=lambda n: n.span.start_s)
    return roots


@dataclass
class NameStats:
    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    errors: int = 0


def aggregate_by_name(spans: Iterable[Span]) -> List[NameStats]:
    """Per-name totals, sorted by self time (the flamegraph table)."""
    stats: Dict[str, NameStats] = {}
    for root in build_tree(spans):
        for node in root.walk():
            span = node.span
            entry = stats.get(span.name)
            if entry is None:
                entry = stats[span.name] = NameStats(span.name)
            entry.count += 1
            entry.total_s += span.duration_s
            entry.self_s += node.self_s
            if span.duration_s > entry.max_s:
                entry.max_s = span.duration_s
            if span.status == "error":
                entry.errors += 1
    return sorted(stats.values(), key=lambda s: s.self_s, reverse=True)


def stage_totals_from_spans(spans: Iterable[Span]) -> Dict[str, float]:
    """Sum stage-span durations; keys follow BENCH ``stage_totals``."""
    totals = {name: 0.0 for name in STAGE_SPANS}
    for span in spans:
        if span.name in totals:
            totals[span.name] += span.duration_s
    return totals


@dataclass
class GroupProfile:
    key: str
    duration_s: float
    n_points: int
    cached: bool
    escalations: Dict[str, int] = field(default_factory=dict)
    escalation_s: Dict[str, float] = field(default_factory=dict)
    contract_violations: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    errors: int = 0


def _group_nodes(roots: List[SpanNode]) -> List[SpanNode]:
    out = []
    for root in roots:
        for node in root.walk():
            if node.span.name == "group":
                out.append(node)
    return out


def slowest_groups(spans: Iterable[Span], top: int = 10) -> List[GroupProfile]:
    """The ``top`` slowest topology groups, with per-group attribution.

    Retries surface naturally: a retried task produces several ``group``
    spans with the same key, so the slowest attempt is profiled and the
    attempt count is reported alongside.
    """
    roots = build_tree(spans)
    by_key: Dict[str, List[SpanNode]] = {}
    for node in _group_nodes(roots):
        key = str(node.span.attributes.get("key", node.span.span_id))
        by_key.setdefault(key, []).append(node)

    profiles: List[GroupProfile] = []
    for key, nodes in by_key.items():
        slowest = max(nodes, key=lambda n: n.span.duration_s)
        profile = GroupProfile(
            key=key,
            duration_s=sum(n.span.duration_s for n in nodes),
            n_points=int(slowest.span.attributes.get("n_points", 0)),
            cached=bool(slowest.span.attributes.get("cached", False)),
            retries=len(nodes) - 1,
        )
        for node in nodes:
            for sub in node.walk():
                span = sub.span
                if span.status == "error":
                    profile.errors += 1
                # A strict solve that raised leaves an error "rung"
                # span; BENCH tallies that point as "failed", not as a
                # climbed rung.
                if span.name == "rung" and span.status == "ok":
                    rung = str(span.attributes.get("rung", "?"))
                    # Batched direct solves emit one span covering many
                    # columns; "count" carries how many.
                    n = int(span.attributes.get("count", 1))
                    profile.escalations[rung] = (
                        profile.escalations.get(rung, 0) + n
                    )
                    profile.escalation_s[rung] = (
                        profile.escalation_s.get(rung, 0.0) + span.duration_s
                    )
                elif span.name == "contracts":
                    for name, count in (
                        span.attributes.get("violations") or {}
                    ).items():
                        profile.contract_violations[name] = (
                            profile.contract_violations.get(name, 0) + int(count)
                        )
        profiles.append(profile)
    profiles.sort(key=lambda p: p.duration_s, reverse=True)
    return profiles[:top]


@dataclass
class Attribution:
    """Run-wide retry / escalation / contract-violation rollup."""

    escalations: Dict[str, int] = field(default_factory=dict)
    escalation_s: Dict[str, float] = field(default_factory=dict)
    contract_violations: Dict[str, int] = field(default_factory=dict)
    contracts_s: float = 0.0
    retries: int = 0
    error_spans: int = 0


def attribution(spans: Iterable[Span]) -> Attribution:
    spans = list(spans)
    out = Attribution()
    group_attempts: Dict[str, int] = {}
    for span in spans:
        if span.status == "error":
            out.error_spans += 1
        if span.name == "rung" and span.status == "ok":
            rung = str(span.attributes.get("rung", "?"))
            n = int(span.attributes.get("count", 1))
            out.escalations[rung] = out.escalations.get(rung, 0) + n
            out.escalation_s[rung] = out.escalation_s.get(rung, 0.0) + span.duration_s
        elif span.name == "contracts":
            out.contracts_s += span.duration_s
            for name, count in (span.attributes.get("violations") or {}).items():
                out.contract_violations[name] = (
                    out.contract_violations.get(name, 0) + int(count)
                )
        elif span.name == "group":
            key = str(span.attributes.get("key", span.span_id))
            group_attempts[key] = group_attempts.get(key, 0) + 1
    out.retries = sum(n - 1 for n in group_attempts.values() if n > 1)
    return out


def _fmt_s(value: float) -> str:
    return f"{value:.6f}" if value < 10 else f"{value:.3f}"


def render_profile(
    spans: Iterable[Span],
    top: int = 10,
    run_fingerprint: Optional[str] = None,
) -> str:
    """The full ``repro trace`` text report."""
    spans = list(spans)
    lines: List[str] = []
    header = f"trace profile: {len(spans)} spans"
    if run_fingerprint:
        header += f" · run {run_fingerprint}"
    lines.append(header)
    if not spans:
        return "\n".join(lines)

    lines.append("")
    lines.append("-- time by span name (self-time descending) --")
    lines.append(
        f"{'name':<16} {'count':>7} {'total_s':>12} {'self_s':>12} "
        f"{'max_s':>12} {'errors':>6}"
    )
    for stat in aggregate_by_name(spans):
        lines.append(
            f"{stat.name:<16} {stat.count:>7} {_fmt_s(stat.total_s):>12} "
            f"{_fmt_s(stat.self_s):>12} {_fmt_s(stat.max_s):>12} {stat.errors:>6}"
        )

    totals = stage_totals_from_spans(spans)
    lines.append("")
    lines.append("-- stage totals from spans (compare BENCH stage_totals) --")
    for name in STAGE_SPANS:
        lines.append(f"{name:<16} {_fmt_s(totals[name]):>12}")

    groups = slowest_groups(spans, top=top)
    if groups:
        lines.append("")
        lines.append(f"-- top {min(top, len(groups))} slowest topology groups --")
        lines.append(
            f"{'group':<44} {'total_s':>12} {'points':>7} {'retries':>7} "
            f"{'escalations':>24}"
        )
        for profile in groups:
            esc = (
                ",".join(
                    f"{k}:{v}" for k, v in sorted(profile.escalations.items())
                )
                or "-"
            )
            key = profile.key if len(profile.key) <= 44 else profile.key[:41] + "..."
            lines.append(
                f"{key:<44} {_fmt_s(profile.duration_s):>12} "
                f"{profile.n_points:>7} {profile.retries:>7} {esc:>24}"
            )

    rollup = attribution(spans)
    lines.append("")
    lines.append("-- attribution --")
    lines.append(f"retried group executions: {rollup.retries}")
    lines.append(f"error spans: {rollup.error_spans}")
    if rollup.escalations:
        esc = ", ".join(
            f"{k}: {v} ({_fmt_s(rollup.escalation_s.get(k, 0.0))}s)"
            for k, v in sorted(rollup.escalations.items())
        )
        lines.append(f"solver rungs: {esc}")
    else:
        lines.append("solver rungs: none recorded")
    if rollup.contract_violations:
        viol = ", ".join(
            f"{k}: {v}" for k, v in sorted(rollup.contract_violations.items())
        )
        lines.append(f"contract violations: {viol}")
    else:
        lines.append("contract violations: none")
    lines.append(f"contract check time: {_fmt_s(rollup.contracts_s)}s")
    return "\n".join(lines)
