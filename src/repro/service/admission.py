"""Bounded admission control and per-request deadlines.

The service accepts queries into one bounded queue; solver workers
drain it.  Admission is **load-shedding by construction**: when the
queue is full, :meth:`AdmissionQueue.submit` raises a typed
:class:`repro.errors.ServiceOverloadError` *immediately* (the client
gets a 429-style response with a retry hint) instead of growing an
unbounded backlog that would eventually OOM the server — memory use is
bounded by ``max_queue`` no matter the offered load.

Each admitted query carries a :class:`Deadline`.  Deadlines are
monotonic-clock absolute instants, so they survive queueing: a query
that spent its whole budget waiting is *expired on pop* and answered
with a typed timeout without ever touching the solve backend, and a
query that starts solving on the replica's local workers leases its
miss for at most its **remaining** budget
(:class:`repro.runtime.fleet.Fleet`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import DeadlineExceededError, ServiceOverloadError

__all__ = ["Deadline", "AdmissionQueue"]


@dataclass(frozen=True)
class Deadline:
    """An absolute per-request deadline on the monotonic clock.

    ``None`` budget means "no deadline" (every check passes).
    """

    #: Absolute expiry instant (time.monotonic()); None = unbounded.
    expires_at: Optional[float] = None
    #: The original budget, kept for error messages.
    budget_s: Optional[float] = None

    @classmethod
    def after(cls, budget_s: Optional[float]) -> "Deadline":
        if budget_s is None:
            return cls()
        budget_s = float(budget_s)
        return cls(expires_at=time.monotonic() + budget_s, budget_s=budget_s)

    def remaining_s(self) -> Optional[float]:
        """Seconds left (never negative); None when unbounded."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - time.monotonic())

    def expired(self) -> bool:
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    def check(self, fingerprint: Optional[str] = None) -> None:
        """Raise a typed :class:`DeadlineExceededError` when expired."""
        if self.expired():
            budget = (
                f"{self.budget_s:g}s" if self.budget_s is not None else "?"
            )
            raise DeadlineExceededError(
                f"query{f' {fingerprint}' if fingerprint else ''} exceeded "
                f"its {budget} deadline",
                task=fingerprint,
                timeout_s=self.budget_s,
            )


@dataclass
class _Admitted:
    """One queued query: its work item plus admission bookkeeping."""

    item: Any
    deadline: Deadline
    admitted_at: float = field(default_factory=time.monotonic)


class AdmissionQueue:
    """A bounded asyncio queue that sheds instead of growing.

    ``max_queue`` bounds *waiting* queries (the in-flight solve slots
    are owned by the worker tasks draining this queue).  Counters are
    plain ints read by the service's metrics endpoint.
    """

    #: Retry-hint ramp: first shed suggests ``retry_base_s``, and each
    #: consecutive shed doubles the hint up to ``retry_cap_s``.  Under
    #: sustained overload clients are pushed further and further out
    #: (the hint is monotone non-decreasing while the streak lasts);
    #: one successful admission resets the ramp.
    retry_base_s = 0.5
    retry_cap_s = 30.0

    def __init__(self, max_queue: int = 64):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = int(max_queue)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.max_queue)
        self.admitted = 0
        self.shed = 0
        self.expired_in_queue = 0
        self._shed_streak = 0

    # ------------------------------------------------------------------
    def depth(self) -> int:
        return self._queue.qsize()

    def retry_after_s(self) -> float:
        """The current backoff hint (doubles per consecutive shed)."""
        if self._shed_streak <= 0:
            return self.retry_base_s
        exponent = min(self._shed_streak - 1, 16)  # cap 2**k, not min()
        return min(self.retry_cap_s, self.retry_base_s * (2 ** exponent))

    def submit(self, item: Any, deadline: Deadline) -> None:
        """Admit one query or shed it with a typed overload error."""
        entry = _Admitted(item=item, deadline=deadline)
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            self.shed += 1
            self._shed_streak += 1
            raise ServiceOverloadError(
                f"admission queue full ({self.max_queue} waiting); "
                "query shed — retry with backoff",
                queue_depth=self.max_queue,
                limit=self.max_queue,
                retry_after_s=self.retry_after_s(),
            ) from None
        self.admitted += 1
        self._shed_streak = 0

    async def next(self) -> _Admitted:
        """Wait for the next admitted query (worker side)."""
        return await self._queue.get()

    def task_done(self) -> None:
        self._queue.task_done()

    async def drain(self) -> None:
        """Wait until every admitted query has been fully processed."""
        await self._queue.join()

    def counters(self) -> dict:
        return {
            "depth": self.depth(),
            "limit": self.max_queue,
            "admitted": self.admitted,
            "shed": self.shed,
            "expired_in_queue": self.expired_in_queue,
            "retry_after_s": self.retry_after_s(),
        }
