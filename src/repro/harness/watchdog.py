"""Resource guards: deadlines, retry policies, recursion scoping.

This module is intentionally dependency-free (standard library only,
nothing from the rest of :mod:`repro`) so the innermost loops — the
prover's E-matching rounds, the Nelson–Oppen core, the soundness
driver — can import it without cycles.

The central object is :class:`Deadline`, an *absolute* wall-clock
budget expressed in ``time.perf_counter()`` coordinates.  Passing a
deadline (rather than a relative timeout) through a call chain means
every layer measures against the same clock: a caller's 45-second
budget is not accidentally re-granted to each callee.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional


class DeadlineExceeded(Exception):
    """Raised by :meth:`Deadline.check` once the budget is spent.

    Long-running loops call ``deadline.check()`` at their head; the
    driver catches this and classifies the unit as ``TIMEOUT`` instead
    of letting it run unboundedly.
    """


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock deadline (``time.perf_counter()`` value).

    ``Deadline(None)`` never expires, so callers can thread one
    parameter unconditionally instead of sprinkling ``if deadline``
    tests through every loop.
    """

    at: Optional[float] = None

    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        """A deadline ``seconds`` from now; ``None`` means unbounded."""
        if seconds is None:
            return cls(None)
        return cls(time.perf_counter() + seconds)

    def expired(self) -> bool:
        return self.at is not None and time.perf_counter() > self.at

    def remaining(self) -> float:
        """Seconds left; ``inf`` when unbounded, clamped at 0.0."""
        if self.at is None:
            return float("inf")
        return max(0.0, self.at - time.perf_counter())

    def check(self, what: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(what or "deadline exceeded")

    def tightened(self, seconds: Optional[float]) -> "Deadline":
        """The earlier of this deadline and ``seconds`` from now."""
        other = Deadline.after(seconds)
        if self.at is None:
            return other
        if other.at is None:
            return self
        return Deadline(min(self.at, other.at))


#: A deadline that never fires — the default for every guarded loop.
NEVER = Deadline(None)


@dataclass(frozen=True)
class RetryPolicy:
    """Escalating-budget retry with exponential backoff.

    Used by the prover driver when a proof attempt returns
    ``GAVE_UP`` ("search budget exhausted"): the attempt is repeated
    with multiplied conflict/round budgets after an exponentially
    growing pause, up to ``max_attempts`` total attempts or until the
    governing deadline expires.  ``TIMEOUT`` results are *not* retried
    — more wall-clock is exactly what a timed-out unit does not have.
    """

    max_attempts: int = 3
    backoff: float = 0.05  # seconds before the 2nd attempt
    backoff_factor: float = 2.0
    budget_factor: float = 2.0  # conflict/round budget multiplier

    def __post_init__(self) -> None:
        # Zero attempts would report TIMEOUT without ever proving.
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def delay_before(self, attempt: int) -> float:
        """Pause before ``attempt`` (1-based; attempt 1 has none)."""
        if attempt <= 1:
            return 0.0
        return self.backoff * (self.backoff_factor ** (attempt - 2))

    def budget_scale(self, attempt: int) -> float:
        """Budget multiplier for ``attempt`` (1-based)."""
        return self.budget_factor ** (attempt - 1)

    def attempts(self, deadline: Deadline = NEVER) -> Iterator[int]:
        """Yield attempt numbers, sleeping the backoff in between and
        stopping early once ``deadline`` cannot fund another pause."""
        for attempt in range(1, self.max_attempts + 1):
            pause = self.delay_before(attempt)
            if pause:
                if deadline.remaining() <= pause:
                    return
                time.sleep(pause)
            yield attempt


#: Retrying disabled: a single attempt, no backoff, no escalation.
NO_RETRY = RetryPolicy(max_attempts=1)


@contextmanager
def recursion_guard(limit: int = 20000):
    """Temporarily raise (never lower) the interpreter recursion limit.

    Deeply nested expressions blow the default 1000-frame limit inside
    the recursive-descent parser and the structural AST walks.  The
    guard gives a unit of work more headroom while keeping a hard
    ceiling, so runaway recursion still surfaces as ``RecursionError``
    — which the batch engine downgrades to a ``CRASH`` verdict —
    rather than a segfault.  The previous limit is restored on exit.
    """
    previous = sys.getrecursionlimit()
    if limit > previous:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)
