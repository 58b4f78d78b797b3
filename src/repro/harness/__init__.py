"""Fault-tolerance layer for the checking pipeline.

:mod:`repro.harness.watchdog` supplies the low-level resource guards
(absolute deadlines, retry policies, recursion-limit scoping); it has
no dependencies on the rest of the package so the prover can import it
freely.  :mod:`repro.harness.batch` builds the batch engine on top:
many translation units / qualifier files per invocation, each run in an
isolated unit-of-work that downgrades failures to structured verdicts
instead of aborting the whole run.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.harness.watchdog": (
        "Deadline", "DeadlineExceeded", "RetryPolicy", "recursion_guard",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
