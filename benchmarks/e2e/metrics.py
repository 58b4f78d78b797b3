"""Percentiles and summaries shared by the child and parent processes."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, refused unless at least ten samples lie
    beyond it (so a p90 needs 100 samples)."""
    n = len(values)
    beyond = n * (100.0 - p) / 100.0
    if beyond < 10:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond:g} beyond it; need at least 10"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles across runs (``statistics.quantiles``, the
    same rule as the spread quoted in README.md)."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def latency_summary(latencies_s: List[float], smoke: bool = False) -> Dict[str, object]:
    """p50/p90 in ms plus the sample count.  A smoke run is too short
    for a p90; it reports ``None`` there instead of a number the
    percentile rule would refuse."""
    ms = [value * 1000.0 for value in latencies_s]
    out: Dict[str, object] = {"samples": len(ms)}
    for name, p in (("latency_ms_p50", 50), ("latency_ms_p90", 90)):
        try:
            out[name] = percentile(ms, p)
        except ValueError:
            if not smoke:
                raise
            out[name] = None
    return out
