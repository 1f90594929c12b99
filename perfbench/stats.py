"""Small statistics helpers shared by the run and the trace."""

from __future__ import annotations

import statistics


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), int(round(q / 100.0 * len(ordered) + 0.5))))
    return ordered[rank - 1]


def tail_ok(n_samples: int, q: float) -> bool:
    """At least ten of ``n_samples`` lie beyond the ``q`` percentile."""
    return n_samples * (1.0 - q / 100.0) >= 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
