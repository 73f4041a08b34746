"""The benchmark's own arithmetic: percentiles, failure accounting, names.

Kept free of any ``repro`` import so that a change to the program under
test can never change how the benchmark counts or summarises.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: Tail percentiles tried from the highest down; a run reports the first
#: one that leaves at least :data:`MIN_BEYOND` samples above it.
TAIL_PERCENTS = (99, 95, 90, 50)
MIN_BEYOND = 10

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def percentile(samples: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile: an actual sample, never an interpolation."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = -(-percent * len(ordered) // 100)  # ceil in integers
    return ordered[min(len(ordered), max(1, rank)) - 1]


def samples_beyond(n: int, percent: int) -> int:
    """How many of ``n`` samples lie above the nearest-rank percentile."""
    return n - min(n, max(1, -(-percent * n // 100)))


def tail_percent(n: int) -> Optional[int]:
    """The highest of :data:`TAIL_PERCENTS` with ten samples beyond it.

    ``p99`` needs at least 1000 samples; with fewer the tail drops to
    ``p95``, ``p90`` or the median, and below 20 samples there is none.
    """
    for percent in TAIL_PERCENTS:
        if samples_beyond(n, percent) >= MIN_BEYOND:
            return percent
    return None


def tail(samples: Sequence[float]) -> Dict[str, float]:
    """The supported tail of a sample: ``{"percent", "value", "n"}``."""
    percent = tail_percent(len(samples))
    if percent is None:
        return {"percent": 0, "value": 0.0, "n": len(samples)}
    return {"percent": percent, "value": percentile(samples, percent), "n": len(samples)}


def median(samples: Iterable[float]) -> float:
    """Median of a non-empty sample (0 for an empty one)."""
    values = list(samples)
    return statistics.median(values) if values else 0.0


def error_rate(outcomes: Sequence[str]) -> float:
    """Failed or refused work over attempted work.

    Each outcome is ``"ok"`` or the reason it failed (``"refused"``,
    ``"timeout"``, ``"http_503"``, ...). Anything but ``"ok"`` counts as
    a failure, so a request turned away before it ran weighs the same as
    one that ran and broke.
    """
    if not outcomes:
        raise ValueError("error rate of zero attempts")
    return sum(1 for o in outcomes if o != "ok") / len(outcomes)


def http_outcome(status: Optional[int], body: Optional[dict]) -> str:
    """Classify one HTTP exchange; ``status`` None means no answer came."""
    if status is None:
        return "timeout"
    if status == 429:
        return "refused"
    if status >= 400:
        return f"http_{status}"
    if not isinstance(body, dict) or body.get("ok") is not True:
        return "not_ok"
    return "ok"


def valid_name(name: str) -> bool:
    """A metric or workload name: letters, digits, ``_``, ``.``, ``-``."""
    return bool(_NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    """A unit: letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``."""
    return bool(_UNIT_RE.match(unit))


def check_metric_names(metrics: Dict[str, dict]) -> List[str]:
    """Every problem with a metrics mapping (empty when it is clean)."""
    problems = []
    for name, entry in metrics.items():
        if not valid_name(name):
            problems.append(f"bad metric name {name!r}")
        if not valid_unit(str(entry.get("unit", ""))):
            problems.append(f"bad unit {entry.get('unit')!r} on {name!r}")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"non-numeric value on {name!r}")
    return problems
