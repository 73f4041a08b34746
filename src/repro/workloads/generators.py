"""Synthetic workload generators.

Each generator returns a :class:`~repro.workloads.traces.PowerTrace` whose
qualitative structure matches the scenario the paper measures on real
hardware. All randomness takes an explicit seed — or a caller-owned
:class:`numpy.random.Generator` via :func:`repro.determinism.resolve_rng`,
so a checkpointable stream can be threaded through — and experiments
reproduce bit-for-bit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro import units
from repro.determinism import SeedLike, resolve_rng
from repro.workloads.traces import PowerTrace, Segment


def constant_trace(power_w: float, duration_s: float) -> PowerTrace:
    """A single constant-power segment."""
    return PowerTrace([Segment(0.0, duration_s, power_w)])


def episodes_trace(
    baseline_w: float,
    duration_s: float,
    episodes: Sequence[Tuple[float, float, float]],
) -> PowerTrace:
    """Baseline power with high-power episodes layered on top.

    Args:
        baseline_w: the always-on draw.
        duration_s: total trace duration.
        episodes: ``(start_s, duration_s, power_w)`` triples; episode power
            *replaces* the baseline during the episode (it is the device's
            total draw, as a power meter would see it).
    """
    events: List[Tuple[float, float, float]] = sorted(episodes)
    segments: List[Segment] = []
    cursor = 0.0
    for start, dur, power in events:
        if start < cursor - 1e-9:
            raise ValueError("episodes must not overlap")
        start = max(start, cursor)
        end = min(start + dur, duration_s)
        if start > cursor:
            segments.append(Segment(cursor, start - cursor, baseline_w))
        if end > start:
            segments.append(Segment(start, end - start, power))
        cursor = end
    if cursor < duration_s:
        segments.append(Segment(cursor, duration_s - cursor, baseline_w))
    return PowerTrace(segments)


def smartwatch_day_trace(
    morning_w: float = 0.062,
    evening_w: float = 0.028,
    checking_w: float = 0.15,
    run_start_h: float = 9.0,
    run_duration_h: float = 1.2,
    run_power_w: float = 0.55,
    day_hours: float = 24.0,
    seed: SeedLike = 7,
) -> PowerTrace:
    """Figure 13's smart-watch day.

    "A typical user who spends the entire day checking messages on his
    smart-watch and goes for a run" — an active morning (notifications,
    glances, message checking every few minutes), one sustained high-power
    GPS episode, and a quiet evening/night where the watch mostly idles.

    The two-level baseline matches how people actually wear watches and is
    what gives Figure 13 its structure: the busy morning is what drains
    the efficient battery under the loss-minimizing policy, and the long
    cheap evening is where the preserved-battery policy's savings turn
    into extra hours.
    """
    rng = resolve_rng(seed)
    duration_s = units.hours_to_seconds(day_hours)
    run_start_s = units.hours_to_seconds(run_start_h)
    run_end_s = min(run_start_s + units.hours_to_seconds(run_duration_h), duration_s)
    episodes: List[Tuple[float, float, float]] = []
    t = 0.0
    while t < duration_s:
        in_morning = t < run_start_s
        gap = float(rng.uniform(180.0, 420.0) if in_morning else rng.uniform(900.0, 2400.0))
        burst = float(rng.uniform(20.0, 60.0))
        start = t + gap
        if start + burst > duration_s:
            break
        # Skip bursts that would overlap the run episode.
        if not (start + burst <= run_start_s or start >= run_end_s):
            t = run_end_s
            continue
        episodes.append((start, burst, checking_w))
        t = start + burst
    if run_power_w > 0.0 and run_end_s > run_start_s:
        episodes.append((run_start_s, run_end_s - run_start_s, run_power_w))
    # Two-level baseline: compose a morning trace (through the run) and an
    # evening trace, then concatenate.
    switch_s = run_end_s
    morning = episodes_trace(morning_w, switch_s, [e for e in sorted(episodes) if e[0] < switch_s])
    if duration_s <= switch_s:
        return morning
    evening_eps = [(s - switch_s, d, p) for s, d, p in sorted(episodes) if s >= switch_s]
    evening = episodes_trace(evening_w, duration_s - switch_s, evening_eps)
    shifted = [Segment(seg.start_s + switch_s, seg.duration_s, seg.power_w) for seg in evening.segments]
    return PowerTrace(list(morning.segments) + shifted)


def two_in_one_workload_trace(mean_power_w: float, duration_s: float, ripple: float = 0.15, segment_s: float = 60.0, seed: SeedLike = 3) -> PowerTrace:
    """A 2-in-1 application workload: steady draw with minute-scale ripple."""
    if not 0.0 <= ripple < 1.0:
        raise ValueError("ripple must be in [0, 1)")
    rng = resolve_rng(seed)
    n = max(1, int(round(duration_s / segment_s)))
    powers = mean_power_w * (1.0 + ripple * rng.uniform(-1.0, 1.0, size=n))
    powers = np.clip(powers, 0.0, None)
    # Rescale so the mean is exactly the requested one.
    if powers.mean() > 0:
        powers *= mean_power_w / powers.mean()
    return PowerTrace.from_powers(powers, duration_s / n)


def random_app_trace(
    duration_s: float,
    idle_w: float,
    active_w: float,
    burst_w: float,
    seed: SeedLike,
    segment_s: float = 30.0,
    p_active: float = 0.45,
    p_burst: float = 0.08,
) -> PowerTrace:
    """A three-state (idle / active / burst) Markov-ish app trace."""
    if not idle_w <= active_w <= burst_w:
        raise ValueError("require idle_w <= active_w <= burst_w")
    rng = resolve_rng(seed)
    n = max(1, int(round(duration_s / segment_s)))
    draws = rng.uniform(size=n)
    powers = np.where(draws < p_burst, burst_w, np.where(draws < p_burst + p_active, active_w, idle_w))
    return PowerTrace.from_powers(powers, duration_s / n)
