"""Piecewise-constant power traces.

A :class:`PowerTrace` is the emulator's input: system power draw as a
function of time, stored as contiguous segments. Piecewise-constant is the
right fidelity here — the paper samples real devices at 100 Hz and then
integrates, and every policy decision in the system happens at coarser
timescales than any sub-segment ripple.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro import units


@dataclass(frozen=True)
class Segment:
    """One constant-power stretch of a trace."""

    start_s: float
    duration_s: float
    power_w: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise ValueError("segment duration must be positive")
        if not math.isfinite(self.power_w):
            raise ValueError(f"segment power must be finite, got {self.power_w!r}")
        if self.power_w < 0:
            raise ValueError("power must be non-negative")

    @property
    def end_s(self) -> float:
        """Segment end time, seconds."""
        return self.start_s + self.duration_s

    @property
    def energy_j(self) -> float:
        """Energy consumed over the segment, joules."""
        return self.power_w * self.duration_s


class PowerTrace:
    """An ordered, gap-free sequence of constant-power segments."""

    def __init__(self, segments: Sequence[Segment]):
        segments = list(segments)
        if not segments:
            raise ValueError("a trace needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            if abs(a.end_s - b.start_s) > 1e-9:
                raise ValueError(f"segments must be contiguous: {a.end_s} != {b.start_s}")
        self.segments = segments
        self._starts = [s.start_s for s in segments]

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_powers(cls, powers_w: Sequence[float], segment_s: float, start_s: float = 0.0) -> "PowerTrace":
        """Build a trace from equal-length power samples."""
        if segment_s <= 0:
            raise ValueError("segment length must be positive")
        segments = []
        t = start_s
        for p in powers_w:
            segments.append(Segment(t, segment_s, float(p)))
            t += segment_s
        return cls(segments)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def start_s(self) -> float:
        """Trace start time, seconds."""
        return self.segments[0].start_s

    @property
    def end_s(self) -> float:
        """Trace end time, seconds."""
        return self.segments[-1].end_s

    @property
    def duration_s(self) -> float:
        """Total trace duration, seconds."""
        return self.end_s - self.start_s

    def power_at(self, t: float) -> float:
        """Power draw at time ``t`` (0 outside the trace)."""
        if t < self.start_s or t >= self.end_s:
            return 0.0
        idx = bisect.bisect_right(self._starts, t) - 1
        return self.segments[idx].power_w

    def powers_at(self, times) -> np.ndarray:
        """Vectorized :meth:`power_at`: power draw at each time in ``times``.

        Semantically identical to mapping :meth:`power_at` over the array
        (same ``bisect_right`` segment selection, 0 outside the trace); the
        vectorized emulation engine uses it to materialize a whole run's
        load profile in one call.
        """
        t = np.asarray(times, dtype=float)
        idx = np.searchsorted(self._starts, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.segments) - 1)
        powers = np.array([seg.power_w for seg in self.segments])[idx]
        powers[(t < self.start_s) | (t >= self.end_s)] = 0.0
        return powers

    def total_energy_j(self) -> float:
        """Energy under the whole trace, joules."""
        return sum(seg.energy_j for seg in self.segments)

    def energy_between_j(self, t0: float, t1: float) -> float:
        """Energy consumed in ``[t0, t1)``, joules."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        total = 0.0
        for seg in self.segments:
            lo = max(t0, seg.start_s)
            hi = min(t1, seg.end_s)
            if hi > lo:
                total += seg.power_w * (hi - lo)
        return total

    def peak_power_w(self) -> float:
        """Largest segment power, watts."""
        return max(seg.power_w for seg in self.segments)

    def mean_power_w(self) -> float:
        """Energy-weighted mean power, watts."""
        return self.total_energy_j() / self.duration_s

    def future_energy_above(self, threshold_w: float) -> Callable[[float], float]:
        """A ``t -> joules`` closure of high-power energy remaining after t.

        This is the signal the Oracle policy consumes: how much energy the
        workload will still demand at powers at or above ``threshold_w``.
        """

        def remaining(t: float) -> float:
            total = 0.0
            for seg in self.segments:
                if seg.power_w < threshold_w:
                    continue
                lo = max(t, seg.start_s)
                if lo < seg.end_s:
                    total += seg.power_w * (seg.end_s - lo)
            return total

        return remaining

    def steps(self, dt: float) -> Iterator[Tuple[float, float]]:
        """Yield ``(t, power)`` pairs every ``dt`` seconds across the trace.

        Step boundaries that straddle a segment boundary use the power at
        the step's start — with policy/emulator time steps much shorter
        than segments, the integration error is negligible.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        t = self.start_s
        while t < self.end_s - 1e-9:
            yield t, self.power_at(t)
            t += dt

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #

    def scaled(self, factor: float) -> "PowerTrace":
        """A new trace with every power multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return PowerTrace([Segment(s.start_s, s.duration_s, s.power_w * factor) for s in self.segments])

    def between(self, t0: float, t1: float) -> "PowerTrace":
        """The sub-trace covering ``[t0, t1)``, clipped at the boundaries."""
        t0 = max(t0, self.start_s)
        t1 = min(t1, self.end_s)
        if t1 <= t0:
            raise ValueError("empty slice")
        segments = []
        for seg in self.segments:
            lo = max(t0, seg.start_s)
            hi = min(t1, seg.end_s)
            if hi > lo:
                segments.append(Segment(lo, hi - lo, seg.power_w))
        return PowerTrace(segments)

    def with_overlay(self, other: "PowerTrace") -> "PowerTrace":
        """Pointwise sum of two traces over this trace's span."""
        boundaries = sorted(
            {self.start_s, self.end_s}
            | {s.start_s for s in self.segments}
            | {s.start_s for s in other.segments if self.start_s < s.start_s < self.end_s}
            | {s.end_s for s in other.segments if self.start_s < s.end_s < self.end_s}
        )
        segments = []
        for lo, hi in zip(boundaries, boundaries[1:]):
            mid = 0.5 * (lo + hi)
            segments.append(Segment(lo, hi - lo, self.power_at(mid) + other.power_at(mid)))
        return PowerTrace(segments)

    def hourly_energy_j(self) -> List[float]:
        """Energy per wall-clock hour across the trace (Figure 13's bars)."""
        hours = int(self.duration_s // units.SECONDS_PER_HOUR) + (
            1 if self.duration_s % units.SECONDS_PER_HOUR > 1e-9 else 0
        )
        return [
            self.energy_between_j(
                self.start_s + h * units.SECONDS_PER_HOUR,
                self.start_s + (h + 1) * units.SECONDS_PER_HOUR,
            )
            for h in range(hours)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PowerTrace({len(self.segments)} segments, "
            f"{units.seconds_to_hours(self.duration_s):.2f} h, "
            f"mean {self.mean_power_w():.3f} W, peak {self.peak_power_w():.3f} W)"
        )
