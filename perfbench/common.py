"""Pieces every workload shares: results, seeds, the closed-loop clients."""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .machine import MachineSpeed
from .stats import error_rate, median, percentile, tail

#: The SDB op mix. No recorded SDB client traffic exists, so this is a
#: stated choice: reads are half of all calls and the three mutations
#: share the other half equally.
OP_MIX: Tuple[Tuple[str, float], ...] = (
    ("QueryBatteryStatus", 3 / 6),
    ("SetCharge", 1 / 6),
    ("SetDischarge", 1 / 6),
    ("SelectChargingProfile", 1 / 6),
)
PROFILES = ("standard", "fast", "gentle")
#: Closed-loop clients: each waits for its reply before sending again.
#: Two, the machine's core count, so client threads never outnumber cores.
CLIENTS = 2


class CheckFailed(Exception):
    """A correctness check failed; the run's numbers must not be recorded."""


def derive_seed(seed: int, *path: int) -> int:
    """A child seed for input ``path`` under the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def fresh_dir(root: str, name: str) -> str:
    """An empty directory ``root/name`` (removed first if present)."""
    path = os.path.join(root, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@dataclass
class RunResult:
    """What one untraced timed phase produced."""

    #: Every set-up timed in the run, seconds.
    setups_s: List[float]
    #: Units of user work completed (devices, grid runs, answered calls).
    completed: int
    #: Wall time of the timed phase, seconds.
    wall_s: float
    #: One entry per attempted unit: ``"ok"`` or why it failed.
    outcomes: List[str]
    #: Workload-specific numbers, each ``name -> (value, unit)``.
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Reference samples taken through the run (:mod:`perfbench.machine`).
    speed: Optional[MachineSpeed] = None
    #: Reference samples taken among the set-ups, when set-up and the
    #: timed phase are apart in time and each is adjusted by its own
    #: samples (``None``: :attr:`speed` covers both).
    setup_speed: Optional[MachineSpeed] = None
    #: The end-to-end metrics reported at the reference speed: those whose
    #: work is CPU-bound.
    adjusted: Tuple[str, ...] = ()
    #: The part of each set-up spent waiting for a timer, which the
    #: reference speed does not scale (``None``: no such part).
    setup_waits_s: Optional[List[float]] = None
    #: Whether the gated peak memory counts finished worker processes.
    rss_counts_workers: bool = True


@dataclass
class Call:
    """One client call as the client saw it."""

    cls: str  # "read" | "mutate"
    op: str
    latency_s: float
    outcome: str
    stale_s: Optional[float] = None


class OpStream:
    """A client's seeded sequence of SDB calls over a device roster."""

    def __init__(self, seed: int, devices: List[Tuple[str, int]]):
        self.rng = np.random.default_rng(seed)
        self.devices = devices  # (device_id, n_cells)
        self._ops = [op for op, _ in OP_MIX]
        self._p = [p for _, p in OP_MIX]

    def next(self) -> dict:
        op = self._ops[int(self.rng.choice(len(self._ops), p=self._p))]
        device, n_cells = self.devices[int(self.rng.integers(len(self.devices)))]
        call = {"op": op, "device": device, "n_cells": n_cells}
        if op in ("SetCharge", "SetDischarge"):
            ratios = self.rng.dirichlet(np.ones(n_cells))
            ratios[-1] = 1.0 - float(ratios[:-1].sum())
            call["ratios"] = [float(r) for r in ratios]
        elif op == "SelectChargingProfile":
            call["profile"] = PROFILES[int(self.rng.integers(len(PROFILES)))]
        return call


def closed_loop(
    seconds: float, seed: int, devices: List[Tuple[str, int]],
    make_client: Callable[[int], Callable[[dict], Call]],
    slices: int = 1, between: Optional[Callable[[], None]] = None,
) -> Tuple[List[Call], float]:
    """Run :data:`CLIENTS` closed-loop clients for ``seconds``.

    ``make_client(k)`` builds client ``k``'s send function (its own
    connection); the send function performs one call and returns its
    :class:`Call`. The phase is cut into ``slices`` equal slices; between
    two slices every client is idle and ``between()``, when given, runs.
    Returns every call and the wall time of the slices.
    """
    senders = [make_client(k) for k in range(CLIENTS)]
    streams = [OpStream(derive_seed(seed, 7, k), devices) for k in range(CLIENTS)]
    calls: List[List[Call]] = [[] for _ in range(CLIENTS)]
    errors: List[Exception] = []
    length = seconds / slices
    gate = threading.Barrier(CLIENTS + 1, timeout=length + 60.0)
    deadline = [0.0]

    def client(k: int) -> None:
        send, stream, out = senders[k], streams[k], calls[k]
        try:
            for _ in range(slices):
                gate.wait()
                while time.perf_counter() < deadline[0]:
                    out.append(send(stream.next()))
                gate.wait()
        except Exception as exc:  # noqa: BLE001 - re-raised by the joining thread
            errors.append(exc)
            gate.abort()

    threads = [threading.Thread(target=client, args=(k,), name=f"bench-client-{k}") for k in range(CLIENTS)]
    for thread in threads:
        thread.start()
    wall = 0.0
    try:
        for i in range(slices):
            t0 = time.perf_counter()
            deadline[0] = t0 + length
            gate.wait()
            gate.wait()
            wall += time.perf_counter() - t0
            if between is not None and i + 1 < slices:
                between()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join(timeout=length + 60.0)
    if any(thread.is_alive() for thread in threads):
        raise CheckFailed("a client thread did not finish")
    if errors:
        raise errors[0]
    return [c for per_client in calls for c in per_client], wall


def mean_latency(calls: List[Call]) -> float:
    return sum(c.latency_s for c in calls) / len(calls)


def call_report(calls: List[Call], wall_s: float) -> Dict[str, Tuple[float, str]]:
    """The client-side numbers of a closed-loop phase, named as reported."""
    out: Dict[str, Tuple[float, str]] = {}
    for cls in ("read", "mutate"):
        lat = [c.latency_s * 1e3 for c in calls if c.cls == cls and c.outcome == "ok"]
        if not lat:
            continue
        t = tail(lat)
        out[f"{cls}_p50_ms"] = (percentile(lat, 50), "ms")
        out[f"{cls}_tail_ms"] = (t["value"], "ms")
        out[f"{cls}_tail_percent"] = (t["percent"], "percent")
        out[f"{cls}_samples"] = (len(lat), "count")
    out["requests_per_s"] = (sum(1 for c in calls if c.outcome == "ok") / wall_s, "1/s")
    out["error_rate"] = (error_rate([c.outcome for c in calls]), "share")
    stale = [c.stale_s * 1e3 for c in calls if c.stale_s is not None]
    if stale:
        out["read_stale_p50_ms"] = (median(stale), "ms")
    return out
