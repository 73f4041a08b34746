"""Fleet-level rollups: the population-scale view of a fleet run.

One device run reports a battery life; a fleet run reports a battery-life
*distribution* — plus the operational accounting (coverage, shard
retries, quarantines) that says how much of the population the numbers
actually cover. :func:`fleet_rollup` reduces the per-device metric dicts
shard checkpoints record into one JSON-safe summary; it is pure
arithmetic over already-deterministic inputs, so a crashed-and-recovered
fleet rolls up bit-identically to an uninterrupted one.

Percentiles use the nearest-rank method of the tracer's timer summaries
(:func:`repro.obs.tracer.percentile`, re-exported here): ``p50`` of a
200-device fleet is the 100th worst battery life, an actual device's
number, not an interpolation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.tracer import percentile

__all__ = ["percentile", "fleet_rollup", "rollup_summary"]


def fleet_rollup(devices: Dict[str, dict], shards: List[dict]) -> dict:
    """Reduce per-device metrics + shard stats into the fleet summary.

    Args:
        devices: ``device_id -> metrics`` as recorded by shard
            checkpoints (``ok: False`` entries are quarantine casualties
            and count only toward coverage).
        shards: per-shard stats dicts from the supervisor
            (``status``/``attempts``/``retries``).
    """
    ok = [m for m in devices.values() if m.get("ok")]
    failed = [m for m in devices.values() if not m.get("ok")]
    lives = sorted(float(m["battery_life_h"]) for m in ok)
    tripped = sum(1 for m in ok if m.get("protection_trips", 0) > 0)
    quarantined = [s for s in shards if s["status"] == "quarantined"]
    return {
        "n_devices": len(devices),
        "n_ok": len(ok),
        "n_failed": len(failed),
        "coverage": len(ok) / len(devices) if devices else 0.0,
        "survived_trace": sum(1 for m in ok if m.get("completed")),
        "battery_life_h": {
            "p50": percentile(lives, 0.50),
            "p90": percentile(lives, 0.90),
            "p99": percentile(lives, 0.99),
            "min": lives[0] if lives else 0.0,
            "max": lives[-1] if lives else 0.0,
            "mean": sum(lives) / len(lives) if lives else 0.0,
        },
        "protection_trip_rate": tripped / len(ok) if ok else 0.0,
        "protection_trips": sum(int(m.get("protection_trips", 0)) for m in ok),
        "downtime_s_total": sum(float(m.get("downtime_s", 0.0)) for m in ok),
        "delivered_j_total": sum(float(m.get("delivered_j", 0.0)) for m in ok),
        "steps_total": sum(int(m.get("n_steps", 0)) for m in ok),
        "incidents_total": sum(int(m.get("incident_count", 0)) for m in ok),
        "shards": {
            "total": len(shards),
            "retried": sum(1 for s in shards if s.get("retries", 0) > 0),
            "quarantined": len(quarantined),
            "worker_restarts": sum(int(s.get("retries", 0)) for s in shards),
        },
    }


def rollup_summary(rollup: dict, shards: List[dict], wall_s: float) -> str:
    """Terminal-ready multi-line account of a fleet run."""
    life = rollup["battery_life_h"]
    shard_stats = rollup["shards"]
    lines = [
        f"fleet: {rollup['n_ok']}/{rollup['n_devices']} devices completed "
        f"({rollup['coverage']:.1%} coverage) in {wall_s:.1f} s wall",
        f"battery life: p50 {life['p50']:.2f} h, p90 {life['p90']:.2f} h, "
        f"p99 {life['p99']:.2f} h (min {life['min']:.2f}, max {life['max']:.2f})",
        f"protection: {rollup['protection_trips']} trip(s), "
        f"{rollup['protection_trip_rate']:.1%} of devices tripped",
        f"downtime: {rollup['downtime_s_total']:.0f} s across the fleet; "
        f"delivered {rollup['delivered_j_total']:.0f} J over {rollup['steps_total']} steps",
        f"shards: {shard_stats['total']} total, {shard_stats['retried']} retried, "
        f"{shard_stats['quarantined']} quarantined, "
        f"{shard_stats['worker_restarts']} worker restart(s)",
    ]
    for shard in shards:
        if shard["status"] != "done":
            reason = shard["failures"][-1] if shard.get("failures") else ""
            lines.append(
                f"  shard {shard['shard_id']}: {shard['status']} after "
                f"{shard['attempts']} attempt(s){': ' + reason if reason else ''}"
            )
    return "\n".join(lines)
