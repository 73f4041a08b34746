"""Fleet specifications: device populations, seed streams, shard plans.

A fleet run starts from a :class:`FleetSpec` — "N devices of scenario X,
M of scenario Y, fleet seed S". Planning is pure and deterministic:

* every device gets a stable identity (``watch-day-00017``) and its own
  RNG seed derived from the fleet seed through
  :class:`numpy.random.SeedSequence`, so device 17's workload is the same
  bit-for-bit no matter how the fleet is sharded, which worker runs it,
  or how many times that worker was killed and restarted;
* :func:`plan_shards` splits the population into contiguous
  :class:`ShardPlan` blocks. Shards are the unit of failure: one worker
  process owns one shard at a time, checkpoints it as a unit, and is
  restarted (or quarantined) as a unit.

Specs and plans are plain data — picklable for spawned workers and
JSON-serializable for shard checkpoints and fleet summaries. The
workload table (:data:`FLEET_SCENARIOS`) and the emulator constructor
(:func:`build_emulator`) here also serve sweep runs and the bundled
trace scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.health import HealthMonitor
from repro.core.runtime import SDBRuntime
from repro.emulator.devices import build_controller
from repro.emulator.emulator import ENGINES, SDBEmulator
from repro.errors import FleetError, require_positive
from repro.protection import PROTECTION_MODES, ProtectionManager
from repro.workloads.generators import (
    random_app_trace,
    smartwatch_day_trace,
    two_in_one_workload_trace,
)
from repro.workloads.traces import PowerTrace

__all__ = [
    "FLEET_SCENARIOS",
    "require_scenario",
    "require_protection",
    "check_run_config",
    "item_seed",
    "build_emulator",
    "DeviceSpec",
    "FleetSpec",
    "ShardPlan",
    "plan_shards",
    "parse_population",
    "build_device_emulator",
]


def _watch_day(seed: int, duration_s: float) -> Tuple[PowerTrace, str]:
    day_hours = duration_s / 3600.0
    # The GPS-run episode starts at hour 9; clamp it inside short fleet
    # days so truncated test runs stay valid generator inputs.
    run_start_h = min(9.0, max(0.0, day_hours * 0.4))
    run_duration_h = min(1.2, max(day_hours - run_start_h, 0.01))
    return (
        smartwatch_day_trace(
            day_hours=day_hours,
            run_start_h=run_start_h,
            run_duration_h=run_duration_h,
            seed=seed,
        ),
        "watch",
    )


#: Scenario name -> builder ``(device_seed, duration_s) -> (trace, platform)``.
#: The one workload table: fleet devices, sweep runs and the bundled trace
#: scenarios (:mod:`repro.obs.scenarios`, each a workload at a fixed seed
#: over 24 h) all draw from it. A per-device seed threads through the
#: workload generator so a population of 1000 watches is 1000 *different*
#: days, and the duration lets tests and CI run minutes-long fleets.
FLEET_SCENARIOS: Dict[str, object] = {
    "watch-day": _watch_day,
    "phone-day": lambda seed, duration_s: (
        random_app_trace(
            duration_s=duration_s, idle_w=0.15, active_w=1.2, burst_w=5.0, seed=seed
        ),
        "phone",
    ),
    "tablet-day": lambda seed, duration_s: (
        two_in_one_workload_trace(
            mean_power_w=9.0,
            duration_s=duration_s,
            segment_s=min(300.0, max(duration_s / 8.0, 1.0)),
            seed=seed,
        ),
        "tablet",
    ),
}


def require_scenario(name: str, error: type = FleetError) -> None:
    """Raise ``error`` naming the valid scenarios unless ``name`` is one."""
    if name not in FLEET_SCENARIOS:
        raise error(f"unknown fleet scenario {name!r}; valid: {', '.join(sorted(FLEET_SCENARIOS))}")


def require_protection(mode: str, error: type = ValueError) -> None:
    """Raise ``error`` naming the valid modes unless ``mode`` is a protection mode."""
    if mode not in PROTECTION_MODES:
        raise error(f"unknown protection mode {mode!r}; valid: {', '.join(PROTECTION_MODES)}")


def check_run_config(spec, error: type) -> None:
    """Check the run fields a fleet and a sweep share, raising ``error``.

    ``spec.duration_s`` and ``spec.dt_s`` must be positive and finite,
    ``spec.engine`` one of :data:`~repro.emulator.emulator.ENGINES` and
    ``spec.protection`` one of :data:`~repro.protection.PROTECTION_MODES`,
    so a bad value fails when the spec is built, not in every worker.
    """
    require_positive(spec.duration_s, "duration_s", error)
    require_positive(spec.dt_s, "dt_s", error)
    if spec.engine not in ENGINES:
        raise error(f"unknown engine {spec.engine!r}; expected one of {ENGINES}")
    require_protection(spec.protection, error)


def item_seed(seed: int, index: int) -> int:
    """The private seed of item ``index`` (a fleet device or a sweep run).

    ``SeedSequence([seed, index])`` is stable across platforms and numpy
    versions in the ways that matter here (SeedSequence hashing is
    deterministic), and independent between items by construction.
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class DeviceSpec:
    """One emulated device: identity, scenario, and its private seed."""

    device_id: str
    scenario: str
    #: Global 0-based index across the whole fleet (stable under sharding).
    index: int
    #: Per-device RNG seed derived from the fleet seed (see
    #: :meth:`FleetSpec.devices`); feeds the workload generator.
    seed: int

    def to_dict(self) -> dict:
        """Plain-dict form (picklable for a spawned worker, JSON-safe for checkpoints)."""
        return {
            "device_id": self.device_id,
            "scenario": self.scenario,
            "index": self.index,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "DeviceSpec":
        """Rebuild a :class:`DeviceSpec` from :meth:`to_dict` output."""
        return DeviceSpec(
            device_id=str(data["device_id"]),
            scenario=str(data["scenario"]),
            index=int(data["index"]),
            seed=int(data["seed"]),
        )


@dataclass(frozen=True)
class FleetSpec:
    """A device population plus the run parameters every device shares.

    Attributes:
        population: ordered ``(scenario, count)`` groups.
        seed: fleet seed; the root of every per-device seed stream and of
            the supervisor's restart-jitter stream.
        duration_s: simulated span each device runs (scenario workloads
            are generated to this length).
        dt_s: emulation step, seconds.
        engine: emulation engine for every device run.
        protection: battery protection mode armed on every device
            (``off`` / ``monitor`` / ``enforce``).
    """

    population: Tuple[Tuple[str, int], ...]
    seed: int = 0
    duration_s: float = 24 * 3600.0
    dt_s: float = 60.0
    engine: str = "reference"
    protection: str = "off"

    def __post_init__(self) -> None:
        if not self.population:
            raise FleetError("fleet population is empty")
        for scenario, count in self.population:
            require_scenario(scenario)
            if count <= 0:
                raise FleetError(f"scenario {scenario!r} has non-positive count {count}")
        check_run_config(self, FleetError)

    @property
    def n_devices(self) -> int:
        return sum(count for _, count in self.population)

    def devices(self) -> List[DeviceSpec]:
        """The full device roster, with per-device seeds from :func:`item_seed`."""
        roster: List[DeviceSpec] = []
        index = 0
        for scenario, count in self.population:
            for _ in range(count):
                roster.append(
                    DeviceSpec(
                        device_id=f"{scenario}-{index:05d}",
                        scenario=scenario,
                        index=index,
                        seed=item_seed(self.seed, index),
                    )
                )
                index += 1
        return roster

    def config_dict(self) -> dict:
        """The shared run parameters, as shipped to shard workers."""
        return {
            "duration_s": self.duration_s,
            "dt_s": self.dt_s,
            "engine": self.engine,
            "protection": self.protection,
        }


@dataclass(frozen=True)
class ShardPlan:
    """A contiguous block of devices owned by one worker at a time."""

    shard_id: int
    devices: Tuple[DeviceSpec, ...] = field(default_factory=tuple)

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def to_dict(self) -> dict:
        """Plain-dict form shipped across the worker process boundary."""
        return {
            "shard_id": self.shard_id,
            "devices": [device.to_dict() for device in self.devices],
        }

    @staticmethod
    def from_dict(data: dict) -> "ShardPlan":
        """Rebuild a :class:`ShardPlan` from :meth:`to_dict` output."""
        return ShardPlan(
            shard_id=int(data["shard_id"]),
            devices=tuple(DeviceSpec.from_dict(d) for d in data["devices"]),
        )


def plan_shards(spec: FleetSpec, n_shards: int) -> List[ShardPlan]:
    """Split the fleet into ``n_shards`` contiguous, near-equal shards.

    Deterministic: the same spec and shard count always produce the same
    plan, which is what lets a restarted supervisor (or a bit-identity
    test) reconstruct exactly which devices a shard checkpoint covers.
    Shards never come out empty — ``n_shards`` is clamped to the device
    count.
    """
    if n_shards <= 0:
        raise FleetError("n_shards must be positive")
    roster = spec.devices()
    n_shards = min(n_shards, len(roster))
    base, extra = divmod(len(roster), n_shards)
    plans: List[ShardPlan] = []
    start = 0
    for k in range(n_shards):
        size = base + (1 if k < extra else 0)
        plans.append(ShardPlan(shard_id=k, devices=tuple(roster[start : start + size])))
        start += size
    return plans


def parse_population(text: str, default_count: int = 1) -> Tuple[Tuple[str, int], ...]:
    """Parse a CLI population string into ``(scenario, count)`` groups.

    Accepts a single scenario name (``watch-day``, count =
    ``default_count``) or a comma-separated mix with explicit counts
    (``watch-day=100,phone-day=50``). Raises :class:`FleetError` on
    malformed input — the CLI maps that to exit 2.
    """
    groups: List[Tuple[str, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise FleetError(f"empty scenario entry in population {text!r}")
        if "=" in part:
            name, _, count_text = part.partition("=")
            try:
                count = int(count_text)
            except ValueError:
                raise FleetError(
                    f"bad device count {count_text!r} for scenario {name!r}"
                ) from None
        else:
            name, count = part, default_count
        groups.append((name.strip(), count))
    return tuple(groups)


def build_emulator(
    trace: PowerTrace,
    platform: str,
    *,
    dt_s: float,
    engine: str = "reference",
    protection: str = "off",
    health: bool = False,
    socs: Optional[Sequence[float]] = None,
    policy=None,
    dag=None,
    **emulator_kwargs,
) -> SDBEmulator:
    """Build one emulation: controller, protection, runtime and emulator.

    The one constructor behind bundled scenarios, workload CSVs, fleet
    devices and sweep runs, so a protection mode means the same objects on
    every path: any mode but ``off`` arms a :class:`HealthMonitor` plus a
    :class:`ProtectionManager` in that mode, and ``health=True`` arms the
    monitor alone (``chaos-tablet``'s self-healing runtime). ``socs`` sets
    the initial per-battery SoC (default: full), ``policy`` the discharge
    policy (default: blended) and ``dag`` a virtual-battery DAG over the
    pack; ``emulator_kwargs`` (faults, tracer, load shaper, checkpointing,
    abort signal) pass through to :class:`SDBEmulator`.
    """
    controller = build_controller(platform, socs=socs)
    monitor = HealthMonitor() if health or protection != "off" else None
    manager = None if protection == "off" else ProtectionManager(controller, mode=protection)
    runtime = SDBRuntime(
        controller, discharge_policy=policy, health_monitor=monitor, protection=manager, dag=dag
    )
    return SDBEmulator(controller, runtime, trace, dt_s=dt_s, engine=engine, **emulator_kwargs)


def build_device_emulator(
    device: DeviceSpec,
    config: dict,
    *,
    checkpoint_path: Optional[str] = None,
    checkpoint_every_s: Optional[float] = None,
    abort_signal=None,
) -> SDBEmulator:
    """Construct the emulator for one fleet device, ready to run.

    Rebuilt identically on every worker attempt (the device seed pins
    the workload, the config pins everything else), which is what makes
    a device checkpoint written by a killed worker restorable by its
    replacement: the emulator configuration digest matches.
    """
    builder = FLEET_SCENARIOS[device.scenario]
    trace, platform = builder(device.seed, float(config["duration_s"]))
    return build_emulator(
        trace,
        platform,
        dt_s=float(config["dt_s"]),
        engine=str(config.get("engine", "reference")),
        protection=str(config.get("protection", "off")),
        checkpoint_path=checkpoint_path,
        checkpoint_every_s=checkpoint_every_s,
        abort_signal=abort_signal,
    )
