"""Virtual-battery DAG: aggregates, splitters, and tenant power contracts.

The paper's premise is that heterogeneous physical cells disappear behind
one software abstraction. This module supplies that abstraction as a
directory of composable *virtual battery* nodes, after the BatteryOS
lineage (Stanford's ``AggregatorBattery``/``BALSplitter``, Ouyancheng's
``VirtualBattery`` credit accounting):

* :class:`PhysicalBattery` — a leaf bound to one controller index.
* :class:`AggregateBattery` — fan-in: several nodes present as one; its
  status is the capacity-weighted rollup of its children.
* :class:`SplitterBattery` — fan-out: one source partitioned across
  tenants, each holding a :class:`TenantContract` with a reserved slice
  of the source's energy and a claimed steady-state power. The splitter
  runs claimed-vs-actual *credit accounting* per tenant: a tenant drawing
  more than it claimed builds negative credit and, after a streak of
  over-draw samples, is throttled to its claimed power; a tenant that
  spends its whole reserve is cut off until recharge/reset.
* :class:`TenantBattery` — the per-tenant handle a splitter exposes; its
  virtual state of charge is the unspent fraction of its reserve.
* :class:`RemoteBattery` — a leafless node whose cells live on another
  machine, seen through a :class:`~repro.net.directory.BatteryDirectory`
  status provider. Remote children contribute capacity-weighted status
  to any aggregate above them (with explicit ``degraded``/``stale_s``
  honesty when the node is partitioned) but accept **no** local ratio
  shares — local control of remote cells crosses the wire through the
  directory's four SDB calls, never through a local vector.

A :class:`BatteryDAG` roots the graph, validates that the physical leaves
cover every controller index exactly once, and provides the resolution
semantics the runtime uses:

* **gate** (:meth:`BatteryDAG.gate_ratios`) — physical ratio vectors from
  the policies pass through unchanged while every branch is dischargeable
  (the trivial one-level DAG therefore stays *bit-identical* to the
  pre-DAG runtime: no arithmetic touches the vector). When a splitter's
  tenants have exhausted every reserve, its leaves' shares are zeroed and
  the rest renormalized — mirroring the health monitor's quarantine
  filter, including the all-zero pass-through (the hardware floor still
  serves a load nobody has budget for rather than browning out).
* **expand** (:meth:`BatteryDAG.expand`) — per-child shares addressed to
  *any* node resolve down to a physical ratio vector, distributing each
  child's share over its leaves proportionally to usable charge. This is
  what lets the four SDB calls operate on any node (see
  :class:`repro.core.api.SDBApi`).

Accounting emits ``vdag.*`` trace events (``vdag.throttle``,
``vdag.release``, ``vdag.exhausted``) and mirrors them as incidents that
:meth:`SDBRuntime.all_incidents` merges into the run's timeline. All
mutable tenant state round-trips through :meth:`BatteryDAG.capture` /
:meth:`BatteryDAG.restore` (the ``repro.ckpt/v3`` ``vdag`` section), so a
resumed run continues mid-throttle exactly where it left off.

See ``docs/virtual_batteries.md`` for the model and worked examples.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.health import Incident
from repro.errors import RatioError
from repro.obs.tracer import Tracer, get_default_tracer

__all__ = [
    "NodeStatus",
    "TenantContract",
    "BatteryNode",
    "PhysicalBattery",
    "RemoteBattery",
    "AggregateBattery",
    "TenantBattery",
    "SplitterBattery",
    "BatteryDAG",
]

#: Consecutive over-draw samples before a tenant is throttled. Three
#: samples distinguish a real violation from a single transient spike.
DEFAULT_OVERDRAW_CHECKS = 3

#: Consecutive within-claim samples before a throttle is released.
DEFAULT_RECOVERY_CHECKS = 30

#: Reserve remainders below this many joules count as exhausted (guards
#: against float dust keeping a tenant nominally alive forever).
EXHAUSTION_EPSILON_J = 1e-9


@dataclass(frozen=True)
class NodeStatus:
    """A ``QueryBatteryStatus`` response rolled up to one DAG node.

    The physical fields mirror :class:`~repro.cell.fuel_gauge.BatteryStatus`
    semantics at node granularity: ``soc`` and ``terminal_voltage`` are
    capacity-weighted means over the node's leaves, ``capacity_mah`` the
    sum. Tenant nodes overlay their contract accounting: their ``soc`` is
    the unspent fraction of the reserve (the tenant's *virtual* state of
    charge), and the contract fields are populated.
    """

    name: str
    kind: str
    n_cells: int
    soc: float
    capacity_mah: float
    terminal_voltage: float
    is_empty: bool
    is_full: bool
    children: Tuple[str, ...] = ()
    #: Remote fields — meaningful when the node (or a descendant) is a
    #: :class:`RemoteBattery`: ``degraded`` marks a rollup built from a
    #: stale or missing remote view, ``stale_s`` its worst staleness.
    degraded: bool = False
    stale_s: Optional[float] = None
    #: Contract fields — populated for ``kind == "tenant"`` only.
    claimed_w: Optional[float] = None
    reserved_j: Optional[float] = None
    consumed_j: Optional[float] = None
    credit_j: Optional[float] = None
    throttled: bool = False
    exhausted: bool = False


@dataclass(frozen=True)
class TenantContract:
    """One tenant's power contract on a :class:`SplitterBattery`.

    Args:
        name: tenant identity (unique within the splitter).
        reserved_fraction: slice of the source's bind-time open-circuit
            energy reserved for this tenant, in (0, 1].
        claimed_w: steady-state power the tenant claimed. Draw above
            ``claimed_w * (1 + overdraw_tolerance)`` counts as over-draw;
            a throttled tenant is capped at ``claimed_w``.
        overdraw_tolerance: fractional headroom above the claim before a
            sample counts as over-draw.
        overdraw_checks: consecutive over-draw samples before throttling.
        recovery_checks: consecutive clean samples before release.
    """

    name: str
    reserved_fraction: float
    claimed_w: float
    overdraw_tolerance: float = 0.1
    overdraw_checks: int = DEFAULT_OVERDRAW_CHECKS
    recovery_checks: int = DEFAULT_RECOVERY_CHECKS

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if not 0.0 < self.reserved_fraction <= 1.0:
            raise ValueError("reserved fraction must be in (0, 1]")
        if self.claimed_w <= 0.0:
            raise ValueError("claimed power must be positive")
        if self.overdraw_tolerance < 0.0:
            raise ValueError("over-draw tolerance must be non-negative")
        if self.overdraw_checks < 1 or self.recovery_checks < 1:
            raise ValueError("over-draw/recovery check counts must be at least 1")


class BatteryNode:
    """Base of every virtual-battery node.

    Subclasses define ``kind``, their children, and which physical leaf
    indices sit beneath them. Nodes are cheap structural objects; all
    controller access flows through the owning :class:`BatteryDAG`.
    """

    kind = "node"

    def __init__(self, name: str):
        if not name:
            raise ValueError("battery node needs a name")
        self.name = name
        self.children: Tuple["BatteryNode", ...] = ()

    def leaf_indices(self) -> Tuple[int, ...]:
        """Physical controller indices beneath this node, in DAG order."""
        out: List[int] = []
        for child in self.children:
            out.extend(child.leaf_indices())
        return tuple(out)

    def dischargeable(self) -> bool:
        """False when policy must route no discharge share through here."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class PhysicalBattery(BatteryNode):
    """A leaf node: one physical battery at a controller index."""

    kind = "physical"

    def __init__(self, name: str, index: int):
        super().__init__(name)
        if index < 0:
            raise ValueError("battery index must be non-negative")
        self.index = int(index)

    def leaf_indices(self) -> Tuple[int, ...]:
        return (self.index,)


class RemoteBattery(BatteryNode):
    """A battery that lives on another machine, seen through a directory.

    Contributes **no** physical leaf indices (its cells are behind
    another controller) and is never dischargeable locally — routing a
    local ratio share at it is a :class:`~repro.errors.RatioError`.
    Status comes from ``status_provider``, a callable returning the
    :meth:`repro.net.directory.BatteryDirectory.remote_status` rollup
    dict (or None when nothing was ever cached). A missing or None
    provider answers as a degraded empty battery rather than raising:
    a partitioned remote must never break a local status walk.

    Args:
        name: node name in the DAG directory.
        device_id: the remote device this node mirrors.
        status_provider: zero-arg callable yielding the rollup dict;
            attach later via :meth:`bind_provider` if unavailable at
            construction.
    """

    kind = "remote"

    def __init__(
        self,
        name: str,
        device_id: str,
        status_provider: Optional[Callable[[], Optional[Mapping]]] = None,
    ):
        super().__init__(name)
        if not device_id:
            raise ValueError(f"remote battery {name!r} needs a device id")
        self.device_id = device_id
        self.status_provider = status_provider

    def bind_provider(self, status_provider: Callable[[], Optional[Mapping]]) -> None:
        """Attach (or replace) the directory-backed status source."""
        self.status_provider = status_provider

    def leaf_indices(self) -> Tuple[int, ...]:
        return ()

    def dischargeable(self) -> bool:
        return False

    def view(self) -> dict:
        """The remote rollup, degraded-empty when nothing is known."""
        raw = self.status_provider() if self.status_provider is not None else None
        if raw is None:
            return {
                "n_cells": 0, "soc": 0.0, "capacity_mah": 0.0,
                "terminal_voltage": 0.0, "is_empty": True, "is_full": False,
                "degraded": True, "stale_s": None,
            }
        return {
            "n_cells": int(raw.get("n_cells", 0)),
            "soc": float(raw.get("soc", 0.0)),
            "capacity_mah": float(raw.get("capacity_mah", 0.0)),
            "terminal_voltage": float(raw.get("terminal_voltage", 0.0)),
            "is_empty": bool(raw.get("is_empty", True)),
            "is_full": bool(raw.get("is_full", False)),
            "degraded": bool(raw.get("degraded", False)),
            "stale_s": raw.get("stale_s"),
        }


class AggregateBattery(BatteryNode):
    """Fan-in: several nodes presented as one battery."""

    kind = "aggregate"

    def __init__(self, name: str, children: Sequence[BatteryNode]):
        super().__init__(name)
        if not children:
            raise ValueError(f"aggregate {name!r} needs at least one child")
        self.children = tuple(children)

    def dischargeable(self) -> bool:
        return any(child.dischargeable() for child in self.children)


class TenantBattery(BatteryNode):
    """One tenant's handle on a splitter: a contract plus running credit.

    Constructed by :class:`SplitterBattery`; not intended for standalone
    use. The tenant's leaves are the splitter source's leaves — tenants
    *share* the physical cells and partition the energy, not the pack.
    """

    kind = "tenant"

    def __init__(self, splitter: "SplitterBattery", contract: TenantContract):
        super().__init__(contract.name)
        self.splitter = splitter
        self.contract = contract
        #: Joules of the source's energy reserved at bind time.
        self.reserved_j = 0.0
        #: Joules actually admitted to (drawn by) this tenant.
        self.consumed_j = 0.0
        #: Running claimed-minus-actual energy credit: positive when the
        #: tenant under-draws its claim, negative when it over-draws.
        self.credit_j = 0.0
        self.throttled = False
        self.exhausted = False
        self._overdraw_streak = 0
        self._clean_streak = 0

    def leaf_indices(self) -> Tuple[int, ...]:
        return self.splitter.source.leaf_indices()

    def dischargeable(self) -> bool:
        return not self.exhausted

    @property
    def remaining_j(self) -> float:
        """Unspent reserve, joules (never negative)."""
        return max(0.0, self.reserved_j - self.consumed_j)

    def capture(self) -> Dict[str, float]:
        """Serializable snapshot of this tenant's contract accounting."""
        return {
            "reserved_j": self.reserved_j,
            "consumed_j": self.consumed_j,
            "credit_j": self.credit_j,
            "throttled": self.throttled,
            "exhausted": self.exhausted,
            "overdraw_streak": self._overdraw_streak,
            "clean_streak": self._clean_streak,
        }

    def restore(self, data: Mapping) -> None:
        """Apply a :meth:`capture` snapshot back onto this tenant."""
        self.reserved_j = float(data["reserved_j"])
        self.consumed_j = float(data["consumed_j"])
        self.credit_j = float(data["credit_j"])
        self.throttled = bool(data["throttled"])
        self.exhausted = bool(data["exhausted"])
        self._overdraw_streak = int(data["overdraw_streak"])
        self._clean_streak = int(data["clean_streak"])


class SplitterBattery(BatteryNode):
    """Fan-out: one source node partitioned across tenant contracts.

    The splitter's children are its :class:`TenantBattery` handles; its
    physical leaves are the source's. Admission control happens in
    :meth:`account`, called once per emulation step with each tenant's
    demanded power; the return value is the power actually admitted.
    """

    kind = "splitter"

    def __init__(self, name: str, source: BatteryNode, contracts: Sequence[TenantContract]):
        super().__init__(name)
        if not contracts:
            raise ValueError(f"splitter {name!r} needs at least one tenant contract")
        names = [contract.name for contract in contracts]
        if len(set(names)) != len(names):
            raise ValueError(f"splitter {name!r} has duplicate tenant names")
        total = sum(contract.reserved_fraction for contract in contracts)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"splitter {name!r} reserves {total:.3f} of its source — more than the whole"
            )
        self.source = source
        self.tenants = tuple(TenantBattery(self, contract) for contract in contracts)
        self.children = self.tenants
        #: Chronological tenant incidents (throttles, releases, exhaustion).
        self.incidents: List[Incident] = []

    def leaf_indices(self) -> Tuple[int, ...]:
        return self.source.leaf_indices()

    def dischargeable(self) -> bool:
        return any(tenant.dischargeable() for tenant in self.tenants)

    def tenant(self, name: str) -> TenantBattery:
        """Return the tenant named ``name``; raise ``KeyError`` if unknown."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(f"splitter {self.name!r} has no tenant {name!r}")

    def bind_energy(self, source_energy_j: float) -> None:
        """Size each tenant's reserve as its fraction of the source energy."""
        for tenant in self.tenants:
            tenant.reserved_j = tenant.contract.reserved_fraction * source_energy_j

    def account(self, t: float, dt: float, demands: Mapping[str, float], tracer: Tracer) -> float:
        """Run one admission-control sample; return total admitted watts.

        For each tenant: its demand is compared against the contract
        (claim + tolerance) to advance the over-draw/clean streaks, the
        claimed-vs-actual credit integrates, and the admitted power is
        the demand capped by the throttle (``claimed_w`` once throttled)
        and by the unspent reserve. Transitions (throttle, release,
        exhaustion) are traced as ``vdag.*`` events and recorded as
        incidents.
        """
        if dt <= 0:
            raise ValueError("accounting interval must be positive")
        admitted_total = 0.0
        for tenant in self.tenants:
            contract = tenant.contract
            actual = float(demands.get(tenant.name, 0.0))
            if actual < 0.0:
                raise ValueError(f"tenant {tenant.name!r} demanded negative power {actual!r}")
            limit = contract.claimed_w * (1.0 + contract.overdraw_tolerance)
            if actual > limit:
                tenant._overdraw_streak += 1
                tenant._clean_streak = 0
                tracer.count("vdag.overdraw_samples")
                if not tenant.throttled and tenant._overdraw_streak >= contract.overdraw_checks:
                    tenant.throttled = True
                    self._record(
                        t,
                        "tenant-throttle",
                        tenant,
                        f"drew {actual:.2f} W against a {contract.claimed_w:.2f} W claim "
                        f"for {tenant._overdraw_streak} samples",
                        tracer,
                        "vdag.throttle",
                        demand_w=actual,
                    )
            else:
                tenant._overdraw_streak = 0
                if tenant.throttled:
                    tenant._clean_streak += 1
                    if tenant._clean_streak >= contract.recovery_checks:
                        tenant.throttled = False
                        tenant._clean_streak = 0
                        self._record(
                            t,
                            "tenant-release",
                            tenant,
                            f"{contract.recovery_checks} consecutive within-claim samples",
                            tracer,
                            "vdag.release",
                            demand_w=actual,
                        )
            tenant.credit_j += (contract.claimed_w - actual) * dt
            admitted = min(actual, contract.claimed_w) if tenant.throttled else actual
            remaining = tenant.remaining_j
            if remaining <= EXHAUSTION_EPSILON_J:
                admitted = 0.0
                if not tenant.exhausted:
                    tenant.exhausted = True
                    self._record(
                        t,
                        "tenant-exhausted",
                        tenant,
                        f"spent its full {tenant.reserved_j:.0f} J reserve",
                        tracer,
                        "vdag.exhausted",
                        demand_w=actual,
                    )
            else:
                # Never let the last sample overshoot the reserve.
                admitted = min(admitted, remaining / dt)
            tenant.consumed_j += admitted * dt
            admitted_total += admitted
        return admitted_total

    def _record(
        self,
        t: float,
        kind: str,
        tenant: TenantBattery,
        detail: str,
        tracer: Tracer,
        event: str,
        **fields,
    ) -> None:
        self.incidents.append(Incident(t, kind, None, f"{self.name}/{tenant.name}: {detail}"))
        tracer.count(f"{event}s")
        if tracer.enabled:
            tracer.event(
                event,
                t,
                splitter=self.name,
                tenant=tenant.name,
                claimed_w=tenant.contract.claimed_w,
                credit_j=tenant.credit_j,
                remaining_j=tenant.remaining_j,
                **fields,
            )

    def capture(self) -> Dict:
        """Serializable snapshot of every tenant plus the incident log."""
        return {
            "tenants": {tenant.name: tenant.capture() for tenant in self.tenants},
            "incidents": [asdict(incident) for incident in self.incidents],
        }

    def restore(self, data: Mapping) -> None:
        """Apply a :meth:`capture` snapshot back onto this splitter."""
        saved = data["tenants"]
        for tenant in self.tenants:
            if tenant.name not in saved:
                raise KeyError(f"checkpoint has no state for tenant {tenant.name!r}")
            tenant.restore(saved[tenant.name])
        self.incidents = [Incident(**incident) for incident in data["incidents"]]


#: How callers may address a node: by object or by directory name.
NodeRef = Union[BatteryNode, str]


def _remote_descendants(node: BatteryNode) -> List["RemoteBattery"]:
    """Every :class:`RemoteBattery` at or below a node, DAG order."""
    out: List[RemoteBattery] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, RemoteBattery):
            out.append(current)
        if isinstance(current, SplitterBattery):
            stack.append(current.source)
            stack.extend(current.tenants)
        else:
            stack.extend(current.children)
    return out


class BatteryDAG:
    """The virtual-battery directory: a rooted DAG over physical cells.

    Args:
        root: the top node. Its physical leaves must cover every
            controller index ``0..n-1`` exactly once.
        n: number of physical batteries behind the controller.

    The DAG validates structure at construction (unique node names, no
    node reachable twice, exact leaf coverage) and exposes name lookup,
    status rollup, ratio gating/expansion, tenant accounting, and
    checkpoint capture/restore.
    """

    def __init__(self, root: BatteryNode, n: int):
        if n <= 0:
            raise ValueError("a DAG needs at least one physical battery")
        self.root = root
        self.n = int(n)
        self._nodes: Dict[str, BatteryNode] = {}
        self._splitters: List[SplitterBattery] = []
        seen_ids = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen_ids:
                raise ValueError(f"node {node.name!r} is reachable more than once")
            seen_ids.add(id(node))
            if node.name in self._nodes:
                raise ValueError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node
            if isinstance(node, SplitterBattery):
                self._splitters.append(node)
                stack.append(node.source)
                stack.extend(node.tenants)
            else:
                stack.extend(node.children)
        leaves = root.leaf_indices()
        if sorted(leaves) != list(range(self.n)):
            raise ValueError(
                f"DAG leaves {sorted(set(leaves))} must cover every battery index "
                f"0..{self.n - 1} exactly once"
            )
        self._tracer_provider: Callable[[], Tracer] = get_default_tracer
        self._controller = None

    @classmethod
    def trivial(cls, n: int) -> "BatteryDAG":
        """The one-level DAG: a pack aggregate directly over the cells."""
        cells = [PhysicalBattery(f"cell{i}", i) for i in range(n)]
        return cls(AggregateBattery("pack", cells), n)

    @property
    def is_trivial(self) -> bool:
        """True when no splitter is present, so gating can never engage."""
        return not self._splitters

    @property
    def splitters(self) -> Tuple[SplitterBattery, ...]:
        return tuple(self._splitters)

    @property
    def incidents(self) -> List[Incident]:
        """All tenant incidents across every splitter, chronological."""
        merged: List[Incident] = []
        for splitter in self._splitters:
            merged.extend(splitter.incidents)
        merged.sort(key=lambda incident: incident.t)
        return merged

    def bind(self, controller, tracer_provider: Optional[Callable[[], Tracer]] = None) -> None:
        """Attach the controller; size tenant reserves from its cells.

        ``tracer_provider`` is called at event time (not bind time) so
        the emulator's late tracer propagation onto the runtime reaches
        DAG events too.
        """
        if controller.n != self.n:
            raise ValueError(f"DAG built for {self.n} batteries, controller has {controller.n}")
        self._controller = controller
        if tracer_provider is not None:
            self._tracer_provider = tracer_provider
        for splitter in self._splitters:
            energy = sum(
                controller.cells[i].open_circuit_energy_j() for i in splitter.source.leaf_indices()
            )
            splitter.bind_energy(energy)

    # ------------------------------------------------------------------ #
    # Directory
    # ------------------------------------------------------------------ #

    def node(self, ref: NodeRef) -> BatteryNode:
        """Resolve a node by name (or validate a node object's membership)."""
        if isinstance(ref, BatteryNode):
            if self._nodes.get(ref.name) is not ref:
                raise KeyError(f"node {ref.name!r} is not part of this DAG")
            return ref
        try:
            return self._nodes[ref]
        except KeyError:
            raise KeyError(
                f"unknown battery node {ref!r}; valid: {', '.join(sorted(self._nodes))}"
            ) from None

    def nodes(self) -> Tuple[BatteryNode, ...]:
        """Every node, root first, in stable directory order."""
        return tuple(self._nodes.values())

    # ------------------------------------------------------------------ #
    # Status rollup
    # ------------------------------------------------------------------ #

    def status(self, ref: NodeRef, statuses: Sequence) -> NodeStatus:
        """Roll a physical ``QueryBatteryStatus`` response up to one node.

        ``statuses`` is the controller's per-battery response;
        ``soc``/``terminal_voltage`` are capacity-weighted over the
        node's leaves and the views of its remote descendants, and
        ``degraded``/``stale_s`` report the worst remote view. Tenant
        nodes report their contract view instead: virtual SoC is the
        unspent reserve fraction.
        """
        node = self.node(ref)
        leaves = node.leaf_indices()
        if len(statuses) != self.n:
            raise ValueError(f"expected {self.n} statuses, got {len(statuses)}")
        parts = [
            dict(
                n_cells=1, soc=status.soc, capacity_mah=status.capacity_mah,
                terminal_voltage=status.terminal_voltage,
                is_empty=status.is_empty, is_full=status.is_full,
                degraded=False, stale_s=None,
            )
            for status in [statuses[index] for index in leaves]
        ]
        parts.extend(remote.view() for remote in _remote_descendants(node))
        capacity = sum(part["capacity_mah"] for part in parts)
        weights = (
            [part["capacity_mah"] / capacity for part in parts]
            if capacity > 0.0
            else [1.0 / len(parts)] * len(parts)
        )
        stales = [part["stale_s"] for part in parts if part["stale_s"] is not None]
        base = dict(
            name=node.name,
            kind=node.kind,
            n_cells=sum(part["n_cells"] for part in parts),
            soc=sum(w * part["soc"] for w, part in zip(weights, parts)),
            capacity_mah=capacity,
            terminal_voltage=sum(w * part["terminal_voltage"] for w, part in zip(weights, parts)),
            is_empty=all(part["is_empty"] for part in parts),
            is_full=all(part["is_full"] for part in parts),
            children=tuple(child.name for child in node.children),
            degraded=any(part["degraded"] for part in parts),
            stale_s=max(stales) if stales else None,
        )
        if isinstance(node, TenantBattery):
            reserve = node.reserved_j
            base.update(
                soc=(node.remaining_j / reserve) if reserve > 0 else 0.0,
                is_empty=node.exhausted,
                claimed_w=node.contract.claimed_w,
                reserved_j=node.reserved_j,
                consumed_j=node.consumed_j,
                credit_j=node.credit_j,
                throttled=node.throttled,
                exhausted=node.exhausted,
            )
        return NodeStatus(**base)

    # ------------------------------------------------------------------ #
    # Ratio resolution
    # ------------------------------------------------------------------ #

    def gate_ratios(self, ratios: Sequence[float]) -> List[float]:
        """Zero shares under non-dischargeable branches; renormalize.

        While every branch is dischargeable (always true for a trivial
        DAG) the vector passes through with *no arithmetic applied*, so
        the one-level DAG is bit-identical to no DAG at all. An all-zero
        outcome passes the original through, matching the health and
        protection filters' hardware-floor philosophy.
        """
        ratios = list(ratios)
        if len(ratios) != self.n:
            raise RatioError(f"ratio vector has {len(ratios)} entries for {self.n} batteries")
        gated = set()
        for splitter in self._splitters:
            if not splitter.dischargeable():
                gated.update(splitter.leaf_indices())
        if not gated:
            return ratios
        filtered = [0.0 if i in gated else r for i, r in enumerate(ratios)]
        total = sum(filtered)
        if total <= 0.0:
            return ratios
        return [r / total for r in filtered]

    def expand(self, ref: NodeRef, child_ratios: Sequence[float]) -> List[float]:
        """Resolve per-child shares of a node into a physical ratio vector.

        Each child's share is distributed over its physical leaves
        proportionally to usable charge (equal split when all its cells
        are empty); children sharing leaves (a splitter's tenants) sum.
        Requires :meth:`bind` — the weights come from the live cells.
        """
        node = self.node(ref)
        if self._controller is None:
            raise RuntimeError("DAG is not bound to a controller; call bind() first")
        children = node.children if node.children else (node,)
        if len(child_ratios) != len(children):
            raise RatioError(
                f"node {node.name!r} has {len(children)} children, got {len(child_ratios)} shares"
            )
        cells = self._controller.cells
        out = [0.0] * self.n
        for share, child in zip(child_ratios, children):
            if share < 0.0:
                raise RatioError(f"negative share {share!r} for child {child.name!r}")
            if share == 0.0:
                continue
            if _remote_descendants(child):
                # A remote child has no local leaves — silently dropping
                # its share would misreport where energy is drawn from.
                # Control of remote cells goes through the directory's
                # SDB calls, never through a local ratio vector.
                raise RatioError(
                    f"child {child.name!r} is (or contains) a remote battery; "
                    f"local ratio shares cannot be routed to it"
                )
            leaves = child.leaf_indices()
            weights = [cells[i].usable_charge_c for i in leaves]
            total = sum(weights)
            if total <= 0.0:
                weights = [1.0] * len(leaves)
                total = float(len(leaves))
            for index, weight in zip(leaves, weights):
                out[index] += share * weight / total
        return out

    # ------------------------------------------------------------------ #
    # Tenant accounting
    # ------------------------------------------------------------------ #

    def account(self, t: float, dt: float, demands: Mapping[str, float]) -> float:
        """Run one admission sample across every splitter; total admitted W.

        ``demands`` maps tenant name -> demanded watts. Unknown names
        raise (a misrouted tenant is a configuration bug, not load to
        drop silently); tenants without an entry demand zero.
        """
        known = {tenant.name for splitter in self._splitters for tenant in splitter.tenants}
        unknown = sorted(set(demands) - known)
        if unknown:
            raise KeyError(f"demands for unknown tenant(s): {', '.join(unknown)}")
        tracer = self._tracer_provider()
        admitted = 0.0
        for splitter in self._splitters:
            admitted += splitter.account(t, dt, demands, tracer)
        return admitted

    # ------------------------------------------------------------------ #
    # Checkpointing / identity
    # ------------------------------------------------------------------ #

    def signature(self) -> Dict:
        """A JSON-safe structural identity, for the config digest."""

        def describe(node: BatteryNode) -> Dict:
            entry: Dict = {"name": node.name, "kind": node.kind}
            if isinstance(node, PhysicalBattery):
                entry["index"] = node.index
            elif isinstance(node, RemoteBattery):
                entry["device"] = node.device_id
            elif isinstance(node, SplitterBattery):
                entry["source"] = describe(node.source)
                entry["contracts"] = [asdict(tenant.contract) for tenant in node.tenants]
            else:
                entry["children"] = [describe(child) for child in node.children]
            return entry

        return {"n": self.n, "root": describe(self.root)}

    def capture(self) -> Dict:
        """Serializable snapshot of all mutable DAG state (tenant credit)."""
        return {"splitters": {splitter.name: splitter.capture() for splitter in self._splitters}}

    def restore(self, data: Mapping) -> None:
        """Apply a :meth:`capture` snapshot back onto this DAG."""
        saved = data["splitters"]
        for splitter in self._splitters:
            if splitter.name not in saved:
                raise KeyError(f"checkpoint has no state for splitter {splitter.name!r}")
            splitter.restore(saved[splitter.name])
