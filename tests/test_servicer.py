"""The one servicer for the four SDB calls, on a real device runtime.

:func:`repro.serve.protocol.apply_call` checks and applies every call
that reaches a device, for the battery node (``RuntimeBackend``) and for
the serving fleet's shard worker (``_Servicer``) alike. These tests pin
its argument checks on a live ``watch-day`` runtime and show that both
callers give the same answer to the same wire dict.
"""

import math
import queue

import pytest

from repro.fleet.spec import DeviceSpec, build_device_emulator
from repro.fleet.worker import _Servicer
from repro.net.node import RuntimeBackend
from repro.serve.protocol import apply_call

DEVICE = "watch-day-00000"


def watch_emulator():
    return build_device_emulator(
        DeviceSpec(DEVICE, "watch-day", 0, 7), {"duration_s": 600.0, "dt_s": 1.0}
    )


def installed(runtime):
    controller = runtime.controller
    return (
        list(controller.discharge_ratios),
        list(controller.charge_ratios),
        [profile.name for profile in controller.profiles],
    )


BAD_CALLS = {
    "nan-discharge": {"op": "SetDischarge", "ratios": [math.nan, 1.0]},
    "inf-charge": {"op": "SetCharge", "ratios": [math.inf, 0.0]},
    "int-beyond-float": {"op": "SetDischarge", "ratios": [10**400, 0]},
    "scalar-ratios": {"op": "SetDischarge", "ratios": 5},
    "bool-ratios": {"op": "SetCharge", "ratios": True},
    "empty-ratios": {"op": "SetCharge", "ratios": []},
    "no-ratios": {"op": "SetDischarge"},
    "wrong-length": {"op": "SetDischarge", "ratios": [0.2, 0.3, 0.5]},
    "wrong-sum": {"op": "SetCharge", "ratios": [0.3, 0.6]},
    "negative": {"op": "SetDischarge", "ratios": [-0.5, 1.5]},
    "index-string": {"op": "SelectChargingProfile", "profile": "fast", "battery_index": "x"},
    "index-true": {"op": "SelectChargingProfile", "profile": "fast", "battery_index": True},
    "index-fraction": {"op": "SelectChargingProfile", "profile": "fast", "battery_index": 1.7},
    "index-range": {"op": "SelectChargingProfile", "profile": "fast", "battery_index": 2},
    "index-negative": {"op": "SelectChargingProfile", "profile": "fast", "battery_index": -1},
    "profile-unknown": {"op": "SelectChargingProfile", "profile": "turbo"},
    "profile-list": {"op": "SelectChargingProfile", "profile": ["fast"]},
    "profile-number": {"op": "SelectChargingProfile", "profile": 5},
    "profile-missing": {"op": "SelectChargingProfile"},
    "unknown-op": {"op": "EatBattery"},
}


@pytest.mark.parametrize("wire", list(BAD_CALLS.values()), ids=list(BAD_CALLS))
def test_bad_arguments_answer_bad_request_and_change_nothing(wire):
    runtime = watch_emulator().runtime
    runtime.apply_discharge([0.25, 0.75])
    before = installed(runtime)
    response = apply_call(runtime, dict(wire, device_id=DEVICE))
    assert not response.ok
    assert response.error == "bad_request" and response.retryable is False
    assert installed(runtime) == before


def test_good_calls_apply_and_echo():
    runtime = watch_emulator().runtime
    answer = apply_call(runtime, {"op": "SetDischarge", "ratios": [0.25, 0.75]})
    assert answer.ok and answer.result == {"applied": True, "ratios": [0.25, 0.75]}
    answer = apply_call(runtime, {"op": "SelectChargingProfile", "profile": "gentle", "battery_index": 1})
    assert answer.ok and answer.result == {"applied": True, "profile": "gentle"}
    assert installed(runtime) == ([0.25, 0.75], [0.5, 0.5], ["standard", "gentle"])
    statuses = apply_call(runtime, {"op": "QueryBatteryStatus"}).result["statuses"]
    assert len(statuses) == 2 and statuses[0]["soc"] == 1.0


WIRES = [
    {"op": "QueryBatteryStatus"},
    {"op": "SetDischarge", "ratios": [0.4, 0.6]},
    {"op": "SetCharge", "ratios": [1.0, 0.0]},
    {"op": "SelectChargingProfile", "profile": "fast"},
    {"op": "SelectChargingProfile", "profile": "gentle", "battery_index": 0},
    *BAD_CALLS.values(),
]


def test_node_backend_and_shard_servicer_answer_alike():
    """The same wire dicts through ``RuntimeBackend.handle`` and through an
    in-process ``_Servicer`` (plain queues, nothing spawned) get the same
    ``ok``, ``result`` and ``error``."""
    node_runtime = watch_emulator().runtime
    backend = RuntimeBackend(DEVICE, node_runtime)
    shard_emulator = watch_emulator()
    requests, responses = queue.Queue(), queue.Queue()
    servicer = _Servicer(
        requests, responses, 3, {"emulator": shard_emulator, "device_id": DEVICE}, {}
    )
    servicer.start()
    try:
        for k, wire in enumerate(WIRES):
            wire = dict(wire, device_id=DEVICE, request_id=f"r{k}")
            by_node = backend.handle(dict(wire))
            requests.put(dict(wire))
            by_shard = responses.get(timeout=5.0)
            assert by_shard["request_id"] == f"r{k}" and by_shard["shard"] == 3
            assert by_shard["device"] == DEVICE and by_shard["op"] == wire["op"]
            for key in ("ok", "result", "error"):
                assert by_node.get(key) == by_shard.get(key), (wire, key)
    finally:
        servicer.stop()
        servicer.join(timeout=2.0)
    assert not servicer.is_alive()
    assert installed(node_runtime) == installed(shard_emulator.runtime)
