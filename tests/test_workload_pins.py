"""What each bundled scenario, fleet device and sweep run *is*, pinned.

The bundled day scenarios are fleet workloads at fixed seeds, and every
scenario, fleet device and sweep run is built by one constructor
(``repro.fleet.spec.build_emulator``). The pins were computed with the
separate scenario table and per-path constructors that preceded the
shared ones, so a change to the table or the constructor that alters
what a name means (a different trace, pack, engine, protection or DAG)
fails here. Each pin is a SHA-256 over the trace segments plus the
``emulator_config_digest`` (reference engine, dt 60 s).
"""

import hashlib
import json

import pytest

from repro.checkpoint import emulator_config_digest
from repro.experiments.sweep import SWEEP_POLICIES, SweepSpec, build_run_emulator
from repro.fleet import FLEET_SCENARIOS, FleetSpec, build_device_emulator
from repro.obs.scenarios import SCENARIOS, build_scenario


def trace_sha(emulator) -> str:
    segments = [[s.start_s, s.duration_s, s.power_w] for s in emulator.trace.segments]
    return hashlib.sha256(json.dumps(segments).encode("utf-8")).hexdigest()


def pins(emulator):
    return [trace_sha(emulator), emulator_config_digest(emulator)]


SCENARIO_PINS = {
    ("chaos-tablet", "off"): [
        "f5e1f31903a1c0ea3aeba9d5fe52887151246d5095e067f3453f94313bce944e",
        "7a4a345d6770e01db2b8f06db4a1958ee45a093e9c8f85928c4d7637d74e2b0c",
    ],
    ("chaos-tablet", "enforce"): [
        "f5e1f31903a1c0ea3aeba9d5fe52887151246d5095e067f3453f94313bce944e",
        "8091e73065eaf4e368b6cdb213476aa95726568651b213e8c14bf91ec535e8e6",
    ],
    ("gauge-fault-tablet", "off"): [
        "f5e1f31903a1c0ea3aeba9d5fe52887151246d5095e067f3453f94313bce944e",
        "645af8d0fb6c42d2126ef19e7cff89ceaff06a5ceae889618d4eee3d05337875",
    ],
    ("gauge-fault-tablet", "enforce"): [
        "f5e1f31903a1c0ea3aeba9d5fe52887151246d5095e067f3453f94313bce944e",
        "71f4680ba8109e4bd9b1161e6e781adb6625d5263fe36a114bde386eea32bc08",
    ],
    ("phone-day", "off"): [
        "3f80763784b6217e602bdb316eb7593921c28b1576ef9a657763bc440e1252b6",
        "ed73db82730bf30ef7f1d1d6b857598dbf41b5a7ef255246c6c096dbdcbbdbb8",
    ],
    ("phone-day", "enforce"): [
        "3f80763784b6217e602bdb316eb7593921c28b1576ef9a657763bc440e1252b6",
        "0be950dd8235ea5cc5dd114e3c3b8b585c73a925f0e07b638672b274ed53f44c",
    ],
    ("tablet-day", "off"): [
        "f5e1f31903a1c0ea3aeba9d5fe52887151246d5095e067f3453f94313bce944e",
        "0d20cde778826cd830647ebc28999f7ff7aef0a95f51074fce0c5a2946613bda",
    ],
    ("tablet-day", "enforce"): [
        "f5e1f31903a1c0ea3aeba9d5fe52887151246d5095e067f3453f94313bce944e",
        "47a0535f766c42a11bdbdbb06df8c23134615711b397c8c2cc9aeb4442a6d7b4",
    ],
    ("tenants-tablet", "off"): [
        "293635efbbe5b1cd5b3a118cdd95bd3532860d8e5bd6a85db9ed96946104d20e",
        "4ebdd56899efff267e67ead7f44fe1d499c50e6c1096c058247099e9441c32ae",
    ],
    ("tenants-tablet", "enforce"): [
        "293635efbbe5b1cd5b3a118cdd95bd3532860d8e5bd6a85db9ed96946104d20e",
        "a4d0a027353b0974339b47c0037fc8751a7eed87541fed1809f0eaee22f1bf88",
    ],
    ("watch-day", "off"): [
        "febeed38f3dc757bf19cfb371bace7742130a7b0661f6390c291e730c8d2ef94",
        "5c38b9d07ccab300774db0f48b708521d0bdbd009cf6061ff30b519157373824",
    ],
    ("watch-day", "enforce"): [
        "febeed38f3dc757bf19cfb371bace7742130a7b0661f6390c291e730c8d2ef94",
        "d3389386bed1f97b148ae87ecfaf95b578c514125ba5bc9601cead9ebd3e6ef4",
    ],
}

DEVICE_PINS = {
    "phone-day": [
        "c451803f6ea71d4b3c8f5bc9c822cbe464665954c8d1b495ad49955f8362090d",
        "13942f6fd49ccefa1e9a0e044bbe5ad87d9937f55026594194f8badad9ee012e",
    ],
    "tablet-day": [
        "d91dd375bde0411123451e9121086a3b78fd310cc37054b15616209114b26754",
        "2b3d7bbb088c5bf82653aad039e0ed2f18ee317d2a91399dce530b9fbb4a7203",
    ],
    "watch-day": [
        "39ce773cf4108d8fc5fe7023af81217a78932cee9c0182e834b359081d6f1ac4",
        "3e42b3ab3a8e74d543f575f4c5d693b933db31ed9c846eaf16ace6e7997fee09",
    ],
}

RUN_PINS = {
    "even-split": [
        "39ce773cf4108d8fc5fe7023af81217a78932cee9c0182e834b359081d6f1ac4",
        "3e42b3ab3a8e74d543f575f4c5d693b933db31ed9c846eaf16ace6e7997fee09",
    ],
    "proportional": [
        "33684d40cd734b69283925c976f8e71574820981f23e56bcc7ea0a1ee82300cf",
        "ebf95762fd57c86efb14902db4dff3e505a4e4c9eed77f74287656886ea6d9de",
    ],
    "single": [
        "fb7373d5fcc12658d150b904066940e5a26ee5b3b5a8125122c8c4707e2c1928",
        "21bdbc92b3ef3b288e9246f3874466fc039080278b12e16716d845f61ae8e475",
    ],
    "either-or": [
        "16e9cc24cc3dc759be98856bda179a9a5093b19a891f74ab5d9405f0aa8321be",
        "bbf9d6938456b1ca440bd319e53dbbaa31495c7d5c6dfb114ed19489f61b00a0",
    ],
    "blended": [
        "b0b48a0edfd2c5a8f73058647b0c86f01dd0a6c74ca4418faf9553cace9d355c",
        "f6de3eaed8f19b3546901e80f26fc52df2d536ec099bef2ab3674ef90164d017",
    ],
}


@pytest.mark.parametrize("protection", ["off", "enforce"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_scenario_is_pinned(name, protection):
    emulator = build_scenario(name, dt_s=60.0, protection=protection)
    assert pins(emulator) == SCENARIO_PINS[name, protection]


@pytest.mark.parametrize("scenario", sorted(FLEET_SCENARIOS))
def test_fleet_device_is_pinned(scenario):
    spec = FleetSpec(population=((scenario, 1),), seed=5)
    device = spec.devices()[0]
    assert pins(build_device_emulator(device, spec.config_dict())) == DEVICE_PINS[scenario]


def test_sweep_run_per_policy_is_pinned():
    spec = SweepSpec(
        scenarios=("watch-day",), policies=tuple(SWEEP_POLICIES), seed=5, engine="reference"
    )
    assert {run.policy: pins(build_run_emulator(spec, run)) for run in spec.runs()} == RUN_PINS
