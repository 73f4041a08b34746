"""Bench: OS-side policy computation cost.

Section 3's premise: "The charging and discharging hardware is designed
to be low-cost, and hence the algorithmic complexity of computing how
much power to draw from each battery ... is placed in the SDB software".
That is only viable if the per-update cost is negligible at the runtime's
coarse time steps — these benches measure exactly that, across policies
and battery counts.
"""

import pytest

from repro.cell import new_cell
from repro.core.policies import (
    BlendedDischargePolicy,
    CCBDischargePolicy,
    PreserveDischargePolicy,
    RBLDischargePolicy,
)

BATTERY_IDS = ("B06", "B03", "B09", "B14", "B05", "B10", "B01", "B12")


def make_cells(n):
    return [new_cell(bid, soc=0.5 + 0.05 * i) for i, bid in enumerate(BATTERY_IDS[:n])]


@pytest.mark.parametrize(
    "policy",
    [RBLDischargePolicy(), CCBDischargePolicy(), BlendedDischargePolicy(0.5), PreserveDischargePolicy(0)],
    ids=lambda p: type(p).__name__,
)
def test_policy_update_cost_two_batteries(benchmark, policy):
    cells = make_cells(2)
    ratios = benchmark(policy.discharge_ratios, cells, 3.0)
    assert sum(ratios) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_blend_scales_with_battery_count(benchmark, n):
    cells = make_cells(n)
    policy = BlendedDischargePolicy(0.5)
    ratios = benchmark(policy.discharge_ratios, cells, 3.0)
    assert len(ratios) == n
    if benchmark.stats is None:
        pytest.skip("benchmarking is off (--benchmark-disable), so no update was timed")
    # The runtime updates every ~60 s; anything under a millisecond per
    # update is four orders of magnitude of headroom.
    assert benchmark.stats.stats.mean < 1e-3
