"""Tests for repro.core.policies."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell import new_cell
from repro.core.metrics import instantaneous_loss_w
from repro.core.policies import (
    BlendedChargePolicy,
    BlendedDischargePolicy,
    CCBChargePolicy,
    CCBDischargePolicy,
    EitherOrDischargePolicy,
    EvenSplitChargePolicy,
    EvenSplitDischargePolicy,
    OracleDischargePolicy,
    PreserveDischargePolicy,
    ProportionalToCapacityDischargePolicy,
    RBLChargePolicy,
    RBLDischargePolicy,
    SingleBatteryDischargePolicy,
)
from repro.core.policies.base import mix_ratios, normalize
from repro.core.policies.ccb import waterfill_wear, wear_rate_per_watt
from repro.errors import PolicyError


def hetero_cells(soc=0.8):
    """A Type 2 phone cell + a Type 4 bendable cell (the Fig 13 pairing)."""
    return [new_cell("B06", soc=soc), new_cell("B01", soc=soc)]


def assert_valid_ratios(ratios, n):
    assert len(ratios) == n
    assert all(r >= 0 for r in ratios)
    assert sum(ratios) == pytest.approx(1.0)


class TestHelpers:
    def test_normalize(self):
        assert normalize([1, 3]) == [0.25, 0.75]

    def test_normalize_rejects_all_zero(self):
        with pytest.raises(PolicyError):
            normalize([0.0, 0.0])

    def test_mix_ratios_convex(self):
        mixed = mix_ratios([1.0, 0.0], [0.0, 1.0], 0.25)
        assert mixed == pytest.approx([0.75, 0.25])

    def test_mix_ratios_validates(self):
        with pytest.raises(ValueError):
            mix_ratios([1.0], [0.5, 0.5], 0.5)
        with pytest.raises(ValueError):
            mix_ratios([1.0, 0.0], [0.0, 1.0], 1.5)


class TestRBLDischarge:
    def test_prefers_low_resistance_battery(self):
        cells = hetero_cells()
        ratios = RBLDischargePolicy().discharge_ratios(cells, 1.0)
        assert_valid_ratios(ratios, 2)
        assert ratios[0] > 0.9  # Li-ion carries nearly everything

    def test_equal_batteries_split_evenly(self):
        cells = [new_cell("B06", soc=0.7), new_cell("B06", soc=0.7)]
        ratios = RBLDischargePolicy().discharge_ratios(cells, 2.0)
        assert ratios[0] == pytest.approx(0.5, abs=0.01)

    def test_beats_even_split_on_loss(self):
        """The defining property: RBL's allocation loses less power."""
        cells = hetero_cells()
        load = 2.0
        rbl = RBLDischargePolicy().discharge_ratios(cells, load)
        even = [0.5, 0.5]
        rbl_loss = instantaneous_loss_w(cells, [load * r for r in rbl])
        even_loss = instantaneous_loss_w(cells, [load * r for r in even])
        assert rbl_loss < even_loss

    def test_empty_battery_excluded(self):
        cells = hetero_cells()
        cells[0].reset(0.0)
        ratios = RBLDischargePolicy().discharge_ratios(cells, 0.5)
        assert ratios[0] == 0.0
        assert ratios[1] == pytest.approx(1.0)

    def test_all_empty_raises(self):
        cells = hetero_cells(soc=0.0)
        with pytest.raises(PolicyError):
            RBLDischargePolicy().discharge_ratios(cells, 1.0)

    def test_slope_lookahead_shifts_away_from_steep_cells(self):
        """With a long lookahead, a nearly-empty cell (steep DCIR region)
        is taxed harder than its instantaneous resistance suggests."""
        low = new_cell("B06", soc=0.15)
        high = new_cell("B06", soc=0.95)
        none = RBLDischargePolicy(slope_lookahead_s=0.0).discharge_ratios([low, high], 2.0)
        long = RBLDischargePolicy(slope_lookahead_s=3600.0).discharge_ratios([low, high], 2.0)
        assert long[0] < none[0]

    def test_current_caps_respected(self):
        """A tiny bendable cell cannot carry a 1/R share of a heavy load."""
        cells = [new_cell("B12", soc=0.9), new_cell("B10", soc=0.9)]
        ratios = RBLDischargePolicy().discharge_ratios(cells, 15.0)
        # B12 is 200 mAh with 2.5C limit = 0.5 A -> at most ~2 W of ~15.
        assert ratios[0] < 0.15

    def test_rejects_negative_lookahead(self):
        with pytest.raises(ValueError):
            RBLDischargePolicy(slope_lookahead_s=-1.0)


class TestRBLCharge:
    def test_prefers_low_resistance_battery(self):
        cells = hetero_cells(soc=0.3)
        ratios = RBLChargePolicy().charge_ratios(cells, 5.0)
        assert_valid_ratios(ratios, 2)
        assert ratios[0] > 0.8

    def test_full_battery_excluded(self):
        cells = hetero_cells(soc=0.3)
        cells[0].reset(1.0)
        ratios = RBLChargePolicy().charge_ratios(cells, 5.0)
        assert ratios[0] == 0.0

    def test_all_full_raises(self):
        cells = hetero_cells(soc=1.0)
        with pytest.raises(PolicyError):
            RBLChargePolicy().charge_ratios(cells, 5.0)


class TestCCB:
    def test_fresh_cells_weighted_by_wear_capacity(self):
        """Fresh equal cells split evenly."""
        cells = [new_cell("B06", soc=0.8), new_cell("B06", soc=0.8)]
        ratios = CCBDischargePolicy().discharge_ratios(cells, 2.0)
        assert ratios[0] == pytest.approx(0.5, abs=0.02)

    def test_worn_battery_spared_on_discharge(self):
        cells = [new_cell("B06", soc=0.8), new_cell("B06", soc=0.8)]
        cells[0].aging.state.throughput_c = 200 * 2 * cells[0].params.capacity_c
        ratios = CCBDischargePolicy().discharge_ratios(cells, 2.0)
        assert ratios[0] < 0.1
        assert ratios[1] > 0.9

    def test_worn_battery_spared_on_charge(self):
        cells = [new_cell("B06", soc=0.3), new_cell("B06", soc=0.3)]
        cells[1].aging.state.throughput_c = 200 * 2 * cells[1].params.capacity_c
        ratios = CCBChargePolicy().charge_ratios(cells, 10.0)
        assert ratios[1] < 0.1

    def test_discharging_under_ccb_converges_wear(self):
        """Following CCB-Discharge for a while shrinks the wear gap."""
        cells = [new_cell("B06"), new_cell("B06")]
        cells[0].aging.state.throughput_c = 5 * 2 * cells[0].params.capacity_c
        policy = CCBDischargePolicy()
        from repro.core.metrics import cycle_count_balance, wear_ratios

        before = cycle_count_balance(wear_ratios(cells))
        for _ in range(200):
            ratios = policy.discharge_ratios(cells, 4.0)
            for cell, r in zip(cells, ratios):
                if r > 0 and not cell.is_empty:
                    cell.step_discharge_power(4.0 * r, 30.0)
        after = cycle_count_balance(wear_ratios(cells))
        assert after < before

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            CCBDischargePolicy(horizon_s=0.0)
        with pytest.raises(ValueError):
            CCBChargePolicy(horizon_s=-1.0)

    def test_all_empty_raises(self):
        with pytest.raises(PolicyError):
            CCBDischargePolicy().discharge_ratios(hetero_cells(soc=0.0), 1.0)


def bisect_waterfill(cells, total_w, caps_w, horizon_s):
    """The oracle: waterfill_wear as a 60-step bisection that sums every
    battery's allotment at each midpoint (the search the water level
    replaced)."""
    n = len(cells)
    lambdas = [cell.aging.throughput_wear for cell in cells]
    rates = [wear_rate_per_watt(cell) for cell in cells]

    def power_at(level):
        powers = []
        for i in range(n):
            if caps_w[i] <= 0.0:
                powers.append(0.0)
                continue
            p = (level - lambdas[i]) / (rates[i] * horizon_s)
            powers.append(min(max(p, 0.0), caps_w[i]))
        return powers

    if sum(caps_w) <= 0.0 or not any(cap > 0.0 for cap in caps_w):
        raise PolicyError("no battery can accept power")
    total_capacity = sum(caps_w)
    demand = min(total_w, total_capacity)
    lo = min(lambdas)
    hi = max(lambdas) + max(rates[i] * horizon_s * caps_w[i] for i in range(n) if caps_w[i] > 0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sum(power_at(mid)) >= demand:
            hi = mid
        else:
            lo = mid
    return power_at(hi)


def allocation_bits(allocate, *args):
    """The allocation as packed float bits (so NaN equals NaN), or the error."""
    try:
        return [struct.pack("<d", p) for p in allocate(*args)]
    except Exception as exc:  # the oracle's errors are part of the contract
        return (type(exc), str(exc))


#: The batteries benchmarks/test_policy_overhead.py times.
BATTERY_IDS = ("B06", "B03", "B09", "B14", "B05", "B10", "B01", "B12")


@st.composite
def waterfill_packs(draw):
    """1-8 cells with zero, equal or mixed wears, zero and NaN caps, and a
    demand below, at or above the total capacity, or not positive."""
    n = draw(st.integers(1, 8))
    wears = draw(st.sampled_from(["zero", "equal", "mixed"]))
    if wears == "equal":
        ids = [draw(st.sampled_from(BATTERY_IDS))] * n
        socs = [draw(st.floats(0.05, 1.0))] * n
    else:
        ids = draw(st.lists(st.sampled_from(BATTERY_IDS), min_size=n, max_size=n))
        socs = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    cells = [new_cell(bid, soc=soc) for bid, soc in zip(ids, socs)]
    cycles = st.one_of(st.just(0.0), st.floats(0.0, 300.0))
    shared = draw(cycles)
    for cell in cells:
        if wears != "zero":
            used = shared if wears == "equal" else draw(cycles)
            cell.aging.state.throughput_c = used * 2.0 * cell.params.capacity_c
    caps = draw(st.lists(
        st.one_of(st.just(0.0), st.just(math.nan), st.floats(0.01, 20.0)), min_size=n, max_size=n
    ))
    total = sum(caps) if math.isfinite(sum(caps)) else 10.0
    demand = draw(st.one_of(
        st.floats(0.0, 1.0).map(lambda f: f * total),
        st.just(sum(caps)),
        st.floats(1.0, 3.0).map(lambda f: f * total),
        st.sampled_from([0.0, -1.0]),
    ))
    horizon = draw(st.one_of(st.just(3600.0), st.floats(60.0, 86400.0)))
    return cells, demand, caps, horizon


class TestWaterfillOracle:
    @given(waterfill_packs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sixty_step_bisection_bit_for_bit(self, pack):
        assert allocation_bits(waterfill_wear, *pack) == allocation_bits(bisect_waterfill, *pack)

    @pytest.mark.parametrize(
        "caps", [[math.nan], [math.nan, 0.0], [math.nan, -1.0]], ids=["nan", "nan-zero", "nan-negative"]
    )
    def test_no_cap_above_zero_is_a_policy_error(self, caps):
        """A NaN cap is not <= 0, so it passes the sum check, yet no
        battery can take power: a resilient runtime degrades on a PolicyError."""
        cells = [new_cell(bid, soc=0.5) for bid in ("B06", "B03")[: len(caps)]]
        with pytest.raises(PolicyError, match="no battery can accept power"):
            waterfill_wear(cells, 1.0, caps, 3600.0)


class TestBlended:
    def test_directive_zero_matches_ccb(self):
        cells = hetero_cells()
        blended = BlendedDischargePolicy(directive=0.0)
        assert blended.discharge_ratios(cells, 1.0) == pytest.approx(
            blended.ccb.discharge_ratios(cells, 1.0)
        )

    def test_directive_one_matches_rbl(self):
        cells = hetero_cells()
        blended = BlendedDischargePolicy(directive=1.0)
        assert blended.discharge_ratios(cells, 1.0) == pytest.approx(
            blended.rbl.discharge_ratios(cells, 1.0)
        )

    def test_set_directive_validates(self):
        blended = BlendedDischargePolicy()
        with pytest.raises(ValueError):
            blended.set_directive(1.5)

    def test_charge_blend_moves_with_directive(self):
        cells = [new_cell("B06", soc=0.3), new_cell("B01", soc=0.3)]
        low = BlendedChargePolicy(directive=0.0).charge_ratios(cells, 5.0)
        high = BlendedChargePolicy(directive=1.0).charge_ratios(cells, 5.0)
        assert low != pytest.approx(high)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_blend_always_valid(self, p):
        cells = hetero_cells()
        ratios = BlendedDischargePolicy(directive=p).discharge_ratios(cells, 1.0)
        assert_valid_ratios(ratios, 2)


class TestBaselines:
    def test_single_battery_policy(self):
        cells = hetero_cells()
        ratios = SingleBatteryDischargePolicy(1).discharge_ratios(cells, 1.0)
        assert ratios == [0.0, 1.0]

    def test_single_battery_falls_back_when_empty(self):
        cells = hetero_cells()
        cells[1].reset(0.0)
        ratios = SingleBatteryDischargePolicy(1).discharge_ratios(cells, 1.0)
        assert ratios == [1.0, 0.0]

    def test_even_split(self):
        ratios = EvenSplitDischargePolicy().discharge_ratios(hetero_cells(), 1.0)
        assert ratios == [0.5, 0.5]

    def test_even_split_skips_empty(self):
        cells = hetero_cells()
        cells[0].reset(0.0)
        assert EvenSplitDischargePolicy().discharge_ratios(cells, 1.0) == [0.0, 1.0]

    def test_even_charge_skips_full(self):
        cells = hetero_cells(soc=0.5)
        cells[1].reset(1.0)
        assert EvenSplitChargePolicy().charge_ratios(cells, 1.0) == [1.0, 0.0]

    def test_proportional_to_capacity(self):
        big = new_cell("B10")  # 5000 mAh
        small = new_cell("B12")  # 200 mAh
        ratios = ProportionalToCapacityDischargePolicy().discharge_ratios([big, small], 1.0)
        assert ratios[0] == pytest.approx(5000 / 5200, rel=0.01)

    def test_either_or_order(self):
        cells = hetero_cells()
        policy = EitherOrDischargePolicy([1, 0])
        assert policy.discharge_ratios(cells, 1.0) == [0.0, 1.0]
        cells[1].reset(0.0)
        assert policy.discharge_ratios(cells, 1.0) == [1.0, 0.0]

    def test_either_or_all_empty_raises(self):
        cells = hetero_cells(soc=0.0)
        with pytest.raises(PolicyError):
            EitherOrDischargePolicy([0, 1]).discharge_ratios(cells, 1.0)

    def test_either_or_validates_order(self):
        with pytest.raises(ValueError):
            EitherOrDischargePolicy([])
        with pytest.raises(ValueError):
            EitherOrDischargePolicy([0, 0])


class TestPreserve:
    def test_low_load_spares_preserved_battery(self):
        cells = hetero_cells()
        ratios = PreserveDischargePolicy(0).discharge_ratios(cells, 0.1)
        assert ratios[0] == 0.0

    def test_high_load_taps_preserved_battery(self):
        cells = hetero_cells()
        ratios = PreserveDischargePolicy(0).discharge_ratios(cells, 3.0)
        assert ratios[0] > 0.5

    def test_preserved_takes_over_when_others_empty(self):
        cells = hetero_cells()
        cells[1].reset(0.0)
        ratios = PreserveDischargePolicy(0).discharge_ratios(cells, 0.1)
        assert ratios[0] == pytest.approx(1.0)

    def test_out_of_range_index(self):
        with pytest.raises(PolicyError):
            PreserveDischargePolicy(5).discharge_ratios(hetero_cells(), 1.0)


class TestOracle:
    def test_preserves_while_high_power_work_ahead(self):
        cells = hetero_cells()
        # Future high-power episodes need a sizable fraction of the
        # efficient battery's remaining energy -> preserve it.
        oracle = OracleDischargePolicy(lambda t: 20_000.0, efficient_index=0)
        ratios = oracle.discharge_ratios(cells, 0.1, t=0.0)
        assert ratios[0] == 0.0

    def test_reverts_to_rbl_when_nothing_ahead(self):
        cells = hetero_cells()
        oracle = OracleDischargePolicy(lambda t: 0.0, efficient_index=0)
        ratios = oracle.discharge_ratios(cells, 0.1, t=0.0)
        assert ratios[0] > 0.9

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            OracleDischargePolicy(lambda t: 0.0, 0, reserve_margin=0.5)
