import math

import numpy as np
import pytest

from harvestsched import (
    Schedule,
    check_feasibility,
    pronto,
    ptf,
    score,
    sg_tdma,
    user_priority,
    virtual_harvests,
)
from harvestsched import heuristics
from harvestsched.structure import staircase_powers

from conftest import make_instance, oracle_rate


class TestSgTdma:
    def test_round_robin_two_by_two(self, row1_instance):
        sched = sg_tdma(row1_instance)
        np.testing.assert_allclose(sched.powers_p, [0.05, 5.0])
        np.testing.assert_allclose(sched.shares_tau, [[10.0, 0.0], [0.0, 10.0]])
        assert check_feasibility(row1_instance, sched) == []

    def test_spend_what_you_get_powers(self):
        inst = make_instance([60.0, 20.0], [19.0, 22.0])
        np.testing.assert_allclose(sg_tdma(inst).powers_p, [6.0, 2.0])

    def test_wraps_over_users(self):
        inst = make_instance([10.0] * 5, [13.0, 16.0])
        sched = sg_tdma(inst)
        np.testing.assert_allclose(sched.shares_tau[0], [10, 0, 10, 0, 10])
        np.testing.assert_allclose(sched.shares_tau[1], [0, 10, 0, 10, 0])

    def test_causality_with_equality(self):
        inst = make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19, 22, 25])
        sched = sg_tdma(inst)
        spend = np.cumsum(sched.powers_p) * inst.slot_length_t
        np.testing.assert_allclose(spend, inst.cum_harvests)
        assert check_feasibility(inst, sched) == []


class TestUserPriority:
    def test_orders_by_gain_then_index(self):
        inst = make_instance([1.0], [13.0, 17.0, 10.0, 12.0, 20.0])
        assert user_priority(inst) == (2, 3, 0, 1, 4)

    def test_tie_breaks_by_index(self):
        inst = make_instance([1.0], [15.0, 12.0, 12.0])
        assert user_priority(inst) == (1, 2, 0)


class TestPtf:
    def test_shares_staircase_powers(self):
        inst = make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0])
        np.testing.assert_array_equal(
            ptf(inst).powers_p, virtual_harvests(inst) / inst.slot_length_t
        )
        np.testing.assert_array_equal(ptf(inst).powers_p, staircase_powers(inst))

    def test_reference_two_slot_assignment(self, row1_instance):
        # slot 0 goes to the higher-rate user; in slot 1 the untouched user
        # has ratio 1 and must win
        sched = ptf(row1_instance)
        np.testing.assert_allclose(sched.shares_tau, [[10.0, 0.0], [0.0, 10.0]])
        # user 0's beta in slot 1 is 0.8949, below the untouched user 1's 1
        b00, b01 = (10 * oracle_rate(19.0, p) for p in sched.powers_p)
        assert score(row1_instance, sched).per_user_bits[0] == pytest.approx(b00, rel=1e-9)
        assert b01 / (b00 + b01) == pytest.approx(0.8949, abs=2e-4)

    def test_constant_powers_round_robin(self):
        inst = make_instance([10.0] * 6, [19.0, 22.0, 25.0])
        assert ptf(inst).shares_tau.argmax(axis=0).tolist() == [0, 1, 2, 0, 1, 2]
        rep = score(inst, ptf(inst))
        assert rep.feasible and math.isfinite(rep.utility_u)

    def test_single_user_takes_everything(self):
        inst = make_instance([5.0, 1.0, 9.0], [19.0])
        sched = ptf(inst)
        np.testing.assert_allclose(sched.shares_tau, [[10.0, 10.0, 10.0]])

    def test_every_user_served_when_enough_slots(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(n, 13))
            harvests = rng.uniform(0.2, 60, size=k)
            inst = make_instance(harvests, list(rng.uniform(1, 35, size=n)))
            owners = ptf(inst).shares_tau.argmax(axis=0)
            assert set(owners.tolist()) == set(range(n))

    def test_regular_profile_owners(self):
        # four users fill the first two rounds in order; after that the beta
        # rule departs from round-robin
        inst = make_instance([73, 65, 9, 19, 40, 37, 22, 84, 39, 67, 81, 100], [13, 16, 19, 22])
        owners = ptf(inst).shares_tau.argmax(axis=0).tolist()
        assert owners == [0, 1, 2, 3, 0, 1, 2, 3, 2, 1, 3, 0]

    def test_energy_causality_with_slack(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            k = int(rng.integers(2, 13))
            harvests = rng.uniform(0, 50, size=k)
            if not np.any(harvests > 0):
                harvests[0] = 1.0
            inst = make_instance(harvests, [19.0, 22.0])
            sched = ptf(inst)
            slack = inst.cum_harvests - np.cumsum(sched.powers_p) * inst.slot_length_t
            assert np.all(slack >= -1e-9 * inst.total_harvest)

    def test_starvation_repair_flag(self):
        # more users than slots: someone must starve; the repair grants the
        # minimum share out of the starved user's best slot
        inst = make_instance([10.0, 10.0], [19.0, 22.0, 25.0])
        bare = score(inst, ptf(inst))
        assert bare.utility_u == -math.inf
        repaired = score(inst, ptf(inst, min_share=True))
        assert math.isfinite(repaired.utility_u)
        assert all(v.constraint != "min_share" for v in repaired.violations)


class TestPronto:
    def test_worked_example_blocks(self):
        # twelve slots, five users with losses 13/17/10/12/20 dB: the two
        # best-channel users get three slots each, the rest two, in priority
        # order from the first slot
        inst = make_instance([10.0] * 12, [13.0, 17.0, 10.0, 12.0, 20.0])
        sched = pronto(inst)
        T = inst.slot_length_t
        owners = [int(np.argmax(sched.shares_tau[:, t])) for t in range(12)]
        assert owners == [2, 2, 2, 3, 3, 3, 0, 0, 1, 1, 4, 4]
        np.testing.assert_allclose(sched.shares_tau.sum(axis=0), np.full(12, T))

    def test_equal_counts_when_divisible(self):
        inst = make_instance([10.0] * 4, [22.0, 19.0, 25.0, 28.0])
        sched = pronto(inst)
        owners = [int(np.argmax(sched.shares_tau[:, t])) for t in range(4)]
        assert owners == [1, 0, 2, 3]  # best channel first

    def test_ten_slots_two_users(self):
        inst = make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0])
        sched = pronto(inst)
        np.testing.assert_allclose(sched.shares_tau[0, :5], np.full(5, 10.0))
        np.testing.assert_allclose(sched.shares_tau[1, 5:], np.full(5, 10.0))

    def test_requires_enough_slots(self):
        inst = make_instance([10.0] * 10, list(range(19, 19 + 3 * 11, 3)))
        with pytest.raises(ValueError, match="K < N"):
            pronto(inst)

    def test_block_shape_properties(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(n, 14))
            inst = make_instance(rng.uniform(0.5, 50, size=k), list(rng.uniform(1, 35, size=n)))
            sched = pronto(inst)
            owned = (sched.shares_tau > 0).sum(axis=1)
            assert owned.sum() == k
            assert owned.max() - owned.min() <= 1
            order = user_priority(inst)
            sizes = [owned[u] for u in order]
            assert sizes == sorted(sizes, reverse=True)  # bigger blocks to better channels
            assert np.all(owned >= 1)
            assert math.isfinite(score(inst, sched).utility_u)

    def test_shares_staircase_powers(self):
        inst = make_instance([90, 2, 0.5, 0.1, 0.3, 0.7, 40, 60], [19.0, 22.0])
        np.testing.assert_array_equal(pronto(inst).powers_p, staircase_powers(inst))


@pytest.mark.parametrize(
    "heuristic",
    [sg_tdma, ptf, lambda inst: ptf(inst, min_share=True), pronto],
    ids=["sg_tdma", "ptf", "ptf-min-share", "pronto"],
)
def test_schedule_keeps_the_heuristic_arrays(heuristic, monkeypatch):
    # read-only arrays let the Schedule keep them instead of copying
    built = []

    def recorded(powers_p, shares_tau):
        built.append((powers_p, shares_tau))
        return Schedule(powers_p=powers_p, shares_tau=shares_tau)

    monkeypatch.setattr(heuristics, "Schedule", recorded)
    inst = make_instance([20.0, 0.0, 1.0, 70.0, 100.0, 10.0], [19.0, 22.0, 25.0])
    sched = heuristic(inst)
    (powers, shares), = built
    assert sched.powers_p is powers
    assert sched.shares_tau is shares
