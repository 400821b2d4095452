import math

import numpy as np
import pytest

from harvestsched import (
    Instance,
    Schedule,
    check_feasibility,
    improvement_pct,
    rate_matrix,
    score,
)

from conftest import make_instance, oracle_rate, oracle_utility


class TestInstance:
    def test_derived_gains(self):
        inst = make_instance([1.0], [19.0, 22.0])
        np.testing.assert_allclose(inst.norm_gains, [12.58925411794167, 6.309573444801933])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_instance([], [19.0])
        with pytest.raises(ValueError):
            make_instance([0.0, 0.0], [19.0])
        with pytest.raises(ValueError):
            make_instance([-1.0, 2.0], [19.0])
        with pytest.raises(ValueError):
            make_instance([1.0], [])
        with pytest.raises(ValueError):
            Instance(0.0, 1e-6, 10.0, [1.0], [19.0])
        with pytest.raises(ValueError):
            make_instance([1.0], [19.0], epsilon_share=20.0)
        with pytest.raises(ValueError):
            make_instance([1.0], [19.0, float("nan")])

    def test_default_epsilon(self):
        inst = make_instance([1.0], [19.0])
        assert inst.epsilon_share == pytest.approx(1e-8)

    def test_arrays_read_only(self):
        inst = make_instance([1.0, 2.0], [19.0])
        with pytest.raises(ValueError):
            inst.harvests_e[0] = 5.0


class TestSchedule:
    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            Schedule([1.0, 2.0], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            Schedule([float("inf")], [[1.0]])

    def test_copies_writable_input(self):
        # the schedule never aliases a caller's writable buffer, not even
        # through a read-only view of it
        powers = np.array([1.0, 2.0])
        shares = np.array([[4.0, 5.0], [6.0, 5.0]])
        view = shares[:]
        view.setflags(write=False)
        sched = Schedule(powers, view)
        powers[0] = 9.0
        shares[0, 0] = 9.0
        np.testing.assert_array_equal(sched.powers_p, [1.0, 2.0])
        np.testing.assert_array_equal(sched.shares_tau, [[4.0, 5.0], [6.0, 5.0]])
        assert not sched.powers_p.flags.writeable

    def test_reuses_frozen_arrays(self):
        first = Schedule([1.0, 2.0], [[4.0, 5.0], [6.0, 5.0]])
        second = Schedule(first.powers_p, first.shares_tau)
        assert second.powers_p is first.powers_p
        assert second.shares_tau is first.shares_tau

    def test_score_rejects_wrong_instance(self):
        inst = make_instance([1.0, 2.0], [19.0])
        with pytest.raises(ValueError):
            score(inst, Schedule([1.0], [[1.0]]))


class TestRateMatrix:
    def test_reference_point_19db(self):
        inst = make_instance([1.0, 1.0], [19.0, 22.0])
        rates = rate_matrix(inst, [5.0, 5.0])
        expected = oracle_rate(19.0, 5.0)
        assert rates[0, 0] == pytest.approx(expected, rel=1e-10)
        assert rates[0, 0] == pytest.approx(5998.79, abs=0.01)

    def test_zero_power_zero_rate(self):
        inst = make_instance([1.0, 1.0], [19.0, 22.0])
        rates = rate_matrix(inst, [0.0, 5.0])
        assert rates[0, 0] == 0.0
        assert rates[1, 0] == 0.0
        assert np.all(rates[:, 1] > 0)

    def test_reference_point_22db(self):
        inst = make_instance([1.0], [22.0])
        rates = rate_matrix(inst, [0.05])
        assert rates[0, 0] == pytest.approx(oracle_rate(22.0, 0.05), rel=1e-10)
        assert rates[0, 0] == pytest.approx(395.59, abs=0.01)

    def test_errors(self):
        inst = make_instance([1.0], [19.0])
        with pytest.raises(ValueError):
            rate_matrix(inst, [1.0, 2.0])
        with pytest.raises(ValueError):
            rate_matrix(inst, [-0.5])

    def test_monotone_in_power_and_gain(self):
        inst = make_instance([1.0] * 4, [13.0, 19.0, 25.0])
        powers = np.array([0.01, 0.5, 2.0, 9.0])
        rates = rate_matrix(inst, powers)
        assert np.all(np.diff(rates, axis=1) > 0)  # power up, rate up
        assert np.all(np.diff(rates, axis=0) < 0)  # more loss, less rate


class TestScore:
    def test_reference_2x2_utility(self, row1_instance):
        sched = Schedule([0.05, 5.0], [[10.0, 4.4129], [0.0, 5.5871]])
        rep = score(row1_instance, sched)
        assert rep.utility_u == pytest.approx(29.8094, abs=1e-3)
        assert rep.feasible
        assert rep.total_bits == pytest.approx(float(rep.per_user_bits.sum()))
        assert rep.utility_u == pytest.approx(float(rep.per_user_utility.sum()))

    def test_equal_bits_unit_fairness(self):
        inst = make_instance([10.0, 10.0], [19.0, 19.0])
        sched = Schedule([1.0, 1.0], [[5.0, 5.0], [5.0, 5.0]])
        rep = score(inst, sched)
        assert rep.jain_fi == pytest.approx(1.0)

    def test_starved_user(self):
        inst = make_instance([10.0, 10.0], [19.0, 22.0])
        sched = Schedule([1.0, 1.0], [[10.0, 10.0], [0.0, 0.0]])
        rep = score(inst, sched)
        assert rep.jain_fi == pytest.approx(0.5)
        assert rep.utility_u == -math.inf
        assert not rep.feasible  # minimum-share constraint broken
        assert any(v.constraint == "min_share" for v in rep.violations)

    def test_all_zero_bits_jain_undefined(self):
        inst = make_instance([0.0, 1.0], [19.0])
        sched = Schedule([0.0, 0.0], [[10.0, 10.0]])
        rep = score(inst, sched)
        assert math.isnan(rep.jain_fi)

    def test_utility_additivity(self):
        rng = np.random.default_rng(7)
        losses = [13.0, 19.0, 25.0]
        harvests = [30.0, 5.0, 50.0]
        inst = make_instance(harvests, losses)
        p = rng.uniform(0.1, 2.0, size=3)
        tau = rng.uniform(0.0, 5.0, size=(3, 3))
        rep = score(inst, Schedule(p, tau))
        for n, loss in enumerate(losses):
            single = make_instance(harvests, [loss])
            rep1 = score(single, Schedule(p, tau[n : n + 1]))
            assert rep1.utility_u == pytest.approx(rep.per_user_utility[n], rel=1e-12)

    def test_jain_bounds_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            inst = make_instance([10.0] * 3, list(rng.uniform(1, 35, size=n)))
            tau = rng.uniform(0, 1, size=(n, 3))
            tau = tau / tau.sum(axis=0) * inst.slot_length_t
            rep = score(inst, Schedule(rng.uniform(0.01, 2, size=3), tau))
            assert 1.0 / n - 1e-12 <= rep.jain_fi <= 1.0 + 1e-12

    def test_pure_function(self, row1_instance):
        sched = Schedule([0.05, 5.0], [[10.0, 4.4129], [0.0, 5.5871]])
        a = score(row1_instance, sched)
        b = score(row1_instance, sched)
        assert a.utility_u == b.utility_u
        assert np.array_equal(a.per_user_bits, b.per_user_bits)
        assert a.jain_fi == b.jain_fi


class TestCheckFeasibility:
    def test_spend_what_you_get_is_causal(self, row1_instance):
        T = row1_instance.slot_length_t
        p = row1_instance.harvests_e / T
        tau = np.full((2, 2), T / 2)
        assert check_feasibility(row1_instance, Schedule(p, tau)) == []

    def test_cumulative_violation(self, row1_instance):
        T = row1_instance.slot_length_t
        sched = Schedule([5.0, 0.05], np.full((2, 2), T / 2))
        viol = check_feasibility(row1_instance, sched)
        energy = [v for v in viol if v.constraint == "energy_causality"]
        assert len(energy) == 1
        assert energy[0].index == (0,)
        assert energy[0].magnitude == pytest.approx(49.5)

    def test_time_limit_violation(self, row1_instance):
        tau = np.array([[10.0, 5.5], [0.0, 5.5]])
        sched = Schedule([0.05, 5.0], tau)
        viol = check_feasibility(row1_instance, sched)
        slot = [v for v in viol if v.constraint == "slot_time"]
        assert len(slot) == 1
        assert slot[0].index == (1,)
        assert slot[0].magnitude == pytest.approx(1.0)

    def test_violation_order(self):
        # powers' signs, shares' signs, slot time, minimum share, then energy
        inst = make_instance([0.5, 50.0], [19.0, 22.0], epsilon_share=4.5)
        sched = Schedule([0.1, -0.5], [[-1.0, 5.0], [11.0, 4.0]])
        got = [(v.constraint, v.index, v.magnitude) for v in check_feasibility(inst, sched)]
        assert got == [
            ("power_nonneg", (1,), pytest.approx(0.5)),
            ("share_nonneg", (0, 0), pytest.approx(1.0)),
            ("slot_time", (1,), pytest.approx(1.0)),
            ("min_share", (0,), pytest.approx(0.5)),
            ("energy_causality", (0,), pytest.approx(0.5)),
        ]

    def test_fuzz_against_direct_reevaluation(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            harvests = rng.uniform(0, 40, size=k)
            harvests[int(rng.integers(0, k))] += 1.0
            inst = make_instance(harvests, list(rng.uniform(1, 35, size=n)))
            T = inst.slot_length_t
            p = rng.uniform(-0.05, 4.0, size=k)
            tau = rng.uniform(-0.2, T, size=(n, k))
            if rng.random() < 0.4:  # exercise the feasible branch too
                p = np.abs(p)
                spend = np.cumsum(p) * T
                cap = inst.cum_harvests
                scale = np.minimum(1.0, cap / np.maximum(spend, 1e-12))
                p = p * scale.min()
                tau = np.abs(tau)
                tau = tau / tau.sum(axis=0) * T
            got = {(v.constraint, v.index) for v in check_feasibility(inst, Schedule(p, tau))}
            want = set()
            for t in range(k):
                if p[t] < -1e-12:
                    want.add(("power_nonneg", (t,)))
                if abs(tau[:, t].sum() - T) > 1e-9 * T:
                    want.add(("slot_time", (t,)))
                if sum(p[: t + 1]) * T > sum(harvests[: t + 1]) + 1e-9 * harvests.sum():
                    want.add(("energy_causality", (t,)))
            for u in range(n):
                for t in range(k):
                    if tau[u, t] < -1e-12:
                        want.add(("share_nonneg", (u, t)))
                if tau[u].sum() < inst.epsilon_share - 1e-12:
                    want.add(("min_share", (u,)))
            assert got == want


class TestImprovementPct:
    def test_reference_baseline(self, row1_instance):
        # baseline utility recomputed from the defining formulas for the
        # round-robin spend-what-you-get schedule on the benchmark instance
        base = oracle_utility([0.5, 50.0], [19.0, 22.0], [0.05, 5.0],
                              [[10.0, 0.0], [0.0, 10.0]])
        assert base == pytest.approx(28.39886, abs=1e-3)
        assert improvement_pct(29.8094, base) == pytest.approx(4.97, abs=0.02)

    def test_documented_pair(self):
        # equal intra-slot sharing would give baseline 29.7587 on the same
        # instance; the quotient itself is part of the contract
        assert improvement_pct(29.8094, 29.7587) == pytest.approx(0.17, abs=0.01)

    def test_identity_and_simple(self):
        assert improvement_pct(5.0, 5.0) == 0.0
        assert improvement_pct(150.0, 100.0) == pytest.approx(50.0)

    def test_undefined_baseline(self):
        with pytest.raises(ValueError):
            improvement_pct(1.0, 0.0)
        with pytest.raises(ValueError):
            improvement_pct(1.0, math.inf)
        with pytest.raises(ValueError):
            improvement_pct(1.0, math.nan)
