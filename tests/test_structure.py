import itertools

import numpy as np
import pytest

from harvestsched import (
    Schedule,
    score,
    sort_schedule_nondecreasing,
    virtual_harvests,
)

from conftest import make_instance, pairwise_deferral_limit


def random_instances(rng, count, max_slots=20):
    for _ in range(count):
        k = int(rng.integers(1, max_slots + 1))
        e = rng.uniform(0, 50, size=k) * (rng.random(size=k) < 0.8)
        if not np.any(e > 0):
            e[int(rng.integers(0, k))] = rng.uniform(1, 50)
        yield make_instance(e, [19.0, 22.0])


class TestVirtualHarvests:
    def test_decreasing_pair_equalizes(self):
        v = virtual_harvests(make_instance([50.0, 0.5], [19.0, 22.0]))
        np.testing.assert_allclose(v, [25.25, 25.25])

    def test_nondecreasing_unchanged(self):
        v = virtual_harvests(make_instance([0.5, 50.0], [19.0, 22.0]))
        np.testing.assert_allclose(v, [0.5, 50.0])

    def test_two_slot_split(self):
        # brute force over feasible nondecreasing two-slot splits conserving
        # 80 J: v0 <= v1, v0 <= 60, v0 + v1 = 80 -> v0 <= 40, and the
        # deferral fixed point takes the largest feasible v0
        v = virtual_harvests(make_instance([60.0, 20.0], [19.0, 22.0]))
        np.testing.assert_allclose(v, [40.0, 40.0])

    def test_segment_boundaries_mark_strict_increases(self):
        inst = make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0])
        v = virtual_harvests(inst)
        steps = tuple(t for t in range(1, inst.n_slots) if v[t] > v[t - 1])
        assert steps == (1, 5)

    def test_random_profile_properties(self):
        rng = np.random.default_rng(3)
        for inst in random_instances(rng, 1000):
            v = virtual_harvests(inst)
            scale = inst.total_harvest
            assert np.all(np.diff(v) >= -1e-12 * scale)
            assert np.all(np.cumsum(v) <= inst.cum_harvests + 1e-9 * scale)
            assert v.sum() == pytest.approx(scale, rel=1e-12)
            again = virtual_harvests(make_instance(np.maximum(v, 0.0), [19.0]))
            np.testing.assert_allclose(again, v, rtol=1e-12, atol=1e-12 * scale)

    def test_matches_pairwise_equalization_limit(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            e = np.round(rng.uniform(0, 20, size=k), 2)
            if not np.any(e > 0):
                e[0] = 5.0
            limit = pairwise_deferral_limit(e)
            v = virtual_harvests(make_instance(e, [19.0]))
            np.testing.assert_allclose(v, limit, atol=1e-6)

    def test_prefix_maximal_among_grid_allocations(self):
        # The staircase defers the least energy possible: its prefix sums
        # dominate every feasible nondecreasing total-conserving allocation.
        # Exhaustive check over half-Joule grids for K <= 4.
        def grid_allocs(total_units, k):
            if k == 1:
                yield (total_units,)
                return
            for first in range(0, total_units // k + 1):
                for rest in grid_allocs(total_units - first, k - 1):
                    if rest[0] >= first:
                        yield (first,) + rest

        levels = [0.0, 0.5, 1.0, 1.5, 2.0]
        for k in (2, 3, 4):
            for combo in itertools.product(levels, repeat=k):
                e = np.array(combo)
                if not np.any(e > 0):
                    continue
                inst = make_instance(e, [19.0])
                stair_prefix = np.cumsum(virtual_harvests(inst))
                total_units = int(round(e.sum() / 0.5))
                cum = np.cumsum(e)
                for alloc in grid_allocs(total_units, k):
                    v = 0.5 * np.array(alloc)
                    prefix = np.cumsum(v)
                    if np.any(prefix > cum + 1e-12):
                        continue  # violates causality
                    assert np.all(stair_prefix >= prefix - 1e-9)


class TestSortScheduleNondecreasing:
    def test_two_cycle(self, row1_instance):
        sched = Schedule([5.0, 0.05], [[0.0, 10.0], [10.0, 0.0]])
        out, perm, feasible = sort_schedule_nondecreasing(row1_instance, sched)
        np.testing.assert_allclose(out.powers_p, [0.05, 5.0])
        np.testing.assert_allclose(out.shares_tau, [[10.0, 0.0], [0.0, 10.0]])
        assert perm == (1, 0)
        assert feasible
        u_before = score(row1_instance, sched).utility_u
        u_after = score(row1_instance, out).utility_u
        assert u_after == pytest.approx(u_before, rel=1e-12)

    def test_identity_on_sorted_input(self, row1_instance):
        sched = Schedule([0.05, 5.0], [[10.0, 4.4129], [0.0, 5.5871]])
        out, perm, feasible = sort_schedule_nondecreasing(row1_instance, sched)
        assert perm == (0, 1)
        assert feasible
        np.testing.assert_array_equal(out.powers_p, sched.powers_p)
        np.testing.assert_array_equal(out.shares_tau, sched.shares_tau)

    def test_reference_10_slot_schedule_already_sorted(self):
        # the reference solver output for the bursty profile at two users is
        # nondecreasing, so sorting is the identity and stays causal
        powers = [2.0, 2.5750, 2.5750, 2.5750, 2.5750, 4.2117, 4.4720, 4.4720, 4.4720, 4.4720]
        tau1 = [10.0, 10, 10, 10, 10, 3.6666, 0, 0, 0, 0]
        tau2 = [0.0, 0, 0, 0, 0, 6.3334, 10, 10, 10, 10]
        inst = make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0])
        out, perm, feasible = sort_schedule_nondecreasing(inst, Schedule(powers, [tau1, tau2]))
        assert perm == tuple(range(10))
        assert feasible

    def test_sorting_feasible_input_stays_causal(self):
        # ascending order minimizes every prefix spend over permutations,
        # so a causal schedule can never lose causality by sorting
        rng = np.random.default_rng(29)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            harvests = rng.uniform(0.1, 30, size=k)
            inst = make_instance(harvests, [19.0, 22.0])
            p = rng.uniform(0, 2, size=k)
            spend = np.cumsum(p) * inst.slot_length_t
            p *= min(1.0, float((inst.cum_harvests / np.maximum(spend, 1e-12)).min()))
            tau = rng.uniform(0, 1, size=(2, k))
            tau = tau / tau.sum(axis=0) * inst.slot_length_t
            _, _, feasible = sort_schedule_nondecreasing(inst, Schedule(p, tau))
            assert feasible

    def test_flag_reports_incurable_infeasibility(self):
        inst = make_instance([0.5, 50.0], [19.0, 22.0])
        sched = Schedule([6.0, 6.0], [[10.0, 5.0], [0.0, 5.0]])
        _, _, feasible = sort_schedule_nondecreasing(inst, sched)
        assert not feasible  # 120 J spent but only 50.5 harvested

    def test_random_utility_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 9))
            harvests = rng.uniform(0.1, 40, size=k)
            inst = make_instance(harvests, list(rng.uniform(1, 35, size=n)))
            p = rng.uniform(0, 3, size=k)
            tau = rng.uniform(0, 1, size=(n, k))
            tau = tau / tau.sum(axis=0) * inst.slot_length_t
            sched = Schedule(p, tau)
            out, _, _ = sort_schedule_nondecreasing(inst, sched)
            u0 = score(inst, sched).utility_u
            u1 = score(inst, out).utility_u
            assert abs(u1 - u0) <= 1e-9 * max(1.0, abs(u0))
