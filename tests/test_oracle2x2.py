import math

import numpy as np
import pytest

from harvestsched import Schedule, kkt_residual_time, optimal_2x2, score
from harvestsched.convex import InfeasiblePointError

from conftest import BRANCH_CASES_2x2, grid_search_2x2, make_instance, table_2x2


def random_2x2(rng):
    harvests = rng.uniform(0.2, 80, size=2)
    losses = rng.uniform(1, 35, size=2)
    inst = make_instance(harvests, list(losses))
    # any positive powers inside the cumulative budget
    p1 = rng.uniform(0.01, harvests[0] / inst.slot_length_t)
    p2 = rng.uniform(0.01, (harvests.sum() - p1 * inst.slot_length_t) / inst.slot_length_t)
    return inst, np.array([p1, max(p2, 0.01)])


class TestOptimal2x2:
    def test_reference_row_low_then_high(self, row1_instance):
        case = optimal_2x2(row1_instance, [0.05, 5.0])
        assert case.power_relation == "p1<p2"
        assert case.branch.endswith("gamma1<gamma2")
        assert case.gamma[0] == pytest.approx(8.517, abs=1e-3)
        assert case.gamma[1] == pytest.approx(12.703, abs=2e-3)
        np.testing.assert_allclose(
            case.tau_star, [[10.0, 4.4129], [0.0, 5.5871]], atol=1e-4
        )
        assert case.utility_star == pytest.approx(29.8094, abs=1e-3)
        # closed form agrees with direct scoring of its own split
        rep = score(row1_instance, Schedule([0.05, 5.0], case.tau_star))
        assert rep.utility_u == pytest.approx(case.utility_star, rel=1e-12)

    def test_reference_row_high_then_low(self):
        inst = make_instance([50.0, 0.5], [19.0, 22.0])
        case = optimal_2x2(inst, [2.2993, 2.7507])
        np.testing.assert_allclose(
            case.tau_star, [[10.0, 0.2431], [0.0, 9.7569]], atol=1e-4
        )
        assert case.utility_star == pytest.approx(30.9401, abs=1e-3)

    def test_equal_powers_opposite_corners(self):
        inst = make_instance([20.0, 20.0], [19.0, 22.0])
        case = optimal_2x2(inst, [2.0, 2.0])
        assert case.power_relation == "p1=p2"
        assert case.gamma[0] == pytest.approx(1.0)
        assert case.gamma[1] == pytest.approx(1.0)
        np.testing.assert_allclose(case.tau_star, [[10.0, 0.0], [0.0, 10.0]])
        assert len(case.alternates) == 1
        np.testing.assert_allclose(case.alternates[0], [[0.0, 10.0], [10.0, 0.0]])
        T = inst.slot_length_t
        from harvestsched import rate_matrix

        r = rate_matrix(inst, [2.0, 2.0])
        assert case.utility_star == pytest.approx(
            math.log2(r[0, 0] * r[1, 1]) + 2 * math.log2(T)
        )

    def test_rejects_zero_power_and_bad_shape(self, row1_instance):
        with pytest.raises(ValueError):
            optimal_2x2(row1_instance, [0.0, 5.0])
        inst3 = make_instance([1.0, 1.0], [19.0, 22.0, 25.0])
        with pytest.raises(ValueError):
            optimal_2x2(inst3, [1.0, 1.0])

    def test_weak_slot_owner_and_strong_slot_split(self):
        # weak slot wholly owned; strong slot shared with the excluded user
        # favored beyond half when powers and ratios differ
        rng = np.random.default_rng(101)
        for _ in range(300):
            inst, p = random_2x2(rng)
            if abs(p[0] - p[1]) < 1e-9:
                continue
            case = optimal_2x2(inst, p)
            tau = case.tau_star
            weak, strong = (0, 1) if p[0] < p[1] else (1, 0)
            weak_col = tau[:, weak]
            assert (weak_col > 0).sum() == 1
            owner = int(np.argmax(weak_col))
            excluded = 1 - owner
            g = case.gamma
            if abs(g[0] - g[1]) > 1e-9 * max(g):
                assert np.all(tau[:, strong] > 0)
                # weak slot before strong goes to the smaller ratio, after to the larger
                if weak < strong:
                    assert owner == int(np.argmin(g))
                else:
                    assert owner == int(np.argmax(g))
                assert tau[excluded, strong] > inst.slot_length_t / 2

    def test_matches_grid_search(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            inst, p = random_2x2(rng)
            case = optimal_2x2(inst, p)
            assert case.utility_star >= grid_search_2x2(inst, p) - 1e-3

    def test_gamma_regime_tracks_power_order(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            inst, p = random_2x2(rng)
            case = optimal_2x2(inst, p)
            g = np.array(case.gamma)
            if case.power_relation == "p1<p2":
                assert np.all(g > 1.0)
            elif case.power_relation == "p1>p2":
                assert np.all(g < 1.0)
            else:
                np.testing.assert_allclose(g, 1.0)

    def test_equal_powers_force_equal_gammas(self):
        # powers equal within _EQ_REL keep the gammas equal within _EQ_REL,
        # which is why optimal_2x2 has no equal-power/unequal-gamma split
        rng = np.random.default_rng(113)
        for _ in range(2000):
            inst, p = random_2x2(rng)
            delta = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-16, -12)
            p[1] = p[0] * (1.0 + delta)
            assert optimal_2x2(inst, p).branch == "p1=p2,gamma1=gamma2"

    def test_matches_table(self):
        # the one rule against the paper's nine-branch table: on every branch
        # case, on random draws, on equal path losses (exactly tied ratios;
        # on p1>p2 the table's tied row splits by the other user's gamma, so
        # ratios tied only within 1e-12 would differ in the last bits) and on
        # powers equal to within 1e-16 to 1e-12 relative
        cases = [
            (make_instance(h, losses), np.array(p, dtype=float))
            for h, losses, p in BRANCH_CASES_2x2
        ]
        rng = np.random.default_rng(127)
        for i in range(3000):
            inst, p = random_2x2(rng)
            if i % 3 == 1:
                inst = make_instance(inst.harvests_e, [inst.path_loss_db[0]] * 2)
            elif i % 3 == 2:
                p[1] = p[0] * (1.0 + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-16, -12))
            cases.append((inst, p))
        branches = set()
        for inst, p in cases:
            case = optimal_2x2(inst, p)
            tau, alternates, utility = table_2x2(inst, p)
            branches.add(case.branch)
            assert np.array_equal(case.tau_star, tau), case.branch
            assert len(case.alternates) == len(alternates), case.branch
            for got, want in zip(case.alternates, alternates):
                assert np.array_equal(got, want), case.branch
            assert abs(case.utility_star - utility) <= 1e-13, case.branch
        assert len(branches) == 7

    def test_branch_continuity_at_equal_ratios(self):
        # ratios coincide exactly when gains do; approaching equal gains from
        # both sides, branch utilities meet the equal-ratio value
        inst_eq = make_instance([30.0, 30.0], [19.0, 19.0])
        p = [1.0, 2.5]
        case_eq = optimal_2x2(inst_eq, p)
        for delta in (1e-9, -1e-9):
            inst_near = make_instance([30.0, 30.0], [19.0, 19.0 + delta])
            case_near = optimal_2x2(inst_near, p)
            assert case_near.utility_star == pytest.approx(case_eq.utility_star, abs=1e-6)
        # both listed optima of the equal branch score identically
        rep_a = score(inst_eq, Schedule(p, case_eq.tau_star))
        rep_b = score(inst_eq, Schedule(p, case_eq.alternates[0]))
        assert rep_a.utility_u == pytest.approx(rep_b.utility_u, abs=1e-9)
        assert rep_a.utility_u == pytest.approx(case_eq.utility_star, abs=1e-9)


class TestKktCheck2x2:
    """The 2x2 splits through the time block's certifier."""

    def test_oracle_outputs_certify(self):
        rng = np.random.default_rng(107)
        for _ in range(200):
            inst, p = random_2x2(rng)
            case = optimal_2x2(inst, p)
            res = kkt_residual_time(inst, p, case.tau_star)
            assert res.certified(1e-12), res.max_residual
            for alt in case.alternates:
                assert kkt_residual_time(inst, p, alt).certified(1e-12)

    def test_even_split_fails(self, row1_instance):
        res = kkt_residual_time(row1_instance, [0.05, 5.0], [[5.0, 5.0], [5.0, 5.0]])
        assert res.max_residual > 1e-6

    def test_reference_iterate_certifies_loosely(self):
        inst = make_instance([50.0, 0.5], [19.0, 22.0])
        res = kkt_residual_time(inst, [2.2993, 2.7507], [[10.0, 0.2428], [0.0, 9.7572]])
        assert res.certified(1e-3), res.max_residual

    def test_infeasible_shares_rejected(self, row1_instance):
        with pytest.raises(InfeasiblePointError):
            kkt_residual_time(row1_instance, [0.05, 5.0], [[10.0, 10.0], [5.0, 5.0]])

    def test_min_share_breach_rejected(self):
        # signs and slot sums hold; only user 2's total share is below epsilon
        inst = make_instance([0.5, 50.0], [19.0, 22.0], epsilon_share=1.0)
        with pytest.raises(InfeasiblePointError):
            kkt_residual_time(inst, [0.05, 5.0], [[9.5, 10.0], [0.5, 0.0]])
