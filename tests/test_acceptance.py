"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS line when it holds.

The nine 2-user/2-slot benchmark rows pin the solver quantitatively; the
remaining criteria are property-level checks of the staircase, the sorting
invariance, the solver certificates, and the heuristics' tracking/fairness
behavior on the standard scenario sweep.
"""
import itertools
import time

import numpy as np
import pytest

from harvestsched import (
    Schedule,
    bcd,
    check_feasibility,
    improvement_pct,
    kkt_residual_time,
    optimal_2x2,
    power_utility_gradient,
    pronto,
    ptf,
    score,
    sg_tdma,
    solve_time,
    sort_schedule_nondecreasing,
    virtual_harvests,
)
from harvestsched.cli import HARVEST_PROFILES, builtin_scenario

from conftest import BRANCH_CASES_2x2, grid_search_2x2, make_instance, table_2x2

# harvests, path losses, reference powers, reference optimal split,
# reference utility -- the reference two-user/two-slot benchmark set
BENCH_ROWS = [
    ([0.5, 50.0], (19.0, 22.0), [0.0500, 5.0000], [[10, 4.4129], [0, 5.5871]], 29.8094),
    ([0.5, 50.0], (25.0, 28.0), [0.0500, 5.0000], [[10, 4.7399], [0, 5.2601]], 28.4062),
    ([0.5, 50.0], (31.0, 34.0), [0.0500, 5.0000], [[10, 4.8786], [0, 5.1214]], 26.5152),
    ([50.0, 0.5], (19.0, 22.0), [2.2993, 2.7507], [[10, 0.2431], [0, 9.7569]], 30.9401),
    ([50.0, 0.5], (25.0, 28.0), [2.2466, 2.8034], [[10, 0.4295], [0, 9.5705]], 29.4618),
    ([50.0, 0.5], (31.0, 34.0), [2.2110, 2.8390], [[10, 0.7047], [0, 9.2953]], 27.2580),
    ([60.0, 20.0], (1.0, 4.0), [3.8238, 4.1762], [[10, 0.0544], [0, 9.9456]], 33.5272),
    ([60.0, 20.0], (7.0, 10.0), [3.7879, 4.2121], [[10, 0.0787], [0, 9.9213]], 32.9577),
    ([60.0, 20.0], (13.0, 16.0), [3.7379, 4.2621], [[10, 0.1216], [0, 9.8784]], 32.2496),
]

SWEEP_USERS = range(2, 9)


@pytest.fixture(scope="module")
def sweep_results():
    """Improvements and fairness per (N, profile, algorithm), moderate losses."""
    out = {}
    for n in SWEEP_USERS:
        for name in HARVEST_PROFILES:
            scen = builtin_scenario(name, "moderate", n)
            inst = scen.instance
            base = score(inst, sg_tdma(inst))
            per_alg = {"sg-tdma": (0.0, base.jain_fi)}
            for alg, sched in (
                ("ptf", ptf(inst)),
                ("pronto", pronto(inst)),
            ):
                rep = score(inst, sched)
                per_alg[alg] = (
                    improvement_pct(rep.utility_u, base.utility_u),
                    rep.jain_fi,
                )
            sched, trace = bcd(inst, sg_tdma(inst))
            assert trace.converged
            rep = score(inst, sched)
            per_alg["bcd"] = (
                improvement_pct(rep.utility_u, base.utility_u),
                rep.jain_fi,
            )
            out[(n, name)] = per_alg
    return out


def test_01_benchmark_2x2_reproduction():
    start = time.perf_counter()
    for harvests, losses, p_ref, tau_ref, u_ref in BENCH_ROWS:
        inst = make_instance(harvests, losses)
        sched, trace = bcd(inst, sg_tdma(inst))
        assert trace.converged
        canon, _, causal = sort_schedule_nondecreasing(inst, sched)
        assert causal
        np.testing.assert_allclose(canon.powers_p, p_ref, atol=1e-3)
        assert score(inst, sched).utility_u == pytest.approx(u_ref, abs=1e-3)
        tau = optimal_2x2(inst, np.array(p_ref))
        np.testing.assert_allclose(tau, tau_ref, atol=1e-3)
        assert score(inst, Schedule(p_ref, tau)).utility_u == pytest.approx(u_ref, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: 9/9 benchmark rows reproduced in {elapsed:.2f}s")


def test_02_oracle_branches_and_grid_cross_check():
    start = time.perf_counter()
    # reachable branch matrix: both power orders x both ratio orders plus the
    # equal-ratio (equal-gain) and equal-power rows
    seen = set()
    for harvests, losses, powers in BRANCH_CASES_2x2:
        inst = make_instance(harvests, losses)
        _, alternates, _, branch = table_2x2(inst, powers)
        seen.add(branch)
        res = kkt_residual_time(inst, powers, optimal_2x2(inst, powers))
        assert res.certified(1e-12), (branch, res.max_residual)
        for alt in alternates:
            res = kkt_residual_time(inst, powers, alt)
            assert res.certified(1e-12), (branch, res.max_residual)
    assert len(seen) == 7

    rng = np.random.default_rng(1009)
    for _ in range(200):
        harvests = rng.uniform(0.2, 80, size=2)
        inst = make_instance(harvests, list(rng.uniform(1, 35, size=2)))
        p1 = rng.uniform(0.01, harvests[0] / 10.0)
        p2 = rng.uniform(0.01, (harvests.sum() - 10.0 * p1) / 10.0)
        powers = np.array([p1, max(p2, 0.01)])
        tau = optimal_2x2(inst, powers)
        assert score(inst, Schedule(powers, tau)).utility_u >= grid_search_2x2(inst, powers) - 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: 7 branches certified, 200 grid cross-checks in {elapsed:.1f}s")


def test_03_staircase_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(1013)
    for _ in range(1000):
        k = int(rng.integers(1, 21))
        e = rng.uniform(0, 50, size=k) * (rng.random(size=k) < 0.85)
        if not np.any(e > 0):
            e[int(rng.integers(0, k))] = rng.uniform(1, 50)
        inst = make_instance(e, [19.0])
        v = virtual_harvests(inst)
        scale = inst.total_harvest
        assert np.all(np.diff(v) >= -1e-12 * scale)                      # nondecreasing power
        assert np.all(np.cumsum(v) <= inst.cum_harvests + 1e-9 * scale)  # prefix-dominated
        assert v.sum() == pytest.approx(scale, rel=1e-12)                # total-conserving
        again = virtual_harvests(make_instance(np.maximum(v, 0), [19.0]))
        np.testing.assert_allclose(again, v, rtol=1e-12, atol=1e-12 * scale)  # idempotent

    # exhaustive half-Joule grids, K <= 4: the staircase prefix dominates
    # every feasible nondecreasing total-conserving allocation
    def grid_allocs(total_units, k):
        if k == 1:
            yield (total_units,)
            return
        for first in range(0, total_units // k + 1):
            for rest in grid_allocs(total_units - first, k - 1):
                if rest[0] >= first:
                    yield (first,) + rest

    levels = [0.0, 0.5, 1.0, 1.5, 2.0]
    checked = 0
    for k in (2, 3, 4):
        for combo in itertools.product(levels, repeat=k):
            e = np.array(combo)
            if not np.any(e > 0):
                continue
            inst = make_instance(e, [19.0])
            stair_prefix = np.cumsum(virtual_harvests(inst))
            cum = np.cumsum(e)
            for alloc in grid_allocs(int(round(e.sum() / 0.5)), k):
                v = 0.5 * np.array(alloc)
                prefix = np.cumsum(v)
                if np.any(prefix > cum + 1e-12):
                    continue
                assert np.all(stair_prefix >= prefix - 1e-9)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: 1000 random profiles + {checked} grid allocations in {elapsed:.1f}s")


def test_04_sorting_utility_invariance():
    rng = np.random.default_rng(1019)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 11))
        inst = make_instance(rng.uniform(0.1, 50, size=k), list(rng.uniform(1, 35, size=n)))
        p = rng.uniform(0, 3, size=k)
        tau = rng.uniform(0, 1, size=(n, k))
        tau = tau / tau.sum(axis=0) * inst.slot_length_t
        sched = Schedule(p, tau)
        sorted_sched, _, _ = sort_schedule_nondecreasing(inst, sched)
        u0 = score(inst, sched).utility_u
        u1 = score(inst, sorted_sched).utility_u
        assert abs(u1 - u0) <= 1e-9 * max(1.0, abs(u0))
    print("\nACCEPTANCE 4 PASS: utility invariant under slot sorting on 1000 random schedules")


def test_05_solver_soundness():
    # monotone traces on every benchmark run
    for harvests, losses, *_ in BENCH_ROWS:
        inst = make_instance(harvests, losses)
        _, trace = bcd(inst, sg_tdma(inst))
        assert np.all(np.diff(trace.utilities) >= -1e-8)

    # analytic power gradient vs central differences at 100 random points
    rng = np.random.default_rng(1021)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        inst = make_instance(rng.uniform(1, 50, size=k), list(rng.uniform(1, 35, size=n)))
        tau = rng.uniform(0.05, 1.0, size=(n, k))
        tau = tau / tau.sum(axis=0) * inst.slot_length_t
        p = rng.uniform(0.05, 1.0, size=k)
        p *= 0.9 * float((inst.cum_harvests / (np.cumsum(p) * inst.slot_length_t)).min())
        grad = power_utility_gradient(inst, tau, p)
        t = int(rng.integers(0, k))
        h = 1e-6 * max(p[t], 0.01)
        up, dn = p.copy(), p.copy()
        up[t] += h
        dn[t] -= h
        fd = (score(inst, Schedule(up, tau)).utility_u
              - score(inst, Schedule(dn, tau)).utility_u) / (2 * h)
        assert grad[t] == pytest.approx(fd, rel=1e-5)
        checked += 1

    # time block vs exhaustive grid on two-user/two-slot instances
    rng = np.random.default_rng(1031)
    for _ in range(20):
        harvests = rng.uniform(0.5, 70, size=2)
        inst = make_instance(harvests, list(rng.uniform(1, 35, size=2)))
        p = rng.uniform(0.02, 1.0, size=2)
        p *= 0.9 * float((inst.cum_harvests / (np.cumsum(p) * 10.0)).min())
        tau, _ = solve_time(inst, p)
        u = score(inst, Schedule(p, tau)).utility_u
        assert u >= grid_search_2x2(inst, p) - 1e-3
    print("\nACCEPTANCE 5 PASS: monotone traces, 100 gradient checks, 20 grid cross-checks")


def test_06_heuristic_tracking(sweep_results):
    worst_pronto = worst_ptf = 0.0
    for n in SWEEP_USERS:
        avg = {
            alg: np.mean([sweep_results[(n, s)][alg][0] for s in HARVEST_PROFILES])
            for alg in ("ptf", "pronto", "bcd")
        }
        worst_pronto = max(worst_pronto, abs(avg["pronto"] - avg["bcd"]))
        worst_ptf = max(worst_ptf, abs(avg["ptf"] - avg["bcd"]))
    assert worst_pronto <= 1.5
    assert worst_ptf <= 3.0
    print(
        f"\nACCEPTANCE 6 PASS: max |avg improvement - bcd| over N=2..8: "
        f"pronto {worst_pronto:.2f} (<=1.5), ptf {worst_ptf:.2f} (<=3.0)"
    )


def test_07_ten_slot_schedule_diagnostic():
    # Non-gating reproduction of the reference two-user bursty schedule: the
    # alternation reaches *a* partial optimum, so deviations are reported,
    # not failed.
    ref_powers = [2.0, 2.5750, 2.5750, 2.5750, 2.5750,
                  4.2117, 4.4720, 4.4720, 4.4720, 4.4720]
    inst = make_instance(HARVEST_PROFILES["bursty"], [19.0, 22.0])
    sched, trace = bcd(inst, sg_tdma(inst))
    canon, _, causal = sort_schedule_nondecreasing(inst, sched)
    assert causal and trace.converged
    dev = np.abs(canon.powers_p - np.array(ref_powers)).max()
    status = "matches" if dev <= 0.05 else f"DEVIATES (reported, non-gating)"
    print(f"\nACCEPTANCE 7 DIAGNOSTIC: max per-slot power deviation {dev:.4f} W, {status}")


def test_08_fairness_ordering(sweep_results):
    for n in SWEEP_USERS:
        if n < 4:
            continue
        for name in HARVEST_PROFILES:
            per_alg = sweep_results[(n, name)]
            sg_fi = per_alg["sg-tdma"][1]
            assert sg_fi <= per_alg["ptf"][1] + 1e-12, (n, name)
            assert sg_fi <= per_alg["pronto"][1] + 1e-12, (n, name)
    print("\nACCEPTANCE 8 PASS: baseline Jain index is lowest for every N>=4 and scenario")


def test_09_block_assignment_worked_example():
    inst = make_instance([10.0] * 12, [13.0, 17.0, 10.0, 12.0, 20.0])
    sched = pronto(inst)
    owners = [int(np.argmax(sched.shares_tau[:, t])) for t in range(12)]
    # slots 1-3 to user 3, 4-6 to user 4, 7-8 to user 1, 9-10 to user 2,
    # 11-12 to user 5 (1-based numbering)
    assert owners == [2, 2, 2, 3, 3, 3, 0, 0, 1, 1, 4, 4]
    assert check_feasibility(inst, sched) == []
    print("\nACCEPTANCE 9 PASS: 12-slot/5-user block assignment matches the worked example")
