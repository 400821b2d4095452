import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from harvestsched import (
    Schedule,
    SolverConfig,
    bcd,
    check_feasibility,
    kkt_residual_power,
    kkt_residual_time,
    power_utility_gradient,
    score,
    sg_tdma,
    solve_power,
    solve_time,
    sort_schedule_nondecreasing,
)
from harvestsched import convex
from harvestsched.convex import (
    DegenerateShareError,
    InfeasiblePointError,
    InfeasibleStartError,
    NonconvergenceError,
    _barrier_newton,
    _newton_step_time,
    _step_to_boundary,
)
from harvestsched.cli import HARVEST_PROFILES, builtin_scenario
from harvestsched.model import LN2, TOL_ZERO, _power_violations, _share_violations, rate_matrix
from harvestsched.structure import staircase_powers

from conftest import SLOT_S, grid_search_2x2, make_instance


def random_feasible_point(rng, inst):
    """A strictly feasible (tau, p) pair for gradient/KKT probing."""
    T = inst.slot_length_t
    n, k = inst.n_users, inst.n_slots
    tau = rng.uniform(0.05, 1.0, size=(n, k))
    tau = tau / tau.sum(axis=0) * T
    p = rng.uniform(0.05, 1.0, size=k)
    spend = np.cumsum(p) * T
    p *= 0.9 * float((inst.cum_harvests / spend).min())
    return tau, p


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_kkt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_bcd_rounds=0)

    @pytest.mark.parametrize("field", ["tol_kkt", "tol_utility"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_tolerances_must_be_finite_and_positive(self, field, value):
        # an infinite tol_kkt made the barrier's final weight infinite, so it
        # returned after its first stage with an uncertified point
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(**{field: value})


class TestSolvePower:
    def test_binding_budget_row(self, row1_instance):
        tau = np.array([[10.0, 4.4129], [0.0, 5.5871]])
        p, res = solve_power(row1_instance, tau)
        np.testing.assert_allclose(p, [0.05, 5.0], atol=1e-4)
        assert res.certified(1e-6)

    def test_interior_split_row(self):
        inst = make_instance([50.0, 0.5], [19.0, 22.0])
        tau = np.array([[10.0, 0.2428], [0.0, 9.7572]])
        p, res = solve_power(inst, tau)
        np.testing.assert_allclose(p, [2.2993, 2.7507], atol=1e-3)
        assert res.certified(1e-6)

    def test_single_user_single_slot_spends_everything(self):
        inst = make_instance([7.0], [19.0])
        p, res = solve_power(inst, np.array([[10.0]]))
        assert p[0] == pytest.approx(0.7, rel=1e-6)
        assert res.certified(1e-6)

    def test_restarts_agree(self):
        # strict concavity: any warm start lands on the same maximizer
        inst = make_instance([50.0, 0.5], [19.0, 22.0])
        tau = np.array([[10.0, 0.2428], [0.0, 9.7572]])
        p_a, _ = solve_power(inst, tau)
        p_b, _ = solve_power(inst, tau, initial_powers=np.array([0.2, 0.3]))
        p_c, _ = solve_power(inst, tau, initial_powers=np.array([4.5, 0.1]))
        u = [
            score(inst, Schedule(p, tau)).utility_u for p in (p_a, p_b, p_c)
        ]
        assert max(u) - min(u) <= 10 * 1e-6
        np.testing.assert_allclose(p_b, p_a, atol=1e-5)
        np.testing.assert_allclose(p_c, p_a, atol=1e-5)

    def test_zero_harvest_prefix_pins_power(self):
        inst = make_instance([0.0, 0.0, 30.0, 10.0], [19.0, 22.0])
        T = inst.slot_length_t
        tau = np.full((2, 4), T / 2)
        p, res = solve_power(inst, tau)
        assert p[0] == 0.0 and p[1] == 0.0
        assert np.all(p[2:] > 0)
        assert res.certified(1e-6)

    def test_degenerate_shares_raise(self, row1_instance):
        tau = np.array([[10.0, 10.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            solve_power(row1_instance, tau)  # user 2 violates minimum share
        inst = make_instance([0.0, 10.0], [19.0, 22.0])
        # user 2 only holds the pinned zero-power slot
        tau2 = np.array([[1e-7, 10.0], [10.0 - 1e-7, 0.0]])
        with pytest.raises(DegenerateShareError):
            solve_power(inst, tau2)

    @pytest.mark.parametrize("profile", list(HARVEST_PROFILES))
    def test_stages_end_without_stalling(self, profile, monkeypatch):
        # every barrier stage must end on its stop rule: a stage that stalls
        # short of it spends one Newton solve per step until a budget runs out
        inst = builtin_scenario(profile, "moderate", 8).instance
        tau = np.full((inst.n_users, inst.n_slots), inst.slot_length_t / inst.n_users)
        solves = []
        real_solve = np.linalg.solve

        def counting_solve(*args, **kw):
            solves.append(1)
            return real_solve(*args, **kw)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        solve_power(inst, tau)
        assert len(solves) < 100

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(211)
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            inst = make_instance(rng.uniform(1, 50, size=k), list(rng.uniform(1, 35, size=n)))
            tau, p = random_feasible_point(rng, inst)
            grad = power_utility_gradient(inst, tau, p)
            for t in range(k):
                h = 1e-6 * max(p[t], 0.01)
                up, dn = p.copy(), p.copy()
                up[t] += h
                dn[t] -= h
                fd = (
                    score(inst, Schedule(up, tau)).utility_u
                    - score(inst, Schedule(dn, tau)).utility_u
                ) / (2 * h)
                assert grad[t] == pytest.approx(fd, rel=1e-5)
            checked += 1


class TestSolveTime:
    def test_reference_split_low_high(self, row1_instance):
        tau, res = solve_time(row1_instance, [0.05, 5.0])
        np.testing.assert_allclose(tau, [[10.0, 4.4129], [0.0, 5.5871]], atol=1e-3)
        assert res.certified(1e-6)
        np.testing.assert_allclose(tau.sum(axis=0), [10.0, 10.0], rtol=1e-12)

    def test_single_user_gets_whole_frame(self):
        inst = make_instance([5.0, 20.0, 1.0], [19.0])
        tau, res = solve_time(inst, [0.5, 2.0, 0.1])
        np.testing.assert_allclose(tau, [[10.0, 10.0, 10.0]])
        assert res.certified(1e-6)

    def test_reference_split_interior_powers(self):
        inst = make_instance([50.0, 0.5], [19.0, 22.0])
        tau, res = solve_time(inst, [2.2993, 2.7507])
        np.testing.assert_allclose(tau, [[10.0, 0.2431], [0.0, 9.7569]], atol=1e-3)
        assert res.certified(1e-6)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(223)
        for _ in range(25):
            harvests = rng.uniform(0.5, 70, size=2)
            inst = make_instance(harvests, list(rng.uniform(1, 35, size=2)))
            p = rng.uniform(0.02, 1.0, size=2)
            p *= 0.9 * float((inst.cum_harvests / (np.cumsum(p) * 10.0)).min())
            tau, _ = solve_time(inst, p)
            u = score(inst, Schedule(p, tau)).utility_u
            assert u >= grid_search_2x2(inst, p) - 1e-3

    def test_zero_power_slot_is_split_evenly(self):
        inst = make_instance([0.0, 20.0], [19.0, 22.0])
        tau, res = solve_time(inst, [0.0, 2.0])
        np.testing.assert_allclose(tau[:, 0], [5.0, 5.0], atol=1e-6)
        assert res.certified(1e-6)

    def test_all_zero_powers_rejected(self, row1_instance):
        with pytest.raises(ValueError):
            solve_time(row1_instance, [0.0, 0.0])

    def test_infeasible_powers_rejected(self, row1_instance):
        with pytest.raises(ValueError):
            solve_time(row1_instance, [5.0, 0.05])


def dense_newton_step_time(rates, tau, A, grad, sigma):
    """Reference time-block Newton step from the assembled (N+1)K-order KKT system.

    One step of iterative refinement follows the LU solve: plain LU on this
    badly scaled matrix was off by up to 1.3e-7 relative from a 50-digit
    solve when shares fall to 1e-9 T.
    """
    N, K = tau.shape
    nk = N * K
    kkt = np.zeros((nk + K, nk + K))
    for n in range(N):
        sl = slice(n * K, (n + 1) * K)
        block = -np.outer(rates[n], rates[n]) / (A[n] * A[n])
        block[np.diag_indices(K)] -= sigma / (tau[n] * tau[n])
        kkt[sl, sl] = block
    for t in range(K):
        rows = np.arange(N) * K + t  # the shares of slot t in the raveled layout
        kkt[rows, nk + t] = 1.0
        kkt[nk + t, rows] = 1.0
    rhs = np.concatenate([-grad.ravel(), np.zeros(K)])
    sol = np.linalg.solve(kkt, rhs)
    sol += np.linalg.solve(kkt, rhs - kkt @ sol)
    return sol[:nk].reshape(N, K)


def time_step_kkt_residual(rates, tau, A, grad, sigma, d):
    """Relative residual of the time-block Newton system at step ``d``.

    The slot prices are the least-squares fit of the stationarity rows, so
    the residual measures ``d`` alone: ``-g - H d`` must be one price per
    slot (relative to ``g``), and every slot's step must sum to zero
    (relative to the larger of the step and the shares, both in seconds).
    """
    u = rates / A[:, None]
    hess_d = -(sigma / (tau * tau) * d + u * (u * d).sum(axis=1)[:, None])
    top = -grad - hess_d
    stationarity = np.abs(top - top.mean(axis=0)).max() / np.abs(grad).max()
    slot_sums = np.abs(d.sum(axis=0)).max() / max(np.abs(d).max(), tau.max())
    return max(stationarity, slot_sums)


def random_frame(seed, n_slots, n_users):
    """Evenly spaced harvests over (0, 100) J and losses over (13, 40) dB, seeded order."""
    rng = np.random.default_rng(seed)
    harvests = rng.permutation((np.arange(n_slots) + 0.5) * (100.0 / n_slots))
    losses = rng.permutation(13.0 + (np.arange(n_users) + 0.5) * (27.0 / n_users))
    return make_instance(harvests, list(losses))


STEP_INSTANCES = {
    **{
        f"{profile}-{n}": (lambda p=profile, n=n: builtin_scenario(p, "moderate", n).instance)
        for profile in HARVEST_PROFILES
        for n in range(2, 9)
    },
    "frame80x2-a": lambda: random_frame(1, 80, 2),
    "frame80x2-b": lambda: random_frame(2, 80, 2),
    "frame16x12-a": lambda: random_frame(3, 16, 12),
    "frame16x12-b": lambda: random_frame(4, 16, 12),
    "one-user": lambda: make_instance([5.0, 20.0, 1.0], [19.0]),
    "one-slot": lambda: make_instance([30.0], [19.0, 22.0, 25.0]),
    "frame4x12": lambda: random_frame(6, 4, 12),
    "frame8x9": lambda: random_frame(7, 8, 9),
}


class TestTimeNewtonStep:
    @pytest.mark.parametrize("name", list(STEP_INSTANCES))
    def test_matches_dense_kkt_solve(self, name):
        inst = STEP_INSTANCES[name]()
        rng = np.random.default_rng(list(STEP_INSTANCES).index(name))
        N, K = inst.n_users, inst.n_slots
        T = inst.slot_length_t
        sigma_final = SolverConfig().tol_kkt * LN2 / 100
        for zero_slot in (False, True):
            p = sg_tdma(inst).powers_p.copy()
            if zero_slot and K > 1:
                p[rng.integers(K)] = 0.0  # spending less keeps the budget
            rates = rate_matrix(inst, p)
            for alpha in (1.0, 0.05):
                # per-slot Dirichlet shares; alpha = 0.05 puts most of a
                # slot on one user, floored at 1e-12 T (barrier iterates
                # stay far above it)
                tau = rng.dirichlet(np.full(N, alpha), size=K).T * T
                tau = np.maximum(tau, 1e-12 * T)
                tau *= T / tau.sum(axis=0)
                A = (tau * rates).sum(axis=1)
                for sigma in (1.0, 1e-3, 1e-6, sigma_final):
                    grad = rates / A[:, None] + sigma / tau
                    d = _newton_step_time(rates, tau, A, grad, sigma)
                    ref = dense_newton_step_time(rates, tau, A, grad, sigma)
                    assert time_step_kkt_residual(rates, tau, A, grad, sigma, d) <= 1e-12
                    # at the last stage the reduced Hessian's curvature is
                    # sigma / tau^2, and the dense reference itself was off by
                    # up to 2.2e-9 from a 50-digit solve (this step: 2.1e-10)
                    tol = 1e-9 if sigma >= 1e-6 else 1e-8
                    scale = max(np.abs(ref).max(), 1e-6 * T)  # one user: both are ~0
                    assert np.abs(d - ref).max() <= tol * scale, (zero_slot, alpha, sigma)

    def test_solves_no_system_above_order_n(self, monkeypatch):
        inst = random_frame(5, 24, 16)
        orders = []
        real_solve = np.linalg.solve

        def recording_solve(a, b):
            orders.append(a.shape[0])
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        tau, res = solve_time(inst, sg_tdma(inst).powers_p)
        assert orders and max(orders) <= inst.n_users
        assert res.certified(1e-6)


class TestBarrierNewton:
    # Newton solves per block call on the 8-user moderate frames, bounded
    # between the counts without the stage-opening predictor (power 75/70/67,
    # time 138/120/126) and with it (52/44/40, 116/94/84)
    SOLVE_BOUNDS = {
        "regular": {"power": 63, "time": 127},
        "bursty": {"power": 57, "time": 107},
        "very-bursty": {"power": 53, "time": 105},
    }

    @pytest.mark.parametrize("block", ["power", "time"])
    @pytest.mark.parametrize("profile", list(HARVEST_PROFILES))
    def test_newton_solve_counts(self, profile, block, monkeypatch):
        inst = builtin_scenario(profile, "moderate", 8).instance
        solves = []
        real_solve = np.linalg.solve

        def counting_solve(*args, **kw):
            solves.append(1)
            return real_solve(*args, **kw)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        if block == "power":
            solve_power(inst, np.full((inst.n_users, inst.n_slots), inst.slot_length_t / inst.n_users))
        else:
            solve_time(inst, staircase_powers(inst))
        assert len(solves) <= self.SOLVE_BOUNDS[profile][block]

    def test_predictor_lands_on_next_centre(self):
        # separable toy block -c.x + sigma sum(log x), centred at x = sigma / c;
        # the stage's own Newton step from the last centre would land at
        # -8x and be cut to alpha = 0.995 / 9
        c = np.array([0.5, 2.0, 3.0])
        calls = []

        def newton(x, A, slacks, sigma, h_sigma):
            grad = -c + sigma / x
            d = x * x / h_sigma * grad
            calls.append((x, sigma, h_sigma, _step_to_boundary((x, -d))))
            return d, (-d,), float(grad @ d)

        cfg = SolverConfig()
        x = _barrier_newton(1.0 / c, cfg, lambda x: (np.exp(-c * x), (x,)), newton, "toy")
        sigmas = [sigma for _, sigma, h_sigma, _ in calls if h_sigma == sigma]
        assert sigmas[0] == 1.0 and sigmas[-1] == cfg.tol_kkt * LN2 / 100.0
        # each stage after the first: one predictor, then the stop test holds
        assert len(calls) == 2 * len(sigmas) - 1
        for prev, pred, centred in zip(calls[::2], calls[1::2], calls[2::2]):
            assert pred[2] == prev[1] and pred[3] == 1.0
            # the predictor maps a rounding error at the last centre to nine
            # times that relative error at the next, hence the loose rtol
            np.testing.assert_allclose(centred[0], centred[1] / c, rtol=1e-6)
        np.testing.assert_allclose(x, sigmas[-1] / c, rtol=1e-6)

    def test_rejected_candidates_leave_the_iterate_parts(self):
        # every candidate fails the Armijo test (it asks for a rise of 1e26
        # alpha), so each Newton call must still see its own iterate's parts
        c = np.array([0.5, 2.0, 3.0])
        seen = []

        def parts(x):
            return np.exp(-c * x), (x,)

        def newton(x, A, slacks, sigma, h_sigma):
            fresh_A, (fresh_x,) = parts(x)
            seen.append(np.array_equal(A, fresh_A) and np.array_equal(slacks[0], fresh_x))
            d = 1e6 * x
            return d, (-d,), 1e30

        with pytest.raises(NonconvergenceError):
            _barrier_newton(1.0 / c, SolverConfig(max_inner_iters=3), parts, newton, "toy")
        assert seen == [True] * 4

    @pytest.mark.parametrize("block", ["power", "time"])
    @pytest.mark.parametrize("frame", [*HARVEST_PROFILES, "frame80x2"])
    def test_newton_gets_parts_of_its_iterate(self, frame, block, monkeypatch):
        # every Newton step must see the bits and slacks of its own iterate,
        # never those of a rejected line-search candidate, and each tried
        # point must cost one parts() call
        if frame == "frame80x2":
            inst = random_frame(1, 80, 2)
        else:
            inst = builtin_scenario(frame, "moderate", 8).instance
        real_driver = convex._barrier_newton
        events = []

        def checking_driver(x, cfg, parts, newton, name):
            def logged_parts(y):
                events.append(("parts", y.copy()))
                return parts(y)

            def checked_newton(y, A, slacks, sigma, h_sigma):
                fresh_A, fresh_slacks = parts(y)
                assert np.array_equal(A, fresh_A)
                assert len(slacks) == len(fresh_slacks)
                assert all(np.array_equal(s, f) for s, f in zip(slacks, fresh_slacks))
                d, rates, slope = newton(y, A, slacks, sigma, h_sigma)
                events.append(("newton", y.copy(), d, _step_to_boundary(*zip(slacks, rates))))
                return d, rates, slope

            events.append(("start", x.copy()))
            return real_driver(x, cfg, logged_parts, checked_newton, name)

        monkeypatch.setattr(convex, "_barrier_newton", checking_driver)
        if block == "power":
            solve_power(inst, np.full((inst.n_users, inst.n_slots), inst.slot_length_t / inst.n_users))
        else:
            solve_time(inst, staircase_powers(inst))
        # parts() runs once on the start, then once per candidate of each
        # step: x + alpha d, alpha halving from the boundary step
        (_, start), (kind, first), (kind_next, *_) = events[:3]
        assert kind == "parts" and np.array_equal(first, start) and kind_next == "newton"
        tried = 0
        for event in events[2:]:
            if event[0] == "newton":
                _, x, d, alpha = event
            else:
                assert np.array_equal(event[1], x + alpha * d)
                alpha *= 0.5
                tried += 1
        assert tried > 0

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(
        st.lists(st.tuples(st.floats(1e-12, 1e12), st.floats(-1e12, 1e12)), min_size=1, max_size=6),
        min_size=1, max_size=3,
    ))
    @example([[(1.0, -2.0), (3.0, 0.0)], [(0.5, -0.5)]])
    def test_step_to_boundary_matches_masked_minimum(self, pairs):
        limits = [tuple(np.array(col) for col in zip(*pair)) for pair in pairs]
        alpha = _step_to_boundary(*limits)
        masked = 1.0
        for slack, rate in limits:
            hit = rate > 0
            if np.any(hit):
                with np.errstate(over="ignore"):  # tiny rates: no bound
                    masked = min(masked, 0.995 * float((slack[hit] / rate[hit]).min()))
        assert abs(alpha - masked) <= 1e-15 * masked
        if all(np.all(rate <= 0) for _, rate in limits):
            assert alpha == 1.0
        for slack, rate in limits:
            assert np.all(slack - alpha * rate > 0)


class TestKktResiduals:
    def test_refit_certifies_solver_output(self, row1_instance):
        tau, _ = solve_time(row1_instance, [0.05, 5.0])
        refit = kkt_residual_time(row1_instance, [0.05, 5.0], tau)
        assert refit.certified(1e-6)
        p, _ = solve_power(row1_instance, tau)
        refit_p = kkt_residual_power(row1_instance, tau, p)
        assert refit_p.certified(1e-6)
        assert np.all(refit_p.multipliers["lambda"] >= 0)

    def test_perturbed_point_fails(self, row1_instance):
        tau, _ = solve_time(row1_instance, [0.05, 5.0])
        bumped = tau.copy()
        bumped[0, 1] += 0.5
        bumped[1, 1] -= 0.5
        res = kkt_residual_time(row1_instance, [0.05, 5.0], bumped)
        # both users hold interior shares with unequal marginal values, so
        # the reconstructed multipliers cannot close the certificate
        assert res.max_residual > 1e-6

    def test_single_user_full_frame_certifies(self):
        inst = make_instance([5.0, 20.0], [19.0])
        res = kkt_residual_time(inst, [0.5, 2.0], np.array([[10.0, 10.0]]))
        assert res.certified(1e-6)

    def test_infeasible_point_rejected(self, row1_instance):
        with pytest.raises(InfeasiblePointError):
            kkt_residual_time(row1_instance, [0.05, 5.0], [[9.0, 9.0], [-2.0, 1.0]])
        with pytest.raises(InfeasiblePointError):
            kkt_residual_power(row1_instance, [[5.0, 5.0], [5.0, 5.0]], [5.0, 5.0])

    def test_suboptimal_power_fails(self):
        inst = make_instance([50.0, 0.5], [19.0, 22.0])
        tau = np.array([[10.0, 0.2428], [0.0, 9.7572]])
        res = kkt_residual_power(inst, tau, [1.0, 1.0])
        assert res.max_residual > 1e-6


class TestBcd:
    def test_reference_run(self):
        inst = make_instance([60.0, 20.0], [1.0, 4.0])
        sched, trace = bcd(inst, sg_tdma(inst))
        assert trace.converged
        rep = score(inst, sched)
        assert rep.utility_u == pytest.approx(33.5272, abs=1e-3)
        srt, _, causal = sort_schedule_nondecreasing(inst, sched)
        assert causal
        np.testing.assert_allclose(srt.powers_p, [3.8238, 4.1762], atol=1e-3)

    def test_converges_fast_from_optimum(self, row1_instance):
        init = Schedule([0.05, 5.0], [[10.0, 4.4129], [0.0, 5.5871]])
        sched, trace = bcd(row1_instance, init)
        assert trace.converged
        assert trace.rounds_used <= 2
        assert trace.utilities[-1] - trace.utilities[0] < 1e-4

    def test_trace_monotone_and_feasible_iterates(self):
        inst = make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0, 25.0])
        sched, trace = bcd(inst, sg_tdma(inst))
        assert trace.converged
        diffs = np.diff(trace.utilities)
        assert np.all(diffs >= -1e-8)
        for s in trace.schedules:
            assert check_feasibility(inst, s) == []

    def test_deterministic(self):
        inst = make_instance([90, 2, 0.5, 0.1, 0.3, 0.7, 40, 60], [19.0, 22.0])
        a, ta = bcd(inst, sg_tdma(inst))
        b, tb = bcd(inst, sg_tdma(inst))
        assert ta.utilities == tb.utilities
        assert np.array_equal(a.powers_p, b.powers_p)
        assert np.array_equal(a.shares_tau, b.shares_tau)

    def test_keeps_each_iterate_once(self):
        inst = make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0, 25.0])
        init = sg_tdma(inst)
        sched, trace = bcd(inst, init)
        assert trace.schedules[0] is init
        assert sched is trace.schedules[-1]
        kept = 0
        for before, after in zip(trace.schedules, trace.schedules[1:]):
            # a block the round left unchanged keeps its array
            if np.array_equal(before.powers_p, after.powers_p):
                assert after.powers_p is before.powers_p
                kept += 1
            if np.array_equal(before.shares_tau, after.shares_tau):
                assert after.shares_tau is before.shares_tau
                kept += 1
        assert kept > 0  # this instance rejects some half-steps

    def test_infeasible_init_rejected(self, row1_instance):
        bad = Schedule([5.0, 0.05], [[10.0, 0.0], [0.0, 10.0]])
        with pytest.raises(InfeasibleStartError):
            bcd(row1_instance, bad)

    def test_beats_heuristic_inits(self):
        # the alternation is an ascent: final utility dominates the start
        rng = np.random.default_rng(229)
        for _ in range(5):
            k = int(rng.integers(2, 7))
            inst = make_instance(rng.uniform(1, 60, size=k), list(rng.uniform(5, 30, size=2)))
            init = sg_tdma(inst)
            sched, trace = bcd(inst, init)
            assert trace.utilities[-1] >= score(inst, init).utility_u - 1e-12


class TestNonconvergence:
    @pytest.mark.parametrize("block", ["time", "power"])
    def test_error_carries_best_iterate(self, row1_instance, block):
        starved = SolverConfig(max_inner_iters=3)
        if block == "time":
            with pytest.raises(NonconvergenceError) as exc:
                solve_time(row1_instance, [0.05, 5.0], starved)
            assert exc.value.best.shape == (2, 2)
        else:
            # a zero-harvest prefix: the best iterate comes back as a full
            # power vector with the pinned slots at zero
            inst = make_instance([0.0, 0.0, 30.0, 10.0], [19.0, 22.0])
            tau = np.full((2, 4), inst.slot_length_t / 2)
            with pytest.raises(NonconvergenceError) as exc:
                solve_power(inst, tau, starved)
            assert exc.value.best.shape == (4,)
            assert np.all(exc.value.best[:2] == 0.0)
            assert np.all(exc.value.best[2:] > 0.0)
        assert f"{block} block" in str(exc.value)
        assert exc.value.residual > 0

    def test_bcd_downgrades_to_warning(self, row1_instance):
        starved = SolverConfig(max_inner_iters=3, max_bcd_rounds=2)
        sched, trace = bcd(row1_instance, sg_tdma(row1_instance), starved)
        assert trace.warnings
        assert check_feasibility(row1_instance, sched) == []
        assert np.all(np.diff(trace.utilities) >= -1e-8)


@st.composite
def block_problems(draw):
    """A random instance with a feasible power vector and share matrix."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 8))
    prefix = draw(st.integers(0, k - 1))
    harvests = (
        [0.0] * prefix
        + [draw(st.floats(0.1, 100.0))]
        + draw(st.lists(st.floats(0.0, 100.0), min_size=k - prefix - 1, max_size=k - prefix - 1))
    )
    losses = draw(st.lists(st.floats(1.0, 40.0), min_size=n, max_size=n))
    eps_frac = draw(st.floats(1e-12, 0.99))
    inst = make_instance(harvests, losses, epsilon_share=eps_frac * SLOT_S / n)

    level = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    raw = np.array(draw(st.lists(level, min_size=k, max_size=k)))
    raw[:prefix] = 0.0
    if not np.any(raw > 0):
        raw[prefix] = 1.0
    spend = np.cumsum(raw) * SLOT_S
    on = spend > 0
    scale = float((inst.cum_harvests[on] / spend[on]).min())
    powers = raw * scale * draw(st.floats(0.05, 1.0))

    weights = np.array(
        draw(st.lists(st.floats(0.01, 1.0), min_size=n * k, max_size=n * k))
    ).reshape(n, k)
    even = max(draw(st.floats(0.0, 1.0)), eps_frac)
    shares = SLOT_S * ((1.0 - even) * weights / weights.sum(axis=0) + even / n)
    return inst, powers, shares


class TestBlockProperties:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(block_problems())
    def test_blocks_certify_on_random_instances(self, problem):
        inst, powers, shares = problem
        T, n = inst.slot_length_t, inst.n_users

        tau, res = solve_time(inst, powers)
        assert res.certified(1e-6), res
        assert np.all(np.abs(tau.sum(axis=0) - T) <= 1e-12 * T)
        assert np.all(tau.sum(axis=1) >= T / n * (1 - 1e-6))
        assert check_feasibility(inst, Schedule(powers, tau)) == []

        p, res = solve_power(inst, shares)
        assert res.certified(1e-6), res
        assert check_feasibility(inst, Schedule(p, shares)) == []


def perturbed(inst, powers, shares, constraint, factor):
    """The point with one constraint broken by ``factor`` times its tolerance.

    ``factor < 1`` leaves the breach inside the tolerance, and ``factor = 0``
    puts it exactly on the bound.  The share-sign case empties the share of
    the user with the most time in the slot of least power, so every user
    keeps bits while two slots remain.
    """
    p, tau = powers.copy(), shares.copy()
    T = inst.slot_length_t
    if constraint == "power_nonneg":
        p[np.argmin(p)] = -factor * TOL_ZERO
    elif constraint == "energy_causality":
        p[-1] += (inst.cum_harvests[-1] - p.sum() * T + factor * inst.tol_energy) / T
    elif constraint == "share_nonneg":
        n, t = int(np.argmax(tau.sum(axis=1))), int(np.argmin(p))
        tau[1 if n == 0 else 0, t] += tau[n, t] + factor * TOL_ZERO
        tau[n, t] = -factor * TOL_ZERO
    elif constraint == "slot_time":
        tau[0, 0] += factor * inst.tol_time
    else:  # min_share
        old = tau[0].copy()
        tau[0] *= (inst.epsilon_share - factor * TOL_ZERO) / old.sum()
        tau[1] += old - tau[0]
    return p, tau


def accepts(fn, *args) -> bool:
    """False when ``fn`` rejects its point as infeasible, True when it runs."""
    try:
        fn(*args)
    except InfeasiblePointError:
        return False
    except NonconvergenceError:  # the short budget ran out after the checks
        pass
    return True


class TestFeasibilityPolicy:
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize(
        "constraint", ["power_nonneg", "energy_causality", "share_nonneg", "slot_time", "min_share"]
    )
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(problem=block_problems())
    def test_solvers_and_certifiers_follow_check_feasibility(self, problem, constraint, factor):
        # a block's variable is accepted as the other block's fixed input,
        # and by its own certifier, exactly when check_feasibility accepts it
        inst, powers, shares = problem
        assume(inst.n_slots >= 2 and inst.n_users >= 2)
        on_bound = perturbed(inst, powers, shares, constraint, 0.0)
        assume(not check_feasibility(inst, Schedule(*on_bound)))  # nothing else breaks
        p, tau = perturbed(inst, powers, shares, constraint, factor)
        quick = SolverConfig(max_inner_iters=1)
        if constraint in ("power_nonneg", "energy_causality"):
            verdicts = (
                not _power_violations(inst, p),
                accepts(solve_time, inst, p, quick),
                accepts(kkt_residual_power, inst, tau, p),
            )
        else:
            verdicts = (
                not _share_violations(inst, tau),
                accepts(solve_power, inst, tau, quick),
                accepts(kkt_residual_time, inst, p, tau),
            )
        assert verdicts == (factor < 1,) * 3
