import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from harvestsched import (
    Schedule,
    SolverConfig,
    bcd,
    check_feasibility,
    kkt_residual_power,
    kkt_residual_time,
    power_utility_gradient,
    ptf,
    score,
    sg_tdma,
    solve_power,
    solve_time,
    sort_schedule_nondecreasing,
)
from harvestsched import convex, model
from harvestsched.convex import (
    DegenerateShareError,
    InfeasiblePointError,
    InfeasibleStartError,
    NonconvergenceError,
    _barrier_newton,
    _merit,
    _newton_step_time,
    _step_to_boundary,
)
from harvestsched.cli import HARVEST_PROFILES, bench_2x2_scenarios, builtin_scenario
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
        p, _ = solve_power(row1_instance, tau)
        np.testing.assert_allclose(p, [0.05, 5.0], atol=1e-4)
        assert kkt_residual_power(row1_instance, tau, p).certified(1e-6)

    def test_interior_split_row(self):
        inst = make_instance([50.0, 0.5], [19.0, 22.0])
        tau = np.array([[10.0, 0.2428], [0.0, 9.7572]])
        p, _ = solve_power(inst, tau)
        np.testing.assert_allclose(p, [2.2993, 2.7507], atol=1e-3)
        assert kkt_residual_power(inst, tau, p).certified(1e-6)

    def test_single_user_single_slot_spends_everything(self):
        inst = make_instance([7.0], [19.0])
        p, _ = solve_power(inst, np.array([[10.0]]))
        assert p[0] == pytest.approx(0.7, rel=1e-6)
        assert kkt_residual_power(inst, np.array([[10.0]]), p).certified(1e-6)

    def test_restarts_agree(self):
        # strict concavity: a restart from another share matrix's solve
        # lands on the same maximizer
        inst = make_instance([50.0, 0.5], [19.0, 22.0])
        tau = np.array([[10.0, 0.2428], [0.0, 9.7572]])
        p_a, _ = solve_power(inst, tau)
        _, restart_b = solve_power(inst, np.array([[9.0, 1.0], [1.0, 9.0]]))
        _, restart_c = solve_power(inst, np.array([[0.1, 9.9], [9.9, 0.1]]))
        p_b, _ = solve_power(inst, tau, restart=restart_b)
        p_c, _ = solve_power(inst, tau, restart=restart_c)
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
        p, _ = solve_power(inst, tau)
        assert p[0] == 0.0 and p[1] == 0.0
        assert np.all(p[2:] > 0)
        assert kkt_residual_power(inst, tau, p).certified(1e-6)

    def test_degenerate_shares_raise(self, row1_instance):
        tau = np.array([[10.0, 10.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            solve_power(row1_instance, tau)  # user 2 violates minimum share
        inst = make_instance([0.0, 10.0], [19.0, 22.0])
        # user 2 only holds the pinned zero-power slot
        tau2 = np.array([[1e-7, 10.0], [10.0 - 1e-7, 0.0]])
        with pytest.raises(DegenerateShareError):
            solve_power(inst, tau2)

    @pytest.mark.parametrize("harvests", [[50.0, 0.5], [0.0, 0.0, 30.0, 10.0]])
    def test_schedule_keeps_the_powers(self, harvests):
        inst = make_instance(harvests, [19.0, 22.0])
        tau = np.full((2, inst.n_slots), inst.slot_length_t / 2)
        p, _ = solve_power(inst, tau)
        assert not p.flags.writeable
        assert Schedule(p, tau).powers_p is p

    @pytest.mark.parametrize("profile", list(HARVEST_PROFILES))
    def test_stages_end_without_stalling(self, profile, monkeypatch):
        # every barrier stage must end on its stop rule: a stage that stalls
        # short of it spends one Newton solve per step until a budget runs out
        inst = builtin_scenario(profile, "moderate", 8).instance
        tau = np.full((inst.n_users, inst.n_slots), inst.slot_length_t / inst.n_users)
        solves = count_solves(monkeypatch)
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
        tau, _ = solve_time(row1_instance, [0.05, 5.0])
        np.testing.assert_allclose(tau, [[10.0, 4.4129], [0.0, 5.5871]], atol=1e-3)
        assert kkt_residual_time(row1_instance, [0.05, 5.0], tau).certified(1e-6)
        np.testing.assert_allclose(tau.sum(axis=0), [10.0, 10.0], rtol=1e-12)

    def test_single_user_gets_whole_frame(self):
        inst = make_instance([5.0, 20.0, 1.0], [19.0])
        tau, _ = solve_time(inst, [0.5, 2.0, 0.1])
        np.testing.assert_allclose(tau, [[10.0, 10.0, 10.0]])
        assert kkt_residual_time(inst, [0.5, 2.0, 0.1], tau).certified(1e-6)

    def test_reference_split_interior_powers(self):
        inst = make_instance([50.0, 0.5], [19.0, 22.0])
        tau, _ = solve_time(inst, [2.2993, 2.7507])
        np.testing.assert_allclose(tau, [[10.0, 0.2431], [0.0, 9.7569]], atol=1e-3)
        assert kkt_residual_time(inst, [2.2993, 2.7507], tau).certified(1e-6)

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
        tau, _ = solve_time(inst, [0.0, 2.0])
        np.testing.assert_allclose(tau[:, 0], [5.0, 5.0], atol=1e-6)
        assert kkt_residual_time(inst, [0.0, 2.0], tau).certified(1e-6)

    def test_schedule_keeps_the_shares(self, row1_instance):
        p = np.array([0.05, 5.0])
        tau, _ = solve_time(row1_instance, p)
        assert not tau.flags.writeable
        assert Schedule(p, tau).shares_tau is tau

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


BLOCK_SOLVERS = {"time": solve_time, "power": solve_power}


def certify(inst, block, fixed, x):
    """The block's KKT residual at its variable ``x`` for the fixed input."""
    if block == "time":
        return kkt_residual_time(inst, fixed, x)
    return kkt_residual_power(inst, fixed, x)


def perturbed_block_inputs(inst, block):
    """Two fixed inputs of one block: the staircase powers (time block) or
    equal shares (power block), then a seeded feasible perturbation."""
    rng = np.random.default_rng(5)
    n, k, T = inst.n_users, inst.n_slots, inst.slot_length_t
    if block == "time":
        powers = staircase_powers(inst)
        return powers, powers * rng.uniform(0.8, 1.0, size=k)  # lower powers keep every budget
    shares = np.full((n, k), T / n)
    weights = rng.uniform(0.1, 1.0, size=(n, k))
    return shares, 0.8 * shares + 0.2 * T * weights / weights.sum(axis=0)


def count_solves(monkeypatch):
    """A list that grows by one on every ``np.linalg.solve`` call."""
    solves = []
    real_solve = np.linalg.solve

    def counting_solve(*args, **kw):
        solves.append(1)
        return real_solve(*args, **kw)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return solves


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
                u = rates / A[:, None]
                for sigma in (1.0, 1e-3, 1e-6, sigma_final):
                    grad = u + sigma / tau
                    d = _newton_step_time(u, tau, grad, sigma, 1.0 - np.eye(N))
                    ref = dense_newton_step_time(rates, tau, A, grad, sigma)
                    assert time_step_kkt_residual(rates, tau, A, grad, sigma, d) <= 1e-12
                    # at the last stage the reduced Hessian's curvature is
                    # sigma / tau^2, and the dense reference itself was off by
                    # up to 2.2e-9 from a 50-digit solve (this step: 2.1e-10)
                    tol = 1e-9 if sigma >= 1e-6 else 1e-8
                    scale = max(np.abs(ref).max(), 1e-6 * T)  # one user: both are ~0
                    assert np.abs(d - ref).max() <= tol * scale, (zero_slot, alpha, sigma)

    def test_g_diagonal_sums_over_the_other_users(self):
        # shares floored at 1e-9 T with sigma = 1e-13: both terms of G's
        # diagonal, sum_t u w and sum_t w^2 / total, grow as 1/sigma, and
        # subtracting them leaves a step residual of 1.8e-6 on this frame,
        # against 1.6e-9 when each slot's D^{-1} is summed over the others
        inst = random_frame(30, 5, 2)
        rng = np.random.default_rng(30)
        N, K, T = inst.n_users, inst.n_slots, inst.slot_length_t
        rates = rate_matrix(inst, sg_tdma(inst).powers_p)
        tau = np.maximum(rng.dirichlet(np.full(N, 0.05), size=K).T * T, 1e-9 * T)
        tau *= T / tau.sum(axis=0)
        A = (tau * rates).sum(axis=1)
        u = rates / A[:, None]
        sigma = 1e-13
        grad = u + sigma / tau
        d = _newton_step_time(u, tau, grad, sigma, 1.0 - np.eye(N))
        assert time_step_kkt_residual(rates, tau, A, grad, sigma, d) <= 5e-8

    def test_solves_no_system_above_order_n(self, monkeypatch):
        inst = random_frame(5, 24, 16)
        orders = []
        real_solve = np.linalg.solve

        def recording_solve(a, b):
            orders.append(a.shape[0])
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        powers = sg_tdma(inst).powers_p
        tau, _ = solve_time(inst, powers)
        assert orders and max(orders) <= inst.n_users
        assert kkt_residual_time(inst, powers, tau).certified(1e-6)


def termwise_power_step(inst, shares, p, sigma, h_sigma):
    """Reference power-block Newton step on the free slots ``p``, with the
    gradient and Hessian of ``sum_n log A_n + sigma (sum log p + sum log s)``
    assembled term by term, the barrier Hessian terms weighted by ``h_sigma``."""
    K = p.size
    tau = shares[:, inst.n_slots - K:]
    T, L, c = inst.slot_length_t, inst.norm_gains, inst.bandwidth_w_hz / LN2
    slack = inst.cum_harvests[inst.n_slots - K:] - T * np.cumsum(p)
    grad = sigma / p
    hess = np.diag(-h_sigma / p**2)
    for n in range(inst.n_users):
        bits = c * sum(tau[n, t] * math.log1p(L[n] * p[t]) for t in range(K))
        a = c * tau[n] * L[n] / (1.0 + L[n] * p)  # d bits / d p
        grad = grad + a / bits
        hess -= np.outer(a, a) / bits**2
        hess -= np.diag(a * L[n] / (1.0 + L[n] * p) / bits)
    for j in range(K):  # budget j's slack falls by T for each unit of p_0..p_j
        spends = (np.arange(K) <= j).astype(float)
        grad = grad - sigma * T / slack[j] * spends
        hess -= h_sigma * T * T / slack[j] ** 2 * np.outer(spends, spends)
    return np.linalg.solve(hess, -grad), grad, hess


POWER_STEP_FRAMES = {
    **{f"{profile}-{n}": STEP_INSTANCES[f"{profile}-{n}"] for profile in HARVEST_PROFILES for n in range(2, 9)},
    "frame80x2-a": STEP_INSTANCES["frame80x2-a"],
    "zero-prefix": lambda: make_instance([0.0, 0.0, 30.0, 10.0, 5.0], [19.0, 22.0, 25.0]),
}


class TestPowerNewtonStep:
    @pytest.mark.parametrize("name", list(POWER_STEP_FRAMES))
    def test_matches_termwise_hessian(self, name, monkeypatch):
        inst = POWER_STEP_FRAMES[name]()
        shares = perturbed_block_inputs(inst, "power")[1]
        real_driver = convex._barrier_newton
        captured = []

        def capturing_driver(x, cfg, parts, newton, block, restart=None):
            out = real_driver(x, cfg, parts, newton, block, restart)
            captured.append((parts, newton, x, out[0]))
            return out

        monkeypatch.setattr(convex, "_barrier_newton", capturing_driver)
        solve_power(inst, shares)
        (parts, newton, start, end), = captured
        sigma_final = SolverConfig().tol_kkt * LN2 / 100
        for p in (start, end):  # the cold start and the last centre
            A, slacks = parts(p)
            for sigma in (1.0, 1e-3, 1e-6, sigma_final):
                for h_sigma in (sigma, 10 * sigma):  # a stage's own step and a predictor
                    d, rates, _ = newton(p, A, slacks, sigma, h_sigma)
                    ref, grad, hess = termwise_power_step(inst, shares, p, sigma, h_sigma)
                    np.testing.assert_array_equal(rates[0], -d)
                    np.testing.assert_array_equal(rates[1], inst.slot_length_t * np.cumsum(d))
                    # d solves the reference system to rounding (measured at
                    # most 5.4e-14, on the 80-slot frame) ...
                    backward = np.abs(hess @ d + grad).max() / (
                        np.abs(hess).max() * np.abs(d).max() + np.abs(grad).max()
                    )
                    assert backward <= 1e-12, (p is end, sigma, h_sigma)
                    # ... so it matches the reference step as far as the
                    # system's conditioning allows (at most 5.6e-15 cond here);
                    # at the last centre a large sigma drives cond(H) to 4e16
                    gap = np.abs(d - ref).max() / np.abs(ref).max()
                    assert gap <= 1e-13 * np.linalg.cond(hess), (p is end, sigma, h_sigma)


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
        solves = count_solves(monkeypatch)
        BLOCK_SOLVERS[block](inst, perturbed_block_inputs(inst, block)[0])
        assert len(solves) <= self.SOLVE_BOUNDS[profile][block]

    # Newton solves of a block call at the perturbed input, restarted from
    # the call at the unperturbed one, bounded between the restarted counts
    # (power 39/31/29, time 98/96/82) and the cold counts at the same input
    # (52/44/41, 126/120/106)
    RESTART_SOLVE_BOUNDS = {
        "regular": {"power": 45, "time": 112},
        "bursty": {"power": 37, "time": 108},
        "very-bursty": {"power": 35, "time": 94},
    }

    @pytest.mark.parametrize("block", ["power", "time"])
    @pytest.mark.parametrize("profile", list(HARVEST_PROFILES))
    def test_restarted_newton_solve_counts(self, profile, block, monkeypatch):
        inst = builtin_scenario(profile, "moderate", 8).instance
        solver = BLOCK_SOLVERS[block]
        first, second = perturbed_block_inputs(inst, block)
        restart = solver(inst, first)[1]
        solves = count_solves(monkeypatch)
        solver(inst, second, restart=restart)
        assert len(solves) <= self.RESTART_SOLVE_BOUNDS[profile][block]

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
        x, restart = _barrier_newton(1.0 / c, cfg, lambda x: (np.exp(-c * x), (x,)), newton, "toy")
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
        # the restart point is the centre of the first stage at or below
        # _RESTART_SIGMA, a power of ten
        stage = round(-math.log10(convex._RESTART_SIGMA))
        assert restart[1] == sigmas[stage] == pytest.approx(convex._RESTART_SIGMA, rel=1e-9)
        np.testing.assert_allclose(restart[0], restart[1] / c, rtol=1e-6)

    def test_restart_opens_without_predictor(self):
        # from a restart at the centre for weight _RESTART_SIGMA, the first
        # stage runs there on its own Hessian, and every later stage opens
        # with a predictor
        sigma_r = convex._RESTART_SIGMA
        c = np.array([0.5, 2.0, 3.0])
        calls = []

        def newton(x, A, slacks, sigma, h_sigma):
            grad = -c + sigma / x
            d = x * x / h_sigma * grad
            calls.append((sigma, h_sigma))
            return d, (-d,), float(grad @ d)

        cfg = SolverConfig()
        x, restart = _barrier_newton(
            1.0 / c, cfg, lambda x: (np.exp(-c * x), (x,)), newton, "toy", (sigma_r / c, sigma_r)
        )
        assert calls[0] == (sigma_r, sigma_r)
        assert [h for sigma, h in calls if h != sigma][0] == sigma_r  # the first predictor
        assert restart[1] == sigma_r
        np.testing.assert_allclose(x, cfg.tol_kkt * LN2 / 100.0 / c, rtol=1e-6)

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

    entries = st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
        ),
        min_size=1, max_size=5,
    ).map(np.array)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(entries, st.lists(entries, max_size=3), st.floats(1e-12, 1.0))
    @example(np.array([1.0]), [np.array([2.0, -0.0])], 1.0)
    def test_merit_is_minus_inf_exactly_outside_the_interior(self, A, slacks, sigma):
        outside = any(np.any(x <= 0) for x in (A, *slacks))
        val = _merit(A, tuple(slacks), sigma)
        assert (val == -math.inf) == outside
        if not outside:
            assert math.isfinite(val)

    def test_nan_candidate_fails_the_armijo_test(self):
        # a NaN passes the interior test, so its merit is NaN, and the line
        # search must halve the step rather than accept the candidate
        c = np.array([0.5, 2.0, 3.0])
        tried = []

        def parts(x):
            tried.append(x)
            A = np.exp(-c * x)
            if len(tried) == 2:  # the first candidate
                A[1] = np.nan
            return A, (x,)

        def newton(x, A, slacks, sigma, h_sigma):
            grad = -c + sigma / x
            d = x * x / h_sigma * grad
            return d, (-d,), float(grad @ d)

        x, _ = _barrier_newton(1.0 / c, SolverConfig(), parts, newton, "toy")
        start, rejected, halved = tried[:3]
        np.testing.assert_allclose(halved - start, 0.5 * (rejected - start), rtol=1e-12)
        # the halved step ends its stage on the decrement test short of the
        # centre, so the path stays near, not on, the exact centres
        np.testing.assert_allclose(x, SolverConfig().tol_kkt * LN2 / 100.0 / c, rtol=0.1)

    @pytest.mark.parametrize("start", ["cold", "restart"])
    @pytest.mark.parametrize("block", ["power", "time"])
    @pytest.mark.parametrize("frame", [*HARVEST_PROFILES, "frame80x2"])
    def test_newton_gets_parts_of_its_iterate(self, frame, block, start, monkeypatch):
        # every Newton step must see the bits and slacks of its own iterate,
        # never those of a rejected line-search candidate, and each tried
        # point must cost one parts() call
        if frame == "frame80x2":
            inst = random_frame(1, 80, 2)
        else:
            inst = builtin_scenario(frame, "moderate", 8).instance
        solver = BLOCK_SOLVERS[block]
        first, second = perturbed_block_inputs(inst, block)
        restart = solver(inst, first)[1] if start == "restart" else None
        real_driver = convex._barrier_newton
        events = []

        def checking_driver(x, cfg, parts, newton, name, restart=None):
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

            events.append(("start", (x if restart is None else restart[0]).copy()))
            return real_driver(x, cfg, logged_parts, checked_newton, name, restart)

        monkeypatch.setattr(convex, "_barrier_newton", checking_driver)
        solver(inst, second, restart=restart)
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


# restart weights outside [final weight, 1], from the default config's final
# weight tol_kkt * ln2 / 100 = 6.9e-9 to the cold start's weight: in the
# barrier, a negative one flips the sign of the slack terms, a zero one leaves
# the Newton system without its barrier curvature and an infinite one
# overflows; one below the final weight would be the call's only stage, so
# the call would end there (at 1e-30 with time shares at residual 3.2e-3),
# or overflow (1e-300)
BAD_RESTART_WEIGHTS = {
    "negative_weight": -1e-3,
    "zero_weight": 0.0,
    "infinite_weight": math.inf,
    "nan_weight": math.nan,
    "weight_above_cold": 10.0,
    "weight_below_final": 1e-9,
    "tiny_weight": 1e-30,
    "underflowing_weight": 1e-300,
}


class TestRestart:
    @pytest.mark.parametrize("block", ["time", "power"])
    @pytest.mark.parametrize("frame", [*HARVEST_PROFILES, "frame80x2"])
    def test_matches_cold_solve_with_fewer_solves(self, frame, block, monkeypatch):
        if frame == "frame80x2":
            inst = random_frame(1, 80, 2)
        else:
            inst = builtin_scenario(frame, "moderate", 8).instance
        solver = BLOCK_SOLVERS[block]
        first, second = perturbed_block_inputs(inst, block)
        restart = solver(inst, first)[1]
        solves = count_solves(monkeypatch)
        cold, _ = solver(inst, second)
        cold_solves = len(solves)
        warm, _ = solver(inst, second, restart=restart)
        assert len(solves) - cold_solves < cold_solves
        assert certify(inst, block, second, cold).certified(1e-6)
        assert certify(inst, block, second, warm).certified(1e-6)
        utilities = [
            score(inst, Schedule(second, x) if block == "time" else Schedule(x, second)).utility_u
            for x in (cold, warm)
        ]
        assert abs(utilities[1] - utilities[0]) <= 1e-9 * abs(utilities[0])
        # both calls end on the last stage's Newton decrement, which pins
        # the point less tightly than the utility (the power block's points
        # differ by up to 8.9e-9 of their largest entry here)
        assert np.abs(warm - cold).max() <= 1e-7 * np.abs(cold).max()

    @pytest.mark.parametrize(("block", "bad"), [
        *((block, bad) for block in ("time", "power") for bad in ("shape", "boundary", "outside")),
        ("time", "slot_sums"),
        *((block, bad) for block in ("time", "power") for bad in BAD_RESTART_WEIGHTS),
    ])
    @pytest.mark.parametrize("frame", ["bursty-4", "zero-prefix"])
    def test_unusable_restart_gives_cold_start(self, frame, block, bad):
        if frame == "zero-prefix":
            inst = make_instance([0.0, 0.0, 30.0, 10.0, 5.0], [19.0, 22.0])
        else:
            inst = builtin_scenario("bursty", "moderate", 4).instance
        solver = BLOCK_SOLVERS[block]
        first, second = perturbed_block_inputs(inst, block)
        x, sigma = solver(inst, first)[1]
        x = x.copy()
        if bad in BAD_RESTART_WEIGHTS:
            sigma = BAD_RESTART_WEIGHTS[bad]
        elif bad == "shape":
            x = np.append(x, x[..., -1:], axis=-1)
        elif bad == "slot_sums":
            x *= 1.01
        elif block == "time":  # move one share into another user's, keeping the slot sum
            x[1, 0] += x[0, 0] * (1.0 if bad == "boundary" else 2.0)
            x[0, 0] *= 0.0 if bad == "boundary" else -1.0
        elif bad == "boundary":
            x[0] = 0.0
        else:  # spends the whole frame's harvest in the first free slot
            x += inst.total_harvest / inst.slot_length_t
        cold = solver(inst, second)
        got = solver(inst, second, restart=(x, sigma))
        assert np.array_equal(got[0], cold[0])
        assert (certify(inst, block, second, got[0]).max_residual
                == certify(inst, block, second, cold[0]).max_residual)
        assert np.array_equal(got[1][0], cold[1][0]) and got[1][1] == cold[1][1]


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
        # bench2x2[0.5,50]@20.5: its one round rejects the power half-step
        # (the moderate-sweep frames now end on their face step instead)
        inst = next(s.instance for s in bench_2x2_scenarios() if s.label == "bench2x2[0.5,50]@20.5")
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

    def test_accepted_half_steps_keep_the_solver_arrays(self, monkeypatch):
        inst = make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0, 25.0])
        outputs, face_points = [], []
        for block, solver in BLOCK_SOLVERS.items():
            def recorded(*args, solver=solver):
                out = solver(*args)
                outputs.append(out[0])
                return out

            monkeypatch.setattr(convex, f"solve_{block}", recorded)

        def face_step(*args, real=convex._face_step):
            out = real(*args)
            if out is not None:
                face_points.append(out[0])
            return out

        monkeypatch.setattr(convex, "_face_step", face_step)
        sched, trace = bcd(inst, sg_tdma(inst))
        outputs += [a for point in face_points for a in (point.powers_p, point.shares_tau)]
        moved = 0
        for before, after in zip(trace.schedules, trace.schedules[1:]):
            for new, old in ((after.powers_p, before.powers_p), (after.shares_tau, before.shares_tau)):
                if new is not old:  # a block solver's or the face step's own array
                    assert any(new is out for out in outputs)
                    moved += 1
        assert moved > 0
        assert face_points  # this frame's round ends settle on a face
        assert any(sched.powers_p is p.powers_p or sched.shares_tau is p.shares_tau
                   for p in face_points)

    def test_each_block_restarts_from_its_last_call(self, monkeypatch):
        calls = {"time": [], "power": []}
        for block, solver in BLOCK_SOLVERS.items():
            def recorded(inst, fixed, cfg=None, restart=None, block=block, solver=solver):
                out = solver(inst, fixed, cfg, restart)
                calls[block].append((cfg.tol_kkt, restart, out))
                return out

            monkeypatch.setattr(convex, f"solve_{block}", recorded)
        # without the face step both frames stall uncertified and then run
        # a finishing round; with it they certify before one
        monkeypatch.setattr(convex, "_face_step", lambda *args: None)
        cfg = SolverConfig()
        sigma_final = cfg.tol_kkt * LN2 / 100
        harvests = [20, 100, 1, 1, 1, 70, 100, 1, 10, 40]
        for prefix in (0, 2):
            inst = make_instance([0] * prefix + harvests, [19.0, 22.0, 25.0])
            for seen in calls.values():
                seen.clear()
            sched, trace = bcd(inst, sg_tdma(inst), cfg)
            for seen in calls.values():
                assert len(seen) == trace.rounds_used >= 3
                assert seen[0][1] is None  # the first round starts cold
                tols = [tol for tol, _, _ in seen]
                finish = tols.index(cfg.tol_kkt / 100)  # the finishing round
                assert tols == [cfg.tol_kkt] * finish + [cfg.tol_kkt / 100] * (len(seen) - finish)
                for i, ((_, _, out), (_, passed, _)) in enumerate(zip(seen, seen[1:]), start=1):
                    if i == finish:  # the last call's final centre, at its weight
                        last = out[0]
                        free = last[..., last.shape[-1] - out[1][0].shape[-1]:]
                        assert np.shares_memory(passed[0], last) and np.array_equal(passed[0], free)
                        assert passed[1] == sigma_final
                    else:
                        assert passed is out[1]
                # a call from above _RESTART_SIGMA returns the centre there;
                # the deeper calls return the centre of their first stage
                for i, (_, _, out) in enumerate(seen):
                    expected = convex._RESTART_SIGMA if i < finish else sigma_final
                    assert out[1][1] == pytest.approx(expected, rel=1e-9)
            # the power path omits the zero-power prefix
            assert calls["power"][finish][1][0].size == inst.n_slots - prefix

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

    def test_stops_at_first_certified_round(self):
        inst = random_frame(2, 80, 2)
        cfg = SolverConfig()
        sched, trace = bcd(inst, sg_tdma(inst), cfg)
        assert trace.converged
        assert len(trace.residuals) == trace.rounds_used
        fresh = (
            kkt_residual_time(inst, sched.powers_p, sched.shares_tau).max_residual,
            kkt_residual_power(inst, sched.shares_tau, sched.powers_p).max_residual,
        )
        assert tuple(trace.residuals[-1]) == fresh
        assert trace.residuals.shape == (trace.rounds_used, 2)
        assert not trace.residuals.flags.writeable
        assert max(fresh) <= cfg.tol_kkt
        # the last round still gained: the certificate, not the stall, ended it
        assert trace.utilities[-1] - trace.utilities[-2] >= cfg.tol_utility

        _, retrace = bcd(inst, sched, cfg)
        assert retrace.rounds_used == 1
        assert retrace.utilities[-1] - retrace.utilities[0] < cfg.tol_utility

    # a finishing round, one after a zero-harvest prefix, a run that stops
    # certified, and one whose starved blocks end in warnings
    CERTIFIED_RUNS = {
        "finishing": lambda: (make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0, 25.0]), SolverConfig()),
        "zero-prefix": lambda: (make_instance([0, 0, 20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0, 25.0]), SolverConfig()),
        "frame80x2": lambda: (random_frame(2, 80, 2), SolverConfig()),
        "starved": lambda: (make_instance([0.5, 50.0], [19.0, 22.0]), SolverConfig(max_inner_iters=3, max_bcd_rounds=2)),
    }

    @pytest.mark.parametrize("run", list(CERTIFIED_RUNS))
    def test_certifies_each_round_end_once(self, run, monkeypatch):
        inst, cfg = self.CERTIFIED_RUNS[run]()
        calls = []
        for name in ("kkt_residual_time", "kkt_residual_power"):
            def counted(*args, real=getattr(convex, name)):
                calls.append(1)
                return real(*args)

            monkeypatch.setattr(convex, name, counted)
        _, trace = bcd(inst, sg_tdma(inst), cfg)
        assert len(calls) == 2 * trace.rounds_used
        assert bool(trace.warnings) == (run == "starved")
        assert len(trace.residuals) == trace.rounds_used == len(trace.schedules) - 1
        for row, sched in zip(trace.residuals, trace.schedules[1:]):
            fresh = (
                kkt_residual_time(inst, sched.powers_p, sched.shares_tau).max_residual,
                kkt_residual_power(inst, sched.shares_tau, sched.powers_p).max_residual,
            )
            assert tuple(row) == fresh

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_ends_certified_or_stalled_on_random_frames(self, data):
        k = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 8))
        prefix = data.draw(st.integers(0, k - 1))
        harvests = [0.0] * prefix + data.draw(
            st.lists(st.floats(0.1, 100.0), min_size=k - prefix, max_size=k - prefix)
        )
        losses = data.draw(st.lists(st.floats(1.0, 40.0), min_size=n, max_size=n))
        eps_frac = data.draw(st.one_of(st.sampled_from([1e-12, 1e-9]), st.floats(1e-12, 0.99)))
        inst = make_instance(harvests, losses, epsilon_share=eps_frac * SLOT_S / n)
        # the CLI's start when sg-tdma starves a user
        start = Schedule(staircase_powers(inst), np.full((n, k), SLOT_S / n))
        cfg = SolverConfig()
        tols = {"time": [], "power": []}
        with pytest.MonkeyPatch.context() as mp:
            for block, solver in BLOCK_SOLVERS.items():
                def recorded(inst, fixed, cfg=None, restart=None, block=block, solver=solver):
                    tols[block].append(cfg.tol_kkt)
                    return solver(inst, fixed, cfg, restart)

                mp.setattr(convex, f"solve_{block}", recorded)
            sched, trace = bcd(inst, start, cfg)

        assert check_feasibility(inst, sched) == []
        assert np.all(np.diff(trace.utilities) >= 0)
        assert len(trace.residuals) == trace.rounds_used
        certified = max(trace.residuals[-1]) <= cfg.tol_kkt
        stalled = trace.utilities[-1] - trace.utilities[-2] < cfg.tol_utility
        assert trace.converged == (certified or stalled)
        assert trace.converged or trace.rounds_used == cfg.max_bcd_rounds
        for heuristic in (sg_tdma(inst), ptf(inst)):
            if check_feasibility(inst, heuristic) == []:
                assert trace.utilities[-1] >= score(inst, heuristic).utility_u - 1e-6

        # both blocks tighten their tolerance at one round at most, for good
        rounds = trace.rounds_used
        finish = tols["time"].count(cfg.tol_kkt)  # rounds before the finishing round
        expected = [cfg.tol_kkt] * finish + [cfg.tol_kkt / 100] * (rounds - finish)
        assert tols["time"] == tols["power"] == expected
        # no round before the last ends the run, and only the first stall at
        # an uncertified point starts the finishing round
        gains = np.diff(trace.utilities)
        for i in range(rounds - 1):
            assert max(trace.residuals[i]) > cfg.tol_kkt
            assert (gains[i] < cfg.tol_utility) == (i == finish - 1)
        # a stall at an uncertified point ends the run only after the
        # finishing round, or on the round budget
        assert certified or not stalled or finish < rounds or rounds == cfg.max_bcd_rounds
        event("finishing round" if finish < rounds else "no finishing round")
        if finish < rounds:
            assert gains[finish] >= 0  # the finishing round never lowers utility

    # two runs that ended on the stall stop uncertified with restarts at
    # sigma = 1e-2 and no finishing round: their final utility and worst
    # block residual then (the power block's on bench2x2, the time
    # block's on the sweep frame)
    STALLED = {
        "bench2x2[60,20]@8.5": (32.957719221315415, 4.6613489597715244e-05),
        "very-bursty-8": (112.2815327543189, 7.599925824859136e-05),
    }

    @pytest.mark.parametrize("name", list(STALLED))
    def test_named_stalls_end_certified_or_closer(self, name):
        if name == "very-bursty-8":
            inst = builtin_scenario("very-bursty", "moderate", 8).instance
        else:
            inst = next(s.instance for s in bench_2x2_scenarios() if s.label == name)
        cfg = SolverConfig()
        sched, trace = bcd(inst, sg_tdma(inst), cfg)
        utility, residual = self.STALLED[name]
        worst = max(trace.residuals[-1])
        assert worst <= cfg.tol_kkt or worst < residual
        assert trace.utilities[-1] >= utility
        assert check_feasibility(inst, sched) == []

    def test_clamps_the_inits_sub_tolerance_negatives(self):
        inst = make_instance([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0, 25.0])
        base = sg_tdma(inst)
        powers = np.where(base.powers_p == base.powers_p.max(), base.powers_p, -1e-13)
        tau = np.where(base.shares_tau > 0, base.shares_tau, -1e-13)
        init = Schedule(powers, tau)
        assert check_feasibility(inst, init) == []  # within TOL_ZERO
        cfg = SolverConfig()
        sched, trace = bcd(inst, init, cfg)
        start = trace.schedules[0]
        assert start is not init
        assert start.powers_p.min() == 0.0 and start.shares_tau.min() == 0.0
        np.testing.assert_array_equal(start.powers_p, np.maximum(powers, 0.0))
        np.testing.assert_array_equal(start.shares_tau, np.maximum(tau, 0.0))
        assert check_feasibility(inst, sched) == []
        assert trace.converged and max(trace.residuals[-1]) <= cfg.tol_kkt

    # sg-tdma starts that took 12, 25, 14 and 12 rounds without the face
    # step: the rounds each may take with it, and its utility without it
    FACE_RUNS = {
        "regular-7": (4, 109.53940052924632),
        "very-bursty-8": (12, 112.28153326391784),
        "bursty-6": (7, 93.50435946673116),
        "frame16x12": (12, 184.6240383752244),
    }

    @pytest.mark.parametrize("name", list(FACE_RUNS))
    def test_face_step_certifies_in_fewer_rounds(self, name):
        if name == "frame16x12":
            inst = random_frame([2026, 16, 12], 16, 12)
        else:
            profile, users = name.rsplit("-", 1)
            inst = builtin_scenario(profile, "moderate", int(users)).instance
        cfg = SolverConfig()
        sched, trace = bcd(inst, sg_tdma(inst), cfg)
        rounds, utility = self.FACE_RUNS[name]
        assert max(trace.residuals[-1]) <= cfg.tol_kkt
        assert trace.rounds_used <= rounds
        assert trace.utilities[-1] >= utility
        assert check_feasibility(inst, sched) == []

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.data())
    def test_face_steps_are_feasible_ascents_from_a_settled_face(self, data):
        k = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 8))
        prefix = data.draw(st.integers(0, k - 1))
        harvest = st.one_of(st.floats(0.1, 100.0), st.sampled_from([5.0, 40.0]))  # ties
        harvests = [0.0] * prefix + data.draw(
            st.lists(harvest, min_size=k - prefix, max_size=k - prefix)
        )
        losses = data.draw(st.lists(st.floats(1.0, 40.0), min_size=n, max_size=n))
        inst = make_instance(harvests, losses)
        start = sg_tdma(inst)
        if check_feasibility(inst, start):  # the CLI's start when N > K
            start = Schedule(staircase_powers(inst), np.full((n, k), SLOT_S / n))
        T = inst.slot_length_t

        def face(sched):
            slack = inst.cum_harvests - T * np.cumsum(sched.powers_p)
            binding = (slack <= 1e-6 * inst.total_harvest) & (inst.cum_harvests > 0)
            return sched.shares_tau > 1e-4 * T, binding

        power_calls, steps = [], []
        with pytest.MonkeyPatch.context() as mp:
            def solve_power(inst, shares, *args, real=convex.solve_power):
                try:
                    out = real(inst, shares, *args)
                except NonconvergenceError as err:
                    power_calls.append((shares, err.best))
                    raise
                power_calls.append((shares, out[0]))
                return out

            def face_step(inst, sched, utility, active, real=convex._face_step):
                out = real(inst, sched, utility, active)
                steps.append((len(power_calls), sched, utility, active, out))
                return out

            mp.setattr(convex, "solve_power", solve_power)
            mp.setattr(convex, "_face_step", face_step)
            sched, trace = bcd(inst, start)

        assert check_feasibility(inst, sched) == []
        assert np.all(np.diff(trace.utilities) >= 0)
        # each round's block output: the power half-step's shares, with its
        # powers where they raised utility over the last round end's powers
        outputs = []
        for r, (shares, p_out) in enumerate(power_calls, start=1):
            kept = trace.schedules[r - 1].powers_p
            gain = score(inst, Schedule(p_out, shares)).utility_u > score(inst, Schedule(kept, shares)).utility_u
            outputs.append(Schedule(p_out if gain else kept, shares))
        assert len(outputs) == trace.rounds_used
        # a step closes round r exactly when the block outputs of rounds
        # r - 1 and r share a face
        settled = [
            r for r in range(2, trace.rounds_used + 1)
            if all(map(np.array_equal, face(outputs[r - 1]), face(outputs[r - 2])))
        ]
        assert [r for r, *_ in steps] == settled
        stepped = {r: out for r, *_, out in steps}
        for r, output in enumerate(outputs, start=1):
            if stepped.get(r) is None:  # the round ends on its block output
                assert np.array_equal(trace.schedules[r].powers_p, output.powers_p)
                assert trace.schedules[r].shares_tau is output.shares_tau
        for r, sched_in, utility_in, active, out in steps:
            assert sched_in.shares_tau is outputs[r - 1].shares_tau
            assert np.array_equal(sched_in.powers_p, outputs[r - 1].powers_p)
            assert utility_in == score(inst, sched_in).utility_u
            assert all(map(np.array_equal, active, face(sched_in)))
            if out is None:
                assert trace.schedules[r] is sched_in and trace.utilities[r] == utility_in
                continue
            point, utility = out
            assert check_feasibility(inst, point) == []
            assert point.powers_p.min() >= 0 and point.shares_tau.min() >= 0
            assert utility == score(inst, point).utility_u > utility_in
            # the step's point is the round's end, certified as it stands
            assert trace.schedules[r] is point and trace.utilities[r] == utility
        accepted = sum(out is not None for *_, out in steps)
        event("no face step" if not steps else "face step accepted" if accepted else "face step rejected")
        event("N > K" if n > k else "N <= K")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_utility_matches_score_bit_for_bit(self, data):
        k = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 8))
        prefix = data.draw(st.integers(0, k - 1))
        harvests = [0.0] * prefix + data.draw(
            st.lists(st.floats(0.1, 100.0), min_size=k - prefix, max_size=k - prefix)
        )
        losses = data.draw(st.lists(st.floats(1.0, 40.0), min_size=n, max_size=n))
        inst = make_instance(harvests, losses)
        # entries within TOL_ZERO below zero are clamped, as score clamps them
        entry = st.floats(-1e-13, 10.0)
        p = np.array(data.draw(st.lists(entry, min_size=k, max_size=k)))
        tau = np.array(data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n)))
        starved = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
        if starved is not None:
            tau[starved] = 0.0  # a user without bits: utility -inf
        got = convex._utility(inst, p, tau)
        want = score(inst, Schedule(p, tau)).utility_u
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        event("-inf" if want == -math.inf else "finite")

    def test_builds_no_score_report(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bcd built a score report")

        monkeypatch.setattr(model, "score", refuse)
        monkeypatch.setattr(convex, "score", refuse, raising=False)
        steps = []

        def face_step(*args, real=convex._face_step):
            steps.append(real(*args))
            return steps[-1]

        monkeypatch.setattr(convex, "_face_step", face_step)
        # a settled face, a zero-harvest prefix, and N > K from the CLI's start
        for harvests, losses in (
            ([20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0, 25.0]),
            ([0, 0, 20, 100, 1, 1, 1, 70, 100, 1, 10, 40], [19.0, 22.0, 25.0]),
            ([30.0, 60.0], [15.0, 20.0, 25.0]),
        ):
            inst = make_instance(harvests, losses)
            start = sg_tdma(inst)
            if check_feasibility(inst, start):
                n, k = inst.n_users, inst.n_slots
                start = Schedule(staircase_powers(inst), np.full((n, k), SLOT_S / n))
            _, trace = bcd(inst, start)
            assert trace.converged
        assert any(out is not None for out in steps)  # face-step halvings ran too

    def test_paper_frames_certify_within_their_rounds(self):
        # the 21 moderate-sweep and 9 bench2x2 frames from sg-tdma: 156 rounds
        # when the face step opened the round after a settled one
        frames = [
            builtin_scenario(profile, "moderate", users).instance
            for profile in HARVEST_PROFILES for users in range(2, 9)
        ] + [s.instance for s in bench_2x2_scenarios()]
        cfg = SolverConfig()
        rounds = 0
        for inst in frames:
            _, trace = bcd(inst, sg_tdma(inst), cfg)
            assert max(trace.residuals[-1]) <= cfg.tol_kkt
            rounds += trace.rounds_used
        assert len(frames) == 30
        assert rounds <= 129


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

        tau, _ = solve_time(inst, powers)
        res = kkt_residual_time(inst, powers, tau)
        assert res.certified(1e-6), res
        assert np.all(np.abs(tau.sum(axis=0) - T) <= 1e-12 * T)
        assert np.all(tau.sum(axis=1) >= T / n * (1 - 1e-6))
        assert check_feasibility(inst, Schedule(powers, tau)) == []

        p, _ = solve_power(inst, shares)
        res = kkt_residual_power(inst, shares, p)
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
