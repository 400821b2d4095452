"""Solvers for the two convex blocks and the certifying alternating driver.

With shares fixed, the power problem maximizes the log-sum utility under
cumulative energy budgets; with powers fixed, the time problem maximizes it
over per-slot share simplices.  Both are solved by one damped Newton method
on a shrinking log-barrier.  The driver owns the barrier: it evaluates the
merit, tests the interior and bounds each step.  Each block supplies its
users' bits and the slacks the barrier keeps positive at a point, and a
Newton step whose barrier Hessian weight is an argument, with the rate at
which each slack falls along it.  A block call starts from the restart
point its previous call returned, a barrier centre at weight
``_RESTART_SIGMA``, or cold at weight ``_COLD_SIGMA``; its first stage runs
at that weight.  Every later stage opens with a predictor step, whose
Hessian keeps the last stage's weight, and every stage ends on the Newton
decrement.  A block solver returns only its point and restart point;
certificates are explicit KKT residuals whose multipliers are rebuilt from
a point alone, so any ascent scheme could be swapped in behind the same
contract.  Each solver checks its fixed input, and each certifier its
point, with the checks of ``model.check_feasibility`` for that variable,
and raises :class:`InfeasiblePointError` on any violation.

On small frames numpy's per-call cost sets the time, so each Newton
evaluation computes its pieces once: the interior test reads one minimum
per array, the time block's gradient and step share ``rates / A``, and the
power block builds its Hessian negated and in place, in three K x K passes.

The time block's Newton system couples N users through K slot sums.  Each
user's Hessian block is a diagonal plus a rank-one term, so each slot price
is a weighted average over its users; eliminating the prices leaves one
N x N positive definite system, solved twice (once more for one step of
iterative refinement).  A step costs O(N^2 K + N^3) rather than the
O((N K + K)^3) of the assembled KKT matrix; see :func:`_newton_step_time`.
The power block solves its dense K-order Newton system directly.

The alternating driver runs the time block first, then the power block, and
never accepts a half-step that lowers utility, so traces are monotone by
construction.  It hands each block the restart point of that block's
previous call: neither block's constraints depend on the other block's
variable, so the point stays strictly interior.  It certifies both blocks
once at each round's point, keeps the two residuals in the trace, and stops
once both are within ``tol_kkt`` (a block-stationary point) or the round
gains less than ``tol_utility``.
A block call ends within about ``m * tol_kkt / 100`` of its optimum in
utility, for m barrier terms, which can exceed ``tol_utility``; so the
first such stall at an uncertified point instead tightens ``tol_kkt``
a hundredfold for the rest of the run, each block still starting from its
previous call's restart point, and the run stops at its next stall or
certificate.

The alternation converges only linearly.  When a round's block output
keeps the previous round's active face (the live shares and the binding
budgets), the round ends with Newton steps on that face in both blocks'
variables at once (Bertsekas, SIAM J. Control Optim. 1982), before its
certificate; see :func:`_face_step`.  The driver compares utilities with
:func:`_utility`, ``score``'s utility without the rest of its report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    LN2,
    Instance,
    Schedule,
    check_feasibility,
    rate_matrix,
    _check_dims,
    _power_violations,
    _share_violations,
)
from .structure import staircase_powers

_ARMIJO = 1e-4
_STEP_SHRINK = 0.5
_BOUNDARY_FRAC = 0.995
#: Barrier weight of the stage whose centre a block call returns as its
#: restart point, so the block's next call skips the stages above it.
#: Against 1e-2, restarting at 1e-3 and 1e-4 cut traced ``paper_sweep``
#: Newton solves by 17 % and 31 %.  Restarting at the last centre cut them
#: from 13,343 to 8,938 and ``wall_s`` by about 31 %, but raised perfbench's
#: ``peak_rss_mb`` 18-19 %, as it keeps every pass, and took more rounds.
_RESTART_SIGMA = 1e-4
#: Barrier weight of a cold call's first stage.  Most start points' mean
#: complementarity already lies between 1e-3 and 5e-2, so stages at 1 and
#: 0.1 pull the point inward only to push it back out (B&V 11.3.1).
#: Against 1, it cut traced ``--seed 1`` block Newton solves from 13,343 to
#: 12,773 on ``paper_sweep`` and from 21,106 to 19,207 on ``long_horizon``,
#: with the same rounds.  1e-3 cut ``long_horizon`` pass time 18 % but
#: raised ``peak_rss_mb`` 7.3 %; 1e-4 broke warm/cold agreement (4.6e-6).
_COLD_SIGMA = 1e-2
#: The active face of a round-end point: shares above ``_FACE_SHARE * T``
#: are live, and a free slot's cumulative budget binds when its slack is
#: within ``_FACE_BUDGET`` times the total harvest (see :func:`_face_step`).
_FACE_SHARE = 1e-4
_FACE_BUDGET = 1e-6


class NonconvergenceError(RuntimeError):
    """Inner budget spent; carries the last iterate and its squared Newton decrement."""

    def __init__(self, message: str, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class DegenerateShareError(ValueError):
    """A user's shares give it zero bits for every feasible power vector."""


class InfeasiblePointError(ValueError):
    """A block's fixed or certified variable breaks a :func:`check_feasibility` check."""


class InfeasibleStartError(ValueError):
    """The initial schedule handed to the alternating driver is infeasible."""


@dataclass(frozen=True, slots=True)
class SolverConfig:
    tol_kkt: float = 1e-6
    tol_utility: float = 1e-8
    max_inner_iters: int = 10_000
    max_bcd_rounds: int = 200

    def __post_init__(self):
        if not (0 < self.tol_kkt < math.inf and 0 < self.tol_utility < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not (self.max_inner_iters > 0 and self.max_bcd_rounds > 0):
            raise ValueError("iteration limits must be positive")


@dataclass(frozen=True, eq=False, slots=True)
class KktResidual:
    """Worst-case optimality residuals plus the multipliers that achieve them.

    ``multipliers`` maps names to nonnegative vectors: for the power problem
    ``lambda`` (cumulative energy) and ``mu`` (power nonnegativity); for the
    time problem ``lambda`` (per-slot time) and ``mu`` (share nonnegativity,
    N x K).  The minimum total share never binds at a time-block optimum
    (see :func:`solve_time`), so it carries no multiplier.  ``max_residual``
    is the worst complementarity term, in log2 utility units: stationarity
    holds by construction and infeasible points raise before it is formed.
    """

    max_residual: float
    multipliers: dict

    def certified(self, tol: float) -> bool:
        return self.max_residual <= tol


@dataclass(frozen=True, eq=False, slots=True)
class BcdTrace:
    """Utility trajectory of one alternating run; utilities[0] is the start.

    ``residuals`` is a read-only array with one ``(time, power)`` row of KKT
    ``max_residual`` values per round-end point, ``inf`` where a block cannot
    be certified; one array, not a tuple of float pairs, since callers may
    keep many traces.
    """

    utilities: tuple
    rounds_used: int
    converged: bool
    warnings: tuple
    schedules: tuple
    residuals: np.ndarray


# ---------------------------------------------------------------------------
# shared pieces

def _bits_per_user(rates: np.ndarray, tau: np.ndarray) -> np.ndarray:
    return (tau * rates).sum(axis=1)


def power_utility_gradient(inst: Instance, shares_tau, powers_p) -> np.ndarray:
    """Gradient of the log2-sum utility with respect to the slot powers."""
    tau = np.asarray(shares_tau, dtype=float)
    p = np.maximum(np.asarray(powers_p, dtype=float), 0.0)
    L = inst.norm_gains
    W = inst.bandwidth_w_hz
    ln_terms = np.log1p(np.outer(L, p))
    A_nat = (tau * ln_terms).sum(axis=1) * (W / LN2)  # bits
    if np.any(A_nat <= 0):
        raise DegenerateShareError("a user receives zero bits at this point")
    dA = tau * (W / LN2) * L[:, None] / (1.0 + np.outer(L, p))
    return (dA / A_nat[:, None]).sum(axis=0) / LN2


def _check_shares(inst: Instance, tau: np.ndarray) -> None:
    if tau.shape != (inst.n_users, inst.n_slots):
        raise ValueError(f"share matrix shape {tau.shape} does not match instance")
    violations = _share_violations(inst, tau)
    if violations:
        raise InfeasiblePointError(f"shares break {violations[:3]}")


def _checked_powers(inst: Instance, p: np.ndarray) -> np.ndarray:
    """``p`` clamped at zero, once it passes the power checks."""
    if p.shape != (inst.n_slots,):
        raise ValueError(f"expected {inst.n_slots} powers, got shape {p.shape}")
    violations = _power_violations(inst, p)
    if violations:
        raise InfeasiblePointError(f"powers break {violations[:3]}")
    return np.maximum(p, 0.0)


def _step_to_boundary(*limits) -> float:
    """Fraction-to-the-boundary step length for ``(slack, rate)`` pairs.

    Each slack (strictly positive in the interior) falls at its rate along
    the step; the result is at most 1.0 and stops short of the first slack
    to reach zero.
    """
    worst = max(float((rate / slack).max()) for slack, rate in limits)
    return _BOUNDARY_FRAC / max(worst, _BOUNDARY_FRAC)


def _merit(A, slacks, sigma) -> float:
    """Barrier merit, ``-inf`` unless all entries are positive (NaN fails Armijo)."""
    if A.min() <= 0:
        return -math.inf
    val = np.log(A).sum()
    for s in slacks:
        if s.min() <= 0:
            return -math.inf
        val = val + sigma * np.log(s).sum()
    return float(val)


def _barrier_newton(x, cfg: SolverConfig, parts, newton, block: str, restart=None):
    """Maximize a concave block by damped Newton on a shrinking log-barrier.

    ``parts(x)`` returns ``(A, slacks)``: the users' bits and the tuple of
    arrays the barrier keeps positive.  The merit for weight ``sigma``,
    ``sum(log A) + sigma * sum(log s)`` over the slacks (B&V 11.3), is
    ``-inf`` outside the interior (:func:`_merit`); ``parts`` runs once per
    tried point and the accepted iterate's are kept.  ``newton(x, A, slacks,
    sigma, h_sigma)`` returns ``(d, rates, slope)``: the Newton step for
    weight ``sigma`` whose Hessian carries the barrier weight ``h_sigma``,
    the rate at which each slack falls along it, and the merit slope.

    The path starts at ``restart = (x_r, sigma_r)`` when ``x_r`` has ``x``'s
    shape and lies in the interior and ``sigma_r`` lies in [final weight,
    1], and at ``x`` with the cold start's weight ``_COLD_SIGMA`` otherwise;
    the first stage runs at that weight.  Each stage ends once the slope of
    its own Newton step (``h_sigma == sigma``), the squared Newton
    decrement, is at most ``0.1 * sigma`` (B&V 9.5.1); the weight then falls
    tenfold until the final weight ``tol_kkt * ln2 / 100``.  Every stage
    after the first opens with one predictor step whose Hessian keeps the
    previous weight: that is the primal-dual step with each bound's dual at
    the last centre, ``sigma_prev / slack`` (B&V 11.7; Nocedal & Wright
    ch. 19), and it carries a separable barrier term onto its new centre in
    one full step, where the stage's own Hessian overshoots ninefold.

    Returns ``(x, restart)``: the last centre, and the centre and weight of
    the first stage at or below ``_RESTART_SIGMA`` (``None`` when the path
    ends above it), from which a call on a nearby problem with the same
    constraints can start (Yildirim & Wright, SIAM J. Optim. 2002).  Raises
    :class:`NonconvergenceError` naming ``block``, with the slope at exit as
    its residual, once ``max_inner_iters`` Newton steps (predictors
    included) are spent.
    """

    sigma_final = cfg.tol_kkt * LN2 / 100.0
    starts = [(x, _COLD_SIGMA)]
    if (restart is not None and np.shape(restart[0]) == np.shape(x)
            and sigma_final <= restart[1] <= 1):
        starts.insert(0, restart)
    for x, sigma in starts:
        A, slacks = parts(x)  # the accepted iterate's parts
        if _merit(A, slacks, sigma) > -math.inf:
            break
    h_sigma = sigma
    iters = 0
    next_restart = None
    while True:
        base = _merit(A, slacks, sigma)
        while True:
            d, rates, slope = newton(x, A, slacks, sigma, h_sigma)
            if h_sigma == sigma and slope <= 0.1 * sigma:
                break
            h_sigma = sigma
            iters += 1
            if iters > cfg.max_inner_iters:
                raise NonconvergenceError(
                    f"{block} block exceeded the inner iteration budget",
                    best=x,
                    residual=float(slope),
                )
            alpha = _step_to_boundary(*zip(slacks, rates))
            while alpha > 1e-16:
                cand = x + alpha * d
                cand_A, cand_slacks = parts(cand)
                val = _merit(cand_A, cand_slacks, sigma)
                if val >= base + _ARMIJO * alpha * slope:
                    x, A, slacks, base = cand, cand_A, cand_slacks, val
                    break
                alpha *= _STEP_SHRINK
        # the tenfold cuts round up (0.1 * 0.1 > 0.01), hence the margin
        if next_restart is None and sigma <= _RESTART_SIGMA * (1.0 + 1e-9):
            next_restart = (x, sigma)
        if sigma <= sigma_final:
            return x, next_restart
        h_sigma, sigma = sigma, max(sigma * 0.1, sigma_final)


# ---------------------------------------------------------------------------
# time block: fixed powers, optimize shares over per-slot simplices

def solve_time(inst: Instance, powers_p, cfg: SolverConfig | None = None, restart=None):
    """Optimal time shares for fixed powers.

    Returns ``(shares_tau, restart)``, ``shares_tau`` read-only so a
    :class:`Schedule` keeps it uncopied; :func:`kkt_residual_time` certifies
    it.  The barrier keeps all shares strictly positive, forcing a
    deterministic interior optimum (the analytic center when the optimal
    face is flat); per-slot sums are exact on return.  The path starts at
    equal shares, or at ``restart`` from an earlier call on this instance
    (see :func:`_barrier_newton`).  The minimum total share needs no
    barrier, since it never binds: at the optimum each user has sum_t
    tau_nt lambda_t = 1 and T sum_t lambda_t = N, so its total share is at
    least 1 / max_t lambda_t >= T/N > epsilon_share.
    """
    cfg = cfg or SolverConfig()
    p = _checked_powers(inst, np.asarray(powers_p, dtype=float))
    if not np.any(p > 0):
        raise ValueError("all powers are zero; the time block is vacuous")
    rates = rate_matrix(inst, p)
    N, K = rates.shape
    T = inst.slot_length_t

    tau = np.full((N, K), T / N)
    if restart is not None and (
        np.shape(restart[0]) != tau.shape
        or np.abs(restart[0].sum(axis=0) - T).max() > inst.tol_time
    ):
        restart = None  # the barrier keeps slot sums, so it must start on them

    others = 1.0 - np.eye(N)  # see _newton_step_time
    def newton(x, A, slacks, sigma, h_sigma):
        u = rates / A[:, None]
        grad = u + sigma / x
        d = _newton_step_time(u, x, grad, h_sigma, others)
        return d, (-d,), float((grad * d).sum())

    tau, restart = _barrier_newton(
        tau, cfg, lambda x: (_bits_per_user(rates, x), (x,)), newton, "time", restart
    )
    tau = tau * (T / tau.sum(axis=0, keepdims=True))  # exact slot sums
    tau.setflags(write=False)
    return tau, restart


def _newton_step_time(u, tau, grad, sigma, others):
    """Newton step of the time block by block elimination (B&V 10.4.2, C.4).

    The step ``d`` and slot prices ``nu`` solve ``H_n d_n + nu = -g_n`` for
    every user n and ``sum_n d_n = 0``, where ``H_n = -(D_n + u_n u_n^T)``,
    ``D_n = diag(sigma / tau_n^2)`` and ``u_n = r_n / A_n``.  So ``d_n =
    D_n^{-1} (g_n + nu - u_n s_n)`` with ``s_n = u_n^T d_n``, each slot sum
    makes ``nu_t`` a ``D^{-1}``-weighted average over slot t's users, and
    ``s`` solves an N x N system ``G = I + sum_t U_t (D_t^{-1} - delta_t
    delta_t^T / 1^T delta_t) U_t >= I``, with ``U_t = diag(u_t)`` and
    ``delta_t`` slot t's ``D^{-1}``.  Both terms of its diagonal grow as
    1/sigma, so it sums each slot's ``D^{-1}`` over the *other* users
    instead of cancelling them.  LU solves ``G`` twice, the second time for
    one step of iterative refinement on the full KKT residual; ``G``'s
    explicit inverse loses accuracy at small sigma.  A step costs
    O(N^2 K + N^3).  The caller passes ``u = rates / A`` and ``others =
    1 - I``, which sums each slot's ``D^{-1}`` over the other users.
    """
    N = tau.shape[0]
    d_inv = tau * tau / sigma
    w = d_inv * u
    total = d_inv.sum(axis=0)
    w_avg = w / total
    G = w_avg @ -w.T
    G.flat[::N + 1] = 1.0 + (w_avg * u * (others @ d_inv)).sum(axis=1)

    def solve(a, b):  # H_n x_n + y = a_n for all n, sum_n x_n = b
        y = (b + (d_inv * a).sum(axis=0)) / total
        s = np.linalg.solve(G, (w * (y - a)).sum(axis=1))
        y = y + s @ w_avg
        return d_inv * (y - a) - w * s[:, None], y

    d, nu = solve(-grad, 0.0)
    top = d / d_inv + u * (u * d).sum(axis=1)[:, None] - grad - nu  # -g - H d - nu
    step, _ = solve(top, -d.sum(axis=0))
    return d + step


def kkt_residual_time(inst: Instance, powers_p, shares_tau) -> KktResidual:
    """KKT residuals of a time allocation for fixed powers.

    The tightest dual-feasible multipliers are reconstructed from the point
    itself: each slot's price is the best marginal value among its users and
    every share's nonnegativity multiplier absorbs its gap to that price.
    Stationarity is then exact by construction, so non-optimality surfaces
    as complementarity (a user holding time in a slot it does not price).
    """
    p = np.maximum(np.asarray(powers_p, dtype=float), 0.0)
    tau = np.asarray(shares_tau, dtype=float)
    _check_shares(inst, tau)
    rates = rate_matrix(inst, p)
    A = _bits_per_user(rates, tau)
    if np.any(A <= 0):
        raise DegenerateShareError("a user receives zero bits; the utility gradient is undefined")
    values = rates / (A[:, None] * LN2)

    lam = values.max(axis=0)
    mu = lam[None, :] - values
    return KktResidual(
        max_residual=float(np.abs(mu * tau).max()),
        multipliers={"lambda": lam, "mu": mu},
    )


# ---------------------------------------------------------------------------
# power block: fixed shares, optimize powers under cumulative energy budgets

def _first_free_slot(inst: Instance) -> int:
    """The first slot whose cumulative harvest exceeds the total's rounding;
    earlier ones, whose energy later budgets round away and whose barrier can
    overflow (``1 / p**2`` at 1e-300 J), are pinned to zero power."""
    return int(np.argmax(inst.cum_harvests > np.finfo(float).eps * inst.total_harvest))


def solve_power(inst: Instance, shares_tau, cfg: SolverConfig | None = None, restart=None):
    """Optimal powers for fixed shares.

    Returns ``(powers_p, restart)``, ``powers_p`` read-only as in
    :func:`solve_time`; :func:`kkt_residual_power` certifies it.  Slots
    before :func:`_first_free_slot` are pinned to zero power; the rest are
    solved by barrier Newton, so the unique optimum of this strictly
    concave block is reached regardless of the starting point.  The
    path starts at nine tenths of the staircase powers, or at ``restart``
    from an earlier call on this instance (see :func:`_barrier_newton`).
    """
    cfg = cfg or SolverConfig()
    tau = np.asarray(shares_tau, dtype=float)
    _check_shares(inst, tau)
    tau = np.maximum(tau, 0.0)
    T = inst.slot_length_t
    K = inst.n_slots
    C = inst.cum_harvests
    L = inst.norm_gains
    W = inst.bandwidth_w_hz

    t0 = _first_free_slot(inst)
    free = slice(t0, K)
    if np.any(tau[:, free].sum(axis=1) <= 0):
        raise DegenerateShareError(
            "a user has no share on any slot that can carry power; its utility "
            "would be -inf for every feasible power vector"
        )

    tau_f = tau[:, free]
    C_f = C[free]
    scaled = tau_f * (W / LN2) * L[:, None]  # d bits / d p at zero power

    def parts(p):
        # pinned zero-power slots contribute zero rate, so bits come from
        # the free slots alone
        A = (tau_f * np.log1p(L[:, None] * p)).sum(axis=1) * (W / LN2)
        return A, (p, C_f - T * p.cumsum())

    def newton(p, A, slacks, sigma, h_sigma):
        denom = 1.0 + L[:, None] * p
        a = scaled / denom
        M = a / A[:, None]
        inv_slack = 1.0 / slacks[1]
        suffix = inv_slack[::-1].cumsum()[::-1]
        grad = M.sum(axis=0) + sigma / p - sigma * T * suffix
        # -H in place, solved against grad: the same step, bit for bit
        neg_H = M.T @ M
        b = a * L[:, None] / denom
        neg_H.flat[::p.size + 1] += (b / A[:, None]).sum(axis=0) + h_sigma / p**2
        # a reversed cumsum of nonnegative terms is nonincreasing, so its
        # value at max(i, j) is the smaller of the two, scaled or not
        suffix_sq = h_sigma * T * T * (inv_slack**2)[::-1].cumsum()[::-1]
        neg_H += np.minimum.outer(suffix_sq, suffix_sq)
        d = np.linalg.solve(neg_H, grad)
        return d, (-d, T * d.cumsum()), float(grad @ d)

    pinned = np.zeros(t0)
    try:
        p_free, restart = _barrier_newton(
            0.9 * staircase_powers(inst)[free], cfg, parts, newton, "power", restart
        )
    except NonconvergenceError as err:
        err.best = np.concatenate([pinned, err.best])
        raise
    p_full = np.concatenate([pinned, p_free])
    p_full.setflags(write=False)
    return p_full, restart


def kkt_residual_power(inst: Instance, shares_tau, powers_p) -> KktResidual:
    """KKT residuals of a power vector for fixed shares.

    Stationarity couples each slot to the multipliers of every later
    cumulative budget, so the budget prices seen from slot t form a suffix
    sum that can only fall over time.  The smallest dual-feasible prices are
    rebuilt backward from the last slot (each budget's multiplier is the rise
    its suffix price needs) and each slot's nonnegativity multiplier absorbs
    any remaining gap.  Stationarity is then exact and non-optimality
    surfaces as complementarity: positive prices on slack budgets or positive
    gaps on powered slots.
    """
    tau = np.asarray(shares_tau, dtype=float)
    p = _checked_powers(inst, np.asarray(powers_p, dtype=float))
    T = inst.slot_length_t
    grad = power_utility_gradient(inst, tau, p)
    slack = inst.cum_harvests - np.cumsum(p) * T
    # price of energy as seen from slot t onward
    suffix = np.maximum.accumulate(np.maximum(grad / T, 0.0)[::-1])[::-1]
    lam = suffix - np.append(suffix[1:], 0.0)
    mu = T * suffix - grad

    return KktResidual(
        max_residual=max(float(np.abs(mu * p).max()), float(np.abs(lam * slack).max())),
        multipliers={"lambda": lam, "mu": mu},
    )


# ---------------------------------------------------------------------------
# alternating driver

def _certify(certifier, inst: Instance, *point) -> float:
    """``certifier``'s ``max_residual`` at ``point``, ``inf`` where it cannot certify.

    The certifiers rebuild the multipliers from the point alone, which stays
    accurate where binding constraints make the barrier's own sigma / slack
    multipliers ill-conditioned.
    """
    try:
        return certifier(inst, *point).max_residual
    except ValueError:
        return math.inf


def _utility(inst: Instance, p: np.ndarray, tau: np.ndarray) -> float:
    """``score(inst, Schedule(p, tau)).utility_u`` bit for bit, without the report."""
    bits = np.maximum(tau, 0.0) * rate_matrix(inst, np.maximum(p, 0.0))
    with np.errstate(divide="ignore"):
        return float(np.log2(bits.sum(axis=1)).sum())


def _active_face(inst: Instance, sched: Schedule):
    """``(live, binding)``: the live shares, and the free slots' binding budgets."""
    slack = inst.cum_harvests - inst.slot_length_t * np.cumsum(sched.powers_p)
    binding = slack <= _FACE_BUDGET * inst.total_harvest
    binding[:_first_free_slot(inst)] = False
    return sched.shares_tau > _FACE_SHARE * inst.slot_length_t, binding


def _face_step(inst: Instance, sched: Schedule, utility: float, face):
    """At most six Newton steps from ``sched`` on its active ``face``.

    The variables are the free slots' powers and the live users' shares of
    the shared slots, those with two or more live users.  Dead shares and
    the powers before :func:`_first_free_slot` are zero, a slot with one
    live user gives it all of T, and the prefix keeps its shares.  Each step
    solves one dense KKT system for ``sum_n log A_n`` with the shared slots'
    time sums and the binding budgets as equalities (a budget's slack is its
    residual), and is taken only along negative curvature.  It is halved
    until the point is nonnegative, strictly above the best utility so far,
    which starts at ``utility``, and feasible.  Returns ``(schedule,
    utility)`` of the last accepted point, its arrays read-only so the
    :class:`Schedule` keeps them, or ``None`` when no step was accepted.
    """
    live, binding = face
    N, K = live.shape
    T = inst.slot_length_t
    L = inst.norm_gains[:, None]
    t0 = _first_free_slot(inst)
    shared = live.sum(axis=0) > 1
    single = ~shared
    shared[:t0] = single[:t0] = False
    tau = np.where(live, sched.shares_tau, 0.0)
    tau[:, :t0] = sched.shares_tau[:, :t0]  # no power there, so no bits
    tau[:, single] = T * live[:, single]
    tau[:, shared] *= T / tau[:, shared].sum(axis=0)
    p = np.where(np.arange(K) < t0, 0.0, sched.powers_p)
    ns, ts = np.nonzero(live & shared)
    m = K - t0
    js = m + np.arange(ns.size)  # the shares' columns follow the powers'
    n = m + ns.size
    slots, budgets = np.flatnonzero(shared), np.flatnonzero(binding)
    rows = np.zeros((slots.size + budgets.size, n))
    rows[np.searchsorted(slots, ts), js] = 1.0
    rows[slots.size:, :m] = T * (np.arange(t0, K) <= budgets[:, None])
    best = None
    for _ in range(6):
        rates = rate_matrix(inst, p)
        bend = L / (1.0 + L * p)  # -r'' / r' of each user's rate in each slot
        d_rate = inst.bandwidth_w_hz / LN2 * bend
        A = (tau * rates).sum(axis=1)
        if A.min() <= 0:
            break
        G = np.zeros((n, N))  # the gradient of each A_n, over A_n
        G[:m] = (tau * d_rate / A[:, None])[:, t0:].T
        G[js, ns] = rates[ns, ts] / A[ns]
        H = -G @ G.T
        H[np.arange(m), np.arange(m)] -= (G[:m] * bend[:, t0:].T).sum(axis=1)
        cross = d_rate[ns, ts] / A[ns]
        H[ts - t0, js] += cross
        H[js, ts - t0] += cross
        residual = np.concatenate([
            T - tau[:, slots].sum(axis=0),
            inst.cum_harvests[budgets] - T * np.cumsum(p)[budgets],
        ])
        kkt = np.block([[H, rows.T], [rows, np.zeros((rows.shape[0],) * 2)]])
        try:
            d = np.linalg.solve(kkt, np.concatenate([-G.sum(axis=1), residual]))[:n]
        except np.linalg.LinAlgError:
            break
        if not d @ H @ d < 0:
            break
        alpha = 1.0
        while alpha > 1e-3:
            cand_p, cand_tau = p.copy(), tau.copy()
            cand_p[t0:] += alpha * d[:m]
            cand_tau[ns, ts] += alpha * d[m:]
            if cand_p.min() >= 0 and cand_tau.min() >= 0:
                u_cand = _utility(inst, cand_p, cand_tau)
                if u_cand > utility:  # only a gain pays for the feasibility check
                    cand_p.setflags(write=False)
                    cand_tau.setflags(write=False)
                    cand = Schedule(cand_p, cand_tau)
                    if not check_feasibility(inst, cand):
                        p, tau, utility = cand_p, cand_tau, u_cand
                        best = cand, utility
                        break
            alpha *= 0.5
        else:
            break
    return best


def bcd(inst: Instance, init: Schedule, cfg: SolverConfig | None = None):
    """Alternate the time and power blocks from a feasible start.

    Each round solves the time block first, then the power block, each from
    the restart point of its previous call, accepting a half-step only when
    it improves utility, and certifies both blocks once at its end point
    (``trace.residuals``).  The run converges once both residuals are
    within ``tol_kkt`` (a block-stationary point; Tseng, JOTA 2001) or a round
    gains less than ``tol_utility``, and otherwise ends on the round budget.
    The first such stall at an uncertified point does not end the run: the
    blocks' ``tol_kkt`` falls a hundredfold for the rest of it, each block
    still starting from its own last restart point, and the run ends on its
    next stall or certificate.  When a round's block output keeps the
    previous round's active face (:func:`_active_face`), the round ends with
    :func:`_face_step`, whose point becomes the iterate when it strictly
    raises utility, before the round certifies; so ``trace.schedules[r]``
    and ``trace.utilities[r]`` include that step.
    Subsolver nonconvergence is downgraded to a trace warning and the best
    iterate is used.

    Returns ``(schedule, BcdTrace)``; the schedule is ``trace.schedules[-1]``,
    and ``trace.schedules[0]`` is ``init`` itself unless an entry needed
    clamping to zero.
    """
    cfg = cfg or SolverConfig()
    _check_dims(inst, init)
    violations = check_feasibility(inst, init)
    if violations:
        raise InfeasibleStartError(f"initial schedule is infeasible: {violations[:3]}")

    if np.any(init.powers_p < 0) or np.any(init.shares_tau < 0):
        init = Schedule(np.maximum(init.powers_p, 0.0), np.maximum(init.shares_tau, 0.0))
    sched = init  # the iterate; a rejected half-step keeps its block's array
    utility = _utility(inst, sched.powers_p, sched.shares_tau)
    utilities = [utility]
    schedules = [sched]
    warnings: list[str] = []
    residuals: list[tuple[float, float]] = []
    time_restart = power_restart = None  # each block's last restart point
    block_cfg = cfg
    face = None  # the active face of the last round's block output
    for rounds in range(1, cfg.max_bcd_rounds + 1):
        try:
            tau_new, time_restart = solve_time(inst, sched.powers_p, block_cfg, time_restart)
        except NonconvergenceError as err:
            warnings.append(f"round {rounds} time block: {err}")
            tau_new = err.best
        u_new = _utility(inst, sched.powers_p, tau_new)
        if u_new > utility:
            sched, utility = Schedule(sched.powers_p, tau_new), u_new

        try:
            p_new, power_restart = solve_power(inst, sched.shares_tau, block_cfg, power_restart)
        except NonconvergenceError as err:
            warnings.append(f"round {rounds} power block: {err}")
            p_new = err.best
        u_new = _utility(inst, p_new, sched.shares_tau)
        if u_new > utility:
            sched, utility = Schedule(p_new, sched.shares_tau), u_new

        last, face = face, _active_face(inst, sched)
        if last is not None and all(map(np.array_equal, face, last)):
            stepped = _face_step(inst, sched, utility, face)
            if stepped is not None:
                sched, utility = stepped
        residuals.append((
            _certify(kkt_residual_time, inst, sched.powers_p, sched.shares_tau),
            _certify(kkt_residual_power, inst, sched.shares_tau, sched.powers_p),
        ))
        utilities.append(utility)
        schedules.append(sched)
        certified = max(residuals[-1]) <= cfg.tol_kkt
        stalled = utility - utilities[-2] < cfg.tol_utility
        converged = certified or stalled
        if certified or (stalled and block_cfg is not cfg):
            break
        if stalled:  # the finishing round: a hundredfold tighter tol_kkt
            block_cfg = replace(cfg, tol_kkt=cfg.tol_kkt / 100.0)

    residual_rows = np.array(residuals)
    residual_rows.setflags(write=False)
    trace = BcdTrace(
        utilities=tuple(utilities),
        rounds_used=len(residuals),
        converged=converged,
        warnings=tuple(warnings),
        schedules=tuple(schedules),
        residuals=residual_rows,
    )
    return sched, trace
