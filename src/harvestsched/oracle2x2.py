"""Closed-form optimal time allocation for two users and two equal slots.

With powers fixed, the optimal split is fully determined by how the two
powers compare and by each user's rate-improvement ratio
``gamma_n = R_n2 / R_n1``.  The weaker slot always goes wholly to one user
(the smaller-gamma user when the weak slot comes first, the larger-gamma user
when it comes second); the stronger slot is shared, favoring whoever was shut
out of the weak slot.  These splits serve as ground truth for the iterative
solvers, certified here through the first-order optimality system.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import kkt_residual_time
from .model import Instance, rate_matrix

_EQ_REL = 1e-12


@dataclass(frozen=True, eq=False, slots=True)
class TwoByTwoCase:
    """Resolved branch for one 2-user/2-slot power pair.

    ``tau_star`` is the canonical optimum; equal-gamma branches list the
    second optimum in ``alternates``.
    """

    power_relation: str
    gamma: tuple
    branch: str
    tau_star: np.ndarray
    utility_star: float
    alternates: tuple = ()


def _rel_cmp(a: float, b: float) -> int:
    """-1, 0, +1 comparison with relative tolerance for equality."""
    if abs(a - b) <= _EQ_REL * max(abs(a), abs(b)):
        return 0
    return -1 if a < b else 1


def _tau(t11, t21, t12, t22) -> np.ndarray:
    arr = np.array([[t11, t12], [t21, t22]], dtype=float)
    arr.setflags(write=False)
    return arr


def optimal_2x2(inst: Instance, powers) -> TwoByTwoCase:
    """Optimal time split and utility for fixed positive powers on a 2x2 frame."""
    if inst.n_users != 2 or inst.n_slots != 2:
        raise ValueError(f"needs exactly 2 users and 2 slots, got {inst.n_users}x{inst.n_slots}")
    p = np.asarray(powers, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"expected two powers, got shape {p.shape}")
    if np.any(p <= 0):
        raise ValueError("both powers must be positive (rate ratios are undefined at zero)")
    T = inst.slot_length_t
    R = rate_matrix(inst, p)
    (r11, r12), (r21, r22) = R
    g1, g2 = r12 / r11, r22 / r21
    pc, gc = _rel_cmp(p[0], p[1]), _rel_cmp(g1, g2)
    rel = {-1: "p1<p2", 0: "p1=p2", 1: "p1>p2"}[pc]
    grel = {-1: "gamma1<gamma2", 0: "gamma1=gamma2", 1: "gamma1>gamma2"}[gc]
    alternates: tuple = ()

    if pc < 0:
        if gc < 0:
            tau = _tau(T, 0.0, T / 2 * (1 - 1 / g1), T / 2 * (1 + 1 / g1))
            util = math.log2(r22 / r12 * (r11 + r12) ** 2) + 2 * math.log2(T / 2)
        elif gc > 0:
            tau = _tau(0.0, T, T / 2 * (1 + 1 / g2), T / 2 * (1 - 1 / g2))
            util = math.log2(r12 / r22 * (r21 + r22) ** 2) + 2 * math.log2(T / 2)
        else:
            tau = _tau(T, 0.0, T / 2 * (1 - 1 / g1), T / 2 * (1 + 1 / g1))
            alternates = (_tau(0.0, T, T / 2 * (1 + 1 / g2), T / 2 * (1 - 1 / g2)),)
            util = math.log2((r11 + r12) * (r21 + r22)) + 2 * math.log2(T / 2)
    elif pc > 0:
        if gc < 0:
            tau = _tau(T / 2 * (1 + g2), T / 2 * (1 - g2), 0.0, T)
            util = math.log2(r11 / r21 * (r21 + r22) ** 2) + 2 * math.log2(T / 2)
        elif gc > 0:
            tau = _tau(T / 2 * (1 - g1), T / 2 * (1 + g1), T, 0.0)
            util = math.log2(r21 / r11 * (r11 + r12) ** 2) + 2 * math.log2(T / 2)
        else:
            tau = _tau(T / 2 * (1 - g2), T / 2 * (1 + g2), T, 0.0)
            alternates = (_tau(T / 2 * (1 + g1), T / 2 * (1 - g1), 0.0, T),)
            util = math.log2((r11 + r12) * (r21 + r22)) + 2 * math.log2(T / 2)
    else:
        # powers equal within _EQ_REL give gammas equal within _EQ_REL, so
        # the equal-gamma split is the only one this case needs
        tau = _tau(T, 0.0, 0.0, T)
        alternates = (_tau(0.0, T, T, 0.0),)
        util = math.log2(r11 * r22) + 2 * math.log2(T)

    return TwoByTwoCase(
        power_relation=rel,
        gamma=(float(g1), float(g2)),
        branch=f"{rel},{grel}",
        tau_star=tau,
        utility_star=float(util),
        alternates=alternates,
    )


def kkt_check_2x2(inst: Instance, powers, shares_tau, tol: float = 1e-6):
    """Certify a 2x2 time allocation against the first-order optimality system.

    Multipliers come from :func:`kkt_residual_time`, which rebuilds them from
    the candidate point, so stationarity and dual feasibility hold by
    construction.  Returns ``(ok, detail)`` where ``detail`` maps
    complementary slackness and the reduced two-equation system for user 1's
    shares to their worst violation.  Infeasible shares (sign, slot time or
    minimum share) raise :class:`InfeasiblePointError`, zero bits
    :class:`DegenerateShareError`.
    """
    if inst.n_users != 2 or inst.n_slots != 2:
        raise ValueError(f"needs exactly 2 users and 2 slots, got {inst.n_users}x{inst.n_slots}")
    tau = np.asarray(shares_tau, dtype=float)
    if tau.shape != (2, 2):
        raise ValueError(f"expected a 2x2 share matrix, got shape {tau.shape}")
    T = inst.slot_length_t
    mu = kkt_residual_time(inst, powers, tau).multipliers["mu"]

    detail = {
        "comp_share": float(np.abs(mu * tau).max()),
        # reduced system over user 1's shares: either user 1 owns the whole
        # slot or the price gap vanishes; values[0] - values[1] + mu[0] is
        # mu[1], since each mu absorbs its user's gap to the slot price
        "reduced_comp_owner": float(np.abs(mu[0] * tau[0]).max()),
        "reduced_balance": float(np.abs(mu[1] * (T - tau[0])).max()),
    }
    ok = all(v <= tol for v in detail.values())
    return ok, detail
