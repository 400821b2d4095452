"""Shared fixtures and independent oracles for the test suite.

The helpers here recompute quantities from first principles (plain ``math``
on the defining formulas, exhaustive grids, local pairwise equalization) so
the library is always checked against code that does not share its
implementation path.
"""
import math

import numpy as np
import pytest

from harvestsched import Instance

W_HZ = 1000.0
N0_W_PER_HZ = 1e-6
SLOT_S = 10.0


def make_instance(harvests, losses_db, **kw) -> Instance:
    return Instance(W_HZ, N0_W_PER_HZ, SLOT_S, harvests, losses_db, **kw)


def oracle_rate(loss_db: float, power_w: float, w=W_HZ, n0=N0_W_PER_HZ) -> float:
    """Single-link rate from the defining formula, via math only."""
    gain = 10.0 ** (-loss_db / 10.0)
    return w * math.log2(1.0 + gain / (n0 * w) * power_w)


def oracle_utility(harvests, losses, powers, tau, w=W_HZ, n0=N0_W_PER_HZ) -> float:
    """Log2-sum utility recomputed independently of the library."""
    total = 0.0
    for n, loss in enumerate(losses):
        bits = sum(tau[n][t] * oracle_rate(loss, powers[t], w, n0) for t in range(len(powers)))
        total += math.log2(bits) if bits > 0 else -math.inf
    return total


def grid_search_2x2(inst: Instance, powers, steps: int = 2000) -> float:
    """Best utility over the (tau11, tau12) grid with tau2t = T - tau1t."""
    from harvestsched import rate_matrix

    T = inst.slot_length_t
    R = rate_matrix(inst, powers)
    g = np.linspace(0.0, T, steps + 1)
    best = -math.inf
    a1_slot1 = g * R[0, 0]
    a2_slot1 = (T - g) * R[1, 0]
    a1_slot2 = g * R[0, 1]
    a2_slot2 = (T - g) * R[1, 1]
    # chunk over tau11 to bound memory at ~ steps x chunk doubles
    chunk = 256
    with np.errstate(divide="ignore"):
        for lo in range(0, steps + 1, chunk):
            hi = min(lo + chunk, steps + 1)
            A1 = a1_slot1[lo:hi, None] + a1_slot2[None, :]
            A2 = a2_slot1[lo:hi, None] + a2_slot2[None, :]
            U = np.log2(A1) + np.log2(A2)
            m = float(np.nanmax(U))
            if m > best:
                best = m
    return best


# one (harvests, path losses, powers) case per reachable branch of
# table_2x2: both power orders x both ratio orders, the equal-ratio
# (equal-gain) rows and the equal-power row
BRANCH_CASES_2x2 = [
    ([0.5, 50.0], [19.0, 22.0], [0.05, 5.0]),    # p1<p2, g1<g2
    ([0.5, 50.0], [22.0, 19.0], [0.05, 5.0]),    # p1<p2, g1>g2
    ([0.5, 50.0], [21.0, 21.0], [0.05, 5.0]),    # p1<p2, g1=g2
    ([50.0, 0.5], [19.0, 22.0], [3.0, 2.05]),    # p1>p2, g1>g2
    ([50.0, 0.5], [22.0, 19.0], [3.0, 2.05]),    # p1>p2, g1<g2
    ([50.0, 0.5], [21.0, 21.0], [3.0, 2.05]),    # p1>p2, g1=g2
    ([30.0, 30.0], [19.0, 22.0], [2.0, 2.0]),    # p1=p2
]


def table_2x2(inst: Instance, powers):
    """The paper's 2x2 split as a table: ``(tau, alternates, utility, branch)``.

    One branch per power order and ratio order, each with its own
    closed-form utility, compared with the same relative tolerance as
    ``oracle2x2._rel_cmp``.  ``alternates`` lists the other optimum of a
    tied branch, and ``branch`` names the branch, e.g.
    ``"p1<p2,gamma1=gamma2"``.
    """
    from harvestsched import rate_matrix

    def cmp(a, b):
        if abs(a - b) <= 1e-12 * max(abs(a), abs(b)):
            return 0
        return -1 if a < b else 1

    def split(t11, t21, t12, t22):
        return np.array([[t11, t12], [t21, t22]], dtype=float)

    T = inst.slot_length_t
    p = np.asarray(powers, dtype=float)
    (r11, r12), (r21, r22) = rate_matrix(inst, p)
    g1, g2 = r12 / r11, r22 / r21
    pc, gc = cmp(p[0], p[1]), cmp(g1, g2)
    alternates = ()
    if pc < 0:
        if gc < 0:
            tau = split(T, 0.0, T / 2 * (1 - 1 / g1), T / 2 * (1 + 1 / g1))
            util = math.log2(r22 / r12 * (r11 + r12) ** 2) + 2 * math.log2(T / 2)
        elif gc > 0:
            tau = split(0.0, T, T / 2 * (1 + 1 / g2), T / 2 * (1 - 1 / g2))
            util = math.log2(r12 / r22 * (r21 + r22) ** 2) + 2 * math.log2(T / 2)
        else:
            tau = split(T, 0.0, T / 2 * (1 - 1 / g1), T / 2 * (1 + 1 / g1))
            alternates = (split(0.0, T, T / 2 * (1 + 1 / g2), T / 2 * (1 - 1 / g2)),)
            util = math.log2((r11 + r12) * (r21 + r22)) + 2 * math.log2(T / 2)
    elif pc > 0:
        if gc < 0:
            tau = split(T / 2 * (1 + g2), T / 2 * (1 - g2), 0.0, T)
            util = math.log2(r11 / r21 * (r21 + r22) ** 2) + 2 * math.log2(T / 2)
        elif gc > 0:
            tau = split(T / 2 * (1 - g1), T / 2 * (1 + g1), T, 0.0)
            util = math.log2(r21 / r11 * (r11 + r12) ** 2) + 2 * math.log2(T / 2)
        else:
            tau = split(T / 2 * (1 - g2), T / 2 * (1 + g2), T, 0.0)
            alternates = (split(T / 2 * (1 + g1), T / 2 * (1 - g1), 0.0, T),)
            util = math.log2((r11 + r12) * (r21 + r22)) + 2 * math.log2(T / 2)
    else:
        # powers equal within the tolerance keep the gammas equal within it
        tau = split(T, 0.0, 0.0, T)
        alternates = (split(0.0, T, T, 0.0),)
        util = math.log2(r11 * r22) + 2 * math.log2(T)
    branch = f"p1{'<=>'[pc + 1]}p2,gamma1{'<=>'[gc + 1]}gamma2"
    return tau, alternates, util, branch


def pairwise_deferral_limit(harvests, iters: int = 200000, tol: float = 1e-13):
    """Fixed point of repeated local equalization of decreasing adjacent pairs."""
    v = np.asarray(harvests, dtype=float).copy()
    for _ in range(iters):
        changed = 0.0
        for t in range(len(v) - 1):
            if v[t] > v[t + 1]:
                m = 0.5 * (v[t] + v[t + 1])
                changed = max(changed, v[t] - m)
                v[t] = v[t + 1] = m
        if changed < tol:
            break
    return v


@pytest.fixture
def row1_instance() -> Instance:
    return make_instance([0.5, 50.0], [19.0, 22.0])
