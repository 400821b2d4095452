"""Closed-form optimal time allocation for two users and two equal slots.

With powers fixed, one rule gives the optimal split.  The weak slot is the
lower-power one (slot 0 when the powers are equal), and it goes wholly to
the user whose rate gains least from the strong slot's power.  The strong
slot is shared at equal prices: if ``q`` is the owner's weak/strong rate
ratio, the owner gets ``T/2 (1 - q)`` of it and the other user
``T/2 (1 + q)``, the two-buyer case of an Eisenberg-Gale market (Eisenberg
& Gale 1959).  Each user's rate-improvement ratio ``gamma_n = R_n2 / R_n1`` decides
the owner: the smaller-gamma user when the weak slot comes first, the
larger-gamma user when it comes second.  These splits serve as ground truth
for the iterative solvers; :func:`~harvestsched.convex.kkt_residual_time`
certifies them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    g = (float(R[0, 1] / R[0, 0]), float(R[1, 1] / R[1, 0]))
    pc, gc = _rel_cmp(p[0], p[1]), _rel_cmp(*g)
    rel = {-1: "p1<p2", 0: "p1=p2", 1: "p1>p2"}[pc]
    grel = {-1: "gamma1<gamma2", 0: "gamma1=gamma2", 1: "gamma1>gamma2"}[gc]

    weak = int(pc > 0)
    # each user's weak/strong rate ratio: 1 / gamma when the weak slot comes
    # first, gamma when it comes second; qc compares q[0] with q[1], and the
    # owner is the user with the larger q (powers equal within _EQ_REL keep
    # the gammas equal within it, so that case always ties)
    q = (1.0, 1.0) if pc == 0 else g if weak else (1 / g[0], 1 / g[1])
    qc = gc if weak else -gc
    splits = []
    for o in (0, 1) if qc == 0 else (int(qc < 0),):
        tau = np.empty((2, 2))
        tau[o, weak], tau[1 - o, weak] = T, 0.0
        tau[o, 1 - weak], tau[1 - o, 1 - weak] = T / 2 * (1 - q[o]), T / 2 * (1 + q[o])
        tau.setflags(write=False)
        splits.append(tau)

    return TwoByTwoCase(
        power_relation=rel,
        gamma=g,
        branch=f"{rel},{grel}",
        tau_star=splits[0],
        utility_star=float(np.log2((splits[0] * R).sum(axis=1)).sum()),
        alternates=tuple(splits[1:]),
    )
