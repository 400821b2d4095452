"""Constructive schedulers: the spend-what-you-get baseline and two
staircase-power heuristics that differ only in how they hand out slots.

Both heuristics transmit the deferral-staircase powers.  PTF awards each slot
to the user whose hypothetical bits in it are largest relative to what that
user has accumulated so far; ProNTO hands out contiguous slot blocks in
channel-quality order.
"""
from __future__ import annotations

import numpy as np

from .model import Instance, Schedule, rate_matrix
from .structure import staircase_powers

_TIE_REL = 1e-12


def user_priority(inst: Instance) -> tuple:
    """Users ordered best channel first; ties broken by lower index."""
    gains = inst.gains
    # lexsort: last key is primary, so sort by descending gain, then index
    order = np.lexsort((np.arange(inst.n_users), -gains))
    return tuple(int(i) for i in order)


def sg_tdma(inst: Instance) -> Schedule:
    """Spend-what-you-get powers with round-robin whole-slot time division.

    Slot t is handed entirely to user ``t mod N``, so energy causality holds
    with equality and every user is served whenever K >= N.  With more users
    than slots the trailing users get no time at all, which scoring reports
    as minimum-share violations.
    """
    T = inst.slot_length_t
    powers = inst.harvests_e / T
    shares = np.zeros((inst.n_users, inst.n_slots))
    for t in range(inst.n_slots):
        shares[t % inst.n_users, t] = T
    powers.setflags(write=False)  # read-only arrays: the Schedule keeps them
    shares.setflags(write=False)
    return Schedule(powers_p=powers, shares_tau=shares)


def _pick(candidates: np.ndarray, gains: np.ndarray) -> int:
    """Index of the best candidate: max value, then best channel, then lowest index."""
    top = candidates.max()
    tied = np.flatnonzero(candidates >= top - _TIE_REL * max(1.0, abs(top)))
    if tied.size == 1:
        return int(tied[0])
    g = gains[tied]
    best = tied[g >= g.max() - _TIE_REL * max(1.0, abs(g.max()))]
    return int(best.min())


def ptf(inst: Instance, min_share: bool = False) -> Schedule:
    """Staircase powers with whole slots assigned by the beta rule.

    Slot 0 goes to the user with the highest rate there.  Every later slot t
    is awarded by beta_n = B_nt / (accumulated bits of n + B_nt), where
    B_nt = R_nt * T is what user n would send owning the whole slot; a user
    who has received nothing yet has beta = 1 and therefore wins before any
    served user.  Ties go to the best channel, then the lowest index.

    With ``min_share`` a user that still ends up with zero bits is granted
    ``epsilon_share`` seconds carved out of its best-rate slot; by default
    such starvation is left in place and surfaces in scoring.
    """
    T = inst.slot_length_t
    powers = staircase_powers(inst)
    rates = rate_matrix(inst, powers)
    bits_full = rates * T
    acc = np.zeros(inst.n_users)
    gains = inst.gains
    owners: list[int] = []
    shares = np.zeros((inst.n_users, inst.n_slots))
    for t in range(inst.n_slots):
        b = bits_full[:, t]
        with np.errstate(invalid="ignore", divide="ignore"):
            beta = np.where(b > 0, b / (acc + b), 0.0)
        owner = _pick(rates[:, 0] if t == 0 else beta, gains)
        owners.append(owner)
        acc[owner] += b[owner]
        shares[owner, t] = T
    if min_share:
        eps = inst.epsilon_share
        for n in np.flatnonzero(acc == 0.0):
            t = int(np.argmax(rates[n]))
            donor = owners[t]
            shares[donor, t] -= eps
            shares[n, t] += eps
    shares.setflags(write=False)  # as in sg_tdma; staircase powers already are
    return Schedule(powers_p=powers, shares_tau=shares)


def pronto(inst: Instance) -> Schedule:
    """Staircase powers with contiguous slot blocks in channel-quality order.

    Every user gets floor(K/N) consecutive slots; the K mod N leftover slots
    extend the blocks of the highest-priority users.  Needs K >= N so each
    user owns at least one slot.
    """
    K, N = inst.n_slots, inst.n_users
    if K < N:
        raise ValueError(f"block assignment needs K >= N, got K < N ({K} < {N})")
    T = inst.slot_length_t
    powers = staircase_powers(inst)
    order = user_priority(inst)
    base, extra = divmod(K, N)
    shares = np.zeros((N, K))
    start = 0
    for rank, user in enumerate(order):
        size = base + (1 if rank < extra else 0)
        shares[user, start:start + size] = T
        start += size
    shares.setflags(write=False)  # as in sg_tdma; staircase powers already are
    return Schedule(powers_p=powers, shares_tau=shares)
