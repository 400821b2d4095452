"""Constructive schedulers: the spend-what-you-get baseline and two
staircase-power heuristics that differ only in how they hand out slots.

Both heuristics transmit the deferral-staircase powers.  PTF awards each slot
to the user whose hypothetical bits in it are largest relative to what that
user has accumulated so far; ProNTO hands out contiguous slot blocks in
channel-quality order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Schedule, rate_matrix
from .structure import virtual_harvests

_TIE_REL = 1e-12


@dataclass(frozen=True, eq=False, slots=True)
class UserPriority:
    """Users ordered best channel first; ties broken by lower index."""

    order: tuple


@dataclass(frozen=True, eq=False, slots=True)
class BetaState:
    """Slot-selection snapshot: accumulated bits after the slot was awarded,
    and the selection ratios the award was based on."""

    cumulative_b: np.ndarray
    current_beta: np.ndarray


def user_priority(inst: Instance) -> UserPriority:
    gains = inst.gains
    # lexsort: last key is primary, so sort by descending gain, then index
    order = np.lexsort((np.arange(inst.n_users), -gains))
    return UserPriority(order=tuple(int(i) for i in order))


def staircase_powers(inst: Instance) -> np.ndarray:
    """Per-slot powers induced by the deferral staircase (shared by PTF/ProNTO)."""
    return virtual_harvests(inst).virtual_e / inst.slot_length_t


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


def ptf_assignments(inst: Instance):
    """Slot owners chosen by the proportional bit-gain rule.

    Slot 0 goes to the user with the highest rate there.  Every later slot t
    is awarded by beta_n = B_nt / (accumulated bits of n + B_nt), where
    B_nt = R_nt * T is what user n would send owning the whole slot; a user
    who has received nothing yet has beta = 1 and therefore wins before any
    served user.  Ties go to the best channel, then the lowest index.

    Returns ``(owners, states)`` with one :class:`BetaState` per slot.
    """
    T = inst.slot_length_t
    rates = rate_matrix(inst, staircase_powers(inst)).rates_r
    bits_full = rates * T
    acc = np.zeros(inst.n_users)
    gains = inst.gains
    owners: list[int] = []
    states: list[BetaState] = []
    for t in range(inst.n_slots):
        b = bits_full[:, t]
        with np.errstate(invalid="ignore", divide="ignore"):
            beta = np.where(b > 0, b / (acc + b), 0.0)
        owner = _pick(rates[:, 0] if t == 0 else beta, gains)
        owners.append(owner)
        acc[owner] += b[owner]
        snap_acc = acc.copy()
        snap_acc.setflags(write=False)
        beta.setflags(write=False)
        states.append(BetaState(cumulative_b=snap_acc, current_beta=beta))
    return owners, states


def ptf(inst: Instance, min_share: bool = False) -> Schedule:
    """Staircase powers with whole slots assigned by the beta rule.

    With ``min_share`` a user that still ends up with zero bits is granted
    ``epsilon_share`` seconds carved out of its best-rate slot; by default
    such starvation is left in place and surfaces in scoring.
    """
    T = inst.slot_length_t
    powers = staircase_powers(inst)
    owners, _ = ptf_assignments(inst)
    shares = np.zeros((inst.n_users, inst.n_slots))
    for t, owner in enumerate(owners):
        shares[owner, t] = T
    if min_share:
        rates = rate_matrix(inst, powers).rates_r
        bits = (shares * rates).sum(axis=1)
        eps = inst.epsilon_share
        for n in np.flatnonzero(bits == 0.0):
            t = int(np.argmax(rates[n]))
            donor = owners[t]
            shares[donor, t] -= eps
            shares[n, t] += eps
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
    order = user_priority(inst).order
    base, extra = divmod(K, N)
    shares = np.zeros((N, K))
    start = 0
    for rank, user in enumerate(order):
        size = base + (1 if rank < extra else 0)
        shares[user, start:start + size] = T
        start += size
    return Schedule(powers_p=powers, shares_tau=shares)
