"""Structural transforms on harvest profiles and schedules.

The deferral staircase turns an arbitrary harvest profile into the virtual
profile whose per-slot spend gives the least-deferred feasible nondecreasing
power sequence.  Slot sorting permutes a schedule into nondecreasing-power
order; the bilinear utility is invariant under permuting powers and share
columns together, though the permuted schedule may lose energy causality.
"""
from __future__ import annotations

import numpy as np

from .model import Instance, Schedule, _check_dims, _power_violations


def virtual_harvests(inst: Instance) -> np.ndarray:
    """Equalize the harvest profile into its nondecreasing staircase.

    Returns the deferral-transformed harvests, read-only: entry ``t`` over
    ``T`` is the induced power of slot ``t``.  The powers are nondecreasing,
    conserve total energy, and never spend ahead of the original cumulative
    harvests.  Each segment carries the mean of the harvests it spans;
    merging adjacent segments whenever the later mean does not exceed the
    earlier one yields the fixed point of local energy deferral: segment
    means strictly increase, prefix sums stay below the original prefix
    sums, and moving any further energy forward is unnecessary.
    """
    sums: list[float] = []
    lens: list[int] = []
    for e in inst.harvests_e:
        sums.append(float(e))
        lens.append(1)
        while len(sums) > 1 and sums[-1] * lens[-2] <= sums[-2] * lens[-1]:
            s, l = sums.pop(), lens.pop()
            sums[-1] += s
            lens[-1] += l
    virtual = np.concatenate([np.full(l, s / l) for s, l in zip(sums, lens)])
    virtual.setflags(write=False)
    return virtual


def staircase_powers(inst: Instance) -> np.ndarray:
    """Per-slot powers induced by the deferral staircase.

    Computed once per instance; every caller gets the same read-only array,
    which schedules keep without copying.
    """
    if inst._staircase is None:
        powers = virtual_harvests(inst) / inst.slot_length_t
        powers.setflags(write=False)
        object.__setattr__(inst, "_staircase", powers)
    return inst._staircase


def sort_schedule_nondecreasing(inst: Instance, sched: Schedule):
    """Permute slots so powers are nondecreasing, shares following their slots.

    Returns ``(schedule, permutation, feasible)``, where ``permutation[j]`` is
    the original slot placed at position ``j``.  The stable sort makes the
    permutation deterministic under ties.  Utility is unchanged because each
    user's bits are a sum over slots, reordered but not altered.  The flag
    reports whether the permuted schedule still satisfies energy causality
    (by ``check_feasibility``); no repair is attempted when it does not.
    """
    _check_dims(inst, sched)
    perm = np.argsort(sched.powers_p, kind="stable")
    sorted_sched = Schedule(
        powers_p=sched.powers_p[perm],
        shares_tau=sched.shares_tau[:, perm],
    )
    violations = _power_violations(inst, sorted_sched.powers_p)
    feasible = all(v.constraint != "energy_causality" for v in violations)
    return sorted_sched, tuple(int(i) for i in perm), feasible
