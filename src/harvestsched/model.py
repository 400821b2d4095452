"""Domain types and schedule scoring for an energy-harvesting broadcast downlink.

A frame holds K equal-length slots.  One energy packet arrives at each slot
boundary and a single transmitter time-shares every slot among N receivers.
Units are SI throughout: seconds, Joules, Watts, Hz, bits.  All slot and user
indices exposed by this module are 0-based.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

#: Absolute slack below zero tolerated for power/share entries.
TOL_ZERO = 1e-12


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    """A read-only float64 copy of ``values``, or ``values`` itself when it
    already is a read-only float64 array that owns its data, so frozen types
    can share arrays without aliasing a caller's writable buffer."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and not values.flags.writeable
        and values.flags.owndata
    ):
        arr = values
    else:
        arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, slots=True)
class Instance:
    """Immutable description of one scheduling frame.

    ``harvests_e[t]`` is the energy (J) that becomes available at the start of
    slot ``t``; ``path_loss_db[n]`` is user n's path loss.  The linear channel
    gain is ``10**(-path_loss_db/10)`` against a unit-gain reference, and the
    normalized gain ``gain / (N0 * W)`` scales transmit power into SNR.
    ``epsilon_share`` is the minimum total time (s) a schedule must grant each
    user over the frame; it defaults to ``1e-9 * slot_length_t``.
    ``_staircase`` caches :func:`structure.staircase_powers` for the instance.
    """

    bandwidth_w_hz: float
    noise_density_n0: float
    slot_length_t: float
    harvests_e: np.ndarray
    path_loss_db: np.ndarray
    epsilon_share: float = None  # type: ignore[assignment]
    _staircase: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("bandwidth_w_hz", "noise_density_n0", "slot_length_t"):
            v = float(getattr(self, name))
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "harvests_e", _as_float_array(self.harvests_e, "harvests_e", 1))
        object.__setattr__(self, "path_loss_db", _as_float_array(self.path_loss_db, "path_loss_db", 1))
        if self.harvests_e.size < 1:
            raise ValueError("need at least one slot")
        if self.path_loss_db.size < 1:
            raise ValueError("need at least one user")
        if np.any(self.harvests_e < 0):
            raise ValueError("harvests must be nonnegative")
        if not np.any(self.harvests_e > 0):
            raise ValueError("at least one harvest must be positive")
        eps = self.epsilon_share
        if eps is None:
            eps = 1e-9 * self.slot_length_t
        eps = float(eps)
        if not (0 < eps < self.slot_length_t / self.n_users):
            raise ValueError(f"epsilon_share must lie in (0, T/N), got {eps}")
        object.__setattr__(self, "epsilon_share", eps)
        if not np.all(np.isfinite(self.norm_gains)) or np.any(self.norm_gains <= 0):
            raise ValueError("normalized gains must be positive and finite")

    @property
    def n_slots(self) -> int:
        return int(self.harvests_e.size)

    @property
    def n_users(self) -> int:
        return int(self.path_loss_db.size)

    @property
    def gains(self) -> np.ndarray:
        """Linear channel gains, one per user."""
        return 10.0 ** (-self.path_loss_db / 10.0)

    @property
    def norm_gains(self) -> np.ndarray:
        """Gains normalized by noise power over the band: gain / (N0 * W)."""
        return self.gains / (self.noise_density_n0 * self.bandwidth_w_hz)

    @property
    def cum_harvests(self) -> np.ndarray:
        return np.cumsum(self.harvests_e)

    @property
    def total_harvest(self) -> float:
        return float(self.harvests_e.sum())

    @property
    def tol_time(self) -> float:
        """Per-slot time-sum tolerance, relative to the slot length."""
        return 1e-9 * self.slot_length_t

    @property
    def tol_energy(self) -> float:
        """Cumulative-energy tolerance, relative to the total harvest."""
        return 1e-9 * self.total_harvest


@dataclass(frozen=True, eq=False, slots=True)
class Schedule:
    """One candidate allocation: a power per slot and a time share per user/slot."""

    powers_p: np.ndarray
    shares_tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "powers_p", _as_float_array(self.powers_p, "powers_p", 1))
        object.__setattr__(self, "shares_tau", _as_float_array(self.shares_tau, "shares_tau", 2))
        if self.shares_tau.shape[1] != self.powers_p.size:
            raise ValueError(
                f"shares_tau has {self.shares_tau.shape[1]} slots "
                f"but powers_p has {self.powers_p.size}"
            )

    @property
    def n_users(self) -> int:
        return int(self.shares_tau.shape[0])

    @property
    def n_slots(self) -> int:
        return int(self.powers_p.size)


@dataclass(frozen=True, eq=False, slots=True)
class Violation:
    """One violated constraint: id, 0-based index, and magnitude of the breach."""

    constraint: str
    index: tuple
    magnitude: float


@dataclass(frozen=True, eq=False, slots=True)
class ScoreReport:
    """Full evaluation of one schedule.

    ``utility_u`` is the log2-sum utility and is ``-inf`` whenever any user
    receives zero bits, so reports stay comparable instead of raising.
    ``jain_fi`` is NaN when every user gets zero bits.  ``per_user_utility``
    is derived from the bits on access, not stored.
    """

    utility_u: float
    per_user_bits: np.ndarray
    total_bits: float
    jain_fi: float
    feasible: bool
    violations: tuple

    @property
    def per_user_utility(self) -> np.ndarray:
        """log2 of each user's bits, ``-inf`` for a user without bits."""
        with np.errstate(divide="ignore"):
            return np.log2(self.per_user_bits)


def _check_dims(inst: Instance, sched: Schedule) -> None:
    if sched.n_slots != inst.n_slots or sched.n_users != inst.n_users:
        raise ValueError(
            f"schedule shape ({sched.n_users} users, {sched.n_slots} slots) does not "
            f"match instance ({inst.n_users} users, {inst.n_slots} slots)"
        )


def rate_matrix(inst: Instance, powers_p) -> np.ndarray:
    """Achievable rates W*log2(1 + L_n * p_t) in bits/s, one row per user."""
    p = np.asarray(powers_p, dtype=float)
    if p.ndim != 1 or p.size != inst.n_slots:
        raise ValueError(f"expected {inst.n_slots} powers, got shape {p.shape}")
    if np.any(p < -TOL_ZERO) or not np.all(np.isfinite(p)):
        raise ValueError("powers must be nonnegative and finite")
    p = np.maximum(p, 0.0)
    return inst.bandwidth_w_hz * np.log1p(np.outer(inst.norm_gains, p)) / LN2


def _power_violations(inst: Instance, p: np.ndarray) -> list:
    """Power-sign and cumulative-energy violations of a power vector."""
    out: list[Violation] = []
    for t in np.flatnonzero(p < -TOL_ZERO):
        out.append(Violation("power_nonneg", (int(t),), float(-p[t])))
    excess = np.cumsum(p) * inst.slot_length_t - inst.cum_harvests
    for t in np.flatnonzero(excess > inst.tol_energy):
        out.append(Violation("energy_causality", (int(t),), float(excess[t])))
    return out


def _share_violations(inst: Instance, tau: np.ndarray) -> list:
    """Share-sign, per-slot time and minimum-share violations of a share matrix."""
    T = inst.slot_length_t
    out: list[Violation] = []
    for n, t in zip(*np.nonzero(tau < -TOL_ZERO)):
        out.append(Violation("share_nonneg", (int(n), int(t)), float(-tau[n, t])))
    col = tau.sum(axis=0)
    for t in np.flatnonzero(np.abs(col - T) > inst.tol_time):
        out.append(Violation("slot_time", (int(t),), float(abs(col[t] - T))))
    row = tau.sum(axis=1)
    for n in np.flatnonzero(row < inst.epsilon_share - TOL_ZERO):
        out.append(Violation("min_share", (int(n),), float(inst.epsilon_share - row[n])))
    return out


def check_feasibility(inst: Instance, sched: Schedule) -> list:
    """All constraint violations of a schedule, empty when it is feasible.

    Checks nonnegativity of powers and shares, per-slot time sums, the
    per-user minimum total share, and cumulative energy causality, in that
    order, each with the scale-relative tolerances of the instance.  The
    block solvers and certifiers apply the same checks to their variable.
    """
    _check_dims(inst, sched)
    power = _power_violations(inst, sched.powers_p)
    k = sum(v.constraint == "power_nonneg" for v in power)
    return power[:k] + _share_violations(inst, sched.shares_tau) + power[k:]


def score(inst: Instance, sched: Schedule) -> ScoreReport:
    """Score a schedule: utility, per-user bits, Jain index, feasibility.

    Pure function of its inputs; infeasibility and starved users are reported
    in the result rather than raised.
    """
    _check_dims(inst, sched)
    rates = rate_matrix(inst, np.maximum(sched.powers_p, 0.0))
    bits = np.maximum(sched.shares_tau, 0.0) * rates
    per_user_bits = bits.sum(axis=1)
    with np.errstate(divide="ignore"):
        utility = float(np.log2(per_user_bits).sum())
    total = float(per_user_bits.sum())
    if total > 0.0:  # on the bits over their largest, whose squares cannot all underflow
        x = per_user_bits / per_user_bits.max()
        jain = float(x.sum()) ** 2 / (inst.n_users * float(np.dot(x, x)))
    else:
        jain = math.nan
    violations = tuple(check_feasibility(inst, sched))
    per_user_bits.setflags(write=False)
    return ScoreReport(
        utility_u=utility,
        per_user_bits=per_user_bits,
        total_bits=total,
        jain_fi=jain,
        feasible=not violations,
        violations=violations,
    )


def improvement_pct(value: float, baseline: float) -> float:
    """Percent change of ``value`` over ``baseline``: 100*(value-baseline)/|baseline|."""
    baseline = float(baseline)
    if not math.isfinite(baseline) or baseline == 0.0:
        raise ValueError(f"baseline must be finite and nonzero, got {baseline}")
    return 100.0 * (float(value) - baseline) / abs(baseline)
