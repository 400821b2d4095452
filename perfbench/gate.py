"""Correctness gate and certificate for every operation the benchmark runs.

An operation fails when a record is not ``ok`` or carries warnings, when the
``bcd`` schedule is infeasible, when a ``BcdTrace`` is not monotone, or when
``bcd`` ends below a feasible heuristic.  The KKT certificate of each
returned ``bcd`` schedule is recomputed and reported, but does not fail the
operation: the slot sort in ``cli`` and the utility-stall stop in ``bcd``
leave most results above ``tol_kkt`` on the seed code.
"""
from __future__ import annotations

import math

import numpy as np

HEURISTICS = ("sg-tdma", "ptf", "pronto")

#: ``bcd`` may end this far below a feasible heuristic (log2 utility units)
#: before the operation fails; it is the solver's default ``tol_kkt``.
UTILITY_SLACK = 1e-6


def check_op(api, op):
    """Append the reasons ``op`` fails to ``op.failures``."""
    inst = op.scenario.instance
    for rec in op.records:
        if rec.status != "ok":
            op.failures.append(f"{rec.algorithm}: status {rec.status!r}")
        if rec.warnings:
            op.failures.append(f"{rec.algorithm}: warnings {list(rec.warnings)}")
    for trace in op.traces:
        if np.any(np.diff(trace.utilities) < 0):
            op.failures.append("bcd trace utilities are not monotone")
    if len(op.traces) != 1:
        op.failures.append(f"{len(op.traces)} bcd calls, expected 1")
    bcd = _bcd_record(op)
    if bcd is None or bcd.schedule is None:
        op.failures.append("no bcd schedule")
        return
    violations = api.check_feasibility(inst, bcd.schedule)
    if violations:
        op.failures.append(f"{bcd.algorithm} schedule infeasible: {violations[:3]}")
    if op.kind != "compare":
        return
    for rec in op.records:
        if rec.algorithm in HEURISTICS and rec.report is not None and rec.report.feasible:
            if rec.report.utility_u > bcd.report.utility_u + UTILITY_SLACK:
                op.failures.append(
                    f"bcd utility {bcd.report.utility_u} below {rec.algorithm} {rec.report.utility_u}"
                )


def _bcd_record(op):
    """The ``bcd`` record of a ``compare``, or the one record of a ``run``."""
    if op.kind == "run":
        return op.records[0]
    return next((r for r in op.records if r.algorithm == "bcd"), None)


def certificate(api, op):
    """Block KKT residuals (time, power) at the returned ``bcd`` schedule."""
    rec = _bcd_record(op)
    if op.kind != "compare" or rec is None or rec.schedule is None:
        return None
    inst, sched = op.scenario.instance, rec.schedule
    out = []
    for fn, args in (
        (api.kkt_residual_time, (inst, sched.powers_p, sched.shares_tau)),
        (api.kkt_residual_power, (inst, sched.shares_tau, sched.powers_p)),
    ):
        try:
            out.append(fn(*args).max_residual)
        except ValueError:  # the point cannot be certified at all
            out.append(math.inf)
    return tuple(out)


def quality(api, ops):
    """Reported-only quality figures over the compare operations given."""
    compares = [op for op in ops if op.kind == "compare"]
    impr = [
        rec.utility_improvement_pct
        for op in compares
        if op.part != "bench2x2"
        for rec in op.records
        if rec.algorithm == "bcd"
    ]
    certs = [(op, certificate(api, op)) for op in compares]
    certs = [(op, c) for op, c in certs if c is not None]
    uncertified = [op for op, c in certs if max(c) > op.scenario.config.tol_kkt]
    worst_time = max((c[0] for _, c in certs), default=math.nan)
    worst_power = max((c[1] for _, c in certs), default=math.nan)
    return {
        "bcd_utility_impr_pct": float(np.mean(impr)) if impr else math.nan,
        "uncertified_frac": len(uncertified) / len(certs) if certs else math.nan,
        "certified_of": len(certs),
        "worst_kkt_residual_time": worst_time,
        "worst_kkt_residual_power": worst_power,
    }
