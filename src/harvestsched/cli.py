"""Scenario ingestion, algorithm runners, and CSV/table emission.

Scenario files are plain ``KEY value...`` lines; built-in names expand to the
regular/bursty/very-bursty harvest profiles with low/moderate/high path-loss
ladders.  The ``run``/``compare``/``sweep`` commands produce one record per
(scenario, algorithm) pair, always measuring improvements against the
spend-what-you-get round-robin baseline.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .convex import SolverConfig, bcd
from .heuristics import pronto, ptf, sg_tdma
from .model import Instance, Schedule, ScoreReport, check_feasibility, improvement_pct, score
from .oracle2x2 import _check_frame, optimal_2x2
from .structure import staircase_powers

DEFAULT_BANDWIDTH_HZ = 1000.0
DEFAULT_NOISE_W_PER_HZ = 1e-6
DEFAULT_SLOT_S = 10.0

HARVEST_PROFILES = {
    "regular": (73.0, 65.0, 9.0, 19.0, 40.0, 37.0, 22.0, 84.0, 39.0, 67.0, 81.0, 100.0),
    "bursty": (20.0, 100.0, 1.0, 1.0, 1.0, 70.0, 100.0, 1.0, 10.0, 40.0),
    "very-bursty": (90.0, 2.0, 0.5, 0.1, 0.3, 0.7, 40.0, 60.0),
}

#: Strongest user's path loss (dB) per case; each further user adds 3 dB.
PATHLOSS_START_DB = {"low": 13.0, "moderate": 19.0, "high": 25.0}
PATHLOSS_STEP_DB = 3.0

ALGORITHMS = ("sg-tdma", "ptf", "pronto", "bcd")

#: Two-user, two-slot benchmark batch: harvest pair and path-loss pair.
BENCH_2X2 = tuple(
    (harvests, (start, start + PATHLOSS_STEP_DB))
    for harvests in ((0.5, 50.0), (50.0, 0.5), (60.0, 20.0))
    for start in (
        (19.0, 25.0, 31.0) if harvests != (60.0, 20.0) else (1.0, 7.0, 13.0)
    )
)

CSV_HEADER = (
    "scenario,case,users,algorithm,utility,total_bits,jain_fi,"
    "utility_improvement_pct,throughput_improvement_pct,wall_ms"
)


class ScenarioError(ValueError):
    """Malformed scenario text; message carries the offending line number."""


@dataclass(frozen=True, eq=False, slots=True)
class Scenario:
    """A resolved problem instance plus presentation metadata."""

    label: str
    instance: Instance
    pathloss_case: str | None = None
    config: SolverConfig = SolverConfig()


@dataclass(frozen=True, eq=False, slots=True)
class RunRecord:
    """Outcome of one algorithm on one scenario."""

    scenario: str
    case: str
    users: int
    algorithm: str
    schedule: Schedule | None
    report: ScoreReport | None
    utility_improvement_pct: float
    throughput_improvement_pct: float
    wall_ms: float
    status: str = "ok"
    warnings: tuple = ()


def pathloss_ladder(case: str, users: int) -> np.ndarray:
    if case not in PATHLOSS_START_DB:
        raise ScenarioError(f"unknown path-loss case {case!r}")
    if users < 1:
        raise ScenarioError("USERS must be a positive integer")
    return PATHLOSS_START_DB[case] + PATHLOSS_STEP_DB * np.arange(users)


def parse_scenario(text: str) -> Scenario:
    """Parse ``KEY value...`` scenario text into a resolved :class:`Scenario`.

    ``#`` starts a comment and later keys override earlier ones; an explicit
    HARVESTS/PATHLOSS_DB vector and a SCENARIO/CASE name override each other
    by position.  Unset physics keys fall back to W=1 kHz, N0=1e-6 W/Hz,
    T=10 s.
    """
    physics = {"W": DEFAULT_BANDWIDTH_HZ, "N0": DEFAULT_NOISE_W_PER_HZ, "T": DEFAULT_SLOT_S,
               "EPSILON": None}
    harvests = None
    harvest_name = None
    losses = None
    case = None
    users = None
    # explicit vectors and named cases override each other by position
    order = {"losses": -1, "case": -1, "users": -1}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, values = parts[0].upper(), parts[1:]

        def floats(what: str) -> tuple:
            if not values:
                raise ScenarioError(f"line {lineno}: {key} expects {what}")
            try:
                return tuple(float(v) for v in values)
            except ValueError:
                raise ScenarioError(f"line {lineno}: bad number in {key}") from None

        if key in physics:
            if len(values) != 1:
                raise ScenarioError(f"line {lineno}: {key} expects one value")
            physics[key] = floats("one value")[0]
        elif key == "HARVESTS":
            harvests = floats("a list of Joules")
            harvest_name = None
        elif key == "PATHLOSS_DB":
            losses = floats("a list of dB values")
            order["losses"] = lineno
        elif key == "SCENARIO":
            if len(values) != 1 or values[0].lower() not in HARVEST_PROFILES:
                raise ScenarioError(
                    f"line {lineno}: SCENARIO must be one of {sorted(HARVEST_PROFILES)}"
                )
            harvest_name = values[0].lower()
            harvests = HARVEST_PROFILES[harvest_name]
        elif key == "CASE":
            if len(values) != 1 or values[0].lower() not in PATHLOSS_START_DB:
                raise ScenarioError(
                    f"line {lineno}: CASE must be one of {sorted(PATHLOSS_START_DB)}"
                )
            case = values[0].lower()
            order["case"] = lineno
        elif key == "USERS":
            try:
                users = int(values[0]) if len(values) == 1 else None
            except ValueError:
                users = None
            if users is None or users < 1:
                raise ScenarioError(f"line {lineno}: USERS expects one positive integer")
            order["users"] = lineno
        else:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")

    if harvests is None:
        raise ScenarioError("scenario sets neither HARVESTS nor SCENARIO")
    use_ladder = case is not None and order["case"] > order["losses"]
    if use_ladder:
        if users is None:
            raise ScenarioError("CASE needs USERS to size the path-loss ladder")
        losses = tuple(pathloss_ladder(case, users))
    elif losses is None:
        raise ScenarioError("scenario sets neither PATHLOSS_DB nor CASE/USERS")
    elif users is not None and order["users"] > order["losses"] and users != len(losses):
        # a USERS count written after an explicit vector must agree with it
        raise ScenarioError(
            f"USERS {users} does not match the {len(losses)} entries of PATHLOSS_DB"
        )
    try:
        inst = Instance(physics["W"], physics["N0"], physics["T"], harvests, losses,
                        epsilon_share=physics["EPSILON"])
    except ValueError as err:
        raise ScenarioError(str(err)) from None
    return Scenario(
        label=harvest_name or "custom",
        instance=inst,
        pathloss_case=case if use_ladder else None,
    )


def builtin_scenario(name: str, case: str, users: int, cfg: SolverConfig | None = None) -> Scenario:
    text = f"SCENARIO {name}\nCASE {case}\nUSERS {users}\n"
    scen = parse_scenario(text)
    return replace(scen, config=cfg) if cfg else scen


def _run_algorithm(inst: Instance, algorithm: str, cfg: SolverConfig, min_share: bool,
                   start: Schedule):
    """Produce (schedule, warnings) for one algorithm name; bcd starts at ``start``."""
    if algorithm == "ptf":
        return ptf(inst, min_share=min_share), ()
    if algorithm == "pronto":
        return pronto(inst), ()
    if algorithm in ("bcd", "oracle2x2"):
        if algorithm == "oracle2x2":
            _check_frame(inst)  # before bcd, which would solve in vain
        if check_feasibility(inst, start):  # sg-tdma starves a user when N > K
            shares = np.full((inst.n_users, inst.n_slots), inst.slot_length_t / inst.n_users)
            start = Schedule(staircase_powers(inst), shares)
        sched, trace = bcd(inst, start, cfg)
        if algorithm == "oracle2x2":  # bcd's powers, closed-form shares
            sched = Schedule(sched.powers_p, optimal_2x2(inst, sched.powers_p))
        return sched, trace.warnings
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _baseline(inst: Instance):
    """The sg-tdma schedule, its score and the time both took (ms)."""
    start = time.perf_counter()
    sched = sg_tdma(inst)
    report = score(inst, sched)
    return sched, report, (time.perf_counter() - start) * 1e3


def _improvement(value: float, baseline: float) -> float:
    """:func:`improvement_pct`, or nan against a zero or non-finite baseline."""
    try:
        return improvement_pct(value, baseline)
    except ValueError:
        return math.nan


def _record(scenario: Scenario, algorithm: str, min_share: bool, base) -> RunRecord:
    """One algorithm's record, scored against ``base`` from :func:`_baseline`."""
    inst = scenario.instance
    base_sched, baseline, base_ms = base
    warnings: tuple = ()
    if algorithm == "sg-tdma":
        sched, report, status, wall_ms = base_sched, baseline, "ok", base_ms
    else:
        start = time.perf_counter()
        try:
            sched, warnings = _run_algorithm(inst, algorithm, scenario.config, min_share,
                                             base_sched)
            report = score(inst, sched)
            status = "ok"
        except ValueError as err:
            sched, report, status = None, None, f"error: {err}"
        wall_ms = (time.perf_counter() - start) * 1e3

    if report is not None and report.utility_u == -math.inf:
        starved = np.flatnonzero(report.per_user_bits <= 0)
        status = "starved: users " + ", ".join(map(str, starved))
    if report is None:
        util_impr = tput_impr = math.nan
    elif algorithm == "sg-tdma":
        util_impr = tput_impr = 0.0
    else:
        util_impr = _improvement(report.utility_u, baseline.utility_u)
        tput_impr = _improvement(report.total_bits, baseline.total_bits)
    return RunRecord(
        scenario=scenario.label,
        case=scenario.pathloss_case or "",
        users=inst.n_users,
        algorithm=algorithm,
        schedule=sched,
        report=report,
        utility_improvement_pct=util_impr,
        throughput_improvement_pct=tput_impr,
        wall_ms=wall_ms,
        status=status,
        warnings=tuple(warnings),
    )


def run(scenario: Scenario, algorithm: str, min_share: bool = False) -> RunRecord:
    """Run one algorithm on one scenario, scored against the baseline."""
    return _record(scenario, algorithm, min_share, _baseline(scenario.instance))


def compare(scenario: Scenario, min_share: bool = False) -> list:
    """Every algorithm of :data:`ALGORITHMS` on one scenario, baseline first.

    The sg-tdma baseline is built and scored once; every record is measured
    against it and ``bcd`` starts from it.
    """
    base = _baseline(scenario.instance)
    return [_record(scenario, alg, min_share, base) for alg in ALGORITHMS]


def bench_2x2_scenarios(cfg: SolverConfig | None = None) -> list:
    """The nine 2-user/2-slot benchmark instances as labelled scenarios."""
    out = []
    for harvests, losses in BENCH_2X2:
        inst = Instance(
            DEFAULT_BANDWIDTH_HZ, DEFAULT_NOISE_W_PER_HZ, DEFAULT_SLOT_S, harvests, losses
        )
        mean_loss = sum(losses) / len(losses)
        label = f"bench2x2[{harvests[0]:g},{harvests[1]:g}]@{mean_loss:g}"
        out.append(Scenario(label=label, instance=inst, config=cfg or SolverConfig()))
    return out


def sweep_users(case: str, users: range, cfg: SolverConfig | None = None,
                min_share: bool = False) -> list:
    """Compare all algorithms per user count across the three harvest profiles.

    Appends one ``average`` record per (N, algorithm) carrying the plain mean
    of each numeric field over the three profiles.
    """
    cfg = cfg or SolverConfig()
    records: list[RunRecord] = []
    for n in users:
        group: dict[str, list[RunRecord]] = {alg: [] for alg in ALGORITHMS}
        for name in HARVEST_PROFILES:
            scen = builtin_scenario(name, case, n, cfg)
            for rec in compare(scen, min_share):
                records.append(rec)
                group[rec.algorithm].append(rec)
        for alg in ALGORITHMS:
            recs = [r for r in group[alg] if r.report is not None]
            if not recs:
                continue
            records.append(
                RunRecord(
                    scenario="average",
                    case=case,
                    users=n,
                    algorithm=alg,
                    schedule=None,
                    report=None,
                    utility_improvement_pct=float(
                        np.mean([r.utility_improvement_pct for r in recs])
                    ),
                    throughput_improvement_pct=float(
                        np.mean([r.throughput_improvement_pct for r in recs])
                    ),
                    wall_ms=float(np.mean([r.wall_ms for r in recs])),
                    status=f"mean of {len(recs)} runs: "
                    + f"utility {np.mean([r.report.utility_u for r in recs]):.6f}, "
                    + f"jain {np.mean([r.report.jain_fi for r in recs]):.6f}",
                )
            )
    return records


def _fmt(v: float) -> str:
    return f"{v:.6f}" if math.isfinite(v) else str(v)


def emit(records, fmt: str) -> str:
    """Render records as ``csv`` or aligned ``table`` text.

    Deterministic function of the records; two calls on equal records give
    byte-identical output (wall times are whatever the records carry).
    """
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
    elif fmt == "table":
        header = (
            f"{'scenario':<24} {'case':<9} {'N':>2} {'algorithm':<9} "
            f"{'utility':>12} {'total_bits':>14} {'jain':>8} "
            f"{'u_impr%':>9} {'t_impr%':>9} {'wall_ms':>9}  status"
        )
        lines = [header, "-" * len(header)]
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    for r in records:
        rep = r.report
        u, b, j = (rep.utility_u, rep.total_bits, rep.jain_fi) if rep else (math.nan,) * 3
        if fmt == "csv":
            lines.append(",".join([
                r.scenario, r.case, str(r.users), r.algorithm,
                *map(_fmt, (u, b, j, r.utility_improvement_pct,
                            r.throughput_improvement_pct, r.wall_ms)),
            ]))
            continue
        feas = ""
        if rep is not None and not rep.feasible:
            feas = " [infeasible: " + ",".join(sorted({v.constraint for v in rep.violations})) + "]"
        lines.append(
            f"{r.scenario:<24} {r.case:<9} {r.users:>2} {r.algorithm:<9} "
            f"{u:>12.4f} {b:>14.1f} {j:>8.4f} "
            f"{r.utility_improvement_pct:>9.3f} {r.throughput_improvement_pct:>9.3f} "
            f"{r.wall_ms:>9.2f}  {r.status}{feas}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ScenarioError(message)


def _add_common(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    p.add_argument("--scenario", required=not sweep,
                   help="optional and unused: sweep runs all three profiles" if sweep else
                        "scenario file, builtin name (regular|bursty|very-bursty), or "
                        "bench2x2 (which takes no --case or --users)")
    p.add_argument("--case", choices=sorted(PATHLOSS_START_DB), default=None)
    p.add_argument("--users", default=None,
                   help="user count, or A..B range for sweep")
    p.add_argument("--out", choices=("csv", "table"), default="table")
    defaults = SolverConfig()
    p.add_argument("--tol-kkt", type=float, default=defaults.tol_kkt,
                   help="KKT residual target of both blocks; bcd stops once both meet it")
    p.add_argument("--tol-utility", type=float, default=defaults.tol_utility,
                   help="bcd also stops once a whole round gains less utility than this")
    p.add_argument("--max-rounds", type=int, default=defaults.max_bcd_rounds)
    p.add_argument("--min-share", action="store_true",
                   help="grant starved users the minimum share after PTF")


def _config_from(args) -> SolverConfig:
    try:
        return SolverConfig(
            tol_kkt=args.tol_kkt,
            tol_utility=args.tol_utility,
            max_bcd_rounds=args.max_rounds,
        )
    except ValueError as err:
        raise ScenarioError(f"solver flags: {err}") from None


def _users_value(args) -> int | None:
    if args.users is None:
        return None
    try:
        return int(args.users)
    except ValueError:
        raise ScenarioError(f"--users expects an integer here, got {args.users!r}") from None


def _resolve_scenarios(args, cfg: SolverConfig) -> list:
    name = args.scenario
    if name == "bench2x2":
        if args.case or args.users is not None:
            raise ScenarioError("bench2x2 takes no --case or --users")
        return bench_2x2_scenarios(cfg)
    if name in HARVEST_PROFILES:
        users = _users_value(args)
        if users is None:
            raise ScenarioError(f"builtin scenario {name!r} needs --users")
        return [builtin_scenario(name, args.case or "moderate", users, cfg)]
    if os.path.exists(name):
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
        if args.case:
            text += f"\nCASE {args.case}\n"
        users = _users_value(args)
        if users is not None:
            text += f"USERS {users}\n"
        scen = parse_scenario(text)
        return [replace(scen, config=cfg)]
    raise ScenarioError(f"scenario {name!r} is neither a file nor a builtin name")


def main(argv=None) -> int:
    parser = _Parser(prog="harvestsched",
                     description="Schedule an energy-harvesting broadcast downlink")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one algorithm")
    p_run.add_argument("--alg", required=True, choices=ALGORITHMS + ("oracle2x2",))
    _add_common(p_run)
    p_cmp = sub.add_parser("compare", help="run every algorithm, baseline first")
    _add_common(p_cmp)
    p_swp = sub.add_parser("sweep", help="compare across a range of user counts")
    _add_common(p_swp, sweep=True)

    try:
        args = parser.parse_args(argv)
        cfg = _config_from(args)
        if args.command == "sweep":
            users = args.users or ""
            if ".." not in users:
                raise ScenarioError("sweep expects --users A..B")
            lo, hi = users.split("..", 1)
            try:
                span = range(int(lo), int(hi) + 1)
            except ValueError:
                raise ScenarioError(f"bad --users range {users!r}") from None
            if len(span) == 0:
                raise ScenarioError(f"empty --users range {users!r}")
            records = sweep_users(args.case or "moderate", span, cfg, args.min_share)
        else:
            scenarios = _resolve_scenarios(args, cfg)
            records = []
            for scen in scenarios:
                if args.command == "run":
                    records.append(run(scen, args.alg, args.min_share))
                else:
                    records.extend(compare(scen, args.min_share))
        sys.stdout.write(emit(records, args.out))
    except (ScenarioError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if any(r.warnings for r in records):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
