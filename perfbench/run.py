"""harvestsched benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload's passes repeat until ``--seconds`` would be
exceeded and the last line carries the end-to-end metrics.  With
``--trace 1`` one pass runs untraced and the same pass again with spans on
every layer function, and the last line carries the per-layer metrics.
Every operation is checked (see ``gate.py``); a failed operation makes the
run exit 1.  The line before the result is a report with the host, the
reported-only quality figures and, when traced, the full span table.
"""
from __future__ import annotations

import os
import sys

# BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Leave no bytecode caches in the checkout, and compile the same on every run.
sys.dont_write_bytecode = True

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import gate
import workloads
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
#: A small frame run once per set-up, so first-call costs land in set-up.
WARM_UP = "HARVESTS 30 70 5\nPATHLOSS_DB 15 24\n"


def load_package():
    """Import harvestsched afresh and bind the functions the gate calls."""
    for name in [m for m in sys.modules if m == "harvestsched" or m.startswith("harvestsched.")]:
        del sys.modules[name]
    modules = {"package": importlib.import_module("harvestsched")}
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"harvestsched.{layer}")
    convex, model = modules["convex"], modules["model"]
    return SimpleNamespace(
        modules=modules,
        namespaces=lambda: list(modules.values()),
        check_feasibility=model.check_feasibility,
        kkt_residual_time=convex.kkt_residual_time,
        kkt_residual_power=convex.kkt_residual_power,
    )


def set_up(name, seed):
    """Import, instance generation and warm-up, repeated; the last one is kept."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        api = load_package()
        workload = workloads.WORKLOADS[name](seed, api)
        cli = api.modules["cli"]
        cli.emit(cli.compare(cli.parse_scenario(WARM_UP)), "csv")
        times.append(perf_counter() - start)
    return api, workload, times


def run_pass(api, workload):
    """One closed-loop pass; returns (wall seconds, checked operations)."""
    with workloads.OpRecorder(api) as recorder:
        start = perf_counter()
        workload.run_pass(recorder)
        wall = perf_counter() - start
    workload.check_pass(recorder.ops)
    for op in recorder.ops:
        gate.check_op(api, op)
    return wall, recorder.ops


def measure(api, workload, seconds):
    """Passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(api, workload))
        if perf_counter() - start + passes[-1][0] > seconds:
            return passes


def measure_traced(api, workload):
    """One untraced pass, then the same pass traced.

    Returns ``([untraced, traced], span summary, failed self-checks)``.
    """
    untraced = run_pass(api, workload)
    plain_outputs = workload.outputs_for_compare()
    tracer = Tracer(api).install()
    try:
        missed = tracer.unwrapped_bindings()
        traced = run_pass(api, workload)
    finally:
        tracer.uninstall()
    self_check = [f"bindings left unwrapped: {missed}"] if missed else []
    if workload.outputs_for_compare() != plain_outputs:
        self_check.append("traced pass printed different rows than the untraced pass")
    for a, b in zip(untraced[1], traced[1]):
        if a.label != b.label or not all(map(_same_record, a.records, b.records)):
            self_check.append(f"traced records differ for {a.label}")
    return [untraced, traced], tracer.summary(), self_check


def per_instance_ms(passes):
    """Median compare time of each instance over the passes, in ms."""
    columns = zip(*[[op.seconds for op in ops if op.kind == "compare"] for _, ops in passes])
    return sorted(statistics.median(col) * 1e3 for col in columns)


def harrell_davis_median(samples, steps=64):
    """Harrell-Davis estimate of the median.

    A Beta((n+1)/2, (n+1)/2)-weighted mean of the order statistics: it uses
    the instances around the middle, not one or two, so host noise on a
    single instance moves it less than it moves the sample median.  The
    weights integrate the beta density over each rank's interval by the
    midpoint rule.
    """
    n = len(samples)
    mid = (np.arange(steps * n) + 0.5) / (steps * n)
    weights = ((mid * (1.0 - mid)) ** ((n - 1) / 2)).reshape(n, steps).sum(axis=1)
    return float(weights @ np.sort(samples) / weights.sum())


def tail(samples):
    """Highest percentile that leaves ten samples beyond it: (percentile, value).

    None below twenty samples, where that percentile would not lie above the
    median.
    """
    n = len(samples)
    if n < 20:
        return None, None
    return 100.0 * (n - 10) / n, samples[n - 11]


def host_record(seed):
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from ``.git``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def clean(value):
    """``value`` with non-finite floats spelled out, so the line stays strict JSON."""
    if isinstance(value, dict):
        return {k: clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [clean(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "harvestsched" / "__init__.py").is_file():
        print(f"error: no harvestsched package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    api, workload, setup_times = set_up(args.workload, args.seed)
    report = {"workload": args.workload, "host": host_record(args.seed),
              "setup_runs_s": setup_times}
    if args.trace == 0:
        passes, summary, self_check = measure(api, workload, args.seconds), None, []
    else:
        passes, summary, self_check = measure_traced(api, workload)

    ops = [op for _, ops in passes for op in ops]
    failed = [op for op in ops if op.failures]
    for op in failed[:10]:
        print(f"FAIL {op.part} {op.label}: {op.failures[:3]}", file=sys.stderr)
    report.update(gate.quality(api, passes[0][1]))
    report["fail_frac"] = len(failed) / len(ops)
    report["pass_wall_s"] = [wall for wall, _ in passes]

    if args.trace == 0:
        samples = per_instance_ms(passes)
        pct, tail_ms = tail(samples)
        report.update(instances=len(samples), tail_percentile=pct, solve_ms_tail=tail_ms,
                      solve_ms_samples=samples)
        metrics = {
            "wall_s": (statistics.median(w for w, _ in passes), "s"),
            "solve_ms.p50": (harrell_davis_median(samples), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics, checks = layer_metrics(summary, *passes)
        self_check.extend(checks)
        report["trace"] = summary
        report["self_check"] = self_check

    print(json.dumps(clean(report)))
    correct = not failed and not self_check and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _same_record(a, b):
    """Equal records apart from the measured wall time."""
    if (a.algorithm, a.status, a.warnings) != (b.algorithm, b.status, b.warnings):
        return False
    if (a.schedule is None) != (b.schedule is None):
        return False
    return a.schedule is None or (
        np.array_equal(a.schedule.powers_p, b.schedule.powers_p)
        and np.array_equal(a.schedule.shares_tau, b.schedule.shares_tau)
    )


def layer_metrics(summary, untraced, traced):
    """The per-layer metrics of BENCHMARK.json, and the counting self-checks."""
    funcs, owners = summary["functions"], summary["linalg_by_owner"]

    def fn(name, key):
        return funcs.get(name, {}).get(key, 0)

    traces = [t for op in traced[1] for t in op.traces]
    rounds = sum(t.rounds_used for t in traces)
    half_steps = accepted = 0
    for t in traces:
        # each round is a time half-step then a power half-step; the trace
        # keeps the schedule after each round, so compare consecutive ones
        for before, after in zip(t.schedules, t.schedules[1:]):
            half_steps += 2
            accepted += not np.array_equal(before.shares_tau, after.shares_tau)
            accepted += not np.array_equal(before.powers_p, after.powers_p)
    m = {}
    for block in ("solve_time", "solve_power"):
        name = f"convex.{block}"
        m[f"{name}.calls"] = (fn(name, "calls"), "count")
        m[f"{name}.self_s"] = (fn(name, "self_s"), "s")
        m[f"{name}.newton_steps"] = (owners.get(name, {}).get("calls", 0), "count")
        m[f"{name}.linalg_s"] = (owners.get(name, {}).get("s", 0.0), "s")
        m[f"{name}.linalg_n_max"] = (owners.get(name, {}).get("n_max", 0), "rows")
    m["convex.kkt_residual_time.s"] = (fn("convex.kkt_residual_time", "s"), "s")
    m["convex.kkt_residual_power.s"] = (fn("convex.kkt_residual_power", "s"), "s")
    m["convex.bcd.calls"] = (fn("convex.bcd", "calls"), "count")
    m["convex.bcd.s"] = (fn("convex.bcd", "s"), "s")
    m["convex.bcd.rounds"] = (rounds, "count")
    m["convex.bcd.warnings"] = (sum(len(t.warnings) for t in traces), "count")
    m["convex.bcd.accepted_frac"] = (accepted / half_steps if half_steps else 0.0, "fraction")
    for name in ("model.score", "model.rate_matrix", "structure.virtual_harvests", "cli.compare"):
        m[f"{name}.calls"] = (fn(name, "calls"), "count")
        m[f"{name}.s"] = (fn(name, "s"), "s")
    for name in ("model.check_feasibility", "structure.sort_schedule_nondecreasing",
                 "heuristics.sg_tdma", "heuristics.ptf", "heuristics.pronto",
                 "cli.parse_scenario", "cli.emit"):
        m[f"{name}.s"] = (fn(name, "s"), "s")
    m["oracle2x2.optimal_2x2.calls"] = (fn("oracle2x2.optimal_2x2", "calls"), "count")
    # oracle2x2 runs on paper_sweep only; its self time is in the report
    for layer in (*(l for l in LAYERS if l != "oracle2x2"), "linalg"):
        m[f"{layer}.self_s"] = (summary["layer_self_s"].get(layer, 0.0), "s")
    m["trace.overhead_s"] = (traced[0] - untraced[0], "s")
    m["trace.unattributed_s"] = (traced[0] - summary["top_level_s"], "s")

    checks = []
    if not (m["convex.solve_time.calls"][0] == m["convex.solve_power.calls"][0] == rounds):
        checks.append(
            f"solve_time.calls {m['convex.solve_time.calls'][0]}, solve_power.calls "
            f"{m['convex.solve_power.calls'][0]} and bcd rounds {rounds} differ"
        )
    return m, checks


if __name__ == "__main__":
    sys.exit(main())
