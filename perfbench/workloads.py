"""The benchmark's workloads and the recorder that turns calls into operations.

Every workload is a closed loop with one client: the next instance starts
only when the previous ``compare`` (or ``run``) has returned.  An operation
is one top-level ``cli.compare`` or ``cli.run`` call; :class:`OpRecorder`
times it and keeps its records and the ``BcdTrace`` of each ``bcd`` call made
through ``cli``'s binding.  The program sees only the generated instances.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Patches

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Numeric CSV fields of a paper_sweep row may differ from the reference by
#: this much times max(1, |reference|).  The acceptance suite pins the
#: benchmark utilities to 1e-3 absolute, so this is never tighter than it.
REFERENCE_TOL = 1e-3


@dataclass(eq=False)
class Op:
    """One top-level call into ``cli``: its instance, time and results."""

    kind: str  # "compare" or "run"
    part: str  # the CLI call or frame family that issued it
    label: tuple  # (scenario, case, users) as the records show them
    scenario: object
    seconds: float = 0.0
    records: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    failures: list = field(default_factory=list)


class OpRecorder:
    """Wraps ``cli.compare``, ``cli.run`` and ``cli.bcd`` for one pass.

    Calls nested inside a recorded call (``compare`` calls ``run``) belong to
    the outer operation.  Installed over any tracer, removed before it.
    """

    def __init__(self, api):
        self.cli = api.modules["cli"]
        self.ops: list[Op] = []
        self.part = ""
        self._current: Op | None = None
        self._patches = Patches()

    def __enter__(self):
        cli = self.cli
        compare, run, bcd = cli.compare, cli.run, cli.bcd

        def recorded_compare(scenario, *args, **kwargs):
            return self._record("compare", scenario, compare, scenario, *args, **kwargs)

        def recorded_run(scenario, *args, **kwargs):
            return self._record("run", scenario, run, scenario, *args, **kwargs)

        def recorded_bcd(*args, **kwargs):
            sched, trace = bcd(*args, **kwargs)
            if self._current is not None:
                self._current.traces.append(trace)
            return sched, trace

        self._patches.set(cli, "compare", recorded_compare)
        self._patches.set(cli, "run", recorded_run)
        self._patches.set(cli, "bcd", recorded_bcd)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def _record(self, kind, scenario, fn, *args, **kwargs):
        if self._current is not None:
            return fn(*args, **kwargs)
        inst = scenario.instance
        op = Op(kind, self.part, (scenario.label, scenario.pathloss_case or "", inst.n_users), scenario)
        self._current = op
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            op.seconds = perf_counter() - start
            self._current = None
        op.records = list(result) if kind == "compare" else [result]
        self.ops.append(op)
        return result


def _rows(text):
    """CSV rows without the header and without the measured ``wall_ms`` column."""
    header, *rows = csv.reader(io.StringIO(text))
    keep = len(header) - (header[-1] == "wall_ms")
    return [row[:keep] for row in rows]


def _same_field(got, ref):
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return got == ref
    if math.isnan(r) or math.isinf(r):
        return got == ref
    return abs(g - r) <= REFERENCE_TOL * max(1.0, abs(r))


class PaperSweep:
    """The paper's figure workload, driven through ``cli.main``.

    One pass is the moderate user sweep (``compare`` on regular, bursty and
    very-bursty at 2..8 users) and the nine ``bench2x2`` instances through
    ``compare`` and through ``run(..., "oracle2x2")``.  The instances are the
    paper's, so the seed does not change them; every row is checked against
    the reference CSV written by the seed code.
    """

    CALLS = (
        ("sweep", ["sweep", "--scenario", "regular", "--users", "2..8", "--case", "moderate",
                   "--out", "csv"], "paper_sweep_moderate.csv"),
        ("bench2x2", ["compare", "--scenario", "bench2x2", "--out", "csv"], "bench2x2_compare.csv"),
        ("oracle2x2", ["run", "--scenario", "bench2x2", "--alg", "oracle2x2", "--out", "csv"],
         "bench2x2_oracle.csv"),
    )

    def __init__(self, api):
        self.api = api
        self.reference = {part: _rows((REFERENCE_DIR / name).read_text()) for part, _, name in self.CALLS}
        self.outputs: dict = {}

    def run_pass(self, recorder):
        self.outputs = {}
        for part, argv, _ in self.CALLS:
            recorder.part = part
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.api.modules["cli"].main(list(argv))
            self.outputs[part] = (code, out.getvalue())

    def check_pass(self, ops):
        """Exit codes, reference rows, and oracle against bcd on bench2x2."""
        by_part = {part: [op for op in ops if op.part == part] for part, _, _ in self.CALLS}
        for part, _, name in self.CALLS:
            code, text = self.outputs[part]
            if code != 0:
                for op in by_part[part]:
                    op.failures.append(f"{part}: exit code {code}")
            got, ref = _rows(text), self.reference[part]
            if len(got) != len(ref):
                for op in by_part[part]:
                    op.failures.append(f"{part}: {len(got)} rows, reference {name} has {len(ref)}")
                continue
            for row, ref_row in zip(got, ref):
                if len(row) == len(ref_row) and all(map(_same_field, row, ref_row)):
                    continue
                # labels such as "bench2x2[0.5,50]@20.5" hold commas, so
                # rows are matched to operations on their joined text
                line = ",".join(ref_row)
                owners = [
                    op for op in by_part[part]
                    if line.startswith((f"{op.label[0]},{op.label[1]},{op.label[2]},",
                                        f"average,{op.label[1]},{op.label[2]},"))
                ]
                for op in owners or by_part[part]:
                    op.failures.append(f"{part}: row {row} differs from reference {ref_row}")
        bcd_utility = {
            op.label: rec.report.utility_u
            for op in by_part["bench2x2"]
            for rec in op.records
            if rec.algorithm == "bcd" and rec.report is not None
        }
        for op in by_part["oracle2x2"]:
            rec = op.records[0]
            if rec.report is None or op.label not in bcd_utility:
                op.failures.append("oracle2x2: no utility to compare with bcd")
            elif abs(rec.report.utility_u - bcd_utility[op.label]) > 1e-3:
                op.failures.append(
                    f"oracle2x2 utility {rec.report.utility_u} vs bcd {bcd_utility[op.label]}"
                )

    def outputs_for_compare(self):
        return {part: _rows(text) for part, (_, text) in self.outputs.items()}


def frame_text(rng, n_slots, n_users):
    """Scenario text for one random frame.

    The harvests are K values evenly spaced over (0, 100) J and the path
    losses N values evenly spaced over (13, 40) dB, each in seeded random
    order.  The order of energy arrivals is what makes frames differ.  Fixing
    the value sets keeps frame costs close (ten 16x12 frames took 1.1-1.7 s),
    where independent U(0, 100) J / U(13, 40) dB draws spread six such frames
    over 1.2-7.6 s and left the run unsteady across seeds.
    """
    harvests = rng.permutation((np.arange(n_slots) + 0.5) * (100.0 / n_slots))
    losses = rng.permutation(13.0 + (np.arange(n_users) + 0.5) * (27.0 / n_users))
    return (
        "HARVESTS " + " ".join(repr(float(x)) for x in harvests) + "\n"
        + "PATHLOSS_DB " + " ".join(repr(float(x)) for x in losses) + "\n"
    )


class Frames:
    """Seeded random K x N frames, each through ``parse_scenario``, ``compare``, ``emit``.

    One shape per workload keeps the per-frame times in one cluster, so
    their median does not jump between shapes from one seed to the next.
    """

    def __init__(self, name, n_slots, n_users, count, seed, api):
        self.api = api
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        self.texts = [frame_text(rng, n_slots, n_users) for _ in range(count)]
        self.outputs: dict = {}

    def run_pass(self, recorder):
        cli = self.api.modules["cli"]
        recorder.part = "frame"
        self.outputs = {"frame": [cli.emit(cli.compare(cli.parse_scenario(t)), "csv") for t in self.texts]}

    def check_pass(self, ops):
        if len(ops) != len(self.texts):
            for op in ops:
                op.failures.append(f"{len(ops)} operations for {len(self.texts)} frames")

    def outputs_for_compare(self):
        return {"frame": [_rows(text) for text in self.outputs["frame"]]}


#: One long_horizon pass takes 30-45 s on a 2-core host, and paper_sweep
#: fits two or three 13-20 s passes in a 50 s run.
WORKLOADS = {
    "paper_sweep": lambda seed, api: PaperSweep(api),
    "long_horizon": lambda seed, api: Frames("long_horizon", 80, 2, 80, seed, api),
}
