import math

import numpy as np
import pytest

from harvestsched import (
    Schedule,
    check_feasibility,
    improvement_pct,
    kkt_residual_power,
    kkt_residual_time,
    score,
)
from harvestsched import cli, convex
from harvestsched.cli import (
    CSV_HEADER,
    HARVEST_PROFILES,
    PATHLOSS_START_DB,
    Scenario,
    ScenarioError,
    bench_2x2_scenarios,
    builtin_scenario,
    compare,
    emit,
    main,
    parse_scenario,
    pathloss_ladder,
    run,
    sweep_users,
)
from harvestsched.convex import NonconvergenceError
from harvestsched.structure import staircase_powers

from conftest import oracle_utility


class TestParseScenario:
    def test_explicit_vectors(self):
        scen = parse_scenario("HARVESTS 0.5 50\nPATHLOSS_DB 19 22\nT 10\n")
        inst = scen.instance
        np.testing.assert_allclose(inst.harvests_e, [0.5, 50.0])
        np.testing.assert_allclose(inst.path_loss_db, [19.0, 22.0])
        assert inst.slot_length_t == 10.0
        assert inst.bandwidth_w_hz == 1000.0
        assert inst.noise_density_n0 == 1e-6

    def test_named_bursty_moderate(self):
        scen = parse_scenario("SCENARIO bursty\nCASE moderate\nUSERS 2\n")
        np.testing.assert_allclose(scen.instance.harvests_e, HARVEST_PROFILES["bursty"])
        np.testing.assert_allclose(scen.instance.path_loss_db, [19.0, 22.0])
        assert scen.label == "bursty"
        assert scen.pathloss_case == "moderate"

    def test_named_very_bursty_low(self):
        scen = parse_scenario("SCENARIO very-bursty\nCASE low\nUSERS 3\n")
        np.testing.assert_allclose(scen.instance.harvests_e, HARVEST_PROFILES["very-bursty"])
        np.testing.assert_allclose(scen.instance.path_loss_db, [13.0, 16.0, 19.0])

    def test_comments_and_overrides(self):
        text = "# header\nT 5 # trailing comment\nHARVESTS 1 2\nPATHLOSS_DB 19\nT 10\n"
        scen = parse_scenario(text)
        assert scen.instance.slot_length_t == 10.0

    def test_later_key_wins_between_vector_and_name(self):
        text = "SCENARIO bursty\nCASE moderate\nUSERS 2\nPATHLOSS_DB 5 8 11\n"
        scen = parse_scenario(text)
        np.testing.assert_allclose(scen.instance.path_loss_db, [5.0, 8.0, 11.0])

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario("T 10\nBOGUS 1\n")
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("HARVESTS one two\n")
        with pytest.raises(ScenarioError):
            parse_scenario("HARVESTS 1 2\nPATHLOSS_DB 19\nUSERS 3\n")
        with pytest.raises(ScenarioError):
            parse_scenario("T 10\n")

    @pytest.mark.parametrize("line, message", [
        ("W 1 2", "line 2: W expects one value"),
        ("N0 x", "line 2: bad number in N0"),
        ("HARVESTS", "line 2: HARVESTS expects a list of Joules"),
        ("PATHLOSS_DB 19 x", "line 2: bad number in PATHLOSS_DB"),
    ])
    def test_number_errors_name_key_and_line(self, line, message):
        with pytest.raises(ScenarioError, match=message):
            parse_scenario("T 10\n" + line + "\n")

    def test_epsilon_key(self):
        scen = parse_scenario("HARVESTS 1\nPATHLOSS_DB 19\nEPSILON 1e-6\n")
        assert scen.instance.epsilon_share == 1e-6

    def test_ladders(self):
        np.testing.assert_allclose(pathloss_ladder("low", 3), [13.0, 16.0, 19.0])
        np.testing.assert_allclose(pathloss_ladder("high", 2), [25.0, 28.0])

    def test_profile_constants(self):
        np.testing.assert_allclose(
            HARVEST_PROFILES["regular"], [73, 65, 9, 19, 40, 37, 22, 84, 39, 67, 81, 100]
        )
        np.testing.assert_allclose(
            HARVEST_PROFILES["bursty"], [20, 100, 1, 1, 1, 70, 100, 1, 10, 40]
        )
        np.testing.assert_allclose(
            HARVEST_PROFILES["very-bursty"], [90, 2, 0.5, 0.1, 0.3, 0.7, 40, 60]
        )
        assert PATHLOSS_START_DB == {"low": 13.0, "moderate": 19.0, "high": 25.0}


class TestRunCompare:
    def test_compare_reference_instance(self):
        scen = parse_scenario("HARVESTS 0.5 50\nPATHLOSS_DB 19 22\n")
        records = compare(scen)
        assert [r.algorithm for r in records] == ["sg-tdma", "ptf", "pronto", "bcd"]
        base, bcd_rec = records[0], records[-1]
        assert base.utility_improvement_pct == 0.0
        assert base.throughput_improvement_pct == 0.0
        expected_base = oracle_utility(
            [0.5, 50.0], [19.0, 22.0], [0.05, 5.0], [[10.0, 0.0], [0.0, 10.0]]
        )
        assert base.report.utility_u == pytest.approx(expected_base, abs=1e-9)
        assert bcd_rec.report.utility_u == pytest.approx(29.8094, abs=1e-3)
        assert bcd_rec.utility_improvement_pct == pytest.approx(
            improvement_pct(bcd_rec.report.utility_u, expected_base), abs=1e-9
        )

    def test_per_record_error_for_small_frames(self):
        scen = builtin_scenario("bursty", "moderate", 11)
        rec = run(scen, "pronto")
        assert rec.status.startswith("error")
        assert "K < N" in rec.status
        assert rec.report is None
        assert math.isnan(rec.utility_improvement_pct)

    def test_oracle_algorithm_on_2x2(self):
        scen = parse_scenario("HARVESTS 0.5 50\nPATHLOSS_DB 19 22\n")
        rec = run(scen, "oracle2x2")
        assert rec.status == "ok"
        assert rec.report.utility_u == pytest.approx(29.8094, abs=1e-3)

    def test_oracle_rejects_other_frames_before_bcd(self, monkeypatch):
        def no_bcd(*args):
            raise AssertionError("bcd ran on a frame the oracle rejects")

        monkeypatch.setattr(cli, "bcd", no_bcd)
        rec = run(builtin_scenario("regular", "moderate", 3), "oracle2x2")
        assert rec.status == "error: needs exactly 2 users and 2 slots, got 3x12"
        assert rec.schedule is None and rec.report is None

    @pytest.mark.parametrize("command", ["compare", "run"])
    def test_one_baseline_per_scenario(self, command, monkeypatch):
        import harvestsched.cli as cli

        calls = []
        real_sg_tdma, real_bcd = cli.sg_tdma, cli.bcd

        def counting_sg_tdma(inst):
            calls.append(inst)
            return real_sg_tdma(inst)

        starts = []

        def recording_bcd(inst, init, cfg=None):
            starts.append(init)
            return real_bcd(inst, init, cfg)

        monkeypatch.setattr(cli, "sg_tdma", counting_sg_tdma)
        monkeypatch.setattr(cli, "bcd", recording_bcd)
        scen = parse_scenario("HARVESTS 0.5 50 20\nPATHLOSS_DB 19 22\n")
        if command == "compare":
            records = compare(scen)
            assert len(starts) == 1
            assert starts[0] is records[0].schedule  # bcd starts at the baseline itself
        else:
            assert run(scen, "bcd").status == "ok"
            assert len(starts) == 1
        assert len(calls) == 1

    def test_bcd_record_is_returned_schedule(self, monkeypatch):
        import harvestsched.cli as cli

        traces = []
        real_bcd = cli.bcd

        def recording_bcd(inst, init, cfg=None):
            sched, trace = real_bcd(inst, init, cfg)
            traces.append(trace)
            return sched, trace

        monkeypatch.setattr(cli, "bcd", recording_bcd)
        scen = parse_scenario("HARVESTS 50 0.5 20\nPATHLOSS_DB 19 22\n")
        rec = run(scen, "bcd")
        assert rec.schedule is traces[0].schedules[-1]

    def test_bcd_record_certifies_on_long_frame(self):
        # a slot permutation of bcd's point keeps its utility but is not
        # power-stationary for the permuted budgets, so the record must carry
        # the point as solved
        rng = np.random.default_rng(1)
        harvests = rng.permutation((np.arange(80) + 0.5) * (100.0 / 80))
        losses = rng.permutation(13.0 + (np.arange(2) + 0.5) * (27.0 / 2))
        scen = parse_scenario(
            "HARVESTS " + " ".join(repr(float(x)) for x in harvests) + "\n"
            + "PATHLOSS_DB " + " ".join(repr(float(x)) for x in losses) + "\n"
        )
        rec = compare(scen)[-1]
        assert (rec.algorithm, rec.status, rec.warnings) == ("bcd", "ok", ())
        inst, sched, tol = scen.instance, rec.schedule, scen.config.tol_kkt
        assert kkt_residual_time(inst, sched.powers_p, sched.shares_tau).max_residual <= tol
        assert kkt_residual_power(inst, sched.shares_tau, sched.powers_p).max_residual <= tol

    @pytest.mark.parametrize("frame", [
        "PATHLOSS_DB 1 60\n",                 # a 59 dB spread
        "PATHLOSS_DB 0 80\n",                 # an 80 dB spread from a unit-gain user
        "PATHLOSS_DB 19 22 25\nEPSILON 1e-14\n",
    ])
    def test_bcd_certifies_on_wide_spreads_and_tiny_epsilon(self, frame):
        scen = parse_scenario("HARVESTS 10 20 30 40\n" + frame)
        records = compare(scen)
        rec = records[-1]
        assert (rec.algorithm, rec.status, rec.warnings) == ("bcd", "ok", ())
        inst, sched, tol = scen.instance, rec.schedule, scen.config.tol_kkt
        assert not check_feasibility(inst, sched)
        assert kkt_residual_time(inst, sched.powers_p, sched.shares_tau).max_residual <= tol
        assert kkt_residual_power(inst, sched.shares_tau, sched.powers_p).max_residual <= tol
        for other in records[:-1]:
            if other.report is not None and other.report.feasible:
                assert rec.report.utility_u >= other.report.utility_u - 1e-6, other.algorithm

    @pytest.mark.parametrize("users", [9, 12])
    def test_bcd_row_when_baseline_starves_a_user(self, users):
        # with N > K sg-tdma leaves a user without time, so bcd starts from
        # the staircase powers with equal shares instead of raising
        scen = builtin_scenario("very-bursty", "moderate", users)
        inst = scen.instance
        records = compare(scen)
        assert check_feasibility(inst, records[0].schedule)
        rec = records[-1]
        assert (rec.algorithm, rec.status, rec.warnings) == ("bcd", "ok", ())
        assert not check_feasibility(inst, rec.schedule)
        assert math.isfinite(rec.report.utility_u)
        # no heuristic is feasible here, so also hold bcd to its own start
        shares = np.full((users, inst.n_slots), inst.slot_length_t / users)
        assert rec.report.utility_u >= score(inst, Schedule(staircase_powers(inst), shares)).utility_u
        for heur in records[:-1]:
            if heur.schedule is not None and not check_feasibility(inst, heur.schedule):
                assert rec.report.utility_u >= heur.report.utility_u

    def test_heuristics_share_one_staircase(self):
        scen = builtin_scenario("bursty", "moderate", 3)
        by_alg = {rec.algorithm: rec for rec in compare(scen)}
        powers = by_alg["ptf"].schedule.powers_p
        assert by_alg["pronto"].schedule.powers_p is powers
        assert powers is staircase_powers(scen.instance)
        assert not powers.flags.writeable and powers.flags.owndata

    def test_bench_batch_shape(self):
        scens = bench_2x2_scenarios()
        assert len(scens) == 9
        labels = [s.label for s in scens]
        assert len(set(labels)) == 9
        assert all(s.instance.n_users == 2 and s.instance.n_slots == 2 for s in scens)


class TestSweep:
    def test_small_sweep_layout(self):
        records = sweep_users("moderate", range(2, 4))
        per_n = 3 * 4 + 4  # three profiles x four algorithms + averages
        assert len(records) == 2 * per_n
        avg = [r for r in records if r.scenario == "average"]
        assert len(avg) == 8
        assert all(math.isfinite(r.utility_improvement_pct) for r in avg)

    def test_baseline_rows_zero_improvement(self):
        records = sweep_users("moderate", range(2, 3))
        for r in records:
            if r.algorithm == "sg-tdma" and r.scenario != "average":
                assert r.utility_improvement_pct == 0.0


class TestEmit:
    def _records(self):
        scen = parse_scenario("HARVESTS 0.5 50\nPATHLOSS_DB 19 22\n")
        return [run(scen, "sg-tdma"), run(scen, "ptf")]

    def test_csv_header_and_shape(self):
        records = self._records()
        text = emit(records, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "custom"
        assert first[3] == "sg-tdma"
        float(first[4])  # utility parses
        assert first[7] == "0.000000"

    def test_single_record_two_lines(self):
        scen = parse_scenario("HARVESTS 1\nPATHLOSS_DB 19\n")
        text = emit([run(scen, "sg-tdma")], "csv")
        assert len(text.strip().split("\n")) == 2

    def test_byte_identical_for_same_records(self):
        records = self._records()
        assert emit(records, "csv") == emit(records, "csv")
        assert emit(records, "table") == emit(records, "table")

    def test_infinite_utility_renders(self):
        scen = builtin_scenario("bursty", "moderate", 11)  # PTF starves here
        rec = run(scen, "ptf")
        assert rec.report.utility_u == -math.inf
        text = emit([rec], "csv")
        assert ",-inf," in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(self._records(), "yaml")
        with pytest.raises(ValueError):
            emit([], "csv")


class TestMain:
    def test_usage_error_exit_1(self, capsys):
        assert main(["run", "--scenario", "nope.txt", "--alg", "bcd"]) == 1
        assert "error" in capsys.readouterr().err

    def test_compare_builtin(self, capsys):
        code = main(
            ["compare", "--scenario", "bursty", "--users", "2", "--case", "moderate",
             "--out", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_run_from_file(self, tmp_path, capsys):
        f = tmp_path / "scen.txt"
        f.write_text("HARVESTS 0.5 50\nPATHLOSS_DB 19 22\n")
        code = main(["run", "--scenario", str(f), "--alg", "bcd", "--out", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(CSV_HEADER)

    def test_compare_on_a_tiny_leading_harvest(self, tmp_path, capsys):
        # slot 0 holds 1e-300 J, below the total's rounding: bcd pins it to
        # zero power and raises no overflow warning
        f = tmp_path / "scen.txt"
        f.write_text("HARVESTS 1e-300 5\nPATHLOSS_DB 19 22\n")
        assert main(["compare", "--scenario", str(f), "--out", "table"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        (bcd_row,) = [row for row in rows if row.split()[2] == "bcd"]  # no case column
        assert bcd_row.endswith("  ok")

    @pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason="the power block's "
                       "Newton step overflows on a tiny or huge total harvest")
    @pytest.mark.parametrize("harvests", ["1e-160 2e-160", "1e300 1e300"])
    def test_compare_on_an_extreme_total_harvest(self, harvests, tmp_path, capsys):
        # M.T @ M overflows at 1e-160 J and h_sigma / p**2 at 1e300 J, and
        # every warning is an error here
        f = tmp_path / "scen.txt"
        f.write_text(f"HARVESTS {harvests}\nPATHLOSS_DB 19 22\n")
        assert main(["compare", "--scenario", str(f), "--out", "table"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        (bcd_row,) = [row for row in rows if row.split()[2] == "bcd"]
        assert bcd_row.endswith("  ok")

    def test_starved_rows_name_their_users(self, capsys):
        # N > K: sg-tdma and ptf leave user 8 without bits, bcd serves all
        argv = ["compare", "--scenario", "very-bursty", "--users", "9", "--case", "moderate"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        status = {row.split()[3]: row.split("  ")[-1].strip() for row in rows}
        assert status["sg-tdma"] == "starved: users 8 [infeasible: min_share]"
        assert status["ptf"] == "starved: users 8 [infeasible: min_share]"
        assert status["pronto"].startswith("error: block assignment needs K >= N")
        assert status["bcd"] == "ok"
        assert main(argv + ["--out", "csv"]) == 0
        assert "starved" not in capsys.readouterr().out

    def test_sweep_requires_range(self, capsys):
        assert main(["sweep", "--scenario", "bursty", "--users", "3"]) == 1
        capsys.readouterr()

    def test_sweep_runs(self, capsys):
        code = main(
            ["sweep", "--scenario", "bursty", "--users", "2..3", "--case", "moderate",
             "--out", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("average") == 8

    def test_sweep_drops_the_average_of_an_algorithm_without_results(self, capsys):
        # 13 users on at most 12 slots: pronto fails on all three profiles
        assert main(["sweep", "--users", "13..13", "--case", "moderate", "--out", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 3 * 4 + 3
        pronto = [row for row in rows if row[3] == "pronto"]
        assert [row[0] for row in pronto] == list(HARVEST_PROFILES)
        assert all(field == "nan" for row in pronto for field in row[4:9])
        averages = [row[3] for row in rows if row[:3] == ["average", "moderate", "13"]]
        assert averages == ["sg-tdma", "ptf", "bcd"]

    def test_solver_warning_exits_2(self, monkeypatch, capsys):
        def nonconverging(*args, real=convex.solve_power):
            powers, _ = real(*args)
            raise NonconvergenceError("power block exceeded the inner iteration budget",
                                      best=powers)

        records = []

        def recorded(*args, real=cli.compare):
            out = real(*args)
            records.extend(out)
            return out

        monkeypatch.setattr(convex, "solve_power", nonconverging)
        monkeypatch.setattr(cli, "compare", recorded)
        argv = ["compare", "--scenario", "bursty", "--users", "2", "--case", "moderate",
                "--out", "csv"]
        assert main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[3] for line in lines[1:]] == ["sg-tdma", "ptf", "pronto", "bcd"]
        assert [bool(r.warnings) for r in records] == [False, False, False, True]
        assert records[-1].status == "ok"
        assert all("power block exceeded" in w for w in records[-1].warnings)

    def test_sweep_needs_no_scenario(self, capsys):
        def rows(argv):
            assert main(argv + ["--users", "2..3", "--case", "moderate", "--out", "csv"]) == 0
            return [line.rsplit(",", 1)[0] for line in capsys.readouterr().out.splitlines()]

        assert rows(["sweep"]) == rows(["sweep", "--scenario", "regular"])

    @pytest.mark.parametrize("argv", [
        ["compare", "--users", "2"],
        ["run", "--alg", "bcd", "--users", "2"],
    ])
    def test_run_and_compare_require_scenario(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["compare", "--users", "3"],
        ["compare", "--case", "moderate"],
        ["run", "--alg", "oracle2x2", "--users", "2"],
    ])
    def test_bench2x2_rejects_case_and_users(self, argv, capsys):
        assert main(argv + ["--scenario", "bench2x2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_bench_batch_emits_row_per_combination(self, capsys):
        code = main(["compare", "--scenario", "bench2x2", "--out", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 9 * 4  # header + 9 instances x 4 algorithms
        assert sum(1 for l in lines if ",bcd," in l) == 9

    def test_solver_flags_accepted(self, capsys):
        code = main(
            ["run", "--scenario", "bursty", "--users", "2", "--alg", "bcd",
             "--tol-kkt", "1e-5", "--tol-utility", "1e-6", "--max-rounds", "50",
             "--out", "csv"]
        )
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize(
        "flags",
        [["--tol-kkt", "inf"], ["--tol-kkt", "-1"], ["--tol-utility", "nan"], ["--max-rounds", "0"]],
    )
    def test_bad_solver_flags_exit_1(self, flags, capsys):
        # an infinite --tol-kkt once ran bcd to an uncertified point with
        # status ok; the others escaped main as ValueError tracebacks
        assert main(["compare", "--scenario", "bursty", "--users", "3", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: solver flags: ")
        assert captured.out == ""
