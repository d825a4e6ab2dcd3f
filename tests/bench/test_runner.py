"""Tests for the benchmark runner and the verdict plumbing."""

import gc
import re
import weakref

import pytest

from repro.baselines.common import Verdict, classify
from repro.bench.programs import BenchProgram
from repro.bench.runner import TOOLS, main as run_main, run_benchmark
from repro.obs.prof import get_profiler


def prog(entry, racy=False, **kw):
    return BenchProgram(name="t", racy=racy, entry=entry, **kw)


def racy_entry(env):
    x = env.ctx.malloc(8)

    def make():
        env.task(lambda tv: x.write(0, line=8))
        env.task(lambda tv: x.write(0, line=11))
        env.taskwait()
    env.parallel_single(make)


def clean_entry(env):
    x = env.ctx.malloc(8)

    def make():
        env.task(lambda tv: x.write(0), depend={"out": [x]})
        env.task(lambda tv: x.write(0), depend={"inout": [x]})
        env.taskwait()
    env.parallel_single(make)


class TestClassify:
    @pytest.mark.parametrize("reported,racy,expected", [
        (True, True, Verdict.TP), (False, True, Verdict.FN),
        (True, False, Verdict.FP), (False, False, Verdict.TN),
    ])
    def test_matrix(self, reported, racy, expected):
        assert classify(reported, racy) == expected


class TestRunBenchmark:
    def test_taskgrind_tp(self):
        r = run_benchmark(prog(racy_entry, racy=True), "taskgrind")
        assert r.verdict == Verdict.TP
        assert r.report_count >= 1

    def test_taskgrind_tn(self):
        r = run_benchmark(prog(clean_entry, racy=False), "taskgrind")
        assert r.verdict == Verdict.TN

    def test_none_tool_never_reports(self):
        r = run_benchmark(prog(racy_entry, racy=True), "none")
        assert r.verdict == Verdict.FN       # no tool, racy -> nothing seen

    def test_ncs_classification(self):
        r = run_benchmark(prog(clean_entry, min_clang=11), "tasksanitizer")
        assert r.verdict == Verdict.NCS

    def test_segv_classification(self):
        r = run_benchmark(
            prog(clean_entry, features=frozenset({"romp-segv"})), "romp")
        assert r.verdict == Verdict.SEGV

    def test_results_carry_cost_and_memory(self):
        r = run_benchmark(prog(clean_entry), "taskgrind")
        assert r.sim_seconds > 0
        assert r.sim_memory_mib > 0

    def test_all_tools_run_all(self):
        for name in TOOLS:
            r = run_benchmark(prog(clean_entry), name, nthreads=2)
            assert r.verdict in (Verdict.TN, Verdict.FP), name

    def test_seed_changes_are_isolated(self):
        a = run_benchmark(prog(racy_entry, racy=True), "taskgrind", seed=0)
        b = run_benchmark(prog(racy_entry, racy=True), "taskgrind", seed=1)
        assert a.verdict == b.verdict == Verdict.TP   # logical analysis

    def test_finished_machine_is_not_kept_alive(self):
        """The registry's virtual clock holds the run's cost model, not
        its machine: a dropped result frees the machine, its tool, graph
        and allocator, before the next machine is built."""
        result = run_benchmark(prog(racy_entry, racy=True), "taskgrind",
                               keep_machine=True)
        machine = weakref.ref(result.machine)
        del result
        gc.collect()
        assert machine() is None

    def test_profiled_machine_is_not_kept_alive(self):
        """The profiler's frame providers close over the machine and its
        recorder: disabling it after a profiled run frees them."""
        prof = get_profiler()
        prof.enable()
        try:
            result = run_benchmark(prog(racy_entry, racy=True), "taskgrind",
                                   keep_machine=True)
            prof.disable()
            machine = weakref.ref(result.machine)
            del result
            gc.collect()
            assert machine() is None
        finally:
            prof.disable()
            prof.reset()


class TestRunCli:
    @pytest.mark.parametrize("tool", ["romp", "tasksanitizer", "archer"])
    def test_baseline_reports_print_one_line_each(self, tool, capsys):
        """A baseline tool's reports are no ``RaceReport``: each prints as
        one line naming its two sides and its byte range, and the exit
        code says races were found."""
        assert run_main(["027-taskdependmissing-orig", "--tool", tool]) == 1
        out = capsys.readouterr().out
        count = int(re.search(r"(\d+) report\(s\)", out).group(1))
        lines = re.findall(r"^race: .+ and .+ on bytes "
                           r"\[0x[0-9a-f]+, 0x[0-9a-f]+\)$", out, re.M)
        assert count >= 1 and len(lines) == count

    @pytest.mark.parametrize("flag", ["--profile", "--flame"])
    def test_retired_profile_flags_exit_2(self, flag, tmp_path, capsys):
        """``repro profile run`` is the one way to profile a program."""
        with pytest.raises(SystemExit) as exc:
            run_main(["fib", flag, str(tmp_path / "out")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestRegistries:
    def test_drb_registry_complete(self):
        from repro.bench import drb
        assert len(drb.all_programs()) == 29
        names = [p.name for p in drb.all_programs()]
        assert "027-taskdependmissing-orig" in names
        assert "175-non-sibling-taskdep2" in names
        assert len(set(names)) == 29

    def test_tmb_registry_complete(self):
        from repro.bench import tmb
        assert len(tmb.all_programs()) == 7

    def test_every_drb_program_has_expectations(self):
        from repro.bench import drb
        for p in drb.all_programs():
            assert set(p.expected) == {"tasksanitizer", "archer", "romp",
                                       "taskgrind"}, p.name

    def test_every_tmb_program_has_both_blocks(self):
        from repro.bench import tmb
        for p in tmb.all_programs():
            assert set(p.expected) == {"1t", "4t"}, p.name

    def test_ground_truth_distribution(self):
        """The DRB subset has both racy and race-free programs."""
        from repro.bench import drb
        racy = sum(p.racy for p in drb.all_programs())
        assert 10 <= racy <= 15


class TestTable1Harness:
    def test_subset_run(self):
        """Spot-check two known-stable rows through the full harness."""
        from repro.bench import drb

        r072 = run_benchmark(drb.by_name("072-taskdep1-orig"), "taskgrind")
        assert r072.cell() == "TN"
        r027 = run_benchmark(drb.by_name("027-taskdependmissing-orig"),
                             "taskgrind")
        assert r027.cell() == "TP"

    def test_headline_metric(self):
        """Taskgrind's single FN is the mergeable row (DRB129)."""
        from repro.bench import drb
        fn_rows = []
        for p in drb.all_programs():
            r = run_benchmark(p, "taskgrind", seed=2)
            if r.cell() == "FN":
                fn_rows.append(p.name)
        assert fn_rows == ["129-mergeable-taskwait-orig"]
