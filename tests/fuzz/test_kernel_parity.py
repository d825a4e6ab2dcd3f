"""Kernel parity over the fuzz corpus and salvaged traces.

The batched pair check (:meth:`KernelContext.check_pairs`) must be
report-for-report indistinguishable from the per-pair Python loop of the
test oracle (``tests/core/analysis_oracle.py``) on exactly the inputs the
fuzz harness pins down: every checked-in reproducer (including
intentionally-broken-suppression configs), truncated/salvaged traces, and
arbitrary candidate-pair orderings.
"""

import glob
import json
import os
import random

import pytest

from repro.core.npkernel import KernelContext
from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.core.trace import analyze_trace_with_stats, save_trace
from repro.fuzz.diff import run_differential
from repro.fuzz.executors import fuzz_options, run_taskgrind
from repro.fuzz.shrink import load_reproducer
from repro.machine.machine import Machine
from repro.openmp.api import make_env
from tests.core.analysis_oracle import all_pairs, loop_check_pairs

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
ENTRIES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def outcome_key(outcome):
    return (outcome.crashed, outcome.slots, outcome.noise,
            outcome.report_count)


@pytest.mark.parametrize("path", ENTRIES,
                         ids=[os.path.basename(p) for p in ENTRIES])
def test_corpus_outcomes_identical_across_kernels(path, monkeypatch):
    """Every reproducer — clean or pinned-divergent — behaves identically
    under the batched check and the oracle loop, schedule by schedule."""
    program, _expect, options, _note = load_reproducer(path)
    opts = fuzz_options(**options)
    seeds = (0, 1, 2)
    numpy_runs = [run_taskgrind(program, schedule_seed=seed, options=opts)
                  for seed in seeds]
    monkeypatch.setattr(KernelContext, "check_pairs", loop_check_pairs)
    for seed, numpy_run in zip(seeds, numpy_runs):
        python_run = run_taskgrind(program, schedule_seed=seed, options=opts)
        assert outcome_key(python_run) == outcome_key(numpy_run), \
            f"{os.path.basename(path)} seed={seed} kernel divergence"


def test_reproducer_with_retired_kernel_option_replays(tmp_path):
    """A corpus entry written while ``analysis_kernel`` and ``analysis``
    were options still loads and runs: the retired keys select nothing."""
    retired = {"analysis_kernel": "python", "analysis": "indexed"}
    with open(ENTRIES[0]) as fh:
        doc = json.load(fh)
    doc["options"].update(retired)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    program, _expect, options, _note = load_reproducer(str(path))
    old = run_taskgrind(program, schedule_seed=0,
                        options=fuzz_options(**options))
    for key in retired:
        del options[key]
    new = run_taskgrind(program, schedule_seed=0,
                        options=fuzz_options(**options))
    assert old.ok and outcome_key(old) == outcome_key(new)


@pytest.mark.parametrize("path", ENTRIES[:2],
                         ids=[os.path.basename(p) for p in ENTRIES[:2]])
def test_differential_harness_clean_with_numpy(path):
    """The full differential harness with the batched kernel must reach
    the same verdicts as the pinned expectation."""
    program, expect, options, note = load_reproducer(path)
    opts = fuzz_options(**options)
    result = run_differential(program, schedules=4, taskgrind_options=opts)
    if not expect:
        assert result.ok, (f"{note}: numpy kernel introduced "
                           f"{[str(d) for d in result.divergences]}")
    else:
        assert set(expect) <= set(result.kinds())


# ---------------------------------------------------------------------------
# salvaged / partial traces
# ---------------------------------------------------------------------------


def racy_listing(env):
    ctx = env.ctx
    x = ctx.malloc(8, line=3, name="x")
    y = ctx.malloc(16, line=4, name="y")

    def single_body():
        for n in range(3):
            env.task(lambda tv: (x.write(0), y.write(0), y.write(1)),
                     name=f"t{n}")

    env.parallel_single(single_body)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    machine = Machine(seed=0)
    tool = TaskgrindTool(TaskgrindOptions())
    machine.add_tool(tool)
    env = make_env(machine, nthreads=4)
    env.rt.ompt.register(tool.make_ompt_shim())

    def main():
        with env.ctx.function("main", line=1):
            racy_listing(env)
    machine.run(main)
    tool.finalize()
    path = tmp_path_factory.mktemp("parity") / "run.trace.json"
    save_trace(tool, machine, str(path))
    return str(path)


def report_keys(reports):
    return sorted((r.key(), tuple(r.ranges.pairs())) for r in reports)


class TestSalvagedTraceParity:
    def test_intact_trace(self, trace_path, monkeypatch):
        b, _ = analyze_trace_with_stats(trace_path)
        monkeypatch.setattr(KernelContext, "candidate_pairs", all_pairs)
        a, _ = analyze_trace_with_stats(trace_path)
        assert report_keys(a) == report_keys(b)
        assert report_keys(a)          # the fixture really races

    def test_truncated_trace(self, trace_path, tmp_path, monkeypatch):
        """Every salvage prefix yields the same reports from the indexed
        candidates and the all-pairs oracle candidates."""
        data = open(trace_path, "rb").read()
        cut_points = range(0, len(data), max(1, len(data) // 12))
        got = {}
        for cut in cut_points:
            trunc = tmp_path / f"cut{cut}.json"
            trunc.write_bytes(data[:cut])
            got[cut] = report_keys(analyze_trace_with_stats(str(trunc))[0])
        monkeypatch.setattr(KernelContext, "candidate_pairs", all_pairs)
        for cut in cut_points:
            a, _ = analyze_trace_with_stats(str(tmp_path / f"cut{cut}.json"))
            assert report_keys(a) == got[cut], f"cut={cut}"

    def test_supervised_partial_parity(self, trace_path, monkeypatch):
        b, sb = analyze_trace_with_stats(trace_path)
        monkeypatch.setattr(KernelContext, "check_pairs", loop_check_pairs)
        a, sa = analyze_trace_with_stats(trace_path)
        assert report_keys(a) == report_keys(b)
        assert sa["coverage"]["complete"] and sb["coverage"]["complete"]


class TestShuffleStability:
    def test_check_pairs_is_order_independent(self, trace_path):
        """The batched kernel's output must not depend on the order pairs
        arrive in."""
        from repro.core.trace import load_trace

        graph, _view, _supp = load_trace(trace_path)
        segs = [s for s in graph.segments if s.has_accesses]
        ctx = KernelContext(graph, segs)
        ii, jj = ctx.candidate_pairs()
        ctx.prepare_hb()
        base, base_ordered = ctx.check_pairs(ii, jj)
        base_key = sorted(zip(*(col.tolist() for col in base)))
        assert base_key
        rng = random.Random(7)
        perm = list(range(ii.shape[0]))
        for _ in range(4):
            rng.shuffle(perm)
            got, got_ordered = ctx.check_pairs(ii[perm], jj[perm])
            assert sorted(zip(*(col.tolist() for col in got))) == base_key
            assert got_ordered == base_ordered
