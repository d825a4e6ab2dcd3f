"""Perf-path smoke: the fast paths must not change any analysis result.

Assert-only (no wall-clock gates — the perf gate, ``python -m
repro.bench.perf``, holds real-run layer times to ``BENCH_perf.json``):
for every DRB and TMB program, checked against the test oracles in
``tests/core/analysis_oracle.py``,

* the write-combining recorder leaves the same access sets as per-access
  interval-tree inserts (``TreeSegment``) of the run's access log, and
  every happens-before answer agrees with a breadth-first search on every
  segment pair of the recorded graph;
* on the recorded graph, ``find_races`` produces the all-pairs pass's
  candidates pair-for-pair, byte-for-byte.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.bench import drb, tmb
from repro.bench.runner import run_benchmark
from repro.core.analysis import find_races
from tests.core.analysis_oracle import (assert_hb_matches_dp,
                                        assert_sets_match_log,
                                        find_races_naive)

SEED = 2                      # the Table I harness seed

ALL_PROGRAMS = [(p, 4) for p in drb.all_programs()] \
    + [(p, 1) for p in tmb.all_programs()]


def _canon(cands) -> List[Tuple]:
    return sorted((c.key(), tuple(c.ranges.pairs())) for c in cands)


def _log_accesses(machine, tool) -> None:
    tool.builder.access_log = []


def _run(program, nthreads):
    return run_benchmark(program, "taskgrind", nthreads=nthreads,
                         seed=SEED, on_machine=_log_accesses)


@pytest.mark.parametrize(
    "program,nthreads", ALL_PROGRAMS,
    ids=[f"{p.name}-{n}t" for p, n in ALL_PROGRAMS])
def test_fastpath_parity(program, nthreads):
    res = _run(program, nthreads)
    if res.tool_obj is None or res.tool_obj.builder is None:
        return                      # ncs/segv before the tool ran
    builder = res.tool_obj.builder
    assert_sets_match_log(builder.graph, builder.access_log)
    assert_hb_matches_dp(builder.graph)


@pytest.mark.parametrize(
    "program,nthreads", ALL_PROGRAMS,
    ids=[f"{p.name}-{n}t" for p, n in ALL_PROGRAMS])
def test_analysis_pass_parity(program, nthreads):
    res = _run(program, nthreads)
    if res.tool_obj is None or res.tool_obj.builder is None:
        return
    graph = res.tool_obj.builder.graph
    naive = _canon(find_races_naive(graph))
    assert _canon(find_races(graph).candidates) == naive

