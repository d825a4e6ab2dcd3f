"""Schedules pinned across versions of the scheduler.

Each constant is (sha256 of the ``pick_observer`` tape, ``switches``, the
final ``cost.vtime_ops``) of one Taskgrind run, recorded before the
scheduler moved from master-relayed to direct token handoff.  A change to
the scheduler's protocol must leave every one of them byte-identical:
``_pick``, its state and its rng draw order are the whole schedule.
"""

import hashlib

import pytest

from repro.bench.programs import BenchProgram
from repro.bench.runner import run_benchmark
from repro.workloads.lulesh import LuleshConfig, run_lulesh
from repro.workloads.synthetic import omp_fib

FIB12 = {
    (1, 1): ("2c708dc4573eb88ddc2ea90a13080ec1a86e5c7136f45f291bdf654fc44d3ecf",
             177, 924140.0),
    (1, 7): ("2c708dc4573eb88ddc2ea90a13080ec1a86e5c7136f45f291bdf654fc44d3ecf",
             177, 924140.0),
    (1, 123): ("2c708dc4573eb88ddc2ea90a13080ec1a86e5c7136f45f291bdf654fc44d3ecf",
               177, 924140.0),
    (2, 1): ("6d45f445560367ca2fc9f6c7bf00a41b0fdd522e022b1a941865baa6817aef2c",
             360, 1213870.0),
    (2, 7): ("2a787de1642f66e843baa8c26fd6e4e979a868198b865dc5f95e0454822c16a7",
             358, 1213870.0),
    (2, 123): ("67c43968a522cee4a8fc39b8bc071d66f028499b710b046dff8c5562c0e02257",
               359, 1213870.0),
    (4, 1): ("4740e1155497041c89f6b21e3295474550eeb0db0174c765188d9d12d0910b8c",
             367, 1220760.0),
    (4, 7): ("36e67a48e3f4ce888e49e2482178874cdeda0e5ab9dfd2d599b9612c6b599478",
             369, 1221010.0),
    (4, 123): ("f9adb41946e44fc9c1a7c762f2881cc13d1324e44d2db9a22f694bb27bb7a695",
               370, 1220760.0),
}

#: racy LULESH -s 8 -tel 4 -tnl 4 -i 2, seed 0
LULESH = {
    1: ("a610a02f8a66c5f809bad0c6a55cfcd18cff326ed52a898baf7bd9aac187b4c2",
        57, 85964270.0),
    4: ("6f1bbf8362f4a6276894b3897487c66b2c741311287654259738bf8dcdcc1783",
        68, 42697270.0),
}


def _program(name, entry):
    return BenchProgram(name=name, racy=False, entry=entry, description=name,
                        source_file=name + ".c", features=frozenset({"task"}))


def _fingerprint(program, nthreads, seed):
    tape = []
    box = {}

    def hook(machine, tool):
        machine.scheduler.pick_observer = tape.append
        box["machine"] = machine

    run_benchmark(program, "taskgrind", nthreads=nthreads, seed=seed,
                  on_machine=hook)
    machine = box["machine"]
    digest = hashlib.sha256(",".join(map(str, tape)).encode()).hexdigest()
    return digest, machine.scheduler.switches, machine.cost.vtime_ops


@pytest.mark.parametrize("nthreads,seed", sorted(FIB12))
def test_fib12_schedule_matches_pinned(nthreads, seed):
    fib = _program("fib", lambda env: omp_fib(env, 12))
    assert _fingerprint(fib, nthreads, seed) == FIB12[nthreads, seed]


@pytest.mark.parametrize("nthreads", sorted(LULESH))
def test_racy_lulesh_schedule_matches_pinned(nthreads):
    cfg = LuleshConfig(s=8, tel=4, tnl=4, iterations=2, racy=True)
    lulesh = _program("lulesh", lambda env: run_lulesh(env, cfg))
    assert _fingerprint(lulesh, nthreads, 0) == LULESH[nthreads]
