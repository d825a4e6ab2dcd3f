"""Schedules and recorded evidence pinned across versions of the machine.

Each ``FIB12``/``LULESH`` constant is (sha256 of the ``pick_observer``
tape, ``switches``, the final ``cost.vtime_ops``) of one Taskgrind run,
recorded before the scheduler moved from master-relayed to direct token
handoff.  A change to the scheduler's protocol must leave every one of
them byte-identical: ``_pick``, its state and its rng draw order are the
whole schedule.

The ``*_EVIDENCE`` constants pin what the same runs recorded: the sha256
of the canonical JSON of :func:`~repro.core.trace.dump_graph` (access
sets, location samples, TLS snapshots, stack bounds, ``sp_at_start``,
edges) and of the stats document's ``record`` and ``virtual`` blocks.  A
schedule can stay identical while a cheaper substrate records another
location, snapshot or frame address; these catch that.
"""

import hashlib
import json

import pytest

from repro.bench.programs import BenchProgram
from repro.bench.runner import run_benchmark
from repro.core.trace import dump_graph
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

#: (sha256 of the graph dump, sha256 of the ``record`` + ``virtual``
#: blocks) per FIB12 / LULESH key
FIB12_EVIDENCE = {
    (1, 1): ("7ba87d8537421b567e385595db2bcf3da3cdfd9b48a121090bb02994407f6fa8",
             "bbc99ead6517bced3c3f67a046821ea9b5864d2cbd64b3d099774525ede6e6bd"),
    (1, 7): ("7ba87d8537421b567e385595db2bcf3da3cdfd9b48a121090bb02994407f6fa8",
             "bbc99ead6517bced3c3f67a046821ea9b5864d2cbd64b3d099774525ede6e6bd"),
    (1, 123): ("7ba87d8537421b567e385595db2bcf3da3cdfd9b48a121090bb02994407f6fa8",
               "bbc99ead6517bced3c3f67a046821ea9b5864d2cbd64b3d099774525ede6e6bd"),
    (2, 1): ("d3c8c025bd7c13328bb937b1e7cef97f133a0a3b1770adbeee262f177d1f9223",
             "8b52d9859c4d400e7b24d489acf878ba7a858c1ab1d077630f35fd1301a8fb04"),
    (2, 7): ("8581ade6fb91617612561c39820623de039d6c41118e088e8139ccbc17d45a5a",
             "8b52d9859c4d400e7b24d489acf878ba7a858c1ab1d077630f35fd1301a8fb04"),
    (2, 123): ("b5217ea4d194154c0ef1240b07212cca6a36734dfb606632790b5044ccc91f28",
               "8b52d9859c4d400e7b24d489acf878ba7a858c1ab1d077630f35fd1301a8fb04"),
    (4, 1): ("7a525c548d220cfbc5d937d549c46f2add64515a61ed99069253d2dd4d56ca15",
             "4ab437df29149f4dba058d18829459cc817ee094555c2e5599ecaed57385f409"),
    (4, 7): ("4e8eeb5203407576d3abd6677b4a1acba74ad09ce05343db2edea4a9bcb32656",
             "237e0ad45a4c0409ccc1274cdd8dedf8c3b282b4ddd9807e20a2b85b0ebc6565"),
    (4, 123): ("df80eb4806e038c44ac2e40046cbe5cf7f76fae5f7008929e2f7e5e68cded930",
               "4ab437df29149f4dba058d18829459cc817ee094555c2e5599ecaed57385f409"),
}

LULESH_EVIDENCE = {
    1: ("49154bb529ebbedd5d2bbc000fdc29708af51a6f85f249fa5e96ebf03474569e",
        "1b31384f14baf0e81df42de229ed2b4d9abd6e6ec2b8f349bf86baedcb9e78db"),
    4: ("df729696edc7254192d44b1e012c51a6eb787f7b8824001bf427c986f39223a8",
        "b30cc0a2c7cba22b5742ad0669a61ec2355468a921d7bc65d142ad9bea9d459c"),
}


def _sha(doc):
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


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


def _evidence(program, nthreads, seed):
    box = {}

    def hook(machine, tool):
        box["tool"] = tool

    run_benchmark(program, "taskgrind", nthreads=nthreads, seed=seed,
                  on_machine=hook)
    tool = box["tool"]
    stats = tool.stats()
    return (_sha(dump_graph(tool.builder.graph)),
            _sha({"record": stats["record"], "virtual": stats["virtual"]}))


def _fib12():
    return _program("fib", lambda env: omp_fib(env, 12))


def _lulesh():
    cfg = LuleshConfig(s=8, tel=4, tnl=4, iterations=2, racy=True)
    return _program("lulesh", lambda env: run_lulesh(env, cfg))


@pytest.mark.parametrize("nthreads,seed", sorted(FIB12))
def test_fib12_schedule_matches_pinned(nthreads, seed):
    assert _fingerprint(_fib12(), nthreads, seed) == FIB12[nthreads, seed]


@pytest.mark.parametrize("nthreads", sorted(LULESH))
def test_racy_lulesh_schedule_matches_pinned(nthreads):
    assert _fingerprint(_lulesh(), nthreads, 0) == LULESH[nthreads]


@pytest.mark.parametrize("nthreads,seed", sorted(FIB12_EVIDENCE))
def test_fib12_evidence_matches_pinned(nthreads, seed):
    assert _evidence(_fib12(), nthreads, seed) == \
        FIB12_EVIDENCE[nthreads, seed]


@pytest.mark.parametrize("nthreads", sorted(LULESH_EVIDENCE))
def test_racy_lulesh_evidence_matches_pinned(nthreads):
    """At 4 threads the run ends in the modeled Table II deadlock; the
    graph and blocks recorded up to it are pinned all the same."""
    assert _evidence(_lulesh(), nthreads, 0) == LULESH_EVIDENCE[nthreads]
