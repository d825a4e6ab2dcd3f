"""Shared fixtures for the ingestion-server tests: one recorded racy
trace (session-scoped — the runs are deterministic) plus an in-process
server/client pair per test."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.core.trace import TRACE_SCHEMA, TRACE_VERSION, save_trace
from repro.machine.machine import Machine
from repro.openmp.api import make_env
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.client import read_trace_lines


def _racy_listing(env):
    ctx = env.ctx
    x = ctx.malloc(8, line=3, name="x")

    def single_body():
        ctx.line(8)
        env.task(lambda tv: x.write(0, line=9), name="t8")
        ctx.line(11)
        env.task(lambda tv: x.write(0, line=12), name="t11")

    env.parallel_single(single_body)


@pytest.fixture(scope="session")
def trace_file(tmp_path_factory):
    machine = Machine(seed=0)
    tool = TaskgrindTool(TaskgrindOptions())
    machine.add_tool(tool)
    env = make_env(machine, nthreads=4)
    env.rt.ompt.register(tool.make_ompt_shim())

    def main():
        with env.ctx.function("main", line=1):
            _racy_listing(env)

    machine.run(main)
    tool.finalize()
    path = tmp_path_factory.mktemp("serve") / "racy.trace.json"
    save_trace(tool, machine, str(path))
    return str(path)


@pytest.fixture(scope="session")
def trace_lines(trace_file):
    return read_trace_lines(trace_file)


@pytest.fixture
def server():
    with ServerThread(ServeConfig()) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServeClient(server.base_url) as c:
        yield c


def chunk_line(seq: int, kind: str, payload, **extras) -> bytes:
    """A valid ``taskgrind-trace/3`` chunk line (correct CRC) for unit
    tests that drive the upload state machine with synthetic chunks."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = {"seq": seq, "kind": kind, "vtime": 0.0,
           "crc": zlib.crc32(canon.encode()) & 0xFFFFFFFF,
           "payload": payload}
    doc.update(extras)
    return json.dumps(doc).encode()


def header_line(**extras) -> bytes:
    extras.setdefault("version", TRACE_VERSION)
    extras.setdefault("schema", TRACE_SCHEMA)
    return chunk_line(0, "header", {"segments": 0}, **extras)
