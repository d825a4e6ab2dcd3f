"""``python -m repro serve`` — boot the ingestion server (or its smoke).

Plain mode binds the asyncio server and runs until interrupted:

    python -m repro serve --port 8787 --shards 4

``--smoke`` is the self-contained check the ``serve-smoke`` CI job runs:
record a racy synthetic trace (plus a fuzz-corpus reproducer when the
corpus is present), upload it chunk-by-chunk over real HTTP to an
in-process server, analyze, and assert the served race report is
**byte-identical** to ``repro.core.offline`` on the same trace file.  It
also proves memo keying (re-uploading the same content and analyzing it
with identical options is a ``cache_hit``) and validates the job timeline
artifact with :mod:`repro.obs.tracecheck`.  Artifacts (trace, both
reports, timeline) land in ``--out`` for CI upload on failure.  Exit 0 on
parity, 1 on any divergence.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import List, Optional

from repro.errors import StateDirError
from repro.serve.app import ServeConfig
from repro.serve.wal import FSYNC_POLICIES

# --stats/--trace-timeline are extracted by the repro launcher before the
# subcommand sees argv, so this parser only owns serve's own knobs.


def _build_config(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(host=args.host, port=args.port, shards=args.shards,
                       analysis_workers=args.workers,
                       deadline_s=args.deadline_s,
                       max_retries=args.max_retries,
                       state_dir=args.state_dir,
                       fsync=args.fsync)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro serve", description=__doc__.splitlines()[0])
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8787,
                    help="listen port; 0 for kernel-assigned (default: 8787)")
    ap.add_argument("--shards", type=int, default=4,
                    help="analysis threads running jobs (default: 4)")
    ap.add_argument("--workers", type=int, default=2,
                    help="supervised analysis workers per job (default: 2)")
    ap.add_argument("--deadline-s", type=float, default=None,
                    help="per-chunk supervised deadline (default: none)")
    ap.add_argument("--max-retries", type=int, default=2)
    ap.add_argument("--state-dir", default=None,
                    help="durable state directory (WAL + chunk store); "
                         "restarts recover uploads and jobs from it "
                         "(default: in-memory, nothing survives)")
    ap.add_argument("--fsync", default="always", choices=FSYNC_POLICIES,
                    help="WAL fsync policy (default: always)")
    ap.add_argument("--smoke", action="store_true",
                    help="run the record→upload→analyze→diff self-test "
                         "instead of serving")
    ap.add_argument("--smoke-recovery", action="store_true",
                    help="run the kill→restart→resume durability self-test "
                         "(requires --state-dir; implies an in-process "
                         "server pair)")
    ap.add_argument("--out", default="serve-smoke",
                    help="smoke artifact directory (default: serve-smoke)")
    args = ap.parse_args(argv)
    try:
        if args.smoke_recovery:
            if args.state_dir is None:
                print("serve: --smoke-recovery requires --state-dir",
                      file=sys.stderr)
                return 2
            return run_recovery_smoke(_build_config(args), args.out)
        if args.smoke:
            return run_smoke(_build_config(args), args.out)
        return _serve_forever(_build_config(args))
    except StateDirError as exc:
        # a durable server must refuse to start, never silently fall back
        # to in-memory state — one-line blame, non-zero exit
        print(f"serve: cannot start durable server: {exc}", file=sys.stderr)
        return 2


def _serve_forever(config: ServeConfig) -> int:
    from repro.serve.server import TraceServer

    async def _run() -> None:
        server = TraceServer(config)
        await server.start()
        print(f"taskgrind-serve listening on http://{config.host}:"
              f"{server.port} ({config.shards} analysis threads, "
              f"workers={config.analysis_workers}"
              + (f", state-dir={config.state_dir}"
                 if config.state_dir else "") + ")", flush=True)
        loop = asyncio.get_event_loop()
        drained = asyncio.Event()

        def _on_sigterm() -> None:
            print("SIGTERM: draining (finishing queued jobs, refusing "
                  "new work)", flush=True)
            drained.set()

        try:
            loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
        except (NotImplementedError, RuntimeError):
            pass                # non-unix event loops: ctrl-C only
        serve_task = asyncio.ensure_future(server.serve_forever())
        drain_task = asyncio.ensure_future(drained.wait())
        try:
            await asyncio.wait({serve_task, drain_task},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            serve_task.cancel()
            if drained.is_set():
                await server.drain()
                print("drain complete; clean shutdown journaled",
                      flush=True)
            else:
                await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0


# ---------------------------------------------------------------------------
# the serve-smoke self-test
# ---------------------------------------------------------------------------

def run_smoke(config: ServeConfig, out_dir: str) -> int:
    from repro.bench.serve import (_repo_root, materialize_traces)
    from repro.core.reports import report_to_dict
    from repro.core.trace import analyze_trace
    from repro.obs.tracecheck import validate_events
    from repro.serve.client import ServeClient, read_trace_lines
    from repro.serve.server import ServerThread

    os.makedirs(out_dir, exist_ok=True)
    corpus = _repo_root() / "tests" / "fuzz" / "corpus"
    traces = materialize_traces(out_dir,
                                corpus_dir=str(corpus)
                                if corpus.is_dir() else None,
                                max_traces=3,
                                programs=("heat-racy",))
    failures: List[str] = []
    config.port = 0          # the smoke must not collide with a live server
    with ServerThread(config) as srv, ServeClient(srv.base_url) as client:
        for name, path in traces:
            offline = [report_to_dict(r) for r in analyze_trace(path)]
            offline_bytes = json.dumps(offline, sort_keys=True, indent=2)
            lines = read_trace_lines(path)
            trace_id, _ack = client.upload_trace(lines)
            job_id = client.analyze(trace_id)
            status = client.wait(job_id, timeout=120.0)
            http_status, report = client.report(job_id)
            slug = name.replace(":", "_").replace("/", "_")
            with open(os.path.join(out_dir, f"{slug}.server.json"),
                      "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
            with open(os.path.join(out_dir, f"{slug}.offline.json"),
                      "w") as fh:
                fh.write(offline_bytes + "\n")
            if http_status != 200 or status["state"] != "done":
                failures.append(f"{name}: job ended {status['state']} "
                                f"(report {http_status})")
                continue
            server_bytes = json.dumps(report["errors"], sort_keys=True,
                                      indent=2)
            if server_bytes != offline_bytes:
                failures.append(f"{name}: server report != offline report "
                                f"(see {out_dir}/{slug}.*.json)")
            else:
                print(f"  {name}: {report['error_count']} report(s), "
                      "byte-identical to repro.core.offline")
            timeline = client.timeline(job_id)
            problems = validate_events(timeline["traceEvents"])
            if problems:
                failures.append(f"{name}: invalid job timeline: "
                                + "; ".join(problems))
            with open(os.path.join(out_dir, f"{slug}.timeline.json"),
                      "w") as fh:
                json.dump(timeline, fh, indent=2)

        # memo keying: a re-upload of the first trace has its content
        # hash, so analyzing it with identical options is a memo hit
        name, path = traces[0]
        trace_id, _ack = client.upload_trace(read_trace_lines(path))
        status = client.wait(client.analyze(trace_id), timeout=120.0)
        if not status["cache_hit"]:
            failures.append(f"memo: re-analysis of re-uploaded {name} with "
                            "identical options was not a cache hit")
        else:
            print(f"  memo: re-analysis of re-uploaded {name} was a "
                  "cache hit")

    if failures:
        for f in failures:
            print(f"SMOKE FAILURE: {f}", file=sys.stderr)
        return 1
    print(f"serve smoke passed ({len(traces)} trace(s); "
          f"artifacts in {out_dir}/)")
    return 0


# ---------------------------------------------------------------------------
# the restart-recovery self-test (CI serve-smoke's durability step)
# ---------------------------------------------------------------------------

def run_recovery_smoke(config: ServeConfig, out_dir: str) -> int:
    """Upload half a trace, kill the server, restart, resume, compare.

    Proves the ``--state-dir`` contract end to end: the restarted server
    reports the exact journaled ``next_seq``, the resumed upload seals
    with the same content hash a one-shot upload produces, and the
    analysis report is byte-identical to ``repro.core.offline``.
    """
    from repro.bench.serve import materialize_traces
    from repro.core.reports import report_to_dict
    from repro.core.trace import analyze_trace
    from repro.serve.client import ServeClient, read_trace_lines
    from repro.serve.server import ServerThread

    os.makedirs(out_dir, exist_ok=True)
    traces = materialize_traces(out_dir, corpus_dir=None, max_traces=1,
                                programs=("heat-racy",))
    name, path = traces[0]
    lines = read_trace_lines(path)
    half = max(1, len(lines) // 2)
    failures: List[str] = []
    config.port = 0

    srv = ServerThread(config).start()
    try:
        with ServeClient(srv.base_url) as client:
            trace_id = client.create_trace()
            for seq in range(half):
                status, ack = client.upload_chunk(trace_id, seq, lines[seq])
                if status != 200:
                    failures.append(f"{name}: chunk {seq} rejected "
                                    f"pre-kill: {status} {ack}")
    finally:
        srv.kill()              # SIGKILL simulation: no clean-shutdown
    if failures:
        for f in failures:
            print(f"RECOVERY SMOKE FAILURE: {f}", file=sys.stderr)
        return 1

    srv = ServerThread(config).start()
    try:
        with ServeClient(srv.base_url) as client:
            recovered = client.trace_status(trace_id)
            if recovered["next_seq"] != half or not recovered["recovered"]:
                failures.append(
                    f"{name}: restart reports next_seq="
                    f"{recovered['next_seq']} recovered="
                    f"{recovered['recovered']}, expected {half}/True")
            print(f"  {name}: recovered at next_seq="
                  f"{recovered['next_seq']} after kill; resuming")
            _tid, ack = client.upload_trace(lines, resume=trace_id)
            if ack.get("state") != "complete":
                failures.append(f"{name}: resumed upload did not seal: "
                                f"{ack}")
            job_id = client.analyze(trace_id)
            client.wait(job_id, timeout=120.0)
            http_status, report = client.report(job_id)
            offline = [report_to_dict(r) for r in analyze_trace(path)]
            offline_bytes = json.dumps(offline, sort_keys=True, indent=2)
            server_bytes = json.dumps(report.get("errors"),
                                      sort_keys=True, indent=2)
            if http_status != 200 or server_bytes != offline_bytes:
                failures.append(
                    f"{name}: post-recovery report diverges from offline "
                    f"(status {http_status})")
            else:
                print(f"  {name}: post-recovery report byte-identical "
                      f"to repro.core.offline "
                      f"({report['error_count']} report(s))")
    finally:
        srv.stop()

    if failures:
        for f in failures:
            print(f"RECOVERY SMOKE FAILURE: {f}", file=sys.stderr)
        return 1
    print(f"serve recovery smoke passed (state dir {config.state_dir})")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
