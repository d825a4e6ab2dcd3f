"""``python -m repro serve`` — boot the ingestion server.

Binds the asyncio server and runs until interrupted (SIGTERM drains):

    python -m repro serve --port 8787 --shards 4

The serve contract is checked by the tests and by the rounds of
``python -m repro.bench.serve`` (load, ``--faults``, ``--kill-chaos``,
``--overload``), not by this command.
"""

from __future__ import annotations

import argparse
import asyncio
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
    ap.add_argument("--deadline-s", type=float, default=None,
                    help="per-chunk supervised deadline (default: none)")
    ap.add_argument("--max-retries", type=int, default=2)
    ap.add_argument("--state-dir", default=None,
                    help="durable state directory (WAL + chunk store); "
                         "restarts recover uploads and jobs from it "
                         "(default: in-memory, nothing survives)")
    ap.add_argument("--fsync", default="always", choices=FSYNC_POLICIES,
                    help="WAL fsync policy (default: always)")
    args = ap.parse_args(argv)
    try:
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
              f"{server.port} ({config.shards} analysis threads"
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


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
