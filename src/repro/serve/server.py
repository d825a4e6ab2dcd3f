"""Server plumbing: asyncio lifecycle + an in-process thread harness.

:class:`TraceServer` owns the listening socket, on whatever event loop
calls it, and starts and stops the job pool's executor with it.
:class:`ServerThread` wraps that in a daemon thread with its own loop —
the shape the tests and the load bench use to talk real HTTP to an
in-process server with zero setup.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.serve.app import ServeConfig, TraceService
from repro.serve.http import serve_connection


class TraceServer:
    """One listening endpoint bound to one :class:`TraceService`."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.service = TraceService(self.config)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self.service.pool.start()
        # jobs recovered as queued/running re-enter the queue now that
        # the executor exists — exactly once, no re-journaling
        self.service.resume_recovered()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.service.pool.stop()
        # journals the clean-shutdown marker — unless the log was frozen
        # by a kill, in which case this is a no-op and recovery correctly
        # classifies the restart as a crash
        self.service.close()

    async def drain(self) -> None:
        """Graceful SIGTERM path: stop accepting, finish queued jobs.

        New work-accepting requests get a typed 503 (``draining``) while
        already-queued jobs run to completion and journal their terminal
        records; only then does the server stop and write the
        clean-shutdown marker.
        """
        self.service.draining = True
        await self.service.pool.drain()
        await self.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await serve_connection(reader, writer, self.service.handle)
        finally:
            if task is not None:
                self._connections.discard(task)


class ServerThread:
    """An in-process server on a daemon-thread event loop.

    ``with ServerThread() as srv: client = ServeClient(srv.base_url)`` —
    used by the unit tests, the serve-smoke CLI and the load generator.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.server = TraceServer(config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def service(self) -> "TraceService":
        return self.server.service

    @property
    def base_url(self) -> str:
        host = self.server.config.host
        return f"http://{host}:{self.server.port}"

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.run_until_complete(self.server.start())
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="serve-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("server thread failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop = None
            self._thread = None

    def kill(self) -> None:
        """SIGKILL simulation: freeze the journal *first*, then stop.

        Freezing makes every subsequent append — including the clean-
        shutdown marker and any in-flight job's terminal record — a
        silent no-op, exactly what a killed process would have written.
        A restart against the same state dir then exercises real crash
        recovery.
        """
        durable = self.server.service.durable
        if durable is not None:
            durable.freeze()
        self.stop()

    def drain(self) -> None:
        """Run the graceful SIGTERM drain on the server's loop, then stop."""
        if self._loop is None or self._thread is None:
            return
        import asyncio as _asyncio
        fut = _asyncio.run_coroutine_threadsafe(self.server.drain(),
                                                self._loop)
        fut.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
