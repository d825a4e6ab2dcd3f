"""A small blocking client for the ingestion API (stdlib ``http.client``).

One keep-alive connection per client instance — the same socket carries a
whole chunk-streamed upload, which is what the load generator measures.
Every helper returns parsed documents and raises the **same typed
exceptions the server raised**: structured ``{"error": {...}}`` bodies
are mapped back through :func:`error_from_body` onto the
:mod:`repro.errors` taxonomy, so calling code branches on exception
class and machine-readable fields instead of string-matching messages.

Overload behavior: 429/503 responses (and dropped connections) are
retried with **decorrelated-jitter exponential backoff**, honoring the
server's ``Retry-After`` header when present — a fleet of these clients
spreads its retries instead of synchronizing into thundering herds.
Pass ``retries=0`` to observe raw status codes (the backpressure tests
do).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import (InjectedFault, JobStateError, ResourceNotFound,
                          ServeError, ServeOverloadError,
                          TraceCorruptionError, TraceFormatError,
                          TraceVersionError, UploadSequenceError)
from repro.serve.overload import backoff_delays

#: statuses worth retrying: overload sheds and drain refusals
_RETRY_STATUSES = (429, 503)


def error_from_body(status: int, doc: dict) -> Exception:
    """Reconstruct the typed exception a ``{"error": {...}}`` body carries.

    Unknown or unstructured bodies degrade to a plain
    :class:`~repro.errors.ServeError` that still carries the status and
    raw body in its message — the client never hides what the server
    said, it only upgrades it when it can.
    """
    err = doc.get("error") if isinstance(doc, dict) else None
    if not isinstance(err, dict):
        return ServeError(f"HTTP {status}: {doc!r}")
    etype = err.get("type", "")
    message = err.get("message", f"HTTP {status}")
    try:
        if etype == "UploadSequenceError":
            return UploadSequenceError(
                err.get("trace_id", "?"),
                expected_seq=err.get("expected_seq"),
                got_seq=err.get("got_seq", -1),
                reason=err.get("reason", message))
        if etype == "ResourceNotFound":
            return ResourceNotFound(err.get("resource", "resource"),
                                    err.get("id", "?"))
        if etype == "JobStateError":
            return JobStateError(err.get("job_id", "?"),
                                 err.get("state", "?"),
                                 err.get("reason", message))
        if etype == "ServeOverloadError":
            return ServeOverloadError(
                err.get("resource", "service"),
                retry_after_s=float(err.get("retry_after_s", 0.25)),
                limit=err.get("limit"), current=err.get("current"),
                draining=bool(err.get("draining", False)))
        if etype == "TraceCorruptionError":
            return TraceCorruptionError(
                err.get("trace_id", "?"),
                byte_offset=err.get("byte_offset", 0),
                chunk_seq=err.get("chunk_seq"),
                reason=err.get("reason", message))
        if etype == "TraceVersionError":
            return TraceVersionError(err.get("trace_id", "?"),
                                     err.get("got"), message)
        if etype == "TraceFormatError":
            return TraceFormatError(err.get("trace_id", "?"), message)
        if etype == "InjectedFault":
            fault = InjectedFault(err.get("fault_kind", "unknown"), message)
            return fault
    except (TypeError, ValueError):
        pass                    # malformed fields: fall through to generic
    return ServeError(f"HTTP {status} [{etype}]: {message}")


class ServeClient:
    def __init__(self, base_url: str, *, timeout: float = 60.0,
                 retries: int = 5, backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0) -> None:
        split = urlsplit(base_url)
        assert split.scheme == "http", "only http:// endpoints"
        self._conn = http.client.HTTPConnection(split.hostname,
                                                split.port or 80,
                                                timeout=timeout)
        self._retries = retries
        self._backoff_base_s = backoff_base_s
        self._backoff_cap_s = backoff_cap_s
        #: headers of the most recent response (Retry-After inspection)
        self.last_headers: Dict[str, str] = {}
        #: total retry sleeps performed (bench/test introspection)
        self.retry_sleeps = 0

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _once(self, method: str, path: str,
              body: Optional[bytes]) -> Tuple[int, dict]:
        try:
            self._conn.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            resp = self._conn.getresponse()
            payload = resp.read()
        except (http.client.HTTPException, ConnectionError):
            # server dropped the connection (e.g. protocol-level 4xx then
            # close, or an injected stream death): reconnect once
            self._conn.close()
            self._conn.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            resp = self._conn.getresponse()
            payload = resp.read()
        self.last_headers = {k.lower(): v for k, v in resp.getheaders()}
        try:
            doc = json.loads(payload) if payload else {}
        except json.JSONDecodeError:
            doc = {"raw": payload.decode("utf-8", "replace")}
        return resp.status, doc

    def request(self, method: str, path: str,
                body: Optional[bytes] = None, *,
                retry: bool = True) -> Tuple[int, dict]:
        """One request, with overload-aware retries.

        A 429/503 is retried up to the client's budget, sleeping the
        larger of the server's ``Retry-After`` and the next decorrelated-
        jitter delay.  The final attempt's status/doc are returned either
        way — helpers decide whether to raise.
        """
        delays = backoff_delays(base_s=self._backoff_base_s,
                                cap_s=self._backoff_cap_s,
                                attempts=self._retries if retry else 0)
        while True:
            status, doc = self._once(method, path, body)
            if status not in _RETRY_STATUSES:
                return status, doc
            delay = next(delays, None)
            if delay is None:
                return status, doc
            hinted = self.last_headers.get("retry-after")
            if hinted is not None:
                try:
                    delay = max(delay, float(hinted))
                except ValueError:
                    pass
            self.retry_sleeps += 1
            time.sleep(min(delay, self._backoff_cap_s))

    def _expect(self, want_status: int, got: Tuple[int, dict]) -> dict:
        status, doc = got
        if status != want_status:
            raise error_from_body(status, doc)
        return doc

    # -- the API -------------------------------------------------------------

    def create_trace(self) -> str:
        doc = self._expect(201, self.request("POST", "/v1/traces"))
        return doc["trace_id"]

    def trace_status(self, trace_id: str) -> dict:
        """``GET /v1/traces/{id}`` — where resumable uploads learn the
        server's ``next_seq`` after a crash on either side."""
        return self._expect(200,
                            self.request("GET", f"/v1/traces/{trace_id}"))

    def upload_chunk(self, trace_id: str, seq: int, line: bytes,
                     *, retry: bool = True) -> Tuple[int, dict]:
        return self.request("PUT", f"/v1/traces/{trace_id}/chunks/{seq}",
                            body=line, retry=retry)

    def upload_trace(self, lines: List[bytes],
                     resume: Optional[str] = None) -> Tuple[str, dict]:
        """Stream a recorded trace file's lines; returns (id, last ack).

        With ``resume=<trace_id>``, the upload continues an existing
        (possibly crash-recovered) upload: the server's ``next_seq`` is
        fetched and only the missing suffix is sent.  Chunks the server
        already accepted ack as idempotent duplicates, so overshooting by
        one after a lost ack is harmless.  Raises the server's typed
        error on the first genuinely rejected chunk — after a rejection
        every later seq would 409 against the dense-prefix rule.
        """
        if resume is not None:
            trace_id = resume
            start = int(self.trace_status(trace_id)["next_seq"])
        else:
            trace_id = self.create_trace()
            start = 0
        ack: dict = {}
        for seq in range(start, len(lines)):
            status, ack = self.upload_chunk(trace_id, seq, lines[seq])
            if status != 200:
                raise error_from_body(status, ack)
        if not ack:             # everything already accepted pre-resume
            ack = self.trace_status(trace_id)
        return trace_id, ack

    def analyze(self, trace_id: str, **options) -> str:
        body = json.dumps(options).encode() if options else b""
        doc = self._expect(202, self.request(
            "POST", f"/v1/traces/{trace_id}/analyze", body=body))
        return doc["job_id"]

    def job(self, job_id: str) -> dict:
        return self._expect(200, self.request("GET", f"/v1/jobs/{job_id}"))

    def report(self, job_id: str) -> Tuple[int, dict]:
        return self.request("GET", f"/v1/jobs/{job_id}/report")

    def timeline(self, job_id: str) -> dict:
        return self._expect(200, self.request(
            "GET", f"/v1/jobs/{job_id}/timeline"))

    def wait(self, job_id: str, *, timeout: float = 60.0,
             poll_s: float = 0.005) -> dict:
        """Poll until the job is terminal; raises TimeoutError on a hang."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.job(job_id)
            if doc["state"] in ("done", "degraded", "failed"):
                return doc
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']} after {timeout}s")
            time.sleep(poll_s)


def read_trace_lines(path: str) -> List[bytes]:
    """A recorded ``taskgrind-trace/3`` file as upload-ready chunk lines."""
    with open(path, "rb") as fh:
        return [line for line in fh.read().split(b"\n") if line.strip()]
