"""Overload protection: admission control and client backoff.

A heavyweight-analysis service fails differently from a stateless API:
jobs hold gigabyte graphs for minutes, so an unbounded queue does not
*delay* overload, it *converts* it into an OOM kill that loses every
queued job at once.  The serve layer therefore sheds load at the edge:
bounded job-queue depth and bounded in-flight upload bytes.  A request
past either limit gets a typed :class:`~repro.errors.ServeOverloadError`
→ HTTP 429 with a ``Retry-After`` header, never a silent drop or an
unbounded enqueue, and :func:`backoff_delays` is how the client rides
it out.

Every shed is booked under ``serve.shed.*`` so the load bench can prove
overload turned into orderly 429s rather than timeouts.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ServeOverloadError
from repro.obs.metrics import get_registry


class AdmissionControl:
    """Edge limits; raises :class:`ServeOverloadError` past capacity."""

    def __init__(self, *, max_queue_depth: int = 256,
                 max_upload_bytes: int = 256 * 1024 * 1024,
                 retry_after_s: float = 0.25) -> None:
        self.max_queue_depth = max_queue_depth
        self.max_upload_bytes = max_upload_bytes
        self.retry_after_s = retry_after_s

    def admit_job(self, active_jobs: int) -> None:
        if active_jobs >= self.max_queue_depth:
            get_registry().counter("serve.shed.jobs").inc()
            raise ServeOverloadError(
                "job-queue", retry_after_s=self.retry_after_s,
                limit=self.max_queue_depth, current=active_jobs)

    def admit_upload(self, open_bytes: int, body_len: int) -> None:
        if open_bytes + body_len > self.max_upload_bytes:
            get_registry().counter("serve.shed.uploads").inc()
            raise ServeOverloadError(
                "upload-bytes", retry_after_s=self.retry_after_s,
                limit=self.max_upload_bytes,
                current=open_bytes + body_len)


def backoff_delays(*, base_s: float = 0.05, cap_s: float = 2.0,
                   attempts: int = 6,
                   rand: Optional[Callable[[float, float], float]] = None):
    """Decorrelated-jitter delays (AWS architecture-blog recipe).

    Each delay is ``min(cap, uniform(base, prev * 3))`` — the sequence
    grows roughly exponentially but two clients that failed together do
    not retry together, which is the whole point under overload.
    """
    if rand is None:
        import random
        rand = random.uniform
    prev = base_s
    for _ in range(attempts):
        prev = min(cap_s, rand(base_s, prev * 3))
        yield prev
