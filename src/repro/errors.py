"""Exception hierarchy for the Taskgrind reproduction.

Every failure mode the simulation can hit — guest program faults, simulated
deadlocks, tool crashes that the paper reports (ROMP ``segv``), unsupported
constructs ("ncs" rows of Table I) — is a distinct exception type so the
benchmark runner can classify outcomes exactly the way the paper's tables do.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class MachineError(ReproError):
    """Faults raised by the simulated process substrate."""


class SegmentationFault(MachineError):
    """Guest access to an unmapped or protected address."""

    def __init__(self, addr: int, size: int = 1, kind: str = "access") -> None:
        super().__init__(f"segmentation fault: {kind} of {size} byte(s) at {addr:#x}")
        self.addr = addr
        self.size = size
        self.kind = kind


class DoubleFree(MachineError):
    """``free`` of an address that is not a live allocation."""


class OutOfMemory(MachineError):
    """Heap arena exhausted (used to model ROMP blowing up on LULESH)."""


class SimDeadlock(MachineError):
    """No simulated thread is runnable and at least one is blocked.

    Carries a human-readable dump of the blocked threads' wait reasons so the
    Table II harness can report ``deadlock`` cells faithfully.
    """

    def __init__(self, states: dict) -> None:
        lines = ", ".join(f"thread {t}: {why}" for t, why in sorted(states.items()))
        super().__init__(f"simulated deadlock ({lines})")
        self.states = dict(states)


class GuestCrash(ReproError):
    """The *instrumented* execution aborted (models ROMP's ``segv``)."""

    def __init__(self, tool: str, reason: str) -> None:
        super().__init__(f"{tool}: instrumented execution crashed: {reason}")
        self.tool = tool
        self.reason = reason


class NoCompilerSupport(ReproError):
    """The modeled compiler front-end rejects a construct.

    Reproduces the ``ncs`` cells of Table I: TaskSanitizer requires Clang 8.x,
    which lacks several OpenMP 4.5/5.0 tasking features.
    """

    def __init__(self, tool: str, construct: str) -> None:
        super().__init__(f"{tool}: no compiler support for '{construct}'")
        self.tool = tool
        self.construct = construct


class RuntimeModelError(ReproError):
    """Misuse of the simulated parallel runtime (bug in a guest program)."""


class ToolError(ReproError):
    """Internal error of an analysis tool (distinct from guest faults)."""


# ---------------------------------------------------------------------------
# trace-loading taxonomy (strict mode of repro.core.trace)
# ---------------------------------------------------------------------------

class TraceError(ReproError):
    """Base class for trace save/load failures.

    The salvage reader (:func:`repro.core.trace.load_trace_salvaged`)
    raises these only for a file it cannot read or of another format —
    damage inside the stream degrades to the longest valid prefix
    instead.  The strict loaders (``load_trace`` / ``--strict-trace``)
    escalate any damage.
    """


class TraceFormatError(TraceError, ValueError):
    """The file is not a Taskgrind trace at all (or is structurally broken).

    Subclasses :class:`ValueError` so pre-taxonomy callers that caught
    ``ValueError`` keep working.
    """

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: not a readable taskgrind trace: {reason}")
        self.path = path
        self.reason = reason


class TraceVersionError(TraceFormatError):
    """The trace declares a version this reader does not speak."""

    def __init__(self, path: str, found, expected) -> None:
        ValueError.__init__(
            self,
            f"{path}: unsupported trace version {found!r} "
            f"(this reader speaks {expected}); re-record the trace or "
            "analyze it with a matching repro checkout")
        self.path = path
        self.found = found
        self.expected = expected


class TraceCorruptionError(TraceError):
    """A chunk failed its checksum or the file is truncated mid-chunk.

    Carries the byte offset and chunk sequence number of the first bad
    chunk so operators can tell torn writes from bit rot.  Salvage mode
    (`load_trace_salvaged`, the default offline path) recovers the valid
    prefix instead of raising this.
    """

    def __init__(self, path: str, *, byte_offset: int,
                 chunk_seq: Optional[int], reason: str) -> None:
        where = f"chunk {chunk_seq} " if chunk_seq is not None else ""
        super().__init__(
            f"{path}: corrupt trace: {where}at byte offset {byte_offset}: "
            f"{reason} (rerun without --strict-trace to salvage the valid "
            "prefix)")
        self.path = path
        self.byte_offset = byte_offset
        self.chunk_seq = chunk_seq
        self.reason = reason


# ---------------------------------------------------------------------------
# schedule-document + replay taxonomy (repro.replay, two-phase detection)
# ---------------------------------------------------------------------------

class ScheduleError(ReproError):
    """Base class for ``taskgrind-schedule/1`` save/load/replay failures.

    Unlike traces, schedule documents have **no salvage mode**: replaying a
    guessed prefix of a schedule would silently pin the wrong interleaving
    and every downstream verdict would be about a different execution.  All
    loaders are strict and fail fast.
    """


class ScheduleFormatError(ScheduleError, ValueError):
    """The file is not a Taskgrind schedule document at all."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(
            f"{path}: not a readable taskgrind schedule: {reason}")
        self.path = path
        self.reason = reason


class ScheduleVersionError(ScheduleFormatError):
    """The schedule declares a version this replayer does not speak."""

    def __init__(self, path: str, found, expected) -> None:
        ValueError.__init__(
            self,
            f"{path}: unsupported schedule version {found!r} "
            f"(this replayer speaks {expected}); re-record with a matching "
            "repro checkout")
        self.path = path
        self.found = found
        self.expected = expected


class ScheduleCorruptionError(ScheduleError):
    """A schedule chunk failed its checksum or the stream is truncated.

    There is deliberately no salvage counterpart: a schedule is only usable
    whole, so corruption always refuses to replay.
    """

    def __init__(self, path: str, *, byte_offset: int,
                 chunk_seq: Optional[int], reason: str) -> None:
        where = f"chunk {chunk_seq} " if chunk_seq is not None else ""
        super().__init__(
            f"{path}: corrupt schedule: {where}at byte offset "
            f"{byte_offset}: {reason} (re-record the schedule; partial "
            "replay of a damaged schedule is never attempted)")
        self.path = path
        self.byte_offset = byte_offset
        self.chunk_seq = chunk_seq
        self.reason = reason


class ReplayDivergenceError(ScheduleError):
    """The replayed execution departed from the recorded schedule.

    Carries the first point of disagreement in structured form so a CI log
    (or the fuzz oracle) can print exactly where determinism broke:

    * ``what`` — ``"pick"`` / ``"segment"`` / ``"edge"`` / ``"alloc"`` /
      ``"vclock"`` / ``"count"`` / ``"rng"``;
    * ``index`` — position in the recorded event stream of that kind;
    * ``expected`` / ``actual`` — recorded vs replayed value (for ``edge``
      this is the first mismatched ``[src, dst]`` pair).
    """

    def __init__(self, what: str, index: int, expected, actual,
                 detail: str = "") -> None:
        msg = (f"replay diverged at {what}[{index}]: "
               f"expected {expected!r}, got {actual!r}")
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.what = what
        self.index = index
        self.expected = expected
        self.actual = actual
        self.detail = detail

    def to_dict(self) -> dict:
        return {"what": self.what, "index": self.index,
                "expected": self.expected, "actual": self.actual,
                "detail": self.detail}


class ProfileError(ReproError):
    """Base class for ``taskgrind-profile/1`` save/load failures.

    Profiles follow the schedule documents' strictness, not the traces':
    a profile with a corrupt bucket chunk would silently misattribute ops,
    so loaders fail fast — there is no salvage mode.
    """


class ProfileFormatError(ProfileError, ValueError):
    """The file is not a Taskgrind profile document at all."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(
            f"{path}: not a readable taskgrind profile: {reason}")
        self.path = path
        self.reason = reason


class ProfileCorruptionError(ProfileError):
    """A profile chunk failed its checksum or the stream is truncated."""

    def __init__(self, path: str, *, chunk_seq: Optional[int],
                 reason: str) -> None:
        where = f"chunk {chunk_seq}: " if chunk_seq is not None else ""
        super().__init__(
            f"{path}: corrupt profile: {where}{reason} "
            "(re-profile the run; partial profiles are never loaded)")
        self.path = path
        self.chunk_seq = chunk_seq
        self.reason = reason


class OutputError(ReproError):
    """A path a command writes its output to cannot be written."""

    def __init__(self, what: str, path: str, reason: str) -> None:
        super().__init__(f"cannot write the {what} to {path}: {reason}")


# ---------------------------------------------------------------------------
# ingestion-service taxonomy (repro.serve)
# ---------------------------------------------------------------------------

class ServeError(ReproError):
    """Base class for trace-ingestion-service request failures.

    Each subclass carries the structured fields the HTTP layer serializes
    into the error body (``{"error": {"type": ..., "message": ..., ...}}``)
    so clients can branch on machine-readable state instead of parsing
    messages.  Trace-content failures deliberately reuse the existing
    :class:`TraceError` taxonomy — a CRC mismatch at the upload edge is the
    same defect as one found by the offline reader.
    """

    def fields(self) -> dict:
        """Structured extras merged into the HTTP error body."""
        return {}


class ResourceNotFound(ServeError):
    """A trace or job id that the service has never issued."""

    def __init__(self, kind: str, resource_id: str) -> None:
        super().__init__(f"no such {kind}: {resource_id!r}")
        self.kind = kind
        self.resource_id = resource_id

    def fields(self) -> dict:
        return {"resource": self.kind, "id": self.resource_id}


class UploadSequenceError(ServeError):
    """A chunk upload that breaks the dense-prefix contract.

    ``taskgrind-trace/3`` salvage semantics only guarantee loss-not-
    invention for a *dense* chunk prefix, so the server refuses gaps,
    duplicates and post-``end`` uploads outright instead of accepting an
    order it would later have to second-guess.
    """

    def __init__(self, trace_id: str, *, expected_seq: Optional[int],
                 got_seq: int, reason: str) -> None:
        super().__init__(
            f"trace {trace_id}: chunk seq {got_seq} rejected: {reason}"
            + (f" (expected seq {expected_seq})"
               if expected_seq is not None else ""))
        self.trace_id = trace_id
        self.expected_seq = expected_seq
        self.got_seq = got_seq
        self.reason = reason

    def fields(self) -> dict:
        return {"trace_id": self.trace_id, "expected_seq": self.expected_seq,
                "got_seq": self.got_seq, "reason": self.reason}


class ServeOverloadError(ServeError):
    """The service shed this request to protect itself (HTTP 429).

    Raised by the admission-control layer (bounded job-queue depth,
    bounded in-flight upload bytes) or a draining server.  Always carries
    ``retry_after_s`` — the server's estimate of when capacity returns —
    which the HTTP layer surfaces as a ``Retry-After`` header so
    well-behaved clients back off instead of hammering an overloaded
    queue.
    """

    def __init__(self, resource: str, *, retry_after_s: float,
                 limit: Optional[int] = None,
                 current: Optional[int] = None,
                 draining: bool = False) -> None:
        detail = f"{resource} at capacity"
        if limit is not None:
            detail += f" ({current}/{limit})"
        if draining:
            detail = f"{resource}: server draining, not accepting work"
        super().__init__(
            f"overloaded: {detail}; retry after {retry_after_s:.3f}s")
        self.resource = resource
        self.retry_after_s = retry_after_s
        self.limit = limit
        self.current = current
        self.draining = draining

    def fields(self) -> dict:
        return {"resource": self.resource,
                "retry_after_s": round(self.retry_after_s, 4),
                "limit": self.limit, "current": self.current,
                "draining": self.draining}


class StateDirError(ServeError):
    """The durable serve layer cannot use its ``--state-dir``.

    Raised when the directory is unwritable, the write-ahead journal
    declares a schema this build does not speak, or recovery replay fails
    structurally.  The CLI turns this into a one-line blame and a non-zero
    exit — a server asked to be durable must never silently fall back to
    in-memory state.
    """

    def __init__(self, state_dir: str, reason: str) -> None:
        super().__init__(f"state dir {state_dir}: {reason}")
        self.state_dir = state_dir
        self.reason = reason

    def fields(self) -> dict:
        return {"state_dir": self.state_dir, "reason": self.reason}


class JobStateError(ServeError):
    """A job-resource request its current lifecycle state cannot serve."""

    def __init__(self, job_id: str, state: str, reason: str) -> None:
        super().__init__(f"job {job_id} ({state}): {reason}")
        self.job_id = job_id
        self.state = state
        self.reason = reason

    def fields(self) -> dict:
        return {"job_id": self.job_id, "state": self.state,
                "reason": self.reason}


class InjectedFault(ReproError):
    """An error raised on purpose by the fault-injection framework.

    Distinct from every organic failure so tests and the differential
    oracle can tell "the fault we planted" from "a real bug the fault
    uncovered".
    """

    def __init__(self, kind: str, detail: str = "") -> None:
        super().__init__(f"injected fault [{kind}]"
                         + (f": {detail}" if detail else ""))
        self.fault_kind = kind
