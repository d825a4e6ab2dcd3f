"""The fuzz program spec: a runtime-neutral task-program AST.

A :class:`FuzzProgram` is a small, fully declarative parallel program that
the executors (:mod:`repro.fuzz.executors`) can *render* onto any of the
simulated runtimes and the oracles (:mod:`repro.fuzz.truth`,
:mod:`repro.fuzz.oracles`) can *interpret* symbolically.  Everything is
plain JSON-able data so programs round-trip byte-identically — the property
the seed-replay tests and the corpus regression runner depend on.

Five program families, one per synchronisation idiom:

``sp``
    Series-parallel nested tasks (spawn + taskwait only).  Every body that
    creates tasks ends with a ``wait``, so the OpenMP rendering (taskwait)
    and the Cilk rendering (implicit sync at frame end) describe the same
    happens-before relation — the precondition for the SP-bags oracle.
``tasks``
    Unrestricted nested tasks: taskwaits anywhere, taskgroups, children
    that outlive their parent.  OpenMP-only.
``deps``
    A flat sibling task set with ``in``/``out`` dependence tokens (the
    OpenMP sibling-scoped dependence rule).
``feb``
    Qthreads: forked qtasks synchronised by single-producer/single-consumer
    full/empty-bit transfers.
``barrier``
    An OpenMP parallel region: per-thread access rounds separated by team
    barriers.

Ops are plain lists (JSON arrays).  The shared race surface is a heap arena
of 8-byte slots; ``tls``/``stack``/``scratch`` ops are *noise* that every
detector must stay silent about (they exercise the Section IV suppression
classes):

====================  =====================================================
op                    meaning
====================  =====================================================
``["r", i]``          read shared arena slot ``i``
``["w", i]``          write shared arena slot ``i``
``["tls", k]``        write thread-local variable ``k`` (IV-C surface)
``["stack"]``         write+read a stack local of this frame (IV-D surface)
``["scratch"]``       malloc 16 B, write, free (IV-B recycling surface)
``["task", [...]]``   spawn a child task with the given body (sp/tasks)
``["wait"]``          taskwait — join direct children created so far
``["group", [...]]``  taskgroup around the body ops (tasks family only)
``["writeEF", w]``    FEB fill of word ``w`` (feb family only)
``["readFE", w]``     FEB consume of word ``w`` (feb family only)
====================  =====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

SCHEMA = "taskgrind-fuzz-program/1"

FAMILIES = ("sp", "tasks", "deps", "feb", "barrier")

#: ops legal inside a task body, per family
ACCESS_OPS = ("r", "w")
NOISE_OPS = ("tls", "stack", "scratch")
STRUCT_OPS = ("task", "wait", "group")
FEB_OPS = ("writeEF", "readFE")


@dataclass
class FuzzProgram:
    """One generated (or minimized) fuzz program."""

    family: str
    seed: int                 # generator seed; -1 for hand-built programs
    nthreads: int
    slots: int                # shared arena slots (the race surface)
    #: family-specific payload (see module docstring)
    body: list = field(default_factory=list)

    # -- serialization (byte-stable: the determinism contract) ---------------

    def to_json(self) -> str:
        doc = {"schema": SCHEMA, "family": self.family, "seed": self.seed,
               "nthreads": self.nthreads, "slots": self.slots,
               "body": self.body}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FuzzProgram":
        """Parse :meth:`to_json`'s document; one of another shape is a
        ``ValueError`` naming what is wrong."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a fuzz program is a JSON object, "
                             f"not {type(doc).__name__}")
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"not a {SCHEMA} document")
        if not isinstance(doc.get("body"), list):
            raise ValueError("a fuzz program's 'body' is a list, "
                             f"not {type(doc.get('body')).__name__}")
        return cls(family=doc["family"], seed=doc["seed"],
                   nthreads=doc["nthreads"], slots=doc["slots"],
                   body=doc["body"])

    def clone(self) -> "FuzzProgram":
        return FuzzProgram.from_json(self.to_json())

    def digest(self) -> str:
        import hashlib
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    # -- structure helpers ----------------------------------------------------

    def op_count(self) -> int:
        if self.family == "barrier":
            return sum(len(r) for rounds in self.body for r in rounds)
        if self.family in ("deps", "feb"):
            return sum(len(t["ops"]) for t in self.body)
        return sum(len(b) for b in iter_bodies(self.body))


def iter_bodies(root_body: list) -> Iterator[list]:
    """Yield the root body and every nested task/group body (pre-order)."""
    stack = [root_body]
    while stack:
        body = stack.pop()
        yield body
        for op in reversed(body):
            if op and op[0] in ("task", "group"):
                stack.append(op[1])


def dep_predecessors(tasks: Sequence[dict]) -> List[List[int]]:
    """OpenMP sibling dependence rule: predecessors per task index.

    ``out`` depends on the previous writer *and* the readers since it;
    ``in`` depends on the previous writers.  (Both oracles and ground truth
    share this rule — it is the spec's semantics, not an implementation.)
    """
    preds: List[List[int]] = [[] for _ in tasks]
    last_writers: dict = {}
    readers_since: dict = {}
    for i, task in enumerate(tasks):
        mine: List[int] = []
        for tok in task.get("in", ()):  # reads wait for the last writers
            mine.extend(w for w in last_writers.get(tok, ()))
            readers_since.setdefault(tok, []).append(i)
        for tok in task.get("out", ()):
            mine.extend(w for w in last_writers.get(tok, ()))
            mine.extend(r for r in readers_since.get(tok, ()))
            last_writers[tok] = [i]
            readers_since[tok] = []
        preds[i] = sorted(set(p for p in mine if p != i))
    return preds


def feb_word_sites(tasks: Sequence[dict]
                   ) -> Tuple[dict, dict]:
    """Map each FEB word to its (task, op) fill and consume positions."""
    fills: dict = {}
    consumes: dict = {}
    for ti, task in enumerate(tasks):
        for oi, op in enumerate(task["ops"]):
            if op[0] == "writeEF":
                fills.setdefault(op[1], []).append((ti, oi))
            elif op[0] == "readFE":
                consumes.setdefault(op[1], []).append((ti, oi))
    return fills, consumes


def validate(program: FuzzProgram) -> Optional[str]:
    """Structural validity; returns a reason string when invalid.

    The shrinker uses this to discard candidate reductions that would not
    even execute (e.g. a FEB consume whose producer was deleted — a
    guaranteed simulated deadlock, not a divergence).
    """
    p = program
    if p.family not in FAMILIES:
        return f"unknown family {p.family!r}"
    if p.nthreads < 1 or p.slots < 1:
        return "nthreads and slots must be >= 1"

    def check_ops(ops: list, allowed: tuple) -> Optional[str]:
        for op in ops:
            if not op or op[0] not in allowed:
                return f"op {op!r} not allowed here"
            if op[0] in ("r", "w") and not (0 <= op[1] < p.slots):
                return f"slot {op[1]} out of range"
        return None

    if p.family in ("sp", "tasks"):
        allowed = ACCESS_OPS + NOISE_OPS + STRUCT_OPS
        for body in iter_bodies(p.body):
            err = check_ops(body, allowed)
            if err:
                return err
            if p.family == "sp":
                if any(op[0] == "group" for op in body):
                    return "sp family forbids taskgroup"
                # strictness: a body that spawns must end with a wait, so
                # the Cilk rendering (implicit sync) is HB-equivalent
                if any(op[0] == "task" for op in body) and \
                        (not body or body[-1][0] != "wait"):
                    return "sp body with tasks must end with wait"
    elif p.family == "deps":
        for task in p.body:
            err = check_ops(task.get("ops", []), ACCESS_OPS + NOISE_OPS)
            if err:
                return err
            if set(task.get("in", ())) & set(task.get("out", ())):
                return "token both in and out of one task"
    elif p.family == "feb":
        for task in p.body:
            err = check_ops(task["ops"], ACCESS_OPS + NOISE_OPS + FEB_OPS)
            if err:
                return err
        fills, consumes = feb_word_sites(p.body)
        for w, sites in consumes.items():
            if len(sites) > 1:
                return f"word {w} consumed more than once"
            if w not in fills:
                return f"word {w} consumed but never filled"
            (fti, foi), (cti, coi) = fills[w][0], sites[0]
            # deadlock-freedom: fill strictly before consume in fork order
            # (or earlier op of the same qtask)
            if (fti, foi) >= (cti, coi):
                return f"word {w} filled after its consume"
        for w, sites in fills.items():
            if len(sites) > 1:
                return f"word {w} filled more than once"
    elif p.family == "barrier":
        if len(p.body) != p.nthreads:
            return "barrier body must have one round-list per thread"
        rounds = {len(thread) for thread in p.body}
        if len(rounds) > 1:
            return "all threads must have the same number of rounds"
        for thread in p.body:
            for r in thread:
                err = check_ops(r, ACCESS_OPS + NOISE_OPS)
                if err:
                    return err
    return None
