"""Delta-debugging shrinker: minimize a divergent program.

Classic greedy ddmin specialised to the program families: propose
structure-preserving reductions (delete an op, inline a task's body at its
spawn point, drop a dependence token, remove a FEB transfer pair, drop a
barrier round or a whole thread), keep a candidate iff it still *validates*
and still *diverges with the same kind set*, and iterate to a fixpoint.
Every candidate costs a full differential run, so the search is budgeted by
candidate count, not wall clock.

Minimized reproducers serialize into ``tests/fuzz/corpus/`` as
``taskgrind-fuzz-repro/1`` documents; ``tests/fuzz/test_corpus.py`` replays
them forever after.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterator, List, Optional, Tuple

from repro.fuzz.executors import check_options
from repro.fuzz.spec import FuzzProgram, validate

REPRO_SCHEMA = "taskgrind-fuzz-repro/1"

#: max differential runs one shrink is allowed to spend
DEFAULT_CANDIDATE_BUDGET = 200


def shrink(program: FuzzProgram,
           still_fails: Callable[[FuzzProgram], bool], *,
           budget: int = DEFAULT_CANDIDATE_BUDGET,
           ) -> Tuple[FuzzProgram, int]:
    """Greedy ddmin; returns (minimized program, candidates spent).

    ``still_fails(candidate)`` must re-run the oracle and answer whether the
    candidate reproduces the original failure.  The input program is assumed
    failing; the result is 1-minimal w.r.t. the reduction operators (or the
    best found when the budget runs out).
    """
    current = program.clone()
    spent = 0
    progress = True
    while progress and spent < budget:
        progress = False
        for candidate in _reductions(current):
            if spent >= budget:
                break
            if validate(candidate) is not None:
                continue
            spent += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break   # restart the operator scan from the smaller program
    return current, spent


# ---------------------------------------------------------------------------
# reduction operators (ordered biggest-bite-first)
# ---------------------------------------------------------------------------

def _reductions(program: FuzzProgram) -> Iterator[FuzzProgram]:
    if program.family in ("sp", "tasks"):
        yield from _tree_reductions(program)
    elif program.family in ("deps", "feb"):
        yield from _tasklist_reductions(program)
    elif program.family == "barrier":
        yield from _barrier_reductions(program)


def _clone_with_body(program: FuzzProgram, body: list) -> FuzzProgram:
    p = program.clone()
    p.body = body
    return p


def _body_paths(body: list, prefix: Tuple[int, ...] = ()
                ) -> Iterator[Tuple[Tuple[int, ...], list]]:
    """Yield (path, body) for the root body and every nested body."""
    yield prefix, body
    for i, op in enumerate(body):
        if op and op[0] in ("task", "group"):
            yield from _body_paths(op[1], prefix + (i,))


def _edit_at(root: list, path: Tuple[int, ...],
             fn: Callable[[list], Optional[list]]) -> Optional[list]:
    """Deep-copy ``root`` and replace the body at ``path`` with ``fn(body)``."""
    root = json.loads(json.dumps(root))
    body = root
    for i in path:
        body = body[i][1]
    new = fn(body)
    if new is None:
        return None
    body[:] = new
    return root


def _tree_reductions(program: FuzzProgram) -> Iterator[FuzzProgram]:
    paths = list(_body_paths(program.body))
    # 1. delete whole ops (tasks first: biggest bite)
    for path, body in paths:
        order = sorted(range(len(body)),
                       key=lambda i: 0 if body[i][0] in ("task", "group")
                       else 1)
        for i in order:
            new = _edit_at(program.body, path,
                           lambda b, i=i: b[:i] + b[i + 1:])
            if new is not None:
                yield _clone_with_body(program, new)
    # 2. inline a task/group body at its spawn point (keeps the accesses,
    #    removes the concurrency — great at isolating which spawn matters)
    for path, body in paths:
        for i, op in enumerate(body):
            if op[0] in ("task", "group"):
                new = _edit_at(program.body, path,
                               lambda b, i=i: b[:i] + b[i][1] + b[i + 1:])
                if new is not None:
                    yield _clone_with_body(program, new)
    # 3. shrink the arena
    if program.slots > 1:
        p = program.clone()
        p.slots -= 1
        yield p


def _tasklist_reductions(program: FuzzProgram) -> Iterator[FuzzProgram]:
    tasks = program.body
    # 1. drop whole tasks
    for i in range(len(tasks)):
        if len(tasks) > 1:
            yield _clone_with_body(program, tasks[:i] + tasks[i + 1:])
    # 2. drop single ops
    for ti, task in enumerate(tasks):
        for oi in range(len(task.get("ops", []))):
            p = program.clone()
            p.body[ti]["ops"] = (task["ops"][:oi] + task["ops"][oi + 1:])
            yield p
    # 3. drop dependence tokens (deps only)
    if program.family == "deps":
        for ti, task in enumerate(tasks):
            for key in ("in", "out"):
                for tok in task.get(key, ()):
                    p = program.clone()
                    p.body[ti][key] = [t for t in task[key] if t != tok]
                    yield p
    # 4. remove a FEB transfer pair (feb only) — both ends at once so the
    #    candidate still validates
    if program.family == "feb":
        words = {op[1] for task in tasks for op in task["ops"]
                 if op[0] in ("writeEF", "readFE")}
        for w in sorted(words):
            p = program.clone()
            for task in p.body:
                task["ops"] = [op for op in task["ops"]
                               if not (op[0] in ("writeEF", "readFE")
                                       and op[1] == w)]
            yield p
    if program.slots > 1:
        p = program.clone()
        p.slots -= 1
        yield p


def _barrier_reductions(program: FuzzProgram) -> Iterator[FuzzProgram]:
    threads = program.body
    n_rounds = len(threads[0]) if threads else 0
    # 1. drop a whole round (from every thread, to keep shapes uniform)
    for r in range(n_rounds):
        if n_rounds > 1:
            p = program.clone()
            p.body = [t[:r] + t[r + 1:] for t in threads]
            yield p
    # 2. drop a whole thread
    for t in range(len(threads)):
        if len(threads) > 2:
            p = program.clone()
            p.body = threads[:t] + threads[t + 1:]
            p.nthreads -= 1
            yield p
    # 3. drop single ops
    for t, thread in enumerate(threads):
        for r, round_ops in enumerate(thread):
            for i in range(len(round_ops)):
                p = program.clone()
                p.body[t][r] = round_ops[:i] + round_ops[i + 1:]
                yield p
    if program.slots > 1:
        p = program.clone()
        p.slots -= 1
        yield p


# ---------------------------------------------------------------------------
# corpus I/O
# ---------------------------------------------------------------------------

def reproducer_doc(program: FuzzProgram, *, kinds: List[str],
                   options: Optional[dict] = None, note: str = "") -> dict:
    """The ``taskgrind-fuzz-repro/1`` document for one corpus entry.

    ``kinds`` is the expected divergence-kind set — the empty list means
    the program must run *clean* (a regression pin on a past fix).
    ``options`` holds non-default TaskgrindOptions/suppression overrides to
    replay with (e.g. ``{"suppress_recycling": false}``).
    """
    return {
        "schema": REPRO_SCHEMA,
        "program": json.loads(program.to_json()),
        "expect": sorted(kinds),
        "options": options or {},
        "note": note,
    }


def write_reproducer(program: FuzzProgram, corpus_dir: str, *,
                     kinds: List[str], options: Optional[dict] = None,
                     note: str = "") -> str:
    """Write one corpus entry; returns its path."""
    os.makedirs(corpus_dir, exist_ok=True)
    doc = reproducer_doc(program, kinds=kinds, options=options, note=note)
    name = f"{program.family}-{program.digest()}.json"
    path = os.path.join(corpus_dir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_reproducer(path: str) -> Tuple[FuzzProgram, List[str], dict, str]:
    """Read one corpus entry → (program, expected kinds, options, note).

    A document of another shape — not an object, ``options`` that are
    not an object, ``expect`` that is not a list, a ``program`` that
    :meth:`FuzzProgram.from_json` refuses — or an ``options`` key that no
    Taskgrind option has, or a flag that is not a bool, is a
    ``ValueError`` naming the field, not a traceback or an override
    silently set on nothing."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the document is not a JSON object")
    if doc.get("schema") != REPRO_SCHEMA:
        raise ValueError(f"{path}: not a {REPRO_SCHEMA} document")
    program = FuzzProgram.from_json(json.dumps(doc["program"]))
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ValueError(f"{path}: 'options' is not a JSON object")
    expect = doc.get("expect", [])
    if not isinstance(expect, list):
        raise ValueError(f"{path}: 'expect' is not a JSON list")
    check_options(options)
    return program, list(expect), dict(options), str(doc.get("note", ""))
