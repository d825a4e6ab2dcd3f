"""``taskgrind-profile/1`` documents: save/load, folded export, diffing.

The profiler core (:mod:`repro.obs.prof`) is stdlib-only and hot-path
friendly; this module is the cold document layer:

* **Format.**  A profile is a JSONL stream of checksummed chunks in the
  framing of :mod:`repro.util.chunks` (``seq``/``kind``/``crc``/
  ``payload``, CRC-32 over the canonical payload).  Chunk kinds, in
  order: one ``header`` (schema + version), zero or more ``vtime`` chunks
  (virtual-time buckets ``[tid, klass, frame, ops]``), zero or more
  ``counts`` chunks (count-axis buckets ``[klass, frame, n]``), an
  optional ``phases`` chunk (analyze-side phase timers from the metrics
  registry), one ``meta`` chunk, and a final ``end`` chunk naming the
  chunk count.
* **Strictness.**  Profiles follow the schedule documents' philosophy,
  not the traces': there is **no salvage mode**.  A profile with a bad
  checksum or a missing ``end`` would silently misattribute ops, so
  :func:`load_profile` fails fast with :class:`ProfileFormatError` (not
  a chunk envelope, a payload without its kind's fields, or a cell of
  another shape) / :class:`ProfileCorruptionError`.
  :func:`validate_profile_doc` is the non-raising variant used by
  ``repro.obs.tracecheck``.
* **Diffing.**  :func:`diff_profiles` aggregates the virtual-time axis by
  ``(klass, frame)`` (summed over threads), computes per-bucket deltas
  and names the top regressing bucket, so a diff says *why* virtual time
  grew, not just that it did (``--fail-on-regression`` gates on it).

CLI (``python -m repro profile ...``)::

    repro profile run PROGRAM [--flame out.folded] [--out prof.json]
    repro profile diff A.json B.json [--top 5] [--json]
    repro profile show PROF.json [--flame out.folded] [--json]
    repro profile check PROF.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Tuple

from repro.errors import ProfileCorruptionError, ProfileFormatError
from repro.faults.inject import get_injector
from repro.obs.prof import PROFILE_SCHEMA, Profiler, format_ops
from repro.util.chunks import (ChunkError, ChunkWriter, chunk_lines,
                               decode_chunk, payload_problem, row_fits,
                               save_atomic, verify_crc)

PROFILE_VERSION = 1

#: virtual-time / count buckets per chunk line (keeps lines greppable and
#: bounds the blast radius of a torn write to one chunk)
CELLS_PER_CHUNK = 256

#: the payload fields each chunk kind needs, with the types they may have
_FIELDS = {
    "vtime": {"cells": (list,)},
    "counts": {"cells": (list,)},
    "phases": {"phases": (dict,)},
    "meta": {"total_ops": (int, float, type(None))},
}

#: the types of one cell's fields per cell kind; the last field, the op
#: or event count, must also be finite and >= 0
_CELLS = {
    "vtime": ((int,), (str,), (str,), (int, float)),    # tid klass frame ops
    "counts": ((str,), (str,), (int,)),                 # klass frame n
}


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------

def save_profile(path: str, prof: Profiler, *,
                 phases: Optional[dict] = None) -> None:
    """Serialize ``prof`` as a ``taskgrind-profile/1`` document, atomically
    like trace and schedule saves: an interrupted write never leaves a
    half-written ``path`` behind."""
    def write(fh) -> None:
        writer = ChunkWriter(fh, get_injector().on_trace_chunk, vtime=0.0)
        writer.emit("header", {"schema": PROFILE_SCHEMA,
                               "version": PROFILE_VERSION})
        vtime = [list(row) for row in prof.vtime_cells()]
        for i in range(0, len(vtime), CELLS_PER_CHUNK):
            writer.emit("vtime", {"cells": vtime[i:i + CELLS_PER_CHUNK]})
        counts = [list(row) for row in prof.count_cells()]
        for i in range(0, len(counts), CELLS_PER_CHUNK):
            writer.emit("counts", {"cells": counts[i:i + CELLS_PER_CHUNK]})
        if phases:
            # registry phase rows: {count, wall_s, vtime_ops, vtime_s}
            writer.emit("phases", {"phases": phases})
        writer.emit("meta", dict(prof.meta, total_ops=prof.total_ops))
        writer.emit("end", {"chunks": writer.seq})
    save_atomic(path, write)


# ---------------------------------------------------------------------------
# load / validate
# ---------------------------------------------------------------------------

#: problem categories: 'format' -> ProfileFormatError, anything else ->
#: ProfileCorruptionError (with the chunk seq when known)
_Problem = Tuple[str, Optional[int], str]


def _parse(path: str) -> Tuple[dict, List[_Problem]]:
    """Scan a profile stream; collect every problem instead of raising."""
    doc: dict = {"schema": None, "version": None, "vtime": [],
                 "counts": [], "phases": {}, "meta": {}}
    problems: List[_Problem] = []
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return doc, [("format", None, f"cannot read: {exc}")]
    lines = [line for _offset, line in chunk_lines(raw)]
    if not lines:
        return doc, [("format", None, "empty file")]
    saw_end = False
    for idx, line in enumerate(lines):
        if saw_end:
            problems.append(("corrupt", idx, "data after the end chunk"))
            break
        try:
            chunk = decode_chunk(line)
            verify_crc(chunk)
        except ChunkError as exc:
            problems.append(("format" if exc.check == "envelope"
                             else "corrupt", idx, str(exc)))
            break
        if chunk["seq"] != idx:
            problems.append(("corrupt", idx,
                             f"seq not monotone: expected {idx}, "
                             f"found {chunk['seq']}"))
            break
        kind, payload = chunk["kind"], chunk["payload"]
        problem = payload_problem(payload, _FIELDS.get(kind, {}))
        if problem is not None:
            problems.append(("format", idx, problem))
            break
        if idx == 0:
            if kind != "header":
                problems.append(("format", idx,
                                 f"first chunk is {kind!r}, not 'header'"))
                break
            if payload.get("schema") != PROFILE_SCHEMA:
                problems.append((
                    "format", idx,
                    f"schema {payload.get('schema')!r} is not "
                    f"{PROFILE_SCHEMA!r}"))
                break
            if payload.get("version") != PROFILE_VERSION:
                problems.append((
                    "format", idx,
                    f"unsupported version {payload.get('version')!r}"))
                break
            doc["schema"] = payload["schema"]
            doc["version"] = payload["version"]
        elif kind in _CELLS:
            for cell in payload["cells"]:
                if row_fits(cell, _CELLS[kind]) \
                        and 0 <= cell[-1] < math.inf:
                    doc[kind].append(cell)
                else:
                    problems.append(("format", idx,
                                     f"malformed {kind} cell {cell!r}"))
        elif kind == "phases":
            doc["phases"] = payload["phases"]
        elif kind == "meta":
            doc["meta"] = payload
        elif kind == "end":
            saw_end = True
            if payload.get("chunks") != idx:
                problems.append((
                    "corrupt", idx,
                    f"end chunk expects {payload.get('chunks')} prior "
                    f"chunks, found {idx}"))
        else:
            problems.append(("format", idx,
                             f"unknown chunk kind {kind!r}"))
    if not saw_end and not problems:
        problems.append(("corrupt", len(lines) - 1,
                         "missing end chunk (truncated stream)"))
    return doc, problems


def load_profile(path: str) -> dict:
    """Load a profile document; strict — raises on the first problem."""
    doc, problems = _parse(path)
    if problems:
        category, seq, reason = problems[0]
        if category == "format":
            raise ProfileFormatError(path, reason)
        raise ProfileCorruptionError(path, chunk_seq=seq, reason=reason)
    return doc


def validate_profile_doc(path: str) -> List[str]:
    """Every problem in the document, as printable strings (empty = valid).

    The non-raising twin of :func:`load_profile`, called by
    ``repro.obs.tracecheck`` so one checker validates both timeline and
    profile artifacts.
    """
    doc, problems = _parse(path)
    out = [f"chunk {seq}: {reason}" if seq is not None else reason
           for _cat, seq, reason in problems]
    if not problems:
        total = doc["meta"].get("total_ops")
        if total is not None:
            booked = sum(cell[3] for cell in doc["vtime"])
            if abs(booked - total) > max(1e-6, 1e-9 * abs(total)):
                out.append(f"bucket ops sum {booked!r} != meta total_ops "
                           f"{total!r}")
    return out


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------

def to_folded(doc: dict) -> str:
    """Collapsed-stack flamegraph text from a loaded document."""
    lines = [f"t{tid};{frame};{klass} {format_ops(ops)}"
             for tid, klass, frame, ops in doc["vtime"]]
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def class_totals(doc: dict) -> Dict[str, float]:
    """Virtual-time ops per instrumentation class (threads+frames summed)."""
    totals: Dict[str, float] = {}
    for _tid, klass, _frame, ops in doc["vtime"]:
        totals[klass] = totals.get(klass, 0.0) + ops
    return dict(sorted(totals.items()))


def _buckets(doc: dict) -> Dict[Tuple[str, str], float]:
    out: Dict[Tuple[str, str], float] = {}
    for _tid, klass, frame, ops in doc["vtime"]:
        key = (klass, frame)
        out[key] = out.get(key, 0.0) + ops
    return out


def diff_profiles(a: dict, b: dict) -> dict:
    """Per-bucket virtual-time deltas B − A, worst regression first.

    Buckets are ``(klass, frame)`` summed over threads; the *top
    regression* is the bucket with the largest positive delta (ops B
    charged that A did not) — ``None`` when B regressed nowhere.
    """
    ba, bb = _buckets(a), _buckets(b)
    rows = []
    for key in sorted(set(ba) | set(bb)):
        va, vb = ba.get(key, 0.0), bb.get(key, 0.0)
        if va == vb:
            continue
        rows.append({"klass": key[0], "frame": key[1],
                     "a": va, "b": vb, "delta": vb - va})
    rows.sort(key=lambda r: (-r["delta"], r["klass"], r["frame"]))
    a_total = sum(ba.values())
    b_total = sum(bb.values())
    top = rows[0] if rows and rows[0]["delta"] > 0 else None
    return {
        "schema": "taskgrind-profile-diff/1",
        "a_total": a_total,
        "b_total": b_total,
        "delta_total": b_total - a_total,
        "buckets": rows,
        "top_regression": top,
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _render_diff(diff: dict, top: int) -> str:
    lines = [f"A total: {format_ops(diff['a_total'])} ops",
             f"B total: {format_ops(diff['b_total'])} ops",
             f"delta:   {diff['delta_total']:+.0f} ops"]
    if diff["top_regression"] is not None:
        t = diff["top_regression"]
        lines.append(f"top regressing bucket: {t['klass']} @ {t['frame']} "
                     f"({t['delta']:+.0f} ops)")
    else:
        lines.append("top regressing bucket: none (B regressed nowhere)")
    shown = diff["buckets"][:top]
    if shown:
        lines.append("")
        lines.append(f"{'delta':>14}  {'class':<28} frame")
        for row in shown:
            lines.append(f"{row['delta']:>+14.0f}  {row['klass']:<28} "
                         f"{row['frame']}")
    if len(diff["buckets"]) > top:
        lines.append(f"... {len(diff['buckets']) - top} more buckets "
                     "(use --top)")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.runner import _find_program, run_benchmark
    from repro.core.tool import TaskgrindOptions
    from repro.obs.prof import get_profiler
    program = _find_program(args.program)
    if program is None:
        print(f"unknown program {args.program!r} "
              "(see python -m repro run --list)", file=sys.stderr)
        return 2
    options = TaskgrindOptions(record_mode=args.record,
                               elide_sites=not args.no_elide)
    prof = get_profiler()
    prof.enable()
    prof.meta.update({
        "program": program.name, "tool": "taskgrind",
        "nthreads": args.threads, "seed": args.seed,
        "record_mode": args.record, "elide_sites": not args.no_elide,
    })
    try:
        result = run_benchmark(program, "taskgrind",
                               nthreads=args.threads, seed=args.seed,
                               taskgrind_options=options)
        phases = ((result.stats or {}).get("registry") or {}).get("phases")
        if args.out is not None:
            save_profile(args.out, prof, phases=phases)
            print(f"wrote profile to {args.out} ({len(prof)} buckets, "
                  f"{prof.total_ops:.0f} attributed ops)")
        if args.flame is not None:
            with open(args.flame, "w", encoding="utf-8") as fh:
                fh.write(prof.folded())
            print(f"wrote flamegraph input to {args.flame}")
        if args.json:
            print(json.dumps(prof.snapshot(), indent=2, sort_keys=True))
        elif args.out is None and args.flame is None:
            sys.stdout.write(prof.folded())
        print(f"# {result.program}: {result.cell()}, "
              f"{format_ops(prof.total_ops)} ops attributed over "
              f"{len(prof)} buckets", file=sys.stderr)
    finally:
        prof.disable()
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.errors import ProfileError
    try:
        a = load_profile(args.a)
        b = load_profile(args.b)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_profiles(a, b)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(_render_diff(diff, args.top))
    return 1 if diff["top_regression"] is not None and args.fail_on_regression \
        else 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.errors import ProfileError
    try:
        doc = load_profile(args.profile)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.flame is not None:
        with open(args.flame, "w", encoding="utf-8") as fh:
            fh.write(to_folded(doc))
        print(f"wrote flamegraph input to {args.flame}")
        return 0
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    meta = doc["meta"]
    print(f"profile of {meta.get('program', '?')} "
          f"(seed {meta.get('seed', '?')}, "
          f"record_mode {meta.get('record_mode', '?')}): "
          f"{format_ops(meta.get('total_ops', 0))} ops")
    print(f"{'ops':>16}  class")
    for klass, ops in sorted(class_totals(doc).items(),
                             key=lambda kv: -kv[1]):
        print(f"{format_ops(ops):>16}  {klass}")
    if doc["counts"]:
        print(f"\n{'count':>16}  event")
        agg: Dict[str, int] = {}
        for klass, _frame, n in doc["counts"]:
            agg[klass] = agg.get(klass, 0) + n
        for klass, n in sorted(agg.items(), key=lambda kv: -kv[1]):
            print(f"{n:>16}  {klass}")
    if doc["phases"]:
        print("\nphases:")
        for name, vals in sorted(doc["phases"].items()):
            if isinstance(vals, dict):
                print(f"  {name}: x{vals.get('count', '?')} "
                      f"wall {vals.get('wall_s', 0.0):.4f}s "
                      f"vtime {format_ops(vals.get('vtime_ops', 0.0))} ops")
            else:
                print(f"  {name}: {vals}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    problems = validate_profile_doc(args.profile)
    for problem in problems:
        print(f"{args.profile}: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{args.profile}: OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="deterministic overhead-attribution profiles: record, "
                    "inspect and diff taskgrind-profile/1 documents")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="profile one benchmark program")
    p_run.add_argument("program", help="a DRB/TMB/synthetic program name")
    p_run.add_argument("--threads", type=int, default=4)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--record", default="full", choices=["full", "sync"])
    p_run.add_argument("--no-elide", action="store_true",
                       help="disable static access elision (for "
                            "before/after elision diffs)")
    p_run.add_argument("--out", metavar="OUT.json", default=None,
                       help="write the taskgrind-profile/1 document here")
    p_run.add_argument("--flame", metavar="OUT.folded", default=None,
                       help="write collapsed-stack flamegraph text here")
    p_run.add_argument("--json", action="store_true",
                       help="print the profile snapshot as JSON")
    p_run.set_defaults(fn=_cmd_run)

    p_diff = sub.add_parser("diff",
                            help="per-bucket deltas between two profiles")
    p_diff.add_argument("a", help="baseline profile (A)")
    p_diff.add_argument("b", help="candidate profile (B)")
    p_diff.add_argument("--top", type=int, default=10,
                        help="buckets to print (default 10)")
    p_diff.add_argument("--json", action="store_true")
    p_diff.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any bucket regressed (CI gate)")
    p_diff.set_defaults(fn=_cmd_diff)

    p_show = sub.add_parser("show", help="inspect one profile document")
    p_show.add_argument("profile")
    p_show.add_argument("--flame", metavar="OUT.folded", default=None)
    p_show.add_argument("--json", action="store_true")
    p_show.set_defaults(fn=_cmd_show)

    p_check = sub.add_parser(
        "check", help="validate a profile document (exit 1 on problems)")
    p_check.add_argument("profile")
    p_check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
