"""One run scope and one command session: the process-wide registry,
tracer and profiler are scoped here and nowhere else (``docs/INTERNALS.md``
§6 and §12)."""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.errors import OutputError
from repro.obs.metrics import get_registry
from repro.obs.prof import Profiler, get_profiler
from repro.obs.tracer import get_tracer


@contextmanager
def run_scope() -> Iterator[dict]:
    """One run: marks the registry and, when the tracer records, opens a
    fresh tracer run (segment ids restart at 0 each run, so span anchors
    must not carry over); on exit the yielded dict holds the run's delta."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.new_run()
    registry = get_registry()
    baseline = registry.mark()
    delta: dict = {}
    yield delta
    delta.update(registry.delta_since(baseline))


@contextmanager
def command_session(*, timeline: Optional[str] = None,
                    profile: Optional[str] = None,
                    flame: Optional[str] = None,
                    meta: Optional[dict] = None,
                    profiling: bool = False) -> Iterator[Optional[Profiler]]:
    """One command's tracer and profiler around one run scope.

    The tracer records when a ``timeline`` path is given; the profiler,
    stamped with ``meta`` and yielded, when a ``profile`` or ``flame`` path
    is, or ``profiling`` is set.  Outputs are written when the command
    returns (an unwritable path is an :class:`OutputError`), not when it
    raises; either way what was enabled is disabled, which unbinds the
    profiler's frame providers from the finished machine.
    """
    tracer = get_tracer() if timeline is not None else None
    prof = get_profiler() \
        if profiling or profile is not None or flame is not None else None
    try:
        if tracer is not None:
            tracer.enable()
        if prof is not None:
            prof.enable()
            prof.meta.update(meta or {})
        with run_scope() as delta:
            yield prof
        if tracer is not None:
            write_output("timeline", timeline, tracer.export)
        if profile is not None:
            from repro.obs.profdoc import save_profile
            write_output("profile", profile, lambda path: save_profile(
                path, prof, phases=delta["phases"]))
        if flame is not None:
            write_output("flamegraph input", flame, lambda path: Path(
                path).write_text(prof.folded(), encoding="utf-8"))
    finally:
        if tracer is not None:
            tracer.disable()
        if prof is not None:
            prof.disable()


def write_output(what: str, path: str,
                 write: Callable[[str], object]) -> None:
    """Run ``write(path)`` and say so; an OS refusal is an OutputError."""
    try:
        write(path)
    except OSError as exc:
        raise OutputError(what, path, exc.strerror or str(exc)) from exc
    print(f"wrote {what} to {path}", file=sys.stderr)


def write_json(what: str, path: str, doc, *, sort_keys: bool = False
               ) -> None:
    """:func:`write_output` of ``doc`` as indented JSON and a newline."""
    write_output(what, path, lambda p: Path(p).write_text(
        json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n",
        encoding="utf-8"))
