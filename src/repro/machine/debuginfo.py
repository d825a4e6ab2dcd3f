"""Debug information: symbols, source locations, shadow call stacks.

Valgrind reads DWARF from the binary; our guest programs *declare* their debug
info instead.  Three things hang off it:

* **Symbols** carry the ``instrumented`` bit — whether the symbol was
  "compiled with instrumentation".  Compile-time tools (Archer, TSan,
  TaskSanitizer) only observe accesses in instrumented symbols; DBI tools see
  everything.  This is the mechanism behind the paper's false-negative
  argument (Section I) and the ignore-list/instrument-list filters
  (Section IV-A) match on symbol names.
* **Source locations** let Taskgrind print ``task.1.c:8``-style reports
  (Listing 6), while the modeled ROMP deliberately drops them (Listing 5).
* **Shadow call stacks** are maintained per simulated thread by
  :class:`repro.machine.program.GuestContext` and snapshotted by the
  allocator wrapper so conflicting accesses can be matched to the allocation
  site of the block they hit.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.machine.memory import CODE_BASE


@dataclass(frozen=True)
class SourceLocation:
    """``file:line`` with an optional enclosing function name."""

    file: str
    line: int
    function: str = ""

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass
class Symbol:
    """A guest function: name, home source file, instrumentation provenance."""

    name: str
    file: str = "<unknown>"
    line: int = 0
    instrumented: bool = True        # compiled with -fsanitize-style hooks
    library: str = "a.out"           # which "object" it lives in

    addr: int = 0                    # synthetic code address, set on interning
    #: one immutable location per line, handed out by :meth:`location`
    _locations: Dict[int, SourceLocation] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def location(self, line: Optional[int] = None) -> SourceLocation:
        """``file:line`` in this symbol (its declaration line by default);
        every call for one line returns the same object."""
        if line is None:
            line = self.line
        loc = self._locations.get(line)
        if loc is None:
            loc = self._locations[line] = SourceLocation(self.file, line,
                                                         self.name)
        return loc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "" if self.instrumented else " [uninstrumented]"
        return f"Symbol({self.name} @ {self.file}:{self.line}{tag})"


class DebugInfo:
    """Symbol interning plus name-pattern matching for ignore/instrument lists."""

    def __init__(self) -> None:
        self._symbols: Dict[str, Symbol] = {}
        self._next_code_addr = CODE_BASE

    def intern(self, name: str, *, file: str = "<unknown>", line: int = 0,
               instrumented: bool = True, library: str = "a.out") -> Symbol:
        """Get-or-create the symbol ``name`` (first declaration wins)."""
        sym = self._symbols.get(name)
        if sym is None:
            sym = Symbol(name=name, file=file, line=line,
                         instrumented=instrumented, library=library,
                         addr=self._next_code_addr)
            self._next_code_addr += 16
            self._symbols[name] = sym
        return sym

    def lookup(self, name: str) -> Optional[Symbol]:
        return self._symbols.get(name)

    def all_symbols(self) -> List[Symbol]:
        return list(self._symbols.values())

    @staticmethod
    def matches_any(name: str, patterns: Tuple[str, ...]) -> bool:
        """fnmatch-style matching used by the ignore/instrument lists.

        A bare prefix such as ``__kmp`` (the paper's example) is treated as
        ``__kmp*``.
        """
        for pat in patterns:
            if not any(ch in pat for ch in "*?["):
                pat = pat + "*"
            if fnmatch.fnmatchcase(name, pat):
                return True
        return False


def format_stack(stack: Tuple[SourceLocation, ...], indent: str = "    ") -> str:
    """Render a shadow call stack the way the report listings do."""
    if not stack:
        return f"{indent}<no stack recorded>"
    lines = []
    for i, loc in enumerate(reversed(stack)):
        head = "at" if i == 0 else "by"
        fn = f" in {loc.function}" if loc.function else ""
        lines.append(f"{indent}{head} {loc}{fn}")
    return "\n".join(lines)
