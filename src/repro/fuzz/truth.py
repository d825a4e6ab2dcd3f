"""Ground truth for fuzz programs: an explicit event graph + reachability.

This is the *generator-side* oracle: it derives the intended races of a
:class:`repro.fuzz.spec.FuzzProgram` directly from the spec's structural
happens-before rules, using an implementation that shares nothing with
``repro.core`` (no segments, no interval trees, no segment graph)
*or* with the vector-clock oracle in :mod:`repro.fuzz.oracles` — three
independent derivations of the same relation is what makes the differential
harness meaningful.

Construction: every access op becomes an event node; edges encode the
family's sequencing rules (program order, spawn, taskwait/taskgroup joins,
dependences, FEB transfers, team barriers).  Reachability is a bitset DP
over a topological order; a shared-arena slot is *racy* iff it carries two
unordered events of which at least one is a write.

Only shared-arena accesses are events.  ``tls``/``stack``/``scratch`` noise
ops and the FEB words themselves are excluded by construction — they must
never be reported by any detector, which the differential oracle checks
separately (the ``suppression`` divergence class).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.fuzz.spec import FuzzProgram, dep_predecessors


@dataclass
class _EventGraph:
    """Events + edges, built in (a) topological construction order."""

    edges: List[Tuple[int, int]] = field(default_factory=list)
    #: node -> (slot, is_write) for access events only
    accesses: Dict[int, Tuple[int, bool]] = field(default_factory=dict)
    n: int = 0

    def node(self) -> int:
        self.n += 1
        return self.n - 1

    def access(self, after: int, slot: int, is_write: bool) -> int:
        node = self.node()
        self.edge(after, node)
        self.accesses[node] = (slot, is_write)
        return node

    def edge(self, a: int, b: int) -> None:
        self.edges.append((a, b))

    # -- reachability -------------------------------------------------------

    def racy_slots(self) -> FrozenSet[str]:
        succs: List[List[int]] = [[] for _ in range(self.n)]
        indeg = [0] * self.n
        for a, b in self.edges:
            succs[a].append(b)
            indeg[b] += 1
        # Kahn topo order (construction order is already topological, but
        # recompute rather than rely on it)
        order: List[int] = [v for v in range(self.n) if indeg[v] == 0]
        for v in order:
            for s in succs[v]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    order.append(s)
        assert len(order) == self.n, "event graph has a cycle"
        reach = [0] * self.n
        for v in reversed(order):
            mask = 1 << v
            for s in succs[v]:
                mask |= reach[s]
            reach[v] = mask
        racy = set()
        per_slot: Dict[int, List[Tuple[int, bool]]] = {}
        for node, (slot, is_write) in self.accesses.items():
            per_slot.setdefault(slot, []).append((node, is_write))
        for slot, events in per_slot.items():
            if f"s{slot}" in racy:
                continue
            for i in range(len(events)):
                a, aw = events[i]
                for j in range(i + 1, len(events)):
                    b, bw = events[j]
                    if not (aw or bw):
                        continue
                    if reach[a] >> b & 1 or reach[b] >> a & 1:
                        continue
                    racy.add(f"s{slot}")
                    break
                else:
                    continue
                break
        return frozenset(racy)


def _walk_task_tree(g: _EventGraph, body: list, entry: int,
                    open_groups: List[List[int]]) -> int:
    """Interpret one task body; returns the task's exit node.

    ``open_groups`` collects every task (by exit node) created during an
    enclosing taskgroup's dynamic extent, including nested descendants —
    the OpenMP taskgroup joins all of them.
    """
    cur = entry
    children_exits: List[int] = []
    for op in body:
        kind = op[0]
        if kind in ("r", "w"):
            cur = g.access(cur, op[1], kind == "w")
        elif kind == "task":
            child_entry = g.node()
            g.edge(cur, child_entry)
            child_exit = _walk_task_tree(g, op[1], child_entry, open_groups)
            children_exits.append(child_exit)
            for grp in open_groups:
                grp.append(child_exit)
        elif kind == "wait":
            node = g.node()
            g.edge(cur, node)
            for ce in children_exits:
                g.edge(ce, node)
            cur = node
        elif kind == "group":
            members: List[int] = []
            open_groups.append(members)
            # the group body runs in the encountering task (cur advances);
            # tasks created inside land in ``members``
            saved_children = children_exits
            cur = _walk_group_body(g, op[1], cur, open_groups,
                                   saved_children)
            open_groups.pop()
            node = g.node()
            g.edge(cur, node)
            for me in members:
                g.edge(me, node)
            cur = node
        # tls/stack/scratch: noise, no event
    exit_node = g.node()
    g.edge(cur, exit_node)
    return exit_node


def _walk_group_body(g: _EventGraph, body: list, cur: int,
                     open_groups: List[List[int]],
                     children_exits: List[int]) -> int:
    """Taskgroup region ops run in the encountering task's own thread of
    control; children created here are also the encountering task's direct
    children (a later taskwait joins them too)."""
    for op in body:
        kind = op[0]
        if kind in ("r", "w"):
            cur = g.access(cur, op[1], kind == "w")
        elif kind == "task":
            child_entry = g.node()
            g.edge(cur, child_entry)
            child_exit = _walk_task_tree(g, op[1], child_entry, open_groups)
            children_exits.append(child_exit)
            for grp in open_groups:
                grp.append(child_exit)
        elif kind == "wait":
            node = g.node()
            g.edge(cur, node)
            for ce in children_exits:
                g.edge(ce, node)
            cur = node
        elif kind == "group":
            members: List[int] = []
            open_groups.append(members)
            cur = _walk_group_body(g, op[1], cur, open_groups,
                                   children_exits)
            open_groups.pop()
            node = g.node()
            g.edge(cur, node)
            for me in members:
                g.edge(me, node)
            cur = node
    return cur


def _build_task_tree(program: FuzzProgram) -> _EventGraph:
    g = _EventGraph()
    root_entry = g.node()
    _walk_task_tree(g, program.body, root_entry, [])
    return g


def _build_deps(program: FuzzProgram) -> _EventGraph:
    g = _EventGraph()
    preds = dep_predecessors(program.body)
    create = g.node()                      # the creating task's program order
    entries: List[int] = []
    exits: List[int] = []
    for i, task in enumerate(program.body):
        nxt = g.node()
        g.edge(create, nxt)
        create = nxt
        entry = g.node()
        g.edge(create, entry)
        cur = entry
        for op in task.get("ops", ()):
            if op[0] in ("r", "w"):
                cur = g.access(cur, op[1], op[0] == "w")
        exit_node = g.node()
        g.edge(cur, exit_node)
        entries.append(entry)
        exits.append(exit_node)
        for p in preds[i]:
            g.edge(exits[p], entry)
    return g


def _build_feb(program: FuzzProgram) -> _EventGraph:
    g = _EventGraph()
    fork = g.node()
    entries: List[int] = []
    for _ in program.body:
        nxt = g.node()
        g.edge(fork, nxt)
        fork = nxt
        entry = g.node()
        g.edge(fork, entry)
        entries.append(entry)
    fill_nodes: Dict[int, int] = {}
    # walk qtask bodies in fork order: validity guarantees every consume's
    # fill node exists by the time the consume is reached
    pending_consumes: Dict[int, int] = {}
    for ti, task in enumerate(program.body):
        cur = entries[ti]
        for op in task["ops"]:
            kind = op[0]
            if kind in ("r", "w"):
                cur = g.access(cur, op[1], kind == "w")
            elif kind == "writeEF":
                node = g.node()
                g.edge(cur, node)
                cur = node
                fill_nodes[op[1]] = node
            elif kind == "readFE":
                node = g.node()
                g.edge(cur, node)
                cur = node
                pending_consumes[op[1]] = node
    for w, consume_node in pending_consumes.items():
        g.edge(fill_nodes[w], consume_node)
    return g


def _build_barrier(program: FuzzProgram) -> _EventGraph:
    g = _EventGraph()
    n_rounds = len(program.body[0]) if program.body else 0
    cursors = [g.node() for _ in program.body]
    start = g.node()
    for c in cursors:
        g.edge(start, c)
    for r in range(n_rounds):
        for t, thread in enumerate(program.body):
            cur = cursors[t]
            for op in thread[r]:
                if op[0] in ("r", "w"):
                    cur = g.access(cur, op[1], op[0] == "w")
            cursors[t] = cur
        bar = g.node()
        for t in range(len(program.body)):
            g.edge(cursors[t], bar)
        for t in range(len(program.body)):
            nxt = g.node()
            g.edge(bar, nxt)
            cursors[t] = nxt
    return g


_BUILDERS = {
    "sp": _build_task_tree,
    "tasks": _build_task_tree,
    "deps": _build_deps,
    "feb": _build_feb,
    "barrier": _build_barrier,
}


def ground_truth(program: FuzzProgram) -> FrozenSet[str]:
    """The program's intended racy shared slots (``{"s3", ...}``)."""
    return _BUILDERS[program.family](program).racy_slots()
