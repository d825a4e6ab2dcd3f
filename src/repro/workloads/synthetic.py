"""Synthetic task workloads: fib, 1-D heat diffusion, scratch, n-queens.

Small, self-checking task kernels used by the stress tests and extra
benchmarks.  Each has a correct version and (where meaningful) a racy
variant with one synchronisation removed, so they double as detector
fixtures beyond the DRB/TMB suites.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.openmp.api import OmpEnv


# ---------------------------------------------------------------------------
# fib: nested task recursion (taskwait joins)
# ---------------------------------------------------------------------------

def omp_fib(env: OmpEnv, n: int, *, cutoff: int = 4) -> int:
    """Task-recursive Fibonacci with sequential cutoff."""
    ctx = env.ctx
    box = {}

    def fib(k: int) -> int:
        if k < cutoff:
            a, b = 0, 1
            for _ in range(k):
                a, b = b, a + b
            ctx.compute(float(k))
            return a
        out = {}

        def left(tv):
            out["l"] = fib(k - 1)

        def right(tv):
            out["r"] = fib(k - 2)

        env.task(left, name=f"fib{k}l")
        env.task(right, name=f"fib{k}r")
        env.taskwait()
        return out["l"] + out["r"]

    def body():
        box["result"] = fib(n)
    env.parallel_single(body)
    return box["result"]


def fib_reference(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# heat: iterative stencil with dependence-chained chunk tasks
# ---------------------------------------------------------------------------

def omp_heat(env: OmpEnv, n: int = 64, steps: int = 8, chunks: int = 4, *,
             racy: bool = False, alpha: float = 0.25) -> np.ndarray:
    """1-D explicit heat diffusion; ``racy`` drops the halo dependences.

    Double-buffered: each step's chunk task reads ``src`` (with halo) and
    writes ``dst``; per-chunk dependence tokens order step k's reads after
    step k-1's writes.  Removing the halo tokens makes boundary reads race.
    """
    ctx = env.ctx
    src = ctx.malloc(8 * n, elem=8, name="heat_src")
    dst = ctx.malloc(8 * n, elem=8, name="heat_dst")
    data = [np.zeros(n), np.zeros(n)]
    data[0][n // 2] = 100.0                      # hot spot
    bounds = [(i * n // chunks, (i + 1) * n // chunks)
              for i in range(chunks)]

    def body():
        for step in range(steps):
            cur, nxt = data[step % 2], data[(step + 1) % 2]
            cur_buf = src if step % 2 == 0 else dst
            nxt_buf = dst if step % 2 == 0 else src
            for c, (lo, hi) in enumerate(bounds):
                def kernel(tv, lo=lo, hi=hi, cur=cur, nxt=nxt,
                           cur_buf=cur_buf, nxt_buf=nxt_buf):
                    cur_buf.read_range(max(0, lo - 1), min(n, hi + 1),
                                       line=20)
                    # neighbours clamp at the *global* edges only
                    left = cur[np.clip(np.arange(lo - 1, hi - 1), 0, n - 1)]
                    right = cur[np.clip(np.arange(lo + 1, hi + 1), 0, n - 1)]
                    nxt[lo:hi] = cur[lo:hi] + alpha * (
                        left - 2 * cur[lo:hi] + right)
                    nxt_buf.write_range(lo, hi, line=24)
                    ctx.compute(float(hi - lo) * 6)

                in_chunks = [c] if racy else \
                    [i for i in (c - 1, c, c + 1) if 0 <= i < chunks]
                depend = {
                    "in": [cur_buf.index_addr(0) + i for i in in_chunks],
                    "out": [nxt_buf.index_addr(0) + c],
                }
                ctx.line(30 + c)
                env.task(kernel, depend=depend, name=f"heat.s{step}.c{c}",
                         annotate_deferrable=True)
        env.taskwait()

    env.parallel_single(body)
    return data[steps % 2]


def heat_reference(n: int = 64, steps: int = 8,
                   alpha: float = 0.25) -> np.ndarray:
    cur = np.zeros(n)
    cur[n // 2] = 100.0
    for _ in range(steps):
        left = np.concatenate(([cur[0]], cur[:-1]))
        right = np.concatenate((cur[1:], [cur[-1]]))
        cur = cur + alpha * (left - 2 * cur + right)
    return cur


# ---------------------------------------------------------------------------
# scratch: private stack slots — the access-elision showcase
# ---------------------------------------------------------------------------

def omp_scratch(env: OmpEnv, tasks: int = 8, iters: int = 64) -> int:
    """Independent tasks, each hammering a ``private=True`` stack slot.

    Every task allocates a compiler-proved non-escaping scratch variable
    and read-modify-writes it ``iters`` times before publishing one sum
    into its own result cell.  With elision on (the default) the scratch
    traffic lands in the ``elide.noop`` bucket of the attribution
    profiler; with ``elide_sites=False`` the same accesses pay the full
    recording path — which is exactly the before/after pair
    ``repro profile diff`` exists to explain.
    """
    ctx = env.ctx
    result = ctx.malloc(8 * tasks, elem=8, name="scratch_result")
    sums: List[int] = [0] * tasks

    def body():
        for t in range(tasks):
            def task_body(tv, t=t):
                acc = ctx.stack_var("acc", 8, elem=8, private=True)
                total = 0
                for i in range(iters):
                    acc.write(0, i, line=10)
                    total += acc.read(0, line=11)
                sums[t] = total
                result.write(t, total, line=13)
                ctx.compute(float(iters))
            ctx.line(5 + t)
            env.task(task_body, name=f"scratch{t}")
        env.taskwait()

    env.parallel_single(body)
    return sum(sums)


# ---------------------------------------------------------------------------
# n-queens: irregular task tree with a shared counter
# ---------------------------------------------------------------------------

def omp_nqueens(env: OmpEnv, n: int = 6, *, racy: bool = False) -> int:
    """Count n-queens solutions with one task per first-row placement.

    The correct version accumulates per-task partials and reduces after the
    taskwait; the racy variant has every task read-modify-write the shared
    counter directly.
    """
    ctx = env.ctx
    counter = ctx.malloc(8, elem=8, name="nq_counter")
    counter.write(0, 0, line=3)
    partials: List[int] = [0] * n

    def solve(cols: int, diag1: int, diag2: int, row: int) -> int:
        if row == n:
            return 1
        total = 0
        free = ~(cols | diag1 | diag2) & ((1 << n) - 1)
        while free:
            bit = free & -free
            free -= bit
            total += solve(cols | bit, (diag1 | bit) << 1,
                           (diag2 | bit) >> 1, row + 1)
        return total

    def body():
        for first in range(n):
            def task_body(tv, first=first):
                bit = 1 << first
                count = solve(bit, bit << 1, bit >> 1, 1)
                ctx.compute(200.0)
                if racy:
                    counter.write(0, counter.read(0, line=12) + count,
                                  line=12)
                else:
                    partials[first] = count
            ctx.line(8 + first)
            env.task(task_body, name=f"nq{first}", annotate_deferrable=True)
        env.taskwait()
        if not racy:
            counter.write(0, sum(partials), line=20)

    env.parallel_single(body)
    return counter.read(0)


NQUEENS_SOLUTIONS = {4: 2, 5: 10, 6: 4, 7: 40, 8: 92}
