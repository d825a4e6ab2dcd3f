"""Tests for the deterministic token-passing scheduler."""

import os
import sys
import time

import pytest

from repro.errors import MachineError, ReplayDivergenceError, SimDeadlock
from repro.machine import threads
from repro.machine.threads import Scheduler, ThreadState
from repro.util.rng import RngHub


def test_single_thread_runs_to_completion():
    sched = Scheduler()
    out = []
    sched.spawn(lambda: out.append("ran"))
    sched.run()
    assert out == ["ran"]


def test_thread_result_captured():
    sched = Scheduler()
    t = sched.spawn(lambda: 42)
    sched.run()
    assert t.result == 42
    assert t.state == ThreadState.DONE


def test_two_threads_interleave_at_yields():
    sched = Scheduler()
    trace = []

    def worker(tag):
        def body():
            for i in range(3):
                trace.append((tag, i))
                sched.current().vtime += 1     # each slice costs 1 op
                sched.yield_point()
        return body

    sched.spawn(worker("a"))
    sched.spawn(worker("b"))
    sched.run()
    assert sorted(trace) == [(t, i) for t in "ab" for i in range(3)]
    # min-vtime scheduling keeps the threads within one slice of each other,
    # so neither thread finishes before the other has started
    first_done = min(trace.index(("a", 2)), trace.index(("b", 2)))
    assert {e[0] for e in trace[:first_done]} == {"a", "b"}


def test_determinism_same_seed_same_trace():
    def run(seed):
        sched = Scheduler(RngHub(seed))
        trace = []

        def worker(tag):
            def body():
                for i in range(5):
                    trace.append(tag)
                    sched.yield_point()
            return body

        for tag in "abcd":
            sched.spawn(worker(tag))
        sched.run()
        return trace

    assert run(7) == run(7)
    assert run(7) == run(7)


def test_block_until_releases_when_predicate_true():
    sched = Scheduler()
    state = {"flag": False}
    order = []

    def waiter():
        sched.block_until(lambda: state["flag"], "waiting for flag")
        order.append("waiter")

    def setter():
        sched.yield_point()
        state["flag"] = True
        order.append("setter")

    sched.spawn(waiter)
    sched.spawn(setter)
    sched.run()
    assert order == ["setter", "waiter"]


def test_block_until_already_true_is_noop():
    sched = Scheduler()
    out = []
    def body():
        sched.block_until(lambda: True, "never blocks")
        out.append("done")
    sched.spawn(body)
    sched.run()
    assert out == ["done"]


def test_deadlock_detected():
    sched = Scheduler()
    sched.spawn(lambda: sched.block_until(lambda: False, "waiting for godot"))
    with pytest.raises(SimDeadlock) as ei:
        sched.run()
    assert "godot" in str(ei.value)


def test_deadlock_circular_wait_two_threads():
    """The second thread to block finds the deadlock itself."""
    sched = Scheduler()
    state = {"a": False, "b": False}

    def t1():
        sched.block_until(lambda: state["b"], "a waits b")
        state["a"] = True

    def t2():
        sched.block_until(lambda: state["a"], "b waits a")
        state["b"] = True

    sched.spawn(t1)
    sched.spawn(t2)
    with pytest.raises(SimDeadlock) as ei:
        sched.run()
    assert ei.value.states == {0: "a waits b", 1: "b waits a"}
    assert all(t.state == ThreadState.DONE for t in sched.threads)
    assert not any(t._real.is_alive() for t in sched.threads)


def test_guest_exception_propagates():
    sched = Scheduler()

    def boom():
        raise ValueError("guest bug")

    sched.spawn(boom)
    with pytest.raises(ValueError, match="guest bug"):
        sched.run()


def test_guest_exception_aborts_other_threads():
    sched = Scheduler()
    progress = []

    def spinner():
        while True:
            progress.append(1)
            sched.yield_point()

    def boom():
        sched.yield_point()
        raise RuntimeError("die")

    sched.spawn(spinner)
    sched.spawn(boom)
    with pytest.raises(RuntimeError, match="die"):
        sched.run()
    # spinner must have been unwound, not left hanging
    assert all(t.state == ThreadState.DONE for t in sched.threads)


def test_spawn_from_running_thread():
    sched = Scheduler()
    out = []

    def parent():
        child = sched.spawn(lambda: out.append("child"))
        sched.block_until(lambda: child.state == ThreadState.DONE, "join child")
        out.append("parent")

    sched.spawn(parent)
    sched.run()
    assert out == ["child", "parent"]


def test_min_vtime_policy_prefers_lagging_thread():
    sched = Scheduler()
    trace = []

    def fast():
        for _ in range(3):
            trace.append("fast")
            sched.current().vtime += 100
            sched.yield_point()

    def slow():
        for _ in range(3):
            trace.append("slow")
            sched.current().vtime += 1
            sched.yield_point()

    sched.spawn(fast)
    sched.spawn(slow)
    sched.run()
    # after the first round, 'slow' (cheap) should run ahead of 'fast'
    assert trace.count("slow") == 3
    assert trace.index("slow", 1) < trace.index("fast", 1)


def test_run_is_single_shot():
    sched = Scheduler()
    sched.spawn(lambda: None)
    sched.run()
    with pytest.raises(MachineError):
        sched.run()


def test_many_threads_scale():
    sched = Scheduler()
    counter = {"n": 0}

    def body():
        counter["n"] += 1
        sched.yield_point()
        counter["n"] += 1

    for _ in range(32):
        sched.spawn(body)
    sched.run()
    assert counter["n"] == 64


def test_long_parked_thread_is_not_a_hang(monkeypatch):
    """A thread parked far longer than the slice timeout, while a sibling
    keeps switching, resumes: only a stalled run is a hang."""
    monkeypatch.setattr(threads, "_SLICE_TIMEOUT", 0.5)
    sched = Scheduler()
    slices = {"n": 0}
    out = []

    def worker():
        for _ in range(15):                # parks the waiter for ~0.75 s
            time.sleep(0.05)
            slices["n"] += 1
            sched.yield_point()

    def waiter():
        sched.block_until(lambda: slices["n"] == 15, "wait for 15 slices")
        out.append("resumed")

    sched.spawn(waiter)
    sched.spawn(worker)
    sched.run()
    assert out == ["resumed"]


def _spinners(sched, n, rounds):
    def body():
        for _ in range(rounds):
            sched.current().vtime += 1
            sched.yield_point()
    for _ in range(n):
        sched.spawn(body)


def test_pick_override_error_mid_run_surfaces_from_run():
    sched = Scheduler()
    _spinners(sched, 3, 20)
    picks = []

    def override(ready):
        if len(picks) == 10:
            raise ReplayDivergenceError("pick", 10, 0, [t.id for t in ready])
        picks.append(ready[0].id)
        return ready[0]

    sched.pick_override = override
    with pytest.raises(ReplayDivergenceError) as ei:
        sched.run()
    assert ei.value.index == 10
    # the pick ran on a simulated thread, yet every thread unwound
    assert all(t.state == ThreadState.DONE for t in sched.threads)
    assert not any(t._real.is_alive() for t in sched.threads)


def test_single_thread_resumes_itself_without_handoff():
    sched = Scheduler()
    _spinners(sched, 1, 25)
    sched.run()
    # only the master's first slice is an OS handoff
    assert sched.switches == 26
    assert sched.self_picks == sched.switches - 1
    assert sched.stats() == {"switches": 26, "self_picks": 25,
                             "cpu": sched.cpu}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no per-thread CPU affinity on this platform")
def test_simulated_threads_share_one_pinned_cpu():
    sched = Scheduler()
    seen = []

    def body():
        seen.append(os.sched_getaffinity(0))
        sched.yield_point()
        seen.append(os.sched_getaffinity(0))

    sched.spawn(body)
    sched.spawn(body)
    master_mask = os.sched_getaffinity(0)
    sched.run()
    if sched.cpu is None:
        pytest.skip("the platform refused the affinity call")
    assert sched.cpu == min(master_mask)
    assert seen == [{sched.cpu}] * 4
    assert os.sched_getaffinity(0) == master_mask   # the master stays free


def test_run_completes_unpinned_when_affinity_fails(monkeypatch):
    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    sched = Scheduler()
    sched.cpu = 0          # as if the platform offered affinity
    _spinners(sched, 2, 5)
    sched.run()
    assert sched.cpu is None
    assert sched.stats()["cpu"] is None
    assert all(t.state == ThreadState.DONE for t in sched.threads)


def test_stalled_run_is_declared_hung(monkeypatch):
    monkeypatch.setattr(threads, "_SLICE_TIMEOUT", 0.1)
    sched = Scheduler()

    def stuck():
        time.sleep(0.5)            # no scheduling point for 5 timeouts
        sched.yield_point()

    sched.spawn(stuck)
    with pytest.raises(MachineError, match="thread 0 hung"):
        sched.run()
    # the stuck thread unwinds at its next scheduling point
    assert sched.threads[0].state == ThreadState.DONE


def test_exactly_one_thread_runs_under_fast_interpreter_switching():
    """More simulated threads than cores, the interpreter asked to switch
    threads as often as it can: slices still never overlap."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sched = Scheduler(RngHub(3))
        tape = []
        sched.pick_observer = tape.append
        holder = [None]
        total = {"n": 0}
        progress = [0] * 8

        def worker(k):
            def body():
                me = sched.current()
                for i in range(100):
                    assert holder[0] is None
                    holder[0] = me
                    n = total["n"]
                    sum(range(50))             # widen the update window
                    total["n"] = n + 1
                    progress[k] += 1
                    holder[0] = None
                    if k and i % 5 == 0:
                        sched.block_until(
                            lambda: progress[k - 1] >= progress[k],
                            f"{k} trails {k - 1}")
                    else:
                        sched.yield_point()
            return body

        for k in range(8):
            sched.spawn(worker(k))
        sched.run()
    finally:
        sys.setswitchinterval(old)
    assert total["n"] == 800
    assert sched.switches == len(tape)
    assert not any(t._real.is_alive() for t in sched.threads)


# -- the running-thread handle ------------------------------------------------


def _assert_no_current(sched):
    with pytest.raises(MachineError, match="not running on a simulated"):
        sched.current()
    with pytest.raises(MachineError):
        sched.current_id()
    assert sched.maybe_current() is None


def test_no_current_thread_before_run():
    sched = Scheduler()
    sched.spawn(lambda: None)
    _assert_no_current(sched)


def test_no_current_thread_after_clean_run():
    sched = Scheduler()
    for _ in range(3):
        sched.spawn(sched.yield_point)
    sched.run()
    _assert_no_current(sched)


def test_no_current_thread_after_guest_exception():
    sched = Scheduler()

    def boom():
        sched.yield_point()
        raise ValueError("guest bug")

    sched.spawn(lambda: sched.block_until(lambda: False, "parked"))
    sched.spawn(boom)
    with pytest.raises(ValueError):
        sched.run()
    _assert_no_current(sched)


def test_no_current_thread_after_deadlock():
    sched = Scheduler()
    sched.spawn(lambda: sched.block_until(lambda: False, "forever"))
    sched.spawn(sched.yield_point)
    with pytest.raises(SimDeadlock):
        sched.run()
    _assert_no_current(sched)


def test_each_thread_reads_itself_across_yields_and_blocks():
    """Four threads, each checking ``current()`` before and after every
    yield and every block, with a barrier-like wait in the middle."""
    sched = Scheduler(RngHub(3))
    me = {}
    arrived = []
    seen = []

    def body(k):
        def run():
            t = me[k]
            for i in range(4):
                assert sched.current() is t and sched.maybe_current() is t
                assert sched.current_id() == t.id
                t.vtime += k + 1
                sched.yield_point()
                assert sched.current() is t
                seen.append((k, i))
            arrived.append(k)
            sched.block_until(lambda: len(arrived) == 4, "all arrive")
            assert sched.current() is t and sched.current_id() == t.id
            sched.yield_point()
            assert sched.current() is t
        return run

    for k in range(4):
        me[k] = sched.spawn(body(k))
    sched.run()
    assert sorted(seen) == [(k, i) for k in range(4) for i in range(4)]
    assert sched.switches > 16
    _assert_no_current(sched)
