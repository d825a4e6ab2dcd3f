"""Tests for compile-time access elision (``repro.vex.elide``).

The soundness contract under test: a site is elided only when the runtime
:class:`SuppressionEngine` would have suppressed every conflict the site
could produce — so turning elision on must never change the report set, and
``--break-suppression``-style toggles must disable the matching elisions.
"""

import itertools

import pytest

from repro.core.suppress import SuppressionConfig, SuppressionEngine
from repro.core.tool import TaskgrindOptions
from repro.vex.elide import (ALLOC_LOCAL, PRIVATE_CLASSES, SHARED,
                             STACK_LOCAL, TLS_LOCAL, UNKNOWN, ElisionPlan,
                             StaticSite, join)


class TestLattice:
    def test_unknown_is_bottom(self):
        for k in (UNKNOWN, STACK_LOCAL, TLS_LOCAL, ALLOC_LOCAL, SHARED):
            assert join(UNKNOWN, k) == k
            assert join(k, UNKNOWN) == k

    def test_shared_is_top(self):
        for k in (UNKNOWN, STACK_LOCAL, TLS_LOCAL, ALLOC_LOCAL, SHARED):
            assert join(SHARED, k) == SHARED
            assert join(k, SHARED) == SHARED

    def test_idempotent(self):
        for k in (UNKNOWN, STACK_LOCAL, TLS_LOCAL, ALLOC_LOCAL, SHARED):
            assert join(k, k) == k

    def test_distinct_private_classes_escalate(self):
        for a, b in itertools.permutations(PRIVATE_CLASSES, 2):
            assert join(a, b) == SHARED

    def test_commutative_associative(self):
        classes = (UNKNOWN, STACK_LOCAL, TLS_LOCAL, ALLOC_LOCAL, SHARED)
        for a, b in itertools.product(classes, repeat=2):
            assert join(a, b) == join(b, a)
        for a, b, c in itertools.product(classes, repeat=3):
            assert join(join(a, b), c) == join(a, join(b, c))


class TestPlanGating:
    TOGGLE_FOR = {
        STACK_LOCAL: "suppress_stack",
        TLS_LOCAL: "suppress_tls",
        ALLOC_LOCAL: "suppress_recycling",
    }

    def test_each_class_follows_its_toggle(self):
        for klass, toggle in self.TOGGLE_FOR.items():
            on = ElisionPlan(SuppressionConfig())
            off = ElisionPlan(SuppressionConfig(**{toggle: False}))
            assert on.site_elidable(klass)
            assert not off.site_elidable(klass)
            # other classes stay elidable under a foreign toggle
            for other in PRIVATE_CLASSES:
                if other != klass:
                    assert off.site_elidable(other)

    def test_shared_and_unknown_never_elidable(self):
        plan = ElisionPlan(SuppressionConfig())
        assert not plan.site_elidable(SHARED)
        assert not plan.site_elidable(UNKNOWN)

    def test_engine_delegates(self):
        eng = SuppressionEngine(space=None,
                                config=SuppressionConfig(suppress_tls=False))
        assert eng.site_elidable(STACK_LOCAL)
        assert not eng.site_elidable(TLS_LOCAL)

    def test_declare_returns_token_only_when_elided(self):
        plan = ElisionPlan(SuppressionConfig(suppress_stack=False))
        tls = plan.declare("t", TLS_LOCAL, symbol="f", file="f.c", line=3)
        stk = plan.declare("s", STACK_LOCAL, symbol="f", file="f.c", line=4)
        assert isinstance(tls, StaticSite) and tls.klass == TLS_LOCAL
        assert stk is None
        # both declarations are recorded for the stats doc
        assert len(plan.sites) == 2
        assert plan.elided_sites == 1

    def test_disabled_plan_elides_nothing(self):
        plan = ElisionPlan(SuppressionConfig(), enabled=False)
        assert plan.declare("t", TLS_LOCAL, symbol="f", file="", line=0) \
            is None
        assert plan.elided_sites == 0

    def test_note_accumulates_and_stats_doc(self):
        plan = ElisionPlan(SuppressionConfig())
        site = plan.declare("buf", ALLOC_LOCAL, symbol="work",
                            file="w.c", line=9)
        plan.note(site, 3)
        plan.note(site)
        doc = plan.stats_doc()
        assert doc["enabled"] is True
        assert doc["elided_sites"] == 1
        assert plan.elided_accesses == 4
        (entry,) = doc["sites"]
        assert entry["name"] == "buf" and entry["class"] == ALLOC_LOCAL
        assert entry["elided"] is True and entry["accesses"] == 4


def report_keys(tool):
    return sorted((r.key(), tuple(r.ranges.pairs())) for r in tool.reports)


def stack_private_body(env):
    def task_body(tv):
        z = env.ctx.stack_var("z", 8, elem=8, private=True)
        z.write(0)
        z.read(0)

    def make():
        for _ in range(2):
            env.task(task_body, annotate_deferrable=True)
        env.taskwait()
    env.parallel_single(make, num_threads=1)


def tls_private_body(env):
    def task_body(tv):
        t = env.ctx.tls_var("t", 8, elem=8, private=True)
        t.write(0)
        t.read(0)

    def make():
        for _ in range(2):
            env.task(task_body, annotate_deferrable=True)
        env.taskwait()
    env.parallel_single(make, num_threads=1)


def alloc_private_body(env):
    def task_body(tv):
        x = env.ctx.malloc(8, name="scratch", elem=8, private=True)
        x.write(0)
        x.read(0)
        env.ctx.free(x)

    def make():
        for _ in range(2):
            env.task(task_body, annotate_deferrable=True)
        env.taskwait()
    env.parallel_single(make, num_threads=1)


def shared_racy_body(env):
    # parent-frame variable written by both tasks: a real race that no
    # elision (and no runtime suppression) may remove
    y = env.ctx.stack_var("y", 8, elem=8)

    def make():
        for _ in range(2):
            env.task(lambda tv: y.write(0), annotate_deferrable=True)
        env.taskwait()
    env.parallel_single(make, num_threads=1)


PRIVATE_BODIES = [("stack", stack_private_body),
                  ("tls", tls_private_body),
                  ("alloc", alloc_private_body)]


class TestEndToEnd:
    @pytest.mark.parametrize("klass,body",
                             PRIVATE_BODIES, ids=[k for k, _ in PRIVATE_BODIES])
    def test_elision_fires_and_reports_unchanged(self, run_taskgrind,
                                                 klass, body):
        on = TaskgrindOptions()
        off = TaskgrindOptions()
        off.elide_sites = False
        tool_on, _ = run_taskgrind(body, nthreads=1, options=on)
        tool_off, _ = run_taskgrind(body, nthreads=1, options=off)
        assert report_keys(tool_on) == report_keys(tool_off) == []
        supp_on = tool_on.stats()["suppress"]
        assert supp_on["elided_sites"] >= 1
        assert supp_on["elided_accesses"] >= 1
        assert any(s["class"] == klass and s["elided"]
                   for s in supp_on["elision"]["sites"])
        assert tool_off.stats()["suppress"]["elided_accesses"] == 0

    @pytest.mark.parametrize("klass,body",
                             PRIVATE_BODIES, ids=[k for k, _ in PRIVATE_BODIES])
    def test_broken_suppression_disables_matching_elision(self, run_taskgrind,
                                                          klass, body):
        """Elision ⊆ runtime suppression: with the class's runtime toggle
        off, the site must NOT be elided — accesses flow to the normal
        recording path exactly as before the elision layer existed."""
        toggle = {"stack": "suppress_stack", "tls": "suppress_tls",
                  "alloc": "suppress_recycling"}[klass]
        broken = TaskgrindOptions()
        setattr(broken.suppression, toggle, False)
        broken_off = TaskgrindOptions()
        setattr(broken_off.suppression, toggle, False)
        broken_off.elide_sites = False
        tool, _ = run_taskgrind(body, nthreads=1, options=broken)
        tool_off, _ = run_taskgrind(body, nthreads=1, options=broken_off)
        supp = tool.stats()["suppress"]
        assert not any(s["class"] == klass and s["elided"]
                       for s in supp["elision"]["sites"])
        # verdict parity with elision fully off under the same broken config
        assert report_keys(tool) == report_keys(tool_off)

    def test_shared_conflict_survives_elision(self, run_taskgrind):
        tool, _ = run_taskgrind(shared_racy_body, nthreads=1)
        assert len(tool.reports) >= 1

    def test_stats_schema_fields_present(self, run_taskgrind):
        tool, _ = run_taskgrind(stack_private_body, nthreads=1)
        doc = tool.stats()
        supp = doc["suppress"]
        assert {"elided_sites", "elided_accesses", "elision"} <= supp.keys()
        assert "mode" not in doc["analysis"]
        for site in supp["elision"]["sites"]:
            assert {"name", "class", "elided", "accesses"} <= site.keys()

    def test_elision_subset_of_runtime_suppression(self, run_taskgrind):
        """Property over the full toggle cube: for every combination of the
        three runtime toggles, elide-on and elide-off agree on reports for
        every private fixture."""
        toggles = ("suppress_stack", "suppress_tls", "suppress_recycling")
        for bits in itertools.product((True, False), repeat=3):
            for _, body in PRIVATE_BODIES:
                opts = {}
                for name, val in zip(toggles, bits):
                    opts[name] = val
                on = TaskgrindOptions()
                off = TaskgrindOptions()
                off.elide_sites = False
                for name, val in opts.items():
                    setattr(on.suppression, name, val)
                    setattr(off.suppression, name, val)
                tool_on, _ = run_taskgrind(body, nthreads=1, options=on)
                tool_off, _ = run_taskgrind(body, nthreads=1, options=off)
                assert report_keys(tool_on) == report_keys(tool_off), \
                    f"divergence with toggles={opts}"
