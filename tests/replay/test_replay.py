"""Two-phase record/replay: determinism proof, parity, tamper detection."""

import copy
from pathlib import Path

import pytest

from repro.bench.runner import _find_program, run_benchmark
from repro.core.tool import TaskgrindOptions
from repro.errors import ReplayDivergenceError
from repro.replay import (ReplayFilter, ScheduleDoc, record_bench,
                          replay_bench)
from repro.replay.cli import _canon_reports, main as replay_main

#: sync-pass schedules saved by ``repro run <wl> --record sync
#: --save-schedule`` under the master-relayed scheduler
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def fib_recording():
    return record_bench(_find_program("fib"))


@pytest.fixture(scope="module")
def racy_recording():
    return record_bench(_find_program("heat-racy"))


@pytest.fixture(scope="module")
def racy_single_pass():
    """The classic one-pass full-instrumentation run, same seed/threads."""
    return run_benchmark(_find_program("heat-racy"), "taskgrind",
                         nthreads=4, seed=0,
                         taskgrind_options=TaskgrindOptions())


class TestSyncRecording:
    def test_sync_pass_keeps_no_evidence_and_reports_nothing(
            self, racy_recording):
        result, doc = racy_recording
        assert result.report_count == 0
        assert result.stats["record"]["mode"] == "sync"
        assert result.stats["record"]["recorded_accesses"] == 0
        assert result.stats["record"]["sync_skipped_accesses"] > 0

    def test_schedule_captures_the_interleaving(self, racy_recording):
        _, doc = racy_recording
        assert doc.picks and doc.segments and doc.edges
        assert doc.final_vclock > 0
        # the recorder sees the seeded scheduler's own draws too —
        # the replayer excludes sched.* when cross-checking rng patterns
        assert any(k.startswith("sched.") for k in doc.rng_draws)

    def test_program_ref_names_the_bench(self, racy_recording):
        _, doc = racy_recording
        assert doc.program["kind"] == "bench"
        assert doc.program["name"] == "heat-racy"


class TestReplayParity:
    def test_replay_holds_and_consumes_the_whole_recording(
            self, racy_recording):
        _, doc = racy_recording
        result, session = replay_bench(doc)
        assert session.picks_used == len(doc.picks)
        assert session.segments_checked == len(doc.segments)
        assert session.edges_checked == len(doc.edges)
        assert result.stats["record"]["mode"] == "full"

    def test_replayed_verdict_equals_single_pass(self, racy_recording,
                                                 racy_single_pass):
        _, doc = racy_recording
        result, _ = replay_bench(doc)
        assert result.report_count == racy_single_pass.report_count > 0
        assert _canon_reports(result.reports, None) \
            == _canon_reports(racy_single_pass.reports, None)

    def test_clean_program_replays_clean(self, fib_recording):
        _, doc = fib_recording
        result, _ = replay_bench(doc)
        assert result.report_count == 0

    def test_retired_kernel_option_still_replays(self, racy_recording,
                                                 racy_single_pass):
        """A schedule recorded while ``analysis_kernel`` and ``analysis``
        were options still replays; the keys select nothing."""
        _, doc = racy_recording
        data = copy.deepcopy(doc.to_dict())
        data["program"]["options"].update(analysis_kernel="python",
                                          analysis="parallel")
        result, _ = replay_bench(ScheduleDoc.from_dict(data))
        assert _canon_reports(result.reports, None) \
            == _canon_reports(racy_single_pass.reports, None)


class TestCommittedSchedules:
    """Schedules recorded by an earlier version of the scheduler replay
    under this one, with verdicts identical to a fresh single pass."""

    @pytest.mark.parametrize("name,rc", [("sched-fib.json", 0),
                                         ("sched-heat-racy.json", 1)])
    def test_replays_with_single_pass_parity(self, name, rc, capsys):
        assert replay_main([str(DATA / name), "--verify-single-pass"]) == rc
        assert "parity: replayed verdicts identical" in capsys.readouterr().out


class TestPartialReplay:
    def test_addr_filter_parity_with_clipped_full_run(self, racy_recording,
                                                      racy_single_pass):
        _, doc = racy_recording
        flt = ReplayFilter.parse(["0x10000078:0x10000090"], [])
        result, _ = replay_bench(doc, replay_filter=flt)
        want = _canon_reports(racy_single_pass.reports, flt)
        assert want, "filter range must cover some of the planted race"
        assert _canon_reports(result.reports, flt) == want
        replay_stats = result.stats["replay"]
        assert replay_stats["dropped_accesses"] > 0
        assert replay_stats["filter"]["addr_ranges"]

    def test_pair_filter_restricts_candidates(self, racy_recording,
                                              racy_single_pass):
        _, doc = racy_recording
        full_pairs = {(r.s1.id, r.s2.id) for r in racy_single_pass.reports}
        keep = next(iter(full_pairs))
        flt = ReplayFilter.parse([], [f"{keep[0]}:{keep[1]}"])
        result, _ = replay_bench(doc, replay_filter=flt)
        assert {(r.s1.id, r.s2.id) for r in result.reports} <= {keep}
        assert _canon_reports(result.reports, flt) \
            == _canon_reports(racy_single_pass.reports, flt)


class TestTamperDetection:
    def test_impossible_pick_diverges_immediately(self, fib_recording):
        _, doc = fib_recording
        bad = ScheduleDoc.from_dict(copy.deepcopy(doc.to_dict()))
        bad.picks[0] = 999
        with pytest.raises(ReplayDivergenceError) as exc:
            replay_bench(bad)
        assert exc.value.what == "pick"
        assert exc.value.index == 0
        assert exc.value.expected == 999
        assert exc.value.to_dict()["what"] == "pick"

    def test_tampered_vclock_checkpoint_diverges(self, fib_recording):
        _, doc = fib_recording
        bad = ScheduleDoc.from_dict(copy.deepcopy(doc.to_dict()))
        bad.segments[1][3] += 1.0
        with pytest.raises(ReplayDivergenceError) as exc:
            replay_bench(bad)
        assert exc.value.what == "vclock"

    def test_vclock_check_can_be_waived(self, fib_recording):
        _, doc = fib_recording
        bad = ScheduleDoc.from_dict(copy.deepcopy(doc.to_dict()))
        for seg in bad.segments:
            seg[3] += 1.0
        bad.final_vclock += 1.0
        result, _ = replay_bench(bad, check_vclock=False)
        assert result.report_count == 0

    def test_tampered_edge_diverges(self, fib_recording):
        _, doc = fib_recording
        bad = ScheduleDoc.from_dict(copy.deepcopy(doc.to_dict()))
        bad.edges[0] = [bad.edges[0][1], bad.edges[0][0]]
        with pytest.raises(ReplayDivergenceError) as exc:
            replay_bench(bad)
        assert exc.value.what == "edge"

    def test_extra_recorded_pick_fails_the_count_proof(self, fib_recording):
        _, doc = fib_recording
        bad = ScheduleDoc.from_dict(copy.deepcopy(doc.to_dict()))
        bad.picks.append(bad.picks[-1])
        with pytest.raises(ReplayDivergenceError) as exc:
            replay_bench(bad)
        assert exc.value.what == "count"


class TestReplayFilter:
    def test_parse_and_clip(self):
        flt = ReplayFilter.parse(["0x100:0x200", "0x280:0x300"], [])
        assert flt.filters_addresses
        assert flt.clip(0x80, 0x110) == [(0x100, 0x110)]
        assert flt.clip(0x250, 0x260) == []
        assert flt.clip(0x1f0, 0x310) == [(0x1f0, 0x200), (0x280, 0x300)]

    def test_parse_rejects_inverted_or_empty_range(self):
        with pytest.raises(ValueError, match="empty"):
            ReplayFilter.parse(["0x300:0x280"], [])

    def test_empty_filter_admits_everything(self):
        flt = ReplayFilter()
        assert not flt.filters_addresses
        assert flt.admits_pair(3, 7)

    def test_pair_filter_is_unordered(self):
        flt = ReplayFilter.parse([], ["4:9"])
        assert flt.admits_pair(4, 9) and flt.admits_pair(9, 4)
        assert not flt.admits_pair(4, 5)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ReplayFilter.parse(["not-a-range"], [])
        with pytest.raises(ValueError):
            ReplayFilter.parse([], ["1:2:3"])

    def test_describe_is_json_friendly(self):
        flt = ReplayFilter.parse(["0:16"], ["1:2"])
        doc = flt.describe()
        assert doc["addr_ranges"] == [[0, 16]]
        assert doc["pairs"] == [[1, 2]]
