"""Tests for the overhead-attribution profiler (repro.obs.prof/profdoc).

Five groups:

* profiler unit semantics — disabled no-op, hint consumption, frame
  fallback chain, folded rendering;
* exactness + determinism — bucket sums equal ``CostModel.vtime_ops``
  bit-for-bit, and the same program+seed yields byte-identical folded
  output across runs;
* mode agreement — ``record_mode="sync"`` vs full recording agree on
  every non-access bucket, and an elision before/after pair names the
  elided access bucket as the top diff delta;
* the ``taskgrind-profile/1`` document — round-trip, strict corruption
  detection (CRC, seq, truncation), and the tracecheck CLI integration;
* CLI wiring — ``repro profile run/diff/show/check``.
"""

import json

import pytest

from repro.bench.runner import run_benchmark
from repro.bench.synth import REGISTRY as SYNTH
from repro.core.tool import TaskgrindOptions
from repro.errors import (ProfileCorruptionError, ProfileError,
                          ProfileFormatError)
from repro.machine.machine import Machine
from repro.obs import profdoc
from repro.obs.prof import NO_FRAME, Profiler, format_ops, get_profiler
from repro.obs.profdoc import (diff_profiles, load_profile, save_profile,
                               validate_profile_doc)


def program(name):
    for p in SYNTH:
        if p.name == name:
            return p
    raise LookupError(name)


@pytest.fixture
def prof():
    """The process singleton, disabled+reset after the test (the hooks
    prebind it at import time, same as the tracer)."""
    p = get_profiler()
    yield p
    p.disable()
    p.reset()


def profiled_run(name, *, seed=0, record_mode="full", elide=True):
    """Run one synth program with the profiler armed; return the profiler
    still holding that run's buckets (caller snapshots before reuse)."""
    p = get_profiler()
    p.enable()
    options = TaskgrindOptions(record_mode=record_mode, elide_sites=elide)
    result = run_benchmark(program(name), "taskgrind", nthreads=4,
                           seed=seed, taskgrind_options=options)
    p.disable()
    return p, result


# ---------------------------------------------------------------------------
# profiler unit semantics
# ---------------------------------------------------------------------------

class TestProfilerUnit:
    def test_disabled_by_default_and_empty(self):
        p = Profiler()
        assert not p.enabled
        assert len(p) == 0
        assert p.folded() == ""

    def test_enable_drops_prior_state(self):
        p = Profiler()
        p.enable()
        p.charge(0, "compute", 10.0, frame="f")
        p.count("hb.query.label")
        assert len(p) == 2
        p.enable()
        assert len(p) == 0
        assert p.total_ops == 0.0

    def test_charge_accumulates_per_key(self):
        p = Profiler()
        p.enable()
        p.charge(0, "compute", 10.0, frame="main")
        p.charge(0, "compute", 5.0, frame="main")
        p.charge(1, "compute", 7.0, frame="main")
        assert p.vtime_cells() == [(0, "compute", "main", 15.0),
                                   (1, "compute", "main", 7.0)]
        assert p.total_ops == 22.0
        assert p.class_totals() == {"compute": 22.0}
        assert p.thread_class_totals(1) == {"compute": 7.0}

    def test_access_hint_is_consumed_once(self):
        p = Profiler()
        p.enable()
        p.hint_access("elide.noop")
        assert p.take_access_hint("record.access") == "elide.noop"
        # the hint is one-shot: the next charge sees the default again
        assert p.take_access_hint("record.access") == "record.access"

    def test_frame_fallback_chain(self):
        p = Profiler()
        p.enable()
        assert p.frame_for(3) == "t3"
        p.bind_ancestry_provider(lambda tid: f"task:{tid}")
        assert p.frame_for(3) == "task:3"
        p.bind_frame_provider(lambda tid: None)   # no shadow stack yet
        assert p.frame_for(3) == "task:3"
        p.bind_frame_provider(lambda tid: "main;leaf")
        assert p.frame_for(3) == "main;leaf"

    def test_folded_is_sorted_and_integral(self):
        p = Profiler()
        p.enable()
        p.charge(1, "sync", 2.0, frame="b")
        p.charge(0, "compute", 10.0, frame="a")
        assert p.folded() == "t0;a;compute 10\nt1;b;sync 2\n"

    def test_format_ops(self):
        assert format_ops(10.0) == "10"
        assert format_ops(3) == "3"
        assert format_ops(2.5) == "2.5"

    def test_count_axis_separate_from_vtime(self):
        p = Profiler()
        p.enable()
        p.count("hb.query.dp", n=3)
        p.count("hb.query.dp")
        assert p.count_cells() == [("hb.query.dp", NO_FRAME, 4)]
        assert p.total_ops == 0.0
        assert p.folded() == ""          # counts never enter the flamegraph


# ---------------------------------------------------------------------------
# exactness + determinism
# ---------------------------------------------------------------------------

class TestExactness:
    def test_bucket_sums_equal_vtime_ops_exactly(self, prof):
        from repro.core.tool import TaskgrindTool
        from repro.openmp.api import make_env
        from repro.workloads.synthetic import omp_heat
        prof.enable()
        machine = Machine(seed=0)
        tool = TaskgrindTool(TaskgrindOptions())
        machine.add_tool(tool)
        env = make_env(machine, nthreads=4, source_file="heat.c")
        env.rt.ompt.register(tool.make_ompt_shim())
        machine.run(lambda: omp_heat(env, n=64, steps=4, chunks=4))
        vt = machine.cost.vtime_ops
        assert vt > 0
        # bit-identical, not approximately equal: the profiler mirrors the
        # serialized clock's additions in charge order
        assert prof.total_ops == vt
        assert sum(ops for *_, ops in prof.vtime_cells()) == vt

    def test_disabled_profiler_stays_empty_during_run(self, prof):
        assert not prof.enabled
        run_benchmark(program("fib"), "taskgrind", nthreads=2, seed=0)
        assert len(prof) == 0

    def test_same_seed_byte_identical_folded(self, prof):
        p, _ = profiled_run("heat", seed=7)
        first = p.folded()
        first_total = p.total_ops
        p2, _ = profiled_run("heat", seed=7)
        assert p2.folded() == first
        assert p2.total_ops == first_total

    def test_different_programs_differ(self, prof):
        p, _ = profiled_run("heat", seed=0)
        heat = p.folded()
        p2, _ = profiled_run("fib", seed=0)
        assert p2.folded() != heat


# ---------------------------------------------------------------------------
# mode agreement
# ---------------------------------------------------------------------------

#: classes whose cost legitimately depends on the access-recording mode
ACCESS_CLASSES = ("record.", "elide.", "suppress.", "access.")


class TestModeAgreement:
    def test_sync_and_full_agree_on_non_access_buckets(self, prof):
        p, _ = profiled_run("heat", record_mode="full")
        full = {k: v for k, v in p.class_totals().items()
                if not k.startswith(ACCESS_CLASSES)}
        p2, _ = profiled_run("heat", record_mode="sync")
        sync = {k: v for k, v in p2.class_totals().items()
                if not k.startswith(ACCESS_CLASSES)}
        assert full and sync
        assert full == sync
        # and the sync pass actually took the cheap branch
        assert "record.sync-skip" in p2.class_totals()

    def test_elision_diff_names_elided_bucket(self, prof, tmp_path):
        p, _ = profiled_run("scratch", elide=False)
        a = tmp_path / "a.json"
        save_profile(str(a), p)
        p2, _ = profiled_run("scratch", elide=True)
        b = tmp_path / "b.json"
        save_profile(str(b), p2)
        diff = diff_profiles(load_profile(str(a)), load_profile(str(b)))
        top = diff["top_regression"]
        assert top is not None
        assert top["klass"] == "elide.noop"
        # and the record path shrank by the same class movement
        shrunk = [r for r in diff["buckets"]
                  if r["klass"] == "record.access" and r["delta"] < 0]
        assert shrunk


# ---------------------------------------------------------------------------
# the taskgrind-profile/1 document
# ---------------------------------------------------------------------------

class TestProfileDoc:
    def make_profile(self, tmp_path, name="p.json"):
        p = get_profiler()
        p.enable()
        p.charge(0, "compute", 10.0, frame="main")
        p.charge(1, "sync", 4.0, frame="main;leaf")
        p.count("hb.query.label", n=2)
        p.meta["program"] = "unit"
        path = tmp_path / name
        save_profile(str(path), p,
                     phases={"record": {"count": 1, "wall_s": 0.5,
                                        "vtime_ops": 14.0}})
        p.disable()
        p.reset()
        return path

    def test_round_trip(self, prof, tmp_path):
        path = self.make_profile(tmp_path)
        doc = load_profile(str(path))
        assert doc["schema"] == "taskgrind-profile/1"
        assert doc["vtime"] == [[0, "compute", "main", 10.0],
                                [1, "sync", "main;leaf", 4.0]]
        assert doc["counts"] == [["hb.query.label", NO_FRAME, 2]]
        assert doc["meta"]["program"] == "unit"
        assert doc["meta"]["total_ops"] == 14.0
        assert doc["phases"]["record"]["vtime_ops"] == 14.0
        assert validate_profile_doc(str(path)) == []

    def test_folded_from_doc_matches_live(self, prof, tmp_path):
        p, _ = profiled_run("fib")
        live = p.folded()
        path = tmp_path / "fib.json"
        save_profile(str(path), p)
        assert profdoc.to_folded(load_profile(str(path))) == live

    def test_crc_corruption_detected(self, prof, tmp_path):
        path = self.make_profile(tmp_path)
        lines = path.read_text().splitlines()
        chunk = json.loads(lines[1])
        chunk["payload"]["cells"][0][3] = 9999.0   # tamper, keep old crc
        lines[1] = json.dumps(chunk)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProfileCorruptionError) as exc:
            load_profile(str(path))
        assert "checksum" in str(exc.value)
        assert any("checksum" in e for e in validate_profile_doc(str(path)))

    def test_truncation_detected(self, prof, tmp_path):
        path = self.make_profile(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")   # drop the end chunk
        with pytest.raises(ProfileCorruptionError) as exc:
            load_profile(str(path))
        assert "truncated" in str(exc.value)

    def test_seq_gap_detected(self, prof, tmp_path):
        path = self.make_profile(tmp_path)
        lines = path.read_text().splitlines()
        del lines[1]                                    # hole in the stream
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProfileCorruptionError) as exc:
            load_profile(str(path))
        assert "seq" in str(exc.value)

    def test_wrong_schema_is_format_error(self, prof, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"seq": 0, "kind": "header", "crc": 0, "payload": {}}) + "\n")
        with pytest.raises(ProfileError):
            load_profile(str(path))
        # a wrong-schema header with a *valid* crc is a format error
        from repro.util.chunks import payload_crc
        payload = {"schema": "other/9", "version": 9}
        path.write_text(json.dumps(
            {"seq": 0, "kind": "header", "crc": payload_crc(payload),
             "payload": payload}) + "\n")
        with pytest.raises(ProfileFormatError):
            load_profile(str(path))

    @pytest.mark.parametrize("kind,cell", [
        ("vtime", [0, ["x"], "main", 1.0]),
        ("vtime", [0, "compute", None, 1.0]),
        ("vtime", ["0", "compute", "main", 1.0]),
        ("vtime", [0, "compute", "main", -1.0]),
        ("vtime", [0, "compute", "main", float("inf")]),
        ("vtime", [0, "compute", "main", True]),
        ("vtime", [0, "compute", "main"]),
        ("counts", [["hb"], NO_FRAME, 2]),
        ("counts", ["hb.query.label", 7, 2]),
        ("counts", ["hb.query.label", NO_FRAME, 2.5]),
        ("counts", ["hb.query.label", NO_FRAME, -2]),
        ("counts", "hb.query.label"),
    ], ids=["list-class", "null-frame", "string-tid", "negative-ops",
            "infinite-ops", "bool-ops", "short", "list-class-count",
            "int-frame", "float-count", "negative-count", "not-a-list"])
    def test_malformed_cell_is_a_format_problem(self, prof, tmp_path,
                                                capsys, kind, cell):
        """A CRC-valid cell of another shape used to pass ``profile
        check`` (a list-valued class), and ``profile show``/``diff`` then
        ended in ``TypeError: unhashable type: 'list'`` (or, for an
        infinite op count, ``OverflowError``)."""
        from repro.util.chunks import payload_crc
        path = self.make_profile(tmp_path)
        lines = path.read_text().splitlines()
        seq = next(i for i, line in enumerate(lines)
                   if json.loads(line)["kind"] == kind)
        chunk = json.loads(lines[seq])
        chunk["payload"]["cells"][0] = cell
        chunk["crc"] = payload_crc(chunk["payload"])
        lines[seq] = json.dumps(chunk)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProfileFormatError, match=f"malformed {kind}"):
            load_profile(str(path))
        assert validate_profile_doc(str(path)) \
            == [f"chunk {seq}: malformed {kind} cell {cell!r}"]
        assert profdoc.main(["check", str(path)]) == 1
        assert profdoc.main(["show", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_total_ops_cross_check(self, prof, tmp_path):
        path = self.make_profile(tmp_path)
        lines = path.read_text().splitlines()
        from repro.util.chunks import payload_crc
        for i, line in enumerate(lines):
            chunk = json.loads(line)
            if chunk["kind"] == "meta":
                chunk["payload"]["total_ops"] = 999.0
                chunk["crc"] = payload_crc(chunk["payload"])
                lines[i] = json.dumps(chunk)
        path.write_text("\n".join(lines) + "\n")
        problems = validate_profile_doc(str(path))
        assert any("total_ops" in e for e in problems)

    def test_tracecheck_validates_profiles(self, prof, tmp_path, capsys):
        from repro.obs.tracecheck import main as tracecheck_main
        path = self.make_profile(tmp_path)
        assert tracecheck_main([str(path)]) == 0
        assert "taskgrind-profile/1" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert tracecheck_main([str(path)]) == 1
        assert "truncated" in capsys.readouterr().err

    def test_tracecheck_still_handles_timelines(self, tmp_path, capsys):
        from repro.obs.tracecheck import main as tracecheck_main
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert tracecheck_main([str(path)]) == 0


# ---------------------------------------------------------------------------
# diffing + the perf gate's blame line
# ---------------------------------------------------------------------------

class TestDiff:
    def test_diff_profiles_identical_is_empty(self):
        doc = {"vtime": [[0, "compute", "m", 5.0]]}
        d = diff_profiles(doc, doc)
        assert d["buckets"] == []
        assert d["top_regression"] is None
        assert d["delta_total"] == 0.0

    def test_diff_sums_threads_into_buckets(self):
        a = {"vtime": [[0, "compute", "m", 5.0], [1, "compute", "m", 5.0]]}
        b = {"vtime": [[0, "compute", "m", 20.0]]}
        d = diff_profiles(a, b)
        assert d["buckets"] == [{"klass": "compute", "frame": "m",
                                 "a": 10.0, "b": 20.0, "delta": 10.0}]
        assert d["top_regression"]["delta"] == 10.0


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

class TestCli:
    def test_profile_run_writes_doc_and_flame(self, prof, tmp_path, capsys):
        out = tmp_path / "p.json"
        flame = tmp_path / "p.folded"
        rc = profdoc.main(["run", "fib", "--threads", "2",
                           "--out", str(out), "--flame", str(flame)])
        assert rc == 0
        doc = load_profile(str(out))
        assert doc["meta"]["program"] == "fib"
        folded = flame.read_text()
        assert folded.endswith("\n")
        assert any(";translate " in ln or ";compute " in ln
                   for ln in folded.splitlines())
        assert validate_profile_doc(str(out)) == []
        # the profiler singleton is left disabled for the next caller
        assert not get_profiler().enabled

    def test_profile_run_unknown_program(self, prof, capsys):
        assert profdoc.main(["run", "no-such-program"]) == 2

    def test_profile_diff_cli(self, prof, tmp_path, capsys):
        p, _ = profiled_run("scratch", elide=False)
        a = tmp_path / "a.json"
        save_profile(str(a), p)
        p2, _ = profiled_run("scratch", elide=True)
        b = tmp_path / "b.json"
        save_profile(str(b), p2)
        rc = profdoc.main(["diff", str(a), str(b)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top regressing bucket: elide.noop" in out
        assert profdoc.main(["diff", str(a), str(b),
                             "--fail-on-regression"]) == 1

    def test_profile_show_and_check(self, prof, tmp_path, capsys):
        p, _ = profiled_run("fib")
        path = tmp_path / "p.json"
        save_profile(str(path), p)
        assert profdoc.main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compute" in out
        assert profdoc.main(["check", str(path)]) == 0
        path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
        assert profdoc.main(["check", str(path)]) == 1

    def test_profile_show_unwritable_flame(self, prof, tmp_path, capsys):
        """A flame path in a missing directory is one ``error:`` line
        naming it, exit 2, not a traceback."""
        p, _ = profiled_run("fib")
        path = tmp_path / "p.json"
        save_profile(str(path), p)
        bad = str(tmp_path / "missing" / "p.folded")
        assert profdoc.main(["show", str(path), "--flame", bad]) == 2
        assert f"error: cannot write the flamegraph input to {bad}" \
            in capsys.readouterr().err
