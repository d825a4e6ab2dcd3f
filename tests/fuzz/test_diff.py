"""Differential oracle + shrinker behaviour."""

import json
import os

import pytest

from repro.fuzz.diff import run_differential
from repro.fuzz.executors import fuzz_options
from repro.fuzz.gen import generate
from repro.fuzz.shrink import (load_reproducer, reproducer_doc, shrink,
                               write_reproducer)
from repro.fuzz.spec import FuzzProgram, validate
from repro.fuzz.truth import ground_truth


class TestDifferentialClean:
    def test_seed_batch_has_zero_divergences(self):
        """The standing promise the fuzz-smoke CI job enforces."""
        for seed in range(1, 16):
            result = run_differential(generate(seed), schedules=2)
            assert result.ok, (f"seed {seed}: "
                               f"{[str(d) for d in result.divergences]}")

    def test_verdict_matches_truth_fields(self):
        result = run_differential(generate(5), schedules=2)
        assert result.truth == result.vclock
        for outcome in result.outcomes:
            assert outcome.slots == result.truth


class TestDifferentialDiverges:
    SCRATCH = FuzzProgram(
        family="deps", seed=-1, nthreads=4, slots=1,
        body=[{"ops": [["scratch"]], "in": [], "out": []},
              {"ops": [["scratch"]], "in": [], "out": []}])

    def test_broken_recycling_reports_suppression(self):
        result = run_differential(
            self.SCRATCH, schedules=6,
            taskgrind_options=fuzz_options(suppress_recycling=False))
        assert not result.ok
        assert "suppression" in result.kinds()

    def test_divergence_counter_increments(self):
        from repro.obs.metrics import get_registry
        reg = get_registry()
        before = reg.counter("fuzz.divergences").value
        run_differential(
            self.SCRATCH, schedules=6,
            taskgrind_options=fuzz_options(suppress_recycling=False))
        assert reg.counter("fuzz.divergences").value > before


class TestShrinker:
    def test_minimizes_to_the_racy_core(self):
        """A racy program buried in ordered chaff shrinks to ~2 accesses."""
        noisy = FuzzProgram(
            family="tasks", seed=-1, nthreads=2, slots=4,
            body=[["r", 1], ["tls", 0], ["task", [["w", 2], ["stack"]]],
                  ["wait"], ["r", 2],
                  ["task", [["w", 0], ["r", 3]]], ["w", 0],
                  ["scratch"], ["wait"]])
        assert ground_truth(noisy) == {"s0"}

        def still_racy(candidate):
            return "s0" in ground_truth(candidate)

        small, spent = shrink(noisy, still_racy)
        assert "s0" in ground_truth(small)
        assert validate(small) is None
        assert small.op_count() <= 3
        assert spent > 0

    def test_respects_budget(self):
        p = generate(5, ensure_race=True)
        _, spent = shrink(p, lambda c: bool(ground_truth(c)), budget=7)
        assert spent <= 7

    def test_feb_transfer_removed_as_pair(self):
        p = FuzzProgram(
            family="feb", seed=-1, nthreads=2, slots=1,
            body=[{"ops": [["w", 0], ["writeEF", 0]]},
                  {"ops": [["readFE", 0], ["w", 0]]}])
        assert not ground_truth(p)

        small, _ = shrink(p, lambda c: bool(ground_truth(c)))
        # dropping the transfer pair unlocks the race with both writes kept
        assert ground_truth(small)
        assert validate(small) is None


class TestReproducerIO:
    def test_roundtrip(self, tmp_path):
        p = generate(3)
        path = write_reproducer(p, str(tmp_path), kinds=["suppression"],
                                options={"suppress_recycling": False},
                                note="unit test")
        loaded, kinds, options, note = load_reproducer(path)
        assert loaded.to_json() == p.to_json()
        assert kinds == ["suppression"]
        assert options == {"suppress_recycling": False}
        assert note == "unit test"

    def test_unknown_option_key_is_refused(self, tmp_path, capsys):
        """A misspelled override would otherwise be set on nothing, and
        the run would quietly take the default (IV-C on): the loader, the
        option builder, the CLI and the serve bench's corpus recorder all
        refuse it, naming the key."""
        from repro.bench.serve import record_corpus_trace
        from repro.fuzz.cli import main
        src = os.path.join(os.path.dirname(__file__), "corpus",
                           "deps-8fda18624ce3.json")
        with open(src) as fh:
            doc = json.load(fh)
        doc["options"] = {"suppres_tls": False}
        path = str(tmp_path / "misspelled.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match="'suppres_tls'"):
            load_reproducer(path)
        with pytest.raises(ValueError, match="'suppres_tls'"):
            fuzz_options(suppres_tls=False)
        with pytest.raises(ValueError, match="'suppres_tls'"):
            record_corpus_trace(path, str(tmp_path / "trace.json"))
        capsys.readouterr()
        assert main(["--reproducer", path, "--schedules", "1",
                     "--no-shrink"]) == 2
        assert "'suppres_tls'" in capsys.readouterr().err

    @pytest.mark.parametrize("damage,field", [
        (lambda doc: [doc], "document"),
        (lambda doc: dict(doc, program=5), "fuzz program"),
        (lambda doc: dict(doc, program=dict(doc["program"], body=5)),
         "'body'"),
        (lambda doc: dict(doc, options=5), "'options'"),
        (lambda doc: dict(doc, expect=5), "'expect'"),
        (lambda doc: dict(doc, options={"suppress_tls": "no"}),
         "'suppress_tls'"),
        (lambda doc: dict(doc, options={"suppress_stack": 0}),
         "'suppress_stack'"),
    ], ids=["list-document", "program", "body", "options", "expect",
            "tls-string", "stack-int"])
    def test_damaged_document_is_refused(self, tmp_path, capsys, damage,
                                         field):
        """A document of another shape, or a flag that is not a bool (a
        string ``"no"`` is truthy: the run would keep IV-C on), is a
        ``ValueError`` naming the field, and the CLI exits 2 without a
        traceback."""
        from repro.fuzz.cli import main
        src = os.path.join(os.path.dirname(__file__), "corpus",
                           "deps-8fda18624ce3.json")
        with open(src) as fh:
            doc = json.load(fh)
        path = str(tmp_path / "damaged.json")
        with open(path, "w") as fh:
            json.dump(damage(doc), fh)
        with pytest.raises(ValueError, match=field):
            load_reproducer(path)
        capsys.readouterr()
        assert main(["--reproducer", path, "--schedules", "1",
                     "--no-shrink"]) == 2
        err = capsys.readouterr().err
        assert "cannot load reproducer" in err and field in err

    def test_flag_of_another_type_is_refused(self):
        with pytest.raises(ValueError, match="'suppress_tls'"):
            fuzz_options(suppress_tls="no")
        with pytest.raises(ValueError, match="'elide_sites'"):
            fuzz_options(elide_sites=1)
        assert fuzz_options(suppress_tls=False).suppression.suppress_tls \
            is False

    def test_doc_shape(self):
        doc = reproducer_doc(generate(4), kinds=[])
        assert doc["schema"] == "taskgrind-fuzz-repro/1"
        assert doc["expect"] == []
        assert doc["program"]["schema"] == "taskgrind-fuzz-program/1"


class TestCli:
    def test_clean_campaign_exits_zero(self, tmp_path, capsys):
        from repro.fuzz.cli import main
        rc = main(["--seeds", "4", "--schedules", "2",
                   "--corpus-dir", str(tmp_path),
                   "--json", str(tmp_path / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 divergent -> ok" in out
        assert (tmp_path / "report.json").exists()

    def test_break_suppression_exits_nonzero_with_reproducer(self, tmp_path):
        from repro.fuzz.cli import main
        # seed 27 is a deps program with two parallel scratch tasks
        rc = main(["--seeds", "8", "--base-seed", "24", "--schedules", "3",
                   "--break-suppression", "recycling",
                   "--corpus-dir", str(tmp_path)])
        assert rc == 1
        written = list(tmp_path.glob("*.json"))
        assert written, "expected a shrunk reproducer in the corpus dir"

    def test_unknown_family_rejected(self, capsys):
        from repro.fuzz.cli import main
        assert main(["--families", "nope"]) == 2

    def test_launcher_knows_fuzz(self):
        from repro.__main__ import COMMANDS
        assert COMMANDS["fuzz"] == "repro.fuzz.cli"
