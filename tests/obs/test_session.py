"""Tests for the run scope and the command session (repro.obs.session).

Every command that records a timeline or a profile goes through one
session: the launcher, ``repro.core.offline``, ``repro run``, ``repro
fuzz`` and ``repro profile run``.  On every exit path (success, an
unreadable input, an unwritable output, an exception inside the run) the
process-wide tracer and profiler end disabled, with no frame provider
bound to the finished machine.  Every other document a command writes
goes through the session's writer too, so an unwritable path ends typed.
"""

import importlib
import json
from pathlib import Path

import pytest

from repro.obs.metrics import get_registry
from repro.obs.prof import get_profiler
from repro.obs.profdoc import validate_profile_doc
from repro.obs.session import run_scope
from repro.obs.tracecheck import validate
from repro.obs.tracer import get_tracer

RACY = "027-taskdependmissing-orig"

#: output placeholder -> the file name it stands for
OUTPUTS = {"{t}": "timeline.json", "{p}": "prof.json", "{f}": "prof.folded"}

#: command -> (module whose ``main`` runs it, argv with output placeholders,
#: exit code of a successful run)
COMMANDS = {
    "launcher": ("repro.__main__", ["profile", "run", "fib", "--threads",
                                    "2", "--trace-timeline", "{t}"], 0),
    "offline": ("repro.core.offline", ["{trace}", "--profile", "{p}",
                                       "--trace-timeline", "{t}"], 1),
    "run": ("repro.bench.runner", [RACY, "--trace-timeline", "{t}"], 1),
    "fuzz": ("repro.fuzz.cli", ["--seeds", "1", "--schedules", "1",
                                "--profile", "{p}", "--corpus-dir", "{d}"],
             0),
    "profile-run": ("repro.obs.profdoc", ["run", "fib", "--threads", "2",
                                          "--out", "{p}", "--flame", "{f}"],
                    0),
}

#: command -> the function its run goes through (module, name)
RUNS = {
    "launcher": ("repro.bench.runner", "run_benchmark"),
    "offline": ("repro.core.offline", "analyze_trace_with_stats"),
    "run": ("repro.bench.runner", "run_benchmark"),
    "fuzz": ("repro.fuzz.cli", "run_differential"),
    "profile-run": ("repro.bench.runner", "run_benchmark"),
}

#: command -> (module whose ``main`` runs it, argv writing its own
#: document to ``{out}``)
DOCUMENTS = {
    "fuzz --json": ("repro.fuzz.cli", ["--seeds", "1", "--schedules", "1",
                                       "--corpus-dir", "{d}",
                                       "--json", "{out}"]),
    "replay --json": ("repro.replay.cli", [
        str(Path(__file__).resolve().parents[1] / "replay" / "data"
            / "sched-fib.json"), "--json", "{out}"]),
    "perf --json": ("repro.bench.perf", ["--json", "{out}"]),
    "fig4 --csv": ("repro.bench.fig4", ["--sizes", "4", "--csv", "{out}"]),
}


@pytest.fixture(scope="module")
def saved_trace(tmp_path_factory):
    from repro.bench.runner import main as run_main
    path = tmp_path_factory.mktemp("session") / "trace.json"
    assert run_main([RACY, "--save-trace", str(path)]) == 1
    return str(path)


@pytest.fixture(autouse=True)
def fresh_singletons():
    yield
    get_tracer().reset()
    get_profiler().disable()
    get_profiler().reset()


def command(name, tmp_path, saved_trace):
    """The command's ``main`` and its argv, outputs under ``tmp_path``."""
    module, argv, rc = COMMANDS[name]
    paths = {"d": tmp_path / "corpus", "trace": saved_trace}
    paths.update({key[1:-1]: tmp_path / out for key, out in OUTPUTS.items()})
    argv = [arg.format(**paths) for arg in argv]
    return importlib.import_module(module).main, argv, rc


def assert_released():
    prof = get_profiler()
    assert not get_tracer().enabled
    assert not prof.enabled
    assert prof._frame_provider is None
    assert prof._ancestry_provider is None


def written(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir() if p.name != "corpus")


class TestRunScope:
    def test_yields_only_its_own_run(self):
        reg = get_registry()
        reg.counter("test.scope").inc(5)
        with run_scope() as outer:
            reg.counter("test.scope").inc(2)
            with run_scope() as inner, reg.phase("test.scope.phase"):
                reg.counter("test.scope").inc()
        assert inner["counters"]["test.scope"] == 1
        assert outer["counters"]["test.scope"] == 3
        assert inner["phases"]["test.scope.phase"]["count"] == 1

    def test_opens_a_fresh_tracer_run(self):
        tracer = get_tracer()
        tracer.enable()
        tracer.segment_begin(0, 0, "task", "t")
        tracer.segment_end(0)
        events = len(tracer)
        with run_scope():
            assert tracer.seg_spans == {}
        assert len(tracer) == events


class TestCommandExitPaths:
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_success_writes_and_releases(self, name, tmp_path, saved_trace,
                                         capsys):
        main, argv, rc = command(name, tmp_path, saved_trace)
        assert main(argv) == rc
        assert_released()
        asked = sorted(OUTPUTS[arg] for arg in COMMANDS[name][1]
                       if arg in OUTPUTS)
        assert written(tmp_path) == asked
        if "timeline.json" in asked:
            doc = json.loads((tmp_path / "timeline.json").read_text())
            assert validate(doc) == []
        if "prof.json" in asked:
            assert validate_profile_doc(str(tmp_path / "prof.json")) == []

    @pytest.mark.parametrize("name,flag", [
        ("launcher", "--trace-timeline"),
        ("offline", "--profile"),
        ("offline", "--trace-timeline"),
        ("run", "--trace-timeline"),
        ("fuzz", "--profile"),
        ("profile-run", "--out"),
        ("profile-run", "--flame"),
    ])
    def test_unwritable_output_is_a_typed_error(self, name, flag, tmp_path,
                                                saved_trace, capsys):
        """A path in a missing directory ends in one ``error:`` line that
        names it, exit 2, not a traceback."""
        main, argv, _rc = command(name, tmp_path, saved_trace)
        bad = str(tmp_path / "missing" / "out")
        argv[argv.index(flag) + 1] = bad
        capsys.readouterr()
        assert main(argv) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and bad in errors[0]
        assert_released()

    def test_unreadable_trace(self, tmp_path, capsys):
        from repro.core.offline import main as offline_main
        rc = offline_main([str(tmp_path / "no-such-trace.json"),
                           "--profile", str(tmp_path / "prof.json"),
                           "--trace-timeline", str(tmp_path / "t.json")])
        assert rc == 2
        assert "error: " in capsys.readouterr().err
        assert_released()
        assert written(tmp_path) == []

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_exception_in_the_run_releases(self, name, tmp_path,
                                           saved_trace, monkeypatch,
                                           capsys):
        """The run finishes (its machine binds the frame providers), then
        raises: nothing is written and nothing stays enabled or bound."""
        module, attr = RUNS[name]
        module = importlib.import_module(module)
        real = getattr(module, attr)

        def run_then_raise(*args, **kwargs):
            real(*args, **kwargs)
            raise RuntimeError("injected")

        monkeypatch.setattr(module, attr, run_then_raise)
        main, argv, _rc = command(name, tmp_path, saved_trace)
        with pytest.raises(RuntimeError, match="injected"):
            main(argv)
        assert_released()
        assert written(tmp_path) == []

    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_unwritable_document_is_a_typed_error(self, name, tmp_path,
                                                  monkeypatch, capsys):
        """A command's own document in a missing directory ends in one
        ``error:`` line that names it, exit 2, not a traceback with exit
        1, which these commands use for a finding (a divergence, races,
        a regression)."""
        module, argv = DOCUMENTS[name]
        module = importlib.import_module(module)
        if name == "perf --json":      # the record-sync replay takes ~4 s
            monkeypatch.setattr(module, "run_record_sync", lambda: {})
        bad = str(tmp_path / "missing" / "out")
        argv = [arg.format(out=bad, d=tmp_path / "corpus") for arg in argv]
        assert module.main(argv) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and bad in errors[0]
