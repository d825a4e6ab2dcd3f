"""Smoke tests: every example script must run to completion.

Examples are the package's living documentation — each one doubles as an
integration test of the public API paths it demonstrates (the internal
``assert``s inside the examples validate their claims).
"""

import pathlib
import runpy
import tempfile

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob(
        "*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys, monkeypatch, tmp_path):
    """The example runs to completion, prints, and removes every temporary
    file and directory it made."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} produced no output"
    assert list(tmp_path.iterdir()) == [], \
        f"{path.name} left entries in {tempfile.gettempdir()}"


def test_all_examples_discovered():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "porting_assistant", "compare_tools",
            "lulesh_demo", "error_reporting", "cilk_fib", "binary_blob",
            "offline_analysis"} <= names
