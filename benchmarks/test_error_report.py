"""L456 — the error-reporting comparison (Listings 4-6).

Asserts the Taskgrind report carries every element the paper's Listing 6
shows and the ROMP report carries none of the debug information (Listing 5).
"""

import pytest

from repro.bench.errorreport import render, run_tool
from repro.core.reports import format_report


def test_bench_error_report(benchmark, once):
    text = once(benchmark, render)
    assert "task.1.c" in text


@pytest.fixture(scope="module")
def taskgrind_report():
    tool, reports = run_tool("taskgrind")
    assert len(reports) == 1
    return reports[0]


@pytest.fixture(scope="module")
def romp_report():
    tool, reports = run_tool("romp")
    assert len(reports) == 1
    from repro.core.reports import build_report
    return build_report(tool.machine.allocator, reports[0])


class TestListing6Fidelity:
    def test_segment_labels_are_pragma_locations(self, taskgrind_report):
        labels = {taskgrind_report.s1.label(), taskgrind_report.s2.label()}
        assert labels == {"task.1.c:8", "task.1.c:11"}

    def test_conflict_size_and_block(self, taskgrind_report):
        assert taskgrind_report.ranges.total_bytes == 4   # one int
        assert taskgrind_report.block_size == 8           # 2 * sizeof(int)
        assert taskgrind_report.block_addr is not None

    def test_allocation_site(self, taskgrind_report):
        assert str(taskgrind_report.alloc_site) == "task.1.c:3"

    def test_rendered_text(self, taskgrind_report):
        text = format_report(taskgrind_report)
        for needle in ("task.1.c:8", "task.1.c:11", "declared",
                       "independent while accessing the same memory address",
                       "of size 8", "task.1.c:3"):
            assert needle in text, needle


class TestListing5Fidelity:
    def test_romp_has_addresses_only(self, romp_report):
        text = format_report(romp_report, style="romp")
        assert "data race found" in text
        assert "0x" in text
        assert "task.1.c" not in text
        assert "no source information" in text
