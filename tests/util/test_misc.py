"""Tests for the small utilities: seeded RNG streams, tables."""

from repro.util.rng import RngHub
from repro.util.tables import render_kv, render_table


class TestRngHub:
    def test_same_seed_same_stream(self):
        a = [RngHub(7).randint("x", 0, 1000) for _ in range(5)]
        b = [RngHub(7).randint("x", 0, 1000) for _ in range(5)]
        assert a == b

    def test_streams_reproducible_within_hub(self):
        h1, h2 = RngHub(3), RngHub(3)
        seq1 = [h1.randint("s", 0, 100) for _ in range(10)]
        seq2 = [h2.randint("s", 0, 100) for _ in range(10)]
        assert seq1 == seq2

    def test_named_streams_independent(self):
        hub = RngHub(0)
        a = [hub.randint("a", 0, 1 << 30) for _ in range(4)]
        hub2 = RngHub(0)
        _ = [hub2.randint("b", 0, 1 << 30) for _ in range(100)]  # drain b
        a2 = [hub2.randint("a", 0, 1 << 30) for _ in range(4)]
        assert a == a2          # stream 'a' unaffected by stream 'b' usage

    def test_different_seeds_differ(self):
        a = [RngHub(1).randint("x", 0, 1 << 30) for _ in range(4)]
        b = [RngHub(2).randint("x", 0, 1 << 30) for _ in range(4)]
        assert a != b

    def test_choice_in_range(self):
        hub = RngHub(0)
        for _ in range(50):
            assert 0 <= hub.choice("c", 7) < 7

    def test_shuffle_permutes(self):
        hub = RngHub(5)
        seq = list(range(20))
        orig = list(seq)
        hub.shuffle("sh", seq)
        assert sorted(seq) == orig
        assert seq != orig       # vanishingly unlikely to be identity

    def test_shuffle_deterministic(self):
        s1, s2 = list(range(10)), list(range(10))
        RngHub(9).shuffle("sh", s1)
        RngHub(9).shuffle("sh", s2)
        assert s1 == s2


class TestTables:
    def test_render_alignment(self):
        text = render_table(["col", "x"], [["a", 1], ["long-cell", 22]])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines
                    if "|" in line and "-" not in line.split("|")[0]}) == 1

    def test_title_and_rule(self):
        text = render_table(["h"], [["v"]], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert set(text.splitlines()[1]) == {"="}

    def test_render_kv(self):
        text = render_kv([("key", 1), ("longer-key", "v")], title="t")
        assert "t" in text and "longer-key" in text
        # values aligned on the same column
        cols = [line.index(":") for line in text.splitlines() if ":" in line]
        assert len(set(cols)) == 1

