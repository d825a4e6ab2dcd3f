"""Generator determinism + validity (the seed-replay contract)."""

import json

import pytest

from repro.fuzz.gen import generate
from repro.fuzz.spec import FAMILIES, FuzzProgram, validate
from repro.fuzz.truth import ground_truth

SEEDS = list(range(1, 31))


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        for seed in SEEDS:
            a = generate(seed)
            b = generate(seed)
            assert a.to_json() == b.to_json(), f"seed {seed} not stable"

    def test_roundtrip_preserves_bytes(self):
        for seed in SEEDS:
            p = generate(seed)
            assert FuzzProgram.from_json(p.to_json()).to_json() == p.to_json()

    def test_same_seed_same_verdicts(self):
        """Same seed ⇒ same program ⇒ same ground truth, twice over."""
        for seed in SEEDS[:10]:
            assert ground_truth(generate(seed)) == \
                ground_truth(generate(seed))

    def test_digest_stable(self):
        for seed in SEEDS[:10]:
            assert generate(seed).digest() == generate(seed).digest()


class TestValidity:
    def test_generated_programs_validate(self):
        for seed in SEEDS:
            p = generate(seed)
            assert validate(p) is None, f"seed {seed}: {validate(p)}"

    def test_all_families_reachable(self):
        seen = {generate(seed).family for seed in range(1, 40)}
        assert seen == set(FAMILIES)

    def test_family_override(self):
        for fam in FAMILIES:
            p = generate(7, family=fam)
            assert p.family == fam
            assert validate(p) is None

    def test_sp_bodies_end_with_wait(self):
        from repro.fuzz.spec import iter_bodies
        for seed in SEEDS:
            p = generate(seed, family="sp")
            for body in iter_bodies(p.body):
                if any(op[0] == "task" for op in body):
                    assert body[-1][0] == "wait"


class TestEnsureRace:
    def test_ensure_race_true(self):
        for seed in SEEDS[:10]:
            p = generate(seed, ensure_race=True)
            assert ground_truth(p), f"seed {seed} produced race-free program"

    def test_ensure_race_false(self):
        for seed in SEEDS[:10]:
            p = generate(seed, ensure_race=False)
            assert not ground_truth(p)

    def test_ensure_race_deterministic(self):
        for seed in SEEDS[:5]:
            assert generate(seed, ensure_race=True).to_json() == \
                generate(seed, ensure_race=True).to_json()


class TestSpecValidation:
    def test_rejects_unknown_family(self):
        p = FuzzProgram(family="lol", seed=-1, nthreads=2, slots=1, body=[])
        assert validate(p) is not None

    def test_rejects_sp_without_trailing_wait(self):
        p = FuzzProgram(family="sp", seed=-1, nthreads=2, slots=1,
                        body=[["task", [["w", 0]]], ["w", 0]])
        assert "wait" in validate(p)

    def test_rejects_feb_consume_without_fill(self):
        p = FuzzProgram(family="feb", seed=-1, nthreads=2, slots=1,
                        body=[{"ops": [["readFE", 0]]}])
        assert "never filled" in validate(p)

    def test_rejects_slot_out_of_range(self):
        p = FuzzProgram(family="tasks", seed=-1, nthreads=2, slots=2,
                        body=[["w", 5]])
        assert "out of range" in validate(p)

    def test_rejects_ragged_barrier(self):
        p = FuzzProgram(family="barrier", seed=-1, nthreads=2, slots=1,
                        body=[[[["w", 0]]], [[["w", 0]], [["r", 0]]]])
        assert validate(p) is not None

    def test_from_json_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            FuzzProgram.from_json('{"schema": "nope/1"}')

    def test_from_json_rejects_another_shape(self):
        with pytest.raises(ValueError, match="JSON object, not list"):
            FuzzProgram.from_json(json.dumps([json.loads(
                generate(4).to_json())]))
        doc = dict(json.loads(generate(4).to_json()), body=5)
        with pytest.raises(ValueError, match="'body' is a list, not int"):
            FuzzProgram.from_json(json.dumps(doc))
