import json
import random

import numpy as np
import pytest

from tabevent.core import (
    Argument,
    EventMention,
    EventTable,
    LabelSet,
    ParsedSentence,
    TableEntry,
    bio_wellformed,
    normalize_surface,
    read_corpus,
    read_jsonl,
    spans_from_tags,
    tags_from_spans,
    validate_sentence,
)
from tabevent.supervision import claim_spans


def test_normalize_surface():
    assert normalize_surface("  New\t York ") == "new york"
    assert normalize_surface("McAndrews") == "mcandrews"


def test_normal_form_reuses_the_surface():
    surface = "".join(["new", " york"])
    assert normalize_surface(surface) is surface
    s = ParsedSentence.build("x", ["Hello", "world"], [1, -1])
    assert s.normalized[1] is s.surfaces[1] and s.normalized[0] == "hello"


def test_token_normalized_is_derived():
    s = ParsedSentence.build("x", ["Hello", "World"], [1, -1])
    assert s.surfaces == ("Hello", "World")
    assert s.normalized == ("hello", "world")
    assert len(s) == 2


class TestValidateSentence:
    def test_valid_chain(self):
        s = ParsedSentence.build("x", ["a", "b", "c"], [-1, 0, 1])
        assert validate_sentence(s) == []

    def test_two_cycle_reported_once(self):
        s = ParsedSentence.build("x", ["a", "b", "c"], [1, 0, -1])
        violations = validate_sentence(s)
        assert len(violations) == 1
        assert "cycle" in violations[0]

    def test_multiple_roots(self):
        s = ParsedSentence.build("x", ["a", "b", "c"], [-1, -1, 0])
        violations = validate_sentence(s)
        assert len(violations) == 1
        assert "root" in violations[0]

    def test_out_of_range_head(self):
        s = ParsedSentence.build("x", ["a", "b"], [-1, 5])
        assert any("out-of-range" in v for v in validate_sentence(s))

    def test_length_mismatch(self):
        s = ParsedSentence(id="x", surfaces=("a", "b"), dep_head=(-1,))
        assert any("length" in v for v in validate_sentence(s))

    def test_self_loop_is_a_cycle(self):
        s = ParsedSentence.build("x", ["a", "b"], [-1, 1])
        assert any("cycle" in v for v in validate_sentence(s))


def test_cycles_match_brute_force():
    """A token is on a cycle iff following heads from it returns to it; each cycle is
    reported once, in the order of the first token whose walk reaches it."""
    rng = random.Random(0)
    for _ in range(3000):
        n = rng.randint(1, 9)
        heads = [rng.randint(-2, n) for _ in range(n)]

        def walk(i):
            """Tokens visited from i, and where the walk stopped: off the sentence or on a repeat."""
            seen = []
            while 0 <= i < n and i not in seen:
                seen.append(i)
                i = heads[i]
            return seen, i

        on_cycle = {i for i in range(n) if walk(i)[1] == i}
        cycles = []
        for start in range(n):
            end = walk(start)[1]
            if 0 <= end < n and sorted(walk(end)[0]) not in cycles:
                cycles.append(sorted(walk(end)[0]))
        assert {i for members in cycles for i in members} == on_cycle
        violations = validate_sentence(ParsedSentence.build("x", ["w"] * n, heads))
        assert [v for v in violations if v.startswith("cycle")] == [
            f"cycle: tokens {members} form a dependency cycle" for members in cycles
        ], heads


def test_sentence_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        heads = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
        words = [f"w{int(rng.integers(0, 50))}" for _ in range(n)]
        s = ParsedSentence.build(f"s{n}", words, heads)
        assert validate_sentence(s) == []
        assert ParsedSentence.from_dict(s.to_dict()) == s


def test_table_roundtrip(fixture_tables):
    for table in fixture_tables:
        assert EventTable.from_dict(table.to_dict()) == table


class TestTableInvariants:
    def test_duplicate_properties(self):
        with pytest.raises(ValueError, match="duplicate"):
            EventTable("t", ("a", "a"), (), ())

    def test_time_subset(self):
        with pytest.raises(ValueError, match="time_properties"):
            EventTable("t", ("a",), ("b",), ())

    def test_entry_keys_subset(self):
        entry = TableEntry("e", {"b": ("x",)})
        with pytest.raises(ValueError, match="unknown"):
            EventTable("t", ("a",), (), (entry,))

    def test_empty_value_list(self):
        entry = TableEntry("e", {"a": ()})
        with pytest.raises(ValueError, match="empty"):
            EventTable("t", ("a",), (), (entry,))


class TestLabelSet:
    def test_layout(self):
        ls = LabelSet(["x", "y"], {"t": {"x"}})
        assert ls.labels == ("O", "B-x", "I-x", "B-y", "I-y")
        assert ls.index("I-y") == 4
        assert ls.groups == {"t": frozenset({"x"})}

    def test_unknown_tag(self):
        ls = LabelSet(["x"])
        with pytest.raises(ValueError, match="unknown tag"):
            ls.index("B-z")

    def test_group_role_must_exist(self):
        with pytest.raises(ValueError, match="unknown roles"):
            LabelSet(["x"], {"t": {"y"}})

    def test_roundtrip(self):
        ls = LabelSet(["x", "y"], {"t": {"x", "y"}})
        assert LabelSet.from_dict(ls.to_dict()) == ls


class TestBioWellformed:
    @pytest.mark.parametrize(
        "tags,expected",
        [
            (["B-date", "I-date", "O"], True),
            (["O", "I-date", "O"], False),
            (["B-a", "I-b"], False),
            (["I-date"], False),
        ],
    )
    def test_examples(self, tags, expected):
        ls = LabelSet(["date", "a", "b"])
        assert bio_wellformed(tags, ls) is expected

    def test_unknown_tag_raises(self):
        ls = LabelSet(["date"])
        with pytest.raises(ValueError, match="B-bogus"):
            bio_wellformed(["B-bogus"], ls)


def test_spans_from_tags():
    tags = ["B-a", "I-a", "O", "B-b", "B-a", "I-a"]
    assert spans_from_tags(tags) == [("a", 0, 2), ("b", 3, 4), ("a", 4, 6)]
    # orphan I opens a span so malformed decoder output is still usable
    assert spans_from_tags(["O", "I-a", "I-a"]) == [("a", 1, 3)]
    # tags_from_spans is its inverse on disjoint spans
    for n, spans, want in [
        (6, [("a", 0, 2), ("b", 3, 4), ("a", 4, 6)], tags),
        (4, [("a", 1, 4)], ["O", "B-a", "I-a", "I-a"]),
        (3, [], ["O", "O", "O"]),
    ]:
        assert tags_from_spans(n, spans) == want
        assert spans_from_tags(want) == spans


class TestEventMention:
    """A mention's arguments come from `claim_spans`, which holds one span per role and
    disjoint spans; these pin that on the arguments a mention is built from."""

    @staticmethod
    def mention(candidates):
        kept, dropped = claim_spans(candidates)
        return EventMention("t", tuple(Argument(*span) for span in kept)), dropped

    def test_duplicate_role(self):
        mention, dropped = self.mention([("r", 0, 1), ("r", 2, 3)])
        assert mention.arguments == (Argument("r", 0, 1),)
        assert dropped == [("r", 2, 3)]

    def test_overlap(self):
        mention, dropped = self.mention([("r", 0, 2), ("q", 1, 3)])
        assert mention.arguments == (Argument("r", 0, 2),)
        assert dropped == [("q", 1, 3)]


def test_read_jsonl_reports_file_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": 1}\nnot json\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        list(read_jsonl(str(path)))


def test_read_corpus_refuses_repeated_sentence_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    sentence = {"id": "S1", "tokens": ["a"], "dep_head": [-1]}
    path.write_text(json.dumps(sentence) + "\n" + json.dumps({**sentence, "tokens": ["b"]}) + "\n")
    with pytest.raises(ValueError, match=r"corpus\.jsonl: repeated sentence id 'S1'"):
        read_corpus(str(path))


def test_read_jsonl_skips_header(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"_header": {"seed": 1}}\n{"id": "a"}\n')
    assert list(read_jsonl(str(path))) == [{"id": "a"}]
