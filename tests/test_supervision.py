import json
import math

import numpy as np
import pytest

from tabevent import supervision
from tabevent.core import (
    EventTable,
    LabelSet,
    ParsedSentence,
    TableEntry,
    bio_wellformed,
)
from tabevent.supervision import (
    GenerationConfig,
    ImportanceStats,
    Strategy,
    dep_distance,
    entry_surfaces,
    find_role_spans,
    generate_dataset,
    importance_score,
    label_sentence,
    role_label,
    select_key_args,
    span_head,
    split_role,
    time_related_properties,
    trigger_candidate,
)


def stats_of(count_cvt, count_arg, count_cvt_arg):
    return ImportanceStats(count_cvt, count_arg, count_cvt_arg)


def spans_of(sentence, entry, alias_map=None):
    return find_role_spans(sentence, entry_surfaces(entry, alias_map or {}))


class TestImportanceScore:
    def test_all_ones_is_zero(self):
        s = stats_of({"t": 1}, {"p": 1}, {("t", "p"): 1})
        assert importance_score(s, "t", "p") == 0.0

    def test_hand_evaluated(self):
        s = stats_of({"t": 10}, {"p": 20}, {("t", "p"): 8})
        assert importance_score(s, "t", "p") == pytest.approx(math.log(0.04), abs=1e-12)
        assert importance_score(s, "t", "p") == pytest.approx(-3.2188758248682006)

    def test_zero_joint_is_neg_inf(self):
        s = stats_of({"t": 3}, {"p": 4}, {})
        assert importance_score(s, "t", "p") == float("-inf")

    def test_missing_type_count(self):
        s = stats_of({}, {"p": 1}, {})
        with pytest.raises(ValueError, match="count_cvt"):
            importance_score(s, "t", "p")

    def test_missing_arg_count(self):
        s = stats_of({"t": 1}, {}, {})
        with pytest.raises(ValueError, match="count_arg"):
            importance_score(s, "t", "p")

    def test_ranking_invariant_under_log_base(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            props = [f"p{i}" for i in range(6)]
            s = stats_of(
                {"t": int(rng.integers(1, 30))},
                {p: int(rng.integers(1, 50)) for p in props},
                {("t", p): int(rng.integers(1, 20)) for p in props},
            )
            nat = sorted(props, key=lambda p: (-importance_score(s, "t", p), p))
            base10 = sorted(
                props,
                key=lambda p: (-importance_score(s, "t", p) / math.log(10), p),
            )
            assert nat == base10


class TestSelectKeyArgs:
    def test_fixture_acquisition(self, fixture_tables, fixture_schemas):
        schema = fixture_schemas["business.acquisition"]
        assert schema.key_args == {"company_acquired", "acquiring_company", "date"}
        assert schema.nonkey_args == {"divisions_formed"}

    def test_single_property(self):
        table = EventTable("t", ("only",), (), (TableEntry("e", {"only": ("x",)}),))
        schema = select_key_args(table, supervision.collect_stats([table]))
        assert schema.key_args == {"only"}

    def test_five_ranked_with_time(self):
        # scores a > b > c > d > e, e is the only time property
        props = ("a", "b", "c", "d", "e")
        s = stats_of(
            {"t": 1},
            {p: i + 1 for i, p in enumerate(props)},
            {("t", p): 1 for p in props},
        )
        table = EventTable("t", props, ("e",), ())
        schema = select_key_args(table, s)
        assert schema.key_args == {"a", "b", "c", "e"}

    def test_size_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            props = tuple(f"p{i}" for i in range(n))
            time_props = ("p0",) if rng.integers(0, 2) else ()
            s = stats_of(
                {"t": int(rng.integers(1, 9))},
                {p: int(rng.integers(1, 9)) for p in props},
                {("t", p): int(rng.integers(1, 5)) for p in props},
            )
            schema = select_key_args(EventTable("t", props, time_props, ()), s)
            low = math.ceil(n / 2)
            assert low <= len(schema.key_args) <= low + 1

    def test_all_strategy(self, fixture_tables):
        table = fixture_tables[0]
        stats = supervision.collect_stats(fixture_tables)
        schema = select_key_args(table, stats, Strategy.ALL)
        assert schema.key_args == set(table.properties)
        assert not schema.nonkey_args

    def test_empty_properties(self):
        with pytest.raises(ValueError, match="no properties"):
            select_key_args(
                EventTable("t", (), (), ()), stats_of({"t": 1}, {}, {})
            )


def test_time_keyword_fallback():
    table = EventTable("t", ("start_date", "winner", "from"), (), ())
    assert time_related_properties(table) == ["start_date", "from"]
    flagged = EventTable("t", ("start_date", "winner"), ("winner",), ())
    assert time_related_properties(flagged) == ["winner"]


class TestMatching:
    def test_s2_example(self, fixture_corpus, fixture_tables, fixture_schemas):
        s2 = fixture_corpus[1]
        entry = fixture_tables[0].entries[1]
        schema = fixture_schemas["business.acquisition"]
        spans = spans_of(s2, entry)
        assert spans == {
            "acquiring_company": (0, 1),
            "company_acquired": (10, 11),
            "date": (12, 13),
        }
        inst = label_sentence(s2, spans, schema, GenerationConfig())
        assert inst.positive and inst.spans == spans

    def test_s3_misses_date(self, fixture_corpus, fixture_tables, fixture_schemas):
        s3 = fixture_corpus[2]
        entry = fixture_tables[0].entries[1]
        schema = fixture_schemas["business.acquisition"]
        spans = spans_of(s3, entry)
        assert "date" not in spans
        inst = label_sentence(s3, spans, schema, GenerationConfig())
        assert not inst.positive and inst.reason == "partial"

    def test_alias_expansion_both_directions(self):
        aliases = {"ms": "microsoft"}
        entry = TableEntry("e", {"acquiring_company": ("MS",)})
        s = ParsedSentence.build(
            "x", ["Microsoft", "bought", "aQuantive", "in", "2007"], [1, -1, 1, 4, 1]
        )
        assert spans_of(s, entry, aliases) == {"acquiring_company": (0, 1)}
        # reverse direction: entry says Microsoft, sentence says MS
        entry2 = TableEntry("e2", {"acquiring_company": ("Microsoft",)})
        s2 = ParsedSentence.build(
            "y", ["MS", "bought", "aQuantive", "in", "2007"], [1, -1, 1, 4, 1]
        )
        assert spans_of(s2, entry2, aliases) == {"acquiring_company": (0, 1)}

    def test_aliases_not_transitive(self):
        # ms -> microsoft <- msft: MS matches its canonical form, not MSFT
        aliases = {"ms": "microsoft", "msft": "microsoft"}
        entry = TableEntry("e", {"acquiring_company": ("MS",)})
        assert entry_surfaces(entry, aliases) == {"acquiring_company": [["microsoft"], ["ms"]]}
        hit = ParsedSentence.build("x", ["Microsoft", "bought", "it"], [1, -1, 1])
        miss = ParsedSentence.build("y", ["MSFT", "bought", "it"], [1, -1, 1])
        assert spans_of(hit, entry, aliases) == {"acquiring_company": (0, 1)}
        assert spans_of(miss, entry, aliases) == {}

    def test_empty_surfaces_skipped(self):
        entry = TableEntry("e", {"place": ("", "  ", "New  York")})
        assert entry_surfaces(entry, {}) == {"place": [["new", "york"]]}

    def test_longest_match_wins(self):
        entry = TableEntry("e", {"place": ("York", "New York City")})
        s = ParsedSentence.build(
            "x", ["He", "visited", "New", "York", "City", "today"], [1, -1, 4, 4, 1, 1]
        )
        assert spans_of(s, entry)["place"] == (2, 5)

    def test_leftmost_among_equal_widths(self):
        entry = TableEntry("e", {"who": ("Bob", "Ann")})
        s = ParsedSentence.build("x", ["Ann", "met", "Bob"], [1, -1, 1])
        assert spans_of(s, entry) == {"who": (0, 1)}


class TestDepDistance:
    def test_conjunct_to_object_is_three_hops(self, fixture_corpus):
        s4 = fixture_corpus[3]
        prince_philip = (7, 9)
        marriage = (11, 12)
        assert dep_distance(s4, prince_philip, marriage) == 3

    def test_span_with_itself(self, fixture_corpus):
        s4 = fixture_corpus[3]
        assert dep_distance(s4, (7, 9), (7, 9)) == 0

    def test_child_to_head(self):
        s = ParsedSentence.build("x", ["a", "b"], [-1, 0])
        assert dep_distance(s, (1, 2), (0, 1)) == 1

    def test_invalid_tree_raises(self):
        s = ParsedSentence.build("x", ["a", "b"], [1, 0])
        with pytest.raises(ValueError):
            dep_distance(s, (0, 1), (1, 2))

    def test_span_head_fallback_leftmost(self):
        # both tokens point outside the span: fall back to the left edge
        s = ParsedSentence.build("x", ["a", "b", "c"], [-1, 0, 0])
        assert span_head(s, (1, 3)) == 1


class TestTriggerCandidate:
    def test_common_verb(self, fixture_corpus):
        s1 = fixture_corpus[0]
        tok = trigger_candidate(s1, [(0, 2), (5, 7), (8, 9)])
        assert tok.surface == "sold"

    def test_single_span_is_own_head(self, fixture_corpus):
        s1 = fixture_corpus[0]
        assert trigger_candidate(s1, [(0, 2)]).index == 1

    def test_root_when_nothing_shared(self):
        s = ParsedSentence.build("x", ["l", "root", "r"], [1, -1, 1])
        assert trigger_candidate(s, [(0, 1), (2, 3)]).index == 1


class TestLabelSentence:
    def test_positive_has_three_begins(self, fixture_corpus, fixture_tables, fixture_schemas):
        s2 = fixture_corpus[1]
        entry = fixture_tables[0].entries[1]
        schema = fixture_schemas["business.acquisition"]
        inst = label_sentence(s2, spans_of(s2, entry), schema, GenerationConfig())
        assert inst.positive
        assert sorted(inst.spans.values()) == [(0, 1), (10, 11), (12, 13)]

    def test_distance_negative_records_value(self, fixture_corpus, fixture_tables, fixture_schemas):
        s4 = fixture_corpus[3]
        entry = fixture_tables[1].entries[0]
        schema = fixture_schemas["people.marriage"]
        inst = label_sentence(s4, spans_of(s4, entry), schema, GenerationConfig())
        assert not inst.positive
        assert inst.reason == "distance"
        assert inst.max_key_distance == 3
        assert inst.spans == {}

    def test_zero_matches_trivial(self, fixture_schemas):
        schema = fixture_schemas["business.acquisition"]
        s = ParsedSentence.build("x", ["nothing", "here"], [1, -1])
        inst = label_sentence(s, {}, schema, GenerationConfig())
        assert inst.reason == "trivial"

    def test_overlap_higher_importance_wins(self):
        table = EventTable(
            "t",
            ("big", "small"),
            (),
            (TableEntry("e", {"big": ("alpha beta",), "small": ("beta",)}),),
        )
        # 'big' shares 'beta' with 'small'; give 'big' the higher importance
        s = stats_of({"t": 2}, {"big": 2, "small": 4}, {("t", "big"): 2, ("t", "small"): 2})
        schema = select_key_args(table, s, Strategy.ALL)
        assert schema.importance["big"] > schema.importance["small"]
        sent = ParsedSentence.build("x", ["alpha", "beta", "now"], [1, -1, 1])
        inst = label_sentence(sent, spans_of(sent, table.entries[0]), schema, GenerationConfig())
        assert not inst.positive and inst.reason == "partial"
        assert any("overlap" in d for d in inst.diagnostics)


    def test_cyclic_parse_raises(self):
        table = EventTable("t", ("a", "b"), (), (TableEntry("e", {"a": ("x",), "b": ("y",)}),))
        s = stats_of({"t": 1}, {"a": 1, "b": 1}, {("t", "a"): 1, ("t", "b"): 1})
        schema = select_key_args(table, s, Strategy.ALL)
        assert schema.key_args == {"a", "b"}
        sent = ParsedSentence.build("c", ["x", "y", "z"], [1, 0, -1])
        with pytest.raises(ValueError, match="sentence c: cycle"):
            label_sentence(sent, {"a": (0, 1), "b": (1, 2)}, schema, GenerationConfig())


class TestGenerateDataset:
    def test_fixture_counts(self, fixture_dataset):
        records, report = fixture_dataset
        by_id = {r["sentence_id"]: r for r in records}
        assert report["positives"] == 2
        assert by_id["S1"]["polarity"] == "positive"
        assert by_id["S2"]["polarity"] == "positive"
        assert by_id["S3"]["reason"] == "partial"
        assert by_id["S4"]["reason"] == "distance"
        assert by_id["S4"]["max_key_distance"] == 3
        assert by_id["S5"]["reason"] == "trivial"

    def test_s2_labels_exact(self, fixture_dataset):
        records, _ = fixture_dataset
        rec = next(r for r in records if r["sentence_id"] == "S2")
        want = ["O"] * 14
        want[0] = "B-business.acquisition:acquiring_company"
        want[10] = "B-business.acquisition:company_acquired"
        want[12] = "B-business.acquisition:date"
        assert rec["labels"] == want
        assert rec["event_types"] == ["business.acquisition"]

    def test_positive_postconditions(self, fixture_dataset, fixture_schemas):
        records, _ = fixture_dataset
        roles = sorted(
            role_label(t, p)
            for t, sch in fixture_schemas.items()
            for p in (sch.key_args | sch.nonkey_args)
        )
        label_set = LabelSet(roles)
        for rec in records:
            if rec["polarity"] != "positive":
                continue
            assert bio_wellformed(rec["labels"], label_set)
            begun = {t[2:] for t in rec["labels"] if t.startswith("B-")}
            for event_type in rec["event_types"]:
                for prop in fixture_schemas[event_type].key_args:
                    assert role_label(event_type, prop) in begun

    def test_deterministic(self, fixture_tables, fixture_corpus):
        runs = []
        for _ in range(2):
            records, _ = generate_dataset(
                fixture_tables, fixture_corpus, GenerationConfig(), seed=17
            )
            runs.append(json.dumps(records, sort_keys=True))
        assert runs[0] == runs[1]

    def test_empty_corpus(self, fixture_tables):
        records, report = generate_dataset(fixture_tables, [], GenerationConfig())
        assert records == [] and report["positives"] == 0
        assert report["positive_percentage"] == 0.0

    def test_trigger_report(self, fixture_dataset):
        _, report = fixture_dataset
        tokens = [
            c["token"] for c in report["trigger_candidates"]["business.acquisition"]
        ]
        assert set(tokens) == {"sold", "spent"}

    def test_negative_ratio_zero_drops_sampled_pools(self, fixture_tables, fixture_corpus):
        cfg = GenerationConfig(partial_negative_ratio=0.0, violation_negative_ratio=0.0)
        records, _ = generate_dataset(fixture_tables, fixture_corpus, cfg, seed=0)
        reasons = {r.get("reason") for r in records if r["polarity"] == "negative"}
        assert reasons == {"trivial"}

    def test_repeated_sentence_id_rejected(self, fixture_tables, fixture_corpus):
        s5 = fixture_corpus[4]
        dup = ParsedSentence.build("S1", s5.surfaces, list(s5.dep_head))
        with pytest.raises(ValueError, match="repeated sentence id 'S1'"):
            generate_dataset(fixture_tables, [*fixture_corpus, dup], GenerationConfig())

    def test_entries_sharing_an_id_match_separately(self):
        table = EventTable(
            "t",
            ("who", "what"),
            (),
            (
                TableEntry("e", {"who": ("Alice",), "what": ("tennis",)}),
                TableEntry("e", {"who": ("Bob",), "what": ("golf",)}),
            ),
        )
        corpus = [
            ParsedSentence.build("a", ["Alice", "plays", "tennis"], [1, -1, 1]),
            ParsedSentence.build("b", ["Bob", "plays", "golf"], [1, -1, 1]),
        ]
        records, report = generate_dataset([table], corpus, GenerationConfig(), Strategy.ALL)
        assert [r["polarity"] for r in records] == ["positive", "positive"]
        assert records[1]["labels"] == ["B-t:who", "O", "B-t:what"]
        assert report["positive_instances"] == 2

    def test_multi_type_record(self):
        # two types sharing the actor span in one sentence
        film = EventTable(
            "film.performance",
            ("actor", "film"),
            (),
            (TableEntry("f0", {"actor": ("Kevin Spacey",), "film": ("Nine Lives",)}),),
        )
        tv = EventTable(
            "tv.appearance",
            ("actor", "series"),
            (),
            (TableEntry("t0", {"actor": ("Kevin Spacey",), "series": ("House of Cards",)}),),
        )
        tokens = "Kevin Spacey starred in House of Cards and in Nine Lives .".split()
        heads = [1, 2, -1, 4, 2, 4, 4, 2, 9, 2, 9, 2]
        sent = ParsedSentence.build("s5", tokens, heads)
        records, report = generate_dataset([film, tv], [sent], GenerationConfig())
        assert len(records) == 1
        rec = records[0]
        assert rec["event_types"] == ["film.performance", "tv.appearance"]
        assert rec["polarity"] == "positive"
        assert report["multi_type_fraction"] == 1.0
        # shared span kept once, under the first type processed
        assert rec["labels"][0] == "B-film.performance:actor"
        assert any("merge-overlap" in d for d in report["diagnostics"])


def test_role_label_roundtrip():
    role = role_label("business.acquisition", "date")
    assert split_role(role) == ("business.acquisition", "date")
    with pytest.raises(ValueError):
        split_role("no-namespace")


def test_read_alias_map(tmp_path, fixture_paths):
    aliases = supervision.read_alias_map(fixture_paths["aliases"])
    assert aliases["ms"] == "microsoft"
    bad = tmp_path / "bad.tsv"
    bad.write_text("one-column-only\n")
    with pytest.raises(ValueError, match="surface<TAB>canonical"):
        supervision.read_alias_map(str(bad))
