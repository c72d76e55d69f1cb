import collections
import hashlib
import json
import math
import random

import numpy as np
import pytest
from corpusgen import build_synth_corpus

from tabevent import supervision
from tabevent.core import (
    EventTable,
    LabelSet,
    ParsedSentence,
    TableEntry,
    bio_wellformed,
    normalize_surface,
)
from tabevent.supervision import (
    GenerationConfig,
    ImportanceStats,
    Strategy,
    dep_distance,
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
    """The spans gen's matcher finds for one entry in one sentence."""
    table = EventTable("t", tuple(sorted(entry.values)), (), (entry,))
    match = supervision._indexed_matcher([table], GenerationConfig(alias_map=alias_map or {}))
    return {prop: span for _, _, spans in match(sentence) for prop, span in spans.items()}


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
        entry = TableEntry("e", {"acquiring_company": ("MS",)})
        s = ParsedSentence.build(
            "x", ["Microsoft", "bought", "aQuantive", "in", "2007"], [1, -1, 1, 4, 1]
        )
        # reverse direction: entry says Microsoft, sentence says MS
        entry2 = TableEntry("e2", {"acquiring_company": ("Microsoft",)})
        s2 = ParsedSentence.build(
            "y", ["MS", "bought", "aQuantive", "in", "2007"], [1, -1, 1, 4, 1]
        )
        # a map given in code, not read by `read_alias_map`, matches in any case
        for aliases in ({"ms": "microsoft"}, {"MS": "Microsoft"}, {" Ms ": "MICROSOFT"}):
            assert spans_of(s, entry, aliases) == {"acquiring_company": (0, 1)}, aliases
            assert spans_of(s2, entry2, aliases) == {"acquiring_company": (0, 1)}, aliases

    def test_aliases_not_transitive(self):
        # ms -> microsoft <- msft: MS matches its canonical form, not MSFT
        aliases = {"ms": "microsoft", "msft": "microsoft"}
        entry = TableEntry("e", {"acquiring_company": ("MS",)})
        for surface in ("Microsoft", "MS"):
            hit = ParsedSentence.build("x", [surface, "bought", "it"], [1, -1, 1])
            assert spans_of(hit, entry, aliases) == {"acquiring_company": (0, 1)}
        miss = ParsedSentence.build("y", ["MSFT", "bought", "it"], [1, -1, 1])
        assert spans_of(miss, entry, aliases) == {}

    def test_empty_surfaces_skipped(self):
        entry = TableEntry("e", {"place": ("", "  ", "New  York")})
        hit = ParsedSentence.build("x", ["in", "new", "YORK"], [-1, 2, 0])
        miss = ParsedSentence.build("y", ["in", "York"], [-1, 0])
        assert spans_of(hit, entry) == {"place": (1, 3)}
        assert spans_of(miss, entry) == {}

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

    @pytest.mark.parametrize("heads, violation", [
        ([1, 0, -1], "cycle: tokens [0, 1]"),
        ([-1, 5, 0], "head: token 1 has out-of-range head 5"),
        ([-1, -3, 0], "head: token 1 has out-of-range head -3"),
        ([-1, -1, 0], "root: expected exactly one root"),
    ])
    def test_failed_walk_names_the_violation(self, heads, violation):
        s = ParsedSentence.build("x", ["a", "b", "c"], heads)
        with pytest.raises(ValueError) as exc:
            dep_distance(s, (0, 1), (1, 2))
        assert str(exc.value).startswith(f"sentence x: {violation}")

    def test_span_head_fallback_leftmost(self):
        # both tokens point outside the span: fall back to the left edge
        s = ParsedSentence.build("x", ["a", "b", "c"], [-1, 0, 0])
        assert span_head(s, (1, 3)) == 1


class TestTriggerCandidate:
    def test_common_verb(self, fixture_corpus):
        s1 = fixture_corpus[0]
        head = trigger_candidate(s1, [(0, 2), (5, 7), (8, 9)])
        assert s1.surfaces[head] == "sold"

    def test_single_span_is_own_head(self, fixture_corpus):
        s1 = fixture_corpus[0]
        assert trigger_candidate(s1, [(0, 2)]) == 1

    def test_root_when_nothing_shared(self):
        s = ParsedSentence.build("x", ["l", "root", "r"], [1, -1, 1])
        assert trigger_candidate(s, [(0, 1), (2, 3)]) == 1


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

    def test_two_entries_of_one_type_each_keep_their_spans(self):
        """Merging claims a span per (entry, role), so two entries of one type in one sentence
        both keep a span of each role."""
        table = EventTable("m", ("a", "b"), (), (
            TableEntry("e1", {"a": ("x",), "b": ("y",)}),
            TableEntry("e2", {"a": ("z",), "b": ("w",)}),
        ))
        sent = ParsedSentence.build("s", ["x", "y", "and", "z", "w"], [1, -1, 1, 4, 1])
        records, report = generate_dataset([table], [sent], GenerationConfig(), Strategy.ALL)
        assert records[0]["labels"] == ["B-m:a", "B-m:b", "O", "B-m:a", "B-m:b"]
        assert report["positive_instances"] == 2
        assert report["diagnostics"] == []

    def test_merge_orders_entries_by_id_not_table_order(self):
        table = EventTable(
            "t",
            ("who", "what"),
            (),
            (
                TableEntry("e2", {"who": ("Alice Smith",), "what": ("tennis",)}),
                TableEntry("e1", {"who": ("Smith",), "what": ("tennis",)}),
            ),
        )
        sent = ParsedSentence.build("x", ["Alice", "Smith", "plays", "tennis"], [1, 2, -1, 2])
        records, report = generate_dataset([table], [sent], GenerationConfig(), Strategy.ALL)
        assert records[0]["labels"] == ["O", "B-t:who", "O", "B-t:what"]
        assert report["positive_instances"] == 2
        assert report["diagnostics"] == [
            "merge-overlap: dropped t:what span [3,4) in x",
            "merge-overlap: dropped t:who span [0,2) in x",
        ]

    def test_best_negative_reason_first_in_table_order(self):
        # In "far", z-partial matches only `a`; y-far and x-near match both keys at 4 and 3 hops.
        table = EventTable(
            "t",
            ("a", "b"),
            (),
            (
                TableEntry("z-partial", {"a": ("delta",), "b": ("omega",)}),
                TableEntry("y-far", {"a": ("alpha",), "b": ("beta",)}),
                TableEntry("x-near", {"a": ("alpha",), "b": ("gamma",)}),
            ),
        )
        corpus = [
            ParsedSentence.build("pos", ["alpha", "beta"], [1, -1]),
            ParsedSentence.build(
                "far", ["alpha", "x", "y", "gamma", "beta", "delta"], [1, 2, -1, 2, 3, 2]
            ),
        ]
        cfg = GenerationConfig(max_dep_distance=1)
        records, report = generate_dataset([table], corpus, cfg, Strategy.ALL)
        assert [r["polarity"] for r in records] == ["positive", "negative"]
        assert records[1]["reason"] == "distance"
        assert records[1]["max_key_distance"] == 4
        assert report["negatives"]["pool_sizes"] == {"partial": 0, "distance": 1, "trivial": 0}

    def test_sampled_negatives_pinned(self):
        """Two of four partial, then two of four distance negatives, drawn by one seeded rng."""
        table = EventTable("t", ("a", "b"), (), (TableEntry("e", {"a": ("alpha",), "b": ("beta",)}),))
        shapes = {
            "pos": (["alpha", "beta"], [1, -1]),
            "p": (["alpha", "x"], [1, -1]),
            "d": (["alpha", "x", "beta"], [1, -1, 1]),
        }
        ids = ["pos0", "p0", "d0", "p1", "d1", "pos1", "p2", "d2", "p3", "d3"]
        corpus = [ParsedSentence.build(i, *shapes[i.rstrip("0123")]) for i in ids]
        cfg = GenerationConfig(max_dep_distance=1)
        records, report = generate_dataset([table], corpus, cfg, Strategy.ALL, seed=3)
        assert [r["sentence_id"] for r in records] == ["pos0", "p1", "d1", "pos1", "p2", "d3"]
        assert report["negatives"]["pool_sizes"] == {"partial": 4, "distance": 4, "trivial": 0}

    def test_repeated_event_type_rejected(self):
        """Schemas are keyed by event type, so a second table of a type would drop the first."""
        tables = [
            EventTable("ev", ("who",), (), (TableEntry(name, {"who": (name,)}),))
            for name in ("Alice", "Bob")
        ]
        corpus = [ParsedSentence.build("a", ["Alice", "won"], [1, -1])]
        with pytest.raises(ValueError, match="repeated event type 'ev'"):
            generate_dataset(tables, corpus, GenerationConfig(), Strategy.ALL)

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


# The all-pairs matcher generate_dataset used before its first-token index:
# every entry's patterns, from one alias-map scan per entry, tried at every
# start position of every sentence.
def reference_entry_surfaces(entry, alias_map):
    norms = {
        prop: {normalize_surface(v) for v in values}
        for prop, values in sorted(entry.values.items())
    }
    surfaces = {p: ns | {alias_map[n] for n in ns if n in alias_map} for p, ns in norms.items()}
    for surface, canonical in alias_map.items():
        for prop, ns in norms.items():
            if canonical in ns:
                surfaces[prop].add(surface)
    return {prop: [s.split() for s in sorted(ss) if s.split()] for prop, ss in surfaces.items()}


def reference_find_role_spans(sentence, surfaces):
    norm = list(sentence.normalized)
    spans = {}
    for prop, patterns in surfaces.items():
        best = None
        for pattern in patterns:
            width = len(pattern)
            for start in range(0, len(norm) - width + 1):
                if norm[start:start + width] == pattern:
                    if best is None or width > best[1] - best[0] or (
                        width == best[1] - best[0] and start < best[0]
                    ):
                        best = (start, start + width)
                    break
        if best is not None:
            spans[prop] = best
    return spans


def all_pairs_matcher(tables, cfg):
    pairs = [
        (table, entry, reference_entry_surfaces(entry, cfg.alias_map))
        for table in tables
        for entry in table.entries
    ]
    return lambda sentence: [
        (table, entry, reference_find_role_spans(sentence, patterns))
        for table, entry, patterns in pairs
    ]


# Month names start many values; "new", "new york", "new york city" are
# prefixes of one another; "" and "  " normalize to nothing.
DRAW_VALUES = [
    "March", "March 2012", "March 2013", "May", "May 2012", "new", "New York",
    "new  york city", "York", "Acme", "Acme Corp", "Bob", "Ann", "Bob Ann", "", "  ",
]
DRAW_FILLER = ["the", "in", "of", "met", "2012", "march", "city", "corp"]


def random_draw(seed):
    """Small tables, aliases and corpus that stress the first-token index."""
    rng = random.Random(seed)
    tables = []
    for t in range(rng.randint(1, 3)):
        props = ("a", "b", "date")[: rng.randint(1, 3) if t else 3]
        entries = []
        for e in range(rng.randint(1, 6)):
            # entry 0 has every property, so each one has an importance score
            kept = props if e == 0 else [p for p in props if rng.random() < 0.8]
            entries.append(TableEntry(
                f"e{rng.randint(0, 2)}",  # entry ids repeat
                {p: tuple(rng.sample(DRAW_VALUES, rng.randint(1, 2))) for p in kept},
            ))
        tables.append(EventTable(f"t{t}", props, (), tuple(entries)))
    norms = sorted({normalize_surface(v) for v in DRAW_VALUES} - {""})
    aliases = {}
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.25:
            surface = rng.choice(norms)
            aliases[surface] = surface  # a surface that is its own canonical form
        elif kind < 0.5:
            a, b, c = rng.sample(norms, 3)
            aliases[a], aliases[b] = b, c  # a chain: a matches b, not c
        else:
            aliases[rng.choice(["ms", "big blue", "nyc", "march"])] = rng.choice(norms)
    corpus = []
    for i in range(rng.randint(1, 8)):
        tokens = []
        while len(tokens) < rng.randint(2, 12):
            if rng.random() < 0.5:
                tokens.extend(rng.choice(DRAW_VALUES + list(aliases)).split())
            else:
                tokens.append(rng.choice(DRAW_FILLER))
        tokens = [rng.choice([str.lower, str.upper, str.title])(w) for w in tokens] or ["x"]
        order = list(range(len(tokens)))
        rng.shuffle(order)
        heads = [0] * len(tokens)
        heads[order[0]] = -1
        for k in range(1, len(order)):
            heads[order[k]] = order[rng.randrange(max(0, k - 2), k)]  # deep trees
        corpus.append(ParsedSentence.build(f"s{i}", tokens, heads))
    cfg = GenerationConfig(
        max_dep_distance=rng.choice([None, 1, 1, 2]),
        partial_negative_ratio=rng.choice([0.0, 0.5, 1.0, 2.0]),
        violation_negative_ratio=rng.choice([0.0, 1.0, 3.0]),
        alias_map=aliases,
    )
    return tables, corpus, cfg, rng.choice(list(Strategy)), rng.randrange(100)


class TestIndexedMatching:
    def test_equals_all_pairs_on_random_draws(self, monkeypatch):
        reasons = collections.Counter()
        pairs = candidates = 0
        for seed in range(250):
            tables, corpus, cfg, strategy, gen_seed = random_draw(seed)
            match, reference = supervision._indexed_matcher(tables, cfg), all_pairs_matcher(tables, cfg)
            for sentence in corpus:
                assert match(sentence) == [hit for hit in reference(sentence) if hit[2]]
            got = generate_dataset(tables, corpus, cfg, strategy, gen_seed)
            with monkeypatch.context() as m:
                m.setattr(supervision, "_indexed_matcher", all_pairs_matcher)
                want = generate_dataset(tables, corpus, cfg, strategy, gen_seed)
            assert got == want, f"draw {seed}"
            pairs += len(corpus) * sum(len(t.entries) for t in tables)
            candidates += sum(len(match(s)) for s in corpus)
            reasons.update(got[1]["negatives"]["pool_sizes"], positive=got[1]["positives"])
        # the draws reach every outcome, and the index skips pairs
        assert min(reasons.values()) >= 20, reasons
        assert candidates < pairs

    def test_pattern_tried_only_where_first_token_occurs(self):
        s = ParsedSentence.build("x", ["new", "new", "york", "new"], [-1, 0, 1, 0])
        assert spans_of(s, TableEntry("e", {"p": ("new york", "york new")})) == {"p": (1, 3)}
        assert spans_of(s, TableEntry("e", {"p": ("new york new new york",)})) == {}
        assert spans_of(s, TableEntry("e", {"p": ("",)})) == {}

    @staticmethod
    def spans(monkeypatch, tables, sentences, alias_map=None):
        """Each (entry, sentence)'s spans from the run's matcher, in table, entry and
        sentence order, after checking the matcher and the run against the all-pairs ones."""
        cfg = GenerationConfig(max_dep_distance=None, alias_map=alias_map or {})
        corpus = [
            ParsedSentence.build(f"s{i}", tokens, [-1, *range(len(tokens) - 1)])
            for i, tokens in enumerate(sentences)
        ]
        match, reference = supervision._indexed_matcher(tables, cfg), all_pairs_matcher(tables, cfg)
        by_sentence = []
        for sentence in corpus:
            hits = match(sentence)
            assert hits == [hit for hit in reference(sentence) if hit[2]]
            by_sentence.append({id(entry): spans for _, entry, spans in hits})
        found = [
            spans.get(id(entry), {})
            for table in tables
            for entry in table.entries
            for spans in by_sentence
        ]
        got = generate_dataset(tables, corpus, cfg, Strategy.ALL, 0)
        monkeypatch.setattr(supervision, "_indexed_matcher", all_pairs_matcher)
        assert got == generate_dataset(tables, corpus, cfg, Strategy.ALL, 0)
        return found

    def test_widths_overlapping_at_one_start_and_at_different_starts(self, monkeypatch):
        entry = TableEntry("e", {
            "a": ("new", "New York", "new york city"), "b": ("York", "York City", "city"),
        })
        found = self.spans(monkeypatch, [EventTable("t", ("a", "b"), (), (entry,))], [
            ["in", "New", "York", "City", "and", "new", "york"],
            ["new", "york", "new"],
        ])
        assert found == [{"a": (1, 4), "b": (2, 4)}, {"a": (0, 2), "b": (1, 2)}]

    def test_one_pattern_under_two_properties_and_two_entries(self, monkeypatch):
        first = EventTable("t1", ("a", "b"), (), (
            TableEntry("e1", {"a": ("Acme",), "b": ("Acme", "Bob")}),
            TableEntry("e2", {"a": ("ACME",)}),
        ))
        second = EventTable("t2", ("x",), (), (TableEntry("e3", {"x": ("acme",)}),))
        found = self.spans(monkeypatch, [first, second], [["Bob", "met", "Acme"], ["acme"]])
        assert found == [
            {"a": (2, 3), "b": (0, 1)}, {"a": (0, 1), "b": (0, 1)},
            {"a": (2, 3)}, {"a": (0, 1)},
            {"x": (2, 3)}, {"x": (0, 1)},
        ]

    def test_pattern_longer_than_the_sentence(self, monkeypatch):
        entry = TableEntry("e", {"a": ("one two three four", "two"), "b": ("one two three four",)})
        found = self.spans(monkeypatch, [EventTable("t", ("a", "b"), (), (entry,))], [
            ["one", "two", "three"], ["four"],
        ])
        assert found == [{"a": (1, 2)}, {}]

    def test_alias_longer_than_its_canonical_value(self, monkeypatch):
        aliases = {"international business machines": "ibm", "big blue": "ibm"}
        entry = TableEntry("e", {"buyer": ("IBM",), "date": ("2004",)})
        found = self.spans(monkeypatch, [EventTable("t", ("buyer", "date"), (), (entry,))], [
            ["International", "Business", "Machines", "bought", "IBM", "in", "2004"],
            ["IBM", "is", "Big", "Blue"],
            ["Business", "Machines", "2004"],
        ], aliases)
        assert found == [{"buyer": (0, 3), "date": (6, 7)}, {"buyer": (2, 4)}, {"date": (2, 3)}]

    def test_token_repeated_many_times(self, monkeypatch):
        entry = TableEntry("e", {"a": ("new new new", "new york"), "b": ("new",), "c": ("york",)})
        found = self.spans(monkeypatch, [EventTable("t", ("a", "b", "c"), (), (entry,))], [
            ["new"] * 40 + ["york"], ["new"] * 2 + ["york"], ["new"] * 40,
        ])
        assert found == [
            {"a": (0, 3), "b": (0, 1), "c": (40, 41)},
            {"a": (1, 3), "b": (0, 1), "c": (2, 3)},
            {"a": (0, 3), "b": (0, 1)},
        ]


class TestBitIdentity:
    """sha256 of the written dataset.jsonl plus the JSON report. The first four settings were
    pinned from the all-pairs matcher, the non-default ratios from the indexed matcher."""

    RATIOS = {"partial_negative_ratio": 0.5, "violation_negative_ratio": 2.5}
    SETTINGS = [(Strategy.ALL, None, {}), (Strategy.IMP_TIME, 2, {}), (Strategy.IMP, 2, {}),
                (Strategy.IMP, None, {}), (Strategy.IMP_TIME, 2, RATIOS)]
    FIXTURES = [
        "bea1ea7a01b9abeb56e347bf9e2acc6ff61b027fe8d9f531040eab58bf8c1ba3",
        "1cae7c942055fddea1fe97729ca9f69a1764a11fb350a8d6139e6d2722ef8d7b",
        "e04e5be7b788b7aeb2feb75f803bcde432842e48b130679616667cda22f9e2f6",
        "cea072c0544bc9f98b0ff1de18e02eed43fc8f5d94eaf0cccd5ec3bec532ad15",
        "e72488e6c3a22fe2a27cf62b3124dedaa21a6f19e053f025544ef55b2cd38afe",
    ]
    SYNTH = [
        "0b7127ee1a0f401e3b33fa596d7e5c3c6adb473bf3fd74e69e2a9f34bcf47b66",
        "d650c9e5f367db597a9d9e6be850a06e252ad078078d5c3fbaff633908797fad",
        "04dd7efd18937b419c52e22c2b448908ccf235400bae618eb28c5f58628d2c33",
        "a40f5cf12209c459baab3c506f4d67c10daa3958589e2d7f4dd030c9006bb757",
        "a4c2fc38007d65bd78dca0dc72a10412171ea2ed9cd2f23cfcee66a42c732bfc",
    ]

    @staticmethod
    def digest(tmp_path, tables, corpus, strategy, max_dist, ratios, alias_map):
        cfg = GenerationConfig(max_dep_distance=max_dist, alias_map=alias_map, **ratios)
        records, report = generate_dataset(tables, corpus, cfg, strategy=strategy, seed=0)
        path = tmp_path / "dataset.jsonl"
        supervision.write_dataset(str(path), records)
        h = hashlib.sha256(path.read_bytes())
        h.update(json.dumps(report).encode())
        return h.hexdigest()

    def test_fixtures_with_aliases(self, tmp_path, fixture_tables, fixture_corpus, fixture_paths):
        aliases = supervision.read_alias_map(fixture_paths["aliases"])
        got = [
            self.digest(tmp_path, fixture_tables, fixture_corpus, strategy, dist, ratios, aliases)
            for strategy, dist, ratios in self.SETTINGS
        ]
        assert got == self.FIXTURES

    def test_strategy_ordering_corpus(self, tmp_path):
        corpus = build_synth_corpus(seed=0)
        got = [
            self.digest(tmp_path, corpus.tables, corpus.sentences, strategy, dist, ratios, {})
            for strategy, dist, ratios in self.SETTINGS
        ]
        assert got == self.SYNTH
