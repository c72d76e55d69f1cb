import random

import pytest

from corpusgen import build_synth_corpus
from tabevent import evaluation, supervision
from tabevent.core import EventSchema
from tabevent.evaluation import mentions_from_record, score_all_standards, score_key_args
from tabevent.supervision import GenerationConfig, Strategy, dataset_report


def schemas():
    return {
        "hire": EventSchema(
            "hire", frozenset({"who", "org"}), frozenset({"title"}),
            {"who": 0.0, "org": 0.0, "title": -1.0},
        )
    }


def record(sid, events):
    return {
        "sentence_id": sid,
        "events": [
            {
                "event_type": t,
                "arguments": [
                    {"role": r, "span": [s, e]} for r, s, e in args
                ],
            }
            for t, args in events
        ],
    }


HIRE_FULL = [("who", 0, 1), ("org", 2, 3), ("title", 4, 6)]
HIRE_KEYS = [("who", 0, 1), ("org", 2, 3)]


def score_event_classification(pred, gold):
    return score_all_standards(pred, gold, {})["event_classification"]


def score_all_args(pred, gold, schemas):
    return score_all_standards(pred, gold, schemas)["all_argument_detection"]


class TestEventClassification:
    def test_exact_match(self):
        gold = [record("a", [("hire", HIRE_FULL)])]
        out = score_event_classification(gold, gold)
        assert (out["precision"], out["recall"], out["f1"]) == (1.0, 1.0, 1.0)

    def test_half_right(self):
        pred = [record("a", [("hire", HIRE_KEYS), ("other", [])])]
        gold = [record("a", [("hire", HIRE_FULL), ("third", [])])]
        out = score_event_classification(pred, gold)
        assert (out["precision"], out["recall"], out["f1"]) == (0.5, 0.5, 0.5)

    def test_empty_predictions(self):
        pred = [record("a", [])]
        gold = [record("a", [("hire", HIRE_FULL)])]
        out = score_event_classification(pred, gold)
        assert (out["precision"], out["recall"], out["f1"]) == (0.0, 0.0, 0.0)

    def test_per_type_breakdown(self):
        pred = [record("a", [("hire", HIRE_KEYS)])]
        gold = [record("a", [("hire", HIRE_FULL), ("win", [])])]
        out = score_event_classification(pred, gold)
        assert out["per_type"]["hire"]["f1"] == 1.0
        assert out["per_type"]["win"]["recall"] == 0.0


class TestKeyArgs:
    def test_exact(self):
        gold = [record("a", [("hire", HIRE_FULL)])]
        pred = [record("a", [("hire", HIRE_KEYS)])]  # non-key args optional here
        out = score_key_args(pred, gold, schemas())
        assert out["f1"] == 1.0

    def test_span_off_by_one(self):
        gold = [record("a", [("hire", HIRE_FULL)])]
        pred = [record("a", [("hire", [("who", 0, 2), ("org", 2, 3)])])]
        out = score_key_args(pred, gold, schemas())
        assert out["f1"] == 0.0

    def test_mixed_hand_count(self):
        gold = [
            record("a", [("hire", HIRE_FULL)]),
            record("b", [("hire", [("who", 1, 2), ("org", 3, 4)])]),
            record("c", [("hire", [("who", 0, 1), ("org", 5, 6)])]),
        ]
        pred = [
            record("a", [("hire", HIRE_KEYS)]),                      # correct
            record("b", [("hire", [("who", 1, 2), ("org", 9, 10)])]),  # wrong org
            record("c", []),                                           # miss
        ]
        out = score_key_args(pred, gold, schemas())
        assert out["precision"] == pytest.approx(1 / 2)
        assert out["recall"] == pytest.approx(1 / 3)
        assert out["f1"] == pytest.approx(2 * 0.5 * (1 / 3) / (0.5 + 1 / 3))


class TestAllArgs:
    def test_exact(self):
        gold = [record("a", [("hire", HIRE_FULL)])]
        out = score_all_args(gold, gold, schemas())
        assert out["f1"] == 1.0

    def test_missing_nonkey_fails(self):
        gold = [record("a", [("hire", HIRE_FULL)])]
        pred = [record("a", [("hire", HIRE_KEYS)])]
        out = score_all_args(pred, gold, schemas())
        assert out["f1"] == 0.0

    def test_chain_on_noisy_predictions(self):
        gold = [
            record("a", [("hire", HIRE_FULL)]),
            record("b", [("hire", [("who", 1, 2), ("org", 3, 4), ("title", 5, 6)])]),
            record("c", [("hire", [("who", 0, 1), ("org", 5, 6)])]),
        ]
        pred = [
            record("a", [("hire", HIRE_FULL)]),                       # fully right
            record("b", [("hire", [("who", 1, 2), ("org", 3, 4)])]),  # keys only
            record("c", [("hire", [("who", 0, 1), ("org", 4, 5)])]),  # wrong key span
        ]
        sch = schemas()
        f_all = score_all_args(pred, gold, sch)["f1"]
        f_key = score_key_args(pred, gold, sch)["f1"]
        f_ec = score_event_classification(pred, gold)["f1"]
        assert f_all <= f_key <= f_ec
        assert f_all < f_ec  # strict somewhere in this fixture


class TestAlignment:
    def test_unaligned_ids_error(self):
        pred = [record("zz", [])]
        gold = [record("a", [])]
        with pytest.raises(ValueError, match="absent from the gold"):
            score_event_classification(pred, gold)

    def test_duplicate_ids_error(self):
        gold = [record("a", []), record("a", [])]
        with pytest.raises(ValueError, match="duplicate"):
            score_event_classification([], gold)

    def test_missing_prediction_record_means_no_events(self):
        gold = [record("a", [("hire", HIRE_FULL)]), record("b", [])]
        out = score_event_classification([record("b", [])], gold)
        assert out["recall"] == 0.0


class TestGreedyMatching:
    def test_one_to_one_no_double_credit(self):
        gold = [record("a", [("hire", HIRE_KEYS)])]
        pred = [record("a", [("hire", HIRE_KEYS), ("hire", HIRE_KEYS)])]
        out = score_key_args(pred, gold, schemas())
        assert out["precision"] == 0.5 and out["recall"] == 1.0

    def test_maximal_overlap_preferred(self):
        gold = [
            record(
                "a",
                [
                    ("hire", HIRE_KEYS),
                    ("hire", [("who", 0, 1), ("org", 2, 3), ("title", 4, 6)]),
                ],
            )
        ]
        pred = [record("a", [("hire", HIRE_FULL)])]
        out = score_all_args(pred, gold, schemas())
        assert out["precision"] == 1.0


def test_mentions_from_record():
    rec = {
        "sentence_id": "x",
        "tokens": ["Ana", "Reed", "joined", "Acme", "Corp"],
        "labels": [
            "B-hire:who", "I-hire:who", "O", "B-hire:org", "I-hire:org",
        ],
        "event_types": ["hire"],
        "polarity": "positive",
    }
    out = mentions_from_record(rec, schemas())
    assert out["sentence_id"] == "x"
    assert out["events"] == [
        {
            "event_type": "hire",
            "arguments": [
                {"role": "who", "span": [0, 2], "text": "Ana Reed"},
                {"role": "org", "span": [3, 5], "text": "Acme Corp"},
            ],
        }
    ]


def test_mentions_from_record_skips_unqualified_roles():
    rec = {
        "sentence_id": "x",
        "tokens": ["Ana", "joined", "Acme"],
        "labels": ["B-who", "O", "B-hire:org"],
        "event_types": ["hire"],
    }
    assert mentions_from_record(rec, schemas())["events"] == [
        {"event_type": "hire", "arguments": [{"role": "org", "span": [2, 3], "text": "Acme"}]}
    ]


class TestAgainstMaximumMatching:
    """Each standard's scores equal those of a maximum one-to-one matching of
    predicted and gold events per sentence, found by trying every assignment."""

    SCHEMAS = {
        **schemas(),
        "win": EventSchema("win", frozenset({"who"}), frozenset({"prize"}), {"who": 0.0, "prize": -1.0}),
    }
    TYPES = ["hire", "win", "other"]  # "other" has no schema
    ROLES = ["who", "org", "title", "prize"]

    def matches(self, standard, p, g):
        (ptype, pargs), (gtype, gargs) = p, g
        if ptype != gtype:
            return False
        if standard == "key_argument_detection":
            if ptype not in self.SCHEMAS:
                return False
            keys = self.SCHEMAS[ptype].key_args
            return {a for a in pargs if a[0] in keys} == {a for a in gargs if a[0] in keys}
        if standard == "all_argument_detection":
            return set(pargs) == set(gargs)
        return True

    def most_pairs(self, preds, golds, match):
        if not preds:
            return 0
        first, rest = preds[0], preds[1:]
        best = self.most_pairs(rest, golds, match)
        for j, g in enumerate(golds):
            if match(first, g):
                best = max(best, 1 + self.most_pairs(rest, golds[:j] + golds[j + 1:], match))
        return best

    def random_events(self, rng, like=()):
        events = []
        for _ in range(rng.randint(0, 4)):
            if like and rng.random() < 0.4:
                events.append(rng.choice(like))
            elif events and rng.random() < 0.2:
                events.append(rng.choice(events))  # a repeated event
            else:
                roles = rng.sample(self.ROLES, rng.randint(0, 3))
                events.append((rng.choice(self.TYPES), [(r, s, s + 1) for r in roles for s in [rng.randint(0, 1)]]))
        return events

    def expected(self, pred, gold, standard):
        counts = {}  # type -> [correct, predicted, gold]
        for sid, gold_events in gold.items():
            pred_events = pred.get(sid, [])
            if standard == "event_classification":  # each type once per sentence
                pred_events = [(t, []) for t in sorted({t for t, _ in pred_events})]
                gold_events = [(t, []) for t in sorted({t for t, _ in gold_events})]
            for t in self.TYPES:
                ps = [e for e in pred_events if e[0] == t]
                gs = [e for e in gold_events if e[0] == t]
                if ps or gs:
                    c = counts.setdefault(t, [0, 0, 0])
                    c[0] += self.most_pairs(ps, gs, lambda p, g: self.matches(standard, p, g))
                    c[1] += len(ps)
                    c[2] += len(gs)

        def prf(c, p, g):
            precision, recall = (c / p if p else 0.0), (c / g if g else 0.0)
            f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
            return {"precision": precision, "recall": recall, "f1": f1}

        out = prf(*(sum(c[i] for c in counts.values()) for i in range(3)))
        out["per_type"] = {t: prf(*c) for t, c in sorted(counts.items())}
        return out

    def test_random_draws(self):
        rng = random.Random(0)
        stray_draws = 0
        for _ in range(2500):
            gold = {f"s{i}": self.random_events(rng) for i in range(rng.randint(1, 3))}
            pred = {sid: self.random_events(rng, like=events) for sid, events in gold.items()
                    if rng.random() < 0.85}  # some sentences have no prediction record
            if rng.random() < 0.05:
                pred["stray"] = self.random_events(rng)
            pred_recs = [record(sid, events) for sid, events in pred.items()]
            gold_recs = [record(sid, events) for sid, events in gold.items()]
            if "stray" in pred:
                stray_draws += 1
                with pytest.raises(ValueError, match="absent from the gold set"):
                    evaluation.score_all_standards(pred_recs, gold_recs, self.SCHEMAS)
                continue
            got = evaluation.score_all_standards(pred_recs, gold_recs, self.SCHEMAS)
            for standard, scores in got.items():
                assert scores == self.expected(pred, gold, standard), (standard, pred, gold)
            assert got["key_argument_detection"] == score_key_args(pred_recs, gold_recs, self.SCHEMAS)
        assert stray_draws > 50


class TestDatasetReport:
    def test_empty(self):
        out = dataset_report([])
        assert out["sentences"] == 0 and out["positives"] == 0
        assert out["positive_percentage"] == 0.0
        assert out["arguments_per_event"] == 0.0

    def test_hand_computed(self):
        records = [
            {
                "sentence_id": f"s{i}",
                "tokens": [],
                "labels": ["B-hire:who", "B-hire:org"],
                "event_types": ["hire"],
                "polarity": "positive",
            }
            for i in range(3)
        ] + [
            {
                "sentence_id": "m",
                "tokens": [],
                "labels": ["B-hire:who", "B-win:prize"],
                "event_types": ["hire", "win"],
                "polarity": "positive",
            },
            {"sentence_id": "n", "tokens": [], "labels": ["O"], "event_types": [], "polarity": "negative", "reason": "trivial"},
        ]
        out = dataset_report(records)
        assert out["sentences"] == 5
        assert out["positives"] == 4
        assert out["positive_percentage"] == pytest.approx(80.0)
        assert out["types"] == 2
        assert out["events"] == 5
        assert out["multi_type_fraction"] == pytest.approx(0.25)
        assert out["arguments_per_event"] == pytest.approx(8 / 5)

    def test_all_positives_subset_of_imp(self):
        corpus = build_synth_corpus(
            n_true=30, n_near=30, n_false_event=5, n_distant=20, n_filler=30,
            n_entries=10, seed=3,
        )
        cfg = GenerationConfig(max_dep_distance=None)
        all_recs, _ = supervision.generate_dataset(
            corpus.tables, corpus.sentences, cfg, strategy=Strategy.ALL
        )
        imp_recs, _ = supervision.generate_dataset(
            corpus.tables, corpus.sentences, cfg, strategy=Strategy.IMP
        )
        all_pos = {r["sentence_id"] for r in all_recs if r["polarity"] == "positive"}
        imp_pos = {r["sentence_id"] for r in imp_recs if r["polarity"] == "positive"}
        assert all_pos and all_pos <= imp_pos
