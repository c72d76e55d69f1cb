"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Oracle-based criteria compare production code paths against
exhaustive enumeration or finite differences; scaled-down claims run on
seeded synthetic corpora built in corpusgen.
"""

import time

import numpy as np
import pytest

from corpusgen import (
    build_learn_corpus,
    build_synth_corpus,
    c4_violation_problem,
    two_type_problem,
)
from tabevent import crf, evaluation, ilp, oracle, pipeline, supervision
from tabevent.core import EventSchema
from tabevent.supervision import GenerationConfig, Strategy


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


def test_01_ilp_optimality():
    t0 = time.monotonic()
    rep = oracle.check_ilp(trials=500, seed=0)
    elapsed = time.monotonic() - t0
    ok = rep.ok and elapsed < 60.0
    report(1, "ilp-optimality", ok, f"500 instances, {elapsed:.1f}s")


def test_02_viterbi_correctness():
    rep = oracle.check_viterbi(trials=500, seed=1)
    report(2, "viterbi-correctness", rep.ok, "500 instances")


def test_03_partition_correctness():
    rep = oracle.check_partition(trials=200, seed=2, rel_tol=1e-9)
    report(3, "partition-correctness", rep.ok, "200 instances, rel 1e-9")


def test_04_gradient_checks():
    crf_rep = oracle.check_crf_gradients(trials=10, abs_tol=1e-5)
    net_rep = oracle.check_blstm_gradients(trials=10, rel_tol=1e-3)
    ok = crf_rep.ok and net_rep.ok
    report(4, "gradient-checks", ok, "crf abs 1e-5, blstm rel 1e-3, 10 trials each")


def test_05_constraint_soundness():
    rng = np.random.default_rng(3)
    decode_violations = 0
    outputs = 0
    for _ in range(200):
        prob = oracle.random_problem(rng)
        seqs = [ilp.ilp_decode(prob)]
        seqs += ilp.ilp_decode_multi(prob).sequences
        for seq in seqs:
            outputs += 1
            if ilp.check_constraints(seq.tags, prob.labels):
                decode_violations += 1
    viterbi_c4 = 0
    fixtures = 12
    for seed in range(fixtures):
        prob = c4_violation_problem(seed)
        path, _ = crf.viterbi(prob.emissions, prob.transitions)
        tags = [prob.labels.labels[i] for i in path]
        if any(v.startswith("C4") for v in ilp.check_constraints(tags, prob.labels)):
            viterbi_c4 += 1
    ok = decode_violations == 0 and viterbi_c4 > 0
    report(
        5,
        "constraint-soundness",
        ok,
        f"{outputs} decoder outputs clean; raw viterbi violates C4 on "
        f"{viterbi_c4}/{fixtures} constructed fixtures",
    )


def test_06_multi_solution_contract():
    prob = two_type_problem()
    res = ilp.ilp_decode_multi(prob)
    lam = prob.lambda_factor * prob.n
    ok = len(res.sequences) == 2
    ok = ok and res.sequences[0].score - res.sequences[1].score < lam
    ok = ok and all(
        ilp.check_constraints(s.tags, prob.labels) == [] for s in res.sequences
    )
    single = ilp.ilp_decode_multi(two_type_problem(lambda_factor=0.0))
    ok = ok and len(single.sequences) == 1
    report(
        6,
        "multi-solution-contract",
        ok,
        f"2 sequences, gap {res.sequences[0].score - res.sequences[1].score:.2f} < "
        f"lambda {lam:.2f}; lambda=0 gives 1",
    )


def test_07_generation_fidelity(fixture_tables, fixture_corpus, fixture_schemas, fixture_dataset):
    schema = fixture_schemas["business.acquisition"]
    ok = schema.key_args == {"company_acquired", "acquiring_company", "date"}

    records, _ = fixture_dataset
    by_id = {r["sentence_id"]: r for r in records}
    ok = ok and by_id["S2"]["polarity"] == "positive"
    want_s2 = ["O"] * 14
    want_s2[0] = "B-business.acquisition:acquiring_company"
    want_s2[10] = "B-business.acquisition:company_acquired"
    want_s2[12] = "B-business.acquisition:date"
    ok = ok and by_id["S2"]["labels"] == want_s2
    ok = ok and by_id["S3"]["polarity"] == "negative"
    ok = ok and by_id["S3"]["reason"] == "partial"
    ok = ok and by_id["S4"]["polarity"] == "negative"
    ok = ok and by_id["S4"]["reason"] == "distance"
    ok = ok and by_id["S4"]["max_key_distance"] == 3
    report(
        7,
        "generation-fidelity",
        ok,
        "key args, S2 positive, S3 partial, S4 distance=3",
    )


def test_08_strategy_ordering():
    corpus = build_synth_corpus(seed=0)

    def positive_precision(strategy, max_dist):
        cfg = GenerationConfig(max_dep_distance=max_dist)
        records, _ = supervision.generate_dataset(
            corpus.tables, corpus.sentences, cfg, strategy=strategy, seed=0
        )
        pos = [r["sentence_id"] for r in records if r["polarity"] == "positive"]
        return sum(1 for sid in pos if sid in corpus.true_ids) / len(pos)

    p_all = positive_precision(Strategy.ALL, None)
    p_imp_time_dis = positive_precision(Strategy.IMP_TIME, 2)
    p_imp_dis = positive_precision(Strategy.IMP, 2)
    p_imp = positive_precision(Strategy.IMP, None)
    ok = p_all >= p_imp_time_dis > p_imp_dis > p_imp
    report(
        8,
        "strategy-ordering",
        ok,
        f"ALL {p_all:.3f} >= IMP&TIME+DIS {p_imp_time_dis:.3f} > "
        f"IMP+DIS {p_imp_dis:.3f} > IMP {p_imp:.3f}",
    )


@pytest.fixture(scope="module")
def learned():
    corpus, train_sents, held_sents = build_learn_corpus()
    records, rep = supervision.generate_dataset(
        corpus.tables, corpus.sentences, GenerationConfig(), seed=3
    )
    schemas = {s["event_type"]: EventSchema.from_dict(s) for s in rep["schemas"]}
    train_ids = {s.id for s in train_sents}
    train_recs = [r for r in records if r["sentence_id"] in train_ids]
    held_recs = [r for r in records if r["sentence_id"] not in train_ids]

    settings = pipeline.TrainSettings(
        epochs=50,
        lr=0.01,
        seed=0,
        dev_fraction=0.1,
        patience=5,
        embed_dim=24,
        hidden1=16,
        hidden2=16,
        keyarg_dim=6,
        dropout=0.0,
    )
    t0 = time.monotonic()
    model, history = pipeline.train_pipeline(train_recs, schemas, settings)
    train_time = time.monotonic() - t0

    gold_train = [evaluation.mentions_from_record(r, schemas) for r in train_recs]
    train_used = [s for s in train_sents if s.id in {r["sentence_id"] for r in train_recs}]
    pred_train = [pipeline.extract_sentence(s, model, decoder="ilp") for s in train_used]

    held_used_ids = {r["sentence_id"] for r in held_recs}
    held_used = [s for s in held_sents if s.id in held_used_ids]
    gold_held = [evaluation.mentions_from_record(r, schemas) for r in held_recs]
    pred_held_viterbi = [pipeline.extract_sentence(s, model, decoder="viterbi") for s in held_used]
    pred_held_ilp = [pipeline.extract_sentence(s, model, decoder="ilp") for s in held_used]
    return {
        "schemas": schemas,
        "train_time": train_time,
        "epochs_run": len(history["stage1"]["train_nll"]),
        "pred_train": pred_train,
        "gold_train": gold_train,
        "pred_held_viterbi": pred_held_viterbi,
        "pred_held_ilp": pred_held_ilp,
        "gold_held": gold_held,
    }


def test_09_learnability(learned):
    f1_train = evaluation.score_all_standards(
        learned["pred_train"], learned["gold_train"], {}
    )["event_classification"]["f1"]
    f1_viterbi = evaluation.score_all_standards(
        learned["pred_held_viterbi"], learned["gold_held"], {}
    )["event_classification"]["f1"]
    f1_ilp = evaluation.score_all_standards(
        learned["pred_held_ilp"], learned["gold_held"], {}
    )["event_classification"]["f1"]
    ok = (
        f1_train >= 0.95
        and learned["epochs_run"] <= 50
        and learned["train_time"] < 300.0
        and f1_ilp >= f1_viterbi
    )
    report(
        9,
        "learnability",
        ok,
        f"train F1 {f1_train:.3f} in {learned['epochs_run']} epochs / "
        f"{learned['train_time']:.0f}s; held-out ilp {f1_ilp:.3f} >= "
        f"viterbi {f1_viterbi:.3f}",
    )


def test_10_metric_chain(learned):
    hand_schemas = {
        "hire": EventSchema(
            "hire", frozenset({"who", "org"}), frozenset({"title"}),
            {"who": 0.0, "org": 0.0, "title": -1.0},
        )
    }
    hand_gold = [
        {
            "sentence_id": "a",
            "events": [
                {
                    "event_type": "hire",
                    "arguments": [
                        {"role": "who", "span": [0, 1]},
                        {"role": "org", "span": [2, 3]},
                        {"role": "title", "span": [4, 6]},
                    ],
                }
            ],
        },
        {"sentence_id": "b", "events": []},
    ]
    hand_pred = [
        {
            "sentence_id": "a",
            "events": [
                {
                    "event_type": "hire",
                    "arguments": [
                        {"role": "who", "span": [0, 1]},
                        {"role": "org", "span": [2, 3]},
                    ],
                }
            ],
        },
        {"sentence_id": "b", "events": []},
    ]
    cases = [
        (learned["pred_train"], learned["gold_train"], learned["schemas"]),
        (learned["pred_held_viterbi"], learned["gold_held"], learned["schemas"]),
        (learned["pred_held_ilp"], learned["gold_held"], learned["schemas"]),
        (hand_pred, hand_gold, hand_schemas),
    ]
    ok = True
    chains = []
    for pred, gold, schemas in cases:
        scores = evaluation.score_all_standards(pred, gold, schemas)
        f_ec = scores["event_classification"]["f1"]
        f_key = evaluation.score_key_args(pred, gold, schemas)["f1"]
        f_all = scores["all_argument_detection"]["f1"]
        chains.append((f_all, f_key, f_ec))
        ok = ok and f_all <= f_key <= f_ec
    report(
        10,
        "metric-chain",
        ok,
        "; ".join(f"{a:.2f}<={k:.2f}<={e:.2f}" for a, k, e in chains),
    )
