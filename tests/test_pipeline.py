import base64
import dataclasses
import json
import os
import pathlib
import random
import signal
import time
import tracemalloc

import numpy as np
import pytest

from corpusgen import build_learn_corpus
from tabevent import crf, ilp, neural, pipeline, supervision
from tabevent.core import Argument, EventSchema, LabelSequence, ParsedSentence, spans_from_tags
from tabevent.pipeline import (
    ExtractorModel,
    TaggerModel,
    TrainSettings,
    build_label_sets,
    project_tags,
    stage1,
    stage2,
    train_pipeline,
)
from tabevent.supervision import GenerationConfig, split_role

DATA = pathlib.Path(__file__).resolve().parent / "data"
MODEL = DATA / "model_v3.bin"


def make_schemas():
    return {
        "org.hiring": EventSchema(
            "org.hiring",
            frozenset({"employee", "employer"}),
            frozenset({"title"}),
            {"employee": 0.0, "employer": 0.0, "title": -1.0},
        ),
        "sport.win": EventSchema(
            "sport.win",
            frozenset({"athlete"}),
            frozenset({"medal"}),
            {"athlete": 0.0, "medal": -1.0},
        ),
    }


class FixedTagger(TaggerModel):
    """Tagger whose emissions are injected directly; decoding still runs."""

    def __init__(self, P, A, label_set, keyarg_P=None, cfg=None):
        self._P = np.asarray(P, dtype=float)
        self.params = {"crf.A": np.asarray(A, dtype=float)}
        self.label_set = label_set
        self.cfg = cfg or neural.ModelConfig(
            vocab={neural.UNK: 0}, num_labels=len(label_set)
        )

    def emissions(self, sentence, keyarg_ids=None):
        return self._P


def untrained_model(tokens, embed_dim=6, hidden=5) -> ExtractorModel:
    """A randomly initialized two-stage model over `make_schemas()` with the given vocabulary."""
    labels1, labels2 = build_label_sets(make_schemas())
    vocab = {neural.UNK: 0, **{t: k + 1 for k, t in enumerate(tokens)}}
    rng = np.random.default_rng(0)
    cfg1 = neural.ModelConfig(vocab=vocab, num_labels=len(labels1), embed_dim=embed_dim,
                              lstm_hidden=hidden)
    cfg2 = neural.ModelConfig(vocab=vocab, num_labels=len(labels2), embed_dim=embed_dim,
                              lstm_hidden=hidden, keyarg_embed_dim=3, num_keyarg_labels=len(labels1))
    return ExtractorModel(
        TaggerModel(cfg1, neural.init_params(cfg1, rng), labels1),
        TaggerModel(cfg2, neural.init_params(cfg2, rng), labels2),
        make_schemas(),
    )


def force_emissions(label_set, tag_lists):
    """Emission matrix that makes the given tags win by a wide margin."""
    P = np.zeros((len(tag_lists), len(label_set)))
    for i, tag in enumerate(tag_lists):
        P[i, label_set.index(tag)] = 10.0
    return P


def test_build_label_sets():
    labels1, labels2 = build_label_sets(make_schemas())
    assert labels1.roles == (
        "org.hiring:employee",
        "org.hiring:employer",
        "sport.win:athlete",
    )
    assert labels1.groups == {
        "org.hiring": frozenset({"org.hiring:employee", "org.hiring:employer"}),
        "sport.win": frozenset({"sport.win:athlete"}),
    }
    assert labels2.roles == ("org.hiring:title", "sport.win:medal")


def test_project_tags():
    labels1, _ = build_label_sets(make_schemas())
    tags = ["B-org.hiring:employee", "B-org.hiring:title", "O", "I-sport.win:athlete"]
    projected = project_tags(tags, labels1, labels1.roles)
    assert [labels1.labels[i] for i in projected] == [*tags[:1], "O", "O", tags[3]]
    projected = project_tags(tags, labels1, {"org.hiring:employee", "org.hiring:title"})
    assert [labels1.labels[i] for i in projected] == [*tags[:1], "O", "O", "O"]


class TestStage1:
    def sentence(self, fixture_corpus):
        return fixture_corpus[4]  # any sentence; emissions are injected

    def test_detects_type_with_all_keys(self, fixture_corpus):
        labels1, _ = build_label_sets(make_schemas())
        tags = ["B-org.hiring:employee", "O", "B-org.hiring:employer", "O", "O", "O", "O", "O"]
        model = FixedTagger(
            force_emissions(labels1, tags), np.zeros((len(labels1),) * 2), labels1
        )
        got = stage1(self.sentence(fixture_corpus), model, decoder="viterbi")
        assert [t for t, _ in got] == ["org.hiring"]
        assert got[0][1].tags == tuple(tags)

    def test_all_outside_detects_nothing(self, fixture_corpus):
        labels1, _ = build_label_sets(make_schemas())
        tags = ["O"] * 8
        model = FixedTagger(
            force_emissions(labels1, tags), np.zeros((len(labels1),) * 2), labels1
        )
        assert stage1(self.sentence(fixture_corpus), model, decoder="ilp") == []

    def test_partial_keys_detect_nothing_under_viterbi(self, fixture_corpus):
        labels1, _ = build_label_sets(make_schemas())
        tags = ["B-org.hiring:employee"] + ["O"] * 7
        model = FixedTagger(
            force_emissions(labels1, tags), np.zeros((len(labels1),) * 2), labels1
        )
        assert stage1(self.sentence(fixture_corpus), model, decoder="viterbi") == []

    def test_unknown_decoder(self, fixture_corpus):
        labels1, _ = build_label_sets(make_schemas())
        model = FixedTagger(np.zeros((8, len(labels1))), np.zeros((len(labels1),) * 2), labels1)
        with pytest.raises(ValueError, match="decoder"):
            stage1(self.sentence(fixture_corpus), model, decoder="beam")

    def test_multi_mode_outputs_pass_constraints(self, fixture_corpus):
        labels1, _ = build_label_sets(make_schemas())
        rng = np.random.default_rng(0)
        model = FixedTagger(
            rng.normal(size=(8, len(labels1))), rng.normal(size=(len(labels1),) * 2), labels1
        )
        P = model.emissions(None)
        prob = ilp.DecodeProblem(P, model.transitions, labels1)
        for seq in ilp.ilp_decode_multi(prob).sequences:
            assert ilp.check_constraints(seq.tags, labels1) == []


class TestStage2:
    def setup_models(self, sentence_len):
        schemas = make_schemas()
        labels1, labels2 = build_label_sets(schemas)
        cfg2 = neural.ModelConfig(
            vocab={neural.UNK: 0},
            num_labels=len(labels2),
            keyarg_embed_dim=2,
            num_keyarg_labels=len(labels1),
        )
        return schemas, labels1, labels2, cfg2

    def detection(self, labels1, tags):
        return [("org.hiring", LabelSequence(tuple(tags), score=0.0))]

    def test_merges_nonkey_span(self, fixture_corpus):
        sent = fixture_corpus[4]  # 8 tokens
        schemas, labels1, labels2, cfg2 = self.setup_models(len(sent))
        key_tags = ["B-org.hiring:employee", "O", "B-org.hiring:employer"] + ["O"] * 5
        out_tags = ["O", "O", "O", "B-org.hiring:title", "I-org.hiring:title", "O", "O", "O"]
        model2 = FixedTagger(
            force_emissions(labels2, out_tags), np.zeros((len(labels2),) * 2), labels2, cfg=cfg2
        )
        mentions = stage2(sent, model2, labels1, self.detection(labels1, key_tags))
        assert len(mentions) == 1
        args = {(a.role, a.start, a.end) for a in mentions[0].arguments}
        assert args == {("employee", 0, 1), ("employer", 2, 3), ("title", 3, 5)}

    def test_nonkey_never_overwrites_key_span(self, fixture_corpus):
        sent = fixture_corpus[4]
        schemas, labels1, labels2, cfg2 = self.setup_models(len(sent))
        key_tags = ["B-org.hiring:employee", "O", "B-org.hiring:employer"] + ["O"] * 5
        # stage-2 tries to claim token 2, which belongs to a key span
        out_tags = ["O", "O", "B-org.hiring:title", "I-org.hiring:title"] + ["O"] * 4
        model2 = FixedTagger(
            force_emissions(labels2, out_tags), np.zeros((len(labels2),) * 2), labels2, cfg=cfg2
        )
        mentions = stage2(sent, model2, labels1, self.detection(labels1, key_tags))
        roles = {a.role for a in mentions[0].arguments}
        assert roles == {"employee", "employer"}
        key_args = {(a.role, a.start, a.end) for a in mentions[0].arguments}
        assert ("employee", 0, 1) in key_args and ("employer", 2, 3) in key_args

    def test_foreign_type_nonkey_dropped(self, fixture_corpus):
        sent = fixture_corpus[4]
        schemas, labels1, labels2, cfg2 = self.setup_models(len(sent))
        key_tags = ["B-org.hiring:employee", "O", "B-org.hiring:employer"] + ["O"] * 5
        out_tags = ["O"] * 5 + ["B-sport.win:medal", "O", "O"]
        model2 = FixedTagger(
            force_emissions(labels2, out_tags), np.zeros((len(labels2),) * 2), labels2, cfg=cfg2
        )
        mentions = stage2(sent, model2, labels1, self.detection(labels1, key_tags))
        assert {a.role for a in mentions[0].arguments} == {"employee", "employer"}

    def test_duplicate_role_keeps_leftmost(self, fixture_corpus):
        sent = fixture_corpus[4]
        schemas, labels1, labels2, cfg2 = self.setup_models(len(sent))
        key_tags = ["B-org.hiring:employee", "O", "B-org.hiring:employer"] + ["O"] * 5
        out_tags = ["O", "O", "O", "B-org.hiring:title", "O", "B-org.hiring:title", "O", "O"]
        model2 = FixedTagger(
            force_emissions(labels2, out_tags), np.zeros((len(labels2),) * 2), labels2, cfg=cfg2
        )
        mentions = stage2(sent, model2, labels1, self.detection(labels1, key_tags))
        titles = [(a.start, a.end) for a in mentions[0].arguments if a.role == "title"]
        assert titles == [(3, 4)]

    def test_duplicate_key_role_keeps_leftmost(self):
        # Two B- spans of one key role satisfy the stage-1 constraints, so
        # stage 2 must resolve them rather than build an invalid mention.
        schemas = {"t": EventSchema("t", frozenset({"a"}), frozenset(), {"a": 0.0})}
        labels1, labels2 = build_label_sets(schemas)
        key_tags = ("B-t:a", "O", "B-t:a")
        assert ilp.check_constraints(key_tags, labels1) == []
        sent = ParsedSentence.build("s", ["x", "y", "z"], [-1, 0, 0])
        cfg2 = neural.ModelConfig(
            vocab={neural.UNK: 0},
            num_labels=len(labels2),
            keyarg_embed_dim=2,
            num_keyarg_labels=len(labels1),
        )
        model2 = FixedTagger(
            np.zeros((3, len(labels2))), np.zeros((len(labels2),) * 2), labels2, cfg=cfg2
        )
        detections = [("t", LabelSequence(key_tags, score=0.0))]
        mentions = stage2(sent, model2, labels1, detections)
        assert len(mentions) == 1
        assert [(a.role, a.start, a.end) for a in mentions[0].arguments] == [("a", 0, 1)]

    @staticmethod
    def reference_assembly(event_type, key_tags, tags2):
        """A mention's arguments as stage 2 built them with its own loop, before it claimed
        spans through `claim_spans`."""
        arguments, claimed_roles, occupied = [], set(), set()
        for role, start, end in spans_from_tags(key_tags) + spans_from_tags(tags2):
            role_type, prop = split_role(role)
            if role_type != event_type or prop in claimed_roles:
                continue
            tokens = set(range(start, end))
            if tokens & occupied:
                continue
            arguments.append(Argument(prop, start, end))
            claimed_roles.add(prop)
            occupied |= tokens
        arguments.sort(key=lambda a: (a.start, a.end, a.role))
        return tuple(arguments)

    def test_assembly_equals_the_loop_it_replaced_on_random_draws(self):
        """10,000 draws of (type, stage-1 tags, stage-2 tags) over two types with few roles, so
        roles repeat and spans of one role, of other types and of both stages overlap. Stage 2
        keeps what its own loop kept, and each mention has unique roles and disjoint spans."""
        schemas, labels1, labels2, cfg2 = self.setup_models(0)
        A = np.zeros((len(labels2),) * 2)
        rng = random.Random(0)
        for _ in range(10_000):
            n = rng.randint(1, 8)
            key_tags = tuple(rng.choice(labels1.labels + ("O",) * 3) for _ in range(n))
            tags2 = [rng.choice(labels2.labels + ("O",) * 2) for _ in range(n)]
            event_type = rng.choice(sorted(schemas))
            sent = ParsedSentence.build("s", ["w"] * n, [-1] + [0] * (n - 1))
            model2 = FixedTagger(force_emissions(labels2, tags2), A, labels2, cfg=cfg2)
            [mention] = stage2(sent, model2, labels1, [(event_type, LabelSequence(key_tags, 0.0))])
            assert mention.arguments == self.reference_assembly(event_type, key_tags, tags2)
            roles = [a.role for a in mention.arguments]
            assert len(set(roles)) == len(roles)
            assert all(a.end <= b.start for a, b in zip(mention.arguments, mention.arguments[1:]))

    def test_label_set_size_mismatch(self, fixture_corpus):
        sent = fixture_corpus[4]
        schemas, labels1, labels2, cfg2 = self.setup_models(len(sent))
        cfg_bad = neural.ModelConfig(
            vocab={neural.UNK: 0},
            num_labels=len(labels2),
            keyarg_embed_dim=2,
            num_keyarg_labels=len(labels1) + 3,
        )
        model2 = FixedTagger(
            np.zeros((len(sent), len(labels2))), np.zeros((len(labels2),) * 2), labels2, cfg=cfg_bad
        )
        with pytest.raises(ValueError, match="key-argument"):
            stage2(sent, model2, labels1, self.detection(labels1, ["O"] * len(sent)))


def fast_settings(**kwargs):
    defaults = dict(
        epochs=40,
        lr=0.02,
        seed=0,
        dev_fraction=0.0,
        embed_dim=12,
        hidden1=10,
        hidden2=10,
        keyarg_dim=4,
        dropout=0.0,
    )
    defaults.update(kwargs)
    return TrainSettings(**defaults)


class TestTraining:
    @pytest.mark.parametrize("setting, value, message", [
        ("epochs", 0, "epochs must be at least 1"),
        ("epochs", -1, "epochs must be at least 1"),
        ("patience", -1, "patience must be non-negative"),
        ("dev_fraction", -0.5, r"dev_fraction must be in \[0, 1\)"),
        ("dev_fraction", 1.0, r"dev_fraction must be in \[0, 1\)"),
        ("dev_fraction", float("nan"), r"dev_fraction must be in \[0, 1\)"),
        ("lr", -1.0, "lr must be positive and finite"),
        ("lr", 0.0, "lr must be positive and finite"),
        ("lr", float("inf"), "lr must be positive and finite"),
        ("lr", float("nan"), "lr must be positive and finite"),
        ("seed", -1, "seed must be non-negative"),
        ("embed_dim", 0, "embed_dim must be at least 1"),
        ("hidden1", 0, "hidden1 must be at least 1"),
        ("hidden2", -1, "hidden2 must be at least 1"),
        ("keyarg_dim", 0, "keyarg_dim must be at least 1"),
        ("dropout", 1.0, r"dropout must be in \[0, 1\)"),
        ("dropout", -0.1, r"dropout must be in \[0, 1\)"),
        ("dropout", float("nan"), r"dropout must be in \[0, 1\)"),
    ])
    def test_settings_that_train_nothing_or_wrongly_refused(self, setting, value, message):
        with pytest.raises(ValueError, match=message):
            TrainSettings(**{setting: value})

    def test_settings_at_their_bounds_accepted(self):
        TrainSettings(epochs=1, patience=0, dev_fraction=0.0, lr=1e-12, seed=0, embed_dim=1,
                      hidden1=1, hidden2=1, keyarg_dim=1, dropout=0.0)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train_pipeline([], make_schemas())

    def test_single_instance_loss_monotone(self, fixture_dataset, fixture_schemas):
        records, _ = fixture_dataset
        one = [r for r in records if r["sentence_id"] == "S2"]
        settings = fast_settings(epochs=6, lr=1e-3)
        _, history = train_pipeline(one, fixture_schemas, settings)
        nll = history["stage1"]["train_nll"]
        assert len(nll) == 6
        assert all(a > b for a, b in zip(nll, nll[1:]))

    def test_training_is_deterministic(self, fixture_dataset, fixture_schemas, tmp_path):
        records, _ = fixture_dataset
        blobs = []
        for k in range(2):
            model, _ = train_pipeline(records, fixture_schemas, fast_settings(epochs=3))
            model.save(str(tmp_path / f"{k}.json"))
            blobs.append((tmp_path / f"{k}.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_row_rule_trains_the_bytes_of_rebinding_adam(self, tmp_path, monkeypatch):
        """A model whose embedding tables span more than one block of sgd_step, so its row
        rule runs, is byte-identical to one trained in the same process by Adam on separate
        arrays, each rebound (the reference of test_in_place_steps_equal_rebinding_adam)."""
        corpus, train, _ = build_learn_corpus(seed=7)
        records, _ = supervision.generate_dataset(corpus.tables, train, GenerationConfig(), seed=0)
        stats = supervision.collect_stats(corpus.tables)
        schemas = {t.event_type: supervision.select_key_args(t, stats) for t in corpus.tables}
        settings = TrainSettings(epochs=2, lr=0.01, dev_fraction=0.1, embed_dim=700, hidden1=3,
                                 hidden2=3, keyarg_dim=4, dropout=0.5)

        def rebinding_adam(params, grads, state, lr):
            beta1, beta2, eps = 0.9, 0.999, 1e-8
            state.t += 1
            t = state.t
            for name, g in grads.items():
                m = beta1 * state.m[name] + (1.0 - beta1) * g
                v = beta2 * state.v[name] + (1.0 - beta2) * g * g
                m_hat = m / (1.0 - beta1**t)
                v_hat = v / (1.0 - beta2**t)
                p = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
                state.m[name][...], state.v[name][...], params[name][...] = m, v, p
            params.step += 1

        blobs = []
        for k in range(2):
            if k:
                monkeypatch.setattr(neural, "sgd_step", rebinding_adam)
            model, _ = train_pipeline(records, schemas, settings)
            model.save(str(tmp_path / f"{k}.bin"))
            blobs.append((tmp_path / f"{k}.bin").read_bytes())
        for stage in (model.stage1, model.stage2):
            assert stage.params["embeddings"].size > neural._BLOCK
        assert blobs[0] == blobs[1]

    def test_overfit_reproduces_nonkey_annotation(self, fixture_dataset, fixture_schemas, fixture_corpus):
        records, _ = fixture_dataset
        model, _ = train_pipeline(records, fixture_schemas, fast_settings(epochs=60))
        s1 = fixture_corpus[0]
        rec = pipeline.extract_sentence(s1, model, decoder="ilp")
        assert len(rec["events"]) == 1
        event = rec["events"][0]
        assert event["event_type"] == "business.acquisition"
        args = {a["role"]: tuple(a["span"]) for a in event["arguments"]}
        assert args["divisions_formed"] == (12, 16)
        assert args["company_acquired"] == (0, 2)
        by_role = {a["role"]: a["text"] for a in event["arguments"]}
        assert by_role["divisions_formed"] == "Service Management Business Unit"

    def test_model_save_load_roundtrip(self, fixture_dataset, fixture_schemas, fixture_corpus, tmp_path):
        records, _ = fixture_dataset
        model, _ = train_pipeline(records, fixture_schemas, fast_settings(epochs=5))
        path = tmp_path / "model.json"
        model.save(str(path), meta={"seed": 0})
        loaded = ExtractorModel.load(str(path))
        before = [pipeline.extract_sentence(s, model, decoder="ilp") for s in fixture_corpus]
        after = [pipeline.extract_sentence(s, loaded, decoder="ilp") for s in fixture_corpus]
        assert before == after

    @pytest.mark.parametrize("tokens, meta", [
        (None, {"seed": 0}),
        (None, None),
        (None, {"seed": 0, "note": "Zürich → 東京 😀", "runs": [{"lr": 0.02, "ok": True}, None],
                "data_b64": '", "data_b64": "', "dtype": {"shape": [], "tensors": {}}}),
        (["data_b64", "dtype", "shape", "tensors", "café", "東京", '", "data_b64": "', "}}"],
         {"seed": 0}),
    ], ids=["trained-meta", "trained-no-meta", "nested-non-ascii-meta", "field-names-in-vocab"])
    def test_save_writes_header_then_buffers(self, tokens, meta, fixture_dataset, fixture_schemas,
                                             tmp_path):
        """A header line of everything but the tensor data, then exactly the two `flat` buffers."""
        if tokens is None:
            records, _ = fixture_dataset
            model, _ = train_pipeline(records, fixture_schemas, fast_settings(epochs=1))
        else:
            model = untrained_model(tokens)
        path = tmp_path / "model.json"
        model.save(str(path), meta=meta)
        header = {"format_version": 3}
        for stage in ("stage1", "stage2"):
            tagger = getattr(model, stage)
            header[stage] = {
                "config": tagger.cfg.to_dict(),
                "label_set": tagger.label_set.to_dict(),
                "layout": [[name, list(arr.shape)] for name, arr in tagger.params.items()],
            }
        header["schemas"] = [model.schemas[t].to_dict() for t in sorted(model.schemas)]
        if meta is not None:
            header["meta"] = meta
        assert [name for name, _ in header["stage1"]["layout"]][-1] == "crf.A"
        assert path.read_bytes() == (
            (json.dumps(header) + "\n").encode("ascii")
            + model.stage1.params.flat.astype("<f8").tobytes()
            + model.stage2.params.flat.astype("<f8").tobytes()
        )
        assert os.listdir(tmp_path) == ["model.json"]

    @pytest.mark.parametrize("failure", ["meta-not-json", "interrupt-in-stage2-tensors"])
    def test_failed_save_keeps_previous_file(self, failure, monkeypatch, tmp_path):
        """An error or an interrupt while encoding leaves the old file and no temporary one."""
        path = tmp_path / "model.json"
        untrained_model(["old"]).save(str(path))
        before = path.read_bytes()
        meta = {"seed": 0}
        if failure == "meta-not-json":
            meta["bad"] = object()
            expected = TypeError
        else:
            write, calls = neural.write_flat, []

            def interrupted(fh, params):
                calls.append(params)
                if len(calls) == 2:
                    raise KeyboardInterrupt
                write(fh, params)

            monkeypatch.setattr(neural, "write_flat", interrupted)
            expected = KeyboardInterrupt
        with pytest.raises(expected):
            untrained_model(["new"]).save(str(path), meta=meta)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]

    def test_save_peak_memory_below_one_and_a_half_files(self, tmp_path):
        """Tensor data is encoded one stage at a time and written piece by piece, never
        joined into one string, so a save holds less than the file it writes."""
        model = untrained_model([f"w{k}" for k in range(500)], embed_dim=200, hidden=100)
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            model.save(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size

    def test_load_peak_memory_below_one_and_a_quarter_files(self, tmp_path):
        """Tensor bytes are read into the parameter buffers themselves, with no text,
        base64 or bytes copy of them, so a load holds little more than the file."""
        model = untrained_model([f"w{k}" for k in range(500)], embed_dim=200, hidden=100)
        path = tmp_path / "model.json"
        model.save(str(path))
        tracemalloc.start()
        try:
            loaded = ExtractorModel.load(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.stage2.params.flat.tobytes() == model.stage2.params.flat.tobytes()
        assert peak < 1.25 * path.stat().st_size

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            ExtractorModel.load(str(path))

    def test_early_stopping_returns_best_dev_epoch(self):
        """The best-epoch snapshot must not alias the buffer Adam keeps updating."""
        labels1, _ = build_label_sets(make_schemas())
        rng = np.random.default_rng(3)
        vocab = {neural.UNK: 0, **{f"w{k}": k + 1 for k in range(8)}}
        cfg = neural.ModelConfig(vocab=vocab, num_labels=len(labels1), embed_dim=6,
                                 lstm_hidden=5, dropout_rate=0.0)
        # Random gold labels: the tagger overfits, so dev NLL turns upwards.
        instances = [
            pipeline._Instance([int(v) for v in rng.integers(1, 9, size=5)],
                               [int(v) for v in rng.integers(0, len(labels1), size=5)])
            for _ in range(24)
        ]
        settings = fast_settings(epochs=40, lr=0.05, dev_fraction=0.25, patience=2)
        model, history = pipeline._train_tagger(instances, cfg, labels1, settings, seed=5)
        dev_curve = history["dev_nll"]
        assert dev_curve.index(min(dev_curve)) < len(dev_curve) - 1
        order = np.random.default_rng(5 + 1).permutation(len(instances))
        dev = [instances[int(i)] for i in order[: len(instances) // 4]]
        dev_nll = sum(
            crf.nll_loss_and_grads(
                neural.forward(inst.token_ids, model.params, cfg)[0],
                model.params["crf.A"], inst.gold,
            )[0]
            for inst in dev
        ) / len(dev)
        assert dev_nll == min(dev_curve)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="stage 2 trains inline without os.fork")
class TestStage2InChild:
    """train_pipeline trains stage 2 in a forked child while it trains stage 1."""

    def stage2_fails(self, monkeypatch, fail):
        """Make `_train_tagger` call `fail()` for stage 2; the fork inherits the patch."""
        train_tagger = pipeline._train_tagger

        def patched(instances, cfg, label_set, settings, seed):
            if seed == settings.seed + 1000:
                fail()
            return train_tagger(instances, cfg, label_set, settings, seed)

        monkeypatch.setattr(pipeline, "_train_tagger", patched)

    def test_same_parameters_and_histories_as_inline(self, fixture_dataset, fixture_schemas, monkeypatch):
        records, _ = fixture_dataset
        settings = fast_settings(epochs=40, dropout=0.3, dev_fraction=0.34, patience=3)
        forked_model, forked_history = train_pipeline(records, fixture_schemas, settings)
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        inline_model, inline_history = train_pipeline(records, fixture_schemas, settings)
        assert forked_history == inline_history
        assert len(forked_history["stage1"]["dev_nll"]) < settings.epochs  # stopped early
        for stage in ("stage1", "stage2"):
            forked, inline = getattr(forked_model, stage), getattr(inline_model, stage)
            assert forked.params.layout == inline.params.layout
            assert forked.params.flat.tobytes() == inline.params.flat.tobytes()
            assert forked.cfg == inline.cfg and forked.label_set == inline.label_set

    def test_stage2_error_raised_in_parent(self, fixture_dataset, fixture_schemas, monkeypatch):
        def fail():
            raise ValueError("stage-2 data is bad")

        self.stage2_fails(monkeypatch, fail)
        records, _ = fixture_dataset
        with pytest.raises(ValueError, match="stage-2 data is bad"):
            train_pipeline(records, fixture_schemas, fast_settings(epochs=2))
        assert_no_child_left()

    def test_child_killed_without_result(self, fixture_dataset, fixture_schemas, monkeypatch):
        self.stage2_fails(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        records, _ = fixture_dataset
        with pytest.raises(RuntimeError, match="killed by signal 9 without a result"):
            train_pipeline(records, fixture_schemas, fast_settings(epochs=2))
        assert_no_child_left()

    def test_stage1_error_kills_child(self, fixture_dataset, fixture_schemas, monkeypatch, tmp_path):
        self.stage2_fails(monkeypatch, lambda: time.sleep(60))
        embeddings = tmp_path / "vectors.txt"
        embeddings.write_text("the 0.1 0.2\n")
        records, _ = fixture_dataset
        settings = fast_settings(epochs=2, embeddings_path=str(embeddings))
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="expected 12 values, got 2"):
            train_pipeline(records, fixture_schemas, settings)
        assert time.monotonic() - t0 < 30
        assert_no_child_left()


def edited_model(model_path, tmp_path, header=None, data=None):
    """A copy of a model file with `header(dict)` applied to its header and `data(values)` to
    the float64 values after it, both stages' in one array; `data` may return bytes."""
    line, raw = model_path.read_bytes().split(b"\n", 1)
    payload = json.loads(line)
    if header:
        header(payload)
    values = np.frombuffer(raw, dtype="<f8").copy()
    raw = data(values) if data else values
    path = tmp_path / "edited.json"
    path.write_bytes((json.dumps(payload) + "\n").encode() + bytes(raw))
    return str(path)


def tensor_offset(model, stage, name):
    """Index of tensor `name` of `stage` of `model` in the values after its file's header."""
    start = 0 if stage == "stage1" else model.stage1.params.flat.size
    for tensor, shape in getattr(model, stage).params.layout:
        if tensor == name:
            return start
        start += int(np.prod(shape))
    raise KeyError(name)


def stage1_with_key_argument_features(tmp_path):
    """A copy of the committed model whose stage-1 network also takes three key-argument
    labels, with their feature table; everything else is the committed model's."""
    model = ExtractorModel.load(str(MODEL))
    cfg1 = dataclasses.replace(model.stage1.cfg, keyarg_embed_dim=2, num_keyarg_labels=3)
    params = neural.init_params(cfg1, np.random.default_rng(0))
    model.stage1 = TaggerModel(cfg1, params, model.stage1.label_set)
    path = tmp_path / "stage1_keyargs.bin"
    model.save(str(path))
    return str(path)


class TestModelFileValidation:
    """The committed model file, its format version, and files of the retired formats 1 and 2."""

    def retired(self, tmp_path, version, indent=None):
        """The committed model as its format-`version` writer wrote it: one JSON document,
        each stage's tensors as `{name: {"shape", ...}}` records, a float list `data` in
        format 1 and the base64 `data_b64` of its `<f8` bytes in format 2."""
        model = ExtractorModel.load(str(MODEL))
        with open(MODEL, "rb") as fh:
            payload = json.loads(fh.readline())
        payload["format_version"] = version
        for stage in ("stage1", "stage2"):
            del payload[stage]["layout"]
            payload[stage]["tensors"] = {
                name: {"shape": list(arr.shape), "data": arr.ravel().tolist()} if version == 1
                else {"shape": list(arr.shape), "dtype": "<f8",
                      "data_b64": base64.b64encode(arr.astype("<f8").tobytes()).decode()}
                for name, arr in sorted(getattr(model, stage).params.items())
            }
        path = tmp_path / f"model_v{version}.json"
        path.write_text(json.dumps(payload, indent=indent))
        return path

    def test_loads_unedited(self):
        model = ExtractorModel.load(str(MODEL))
        assert list(model.stage1.params) == list(neural.expected_shapes(model.stage1.cfg))

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_version_refused(self, tmp_path, version):
        path = self.retired(tmp_path, version)
        with pytest.raises(ValueError) as exc:
            ExtractorModel.load(str(path))
        assert str(exc.value) == f"{path}: unsupported model format version {version}"

    def test_document_over_several_lines(self, tmp_path):
        path = self.retired(tmp_path, 2, indent=1)
        with pytest.raises(ValueError, match=f"{path}: the model header is not JSON"):
            ExtractorModel.load(str(path))

    def test_unknown_version(self, tmp_path):
        path = edited_model(MODEL, tmp_path, header=lambda p: p.update(format_version=4))
        with pytest.raises(ValueError, match="unsupported model format version 4"):
            ExtractorModel.load(path)

    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "2", 3.0, "3"])
    def test_version_not_an_integer(self, tmp_path, version):
        path = edited_model(MODEL, tmp_path, header=lambda p: p.update(format_version=version))
        with pytest.raises(ValueError, match=f"unsupported model format version {version!r}"):
            ExtractorModel.load(path)


class TestModelFormatV3Validation:
    """Edited copies of the committed model."""

    edited, offset = staticmethod(edited_model), staticmethod(tensor_offset)

    @pytest.fixture(scope="class")
    def model(self):
        return ExtractorModel.load(str(MODEL))

    @pytest.fixture(scope="class")
    def model_path(self):
        return MODEL

    def test_loads_bit_identical(self, model, model_path, tmp_path):
        """Saved again with its own `meta`, the loaded model is the committed file's bytes."""
        path = tmp_path / "resaved.bin"
        with open(model_path, "rb") as fh:
            meta = json.loads(fh.readline())["meta"]
        model.save(str(path), meta=meta)
        assert path.read_bytes() == model_path.read_bytes()

    def test_header_not_json(self, model_path, tmp_path):
        path = tmp_path / "edited.json"
        path.write_bytes(b"{not json" + model_path.read_bytes().split(b"\n", 1)[1][:64])
        with pytest.raises(ValueError, match=f"{path}: the model header is not JSON"):
            ExtractorModel.load(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="the model header is not JSON: the file is empty"):
            ExtractorModel.load(str(path))

    def test_missing_layout(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path, header=lambda p: p["stage2"].pop("layout"))
        with pytest.raises(ValueError, match="stage2: missing field 'layout'"):
            ExtractorModel.load(path)

    def test_missing_tensor(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path, header=lambda p: p["stage1"]["layout"].pop())
        with pytest.raises(ValueError, match="stage1: missing parameter 'crf.A'"):
            ExtractorModel.load(path)

    def test_unexpected_tensor(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path,
                           header=lambda p: p["stage2"]["layout"].append(["extra", [1]]))
        with pytest.raises(ValueError, match="stage2: unexpected parameter 'extra'"):
            ExtractorModel.load(path)

    def test_wrong_shape(self, model_path, tmp_path):
        def edit(payload):
            entry = next(e for e in payload["stage1"]["layout"] if e[0] == "proj.b")
            entry[1] = [1, *entry[1]]
        with pytest.raises(ValueError, match=r"stage1: parameter 'proj.b' has shape \(1, \d+\)"):
            ExtractorModel.load(self.edited(model_path, tmp_path, header=edit))

    def test_wrong_order(self, model_path, tmp_path):
        def edit(payload):
            layout = payload["stage2"]["layout"]
            layout[0], layout[1] = layout[1], layout[0]
        with pytest.raises(ValueError, match=r"stage2: the layout lists \['proj.W', 'embeddings'"):
            ExtractorModel.load(self.edited(model_path, tmp_path, header=edit))

    def test_repeated_tensor(self, model_path, tmp_path):
        def edit(payload):
            layout = payload["stage1"]["layout"]
            layout.insert(0, [layout[-1][0], [0]])
        with pytest.raises(ValueError, match=r"stage1: the layout lists \['crf.A', 'embeddings'"):
            ExtractorModel.load(self.edited(model_path, tmp_path, header=edit))

    def test_layout_entry_not_a_pair(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path,
                           header=lambda p: p["stage1"]["layout"].__setitem__(0, "embeddings"))
        with pytest.raises(ValueError, match="stage1: 'layout' entry 'embeddings' is not a"):
            ExtractorModel.load(path)

    def test_data_ends_early_in_stage2(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path, data=lambda v: v[:-1])
        with pytest.raises(ValueError, match="stage2: tensor 'crf.A' ends early: .* 8 bytes"):
            ExtractorModel.load(path)

    def test_data_ends_early_in_stage1(self, model, model_path, tmp_path):
        end = self.offset(model, "stage1", "proj.W") + 1
        path = self.edited(model_path, tmp_path, data=lambda v: v[:end])
        with pytest.raises(ValueError, match="stage1: tensor 'proj.W' ends early"):
            ExtractorModel.load(path)

    def test_small_file_declaring_large_tensors(self, model_path, tmp_path):
        """A header that declares gigabytes is refused, by tensor name, before the
        buffer is allocated."""
        def edit(payload):
            stage = payload["stage1"]
            stage["config"]["lstm_hidden"] = 20_000
            shapes = neural.expected_shapes(neural.ModelConfig.from_dict(stage["config"]))
            stage["layout"] = [[name, list(shape)] for name, shape in shapes.items()]
        path = self.edited(model_path, tmp_path, header=edit)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="stage1: tensor 'proj.W' ends early"):
                ExtractorModel.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

    def test_trailing_bytes(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path, data=lambda v: v.tobytes() + b"\n")
        with pytest.raises(ValueError, match="stage2: data continues after tensor 'crf.A'"):
            ExtractorModel.load(path)

    @pytest.mark.parametrize("stage, name, value", [
        ("stage1", "proj.b", float("nan")),
        ("stage2", "lstm_bwd.U", float("-inf")),
    ])
    def test_non_finite_value(self, model, model_path, tmp_path, stage, name, value):
        k = self.offset(model, stage, name)
        path = self.edited(model_path, tmp_path, data=lambda v: v.__setitem__(k, value) or v)
        with pytest.raises(ValueError, match=f"{stage}: tensor '{name}' has a non-finite value"):
            ExtractorModel.load(path)

    def test_label_set_shorter_than_network(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path,
                           header=lambda p: p["stage2"]["label_set"]["roles"].pop())
        with pytest.raises(ValueError, match=r"stage2: the label set has \d+ labels, the network \d+"):
            ExtractorModel.load(path)

    @pytest.mark.parametrize("edit", [
        lambda p: p["schemas"][0].update(key_args=p["schemas"][0]["nonkey_args"],
                                         nonkey_args=p["schemas"][0]["key_args"]),
        lambda p: p["stage2"]["label_set"]["roles"].reverse(),
        lambda p: p["schemas"].append({**p["schemas"][1], "event_type": "people.divorce"}),
    ], ids=["key-args-swapped", "stage2-roles-reordered", "schema-without-labels"])
    def test_label_sets_other_than_the_schemas_build(self, model_path, tmp_path, edit):
        """Extraction reads roles from the label sets alone, so they must be the schemas'."""
        path = self.edited(model_path, tmp_path, header=edit)
        with pytest.raises(ValueError) as exc:
            ExtractorModel.load(path)
        assert str(exc.value) == f"{path}: the label sets are not those the schemas build"

    def test_stage1_taking_key_argument_features_refused(self, tmp_path):
        """Only stage 2 is given key-argument features, so a stage-1 network that takes them is
        refused on load, not on the first sentence it tags."""
        path = stage1_with_key_argument_features(tmp_path)
        with pytest.raises(ValueError) as exc:
            ExtractorModel.load(path)
        assert str(exc.value) == (f"{path}: stage1: the network takes 3 key-argument labels, "
                                  "which only stage 2 is given")

    def test_stage2_features_disagree_with_stage1(self, tmp_path):
        """Stage 2 takes one feature per stage-1 label; a stage 1 of other labels is refused."""
        model = untrained_model(["w"])
        schemas = make_schemas()
        del schemas["sport.win"]
        labels1, _ = build_label_sets(schemas)
        cfg1 = neural.ModelConfig(vocab=model.stage1.cfg.vocab, num_labels=len(labels1),
                                  embed_dim=6, lstm_hidden=5)
        model.stage1 = TaggerModel(cfg1, neural.init_params(cfg1, np.random.default_rng(0)), labels1)
        path = tmp_path / "model.bin"
        model.save(str(path))
        with pytest.raises(ValueError, match=f"{path}: stage2: the network takes 7 key-argument "
                                             f"labels, stage 1's label set has 5"):
            ExtractorModel.load(str(path))
