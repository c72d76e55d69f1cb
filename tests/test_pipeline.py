import base64
import json
import os
import pathlib
import signal
import time
import tracemalloc

import numpy as np
import pytest

from tabevent import crf, ilp, neural, pipeline
from tabevent.core import EventSchema, LabelSequence, ParsedSentence
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

V1_MODEL = pathlib.Path(__file__).resolve().parent / "data" / "model_v1.json"


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
        mentions = stage2(sent, model2, labels1, self.detection(labels1, key_tags), schemas)
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
        mentions = stage2(sent, model2, labels1, self.detection(labels1, key_tags), schemas)
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
        mentions = stage2(sent, model2, labels1, self.detection(labels1, key_tags), schemas)
        assert {a.role for a in mentions[0].arguments} == {"employee", "employer"}

    def test_duplicate_role_keeps_leftmost(self, fixture_corpus):
        sent = fixture_corpus[4]
        schemas, labels1, labels2, cfg2 = self.setup_models(len(sent))
        key_tags = ["B-org.hiring:employee", "O", "B-org.hiring:employer"] + ["O"] * 5
        out_tags = ["O", "O", "O", "B-org.hiring:title", "O", "B-org.hiring:title", "O", "O"]
        model2 = FixedTagger(
            force_emissions(labels2, out_tags), np.zeros((len(labels2),) * 2), labels2, cfg=cfg2
        )
        mentions = stage2(sent, model2, labels1, self.detection(labels1, key_tags), schemas)
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
        mentions = stage2(sent, model2, labels1, detections, schemas)
        assert len(mentions) == 1
        assert [(a.role, a.start, a.end) for a in mentions[0].arguments] == [("a", 0, 1)]

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
            stage2(sent, model2, labels1, self.detection(labels1, ["O"] * len(sent)), schemas)


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

    def test_training_is_deterministic(self, fixture_dataset, fixture_schemas):
        records, _ = fixture_dataset
        blobs = []
        for _ in range(2):
            model, _ = train_pipeline(records, fixture_schemas, fast_settings(epochs=3))
            blobs.append(json.dumps(model.to_dict(), sort_keys=True))
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
    def test_save_writes_json_dumps_bytes(self, tokens, meta, fixture_dataset, fixture_schemas,
                                          tmp_path):
        if tokens is None:
            records, _ = fixture_dataset
            model, _ = train_pipeline(records, fixture_schemas, fast_settings(epochs=1))
        else:
            model = untrained_model(tokens)
        path = tmp_path / "model.json"
        model.save(str(path), meta=meta)
        payload = model.to_dict() if meta is None else {**model.to_dict(), "meta": meta}
        assert path.read_bytes() == (json.dumps(payload) + "\n").encode("utf-8")
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
            encode, calls = neural.tensors_to_dict, []

            def interrupted(params):
                calls.append(params)
                if len(calls) == 2:
                    raise KeyboardInterrupt
                return encode(params)

            monkeypatch.setattr(neural, "tensors_to_dict", interrupted)
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


class TestModelFileValidation:
    @pytest.fixture(scope="class")
    def model_path(self, fixture_dataset, fixture_schemas, tmp_path_factory):
        records, _ = fixture_dataset
        model, _ = train_pipeline(records, fixture_schemas, fast_settings(epochs=1))
        path = tmp_path_factory.mktemp("model") / "model.json"
        model.save(str(path))
        return path

    def edited(self, model_path, tmp_path, edit):
        payload = json.loads(model_path.read_text())
        edit(payload)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_loads_unedited(self, model_path):
        model = ExtractorModel.load(str(model_path))
        assert list(model.stage1.params) == list(neural.expected_shapes(model.stage1.cfg))

    def test_missing_tensor(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path, lambda p: p["stage1"]["tensors"].pop("crf.A"))
        with pytest.raises(ValueError, match="stage1: missing parameter 'crf.A'"):
            ExtractorModel.load(path)

    def test_truncated_tensor(self, model_path, tmp_path):
        def edit(payload):
            tensor = payload["stage2"]["tensors"]["proj.W"]
            tensor["data_b64"] = base64.b64encode(base64.b64decode(tensor["data_b64"])[:-8]).decode()
        with pytest.raises(ValueError, match="stage2: tensor 'proj.W' has"):
            ExtractorModel.load(self.edited(model_path, tmp_path, edit))

    def test_truncated_v1_tensor(self, tmp_path):
        path = self.edited(
            V1_MODEL, tmp_path, lambda p: p["stage2"]["tensors"]["proj.W"]["data"].pop()
        )
        with pytest.raises(ValueError, match="stage2: tensor 'proj.W' has"):
            ExtractorModel.load(path)

    def test_wrong_shape(self, model_path, tmp_path):
        def edit(payload):
            tensor = payload["stage1"]["tensors"]["proj.b"]
            tensor["shape"] = [1, *tensor["shape"]]
        with pytest.raises(ValueError, match=r"stage1: parameter 'proj.b' has shape \(1, \d+\)"):
            ExtractorModel.load(self.edited(model_path, tmp_path, edit))

    def test_float_list_in_v2_file(self, model_path, tmp_path):
        def edit(payload):
            tensor = payload["stage1"]["tensors"]["proj.b"]
            tensor["data"] = [0.0] * tensor["shape"][0]
            del tensor["dtype"], tensor["data_b64"]
        with pytest.raises(ValueError, match="stage1: tensor 'proj.b' needs .* format version 2"):
            ExtractorModel.load(self.edited(model_path, tmp_path, edit))

    def test_base64_in_v1_file(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path, lambda p: p.update(format_version=1))
        with pytest.raises(ValueError, match="stage1: tensor 'embeddings' needs .* format version 1"):
            ExtractorModel.load(path)

    def test_unknown_version(self, model_path, tmp_path):
        path = self.edited(model_path, tmp_path, lambda p: p.update(format_version=3))
        with pytest.raises(ValueError, match="unsupported model format version 3"):
            ExtractorModel.load(path)

    def test_unexpected_tensor(self, model_path, tmp_path):
        def edit(payload):
            payload["stage2"]["tensors"]["extra"] = {"shape": [1], "data": [0.0]}
        with pytest.raises(ValueError, match="stage2: unexpected parameter 'extra'"):
            ExtractorModel.load(self.edited(model_path, tmp_path, edit))
