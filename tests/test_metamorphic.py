"""Metamorphic relations of the CLI on fixtures/: permuting the corpus permutes what `extract`
writes, renaming every sentence changes only the ids that `gen` and `extract` write, and gold
scored against itself is perfect under every standard."""

import json
import pathlib

import numpy as np
import pytest

from tabevent import cli, evaluation, supervision
from tabevent.core import read_jsonl

DECODERS = ["viterbi", "ilp", "ilp_multi"]


def corpus_lines(fixture_paths):
    return open(fixture_paths["corpus"], encoding="utf-8").read().splitlines()


def write_records(path, records):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    return str(path)


def records(path):
    """The lines after the header, parsed."""
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    assert "_header" in json.loads(lines[0])
    return [json.loads(line) for line in lines[1:]]


def gen(tmp_path, corpus, fixture_paths, name):
    out, stats = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_stats.json"
    assert cli.main(["gen", "--tables", fixture_paths["tables"], "--corpus", corpus,
                     "--aliases", fixture_paths["aliases"], "--out", str(out),
                     "--stats", str(stats), "--seed", "0"]) == 0
    return out, stats


@pytest.fixture(scope="module")
def model(tmp_path_factory, fixture_paths):
    """The README quick start's model, which finds events in fixtures/ with every decoder."""
    base = tmp_path_factory.mktemp("metamorphic")
    dataset, _ = gen(base, fixture_paths["corpus"], fixture_paths, "dataset")
    out = base / "model.bin"
    assert cli.main(["train", "--dataset", str(dataset), "--tables", fixture_paths["tables"],
                     "--out", str(out), "--epochs", "40", "--lr", "0.02", "--embed-dim", "12",
                     "--hidden1", "10", "--hidden2", "10", "--keyarg-dim", "4", "--dropout", "0.0",
                     "--dev-fraction", "0.0", "--seed", "0"]) == 0
    return str(out)


def extract(tmp_path, model, corpus, decoder, name):
    out = tmp_path / f"{name}.jsonl"
    assert cli.main(["extract", "--model", model, "--corpus", corpus, "--out", str(out),
                     "--decoder", decoder]) == 0
    return out


def renamed(fixture_paths):
    """The corpus with every id replaced by one that sorts in the reverse order, and the map back."""
    recs = [json.loads(line) for line in corpus_lines(fixture_paths)]
    back = {}
    for k, rec in enumerate(recs):
        new = f"renamed/{len(recs) - k:03d}"
        back[new], rec["id"] = rec["id"], new
    return recs, back


def with_ids_back(path, back):
    """Each record after the header with its sentence id mapped back, as the line json.dumps writes."""
    out = []
    for rec in records(path):
        rec["sentence_id"] = back[rec["sentence_id"]]
        out.append(json.dumps(rec))
    return out


@pytest.mark.parametrize("decoder", DECODERS)
def test_permuted_corpus_permutes_extract(tmp_path, fixture_paths, model, decoder):
    lines = corpus_lines(fixture_paths)
    order = np.random.default_rng(0).permutation(len(lines))
    assert sorted(order) != list(order)
    permuted = write_records(tmp_path / "permuted.jsonl", [json.loads(lines[i]) for i in order])
    want = records(extract(tmp_path, model, fixture_paths["corpus"], decoder, "pred"))
    got = records(extract(tmp_path, model, permuted, decoder, "pred_permuted"))
    assert any(rec["events"] for rec in want)
    assert got == [want[i] for i in order]


@pytest.mark.parametrize("decoder", DECODERS)
def test_renamed_ids_change_only_extract_ids(tmp_path, fixture_paths, model, decoder):
    recs, back = renamed(fixture_paths)
    want = extract(tmp_path, model, fixture_paths["corpus"], decoder, "pred")
    got = extract(tmp_path, model, write_records(tmp_path / "renamed.jsonl", recs), decoder,
                  "pred_renamed")
    assert with_ids_back(got, back) == want.read_text(encoding="utf-8").splitlines()[1:]


def test_renamed_ids_change_only_gen_ids(tmp_path, fixture_paths):
    recs, back = renamed(fixture_paths)
    want, want_stats = gen(tmp_path, fixture_paths["corpus"], fixture_paths, "dataset")
    got, got_stats = gen(tmp_path, write_records(tmp_path / "renamed.jsonl", recs), fixture_paths,
                         "dataset_renamed")
    assert with_ids_back(got, back) == want.read_text(encoding="utf-8").splitlines()[1:]
    assert got_stats.read_bytes() == want_stats.read_bytes()


@pytest.mark.parametrize("schema_source", ["--tables", "--model"])
def test_gold_against_itself_scores_one(tmp_path, fixture_paths, fixture_schemas, model,
                                        schema_source):
    dataset, _ = gen(tmp_path, fixture_paths["corpus"], fixture_paths, "dataset")
    gold = [evaluation.mentions_from_record(rec, fixture_schemas)
            for rec in supervision.check_dataset(list(read_jsonl(str(dataset))), str(dataset))]
    assert any(rec["events"] for rec in gold)
    pred = write_records(tmp_path / "gold_events.jsonl", gold)
    source = fixture_paths["tables"] if schema_source == "--tables" else model
    out = tmp_path / "metrics.json"
    assert cli.main(["eval", "--pred", pred, "--gold", str(dataset), schema_source, source,
                     "--out", str(out)]) == 0
    metrics = json.loads(out.read_text(encoding="utf-8"))
    standards = {k: v for k, v in metrics.items() if k != "meta"}
    assert sorted(standards) == ["all_argument_detection", "event_classification",
                                 "key_argument_detection"]
    for scores in standards.values():
        assert scores["precision"] == scores["recall"] == scores["f1"] == 1.0
        for per_type in scores["per_type"].values():
            assert per_type["precision"] == per_type["recall"] == per_type["f1"] == 1.0
