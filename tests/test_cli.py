import json

import pytest

from tabevent import cli
from tabevent.core import read_jsonl


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def gen_out(tmp_path, fixture_paths):
    out = tmp_path / "dataset.jsonl"
    stats = tmp_path / "stats.json"
    code = run(
        [
            "gen",
            "--tables", fixture_paths["tables"],
            "--corpus", fixture_paths["corpus"],
            "--aliases", fixture_paths["aliases"],
            "--out", str(out),
            "--stats", str(stats),
            "--seed", "0",
        ]
    )
    assert code == 0
    return out, stats


class TestGen:
    def test_creates_outputs_with_headers(self, gen_out):
        out, stats = gen_out
        first = json.loads(out.read_text().splitlines()[0])
        assert first["_header"]["seed"] == 0
        assert first["_header"]["version"]
        records = list(read_jsonl(str(out)))
        assert len(records) == 6
        payload = read_json(stats)
        assert payload["meta"]["seed"] == 0
        assert payload["positives"] == 2

    def test_manifest_written(self, gen_out):
        out, _ = gen_out
        manifest = read_json(str(out) + ".manifest.json")
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 0
        assert manifest["version"]
        assert "wall_time_s" in manifest
        assert manifest["inputs"]["tables"].endswith("tables.json")

    def test_reruns_byte_identical(self, tmp_path, fixture_paths):
        outs = []
        for i in range(2):
            out = tmp_path / f"d{i}.jsonl"
            assert run(
                [
                    "gen",
                    "--tables", fixture_paths["tables"],
                    "--corpus", fixture_paths["corpus"],
                    "--out", str(out),
                    "--seed", "5",
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = run(
            [
                "gen",
                "--tables", str(tmp_path / "nope.json"),
                "--corpus", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_sentence_id_exits_1(self, tmp_path, fixture_paths, capsys):
        lines = open(fixture_paths["corpus"], encoding="utf-8").read().splitlines()
        dup = json.loads(lines[4])
        dup["id"] = "S1"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join([*lines, json.dumps(dup)]) + "\n")
        code = run(
            [
                "gen",
                "--tables", fixture_paths["tables"],
                "--corpus", str(corpus),
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == 1
        assert "error: repeated sentence id 'S1'" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, fixture_paths):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--bogus", "x"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_config_supplies_default_and_flag_overrides(self, tmp_path, fixture_paths):
        ini = tmp_path / "run.ini"
        ini.write_text("[gen]\nseed = 9\nmax_dist = 2\n")
        out = tmp_path / "a.jsonl"
        assert run(
            [
                "gen",
                "--config", str(ini),
                "--tables", fixture_paths["tables"],
                "--corpus", fixture_paths["corpus"],
                "--out", str(out),
            ]
        ) == 0
        header = json.loads(out.read_text().splitlines()[0])["_header"]
        assert header["seed"] == 9

        out2 = tmp_path / "b.jsonl"
        assert run(
            [
                "gen",
                "--config", str(ini),
                "--tables", fixture_paths["tables"],
                "--corpus", fixture_paths["corpus"],
                "--out", str(out2),
                "--seed", "4",
            ]
        ) == 0
        header2 = json.loads(out2.read_text().splitlines()[0])["_header"]
        assert header2["seed"] == 4


@pytest.fixture(scope="module")
def trained(tmp_path_factory, fixture_paths):
    base = tmp_path_factory.mktemp("cli-train")
    dataset = base / "dataset.jsonl"
    model = base / "model.json"
    assert run(
        [
            "gen",
            "--tables", fixture_paths["tables"],
            "--corpus", fixture_paths["corpus"],
            "--out", str(dataset),
            "--seed", "0",
        ]
    ) == 0
    assert run(
        [
            "train",
            "--dataset", str(dataset),
            "--tables", fixture_paths["tables"],
            "--out", str(model),
            "--epochs", "25",
            "--lr", "0.02",
            "--embed-dim", "12",
            "--hidden1", "10",
            "--hidden2", "10",
            "--keyarg-dim", "4",
            "--dropout", "0.0",
            "--dev-fraction", "0.0",
            "--seed", "0",
        ]
    ) == 0
    return base, dataset, model


class TestPipelineCommands:
    def test_train_writes_versioned_model(self, trained):
        _, _, model = trained
        payload = read_json(model)
        assert payload["format_version"] == 1
        assert payload["meta"]["seed"] == 0
        assert "tensors" in payload["stage1"]

    def test_extract_and_eval(self, trained, fixture_paths):
        base, dataset, model = trained
        pred = base / "pred.jsonl"
        metrics = base / "metrics.json"
        assert run(
            [
                "extract",
                "--model", str(model),
                "--corpus", fixture_paths["corpus"],
                "--out", str(pred),
                "--decoder", "ilp",
            ]
        ) == 0
        records = list(read_jsonl(str(pred)))
        assert len(records) == 6
        assert run(
            [
                "eval",
                "--pred", str(pred),
                "--gold", str(dataset),
                "--model", str(model),
                "--out", str(metrics),
            ]
        ) == 0
        payload = read_json(metrics)
        for standard in (
            "event_classification",
            "key_argument_detection",
            "all_argument_detection",
        ):
            assert set(payload[standard]) >= {"precision", "recall", "f1", "per_type"}
        assert payload["event_classification"]["f1"] == 1.0

    def test_extract_multi_flag(self, trained, fixture_paths):
        base, _, model = trained
        pred = base / "pred_multi.jsonl"
        assert run(
            [
                "extract",
                "--model", str(model),
                "--corpus", fixture_paths["corpus"],
                "--out", str(pred),
                "--multi",
            ]
        ) == 0
        assert (base / "pred_multi.jsonl.manifest.json").exists()

    def test_eval_requires_schema_source(self, trained, fixture_paths, capsys):
        base, dataset, model = trained
        pred = base / "pred.jsonl"
        code = run(
            ["eval", "--pred", str(pred), "--gold", str(dataset), "--out", str(base / "m2.json")]
        )
        assert code == 1
        assert "needs --model or --tables" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, edit, named",
        [
            ("stage1", lambda tensors: tensors.pop("crf.A"), "missing parameter 'crf.A'"),
            ("stage2", lambda tensors: tensors["proj.W"]["data"].pop(), "tensor 'proj.W' has"),
        ],
        ids=["missing", "truncated"],
    )
    def test_extract_rejects_bad_tensor(self, trained, fixture_paths, capsys, stage, edit, named):
        base, _, model = trained
        payload = read_json(model)
        edit(payload[stage]["tensors"])
        bad = base / "bad_model.json"
        bad.write_text(json.dumps(payload))
        code = run(
            [
                "extract",
                "--model", str(bad),
                "--corpus", fixture_paths["corpus"],
                "--out", str(base / "bad_pred.jsonl"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{stage}: {named}" in err

    @pytest.mark.parametrize(
        "kind, edit, named",
        [
            ("model", lambda m: m["stage1"].pop("config"), "stage1: missing field 'config'"),
            ("model", lambda m: m.pop("schemas"), ": missing field 'schemas'"),
            ("model", lambda m: m["stage2"]["tensors"]["proj.W"].pop("shape"),
             "stage2: tensor 'proj.W' needs a 'shape'"),
            ("tables", lambda t: t[1].pop("entries"), "table record missing field 'entries'"),
            ("corpus", lambda lines: lines.append([1, 2]), ":7: not a JSON object: list"),
            ("dataset", lambda lines: lines[2].pop("labels"), "lacks 'labels'"),
        ],
        ids=["model-config", "model-schemas", "tensor-shape", "table-entries", "corpus-list",
             "dataset-labels"],
    )
    def test_malformed_input_named(
        self, trained, fixture_paths, tmp_path, capsys, kind, edit, named
    ):
        _, dataset, model = trained
        bad = tmp_path / f"bad-{kind}"
        if kind in ("model", "tables"):
            payload = read_json(model if kind == "model" else fixture_paths["tables"])
            edit(payload)
            bad.write_text(json.dumps(payload))
        else:
            source = dataset if kind == "dataset" else fixture_paths["corpus"]
            with open(source, "r", encoding="utf-8") as fh:
                lines = [json.loads(line) for line in fh]
            edit(lines)
            bad.write_text("".join(json.dumps(line) + "\n" for line in lines))
        tables, corpus, out = fixture_paths["tables"], fixture_paths["corpus"], tmp_path / "out"
        argv = {
            "model": ["extract", "--model", str(bad), "--corpus", corpus],
            "tables": ["gen", "--tables", str(bad), "--corpus", corpus],
            "corpus": ["gen", "--tables", tables, "--corpus", str(bad)],
            "dataset": ["train", "--dataset", str(bad), "--tables", tables, "--epochs", "1"],
        }[kind]
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}")
        assert named in err

    def test_report(self, trained):
        base, dataset, _ = trained
        out = base / "report.json"
        assert run(["report", "--dataset", str(dataset), "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["datasets"][0]["positives"] == 2


class TestOracleCommand:
    def test_partition_check_passes(self, capsys):
        assert run(["oracle", "--check", "partition", "--trials", "10"]) == 0
        assert "partition" in capsys.readouterr().out

    def test_ilp_check_passes(self):
        assert run(["oracle", "--check", "ilp", "--trials", "15"]) == 0
