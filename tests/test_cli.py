import importlib
import json
import os
import pathlib
import threading

import pytest
from test_pipeline import edited_model, stage1_with_key_argument_features, tensor_offset

import tabevent
from tabevent import cli, oracle
from tabevent.core import read_jsonl
from tabevent.pipeline import ExtractorModel

# A model (embed/hidden1/hidden2/keyarg dims 4/4/4/2, 5 epochs at lr 0.05, seed 0, on the README's
# gen output for fixtures/), written by `train` in model format 1 and converted to format 3 by
# `load` and `save` with its `meta`; and what `extract` wrote from it with the k-best decoder on
# fixtures/s1s4_corpus.jsonl when format 1 was the format `train` wrote. The metrics are what
# `eval` wrote for that output against the README's gen output, with the model's schemas, when
# events were paired greedily by argument overlap. `model_v1_pred_viterbi.jsonl` and
# `model_v1_pred_ilp.jsonl` are what `extract` wrote from the format-3 model on the same corpus
# with the other two decoders; neither finds an event there.
DATA = pathlib.Path(__file__).resolve().parent / "data"
MODEL, PRED, METRICS = (DATA / name for name in
                        ("model_v3.bin", "model_v1_pred_multi.jsonl", "model_v1_metrics.json"))


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_header(path):
    """The header line of a model file."""
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


def first_value(stage, name):
    """Index of the first value of tensor `name` of `stage` after the committed model's header."""
    return tensor_offset(ExtractorModel.load(str(MODEL)), stage, name)


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
        assert f"error: {corpus}: repeated sentence id 'S1'" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, fixture_paths):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--bogus", "x"])
        assert exc.value.code == 2

    def test_report_takes_no_config(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["report", "--dataset", "d.jsonl", "--out", str(tmp_path / "r.json"), "--config", "r.ini"])
        assert exc.value.code == 2

    def test_import_sets_unset_or_empty_blas_threads_to_one(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        importlib.reload(tabevent)
        assert [os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS")] == ["1", "1", "3"]


# The path flags each command requires, given to the tests of settings.
REQUIRED = {"gen": ["tables", "corpus", "out"], "train": ["dataset", "tables", "out"],
            "extract": ["model", "corpus", "out"], "eval": ["pred", "gold", "out"]}


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

    @pytest.mark.parametrize("command", ["gen", "train", "extract", "eval"])
    def test_each_setting_from_the_file_equals_its_flag(self, tmp_path, command):
        """Each setting, given another value than its default, parses alike from the file and
        from its flag (`--embed-dim` for `embed_dim`), into the same library settings."""
        parser = cli.build_parser()
        paths = [f"--{name}=x" for name in REQUIRED[command]]
        defaults = parser.parse_args([command, *paths]).defaults
        assert defaults
        for key, default in defaults.items():
            choices = cli._CHOICES.get(key)
            text = (next(c for c in choices if c != default) if choices
                    else str(default + 1 if isinstance(default, int) else default / 2))
            ini = tmp_path / f"{key}.ini"
            ini.write_text(f"[{command}]\n{key} = {text}\n")
            given = (["--config", str(ini)], [f"--{key.replace('_', '-')}", text])
            from_file, from_flag = (cli._apply_config(parser.parse_args([command, *paths, *g])) for g in given)
            assert getattr(from_file, key) == getattr(from_flag, key) != default
            assert vars(from_file).keys() - {"config"} == vars(from_flag).keys() - {"config"}
            assert from_file.settings == from_flag.settings

    @pytest.mark.parametrize("command, lines, flags, message", [
        ("train", ["epochs = 0"], [], "epochs must be at least 1"),
        ("train", ["dev_fraction = nan"], [], "dev_fraction must be in [0, 1)"),
        ("train", ["lr = -1", "epochs = 3"], [], "lr must be positive and finite"),
        ("extract", ["max_solutions = 0"], [], "max_solutions must be at least 1"),
        ("extract", ["max_solutions = 0"], ["--max-solutions", "3"], "max_solutions must be at least 1"),
        ("extract", ["decoder = viterbi", "lambda_factor = -1"], [],
         "lambda_factor must be non-negative and finite"),
    ])
    def test_value_the_library_refuses_named_before_any_input_is_read(self, tmp_path, capsys, command,
                                                                       lines, flags, message):
        """Also where a flag overrides the value; the input paths do not exist."""
        ini = tmp_path / "run.ini"
        ini.write_text("\n".join([f"[{command}]", *lines]) + "\n")
        paths = [f"--{name}={tmp_path / 'absent'}" for name in REQUIRED[command]]
        assert run([command, *paths, "--config", str(ini), *flags]) == 1
        assert capsys.readouterr().err == f"error: {ini}: [{command}]: {message}\n"

    def test_bad_value_refused_where_a_flag_overrides_it(self, tmp_path, fixture_paths, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[gen]\nseed = x\n")
        assert run(["gen", "--config", str(ini), "--seed", "4", "--tables", fixture_paths["tables"],
                    "--corpus", fixture_paths["corpus"], "--out", str(tmp_path / "a.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {ini}: [gen] seed: invalid literal for int() with base 10: 'x'")


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
        payload = read_header(model)
        assert payload["format_version"] == 3
        assert payload["meta"]["seed"] == 0
        assert payload["stage1"]["layout"][-1][0] == "crf.A"

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
                "--decoder", "ilp_multi",
            ]
        ) == 0
        assert read_json(base / "pred_multi.jsonl.manifest.json")["inputs"]["decoder"] == "ilp_multi"

    def test_extract_matches_committed_output(self, fixture_paths, tmp_path):
        out = tmp_path / "pred.jsonl"
        for decoder, pinned in [("ilp_multi", PRED), ("viterbi", DATA / "model_v1_pred_viterbi.jsonl"),
                                ("ilp", DATA / "model_v1_pred_ilp.jsonl")]:
            assert run(["extract", "--model", str(MODEL), "--corpus", fixture_paths["corpus"],
                        "--out", str(out), "--decoder", decoder]) == 0
            assert out.read_bytes() == pinned.read_bytes(), decoder

    def test_extract_ini_decoder_matches_committed_output(self, fixture_paths, tmp_path):
        """The k-best decoder named in the INI file, as a run's manifest names it."""
        ini, out = tmp_path / "run.ini", tmp_path / "pred.jsonl"
        ini.write_text("[extract]\ndecoder = ilp_multi\n")
        assert run(["extract", "--config", str(ini), "--model", str(MODEL),
                    "--corpus", fixture_paths["corpus"], "--out", str(out)]) == 0
        assert out.read_bytes() == PRED.read_bytes()

    def test_eval_matches_committed_metrics(self, gen_out, tmp_path):
        dataset, _ = gen_out
        out = tmp_path / "metrics.json"
        assert run(["eval", "--pred", str(PRED), "--gold", str(dataset), "--model", str(MODEL),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == METRICS.read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_eval_reads_gold_from_a_pipe(self, gen_out, tmp_path):
        """Gold in dataset form is read once, so a pipe scores what the file scores by path."""
        dataset, _ = gen_out
        read_end, write_end = os.pipe()

        def write():
            with os.fdopen(write_end, "wb") as fh:
                fh.write(dataset.read_bytes())

        writer = threading.Thread(target=write)
        writer.start()
        try:
            outs = [tmp_path / "piped.json", tmp_path / "by_path.json"]
            for gold, out in zip((f"/dev/fd/{read_end}", str(dataset)), outs):
                assert run(["eval", "--pred", str(PRED), "--gold", gold, "--model", str(MODEL),
                            "--out", str(out)]) == 0
        finally:
            writer.join(timeout=10)
            os.close(read_end)
        assert not writer.is_alive()
        assert outs[0].read_bytes() == outs[1].read_bytes() == METRICS.read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", "-1"], "epochs must be at least 1"),
        (["--epochs", "0"], "epochs must be at least 1"),
        (["--patience", "-1"], "patience must be non-negative"),
        (["--dev-fraction", "-0.5"], "dev_fraction must be in [0, 1)"),
        (["--dev-fraction", "nan"], "dev_fraction must be in [0, 1)"),
        (["--lr", "-1"], "lr must be positive and finite"),
    ])
    def test_train_refuses_settings_that_train_nothing_or_wrongly(self, trained, fixture_paths, tmp_path,
                                                                  capsys, flags, message):
        _, dataset, _ = trained
        out = tmp_path / "model.bin"
        assert run(["train", "--dataset", str(dataset), "--tables", fixture_paths["tables"],
                    "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_decode_settings_checked_whatever_the_decoder(self, fixture_paths, tmp_path, capsys):
        out = tmp_path / "pred.jsonl"
        assert run(["extract", "--model", str(MODEL), "--corpus", fixture_paths["corpus"], "--out", str(out),
                    "--decoder", "viterbi", "--max-solutions", "0", "--lambda-factor", "-1"]) == 1
        assert capsys.readouterr().err == "error: lambda_factor must be non-negative and finite\n"
        assert not out.exists()

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
            ("stage1", dict(header=lambda h: h["stage1"]["layout"].pop()), "missing parameter 'crf.A'"),
            ("stage2", dict(data=lambda v: v[:first_value("stage2", "proj.W") + 1]),
             "tensor 'proj.W' ends early"),
        ],
        ids=["missing", "truncated"],
    )
    def test_extract_rejects_bad_tensor(self, trained, fixture_paths, capsys, stage, edit, named):
        base, _, _ = trained
        bad = edited_model(MODEL, base, **edit)
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

    def test_extract_rejects_truncated_model(self, trained, fixture_paths, tmp_path, capsys):
        _, _, model = trained
        bad = tmp_path / "bad_model.json"
        bad.write_bytes(model.read_bytes()[:-8])
        assert run(["extract", "--model", str(bad), "--corpus", fixture_paths["corpus"],
                    "--out", str(tmp_path / "pred.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: stage2: tensor 'crf.A' ends early")

    def test_extract_rejects_stage1_taking_key_argument_features(self, fixture_paths, tmp_path, capsys):
        bad = stage1_with_key_argument_features(tmp_path)
        assert run(["extract", "--model", bad, "--corpus", fixture_paths["corpus"],
                    "--out", str(tmp_path / "pred.jsonl")]) == 1
        assert capsys.readouterr().err == (f"error: {bad}: stage1: the network takes 3 key-argument "
                                           "labels, which only stage 2 is given\n")

    @pytest.mark.parametrize(
        "kind, edit, named",
        [
            ("model", lambda m: m["stage1"].pop("config"), "stage1: missing field 'config'"),
            ("model", lambda m: m.pop("schemas"), ": missing field 'schemas'"),
            ("model", lambda m: next(e for e in m["stage2"]["layout"] if e[0] == "proj.W").pop(),
             "stage2: 'layout' entry ['proj.W'] is not a [name, shape] pair"),
            ("tables", lambda t: t[1].pop("entries"), ": table people.marriage: missing field 'entries'"),
            ("tables", lambda t: t[0]["entries"][0]["values"].update(date="2004"),
             "table business.acquisition: entry 0: property 'date' needs a list, got str"),
            ("tables", lambda t: t.append(1), "table record is not an object: int"),
            ("tables", lambda t: t[0]["entries"].append(1),
             "table business.acquisition: entry 2 is not an object: int"),
            ("model", lambda m: m.update(stage1=5), "stage1: stage record needs an object, got int"),
            ("model", lambda m: m.update(schemas=[1]), ": schema record needs an object, got int"),
            ("model", lambda m: m["stage1"].update(label_set=3),
             "stage1: 'label_set' needs an object, got int"),
            ("model", lambda m: m["stage1"]["config"].update(vocab=["<unk>"]),
             "stage1: 'vocab' needs an object, got list"),
            ("corpus", lambda lines: lines.append([1, 2]), ":7: not a JSON object: list"),
            ("corpus", lambda lines: lines[0].update(tokens=5),
             "sentence 'S1': 'tokens' needs a list, got int"),
            ("corpus", lambda lines: lines[0].update(tokens="Remedy"),
             "sentence 'S1': 'tokens' needs a list, got str"),
            ("corpus", lambda lines: lines[0].update(dep_head=3),
             "sentence 'S1': 'dep_head' needs a list, got int"),
            ("corpus", lambda lines: lines[0]["dep_head"].__setitem__(0, "x"),
             "sentence 'S1': 'dep_head' needs a list of integers"),
            ("dataset", lambda lines: lines[2].pop("labels"), "lacks 'labels'"),
            ("dataset", lambda lines: lines[2].update(tokens="ab", labels="OO"),
             "record 'S2': 'tokens' needs a list, got str"),
            ("dataset", lambda lines: lines[2].update(event_types="film"),
             "record 'S2': 'event_types' needs a list, got str"),
            ("dataset", lambda lines: lines[2]["labels"].pop(), "record 'S2': 13 labels for 14 tokens"),
            ("report", lambda lines: lines[2]["event_types"].append(None),
             "record 'S2': 'event_types' needs a list of strings"),
            ("dataset", lambda lines: lines[2]["event_types"].append(["film"]),
             "record 'S2': 'event_types' needs a list of strings"),
            ("dataset", lambda lines: lines[2].update(polarity=1),
             "record 'S2': 'polarity' needs a string, got int"),
            ("model", lambda m: m["stage1"]["config"].update(num_labels=None),
             "stage1: 'num_labels' needs an integer, got NoneType"),
            ("model", lambda m: m["schemas"][0]["importance"].update(date=[1]),
             ": importance of 'date' needs a number, got list"),
            ("corpus", lambda lines: lines.append({"id": "EMPTY", "tokens": [], "dep_head": []}),
             "sentence 'EMPTY': 'tokens' is empty"),
            ("dataset", lambda lines: lines[2].update(tokens=[], labels=[]),
             "record 'S2': 'tokens' is empty"),
            ("model-data", lambda v: v.__setitem__(first_value("stage1", "proj.b"), float("nan")) or v,
             "stage1: tensor 'proj.b' has a non-finite value"),
            ("tables", lambda t: t.append({
                "event_type": "business.acquisition", "properties": ["x", "y"],
                "entries": [{"id": "m.x", "values": {"x": ["Remedy"], "y": ["BMC"]}}]}),
             ": repeated event type 'business.acquisition'"),
            ("model", lambda m: m["stage1"]["config"]["vocab"].update(microsoft=10**6),
             "stage1: vocab entry 'microsoft' has id 1000000, outside [0, "),
            ("model", lambda m: m["stage2"]["config"]["vocab"].update(microsoft=-1),
             "stage2: vocab entry 'microsoft' has id -1, outside [0, "),
            ("model", lambda m: m["schemas"].pop(0),
             "stage1: event type 'business.acquisition' has no schema"),
            ("model", lambda m: m["schemas"][0].update(key_args=m["schemas"][0]["nonkey_args"],
                                                       nonkey_args=m["schemas"][0]["key_args"]),
             ": the label sets are not those the schemas build"),
            ("model", lambda m: m.update(format_version=True),
             ": unsupported model format version True"),
            ("model", lambda m: m.update(format_version=1.0),
             ": unsupported model format version 1.0"),
            ("corpus", lambda lines: lines[0]["dep_head"].pop(),
             ": sentence S1: length: dep_head has 16 entries for 17 tokens"),
            ("tables", lambda t: t[0]["entries"][0]["values"].pop("divisions_formed"),
             ": count_arg is zero or missing for property 'divisions_formed'"),
            ("tables", lambda t: t[1].update(entries=[]),
             ": count_cvt is zero or missing for event type 'people.marriage'"),
            ("pred", lambda lines: lines[1].pop("sentence_id"),
             ": record 0: 'sentence_id' needs a string, got NoneType"),
            ("pred", lambda lines: lines[2].update(sentence_id=["S2"]),
             ": record 1: 'sentence_id' needs a string, got list"),
            ("pred", lambda lines: lines[3].update(sentence_id="x"),
             ": predictions for sentences absent from the gold set: ['x']"),
            ("pred", lambda lines: lines[1].update(events=5),
             ": record 'S1': 'events' needs a list, got int"),
            ("pred", lambda lines: lines[1]["events"].__setitem__(0, "x"),
             ": record 'S1': event needs an object, got str"),
            ("pred", lambda lines: lines[1]["events"][0].pop("event_type"),
             ": record 'S1': 'event_type' needs a string, got NoneType"),
            ("pred", lambda lines: lines[1]["events"][0]["arguments"][0].pop("role"),
             ": record 'S1': 'role' needs a string, got NoneType"),
            ("pred", lambda lines: lines[1]["events"][0]["arguments"][0]["span"].pop(),
             ": record 'S1': 'span' needs [start, end], got 1 values"),
            ("pred", lambda lines: lines[1]["events"][0]["arguments"][0]["span"].__setitem__(0, "x"),
             ": record 'S1': 'span' needs an integer, got str"),
            ("events", lambda lines: lines[2]["events"][0]["arguments"].__setitem__(1, 2.5),
             ": record 'S2': argument needs an object, got float"),
            ("gold", lambda lines: lines[2].pop("sentence_id"),
             ": record 1: 'sentence_id' needs a string, got NoneType"),
            ("gold", lambda lines: lines[2]["labels"].__setitem__(0, 5),
             "record 'S2': 'labels' needs a list of strings"),
            ("gold", lambda lines: lines[2]["tokens"].__setitem__(3, ["x"]),
             "record 'S2': 'tokens' needs a list of strings"),
            ("gold", lambda lines: lines[2].update(event_types=5),
             "record 'S2': 'event_types' needs a list, got int"),
            ("gold", lambda lines: lines[1].pop("labels"),
             ": record 'S1': 'events' needs a list, got NoneType"),
            ("model", lambda m: m["stage1"]["label_set"]["roles"].__setitem__(0, ["x"]),
             ": stage1: 'roles' needs a list of strings"),
            ("model", lambda m: m["stage1"]["label_set"]["groups"]["people.marriage"].append(["x"]),
             ": stage1: group 'people.marriage' needs a list of strings"),
            ("model", lambda m: m["schemas"][0]["key_args"].__setitem__(0, ["date"]),
             ": 'key_args' needs a list of strings"),
            ("model", lambda m: m["schemas"][1]["nonkey_args"].append(["venue"]),
             ": 'nonkey_args' needs a list of strings"),
            ("tables", lambda t: t[0].update(event_type=["business.acquisition"]),
             ": table record: 'event_type' needs a string, got list"),
            ("tables", lambda t: t[0]["entries"][1]["values"].update(date=[["March", "2010"]]),
             ": table business.acquisition: entry 1: property 'date' needs a list of strings"),
            ("tables", lambda t: (t[1]["properties"].append(["officiant"]),
                                  t[1]["entries"][0]["values"].update({"['officiant']": ["x"]})),
             ": table people.marriage: 'properties' needs a list of strings"),
            ("model", lambda m: m["schemas"].append({**m["schemas"][0], "event_type": ["x"]}),
             ": schema record: 'event_type' needs a string, got list"),
            ("model", lambda m: m["stage2"]["label_set"]["roles"].pop(),
             ": stage2: the label set has 3 labels, the network 5"),
            ("model", lambda m: (m["stage1"]["label_set"]["roles"].pop(),
                                 m["stage1"]["label_set"]["groups"]["people.marriage"].pop()),
             ": stage1: the label set has 9 labels, the network 11"),
            ("model", lambda m: m["stage1"]["config"].pop("keyarg_embed_dim"),
             ": stage1: missing field 'keyarg_embed_dim'"),
            ("model", lambda m: m["stage1"]["config"].pop("num_keyarg_labels"),
             ": stage1: missing field 'num_keyarg_labels'"),
            ("model", lambda m: m["stage1"]["config"].pop("dropout_rate"),
             ": stage1: missing field 'dropout_rate'"),
            ("model", lambda m: m["stage1"]["label_set"].pop("groups"), ": stage1: missing field 'groups'"),
            ("model", lambda m: m["schemas"][0].pop("importance"), ": missing field 'importance'"),
            ("model", lambda m: m["schemas"][1].pop("nonkey_args"), ": missing field 'nonkey_args'"),
            ("corpus", lambda lines: lines[0].update(dep_label="nsubj"),
             ": sentence 'S1': 'dep_label' needs a list, got str"),
            ("corpus", lambda lines: lines[0].update(dep_label=["nsubj"] * 16),
             ": sentence 'S1': 'dep_label' has 16 entries for 17 tokens"),
            ("corpus-extract", lambda lines: lines[0].update(dep_label=5),
             ": sentence 'S1': 'dep_label' needs a list, got int"),
            ("corpus-extract", lambda lines: lines[0].update(dep_label=["nsubj"] * 18),
             ": sentence 'S1': 'dep_label' has 18 entries for 17 tokens"),
            ("corpus-extract", lambda lines: lines[0].update(dep_label=[0] * 17),
             ": sentence 'S1': 'dep_label' needs a list of strings"),
            ("corpus-bytes", lambda b: b[:40] + b"\xff" + b[40:], ": not UTF-8: invalid start byte (byte 0xff)"),
            ("tables-bytes", lambda b: b[:40] + b"\xc3(" + b[40:],
             ": not UTF-8: invalid continuation byte (byte 0xc3)"),
            ("aliases-bytes", lambda b: b[:4] + b"\xff" + b[4:], ": not UTF-8: invalid start byte (byte 0xff)"),
            ("dataset-bytes", lambda b: b[:-2] + b"\xff" + b[-2:], ": not UTF-8: invalid start byte (byte 0xff)"),
            ("gold-bytes", lambda b: b"\xff" + b, ": not UTF-8: invalid start byte (byte 0xff)"),
            ("pred-bytes", lambda b: b + b"\xff\n", ": not UTF-8: invalid start byte (byte 0xff)"),
            ("embeddings-bytes", lambda b: b"remedy 0.1 \xff\n", ": not UTF-8: invalid start byte (byte 0xff)"),
            ("config-bytes", lambda b: b"[gen]\nseed = 1\xff\n", ": not UTF-8: invalid start byte (byte 0xff)"),
            ("config-bytes", lambda b: b"seed = 1\n", ":1: 'seed = 1' comes before any [section] header"),
            ("config-bytes", lambda b: b"[gen]\nseed = 1\nseed = 2\n", ":3: option 'seed' repeated in [gen]"),
            ("config-bytes", lambda b: b"[gen]\nseed = x\n",
             ": [gen] seed: invalid literal for int() with base 10: 'x'"),
            ("config-bytes", lambda b: b"[gen]\npartial_ratio = 0.5max_dist = 3\n",
             ": [gen] partial_ratio: could not convert string to float: '0.5max_dist = 3'"),
            ("config-bytes", lambda b: b"[gen]\nstrategy = imp_timeseed = 0\n",
             ": [gen] strategy: 'imp_timeseed = 0' is not one of all, imp, imp_time"),
            ("config-bytes", lambda b: b"[gen]\nepochs = 5\n",
             ": [gen] has no setting 'epochs'; its settings are max_dist, partial_ratio, seed, "
             "strategy, violation_ratio"),
            ("config-bytes", lambda b: b"[gen]\naliases = fixtures/aliases.tsv\n",
             ": [gen] has no setting 'aliases'"),
            ("tables-train", lambda t: t[0]["entries"][0]["values"].pop("divisions_formed"),
             ": count_arg is zero or missing for property 'divisions_formed'"),
            ("tables-eval", lambda t: t[0]["entries"][0]["values"].pop("divisions_formed"),
             ": count_arg is zero or missing for property 'divisions_formed'"),
            ("tables-train", lambda t: t.append({**t[1], "entries": t[1]["entries"][:1]}),
             ": repeated event type 'people.marriage'"),
            ("tables-eval-bytes", lambda b: b[:-3], ": invalid JSON: "),
            ("tables-train-bytes", lambda b: b"[" + b, ": invalid JSON: "),
            ("corpus-extract", lambda lines: lines.append({**lines[0], "tokens": ["x"], "dep_head": [-1]}),
             ": repeated sentence id 'S1'"),
            ("config-bytes", lambda b: b"[gen]\npartial_ratio = -1\n",
             ": [gen]: partial_negative_ratio must be finite and non-negative"),
            ("config-bytes", lambda b: b"[gen]\nviolation_ratio = nan\n",
             ": [gen]: violation_negative_ratio must be finite and non-negative"),
            ("config-bytes", lambda b: b"[gen]\nseed = 1\n[gen]\n", ":3: section [gen] repeated"),
            ("config-bytes", lambda b: b"[gen]\nseed = 1\nseed\n",
             ":3: neither a [section] header nor a 'key = value' line"),
            ("corpus", lambda lines: lines[0].update(id=None), ": record 0: 'id' needs a string, got NoneType"),
            ("corpus-extract", lambda lines: lines[1].update(id=7), ": record 1: 'id' needs a string, got int"),
            ("tables", lambda t: t[1]["entries"][0].update(id=["x"]),
             ": table people.marriage: entry 0: 'id' needs a string, got list"),
            ("tables", lambda t: t[0]["entries"][1]["values"].update(venue=["Paris"]),
             ": table business.acquisition: entry 1 (m.05nb3y7) has unknown properties ['venue']"),
            ("tables", lambda t: t[1]["entries"][0]["values"].update(venue=[]),
             ": table people.marriage: entry 0 (m.wed1) has an empty value list for venue"),
            ("tables", lambda t: t[1]["properties"].append("spouse"),
             ": table people.marriage: duplicate property names"),
            ("tables", lambda t: t[1].update(time_properties=["date"]),
             ": table people.marriage: time_properties ['date'] are not listed properties"),
            ("tables", lambda t: t[1]["entries"][0].pop("values"),
             ": table people.marriage: entry 0: missing field 'values'"),
            ("embeddings-bytes", lambda b: b"remedy 0.1 x\n", ":1: could not convert string to float: 'x'"),
            ("embeddings-bytes", lambda b: b"remedy nan 0.1\n", ":1: 'remedy' has a value that is not finite"),
            ("corpus", lambda lines: lines[0].pop("tokens"), ": sentence 'S1': missing field 'tokens'"),
            ("corpus-extract", lambda lines: lines[2].pop("dep_head"),
             ": sentence 'S3': missing field 'dep_head'"),
            ("corpus", lambda lines: lines[1].pop("id"), ": record 1: missing field 'id'"),
            ("tables", lambda t: t[0].pop("properties"),
             ": table business.acquisition: missing field 'properties'"),
            ("tables", lambda t: t[0].pop("event_type"), ": table 0: missing field 'event_type'"),
            ("train-flags", ["--seed", "-1"], "seed must be non-negative"),
            ("train-flags", ["--keyarg-dim", "0"], "keyarg_dim must be at least 1"),
            ("train-flags", ["--hidden2", "0"], "hidden2 must be at least 1"),
            ("train-flags", ["--embed-dim", "-2"], "embed_dim must be at least 1"),
            ("train-flags", ["--dropout", "1.0"], r"dropout must be in [0, 1)"),
            ("config-train-bytes", lambda b: b"[train]\nseed = -1\n", ": [train]: seed must be non-negative"),
            ("config-train-bytes", lambda b: b"[train]\nkeyarg_dim = 0\n",
             ": [train]: keyarg_dim must be at least 1"),
            ("config-train-bytes", lambda b: b"[train]\nhidden1 = 0\n", ": [train]: hidden1 must be at least 1"),
            ("config-train-bytes", lambda b: b"[train]\ndropout = 1.0\n", ": [train]: dropout must be in [0, 1)"),
        ],
        ids=["model-config", "model-schemas", "tensor-shape", "table-entries",
             "tables-string-values", "tables-non-object", "tables-non-object-entry",
             "model-stage-int", "model-schema-int", "model-label-set-int", "model-vocab-list",
             "corpus-list", "corpus-int-tokens", "corpus-string-tokens", "corpus-int-heads",
             "corpus-string-head", "dataset-labels", "dataset-string-tokens",
             "dataset-string-types", "dataset-short-labels", "dataset-null-type",
             "dataset-list-type", "dataset-int-polarity", "model-null-num-labels",
             "model-list-importance", "corpus-empty-sentence", "dataset-empty-record",
             "model-nan-tensor", "tables-repeated-type", "model-vocab-id-large",
             "model-vocab-id-negative", "model-type-without-schema", "model-key-args-swapped",
             "model-version-bool",
             "model-version-float", "corpus-short-heads", "tables-unused-property",
             "tables-no-entries", "pred-missing-id", "pred-list-id", "pred-stray-id",
             "pred-int-events", "pred-string-event", "pred-missing-type", "pred-missing-role",
             "pred-short-span", "pred-string-span", "gold-events-float-argument",
             "gold-missing-id", "gold-int-label", "gold-list-token", "gold-int-types",
             "gold-first-record-without-labels", "model-list-role", "model-list-group-role",
             "model-list-key-arg", "model-list-nonkey-arg", "tables-list-type",
             "tables-list-value", "tables-list-property", "model-list-schema-type",
             "model-stage2-labels-short", "model-stage1-labels-short",
             "model-missing-keyarg-dim", "model-missing-keyarg-labels", "model-missing-dropout",
             "model-missing-groups", "model-missing-importance", "model-missing-nonkey-args",
             "corpus-string-dep-labels", "corpus-short-dep-labels", "extract-int-dep-labels",
             "extract-long-dep-labels", "extract-int-dep-label", "corpus-not-utf8",
             "tables-not-utf8", "aliases-not-utf8", "dataset-not-utf8", "gold-not-utf8",
             "pred-not-utf8", "embeddings-not-utf8", "config-not-utf8",
             "config-no-section", "config-repeated-key", "config-int-value", "config-float-value",
             "config-strategy-value", "config-unknown-key", "config-aliases-key",
             "train-tables-unused-property", "eval-tables-unused-property", "train-tables-repeated-type",
             "eval-tables-invalid-json", "train-tables-invalid-json", "extract-repeated-sentence-id",
             "config-negative-ratio", "config-nan-ratio", "config-repeated-section",
             "config-no-equals", "corpus-null-id", "extract-int-id", "tables-list-entry-id",
             "tables-unknown-property", "tables-empty-values", "tables-repeated-property",
             "tables-unknown-time-property", "tables-entry-missing-values",
             "embeddings-not-a-number", "embeddings-nan", "corpus-missing-tokens",
             "extract-missing-heads", "corpus-missing-id", "tables-missing-properties",
             "tables-missing-type", "flag-negative-seed", "flag-zero-keyarg-dim",
             "flag-zero-hidden2", "flag-negative-embed-dim", "flag-dropout-one",
             "config-negative-seed", "config-zero-keyarg-dim", "config-zero-hidden1",
             "config-dropout-one"],
    )
    def test_malformed_input_named(
        self, trained, fixture_paths, tmp_path, capsys, kind, edit, named
    ):
        _, dataset, _ = trained
        bad = tmp_path / f"bad-{kind}"
        tables, corpus, out = fixture_paths["tables"], fixture_paths["corpus"], tmp_path / "out"
        if kind == "train-flags":  # `edit` holds the flags, refused before the unwritten dataset is read
            assert run(["train", "--dataset", str(bad), "--tables", tables, *edit, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {named}\n"
            return
        source = {"tables": tables, "tables-train": tables, "tables-eval": tables,
                  "aliases": fixture_paths["aliases"], "dataset": dataset,
                  "report": dataset, "gold": dataset, "pred": PRED, "events": PRED,
                  "config": None, "config-train": None,
                  "embeddings": None}.get(kind.removesuffix("-bytes"), corpus)
        if kind in ("model", "model-data"):
            bad = edited_model(MODEL, tmp_path, **{"header" if kind == "model" else "data": edit})
        elif kind.endswith("-bytes"):  # `edit` takes and gives the file's bytes
            bad.write_bytes(edit(pathlib.Path(source).read_bytes() if source else b""))
        elif kind.startswith("tables"):
            payload = read_json(tables)
            edit(payload)
            bad.write_text(json.dumps(payload))
        else:
            with open(source, "r", encoding="utf-8") as fh:
                lines = [json.loads(line) for line in fh]
            edit(lines)
            bad.write_text("".join(json.dumps(line) + "\n" for line in lines))
        argv = {
            "model": ["extract", "--model", str(bad), "--corpus", corpus],
            "model-data": ["extract", "--model", str(bad), "--corpus", corpus],
            "tables": ["gen", "--tables", str(bad), "--corpus", corpus],
            "tables-train": ["train", "--dataset", str(dataset), "--tables", str(bad), "--epochs", "1"],
            "tables-eval": ["eval", "--pred", str(PRED), "--gold", str(dataset), "--tables", str(bad)],
            "corpus": ["gen", "--tables", tables, "--corpus", str(bad)],
            "corpus-extract": ["extract", "--model", str(MODEL), "--corpus", str(bad)],
            "aliases": ["gen", "--tables", tables, "--corpus", corpus, "--aliases", str(bad)],
            "config": ["gen", "--tables", tables, "--corpus", corpus, "--config", str(bad)],
            "config-train": ["train", "--dataset", str(dataset), "--tables", tables, "--config", str(bad)],
            "dataset": ["train", "--dataset", str(bad), "--tables", tables, "--epochs", "1"],
            "embeddings": ["train", "--dataset", str(dataset), "--tables", tables, "--epochs", "1",
                           "--embed-dim", "2", "--hidden1", "2", "--hidden2", "2",
                           "--embeddings", str(bad)],
            "report": ["report", "--dataset", str(bad)],
            "pred": ["eval", "--pred", str(bad), "--gold", str(dataset), "--model", str(MODEL)],
            "gold": ["eval", "--pred", str(PRED), "--gold", str(bad), "--model", str(MODEL)],
            "events": ["eval", "--pred", str(PRED), "--gold", str(bad), "--model", str(MODEL)],
        }[kind.removesuffix("-bytes")]
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}")
        assert err.count(str(bad)) == 1
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

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--trials", "0"], "trials must be at least 1"),
            (["--trials", "-3"], "trials must be at least 1"),
            (["--seed", "-1"], "seed must be non-negative"),
        ],
        ids=["zero-trials", "negative-trials", "negative-seed"],
    )
    def test_settings_refused_by_name(self, capsys, flags, named):
        assert run(["oracle", "--check", "ilp", *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {named}\n")
        with pytest.raises(ValueError, match=f"^{named}$"):
            oracle.run_checks(["ilp"], **{flags[0][2:]: int(flags[1])})

    def test_gradient_checks_take_seed_and_trials(self, capsys):
        for check in ("crf-gradients", "blstm-gradients"):
            assert run(["oracle", "--check", check, "--seed", "3", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "crf-gradients: 2 trials, ok" in out
        assert "blstm-gradients: 2 trials, ok" in out
