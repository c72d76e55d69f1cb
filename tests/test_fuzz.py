"""Seeded mutation fuzz of every command that reads an input file.

Each draw takes a valid input, mutates it and runs the command that reads it
through `cli.main`, in-process and under an alarm. A value mutation replaces
one of a JSON input's values with another value (mostly of another kind) or
deletes it; of a model, only the JSON header line is mutated, and the tensor
bytes after it stay as they are. A byte mutation, run on every input file
including alias and INI files, puts an invalid UTF-8 byte into the file or
drops or doubles one of its tabs or newlines. A draw passes when the command
exits 0 with an output in which `output_faults` finds nothing, or exits 1
with an `error: <file>` line that names one of its input files. Anything else
(a traceback, another exit code, a run past the alarm, a fault in the output)
is an escape. Each escape found so far is pinned as a named case in
`test_cli.py::TestPipelineCommands::test_malformed_input_named`.
"""

import contextlib
import io
import json
import pathlib
import random
import signal

import pytest

from tabevent import cli
from tabevent.core import read_corpus, read_jsonl, read_tables
from tabevent.evaluation import mentions_from_record
from tabevent.pipeline import ExtractorModel, build_label_sets
from tabevent.supervision import Strategy, read_dataset, select_schemas

DATA = pathlib.Path(__file__).resolve().parent / "data"
SEED = 17
ALARM_S = 20.0
REPLACEMENTS = [None, True, 0, -1, 2.5, 10**6, "", "x", "B-x", [], [0], ["x"], {}, {"x": 0}]
TINY_TRAIN = ["--epochs", "1", "--embed-dim", "2", "--hidden1", "2", "--hidden2", "2",
              "--keyarg-dim", "1", "--dev-fraction", "0.0"]


class _Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm()


def _paths(value, prefix=()):
    """Every path into a JSON value, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def mutate(doc, rng):
    """`doc` with one value replaced by a different one, or deleted."""
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.25:
        del parent[path[-1]]
    else:
        old = parent[path[-1]]
        parent[path[-1]] = rng.choice([v for v in REPLACEMENTS if v != old or type(v) is not type(old)])
    return doc


def mutate_bytes(data, rng):
    """`data` with a 0xff byte (never valid UTF-8) put in, or one of its tabs or newlines
    dropped or doubled."""
    marks = [i for i, b in enumerate(data) if b in b"\t\n"]
    kind = rng.choice(["invalid", "drop", "double"])
    if kind == "invalid" or not marks:
        i = rng.randrange(len(data) + 1)
        return data[:i] + b"\xff" + data[i:]
    i = rng.choice(marks)
    return data[:i] + data[i + 1:] if kind == "drop" else data[:i + 1] + data[i:]


def _load(path):
    """A JSONL file as a list of its lines' values, or a JSON file as its value, and b"".
    A model (`.bin`) gives its header line's value and the tensor bytes after it."""
    data = pathlib.Path(path).read_bytes()
    if str(path).endswith(".jsonl"):
        return [json.loads(line) for line in data.splitlines() if line.strip()], b""
    if str(path).endswith(".bin"):
        header, _, tensors = data.partition(b"\n")
        return json.loads(header), tensors
    return json.loads(data), b""


def _dump(doc, path, tensors=b""):
    """The inverse of `_load`."""
    if str(path).endswith(".jsonl"):
        text = "".join(json.dumps(line) + "\n" for line in doc)
    else:
        text = json.dumps(doc) + ("\n" if str(path).endswith(".bin") else "")
    pathlib.Path(path).write_bytes(text.encode("utf-8") + tensors)


def output_faults(argv):
    """What the repository's readers find wrong in the output of a run of `argv` that exited 0.
    `extract`: an event of a type the model has no schema for, or an argument of a role off
    that schema or with a span outside its sentence. `gen`: a label of a role off the label
    set built from the tables (under `all`, every property is a key role)."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    faults = []
    if argv[0] == "extract":
        schemas = ExtractorModel.load(flags["--model"]).schemas
        lengths = {s.id: len(s) for s in read_corpus(flags["--corpus"])}
        for rec in read_jsonl(flags["--out"]):
            for event in rec["events"]:
                schema = schemas.get(event["event_type"])
                roles = schema.key_args | schema.nonkey_args if schema else ()
                n = lengths[rec["sentence_id"]]
                faults += [f"{rec['sentence_id']}: {event['event_type']} {arg}"
                           for arg in event["arguments"]
                           if arg["role"] not in roles or not 0 <= arg["span"][0] < arg["span"][1] <= n]
    elif argv[0] == "gen":
        labels, _ = build_label_sets(select_schemas(read_tables(flags["--tables"]), Strategy.ALL))
        faults += [f"{rec['sentence_id']}: {tag}" for rec in read_dataset(flags["--out"])
                   for tag in rec["labels"] if tag not in labels]
    return faults


def run_draw(argv, inputs):
    """None if the run passes, else a description of the escape."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except _Alarm:
        return f"no result after {ALARM_S} s"
    except (Exception, SystemExit) as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code == 0:
        faults = output_faults(argv)
        return f"exit 0, but the output has {len(faults)} faults: {faults[:3]}" if faults else None
    message = err.getvalue()
    if code == 1 and any(message.startswith(f"error: {path}") for path in inputs):
        return None
    return f"exit {code}: {message.strip()[:200]}"


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory, fixture_paths):
    base = tmp_path_factory.mktemp("fuzz")
    dataset = base / "dataset.jsonl"
    assert cli.main(["gen", "--tables", fixture_paths["tables"], "--corpus", fixture_paths["corpus"],
                     "--out", str(dataset), "--seed", "0"]) == 0
    events = base / "gold_events.jsonl"
    _dump([mentions_from_record(rec, {}) for rec in read_jsonl(str(dataset))], events)
    config = base / "run.ini"  # a setting of each command's section, given by no flag below
    config.write_text("[gen]\nseed = 0\nmax_dist = 3\nstrategy = imp_time\npartial_ratio = 0.5\n"
                      "violation_ratio = 0.5\n\n[train]\nseed = 0\nlr = 0.05\npatience = 2\n"
                      "dropout = 0.0\n\n[extract]\ndecoder = viterbi\nlambda_factor = 0.5\n"
                      "max_solutions = 3\n")
    return {**fixture_paths, "dataset": str(dataset), "events": str(events), "config": str(config),
            "pred": str(DATA / "model_v1_pred_multi.jsonl"), "model": str(DATA / "model_v3.bin")}


def _gen(p, bad):
    return ["gen", "--tables", p["tables"], "--corpus", bad]


def _gen_tables(p, bad):
    return ["gen", "--tables", bad, "--corpus", p["corpus"]]


def _report(p, bad):
    return ["report", "--dataset", bad]


def _eval_pred(p, bad):
    return ["eval", "--pred", bad, "--gold", p["dataset"], "--model", p["model"]]


def _eval_gold(p, bad):
    return ["eval", "--pred", p["pred"], "--gold", bad, "--model", p["model"]]


def _extract(p, bad):
    # The committed model finds events on the fixtures only under the k-best decoder, so only
    # its output gives `output_faults` events to check.
    return ["extract", "--model", bad, "--corpus", p["corpus"], "--decoder", "ilp_multi"]


# (case, input kind mutated, "value" or "bytes" mutation, draws, the command run on the
# mutated file `bad`)
CASES = [
    ("gen-corpus", "corpus", "value", 150, _gen),
    ("extract-corpus", "corpus", "value", 75,
     lambda p, bad: ["extract", "--model", p["model"], "--corpus", bad]),
    ("gen-tables", "tables", "value", 150, _gen_tables),
    ("train-dataset", "dataset", "value", 40,
     lambda p, bad: ["train", "--dataset", bad, "--tables", p["tables"], *TINY_TRAIN]),
    ("report-dataset", "dataset", "value", 150, _report),
    ("eval-pred", "pred", "value", 300, _eval_pred),
    ("eval-gold-dataset", "dataset", "value", 300, _eval_gold),
    ("eval-gold-events", "events", "value", 300, _eval_gold),
    ("extract-model-v3", "model", "value", 300, _extract),
    ("gen-corpus-bytes", "corpus", "bytes", 60, _gen),
    ("gen-tables-bytes", "tables", "bytes", 60, _gen_tables),
    ("gen-aliases-bytes", "aliases", "bytes", 60,
     lambda p, bad: ["gen", "--tables", p["tables"], "--corpus", p["corpus"], "--aliases", bad]),
    ("report-dataset-bytes", "dataset", "bytes", 60, _report),
    ("eval-gold-bytes", "dataset", "bytes", 60, _eval_gold),
    ("eval-pred-bytes", "pred", "bytes", 60, _eval_pred),
    ("extract-model-bytes", "model", "bytes", 60, _extract),
    ("gen-config-bytes", "config", "bytes", 60,
     lambda p, bad: ["gen", "--config", bad, "--tables", p["tables"], "--corpus", p["corpus"]]),
    ("train-config-bytes", "config", "bytes", 30,
     lambda p, bad: ["train", "--config", bad, "--dataset", p["dataset"], "--tables", p["tables"],
                     *TINY_TRAIN]),
    ("extract-config-bytes", "config", "bytes", 60,
     lambda p, bad: ["extract", "--config", bad, "--model", p["model"], "--corpus", p["corpus"]]),
]


@pytest.mark.parametrize("case, kind, mutation, draws, argv", CASES, ids=[c[0] for c in CASES])
def test_mutated_inputs_fail_by_name(valid_inputs, tmp_path, case, kind, mutation, draws, argv):
    rng = random.Random(f"{SEED}-{case}")
    source = valid_inputs[kind]
    bad = str(tmp_path / ("bad" + pathlib.Path(source).suffix))
    escapes = []
    for draw in range(draws):
        if mutation == "bytes":
            pathlib.Path(bad).write_bytes(mutate_bytes(pathlib.Path(source).read_bytes(), rng))
        else:
            doc, tensors = _load(source)
            _dump(mutate(doc, rng), bad, tensors)
        command = argv(valid_inputs, bad)
        inputs = [a for a in command if a == bad or a in valid_inputs.values()]
        escape = run_draw([*command, "--out", str(tmp_path / "out")], inputs)
        if escape:
            escapes.append(f"draw {draw}: {escape}")
    assert not escapes, "\n".join(escapes)
