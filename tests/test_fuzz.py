"""Seeded mutation fuzz of every command that reads an input file.

Each draw takes a valid input, replaces one of its JSON values with another
value (mostly of another kind) or deletes it, and runs the command that reads
it through `cli.main`, in-process and under an alarm. Of a model, only the
JSON header line is mutated; the tensor bytes after it stay as they are. A
draw passes when the command exits 0, or exits 1 with an
`error: <file>` line that names one of its input files. Anything else (a traceback, another exit code, a run past the
alarm) is an escape. Each escape found so far is pinned as a named case in
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
from tabevent.core import read_jsonl
from tabevent.evaluation import mentions_from_record

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
        return None
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
    return {**fixture_paths, "dataset": str(dataset), "events": str(events),
            "pred": str(DATA / "model_v1_pred_multi.jsonl"), "model": str(DATA / "model_v3.bin")}


# (case, input kind mutated, draws, the command run on the mutated file `bad`)
CASES = [
    ("gen-corpus", "corpus", 150, lambda p, bad: ["gen", "--tables", p["tables"], "--corpus", bad]),
    ("extract-corpus", "corpus", 75, lambda p, bad: ["extract", "--model", p["model"], "--corpus", bad]),
    ("gen-tables", "tables", 150, lambda p, bad: ["gen", "--tables", bad, "--corpus", p["corpus"]]),
    ("train-dataset", "dataset", 40,
     lambda p, bad: ["train", "--dataset", bad, "--tables", p["tables"], *TINY_TRAIN]),
    ("report-dataset", "dataset", 150, lambda p, bad: ["report", "--dataset", bad]),
    ("eval-pred", "pred", 300,
     lambda p, bad: ["eval", "--pred", bad, "--gold", p["dataset"], "--model", p["model"]]),
    ("eval-gold-dataset", "dataset", 300,
     lambda p, bad: ["eval", "--pred", p["pred"], "--gold", bad, "--model", p["model"]]),
    ("eval-gold-events", "events", 300,
     lambda p, bad: ["eval", "--pred", p["pred"], "--gold", bad, "--model", p["model"]]),
    ("extract-model-v3", "model", 300,
     lambda p, bad: ["extract", "--model", bad, "--corpus", p["corpus"]]),
]


@pytest.mark.parametrize("case, kind, draws, argv", CASES, ids=[c[0] for c in CASES])
def test_mutated_inputs_fail_by_name(valid_inputs, tmp_path, case, kind, draws, argv):
    rng = random.Random(f"{SEED}-{case}")
    source = valid_inputs[kind]
    bad = str(tmp_path / ("bad" + pathlib.Path(source).suffix))
    escapes = []
    for draw in range(draws):
        doc, tensors = _load(source)
        _dump(mutate(doc, rng), bad, tensors)
        command = argv(valid_inputs, bad)
        inputs = [a for a in command if a == bad or a in valid_inputs.values()]
        escape = run_draw([*command, "--out", str(tmp_path / "out")], inputs)
        if escape:
            escapes.append(f"draw {draw}: {escape}")
    assert not escapes, "\n".join(escapes)
