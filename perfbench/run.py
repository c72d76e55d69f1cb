"""tabevent benchmark: the paper's loop, gen -> train -> extract -> eval.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gen-alias --seed 1 --seconds 10 --trace 0

Each workload is one process, a closed loop of one caller. Set-up writes the
workload's seeded inputs (see inputs.py) and reads them back with tabevent's
readers (tables, alias map, both corpora, training dataset; key-argument
selection), SETUP_REPEATS times, and reports the median as `setup_s`. The
measured pass then runs, on those files, every stage a user runs:

  gen      read tables, corpus and aliases; supervision.generate_dataset;
           write the dataset (what `tabevent gen` calls)
  train    pipeline.train_pipeline on the workload's fixed training dataset
           (see inputs.py) for a fixed number of epochs with no early stop
  io       ExtractorModel.save, then ExtractorModel.load
  extract  every held-out sentence through pipeline.extract_sentence with
           the loaded model, under three decoders: viterbi, ilp, ilp_multi
  eval     evaluation.score_all_standards of the ilp_multi output against
           the generator's gold

gen and model I/O repeat until each has run MIN_REPEATS times and for
--seconds / 10, and each of viterbi and ilp for --seconds / 5, interleaved,
and report medians;
training and ilp_multi run once. End-to-end times are host-scaled (see
hostclock.py); the raw wall times are printed beside them.

With --trace 1 the pass runs once untraced and once with span wrappers
(spans.py) on the public functions of core, supervision, neural, crf, ilp,
pipeline and evaluation; both must give the same outputs, and the per-layer
metrics come from the traced pass. Spans are written to spans.npz in the
workload's work directory.

The workloads differ in the input property that sets the cost of one
layer: alias-map size (supervision), vocabulary and model dimensions
(neural, Adam, model I/O) and event-type count (ilp).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; the benchmark's matrices are
# small, so one thread is steadier than two on a shared 2-core host.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostclock
import inputs
import spans as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
MIN_REPEATS = 3            # gen-alias's gen and train-paper's model I/O take seconds each
DECODE_DEADLINE_S = 20.0   # per sentence; the slowest on the baseline takes about 1 s
DECODE_LIMIT_S = 60.0      # per pass; decodes not started this long into decoding fail
CHECK_SAMPLE = 8           # held-out sentences re-decoded outside the timed sections
BRUTE_TOKENS = 5           # key tokens of a k-best sub-problem checked by exhaustive search
TAIL_PCT = 90              # 20 of the 200 held-out sentences lie beyond it
DECODE = {"lambda_factor": 0.5, "max_solutions": 10}
DECODERS = ("viterbi", "ilp", "ilp_multi")


@dataclass(frozen=True)
class Workload:
    shape: dict   # inputs.Shape fields
    train: dict   # pipeline.TrainSettings fields


SMALL = dict(embed_dim=24, hidden1=24, hidden2=24, keyarg_dim=8, dropout=0.0, lr=0.01)
PAPER = dict(embed_dim=200, hidden1=100, hidden2=150, keyarg_dim=50, dropout=0.5, lr=0.01)

WORKLOADS = {
    # Matching cost grows with |corpus| x |entries| x |aliases|.
    "gen-alias": Workload(
        shape=dict(types=3, entries=60, alias_share=0.5, aliases_per_value=2,
                   names=600, words=0, length=14, test_length=11,
                   train_sentences=150, gen_sentences=80, test_sentences=200),
        train=dict(SMALL, epochs=8),
    ),
    # Paper dimensions; Adam updates the whole vocab x 200 embedding table.
    "train-paper": Workload(
        shape=dict(types=2, entries=30, alias_share=0.0, aliases_per_value=0,
                   names=4000, words=4000, length=14, test_length=11,
                   train_sentences=160, gen_sentences=160, test_sentences=200),
        train=dict(PAPER, epochs=3),
    ),
    # The branch-and-bound grows with the number of key-role groups. 200
    # held-out sentences put p90 at the 20th slowest of 60 non-events, the
    # sentences ilp_multi spends its time on; as the 10th of 30 or of 60 it
    # spread 0.44 and 0.24 over seeds.
    "extract-multitype": Workload(
        shape=dict(types=4, entries=8, alias_share=0.0, aliases_per_value=0,
                   names=400, words=0, length=11, test_length=11,
                   train_sentences=200, gen_sentences=200, test_sentences=200),
        train=dict(SMALL, epochs=8),
    ),
}


class DecodeTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise DecodeTimeout()


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def train_nll(history: dict) -> float:
    """Mean stage-1 train NLL over the fixed epochs.

    The last epoch's value alone is near zero once training converges and
    varies by a third or more between seeds; the mean over the schedule is
    as deterministic and shows a change in how fast training learns.
    """
    curve = history["stage1"]["train_nll"]
    return sum(curve) / len(curve)


class Bench:
    def __init__(self, name: str, seed: int, tabevent):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.te = tabevent
        self.work = ROOT / ".bench_work" / f"{name}-{seed}"
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}

    # -- set-up ------------------------------------------------------------
    def setup(self, between) -> list[tuple[float, float]]:
        """Write the inputs and read them back with the program, repeatedly.

        `between` runs before each repeat, outside the timed interval.
        """
        core, supervision = self.te.core, self.te.supervision
        spans, digests = [], set()
        shutil.rmtree(self.work, ignore_errors=True)
        for _ in range(SETUP_REPEATS):
            # Each repeat starts from the same collector state, and the
            # host's speed is sampled as often as set-up is timed.
            gc.collect()
            between()
            t0 = time.perf_counter()
            inp = inputs.build(inputs.Shape(**self.wl.shape), self.seed)
            digests.add(inputs.write_inputs(inp, self.work))
            tables = core.read_tables(str(self.work / "tables.json"))
            stats = supervision.collect_stats(tables)
            schemas = {tb.event_type: supervision.select_key_args(tb, stats) for tb in tables}
            supervision.read_alias_map(str(self.work / "aliases.tsv"))
            core.read_corpus(str(self.work / "gen_corpus.jsonl"))
            sentences = core.read_corpus(str(self.work / "test_corpus.jsonl"))
            train_records = supervision.read_dataset(str(self.work / "train_dataset.jsonl"))
            spans.append((t0, time.perf_counter()))
        check(len(digests) == 1, "set-up inputs differ between repeats")
        self.inputs = inp
        self.inputs_sha = digests.pop()
        self.schemas, self.sentences, self.train_records = schemas, sentences, train_records
        return spans

    # -- the measured pass ---------------------------------------------------
    def measure(self, budget_s: float, tracer=None) -> dict:
        """Run every stage once, then repeat the short ones for their budgets.

        gen and model I/O repeat until each has run MIN_REPEATS times and
        for budget_s, and each of viterbi and ilp for twice that, in rounds
        that interleave them so
        that every one samples the whole run's host. Training and ilp_multi
        run once; the first decoding pass interleaves all three decoders
        sentence by sentence. Decoding stops at DECODE_LIMIT_S, and the
        decodes not started by then count as failed. Returns the outputs
        and the (start, end) wall interval of every timed call; a decode that
        never started has no interval.
        """
        te = self.te
        core, supervision, pipeline, evaluation = te.core, te.supervision, te.pipeline, te.evaluation
        phase = tracer.set_phase if tracer else (lambda p: None)
        op = tracer.set_op if tracer else (lambda o: None)
        dataset = self.work / "dataset.jsonl"
        model_path = self.work / "model.json"
        schemas = self.schemas
        t: dict = {"gen": [], "save": [], "load": []}
        out: dict = {"t": t}
        shas: dict = {"gen": set(), "io": set()}

        def gen():
            phase("gen")
            t0 = time.perf_counter()
            tables = core.read_tables(str(self.work / "tables.json"))
            corpus = core.read_corpus(str(self.work / "gen_corpus.jsonl"))
            aliases = supervision.read_alias_map(str(self.work / "aliases.tsv"))
            cfg = supervision.GenerationConfig(alias_map=aliases)
            records, _ = supervision.generate_dataset(tables, corpus, cfg, seed=self.seed)
            supervision.write_dataset(str(dataset), records, header={"seed": self.seed})
            t["gen"].append((t0, time.perf_counter()))
            self.attempted += 1
            shas["gen"].add(sha256_file(dataset))
            return corpus, records

        def io(model):
            phase("io")
            t0 = time.perf_counter()
            model.save(str(model_path))
            t1 = time.perf_counter()
            loaded = pipeline.ExtractorModel.load(str(model_path))
            t["save"].append((t0, t1))
            t["load"].append((t1, time.perf_counter()))
            self.attempted += 2
            shas["io"].add(sha256_file(model_path))
            return loaded

        corpus, records = gen()
        out["n_gen"], out["records"] = len(corpus), records

        # Training reads the workload's fixed dataset (see inputs.py), so
        # that the tagger, and with it the decoders' work, is the same in
        # every run; gen's output is checked, not trained on.
        phase("train")
        settings = pipeline.TrainSettings(seed=inputs.FIXED_SEED, dev_fraction=0.0, **self.wl.train)
        t0 = time.perf_counter()
        model, history = pipeline.train_pipeline(self.train_records, schemas, settings)
        t["train"] = [(t0, time.perf_counter())]
        self.attempted += 1
        out["model"], out["history"] = model, history
        out["train_tokens"] = settings.epochs * (
            sum(len(r["tokens"]) for r in self.train_records)
            + sum(len(r["tokens"]) * len(r["event_types"]) for r in self.train_records
                  if r["polarity"] == "positive")
        )

        loaded = out["loaded"] = io(model)
        # Peak memory up to here. The decoders' peak is left out: the
        # branch-and-bound's node store makes it the hardest sentence's,
        # which one seed in four raised by half; ilp_multi's cost is gated
        # through multi_sent_per_s and multi_p90_ms instead.
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        sentences = self.sentences
        calls = t["decode"] = {d: [[] for _ in sentences] for d in DECODERS}
        preds = out["preds"] = {d: [None] * len(sentences) for d in DECODERS}
        section_start = time.perf_counter()

        def past_limit() -> bool:
            return time.perf_counter() - section_start > DECODE_LIMIT_S

        def decode(i: int, decoder: str) -> None:
            self.attempted += 1
            if past_limit():
                self.failed += 1
                self.errors.setdefault(decoder, f"{sentences[i].id}: not started within {DECODE_LIMIT_S} s")
                return
            s = sentences[i]
            phase(f"extract.{decoder}")
            op(s.id)
            pred = None
            signal.setitimer(signal.ITIMER_REAL, DECODE_DEADLINE_S)
            t0 = time.perf_counter()
            try:
                pred = pipeline.extract_sentence(s, loaded, decoder, **DECODE)
            except DecodeTimeout:
                self.failed += 1
                self.errors.setdefault(decoder, f"{s.id}: past the {DECODE_DEADLINE_S} s deadline")
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                self.errors.setdefault(decoder, f"{s.id}: {type(exc).__name__}: {exc}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            calls[decoder][i].append((t0, time.perf_counter()))
            if len(calls[decoder][i]) == 1:
                preds[decoder][i] = pred
            else:
                check(pred == preds[decoder][i], f"extract: {s.id} {decoder} differs between passes")

        def busy(intervals) -> float:
            return sum(b - a for a, b in intervals)

        for i in range(len(sentences)):
            for decoder in DECODERS:
                decode(i, decoder)
        while True:
            more_gen = budget_s > 0 and (len(t["gen"]) < MIN_REPEATS or busy(t["gen"]) < budget_s)
            more_io = budget_s > 0 and (len(t["save"]) < MIN_REPEATS
                                        or busy(t["save"] + t["load"]) < budget_s)
            more_decode = not past_limit() and min(
                busy(iv for per in calls[d] for iv in per) for d in ("viterbi", "ilp")
            ) < 2 * budget_s
            if not (more_gen or more_io or more_decode):
                break
            if more_gen:
                gen()
            if more_io:
                io(model)
            if more_decode:
                for i in range(len(sentences)):
                    if past_limit():
                        break
                    if calls["viterbi"][i] and calls["ilp"][i]:
                        decode(i, "viterbi")
                        decode(i, "ilp")
        check(len(shas["gen"]) == 1, "gen: repeated runs wrote different datasets")
        check(len(shas["io"]) == 1, "io: repeated saves wrote different files")
        out["dataset_sha"], out["model_sha"] = shas["gen"].pop(), shas["io"].pop()

        phase("eval")
        gold = out["gold"] = [
            {"sentence_id": recs[0]["sentence_id"],
             "events": [ev for r in recs for ev in evaluation.mentions_from_record(r, schemas)["events"]]}
            for recs in self.inputs.test_gold
        ]
        pred = [p for p in preds["ilp_multi"] if p is not None]
        out["scores"] = evaluation.score_all_standards(pred, gold, schemas)
        self.attempted += 1
        return out

    # -- output checks (outside the timed sections) -------------------------
    def check_outputs(self, r: dict) -> None:
        te = self.te
        core, ilp, supervision = te.core, te.ilp, te.supervision
        schemas, records = self.schemas, r["records"]

        roles = sorted(
            supervision.role_label(t, p)
            for t, s in schemas.items() for p in s.key_args | s.nonkey_args
        )
        labels = core.LabelSet(roles)
        for rec in records:
            check(core.bio_wellformed(rec["labels"], labels), f"gen: {rec['sentence_id']} not BIO")
        by_id = {rec["sentence_id"]: rec for rec in records}
        for sid, (event_types, spans) in self.inputs.planted.items():
            rec = by_id.get(sid)
            check(rec is not None and rec["polarity"] == "positive", f"gen: planted {sid} not positive")
            check(rec["event_types"] == event_types, f"gen: {sid} types {rec['event_types']}, not {event_types}")
            for prop, (start, end) in spans.items():
                role = supervision.role_label(event_types[0], prop)
                want = [f"B-{role}"] + [f"I-{role}"] * (end - start - 1)
                check(rec["labels"][start:end] == want, f"gen: {sid} lacks planted {role}")

        for stage in ("stage1", "stage2"):
            for nll in r["history"][stage]["train_nll"]:
                check(math.isfinite(nll), f"train: non-finite {stage} loss")
            saved, loaded = getattr(r["model"], stage), getattr(r["loaded"], stage)
            check(saved.params.keys() == loaded.params.keys(), f"io: {stage} tensor names differ")
            for name, arr in saved.params.items():
                other = loaded.params[name]
                check(arr.shape == other.shape and arr.dtype == other.dtype
                      and arr.tobytes() == other.tobytes(), f"io: {stage} {name} not bit-identical")
            check(saved.cfg == loaded.cfg and saved.label_set == loaded.label_set,
                  f"io: {stage} config differs")

        # Re-decode a sample the way pipeline.stage1 does, and check every
        # sequence with the independent constraint checker.
        tagger = r["loaded"].stage1
        for s in self.sentences[:CHECK_SAMPLE]:
            prob = ilp.DecodeProblem(tagger.emissions(s), tagger.transitions, tagger.label_set, **DECODE)
            best = ilp.ilp_decode(prob)
            multi = ilp.ilp_decode_multi(prob).sequences
            for seq in [best] + multi:
                bad = ilp.check_constraints(seq.tags, tagger.label_set)
                check(not bad, f"extract: {s.id} violates {bad[:1]}")
            scores = [q.score for q in multi]
            check(all(a >= b for a, b in zip(scores, scores[1:])), f"extract: {s.id} scores increase")
            check(scores[0] - scores[-1] <= DECODE["lambda_factor"] * len(s) + 1e-9,
                  f"extract: {s.id} solution beyond lambda * n")
            check(scores[0] == best.score, f"extract: {s.id} ilp and ilp_multi optima differ")

        # ilp_multi must return every feasible sequence within lambda * n,
        # not only the best. On the key tokens of sentences that express two
        # types, restricted to those types' labels, exhaustive search gives
        # the full list.
        doubles = [(s, keys) for s, keys in zip(self.sentences, self.inputs.test_keys) if len(keys) > 1]
        several = 0
        for s, keys in doubles[:CHECK_SAMPLE]:
            prob = key_subproblem(core, ilp, tagger, s, keys)
            got = ilp.ilp_decode_multi(prob)
            ranking = ilp.brute_force_decode(prob, ranking=True)
            gap = prob.lambda_factor * prob.n
            near = [q for q in ranking if ranking[0].score - q.score <= gap]
            want = near[:DECODE["max_solutions"]]
            check([q.tags for q in got.sequences] == [q.tags for q in want]
                  and got.truncated == (len(near) > len(want)),
                  f"extract: {s.id} ilp_multi returned {len(got.sequences)} of the "
                  f"{len(want)} sequences within lambda * n of a key-token sub-problem")
            several += len(want) > 1
        print(f"perfbench: k-best completeness checked on {min(len(doubles), CHECK_SAMPLE)} "
              f"sub-problems, {several} with two or more sequences")

        for key in ("key_argument_detection", "all_argument_detection"):
            f1 = r["scores"][key]["f1"]
            check(0.0 < f1 <= 1.0, f"eval: {key} F1 {f1} out of (0, 1]")

    @staticmethod
    def fingerprint(r: dict) -> str:
        """Digest of every output of a pass; traced and untraced must agree."""
        payload = {k: r[k] for k in ("dataset_sha", "model_sha", "history", "preds", "scores")}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def key_subproblem(core, ilp, tagger, sentence, keys: dict):
    """The decoding problem on a sentence's first key tokens and its types' labels.

    Keeps the first two tokens of each key span (the B- and the first I-
    position), BRUTE_TOKENS in all, and the labels of the given event
    types, so that exhaustive search stays small. The gap lambda * n is
    the whole sentence's, so that as many solutions fall within it.
    """
    labels = tagger.label_set
    groups = {t: labels.groups[t] for t in keys}
    roles = [role for role in labels.roles if any(role in g for g in groups.values())]
    sub = core.LabelSet(roles, groups)
    cols = [labels.index(tag) for tag in sub.labels]
    spans = next(iter(keys.values()))
    rows = sorted({i for start, end in spans for i in range(start, min(end, start + 2))})[:BRUTE_TOKENS]
    P = tagger.emissions(sentence)[rows][:, cols]
    A = tagger.transitions[np.ix_(cols, cols)]
    scale = len(sentence) / len(rows)
    return ilp.DecodeProblem(P, A, sub, lambda_factor=DECODE["lambda_factor"] * scale,
                             max_solutions=DECODE["max_solutions"])


def end_to_end(bench: Bench, r: dict, setup: list, dur) -> dict:
    """Metrics from the measured pass; `dur` turns a wall interval into seconds."""
    med = statistics.median
    t = r["t"]
    # A sentence whose decoding never started is failed and left out.
    per_sentence = {
        d: [med(dur(iv) for iv in per) for per in t["decode"][d] if per] for d in DECODERS
    }
    m = {
        "setup_s": (med(dur(iv) for iv in setup), "s"),
        "peak_rss_mb": (r["rss_mb"], "MB"),
        "ok_share": ((bench.attempted - bench.failed) / bench.attempted, "share"),
        "gen_sent_per_s": (r["n_gen"] / med(dur(iv) for iv in t["gen"]), "sent/s"),
        "train_tok_per_s": (r["train_tokens"] / dur(t["train"][0]), "tok/s"),
        "train_nll": (train_nll(r["history"]), "nats"),
        "model_save_s": (med(dur(iv) for iv in t["save"]), "s"),
        "model_load_s": (med(dur(iv) for iv in t["load"]), "s"),
        "viterbi_sent_per_s": (len(per_sentence["viterbi"]) / sum(per_sentence["viterbi"]), "sent/s"),
        "ilp_sent_per_s": (len(per_sentence["ilp"]) / sum(per_sentence["ilp"]), "sent/s"),
        "multi_sent_per_s": (len(per_sentence["ilp_multi"]) / sum(per_sentence["ilp_multi"]), "sent/s"),
        "multi_p90_ms": (1e3 * percentile(per_sentence["ilp_multi"], TAIL_PCT), "ms"),
        "f1_key_args": (r["scores"]["key_argument_detection"]["f1"], "share"),
        "f1_all_args": (r["scores"]["all_argument_detection"]["f1"], "share"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(S, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from a spans.Summary. `.s` is inclusive span time."""

    def per_tok(name):
        return 1e6 * S.total[name] / S.value[name] if S.value[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def pct_ms(name, pct):
        durs = S.durations[name]
        return 1e3 * percentile(durs, pct) if durs else 0.0

    multi = [s for s in S.spans if S.names[s[0]] == "ilp.ilp_decode_multi"]
    solutions = sum(int(s[6]) for s in multi)
    truncated = sum(1 for s in multi if s[6] % 1)
    restarts = S.calls_under("ilp.transition_lattice", "ilp.ilp_decode_multi")
    pairs = S.calls["supervision.find_role_spans"]
    m = {
        "supervision.find_role_spans.calls": (pairs, "count"),
        "supervision.find_role_spans.self_s": (S.self_time["supervision.find_role_spans"], "s"),
        "supervision.label_sentence.calls": (S.calls["supervision.label_sentence"], "count"),
        "supervision.label_sentence.self_s": (S.self_time["supervision.label_sentence"], "s"),
        "supervision.dep_distance.calls": (S.calls["supervision.dep_distance"], "count"),
        "supervision.dep_distance.self_s": (S.self_time["supervision.dep_distance"], "s"),
        "supervision.validate_sentence.calls": (
            S.calls_under("core.validate_sentence", "supervision."), "count"),
        "supervision.generate_dataset.self_s": (S.self_time["supervision.generate_dataset"], "s"),
        "supervision.useful_ratio": (ratio(S.value["supervision.label_sentence"], pairs), "share"),
        "core.read_corpus.s": (S.total["core.read_corpus"], "s"),
        "core.write_jsonl.s": (S.total["core.write_jsonl"], "s"),
        "neural.forward.us_per_tok": (per_tok("neural.forward"), "us/tok"),
        "neural.backward.us_per_tok": (per_tok("neural.backward"), "us/tok"),
        "neural.sgd_step.s": (S.total["neural.sgd_step"], "s"),
        "neural.sgd_step.calls": (S.calls["neural.sgd_step"], "count"),
        "neural.sgd_step.params_per_call": (
            ratio(S.value["neural.sgd_step"], S.calls["neural.sgd_step"]), "count"),
        "neural.tensors_to_dict.s": (S.total["neural.tensors_to_dict"], "s"),
        "neural.tensors_from_dict.s": (S.total["neural.tensors_from_dict"], "s"),
        "crf.nll_loss_and_grads.s": (S.total["crf.nll_loss_and_grads"], "s"),
        "crf.nll_loss_and_grads.calls": (S.calls["crf.nll_loss_and_grads"], "count"),
        "crf.viterbi.s": (S.total["crf.viterbi"], "s"),
        "crf.viterbi.calls": (S.calls["crf.viterbi"], "count"),
        "crf.seq_score.calls": (S.calls_under("crf.seq_score", "ilp."), "count"),
        "ilp.ilp_decode.s": (S.total["ilp.ilp_decode"], "s"),
        "ilp.ilp_decode.p50_ms": (pct_ms("ilp.ilp_decode", 50), "ms"),
        "ilp.ilp_decode.p99_ms": (pct_ms("ilp.ilp_decode", 99), "ms"),
        "ilp.ilp_decode_multi.s": (S.total["ilp.ilp_decode_multi"], "s"),
        "ilp.ilp_decode_multi.p50_ms": (pct_ms("ilp.ilp_decode_multi", 50), "ms"),
        "ilp.transition_lattice.calls": (S.calls["ilp.transition_lattice"], "count"),
        "ilp.solutions_per_sentence": (ratio(solutions, len(multi)), "count"),
        "ilp.truncated_share": (ratio(truncated, len(multi)), "share"),
        "ilp.solutions_per_restart": (ratio(solutions, restarts), "share"),
        "pipeline.train_pipeline.s": (S.total["pipeline.train_pipeline"], "s"),
        "evaluation.score_all_standards.s": (S.total["evaluation.score_all_standards"], "s"),
        "evaluation.mentions_from_record.s": (S.total["evaluation.mentions_from_record"], "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "share"),
    }
    for decoder in DECODERS:
        for stage in ("stage1", "stage2"):
            m[f"pipeline.{stage}.{decoder}.s"] = (
                S.total_in_phase(f"pipeline.{stage}", f"extract.{decoder}"), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tabevent" / "__init__.py").is_file():
        print(f"perfbench: no tabevent package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tabevent.core
    import tabevent.crf
    import tabevent.evaluation
    import tabevent.ilp
    import tabevent.neural
    import tabevent.pipeline
    import tabevent.supervision
    import tabevent as te

    signal.signal(signal.SIGALRM, _on_alarm)
    bench = Bench(args.workload, args.seed, te)
    clock = hostclock.HostClock()
    clock.start()
    setup = bench.setup(clock.sample)
    print(f"perfbench: {args.workload} seed {args.seed} inputs sha256 {bench.inputs_sha} "
          f"blas_threads {BLAS_THREADS}")

    budget = 0.0 if args.trace else args.seconds / 10.0
    t0 = time.perf_counter()
    result = bench.measure(budget)
    untraced = (t0, time.perf_counter())
    passes = [result]
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install([te.core, te.supervision, te.neural, te.crf, te.ilp, te.pipeline, te.evaluation])
        t0 = time.perf_counter()
        try:
            passes.append(bench.measure(budget, tracer))
        finally:
            tracer.uninstall()
        traced = (t0, time.perf_counter())
        tracer.save(bench.work / "spans.npz")
    clock.stop()

    try:
        bench.check_outputs(result)
        check(len({Bench.fingerprint(r) for r in passes}) == 1, "traced outputs differ from untraced")
        correct = True
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    for decoder, error in sorted(bench.errors.items()):
        print(f"perfbench: first failed {decoder} decode: {error}", file=sys.stderr)

    f1 = {d: te.evaluation.score_key_args([p for p in result["preds"][d] if p is not None],
                                          result["gold"], bench.schemas)["f1"] for d in DECODERS}
    print("perfbench: key-argument F1 by decoder " + ", ".join(f"{d} {v:.4f}" for d, v in f1.items()))
    print(f"perfbench: dataset sha256 {result['dataset_sha']} model sha256 {result['model_sha']}")
    print(f"perfbench: stage-1 train nll by epoch {result['history']['stage1']['train_nll']}")
    print(f"perfbench: peak rss with decoding "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    if args.trace:
        metrics = per_layer(tracer.summary(), clock.scaled(*untraced), clock.scaled(*traced))
        for name, mv in metrics.items():
            print(f"perfbench: {name} = {mv['value']:.6g} {mv['unit']}")
    else:
        raw = end_to_end(bench, result, setup, lambda iv: iv[1] - iv[0])
        metrics = end_to_end(bench, result, setup, lambda iv: clock.scaled(*iv))
        for name, mv in metrics.items():
            print(f"perfbench: {name} = {mv['value']:.6g} {mv['unit']} (raw {raw[name]['value']:.6g})")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
