"""Seeded input generator for the tabevent benchmark.

`build(shape, seed)` makes a workload's inputs; `write_inputs` writes the
files the program reads. The same (shape, seed) gives byte-identical files.
Nothing here imports tabevent: the program receives only those files.

Two parts, drawn from two random streams:

  fixed   (FIXED_SEED, the shape alone) event tables, alias map and the
          training dataset: gold-labelled sentences, in the dataset format
          `tabevent gen` writes. The tagger trained on it is the same in
          every run of a workload: the cost of the constrained decoder
          depends on the trained weights, and retrained per seed it moved
          ilp_multi throughput 2.4x on identical code.
  seeded  (--seed) the corpus `gen` labels and the held-out corpus that is
          decoded, with their gold. Held-out sentences use only padding
          words and entity surfaces the training sentences use, and only
          entries a training sentence expresses as an event, so the tagger
          has seen every word.

Each event type k has four properties: `a_k`, `b_k`, `c_k` (type-specific
entity slots) and the shared `date`. With tabevent's default key-argument
selection (top half by importance, then the best time property), the key
roles are `a_k`, `b_k` and `date`; `c_k` is the non-key role.

Types are paired, (0, 1), (2, 3), ...: the first SHARED entries of the
second table of a pair repeat the `a`, `b` and `date` values of the first
table's, so one sentence about such an entry expresses both types on the
same spans. One label sequence can carry the roles of only one of them, so
only the k-best decoder (ilp_multi) can report both.

Sentence families (the training and gen corpora use MIX, the held-out
corpus TEST_MIX):
  true      all four arguments hang off the type's verb (key heads 2 hops
            apart);
  double    a shared entry's keys off the pair's verb, no `c`: gen labels
            the first type's roles and lists both types; a training record
            carries the roles of either type, drawn at random, so that the
            tagger scores both readings alike;
  near      the two entity keys without a date (a partial match);
  distant   every key, but `a` buried under a genitive (3 hops: too far);
  filler    padding words only.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

FIXED_SEED = 0
CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
MONTHS = ["January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]
YEARS = [str(y) for y in range(1990, 2020)]
VERBS = ["joined", "won", "founded", "acquired", "visited", "signed",
         "opened", "launched"]
PAIR_VERBS = ["merged", "partnered", "settled", "united"]
NEAR_VERBS = ["met", "praised", "called", "thanked", "greeted", "quoted",
              "named", "watched"]
PREPS = ["as", "at", "with", "for", "near", "under", "through", "behind"]
COMMON = ("the a new old small large quiet busy early late several many "
          "officials said report city council market river road bridge "
          "museum harbor station school garden tower office week month "
          "morning evening today again still also then there here quickly "
          "slowly openly briefly widely locally").split()
FAMILIES = ("true", "double", "near", "distant", "filler")
MIX = (0.3, 0.1, 0.25, 0.15, 0.2)       # training and gen: the test suite's mix, a quarter of true made double
TEST_MIX = (0.5, 0.2, 0.1, 0.1, 0.1)    # held-out: more events to score; negatives cost ilp_multi most
SHARED = 2                              # entries per pair of tables that both tables hold


@dataclass(frozen=True)
class Shape:
    """Input properties the benchmark varies between workloads."""

    types: int            # event types (tables), 3 key roles each
    entries: int          # entries per table
    alias_share: float    # share of entity values that have aliases
    aliases_per_value: int
    names: int            # distinct words entity names are drawn from
    words: int            # distinct pseudo-words padding draws from, beside COMMON
    length: int           # minimum tokens per training and gen sentence
    test_length: int      # minimum tokens per held-out sentence
    train_sentences: int  # training dataset size
    gen_sentences: int    # gen corpus size
    test_sentences: int   # held-out corpus size


@dataclass
class Inputs:
    tables: list[dict]
    aliases: list[tuple[str, str]]
    train_dataset: list[dict]
    gen_corpus: list[dict]
    test_corpus: list[dict]
    # Per held-out sentence, one dataset-shaped gold record per event type
    # it expresses (one negative record if none), and its key spans by type.
    test_gold: list[list[dict]]
    test_keys: list[dict[str, list[tuple[int, int]]]]
    # gen sentence id -> (event types, key spans of the first by property)
    planted: dict[str, tuple[list[str], dict[str, tuple[int, int]]]]


def _words(rng: random.Random, count: int) -> list[str]:
    """`count` distinct capitalised pseudo-words."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        n_syl = rng.choice((2, 2, 3))
        w = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n_syl))
        if w not in seen:
            seen.add(w)
            out.append(w.capitalize())
    return out


def _phrase(tokens: list[str], heads: list[int], words: list[str], attach: int) -> int:
    """Append a flat phrase whose first token is its head; returns that index."""
    start = len(tokens)
    for k, w in enumerate(words):
        tokens.append(w)
        heads.append(attach if k == 0 else start)
    return start


def _prop(slot: str, k: int) -> str:
    return slot if slot == "date" else f"{slot}_{k}"


def _record(sid: str, tokens: list[str], spans: dict, labelled: int | None, types: list[int]) -> dict:
    """A dataset record whose labels carry type `labelled`'s roles."""
    labels = ["O"] * len(tokens)
    if labelled is not None:
        for slot, (s, e) in spans.items():
            role = f"ev{labelled}:{_prop(slot, labelled)}"
            labels[s] = f"B-{role}"
            for t in range(s + 1, e):
                labels[t] = f"I-{role}"
    return {
        "sentence_id": sid,
        "tokens": tokens,
        "labels": labels,
        "event_types": [f"ev{k}" for k in types],
        "polarity": "positive" if types else "negative",
    }


def build(shape: Shape, seed: int) -> Inputs:
    if shape.types > len(VERBS) or shape.types < 2:
        raise ValueError(f"2 to {len(VERBS)} event types")
    if shape.entries <= SHARED:
        raise ValueError(f"more than {SHARED} entries per table")
    rng = random.Random(FIXED_SEED)
    names = _words(rng, shape.names)
    pad_words = COMMON + [w.lower() for w in _words(rng, shape.words)]
    used: set[str] = set()
    pairs = [(k, k + 1) for k in range(0, shape.types - 1, 2)]

    def fresh(n_tokens: int) -> str:
        while True:
            value = " ".join(rng.choice(names) for _ in range(n_tokens))
            if value not in used:
                used.add(value)
                return value

    tables: list[dict] = []
    entries: list[list[dict]] = []
    for k in range(shape.types):
        rows = []
        for e in range(shape.entries):
            if e < SHARED and k % 2 == 1:
                first = entries[k - 1][e]
                a, b, date = first[f"a_{k - 1}"], first[f"b_{k - 1}"], first["date"]
            else:
                a, b, date = fresh(2), fresh(2), f"{rng.choice(MONTHS)} {rng.choice(YEARS)}"
            rows.append({f"a_{k}": a, f"b_{k}": b, f"c_{k}": fresh(rng.choice((1, 2))), "date": date})
        entries.append(rows)
        tables.append({
            "event_type": f"ev{k}",
            "properties": [f"a_{k}", f"b_{k}", f"c_{k}", "date"],
            "time_properties": ["date"],
            "entries": [
                {"id": f"ev{k}-{e}", "values": {p: [v] for p, v in row.items()}}
                for e, row in enumerate(rows)
            ],
        })

    # Aliases redirect fresh surfaces to entity values, as Wikipedia
    # redirects do; a share of the values gets some.
    alias_of: dict[str, list[str]] = {}
    aliases: list[tuple[str, str]] = []
    for rows in entries:
        for row in rows:
            for prop, value in row.items():
                if prop == "date" or value in alias_of or rng.random() >= shape.alias_share:
                    continue
                for _ in range(shape.aliases_per_value):
                    surface = fresh(rng.choice((1, 2)))
                    alias_of.setdefault(value, []).append(surface)
                    aliases.append((surface, value))

    expressed: dict[str, list[tuple[int, int]]] = {"true": [], "double": []}  # training events
    padded: list[str] = []                  # padding words of training sentences
    written: dict[str, list[str]] = {}      # value -> surfaces training sentences use

    # mode is "train" (records what it writes), "gen", or "test" (writes
    # only what training recorded).
    def surface_of(value: str, mode: str) -> list[str]:
        if mode == "test":
            surface = rng.choice(written[value])
        elif value in alias_of and rng.random() < 0.5:
            surface = rng.choice(alias_of[value])
        else:
            surface = value
        if mode == "train":
            written.setdefault(value, []).append(surface)
        return surface.split()

    def pad_word(mode: str) -> str:
        word = rng.choice(padded if mode == "test" else pad_words)
        if mode == "train":
            padded.append(word)
        return word

    def sentence(family: str, mode: str, length: int):
        """Tokens, heads, event types expressed and role spans by slot."""
        tokens: list[str] = []
        heads: list[int] = []
        spans: dict[str, tuple[int, int]] = {}
        types: list[int] = []
        if family == "filler":
            tokens += [pad_word(mode) for _ in range(3)]
            heads += [1, -1, 1]
            verb = 1
        else:
            pool = "double" if family == "double" else "true"
            if mode == "test":
                k, e = rng.choice(expressed[pool])
            elif family == "double":
                k, e = rng.choice(pairs)[0], rng.randrange(SHARED)
            else:
                k, e = rng.randrange(shape.types), rng.randrange(SHARED, shape.entries)
            if mode == "train" and family in expressed:
                expressed[family].append((k, e))
            row = entries[k][e]
            if family == "distant":
                tokens += ["The", "cousin", "of"]
                heads += [1, -2, -2]
                a0 = _phrase(tokens, heads, surface_of(row[f"a_{k}"], mode), 1)
                heads[2] = a0
                spans["a"] = (a0, len(tokens))
                verb = len(tokens)
                tokens.append(VERBS[k])
                heads.append(-1)
                heads[1] = verb
            else:
                a0 = _phrase(tokens, heads, surface_of(row[f"a_{k}"], mode), -2)
                spans["a"] = (a0, len(tokens))
                verb = len(tokens)
                tokens.append({"true": VERBS[k], "double": PAIR_VERBS[k // 2]}.get(family, NEAR_VERBS[k]))
                heads.append(-1)
                heads[a0] = verb
            b0 = _phrase(tokens, heads, surface_of(row[f"b_{k}"], mode), verb)
            spans["b"] = (b0, len(tokens))
            if family == "true":
                p = len(tokens)
                tokens.append(PREPS[k])
                heads.append(-2)
                c0 = _phrase(tokens, heads, surface_of(row[f"c_{k}"], mode), verb)
                heads[p] = c0
                spans["c"] = (c0, len(tokens))
            if family != "near":
                p = len(tokens)
                tokens.append("in")
                heads.append(-2)
                d0 = _phrase(tokens, heads, row["date"].split(), verb)
                heads[p] = d0
                spans["date"] = (d0, len(tokens))
            types = {"true": [k], "double": [k, k + 1]}.get(family, [])
        while len(tokens) < length - 1:
            tokens.append(pad_word(mode))
            heads.append(verb)
        tokens.append(".")
        heads.append(verb)
        return tokens, heads, types, spans

    def corpus(prefix: str, n: int, mode: str, length: int, mix=MIX):
        counts = [int(round(share * n)) for share in mix]
        counts[-1] = n - sum(counts[:-1])
        plan = [f for f, c in zip(FAMILIES, counts) for _ in range(c)]
        rng.shuffle(plan)
        sents, records, gold, keys, planted = [], [], [], [], {}
        for i, family in enumerate(plan):
            sid = f"{prefix}{i:05d}"
            tokens, heads, types, spans = sentence(family, mode, length)
            sents.append({"id": sid, "tokens": tokens, "dep_head": heads})
            labelled = rng.choice(types) if types else None
            records.append(_record(sid, tokens, spans, labelled, types))
            gold.append([_record(sid, tokens, spans, k, [k]) for k in types]
                        or [_record(sid, tokens, {}, None, [])])
            key_spans = {s: span for s, span in spans.items() if s != "c"}
            keys.append({f"ev{k}": list(key_spans.values()) for k in types})
            if types:
                planted[sid] = ([f"ev{k}" for k in types],
                                {_prop(s, types[0]): span for s, span in key_spans.items()})
        return sents, records, gold, keys, planted

    _, train_dataset, _, _, _ = corpus("f", shape.train_sentences, "train", shape.length)
    rng = random.Random(seed)
    gen_corpus, _, _, _, planted = corpus("g", shape.gen_sentences, "gen", shape.length)
    test_corpus, _, test_gold, test_keys, _ = corpus(
        "t", shape.test_sentences, "test", shape.test_length, TEST_MIX)
    return Inputs(tables, aliases, train_dataset, gen_corpus, test_corpus, test_gold, test_keys, planted)


def _jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def write_inputs(inputs: Inputs, out_dir: Path) -> str:
    """Write the program's input files; returns the sha256 over all of them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "tables.json": json.dumps(inputs.tables, indent=1) + "\n",
        "aliases.tsv": "".join(f"{s}\t{c}\n" for s, c in inputs.aliases),
        "train_dataset.jsonl": _jsonl(inputs.train_dataset),
        "gen_corpus.jsonl": _jsonl(inputs.gen_corpus),
        "test_corpus.jsonl": _jsonl(inputs.test_corpus),
    }
    digest = hashlib.sha256()
    for name, text in files.items():
        data = text.encode("utf-8")
        digest.update(name.encode() + b"\0" + data)
        (out_dir / name).write_bytes(data)
    return digest.hexdigest()
