"""Automatic training data generation from event tables.

Key-argument selection scores each table property, keeps the top half plus
the best time-related property, and a sentence becomes a positive instance
of an entry when every key argument value (or alias) appears as a token
span and all key spans sit within a bounded dependency distance of each
other. Everything else feeds seeded negative sampling pools. One pass over
each table value's forms (itself, its canonical form and the surfaces that
redirect to it) builds an index keyed by each form's normalized token
sequence; it finds a sentence's matches in one pass over the sentence, so
matching costs what the corpus's tokens hit, not |corpus| x |entries|.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    OUTSIDE,
    EventSchema,
    EventTable,
    ParsedSentence,
    TableEntry,
    _json_str,
    _json_strs,
    normalize_surface,
    open_text,
    read_jsonl,
    tags_from_spans,
    validate_sentence,
    write_jsonl,
)

NEG_INF = float("-inf")

# Fallback used when a table does not flag its time-related properties.
TIME_KEYWORDS = frozenset({"date", "time", "year", "from", "to", "start", "end"})


class Strategy(str, Enum):
    """Key-argument selection policies used for dataset comparisons."""

    ALL = "all"            # every property is a key argument
    IMP = "imp"            # top half by importance score
    IMP_TIME = "imp_time"  # top half plus the best time-related property


@dataclass(frozen=True)
class ImportanceStats:
    count_cvt: Mapping[str, int]
    count_arg: Mapping[str, int]
    count_cvt_arg: Mapping[tuple[str, str], int]


def collect_stats(tables: Sequence[EventTable]) -> ImportanceStats:
    """Entry-level occurrence counts across all tables."""
    count_cvt: dict[str, int] = {}
    count_arg: dict[str, int] = {}
    count_cvt_arg: dict[tuple[str, str], int] = {}
    for table in tables:
        count_cvt[table.event_type] = count_cvt.get(table.event_type, 0) + len(table.entries)
        for entry in table.entries:
            for prop in entry.values:
                count_arg[prop] = count_arg.get(prop, 0) + 1
                key = (table.event_type, prop)
                count_cvt_arg[key] = count_cvt_arg.get(key, 0) + 1
    return ImportanceStats(count_cvt, count_arg, count_cvt_arg)


def importance_score(stats: ImportanceStats, event_type: str, prop: str) -> float:
    """log(count(type, prop) / (count(type) * count(prop))), natural log.

    Returns -inf when the property never occurs with the type. Only the
    ranking matters downstream, so the log base is immaterial.
    """
    n_cvt = stats.count_cvt.get(event_type, 0)
    if n_cvt <= 0:
        raise ValueError(f"count_cvt is zero or missing for event type {event_type!r}")
    n_arg = stats.count_arg.get(prop, 0)
    if n_arg <= 0:
        raise ValueError(f"count_arg is zero or missing for property {prop!r}")
    joint = stats.count_cvt_arg.get((event_type, prop), 0)
    if joint == 0:
        return NEG_INF
    return math.log(joint / (n_cvt * n_arg))


def _by_importance(importance: Mapping[str, float], props: Iterable[str]) -> list[str]:
    """Properties by descending importance score, ties by ascending name."""
    return sorted(props, key=lambda p: (-importance.get(p, NEG_INF), p))


def time_related_properties(table: EventTable) -> list[str]:
    """Properties flagged time-related, else a keyword fallback on names."""
    if table.time_properties:
        return [p for p in table.properties if p in set(table.time_properties)]
    out = []
    for prop in table.properties:
        parts = set(prop.casefold().replace("-", "_").split("_"))
        if parts & TIME_KEYWORDS:
            out.append(prop)
    return out


def select_key_args(
    table: EventTable,
    stats: ImportanceStats,
    strategy: Strategy = Strategy.IMP_TIME,
) -> EventSchema:
    """Partition a table's properties into key and non-key arguments.

    The default policy keeps the ceil(n/2) highest-importance properties and
    adds the single highest-scoring time-related property when one exists.
    Score ties break by ascending property name.
    """
    if not table.properties:
        raise ValueError(f"table {table.event_type} has no properties")
    importance = {
        p: importance_score(stats, table.event_type, p) for p in table.properties
    }
    if strategy == Strategy.ALL:
        key = set(table.properties)
    else:
        ranked = _by_importance(importance, table.properties)
        top = math.ceil(len(table.properties) / 2)
        key = set(ranked[:top])
        if strategy == Strategy.IMP_TIME:
            time_props = time_related_properties(table)
            if time_props:
                key.add(_by_importance(importance, time_props)[0])
    return EventSchema(
        event_type=table.event_type,
        key_args=frozenset(key),
        nonkey_args=frozenset(set(table.properties) - key),
        importance=importance,
    )


def select_schemas(tables: Sequence[EventTable], strategy: Strategy) -> dict[str, EventSchema]:
    """Each table's event schema, keyed by event type; gen, train and eval all use this rule.

    Two tables of one event type are an error, since one of them would be dropped.
    """
    stats = collect_stats(tables)
    schemas: dict[str, EventSchema] = {}
    for table in tables:
        if table.event_type in schemas:
            raise ValueError(f"repeated event type {table.event_type!r}")
        schemas[table.event_type] = select_key_args(table, stats, strategy)
    return schemas


@dataclass
class GenerationConfig:
    """Knobs for matching and negative-sample composition.

    max_dep_distance=None disables the dependency distance rule; the
    negative ratios are counts relative to the number of positive records.
    """

    max_dep_distance: int | None = 2
    partial_negative_ratio: float = 1.0
    violation_negative_ratio: float = 1.0
    alias_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_dep_distance is not None and self.max_dep_distance < 1:
            raise ValueError("max_dep_distance must be at least 1")
        for name in ("partial_negative_ratio", "violation_negative_ratio"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and non-negative")


def role_label(event_type: str, prop: str) -> str:
    """Label-space role name; event types namespace their properties."""
    return f"{event_type}:{prop}"


def split_role(role: str) -> tuple[str, str]:
    event_type, _, prop = role.rpartition(":")
    if not event_type:
        raise ValueError(f"role {role!r} is not event-type qualified")
    return event_type, prop


def read_alias_map(path: str) -> dict[str, str]:
    """Tab-separated surface -> canonical pairs, normalized on load."""
    aliases: dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'surface<TAB>canonical'")
            aliases[normalize_surface(parts[0])] = normalize_surface(parts[1])
    return aliases


def _redirects(alias_map: Mapping[str, str]) -> dict[str, list[str]]:
    """Canonical form -> the surfaces that redirect to it; one pass over the map."""
    inverse: dict[str, list[str]] = {}
    for surface, canonical in alias_map.items():
        inverse.setdefault(canonical, []).append(surface)
    return inverse


def _value_forms(n: str, alias_map: Mapping[str, str],
                 redirects: Mapping[str, list[str]]) -> list[str]:
    """The forms that match the normalized value `n`: itself, its canonical form
    and every surface that redirects to it. The rule is not transitive."""
    forms = [n, alias_map[n]] if n in alias_map else [n]
    forms += redirects.get(n, ())
    return forms


_PatternIndex = dict[tuple[str, ...], list[tuple[int, str]]]


def _pattern_index(
    patterns: Iterable[tuple[int, str, tuple[str, ...]]],
) -> tuple[_PatternIndex, list[int]]:
    """Each (entry position, property) pair filed under its pattern's token tuple, and
    the pattern widths in ascending order. An empty pattern matches nothing."""
    index: _PatternIndex = {}
    for k, prop, tokens in patterns:
        if tokens:
            index.setdefault(tokens, []).append((k, prop))
    return index, sorted({len(key) for key in index})


def _scan(
    norm: tuple[str, ...], index: _PatternIndex, widths: Sequence[int]
) -> dict[int, dict[str, tuple[int, int]]]:
    """One pass over a sentence's normalized tokens: per entry position that matches,
    each property's longest, then leftmost, span.

    Starts run left to right and widths upwards, so a later span replaces a
    kept one only when it is longer.
    """
    found: dict[int, dict[str, tuple[int, int]]] = {}
    n = len(norm)
    for start in range(n):
        for width in widths:
            end = start + width
            if end > n:
                break
            for k, prop in index.get(norm[start:end], ()):
                spans = found.setdefault(k, {})
                kept = spans.get(prop)
                if kept is None or width > kept[1] - kept[0]:
                    spans[prop] = (start, end)
    return found


def span_head(sentence: ParsedSentence, span: tuple[int, int]) -> int:
    """The unique token whose head leaves the span; leftmost as fallback."""
    start, end = span
    if not (0 <= start < end <= len(sentence)):
        raise ValueError(f"span {span} outside sentence {sentence.id}")
    outgoing = [
        i for i in range(start, end)
        if not (start <= sentence.dep_head[i] < end)
    ]
    if len(outgoing) == 1:
        return outgoing[0]
    return start


def _check_parse(sentence: ParsedSentence) -> None:
    violations = validate_sentence(sentence)
    if violations:
        raise ValueError(f"sentence {sentence.id}: {violations[0]}")


def _depth_and_ancestors(sentence: ParsedSentence, node: int) -> list[int]:
    """`node` and its heads up to the root. A walk that leaves the sentence or
    goes round a cycle raises the parse's first violation."""
    chain = [node]
    heads, n = sentence.dep_head, len(sentence)
    cur = heads[node]
    while cur != -1:
        if not 0 <= cur < n or len(chain) == n:
            _check_parse(sentence)
            raise ValueError(f"sentence {sentence.id}: dependency heads contain a cycle")
        chain.append(cur)
        cur = heads[cur]
    return chain


def _common_ancestor(sentence: ParsedSentence, a: int, b: int) -> tuple[int, int]:
    """The lowest common ancestor of tokens a and b, and the hops from a to b through it."""
    depth_a = {node: i for i, node in enumerate(_depth_and_ancestors(sentence, a))}
    for hops_b, node in enumerate(_depth_and_ancestors(sentence, b)):
        if node in depth_a:
            return node, depth_a[node] + hops_b
    _check_parse(sentence)
    raise ValueError(f"sentence {sentence.id}: no common ancestor found")


def dep_distance(sentence: ParsedSentence, span_a: tuple[int, int], span_b: tuple[int, int]) -> int:
    """Minimal hop count between the head tokens of two spans.

    The parse should be one that validate_sentence accepts; a walk that fails
    on it raises the parse's first violation.
    """
    return _common_ancestor(sentence, span_head(sentence, span_a), span_head(sentence, span_b))[1]


def trigger_candidate(
    sentence: ParsedSentence, key_spans: Sequence[tuple[int, int]]
) -> int:
    """Position of the least common ancestor of all key-argument span heads."""
    if not key_spans:
        raise ValueError("need at least one key span")
    heads = [span_head(sentence, span) for span in key_spans]
    lca = heads[0]
    for node in heads[1:]:
        lca = _common_ancestor(sentence, lca, node)[0]
    return lca


@dataclass
class LabeledInstance:
    """One (sentence, entry) labeling outcome."""

    event_type: str
    positive: bool
    reason: str | None = None          # partial | distance | trivial for negatives
    spans: dict[str, tuple[int, int]] = field(default_factory=dict)
    max_key_distance: int | None = None
    diagnostics: list[str] = field(default_factory=list)


def claim_spans(candidates: Iterable[tuple]) -> tuple[list[tuple], list[tuple]]:
    """Walk (name, start, end) spans in order, keeping each whose name is not kept yet and
    whose tokens are free; the one claim rule of labelling, merging and stage 2.

    Returns the kept spans and the dropped spans, both in walk order.
    """
    kept: list[tuple] = []
    dropped: list[tuple] = []
    names: set = set()
    occupied: set[int] = set()
    for name, start, end in candidates:
        tokens = set(range(start, end))
        if name in names or tokens & occupied:
            dropped.append((name, start, end))
            continue
        kept.append((name, start, end))
        names.add(name)
        occupied |= tokens
    return kept, dropped


def label_sentence(
    sentence: ParsedSentence,
    matches: Mapping[str, tuple[int, int]],
    schema: EventSchema,
    cfg: GenerationConfig,
) -> LabeledInstance:
    """Judge a sentence against one entry's matched spans.

    Positive iff all key arguments matched and every key-span pair lies
    within max_dep_distance hops; otherwise a negative with the reason
    recorded. Overlapping spans keep the higher-importance role. The parse is
    not validated up front (generate_dataset checks every parse once), but a
    dependency walk that fails on it raises the parse's first violation.
    """
    kept_spans, dropped = claim_spans(
        (p, *matches[p]) for p in _by_importance(schema.importance, matches)
    )
    diagnostics = [
        f"overlap: dropped {prop} span [{start},{end}) in {sentence.id}"
        for prop, start, end in dropped
    ]
    kept = {prop: (start, end) for prop, start, end in kept_spans}

    if schema.key_args.isdisjoint(matches):
        return LabeledInstance(schema.event_type, False, "trivial", {}, None, diagnostics)
    if not schema.key_args <= kept.keys():
        return LabeledInstance(schema.event_type, False, "partial", {}, None, diagnostics)

    key_spans = [kept[p] for p in sorted(schema.key_args)]
    pairs = itertools.combinations(key_spans, 2)
    max_distance = max((dep_distance(sentence, a, b) for a, b in pairs), default=0)
    if cfg.max_dep_distance is not None and max_distance > cfg.max_dep_distance:
        return LabeledInstance(schema.event_type, False, "distance", {}, max_distance, diagnostics)
    return LabeledInstance(schema.event_type, True, None, kept, max_distance, diagnostics)


def _merge_positive_instances(
    sentence: ParsedSentence,
    instances: list[tuple[str, LabeledInstance]],
    schemas: Mapping[str, EventSchema],
    diagnostics: list[str],
) -> dict:
    """Fold one sentence's (entry id, positive instance) pairs into a single record.

    Span conflicts keep the first span in (event type, entry id) order and are logged; the
    claim name is (entry, role), so entries of one type each keep a span of a role. Shared
    spans stay recoverable per type through the record's event_types list.
    """
    instances = sorted(instances, key=lambda pair: (pair[1].event_type, pair[0]))
    kept, dropped = claim_spans(
        ((k, role_label(inst.event_type, prop)), *inst.spans[prop])
        for k, (_, inst) in enumerate(instances)
        for prop in _by_importance(schemas[inst.event_type].importance, inst.spans)
    )
    diagnostics.extend(
        f"merge-overlap: dropped {role} span [{start},{end}) in {sentence.id}"
        for (_, role), start, end in dropped
    )
    return {
        "sentence_id": sentence.id,
        "tokens": list(sentence.surfaces),
        "labels": tags_from_spans(len(sentence), ((role, s, e) for (_, role), s, e in kept)),
        "event_types": sorted({inst.event_type for _, inst in instances}),
        "polarity": "positive",
    }


def _indexed_matcher(
    tables: Sequence[EventTable], cfg: GenerationConfig
) -> Callable[[ParsedSentence], list[tuple[EventTable, TableEntry, dict[str, tuple[int, int]]]]]:
    """A run's matcher: each entry a sentence matches, with its matched spans.

    Normalizes the alias map (so a map given in code may use any case) and
    inverts it once, then indexes each value's forms (`_value_forms`),
    normalizing the value once, under its (table, entry) position, since
    entry ids need not be unique, and property. A pair may repeat under a
    form that two values share; the scan keeps the first of equal spans, so
    that changes nothing. A sentence is scanned once; the entries with a span
    come back in (table, entry) order. An entry with no span is never
    labelled, which skips only a `trivial` negative without diagnostics.
    """
    alias_map = {normalize_surface(s): normalize_surface(c) for s, c in cfg.alias_map.items()}
    redirects = _redirects(alias_map)
    entries = [(table, entry) for table in tables for entry in table.entries]
    index, widths = _pattern_index(
        (k, prop, tuple(form.split()))
        for k, (_, entry) in enumerate(entries)
        for prop, values in sorted(entry.values.items())
        for value in values
        for form in _value_forms(normalize_surface(value), alias_map, redirects)
    )

    def match(sentence: ParsedSentence) -> list:
        found = _scan(sentence.normalized, index, widths)
        return [(*entries[k], found[k]) for k in sorted(found)]

    return match


def generate_dataset(
    tables: Sequence[EventTable],
    corpus: Sequence[ParsedSentence],
    cfg: GenerationConfig,
    strategy: Strategy = Strategy.IMP_TIME,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Label every sentence against each table entry it matches.

    Each sentence is decided once, into its entry of `outcomes` (corpus
    order): its merged positive record, else its best negative reason
    `(reason, max_key_distance)`, distance before partial before trivial and
    the first in (table, entry) order among equals; ("trivial", None) when
    no entry matched. Emits every positive record, all trivial negatives and
    seeded samples of the partial and distance pools, sized by the config
    ratios relative to the positive count. Returns the records in corpus
    order together with a statistics report.
    """
    seen: set[str] = set()
    for sentence in corpus:
        if sentence.id in seen:
            raise ValueError(f"repeated sentence id {sentence.id!r}")
        seen.add(sentence.id)
        _check_parse(sentence)
    schemas = select_schemas(tables, strategy)
    match = _indexed_matcher(tables, cfg)

    diagnostics: list[str] = []
    outcomes: list[dict | tuple[str, int | None]] = []
    pools: dict[str, list[int]] = {"partial": [], "distance": [], "trivial": []}
    trigger_counts: dict[str, dict[str, int]] = {}
    positive_instances = 0
    reason_rank = {"distance": 0, "partial": 1, "trivial": 2}

    for pos, sentence in enumerate(corpus):
        positives: list[tuple[str, LabeledInstance]] = []
        negatives: list[tuple[str, int | None]] = []
        for table, entry, spans in match(sentence):
            schema = schemas[table.event_type]
            inst = label_sentence(sentence, spans, schema, cfg)
            diagnostics.extend(inst.diagnostics)
            if inst.positive:
                positives.append((entry.id, inst))
                key_spans = [inst.spans[p] for p in sorted(schema.key_args)]
                token = sentence.normalized[trigger_candidate(sentence, key_spans)]
                per_type = trigger_counts.setdefault(table.event_type, {})
                per_type[token] = per_type.get(token, 0) + 1
            else:
                negatives.append((inst.reason, inst.max_key_distance))
        positive_instances += len(positives)
        if positives:
            outcomes.append(_merge_positive_instances(sentence, positives, schemas, diagnostics))
        else:
            best = min(negatives, key=lambda neg: reason_rank[neg[0]], default=("trivial", None))
            pools[best[0]].append(pos)
            outcomes.append(best)

    n_pos = len(outcomes) - sum(map(len, pools.values()))
    rng = random.Random(seed)

    def sample(pool: list[int], ratio: float) -> list[int]:
        return rng.sample(pool, min(len(pool), int(round(ratio * n_pos))))

    partial = sample(pools["partial"], cfg.partial_negative_ratio)
    distance = sample(pools["distance"], cfg.violation_negative_ratio)
    chosen = {*partial, *distance, *pools["trivial"]}

    records: list[dict] = []
    for pos, (sentence, outcome) in enumerate(zip(corpus, outcomes)):
        if isinstance(outcome, dict):
            records.append(outcome)
        elif pos in chosen:
            reason, max_distance = outcome
            rec = {
                "sentence_id": sentence.id,
                "tokens": list(sentence.surfaces),
                "labels": [OUTSIDE] * len(sentence),
                "event_types": [],
                "polarity": "negative",
                "reason": reason,
            }
            if reason == "distance":
                rec["max_key_distance"] = max_distance
            records.append(rec)

    summary = dataset_report(records)
    report = {
        "strategy": strategy.value,
        "seed": seed,
        "sentences": len(corpus),
        "records": len(records),
        "positives": n_pos,
        "positive_instances": positive_instances,
        "negatives": {
            "emitted": len(records) - n_pos,
            "partial": len(partial),
            "distance": len(distance),
            "trivial": len(pools["trivial"]),
            "pool_sizes": {k: len(v) for k, v in pools.items()},
        },
        "positive_percentage": summary["positive_percentage"],
        "events": summary["events"],
        "per_type": summary["per_type"],
        "multi_type_fraction": summary["multi_type_fraction"],
        "arguments_per_event": summary["arguments_per_event"],
        "trigger_candidates": {
            t: [
                {"token": tok, "share": count / sum(counts.values())}
                for tok, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            ]
            for t, counts in sorted(trigger_counts.items())
        },
        "schemas": [schemas[t].to_dict() for t in sorted(schemas)],
        "diagnostics": diagnostics,
    }
    return records, report


def dataset_report(records: Sequence[Mapping], name: str = "dataset") -> dict:
    """Summary statistics of one generated dataset."""
    positives = [r for r in records if r.get("polarity") == "positive"]
    per_type: dict[str, int] = {}
    events = 0
    args = 0
    multi = 0
    for rec in positives:
        types = rec.get("event_types", [])
        if len(types) >= 2:
            multi += 1
        events += len(types)
        for t in types:
            per_type[t] = per_type.get(t, 0) + 1
        args += sum(1 for tag in rec.get("labels", []) if tag.startswith("B-"))
    return {
        "name": name,
        "sentences": len(records),
        "positives": len(positives),
        "positive_percentage": 100.0 * len(positives) / len(records) if records else 0.0,
        "types": len(per_type),
        "per_type": dict(sorted(per_type.items())),
        "events": events,
        "arguments_per_event": args / events if events else 0.0,
        "multi_type_fraction": multi / len(positives) if positives else 0.0,
    }


def read_dataset(path: str) -> list[dict]:
    """The records of the dataset file `path`, checked by `check_dataset`."""
    return check_dataset(list(read_jsonl(path)), path)


def check_dataset(records: list[dict], path: str) -> list[dict]:
    """`records`, read from `path`, if they are dataset records: `sentence_id` is a string,
    `tokens` and `labels` are lists of strings of one length, `event_types`, when present, is
    a list of strings and `polarity` a string. Else an error names `path` and the record."""
    for pos, rec in enumerate(records):
        sid = _json_str(rec.get("sentence_id"), f"{path}: record {pos}: 'sentence_id'")
        where = f"{path}: record {sid!r}"
        for field in ("tokens", "labels"):
            if field not in rec:
                raise ValueError(f"{where} lacks {field!r}")
            _json_strs(rec[field], f"{where}: {field!r}")
        if not rec["tokens"]:
            raise ValueError(f"{where}: 'tokens' is empty")
        if len(rec["labels"]) != len(rec["tokens"]):
            raise ValueError(f"{where}: {len(rec['labels'])} labels for {len(rec['tokens'])} tokens")
        _json_strs(rec.get("event_types", []), f"{where}: 'event_types'")
        _json_str(rec.get("polarity", ""), f"{where}: 'polarity'")
    return records


def write_dataset(path: str, records: Sequence[Mapping], header: Mapping | None = None) -> None:
    write_jsonl(path, records, header=header)
