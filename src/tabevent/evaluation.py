"""Scoring extraction output against reference events.

Three standards of increasing strictness over (sentence, event) records:
event classification (type present in the sentence), key argument
detection (type plus exact key-argument spans), and all argument detection
(type plus the full argument set, exactly). Span matching is exact
[start, end). Each standard is a key per event, and a predicted event is
correct when it pairs one-to-one with a gold event of the same sentence and
key. Pairs form only between equal keys, so the most pairs a sentence has is
the size of the multiset intersection of its predicted and gold keys; that
count is what is scored. Dataset reports live in `supervision`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence

from .core import Argument, EventSchema, _json_int, _json_list, _json_object, _json_str, spans_from_tags

Event = tuple[str, frozenset[tuple[str, tuple[int, int]]]]


def _prf(correct: int, predicted: int, gold: int) -> dict:
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


def _argument(arg, at: str) -> tuple[str, tuple[int, int]]:
    arg = _json_object(arg, f"{at}: argument")
    role = _json_str(arg.get("role"), f"{at}: 'role'")
    span = _json_list(arg.get("span"), f"{at}: 'span'")
    if len(span) != 2:
        raise ValueError(f"{at}: 'span' needs [start, end], got {len(span)} values")
    return role, (_json_int(span[0], f"{at}: 'span'"), _json_int(span[1], f"{at}: 'span'"))


def _events_by_sentence(records: Iterable[Mapping], where: str) -> dict[str, list[Event]]:
    """Each record's events as (type, {(role, (start, end))}), keyed by sentence id.

    An error names `where`, the record (its sentence id, or its position when
    the id is bad) and the field.
    """
    events: dict[str, list[Event]] = {}
    for pos, rec in enumerate(records):
        rec = _json_object(rec, f"{where}: record {pos}")
        sid = _json_str(rec.get("sentence_id"), f"{where}: record {pos}: 'sentence_id'")
        at = f"{where}: record {sid!r}"
        if sid in events:
            raise ValueError(f"{where}: duplicate record for sentence {sid!r}")
        events[sid] = []
        for ev in _json_list(rec.get("events"), f"{at}: 'events'"):
            ev = _json_object(ev, f"{at}: event")
            event_type = _json_str(ev.get("event_type"), f"{at}: 'event_type'")
            arguments = _json_list(ev.get("arguments", []), f"{at}: 'arguments'")
            events[sid].append((event_type, frozenset(_argument(a, at) for a in arguments)))
    return events


Keys = Callable[[list[Event]], Iterable[tuple[str, object]]]


def _standards(schemas: Mapping[str, EventSchema]) -> dict[str, Keys]:
    """Each standard's (type, key) of a sentence's events; a key of None never pairs."""

    def key_args(events: list[Event]) -> list[tuple[str, object]]:
        return [
            (t, frozenset(a for a in args if a[0] in schemas[t].key_args) if t in schemas else None)
            for t, args in events
        ]

    return {
        "event_classification": lambda events: {(t, ()) for t, _ in events},  # each type once
        "key_argument_detection": key_args,
        "all_argument_detection": lambda events: events,
    }


def _count(pred: Mapping[str, list[Event]], gold: Mapping[str, list[Event]], keys: Keys) -> dict:
    """Overall and per-type scores; per sentence, the correct events are `pred keys & gold keys`."""
    counts: dict[str, list[int]] = {}  # type -> [correct, predicted, gold]
    for sid, gold_events in gold.items():
        p, g = Counter(keys(pred.get(sid, []))), Counter(keys(gold_events))
        for col, counter in enumerate((p & g, p, g)):
            for (event_type, key), n in counter.items():
                if col or key is not None:
                    counts.setdefault(event_type, [0, 0, 0])[col] += n
    out = _prf(*(sum(c[col] for c in counts.values()) for col in range(3)))
    out["per_type"] = {t: _prf(*c) for t, c in sorted(counts.items())}
    return out


def score_all_standards(
    pred: Iterable[Mapping],
    gold: Iterable[Mapping],
    schemas: Mapping[str, EventSchema],
    where: tuple[str, str] = ("predictions", "gold"),
) -> dict:
    """The scores of each standard, keyed by its name.

    Every predicted sentence must be a gold one; an input error names its side by `where`.
    """
    pred_events, gold_events = _events_by_sentence(pred, where[0]), _events_by_sentence(gold, where[1])
    stray = sorted(pred_events.keys() - gold_events.keys())
    if stray:
        raise ValueError(f"{where[0]}: predictions for sentences absent from the gold set: {stray[:5]}")
    return {name: _count(pred_events, gold_events, keys) for name, keys in _standards(schemas).items()}


def score_key_args(
    pred: Sequence[Mapping],
    gold: Sequence[Mapping],
    schemas: Mapping[str, EventSchema],
) -> dict:
    """Correct iff the type matches and all key-argument spans match exactly.

    An event of a type without a schema is never correct.
    """
    return score_all_standards(pred, gold, schemas)["key_argument_detection"]


def mentions_from_record(rec: Mapping, schemas: Mapping[str, EventSchema]) -> dict:
    """Convert a generated dataset record, one that `supervision.check_dataset` accepts, to an
    extraction-shaped record.

    As in training, a tag whose role is not qualified by an event type of
    the record belongs to no event.
    """
    events = []
    tokens = rec["tokens"]
    spans = spans_from_tags(rec["labels"])
    for event_type in sorted(rec.get("event_types", [])):
        arguments = []
        for role, start, end in spans:
            role_type, _, prop = role.rpartition(":")
            if role_type == event_type:
                arguments.append(Argument(prop, start, end).to_dict(tokens))
        events.append({"event_type": event_type, "arguments": arguments})
    return {"sentence_id": rec["sentence_id"], "events": events}
