"""Scoring extraction output against reference events.

Three standards of increasing strictness over (sentence, event) records:
event classification (type present in the sentence), key argument
detection (type plus exact key-argument spans), and all argument detection
(type plus the full argument set, exactly). Span matching is exact
[start, end); multiple events of the same type in one sentence pair up
greedily by maximal argument overlap, one-to-one.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import EventSchema, spans_from_tags
from .supervision import dataset_report, split_role  # dataset_report is re-exported

ArgSet = frozenset[tuple[str, tuple[int, int]]]


def _prf(correct: int, predicted: int, gold: int) -> dict:
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


def _index_records(records: Sequence[Mapping], which: str) -> dict[str, Mapping]:
    indexed: dict[str, Mapping] = {}
    for rec in records:
        sid = rec["sentence_id"]
        if sid in indexed:
            raise ValueError(f"duplicate {which} record for sentence {sid!r}")
        indexed[sid] = rec
    return indexed


def _check_alignment(pred: Sequence[Mapping], gold: Sequence[Mapping]) -> tuple[dict, dict]:
    pred_idx = _index_records(pred, "prediction")
    gold_idx = _index_records(gold, "gold")
    stray = set(pred_idx) - set(gold_idx)
    if stray:
        raise ValueError(
            f"predictions for sentences absent from the gold set: {sorted(stray)[:5]}"
        )
    return pred_idx, gold_idx


def _events_of(rec: Mapping | None) -> list[tuple[str, ArgSet]]:
    if rec is None:
        return []
    events = []
    for ev in rec.get("events", []):
        args = frozenset(
            (a["role"], (int(a["span"][0]), int(a["span"][1])))
            for a in ev.get("arguments", [])
        )
        events.append((str(ev["event_type"]), args))
    return events


def score_event_classification(
    pred: Sequence[Mapping], gold: Sequence[Mapping]
) -> dict:
    """A predicted (sentence, type) pair is correct iff gold has that pair."""
    pred_idx, gold_idx = _check_alignment(pred, gold)
    pred_pairs = {
        (sid, t) for sid, rec in pred_idx.items() for t, _ in _events_of(rec)
    }
    gold_pairs = {
        (sid, t) for sid, rec in gold_idx.items() for t, _ in _events_of(rec)
    }
    types = sorted({t for _, t in pred_pairs | gold_pairs})
    out = _prf(len(pred_pairs & gold_pairs), len(pred_pairs), len(gold_pairs))
    out["per_type"] = {
        t: _prf(
            len({p for p in pred_pairs & gold_pairs if p[1] == t}),
            len({p for p in pred_pairs if p[1] == t}),
            len({p for p in gold_pairs if p[1] == t}),
        )
        for t in types
    }
    return out


def _score_events(
    pred: Sequence[Mapping],
    gold: Sequence[Mapping],
    schemas: Mapping[str, EventSchema],
    keys_only: bool,
) -> dict:
    pred_idx, gold_idx = _check_alignment(pred, gold)

    def matches(ptype: str, pargs: ArgSet, gargs: ArgSet) -> bool:
        if keys_only:
            if ptype not in schemas:
                return False
            # Equality of the key-role restrictions: full-set equality always
            # implies this, which keeps the three standards monotone.
            key_props = schemas[ptype].key_args
            p_keys = {(r, s) for r, s in pargs if r in key_props}
            g_keys = {(r, s) for r, s in gargs if r in key_props}
            return p_keys == g_keys
        return pargs == gargs

    correct = 0
    n_pred = 0
    n_gold = 0
    per_type_counts: dict[str, list[int]] = {}
    for sid in sorted(gold_idx):
        pred_events = sorted(
            _events_of(pred_idx.get(sid)), key=lambda e: (e[0], sorted(e[1]))
        )
        gold_events = _events_of(gold_idx[sid])
        n_pred += len(pred_events)
        n_gold += len(gold_events)
        for t, _ in pred_events:
            per_type_counts.setdefault(t, [0, 0, 0])[1] += 1
        for t, _ in gold_events:
            per_type_counts.setdefault(t, [0, 0, 0])[2] += 1
        matched: set[int] = set()
        for ptype, pargs in pred_events:
            candidates = [
                (len(pargs & gargs), gi)
                for gi, (gtype, gargs) in enumerate(gold_events)
                if gi not in matched and gtype == ptype and matches(ptype, pargs, gargs)
            ]
            if not candidates:
                continue
            overlap, gi = max(candidates, key=lambda c: (c[0], -c[1]))
            matched.add(gi)
            correct += 1
            per_type_counts.setdefault(ptype, [0, 0, 0])[0] += 1

    out = _prf(correct, n_pred, n_gold)
    out["per_type"] = {
        t: _prf(c, p, g) for t, (c, p, g) in sorted(per_type_counts.items())
    }
    return out


def score_key_args(
    pred: Sequence[Mapping],
    gold: Sequence[Mapping],
    schemas: Mapping[str, EventSchema],
) -> dict:
    """Correct iff the type matches and all key-argument spans match exactly."""
    return _score_events(pred, gold, schemas, keys_only=True)


def score_all_args(
    pred: Sequence[Mapping],
    gold: Sequence[Mapping],
    schemas: Mapping[str, EventSchema],
) -> dict:
    """Correct iff the type matches and the full argument sets are equal."""
    return _score_events(pred, gold, schemas, keys_only=False)


def score_all_standards(
    pred: Sequence[Mapping],
    gold: Sequence[Mapping],
    schemas: Mapping[str, EventSchema],
) -> dict:
    return {
        "event_classification": score_event_classification(pred, gold),
        "key_argument_detection": score_key_args(pred, gold, schemas),
        "all_argument_detection": score_all_args(pred, gold, schemas),
    }


def mentions_from_record(rec: Mapping, schemas: Mapping[str, EventSchema]) -> dict:
    """Convert a generated dataset record to an extraction-shaped record."""
    events = []
    tags = list(rec.get("labels", []))
    tokens = list(rec.get("tokens", []))
    spans = spans_from_tags(tags)
    for event_type in sorted(rec.get("event_types", [])):
        arguments = []
        for role, start, end in spans:
            role_type, prop = split_role(role)
            if role_type != event_type:
                continue
            arguments.append(
                {
                    "role": prop,
                    "span": [start, end],
                    "text": " ".join(tokens[start:end]),
                }
            )
        events.append({"event_type": event_type, "arguments": arguments})
    return {"sentence_id": rec["sentence_id"], "events": events}

