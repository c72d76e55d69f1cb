"""Shared domain types: sentences, event tables, label sets, mentions.

Everything here is immutable after construction so values can be shared
freely between parallel workers.
"""

from __future__ import annotations

import contextlib
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TextIO

OUTSIDE = "O"


def normalize_surface(surface: str) -> str:
    """Case-fold and collapse internal whitespace. No stemming.

    A surface already in normal form is returned itself, so a sentence holds
    one string for both forms of such a token.
    """
    norm = " ".join(surface.casefold().split())
    return surface if norm == surface else norm


@dataclass(frozen=True)
class ParsedSentence:
    """A tokenized sentence with a dependency tree (root head = -1).

    A token is known by its position: `surfaces` holds the tokens as
    written and `normalized` their normalize_surface forms, computed once.
    """

    id: str
    surfaces: tuple[str, ...]
    dep_head: tuple[int, ...]
    normalized: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "normalized", tuple(map(normalize_surface, self.surfaces)))

    @classmethod
    def build(cls, sentence_id: str, surfaces: Sequence[str], dep_head: Sequence[int]) -> "ParsedSentence":
        return cls(id=sentence_id, surfaces=tuple(surfaces), dep_head=tuple(map(int, dep_head)))

    def __len__(self) -> int:
        return len(self.surfaces)

    def to_dict(self) -> dict:
        return {"id": self.id, "tokens": list(self.surfaces), "dep_head": list(self.dep_head)}

    @classmethod
    def from_dict(cls, rec: Mapping) -> "ParsedSentence":
        """The sentence of a corpus record. A `dep_label` is checked, one string per token,
        and not kept: nothing reads it."""
        sentence_id = _json_str(rec["id"], "'id'")
        tokens = _json_strs(rec["tokens"], "'tokens'")
        heads = _json_list(rec["dep_head"], "'dep_head'")
        labels = rec.get("dep_label")
        if not tokens:
            raise ValueError("'tokens' is empty")
        if not all(type(h) is int for h in heads):
            raise ValueError("'dep_head' needs a list of integers")
        if labels is not None and len(_json_strs(labels, "'dep_label'")) != len(tokens):
            raise ValueError(f"'dep_label' has {len(labels)} entries for {len(tokens)} tokens")
        return cls.build(sentence_id, tokens, heads)


def validate_sentence(s: ParsedSentence) -> list[str]:
    """Return a list of invariant violations; empty means the tree is valid.

    Diagnostics are returned, never raised. One violation is reported per
    defect (a cycle is a single violation naming its members).
    """
    violations: list[str] = []
    n = len(s)
    if len(s.dep_head) != n:
        violations.append(
            f"length: dep_head has {len(s.dep_head)} entries for {n} tokens"
        )
        return violations

    roots = [i for i, h in enumerate(s.dep_head) if h == -1]
    if len(roots) != 1:
        violations.append(f"root: expected exactly one root, found tokens {roots}")
    for i, h in enumerate(s.dep_head):
        if h < -1 or h >= n:
            violations.append(f"head: token {i} has out-of-range head {h}")

    # Walk each token towards the root, marking the tokens with the walk's
    # start, until the walk leaves the sentence or meets a marked token. A
    # walk that meets its own marks has found a new cycle, reported once with
    # all of its members.
    heads = s.dep_head
    walk = [-1] * n
    for start in range(n):
        cur = start
        while 0 <= cur < n and walk[cur] == -1:
            walk[cur] = start
            cur = heads[cur]
        if 0 <= cur < n and walk[cur] == start:
            members = [cur]
            while heads[members[-1]] != cur:
                members.append(heads[members[-1]])
            violations.append(f"cycle: tokens {sorted(members)} form a dependency cycle")
    return violations


def _json_list(value, what: str) -> list:
    """`value` if it is a list, else an error naming `what`: a string is not a list of forms."""
    if not isinstance(value, list):
        raise ValueError(f"{what} needs a list, got {type(value).__name__}")
    return value


def _json_strs(value, what: str) -> list:
    """`value` if it is a list of JSON strings, else an error naming `what`."""
    if not all(isinstance(x, str) for x in _json_list(value, what)):
        raise ValueError(f"{what} needs a list of strings")
    return value


def _json_object(value, what: str) -> Mapping:
    """`value` if it is a JSON object, else an error naming `what`."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} needs an object, got {type(value).__name__}")
    return value


def _json_str(value, what: str) -> str:
    """`value` if it is a JSON string, else an error naming `what`."""
    if not isinstance(value, str):
        raise ValueError(f"{what} needs a string, got {type(value).__name__}")
    return value


def _json_int(value, what: str) -> int:
    """`value` if it is a JSON integer, else an error naming `what`."""
    if type(value) is not int:
        raise ValueError(f"{what} needs an integer, got {type(value).__name__}")
    return value


def _json_float(value, what: str) -> float:
    """`value` as a float if it is a JSON number, else an error naming `what`."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} needs a number, got {type(value).__name__}")
    return float(value)


@dataclass(frozen=True)
class TableEntry:
    """One row of an event table: property name -> surface forms."""

    id: str
    values: Mapping[str, tuple[str, ...]]

    def to_dict(self) -> dict:
        return {"id": self.id, "values": {p: list(v) for p, v in self.values.items()}}

    @classmethod
    def from_dict(cls, rec: Mapping, where: str) -> "TableEntry":
        """The entry of a table record; each error starts with `where`, which names the entry."""
        if not isinstance(rec, Mapping):
            raise ValueError(f"{where} is not an object: {type(rec).__name__}")
        try:
            entry_id, raw_values = rec["id"], rec["values"]
        except KeyError as exc:
            raise ValueError(f"{where}: missing field {exc}") from None
        entry_id = _json_str(entry_id, f"{where}: 'id'")
        if not isinstance(raw_values, Mapping):
            raise ValueError(f"{where}: 'values' is not an object")
        values = {}
        for p, v in raw_values.items():
            if not (isinstance(v, list) and all(isinstance(x, str) for x in v)):
                _json_strs(v, f"{where}: property {p!r}")
            values[str(p)] = tuple(v)
        return cls(id=entry_id, values=values)


@dataclass(frozen=True)
class EventTable:
    event_type: str
    properties: tuple[str, ...]
    time_properties: tuple[str, ...]
    entries: tuple[TableEntry, ...]

    def __post_init__(self) -> None:
        properties = set(self.properties)
        if len(properties) != len(self.properties):
            raise ValueError(f"table {self.event_type}: duplicate property names")
        unknown_time = set(self.time_properties) - properties
        if unknown_time:
            raise ValueError(
                f"table {self.event_type}: time_properties {sorted(unknown_time)} "
                "are not listed properties"
            )
        for i, entry in enumerate(self.entries):
            if not properties.issuperset(entry.values):
                raise ValueError(
                    f"table {self.event_type}: entry {i} ({entry.id}) has unknown "
                    f"properties {sorted(set(entry.values) - properties)}"
                )
            for prop, vals in entry.values.items():
                if not vals:
                    raise ValueError(
                        f"table {self.event_type}: entry {i} ({entry.id}) has an empty "
                        f"value list for {prop}"
                    )

    def to_dict(self) -> dict:
        return {
            "event_type": self.event_type,
            "properties": list(self.properties),
            "time_properties": list(self.time_properties),
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, rec: Mapping) -> "EventTable":
        if not isinstance(rec, Mapping):
            raise ValueError(f"table record is not an object: {type(rec).__name__}")
        event_type = _json_str(rec["event_type"], "table record: 'event_type'")
        where = f"table {event_type}"
        properties = _json_strs(rec["properties"], f"{where}: 'properties'")
        time_properties = _json_strs(rec.get("time_properties", []), f"{where}: 'time_properties'")
        entries = _json_list(rec["entries"], f"{where}: 'entries'")
        return cls(
            event_type=event_type,
            properties=tuple(properties),
            time_properties=tuple(time_properties),
            entries=tuple(
                TableEntry.from_dict(entry, f"{where}: entry {i}") for i, entry in enumerate(entries)
            ),
        )


@dataclass(frozen=True)
class EventSchema:
    """Key / non-key partition of a table's properties with importance scores."""

    event_type: str
    key_args: frozenset[str]
    nonkey_args: frozenset[str]
    importance: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.key_args & self.nonkey_args:
            raise ValueError(
                f"schema {self.event_type}: key and non-key arguments overlap"
            )
        if not self.key_args:
            raise ValueError(f"schema {self.event_type}: key argument set is empty")

    def to_dict(self) -> dict:
        imp = {
            p: (None if v == float("-inf") else v)
            for p, v in sorted(self.importance.items())
        }
        return {
            "event_type": self.event_type,
            "key_args": sorted(self.key_args),
            "nonkey_args": sorted(self.nonkey_args),
            "importance": imp,
        }

    @classmethod
    def from_dict(cls, rec: Mapping) -> "EventSchema":
        rec = _json_object(rec, "schema record")
        imp = {
            str(p): (float("-inf") if v is None else _json_float(v, f"importance of {p!r}"))
            for p, v in _json_object(rec["importance"], "'importance'").items()
        }
        return cls(
            event_type=_json_str(rec["event_type"], "schema record: 'event_type'"),
            key_args=frozenset(_json_strs(rec["key_args"], "'key_args'")),
            nonkey_args=frozenset(_json_strs(rec["nonkey_args"], "'nonkey_args'")),
            importance=imp,
        )


class LabelSet:
    """BIO tag inventory plus per-event-type key-argument groups.

    Tag order is O first, then B-role/I-role pairs in the given role order;
    the order fixes tag indices and therefore decoding tie-breaks.
    """

    def __init__(
        self,
        roles: Sequence[str],
        groups: Mapping[str, Iterable[str]] | None = None,
    ):
        self.roles: tuple[str, ...] = tuple(roles)
        if len(set(self.roles)) != len(self.roles):
            raise ValueError("duplicate role names in label set")
        labels = [OUTSIDE]
        for role in self.roles:
            labels.append(f"B-{role}")
            labels.append(f"I-{role}")
        self.labels: tuple[str, ...] = tuple(labels)
        self._index = {tag: i for i, tag in enumerate(self.labels)}
        self.groups: dict[str, frozenset[str]] = {}
        role_set = set(self.roles)
        for event_type, group_roles in sorted((groups or {}).items()):
            rs = frozenset(group_roles)
            missing = rs - role_set
            if missing:
                raise ValueError(
                    f"group {event_type} references unknown roles {sorted(missing)}"
                )
            self.groups[event_type] = rs

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LabelSet)
            and self.roles == other.roles
            and self.groups == other.groups
        )

    def index(self, tag: str) -> int:
        if tag not in self._index:
            raise ValueError(f"unknown tag: {tag!r}")
        return self._index[tag]

    def __contains__(self, tag: str) -> bool:
        return tag in self._index

    @staticmethod
    def role_of(tag: str) -> str | None:
        """Role carried by a B-/I- tag, or None for the outside tag."""
        if tag == OUTSIDE:
            return None
        return tag[2:]

    def to_dict(self) -> dict:
        return {
            "roles": list(self.roles),
            "groups": {t: sorted(rs) for t, rs in sorted(self.groups.items())},
        }

    @classmethod
    def from_dict(cls, rec: Mapping) -> "LabelSet":
        groups = _json_object(rec["groups"], "'groups'")
        return cls(
            _json_strs(rec["roles"], "'roles'"),
            {t: _json_strs(rs, f"group {t!r}") for t, rs in groups.items()},
        )


@dataclass(frozen=True)
class LabelSequence:
    tags: tuple[str, ...]
    score: float | None = None

    def __len__(self) -> int:
        return len(self.tags)


def orphan_insides(tags: Iterable) -> Iterator[int]:
    """Positions of I- tags with no live span of their role (C3), lazily; a non-string is no I- tag."""
    prev = None
    for i, tag in enumerate(tags):
        if isinstance(tag, str) and tag.startswith("I-") and prev not in (f"B-{tag[2:]}", tag):
            yield i
        prev = tag


def bio_wellformed(tags: Sequence[str], label_set: LabelSet) -> bool:
    """True iff no I-role tag starts the sequence or follows a foreign tag; an unknown tag up to the
    first such I- tag raises."""
    if len(tags) == 0:
        raise ValueError("empty tag sequence")
    first = next(orphan_insides(tags), len(tags))
    for tag in tags[: first + 1]:
        if tag not in label_set:
            raise ValueError(f"unknown tag: {tag!r}")
    return first == len(tags)


def spans_from_tags(tags: Sequence[str]) -> list[tuple[str, int, int]]:
    """Extract (role, start, end) spans from BIO tags.

    Tolerant reading: an I-role with no live span of that role opens one, so
    malformed decoder output still yields usable spans.
    """
    spans: list[tuple[str, int, int]] = []
    open_role: str | None = None
    start = 0
    for i, tag in enumerate(tags):
        if tag == OUTSIDE:
            if open_role is not None:
                spans.append((open_role, start, i))
                open_role = None
            continue
        role = tag[2:]
        if tag.startswith("B-") or role != open_role:
            if open_role is not None:
                spans.append((open_role, start, i))
            open_role = role
            start = i
    if open_role is not None:
        spans.append((open_role, start, len(tags)))
    return spans


def tags_from_spans(n: int, spans: Iterable[tuple[str, int, int]]) -> list[str]:
    """BIO tags of length n for disjoint (role, start, end) spans.

    The inverse of spans_from_tags on disjoint spans.
    """
    tags = [OUTSIDE] * n
    for role, start, end in spans:
        tags[start] = f"B-{role}"
        for i in range(start + 1, end):
            tags[i] = f"I-{role}"
    return tags


@dataclass(frozen=True)
class Argument:
    role: str
    start: int
    end: int

    def to_dict(self, surfaces: Sequence[str]) -> dict:
        return {"role": self.role, "span": [self.start, self.end],
                "text": " ".join(surfaces[self.start:self.end])}


@dataclass(frozen=True)
class EventMention:
    """An extracted event; `pipeline.stage2` claims its arguments, one span per role, disjoint."""

    event_type: str
    arguments: tuple[Argument, ...]


# ---------------------------------------------------------------------------
# File formats. Corpus files are JSONL with one sentence per line; table
# files hold either one table object or a list of them. JSONL outputs may
# start with a {"_header": ...} line which readers skip.
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """`path` opened to read as UTF-8; a byte that is not UTF-8 is an error naming `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8: {exc.reason} "
                             f"(byte 0x{exc.object[exc.start]:02x})") from None


def read_jsonl(path: str) -> Iterator[dict]:
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object: {type(rec).__name__}")
            if "_header" in rec:
                continue
            yield rec


def write_jsonl(path: str, records: Iterable[Mapping], header: Mapping | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"_header": dict(header)}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_corpus(path: str) -> list[ParsedSentence]:
    """The corpus's sentences; a sentence id names one record, so a repeated one is an error."""
    sentences = []
    ids: set[str] = set()
    for pos, rec in enumerate(read_jsonl(path)):
        try:
            sentence = ParsedSentence.from_dict(rec)
        except (KeyError, ValueError) as exc:
            name = f"sentence {rec['id']!r}" if isinstance(rec.get("id"), str) else f"record {pos}"
            fault = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}: {name}: {fault}") from None
        if sentence.id in ids:
            raise ValueError(f"{path}: repeated sentence id {sentence.id!r}")
        ids.add(sentence.id)
        sentences.append(sentence)
    return sentences


def read_tables(path: str) -> list[EventTable]:
    with open_text(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(payload, dict):
        payload = [payload]
    tables = []
    for pos, rec in enumerate(_json_list(payload, f"{path}: a tables file")):
        try:
            tables.append(EventTable.from_dict(rec))
        except KeyError as exc:  # a table without its type is named by position
            name = rec["event_type"] if "event_type" in rec else pos
            raise ValueError(f"{path}: table {name}: missing field {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return tables
