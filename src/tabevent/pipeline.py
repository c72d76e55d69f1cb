"""Two-stage extraction: key-argument tagging, then non-key arguments.

Stage 1 tags key roles only and declares an event type when every key role
of that type carries a B- tag. Stage 2 re-tags the sentence with the
stage-1 labels as an extra input feature and fills in non-key arguments;
it never overwrites a stage-1 key span.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import uuid
from dataclasses import dataclass
from typing import BinaryIO, Collection, Mapping, NoReturn, Sequence

import numpy as np

from . import crf, ilp, neural
from .core import (
    OUTSIDE,
    Argument,
    EventMention,
    EventSchema,
    LabelSequence,
    LabelSet,
    ParsedSentence,
    _json_list,
    _json_object,
    normalize_surface,
    spans_from_tags,
)
from .supervision import claim_spans, role_label, split_role

DECODERS = ("viterbi", "ilp", "ilp_multi")


@dataclass
class TaggerModel:
    cfg: neural.ModelConfig
    params: neural.Parameters
    label_set: LabelSet

    def _header(self) -> dict:
        """The stage's part of the header: everything but the tensor data."""
        return {
            "config": self.cfg.to_dict(),
            "label_set": self.label_set.to_dict(),
            "layout": self.params.layout,  # JSON writes its (name, shape) tuples as lists
        }

    @classmethod
    def from_header(cls, rec: Mapping, data: BinaryIO) -> "TaggerModel":
        """The stage whose part of the header is `rec`; its tensors are the next bytes of `data`."""
        rec = _json_object(rec, "stage record")
        cfg = neural.ModelConfig.from_dict(_json_object(rec["config"], "'config'"))
        label_set = LabelSet.from_dict(_json_object(rec["label_set"], "'label_set'"))
        if len(label_set) != cfg.num_labels:
            raise ValueError(f"the label set has {len(label_set)} labels, the network "
                             f"{cfg.num_labels}")
        return cls(cfg, neural.read_flat(data, rec["layout"], cfg), label_set)

    def emissions(
        self, sentence: ParsedSentence, keyarg_ids: Sequence[int] | None = None
    ) -> np.ndarray:
        ids = [self.cfg.token_id(t) for t in sentence.normalized]
        P, _ = neural.forward(ids, self.params, self.cfg, keyarg_ids=keyarg_ids)
        return P

    @property
    def transitions(self) -> np.ndarray:
        return self.params["crf.A"]


@dataclass
class ExtractorModel:
    stage1: TaggerModel
    stage2: TaggerModel
    schemas: dict[str, EventSchema]

    def save(self, path: str, meta: Mapping | None = None) -> None:
        """Write format version 3: the line `json.dumps(header) + "\n"`, the header being
        every field but the tensor data (each stage's `config`, `label_set` and tensor
        `layout`, then `schemas` and `meta`), and then each stage's `params.flat` as
        little-endian float64 bytes, stage 1 first, written from the buffer itself.

        The file is written beside `path` and then renamed onto it, so an error or an
        interrupt leaves any previous file at `path` as it was, and no partial file.
        """
        header = {
            "format_version": 3,
            "stage1": self.stage1._header(),
            "stage2": self.stage2._header(),
            "schemas": [self.schemas[t].to_dict() for t in sorted(self.schemas)],
        }
        if meta is not None:
            header["meta"] = dict(meta)
        line = (json.dumps(header) + "\n").encode("ascii")
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(line)
                neural.write_flat(fh, self.stage1.params)
                neural.write_flat(fh, self.stage2.params)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "ExtractorModel":
        """Read a model that `save` wrote: its header line, then each stage's tensor bytes
        into that stage's parameter buffer itself."""
        with open(path, "rb") as fh:
            payload = _read_header(fh, path)
            version = payload.get("format_version") if isinstance(payload, dict) else None
            if type(version) is not int or version != 3:
                raise ValueError(f"{path}: unsupported model format version {version!r}")
            where, stages = path, {}
            try:
                for stage in ("stage1", "stage2"):
                    where = f"{path}: {stage}"
                    stages[stage] = TaggerModel.from_header(payload[stage], fh)
                if fh.read(1):
                    last = stages["stage2"].params.layout[-1][0]
                    raise ValueError(f"data continues after tensor {last!r}")
                takes, given = stages["stage2"].cfg.num_keyarg_labels, len(stages["stage1"].label_set)
                if takes != given:
                    raise ValueError(f"the network takes {takes} key-argument labels, stage 1's "
                                     f"label set has {given}")
                where = f"{path}: stage1"
                if stages["stage1"].cfg.uses_keyargs:
                    raise ValueError(f"the network takes {stages['stage1'].cfg.num_keyarg_labels} "
                                     "key-argument labels, which only stage 2 is given")
                where = path
                schemas = {
                    schema.event_type: schema
                    for schema in map(EventSchema.from_dict, _json_list(payload["schemas"], "'schemas'"))
                }
                for event_type in sorted(stages["stage1"].label_set.groups.keys() - schemas.keys()):
                    raise ValueError(f"stage1: event type {event_type!r} has no schema")
                if build_label_sets(schemas) != (stages["stage1"].label_set, stages["stage2"].label_set):
                    raise ValueError("the label sets are not those the schemas build")
            except KeyError as exc:
                raise ValueError(f"{where}: missing field {exc}") from None
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        return cls(**stages, schemas=schemas)


def _read_header(fh: BinaryIO, path: str):
    """The JSON value of the first line of `fh`, which is left after that line."""
    line = fh.readline()
    try:
        if not line:
            raise ValueError("the file is empty")
        return json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: the model header is not JSON: {exc}") from None


def build_label_sets(schemas: Mapping[str, EventSchema]) -> tuple[LabelSet, LabelSet]:
    """Stage-1 label set over key roles, stage-2 over non-key roles."""
    key_roles: list[str] = []
    nonkey_roles: list[str] = []
    groups: dict[str, list[str]] = {}
    for event_type in sorted(schemas):
        schema = schemas[event_type]
        groups[event_type] = [role_label(event_type, p) for p in sorted(schema.key_args)]
        key_roles += groups[event_type]
        nonkey_roles += [role_label(event_type, p) for p in sorted(schema.nonkey_args)]
    return LabelSet(key_roles, groups), LabelSet(nonkey_roles)


def project_tags(tags: Sequence[str], labels: LabelSet, roles: Collection[str]) -> list[int]:
    """Each tag's index on `labels`, taking O for a tag off `labels` or of a role not in `roles`."""
    return [
        labels.index(tag if tag in labels and LabelSet.role_of(tag) in roles else OUTSIDE)
        for tag in tags
    ]


def stage1(
    sentence: ParsedSentence,
    model: TaggerModel,
    decoder: str,
    lambda_factor: float = ilp.LAMBDA_FACTOR,
    max_solutions: int = ilp.MAX_SOLUTIONS,
) -> list[tuple[str, LabelSequence]]:
    """Decode key arguments and detect event types.

    Returns one (event_type, sequence) pair per detected type; a type is
    detected when all of its key roles appear as B- tags in a decoded
    sequence. Sequences arrive best-first, and each type keeps the first
    sequence that detects it.
    """
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}; expected one of {DECODERS}")
    P = model.emissions(sentence)
    A = model.transitions
    labels = model.label_set
    if decoder == "viterbi":
        path, score = crf.viterbi(P, A)
        sequences = [LabelSequence(tuple(labels.labels[i] for i in path), score)]
    else:
        prob = ilp.DecodeProblem(
            P, A, labels, lambda_factor=lambda_factor, max_solutions=max_solutions
        )
        if decoder == "ilp":
            sequences = [ilp.ilp_decode(prob)]
        else:
            sequences = ilp.ilp_decode_multi(prob).sequences

    detections: dict[str, LabelSequence] = {}
    for seq in sequences:
        begun = {tag[2:] for tag in seq.tags if tag.startswith("B-")}
        for event_type in sorted(labels.groups):
            if event_type not in detections and labels.groups[event_type] <= begun:
                detections[event_type] = seq
    return list(detections.items())


def stage2(
    sentence: ParsedSentence,
    model: TaggerModel,
    labels1: LabelSet,
    detections: Sequence[tuple[str, LabelSequence]],
) -> list[EventMention]:
    """Fill in non-key arguments for each stage-1 detection.

    Plain Viterbi decoding. Roles come from the label sets, which `ExtractorModel.load`
    checks against the schemas: a detection's key roles are its type's group in `labels1`,
    and stage 2's labels hold non-key roles only, so a span of the detected type is an
    argument. The type's stage-1 key spans and then its stage-2 non-key spans, left to right,
    go through `claim_spans` named by property, as `gen` labels a sentence. Non-key spans
    therefore never displace a key span, and of two stage-1 spans of one key role the
    leftmost is kept.
    """
    if model.cfg.num_keyarg_labels != len(labels1):
        raise ValueError(
            f"stage-2 model expects {model.cfg.num_keyarg_labels} key-argument "
            f"labels, stage-1 provides {len(labels1)}"
        )
    mentions: list[EventMention] = []
    for event_type, seq in detections:
        feature_ids = project_tags(seq.tags, labels1, labels1.groups[event_type])
        P = model.emissions(sentence, keyarg_ids=feature_ids)
        path, _ = crf.viterbi(P, model.transitions)
        tags2 = [model.label_set.labels[i] for i in path]

        spans = [(*split_role(role), start, end)
                 for role, start, end in spans_from_tags(seq.tags) + spans_from_tags(tags2)]
        kept, _ = claim_spans((prop, start, end) for role_type, prop, start, end in spans
                              if role_type == event_type)
        arguments = tuple(Argument(*span) for span in sorted(kept, key=lambda span: span[1]))
        mentions.append(EventMention(event_type, arguments))
    return mentions


def extract_sentence(
    sentence: ParsedSentence,
    model: ExtractorModel,
    decoder: str,
    lambda_factor: float = ilp.LAMBDA_FACTOR,
    max_solutions: int = ilp.MAX_SOLUTIONS,
) -> dict:
    """Full two-stage extraction of one sentence into an output record."""
    detections = stage1(sentence, model.stage1, decoder, lambda_factor, max_solutions)
    mentions = stage2(sentence, model.stage2, model.stage1.label_set, detections)
    surfaces = sentence.surfaces
    events = [
        {
            "event_type": m.event_type,
            "arguments": [a.to_dict(surfaces) for a in m.arguments],
        }
        for m in sorted(mentions, key=lambda m: m.event_type)
    ]
    return {"sentence_id": sentence.id, "events": events}


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------

@dataclass
class TrainSettings:
    epochs: int = 50
    lr: float = 1e-3
    seed: int = 0
    dev_fraction: float = 0.1
    patience: int = 5
    embed_dim: int = 200
    hidden1: int = 100
    hidden2: int = 150
    keyarg_dim: int = 50
    dropout: float = 0.5
    embeddings_path: str | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if not 0 <= self.dev_fraction < 1:
            raise ValueError("dev_fraction must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("embed_dim", "hidden1", "hidden2", "keyarg_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class _Instance:
    token_ids: list[int]
    gold: list[int]
    keyarg_ids: list[int] | None = None


def _train_tagger(
    instances: Sequence[_Instance],
    cfg: neural.ModelConfig,
    label_set: LabelSet,
    settings: TrainSettings,
    seed: int,
) -> tuple[TaggerModel, dict]:
    """Instance-at-a-time training with early stopping on dev NLL; no instances, no updates."""
    init_rng = np.random.default_rng(seed)
    params = neural.init_params(cfg, init_rng)
    if settings.embeddings_path:
        params["embeddings"][...] = neural.load_embeddings(
            settings.embeddings_path, cfg.vocab, cfg.embed_dim, init_rng
        )

    shuffle_rng = np.random.default_rng(seed + 1)
    dropout_rng = np.random.default_rng(seed + 2)
    order = shuffle_rng.permutation(len(instances))
    n_dev = int(len(instances) * settings.dev_fraction)
    dev_idx = [int(i) for i in order[:n_dev]]
    train_idx = [int(i) for i in order[n_dev:]]  # dev_fraction < 1: not empty unless `instances` is

    state = neural.AdamState(params)
    grads = params.zeros_like()
    history: dict[str, list[float]] = {"train_nll": [], "dev_nll": []}
    best_dev = float("inf")
    best_params = None
    bad_epochs = 0

    def nll(inst: _Instance, train: bool) -> float:
        """The instance's loss; in training, its gradients are left in `grads`."""
        P, cache = neural.forward(
            inst.token_ids, params, cfg, keyarg_ids=inst.keyarg_ids, train=train,
            rng=dropout_rng if train else None,
        )
        loss, dP, dA = crf.nll_loss_and_grads(P, params["crf.A"], inst.gold)
        if train:
            neural.backward(cache, dP, grads)
            grads["crf.A"][...] = dA
        return loss

    for epoch in range(settings.epochs if train_idx else 0):
        epoch_loss = 0.0
        for i in shuffle_rng.permutation(len(train_idx)):
            epoch_loss += nll(instances[train_idx[int(i)]], train=True)
            neural.sgd_step(params, grads, state, lr=settings.lr)
        history["train_nll"].append(epoch_loss / len(train_idx))
        if dev_idx:
            dev_loss = sum(nll(instances[i], train=False) for i in dev_idx) / len(dev_idx)
            history["dev_nll"].append(dev_loss)
            if dev_loss < best_dev - 1e-9:
                best_dev = dev_loss
                best_params = neural.Parameters(params)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > settings.patience:
                    break
    if best_params is not None:
        params = best_params
    return TaggerModel(cfg=cfg, params=params, label_set=label_set), history


def _train_in_child(write_end: int, args: tuple) -> NoReturn:
    """Forked child of `train_pipeline`: pickle ("ok", (model, history)) or ("error", exc)
    of `_train_tagger(*args)` to `write_end`, then exit without running the parent's
    exit handlers or flushing its buffers. An unpicklable result exits with status 1."""
    code = 1
    try:
        try:
            result = ("ok", _train_tagger(*args))
        except BaseException as exc:
            result = ("error", exc)
        payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_end, "wb") as writer:
            writer.write(payload)
        code = 0
    finally:
        os._exit(code)


def train_pipeline(
    records: Sequence[Mapping],
    schemas: Mapping[str, EventSchema],
    settings: TrainSettings | None = None,
) -> tuple[ExtractorModel, dict]:
    """Train both stages from generated dataset records.

    Stage 1 learns key-role projections of the gold labels over all records;
    stage 2 learns non-key roles per (positive record, event type) with the
    gold key labels as teacher-forced input features. Stage 2 trains in a
    forked child process, where `os.fork` exists, while stage 1 trains here;
    the models are those of training one after the other, and no child
    outlives the call.
    """
    settings = settings or TrainSettings()
    records = list(records)
    if not records:
        raise ValueError("empty dataset")
    labels1, labels2 = build_label_sets(schemas)
    vocab = neural.build_vocab(
        [[normalize_surface(t) for t in rec["tokens"]] for rec in records]
    )

    shared = dict(vocab=vocab, embed_dim=settings.embed_dim, dropout_rate=settings.dropout)
    cfg1 = neural.ModelConfig(num_labels=len(labels1), lstm_hidden=settings.hidden1, **shared)
    cfg2 = neural.ModelConfig(
        num_labels=len(labels2), lstm_hidden=settings.hidden2, keyarg_embed_dim=settings.keyarg_dim,
        num_keyarg_labels=len(labels1), **shared,
    )

    stage1_instances: list[_Instance] = []
    stage2_instances: list[_Instance] = []
    for rec in records:
        token_ids = [cfg1.token_id(normalize_surface(t)) for t in rec["tokens"]]
        tags = list(rec["labels"])
        stage1_instances.append(_Instance(token_ids, project_tags(tags, labels1, labels1.roles)))
        if rec.get("polarity") != "positive":
            continue
        for event_type in sorted(rec.get("event_types", [])):
            if event_type not in schemas:
                raise ValueError(f"record {rec.get('sentence_id')}: unknown event type {event_type!r}")
            nonkey_roles = {role_label(event_type, p) for p in schemas[event_type].nonkey_args}
            gold2 = project_tags(tags, labels2, nonkey_roles)
            feature_ids = project_tags(tags, labels1, labels1.groups[event_type])
            stage2_instances.append(_Instance(token_ids, gold2, keyarg_ids=feature_ids))

    # Stage 2 trains on the gold key labels, not on stage 1's output, so the two
    # trainings share nothing and stage 2 runs in a forked child meanwhile.
    # Without positive instances stage 2 stays untrained, so extraction still runs.
    stage2_args = (stage2_instances, cfg2, labels2, settings, settings.seed + 1000)
    if not hasattr(os, "fork"):
        model1, hist1 = _train_tagger(stage1_instances, cfg1, labels1, settings, settings.seed)
        model2, hist2 = _train_tagger(*stage2_args)
    else:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            os.close(read_end)
            _train_in_child(write_end, stage2_args)
        os.close(write_end)
        try:
            with os.fdopen(read_end, "rb") as reader:
                model1, hist1 = _train_tagger(stage1_instances, cfg1, labels1, settings, settings.seed)
                payload = reader.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0 or not payload:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"stage-2 training process {how} without a result")
        kind, value = pickle.loads(payload)
        if kind == "error":
            raise value
        model2, hist2 = value
    model = ExtractorModel(stage1=model1, stage2=model2, schemas=dict(schemas))
    return model, {"stage1": hist1, "stage2": hist2}
