"""Batch command line: gen, train, extract, eval, oracle, report.

Every run writes a manifest next to its primary output recording inputs,
seed, version, and wall time, and every output artifact carries a header
with the seed. An INI config file can supply defaults per subcommand;
explicit flags win.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import sys
import time
from dataclasses import asdict

from . import __version__, evaluation, ilp, oracle, pipeline, supervision
from .core import open_text, read_corpus, read_jsonl, read_tables, write_jsonl
from .supervision import GenerationConfig, Strategy


def _header(seed: int | None, command: str) -> dict:
    rec = {"tool": "tabevent", "version": __version__, "command": command}
    if seed is not None:
        rec["seed"] = seed
    return rec


def _write_json(path: str, payload: dict, meta: dict) -> None:
    payload = {"meta": meta, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _write_manifest(
    out_path: str, command: str, inputs: dict, outputs: list[str], seed: int | None, t0: float
) -> None:
    manifest = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


@contextlib.contextmanager
def _naming(path: str):
    """Put `path` in front of a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _apply_config(args: argparse.Namespace, parser_defaults: dict) -> argparse.Namespace:
    """Fill unset flags from the [command] section of the INI config file, else the defaults.

    The section may hold only the command's settings, each with a value of the setting's type
    (and one of its flag's choices), also where a flag overrides it; anything else is an error
    naming the file.
    """
    given = {}
    if getattr(args, "config", None):
        ini = configparser.ConfigParser(interpolation=None)
        with open_text(args.config) as fh:
            try:
                ini.read_file(fh)
            except configparser.Error as exc:
                raise ValueError(f"{args.config}: {exc}".replace("\n", " ")) from None
        section = ini[args.command] if ini.has_section(args.command) else {}
        for key, text in section.items():
            if key not in parser_defaults:
                raise ValueError(f"{args.config}: [{args.command}] has no setting {key!r}; its "
                                 f"settings are {', '.join(sorted(parser_defaults)) or 'none'}")
            given[key] = _setting(f"{args.config}: [{args.command}] {key}", text, parser_defaults[key],
                                  _CHOICES.get(key))
    for key, default in parser_defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, given.get(key, default))
    return args


def _setting(where: str, text: str, default, choices: list | None):
    """The INI value `text` as the type of `default`, and one of `choices` if there are any."""
    try:
        value = type(default)(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if choices and value not in choices:
        raise ValueError(f"{where}: {value!r} is not one of {', '.join(choices)}")
    return value


# The settings whose flags take one of a list of names.
_CHOICES = {"strategy": [s.value for s in Strategy], "decoder": ["viterbi", "ilp"]}

# Each subcommand's defaults are the library's own.
_GEN = GenerationConfig()
_STRATEGY = {"strategy": Strategy.IMP_TIME.value}
_TRAIN = {k: v for k, v in asdict(pipeline.TrainSettings()).items() if k != "embeddings_path"}

GEN_DEFAULTS = {
    "seed": 0,
    "max_dist": _GEN.max_dep_distance,
    **_STRATEGY,
    "partial_ratio": _GEN.partial_negative_ratio,
    "violation_ratio": _GEN.violation_negative_ratio,
}

TRAIN_DEFAULTS = {**_STRATEGY, **_TRAIN}

EXTRACT_DEFAULTS = {
    "decoder": "ilp",
    "lambda_factor": ilp.LAMBDA_FACTOR,
    "max_solutions": ilp.MAX_SOLUTIONS,
}


def _cmd_gen(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    tables = read_tables(args.tables)
    corpus = read_corpus(args.corpus)
    alias_map = supervision.read_alias_map(args.aliases) if args.aliases else {}
    cfg = GenerationConfig(
        max_dep_distance=None if args.max_dist <= 0 else args.max_dist,
        partial_negative_ratio=args.partial_ratio,
        violation_negative_ratio=args.violation_ratio,
        alias_map=alias_map,
    )
    strategy = Strategy(args.strategy)
    # Schemas are selected first so that a fault of the tables names their file;
    # the generator's own checks then concern the corpus.
    with _naming(args.tables):
        supervision.select_schemas(tables, strategy)
    with _naming(args.corpus):
        records, report = supervision.generate_dataset(tables, corpus, cfg, strategy=strategy, seed=args.seed)
    header = _header(args.seed, "gen")
    supervision.write_dataset(args.out, records, header=header)
    outputs = [args.out]
    if args.stats:
        _write_json(args.stats, report, header)
        outputs.append(args.stats)
    inputs = {"tables": args.tables, "corpus": args.corpus, "aliases": args.aliases}
    _write_manifest(args.out, "gen", inputs, outputs, args.seed, t0)
    print(
        f"gen: {report['records']} records ({report['positives']} positive) -> {args.out}"
    )
    return 0


def _schemas(args: argparse.Namespace) -> dict:
    return supervision.select_schemas(read_tables(args.tables), Strategy(args.strategy))


def _cmd_train(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    records = supervision.read_dataset(args.dataset)
    schemas = _schemas(args)
    settings = pipeline.TrainSettings(
        embeddings_path=args.embeddings, **{name: getattr(args, name) for name in _TRAIN}
    )
    model, history = pipeline.train_pipeline(records, schemas, settings)
    model.save(args.out, meta=_header(args.seed, "train"))
    inputs = {
        "dataset": args.dataset,
        "tables": args.tables,
        "embeddings": args.embeddings,
    }
    _write_manifest(args.out, "train", inputs, [args.out], args.seed, t0)
    last = history["stage1"]["train_nll"][-1] if history["stage1"]["train_nll"] else None
    print(f"train: stage-1 final train nll {last} -> {args.out}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    model = pipeline.ExtractorModel.load(args.model)
    corpus = read_corpus(args.corpus)
    decoder = "ilp_multi" if args.multi else args.decoder
    records = [
        pipeline.extract_sentence(s, model, decoder, args.lambda_factor, args.max_solutions)
        for s in corpus
    ]
    write_jsonl(args.out, records, header=_header(None, "extract"))
    inputs = {"model": args.model, "corpus": args.corpus, "decoder": decoder}
    _write_manifest(args.out, "extract", inputs, [args.out], None, t0)
    n_events = sum(len(r["events"]) for r in records)
    print(f"extract: {n_events} events over {len(records)} sentences -> {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    if args.model:
        schemas = pipeline.ExtractorModel.load(args.model).schemas
    elif args.tables:
        schemas = _schemas(args)
    else:
        raise ValueError("eval needs --model or --tables to know the key arguments")
    # Gold is in dataset form when its first record has labels; the file is read once, so
    # it may be a pipe.
    gold = list(read_jsonl(args.gold))
    if gold and "labels" in gold[0]:
        gold = [evaluation.mentions_from_record(rec, schemas)
                for rec in supervision.check_dataset(gold, args.gold)]
    events = evaluation._aligned(read_jsonl(args.pred), gold, (args.pred, args.gold))
    metrics = evaluation._score_all(*events, schemas)
    _write_json(args.out, metrics, _header(None, "eval"))
    inputs = {"pred": args.pred, "gold": args.gold}
    _write_manifest(args.out, "eval", inputs, [args.out], None, t0)
    for standard, scores in metrics.items():
        print(
            f"eval: {standard}: P={scores['precision']:.4f} "
            f"R={scores['recall']:.4f} F={scores['f1']:.4f}"
        )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    names = sorted(oracle.CHECKS) if args.check == "all" else [args.check]
    reports = oracle.run_checks(names, trials=args.trials, seed=args.seed)
    ok = True
    for report in reports:
        print(f"oracle: {report.summary()}")
        for failure in report.failures[:5]:
            print(f"oracle:   {failure}")
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    rows = []
    for path in args.dataset:
        records = supervision.read_dataset(path)
        rows.append(supervision.dataset_report(records, name=path))
    payload = {"datasets": rows}
    _write_json(args.out, payload, _header(None, "report"))
    _write_manifest(args.out, "report", {"datasets": args.dataset}, [args.out], None, t0)
    for row in rows:
        print(
            f"report: {row['name']}: {row['sentences']} sentences, "
            f"{row['positives']} positive ({row['positive_percentage']:.1f}%), "
            f"{row['types']} types"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabevent",
        description="Table-supervised event extraction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate BIO training data from tables")
    p.add_argument("--tables", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--aliases")
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-dist", dest="max_dist", type=int,
                   help="max dependency hops between key arguments; 0 disables")
    p.add_argument("--strategy", choices=_CHOICES["strategy"])
    p.add_argument("--partial-ratio", dest="partial_ratio", type=float)
    p.add_argument("--violation-ratio", dest="violation_ratio", type=float)
    p.set_defaults(func=_cmd_gen, defaults=GEN_DEFAULTS)

    p = sub.add_parser("train", help="train the two-stage extractor")
    p.add_argument("--dataset", required=True)
    p.add_argument("--tables", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--embeddings")
    p.add_argument("--strategy", choices=_CHOICES["strategy"])
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--hidden1", type=int)
    p.add_argument("--hidden2", type=int)
    p.add_argument("--keyarg-dim", dest="keyarg_dim", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--dev-fraction", dest="dev_fraction", type=float)
    p.add_argument("--patience", type=int)
    p.set_defaults(func=_cmd_train, defaults=TRAIN_DEFAULTS)

    p = sub.add_parser("extract", help="run the extractor over a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    decoders = p.add_mutually_exclusive_group()
    decoders.add_argument("--decoder", choices=_CHOICES["decoder"])
    decoders.add_argument("--multi", action="store_true",
                          help="enumerate multiple typed events per sentence")
    p.add_argument("--lambda-factor", dest="lambda_factor", type=float)
    p.add_argument("--max-solutions", dest="max_solutions", type=int)
    p.set_defaults(func=_cmd_extract, defaults=EXTRACT_DEFAULTS)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--model", help="model file supplying the event schemas")
    p.add_argument("--tables", help="tables file to derive schemas instead")
    p.add_argument("--strategy", choices=_CHOICES["strategy"])
    p.set_defaults(func=_cmd_eval, defaults=_STRATEGY)

    p = sub.add_parser("oracle", help="run brute-force verification suites")
    p.add_argument("--check", choices=sorted(oracle.CHECKS) + ["all"], default="all")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle, defaults={})

    p = sub.add_parser("report", help="summarize generated datasets")
    p.add_argument("--dataset", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_report, defaults={})

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, args.defaults)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
