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
from dataclasses import asdict, replace

from . import __version__, evaluation, ilp, oracle, pipeline, supervision
from .core import open_text, read_corpus, read_jsonl, read_tables, write_jsonl
from .supervision import GenerationConfig, Strategy


def _header(seed: int | None, command: str) -> dict:
    rec = {"tool": "tabevent", "version": __version__, "command": command}
    if seed is not None:
        rec["seed"] = seed
    return rec


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_manifest(
    out_path: str, command: str, inputs: dict, outputs: list[str], seed: int | None, t0: float
) -> None:
    _write_json(out_path + ".manifest.json", {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 6),
    })


@contextlib.contextmanager
def _naming(path: str):
    """Put `path` in front of a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset settings from the [command] section of the INI config file, else the defaults,
    then make the command's library settings from them into `args.settings`.

    The section may hold only the command's settings, each with a value of the setting's type
    (and one of its flag's choices) that the library accepts with the defaults, also where a
    flag overrides it; anything else is an error naming the file.
    """
    defaults, given = args.defaults, {}
    if args.config:
        where = f"{args.config}: [{args.command}]"
        ini = configparser.ConfigParser(interpolation=None)
        with open_text(args.config) as fh:
            try:
                ini.read_file(fh)
            except configparser.Error as exc:
                raise ValueError(f"{args.config}:{_ini_fault(exc)}") from None
        section = ini[args.command] if ini.has_section(args.command) else {}
        for key, text in section.items():
            if key not in defaults:
                raise ValueError(f"{where} has no setting {key!r}; its settings are "
                                 f"{', '.join(sorted(defaults))}")
            given[key] = _setting(f"{where} {key}", text, defaults[key], _CHOICES.get(key))
        with _naming(where):
            args.make({**defaults, **given})
    for key, default in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, given.get(key, default))
    args.settings = args.make(vars(args))
    return args


def _ini_fault(exc: configparser.Error) -> str:
    """'<line>: <what>' for an error of `ConfigParser.read_file`, worded from its fields,
    since its own message quotes the file again."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"{exc.lineno}: {exc.line.strip()!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        return f"{exc.errors[0][0]}: neither a [section] header nor a 'key = value' line"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"{exc.lineno}: option {exc.option!r} repeated in [{exc.section}]"
    return f"{exc.lineno}: section [{exc.section}] repeated"  # DuplicateSectionError, the last kind


def _setting(where: str, text: str, default, choices: list | None):
    """The INI value `text` as the type of `default`, and one of `choices` if there are any."""
    try:
        value = type(default)(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if choices and value not in choices:
        raise ValueError(f"{where}: {value!r} is not one of {', '.join(choices)}")
    return value


# The settings whose flags take one of a list of names, and those whose flags have a help text.
_CHOICES = {"strategy": [s.value for s in Strategy], "decoder": pipeline.DECODERS}
_HELP = {"max_dist": "max dependency hops between key arguments; 0 disables",
         "decoder": "ilp_multi lists the near-optimal sequences, for several typed events"}

# Each subcommand's settings, one flag and one INI key each; the defaults are the library's own.
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
    "lambda_factor": ilp.LAMBDA_FACTOR,
    "max_solutions": ilp.MAX_SOLUTIONS,
    "decoder": "ilp",
}


# A command's library settings from its setting values; the library refuses a bad value.
def _generation_config(values: dict) -> GenerationConfig:
    max_dist = values["max_dist"]
    return GenerationConfig(max_dep_distance=None if max_dist <= 0 else max_dist,
                            partial_negative_ratio=values["partial_ratio"],
                            violation_negative_ratio=values["violation_ratio"])


def _train_settings(values: dict) -> pipeline.TrainSettings:
    return pipeline.TrainSettings(embeddings_path=values.get("embeddings"),
                                  **{name: values[name] for name in _TRAIN})


def _decode_settings(values: dict) -> None:
    ilp.check_decode_settings(values["lambda_factor"], values["max_solutions"])


def _schemas(args: argparse.Namespace, tables: list) -> dict:
    """The event schemas of `tables`; a fault of the tables names their file."""
    with _naming(args.tables):
        return supervision.select_schemas(tables, Strategy(args.strategy))


def _cmd_gen(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    tables = read_tables(args.tables)
    # Schemas are selected first so that the generator's own checks concern the corpus.
    _schemas(args, tables)
    corpus = read_corpus(args.corpus)
    alias_map = supervision.read_alias_map(args.aliases) if args.aliases else {}
    cfg, strategy = replace(args.settings, alias_map=alias_map), Strategy(args.strategy)
    with _naming(args.corpus):
        records, report = supervision.generate_dataset(tables, corpus, cfg, strategy=strategy, seed=args.seed)
    header = _header(args.seed, "gen")
    supervision.write_dataset(args.out, records, header=header)
    outputs = [args.out]
    if args.stats:
        _write_json(args.stats, {"meta": header, **report})
        outputs.append(args.stats)
    inputs = {"tables": args.tables, "corpus": args.corpus, "aliases": args.aliases}
    _write_manifest(args.out, "gen", inputs, outputs, args.seed, t0)
    print(
        f"gen: {report['records']} records ({report['positives']} positive) -> {args.out}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    records = supervision.read_dataset(args.dataset)
    schemas = _schemas(args, read_tables(args.tables))
    model, history = pipeline.train_pipeline(records, schemas, args.settings)
    model.save(args.out, meta=_header(args.seed, "train"))
    inputs = {
        "dataset": args.dataset,
        "tables": args.tables,
        "embeddings": args.embeddings,
    }
    _write_manifest(args.out, "train", inputs, [args.out], args.seed, t0)
    print(f"train: stage-1 final train nll {history['stage1']['train_nll'][-1]} -> {args.out}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    model = pipeline.ExtractorModel.load(args.model)
    corpus = read_corpus(args.corpus)
    records = [
        pipeline.extract_sentence(s, model, args.decoder, args.lambda_factor, args.max_solutions)
        for s in corpus
    ]
    write_jsonl(args.out, records, header=_header(None, "extract"))
    inputs = {"model": args.model, "corpus": args.corpus, "decoder": args.decoder}
    _write_manifest(args.out, "extract", inputs, [args.out], None, t0)
    n_events = sum(len(r["events"]) for r in records)
    print(f"extract: {n_events} events over {len(records)} sentences -> {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    if args.model:
        schemas = pipeline.ExtractorModel.load(args.model).schemas
    elif args.tables:
        schemas = _schemas(args, read_tables(args.tables))
    else:
        raise ValueError("eval needs --model or --tables to know the key arguments")
    # Gold is in dataset form when its first record has labels; the file is read once, so
    # it may be a pipe.
    gold = list(read_jsonl(args.gold))
    if gold and "labels" in gold[0]:
        gold = [evaluation.mentions_from_record(rec, schemas)
                for rec in supervision.check_dataset(gold, args.gold)]
    metrics = evaluation.score_all_standards(read_jsonl(args.pred), gold, schemas, (args.pred, args.gold))
    _write_json(args.out, {"meta": _header(None, "eval"), **metrics})
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
    _write_json(args.out, {"meta": _header(None, "report"), "datasets": rows})
    _write_manifest(args.out, "report", {"datasets": args.dataset}, [args.out], None, t0)
    for row in rows:
        print(
            f"report: {row['name']}: {row['sentences']} sentences, "
            f"{row['positives']} positive ({row['positive_percentage']:.1f}%), "
            f"{row['types']} types"
        )
    return 0


def _add_settings(p: argparse.ArgumentParser, func, defaults: dict, make=lambda values: None) -> None:
    """--config, and a flag for each setting of `defaults` (`--embed-dim` for embed_dim) of the
    default's type."""
    p.add_argument("--config")
    for key, default in defaults.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=type(default), choices=_CHOICES.get(key),
                       help=_HELP.get(key))
    p.set_defaults(func=func, defaults=defaults, make=make)


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
    _add_settings(p, _cmd_gen, GEN_DEFAULTS, _generation_config)

    p = sub.add_parser("train", help="train the two-stage extractor")
    p.add_argument("--dataset", required=True)
    p.add_argument("--tables", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embeddings")
    _add_settings(p, _cmd_train, TRAIN_DEFAULTS, _train_settings)

    p = sub.add_parser("extract", help="run the extractor over a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, _cmd_extract, EXTRACT_DEFAULTS, _decode_settings)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", help="model file supplying the event schemas")
    p.add_argument("--tables", help="tables file to derive schemas instead")
    _add_settings(p, _cmd_eval, _STRATEGY)

    p = sub.add_parser("oracle", help="run brute-force verification suites")
    p.add_argument("--check", choices=sorted(oracle.CHECKS) + ["all"], default="all")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("report", help="summarize generated datasets")
    p.add_argument("--dataset", action="append", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "defaults" in args:  # a command with settings
            args = _apply_config(args)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
