"""Command-line interface.

Exit codes: 0 success, 2 configuration error (bad flags, bad spec file),
3 input error (missing, unreadable or malformed files, or a path that cannot
be written), 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import corpusio, harness, models, stats, tokenizer, training
from .grammar import GenerationConfig, default_grammar, generate_corpus
from .harness import ExperimentSpec
from .training import TrainingConfig
from .transforms import TransformKind, transform_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_RUNTIME = 4


def _cmd_generate(args) -> int:
    config = GenerationConfig(count=args.count, seed=args.seed)
    with harness.config_errors():
        config.validate()
    sentences = generate_corpus(default_grammar(), config)
    corpusio.write_corpus(args.out, sentences)
    print(f"wrote {len(sentences)} sentences to {args.out}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    kind = TransformKind(args.kind)
    count = transform_file(kind, args.infile, args.out, normalize=args.normalize)
    print(f"wrote {count} sentences to {args.out}")
    return EXIT_OK


def _encode_corpus(path: str, vocab: tokenizer.Vocabulary | None = None):
    """(vocab, encoded sentences) of a corpus file; vocab None builds one."""
    sentences = corpusio.read_corpus(path)
    if vocab is None:
        vocab = tokenizer.build_vocabulary(sentences)
    return vocab, tokenizer.encode_corpus(vocab, sentences)


def _cmd_train(args) -> int:
    cfg = TrainingConfig(**{f.name: getattr(args, f.name) for f in fields(TrainingConfig)})
    with harness.config_errors():  # the flags, before the corpus is read
        cfg.validate()
    vocab, encoded = _encode_corpus(args.corpus)
    model_cfg = harness.model_config(ExperimentSpec(arch=args.arch), len(vocab),
                                     args.seed, encoded)
    out_dir = Path(args.out_dir)
    series, _ = harness.train_run(model_cfg, encoded, cfg, out_dir)
    tokenizer.save_vocabulary(vocab, out_dir / "vocab.txt")
    last = series.records[-1]
    print(f"final step {last.step}: loss={last.loss:.4f} "
          f"perplexity={last.perplexity:.4f}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    params = models.load_checkpoint(args.checkpoint)
    vocab = tokenizer.load_vocabulary(args.vocab)
    if len(vocab) != params.config.vocab:
        raise harness.InputError(
            f"vocabulary {args.vocab} has {len(vocab)} tokens but checkpoint "
            f"{args.checkpoint} was trained on {params.config.vocab}"
        )
    _, encoded = _encode_corpus(args.corpus, vocab)
    max_seq = params.config.max_seq
    if max_seq is not None:
        index = next((i for i, e in enumerate(encoded) if len(e) - 1 > max_seq), None)
        if index is not None:  # the line number of the index-th sentence
            lines = corpusio.read_text(args.corpus).split("\n")
            line_no = [i for i, line in enumerate(lines, 1) if line][index]
            raise harness.InputError(
                f"{args.corpus}: line {line_no}: input width {len(encoded[index]) - 1} "
                f"exceeds max_seq {max_seq} of checkpoint {args.checkpoint}"
            )
    result = training.evaluate_perplexity(params, encoded)
    print(f"loss={result.loss:.17g}")
    print(f"perplexity={result.perplexity:.17g}")
    print(f"tokens={result.tokens}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    with harness.config_errors():  # the fraction's own check, before any file is read
        stats.stabilized_start(1, args.start_fraction)
    a, b = (stats.stabilized_window(training.MetricSeries.from_csv(path),
                                    args.start_fraction, args.metric)
            for path in (args.a, args.b))
    for path, window in ((args.a, a), (args.b, b)):
        if len(window) < 2:
            raise harness.ConfigError(
                f"{path}: --start-fraction {args.start_fraction} leaves {len(window)} "
                f"stabilized-window sample(s); Welch's t-test needs at least 2")
    if len(set(a)) == 1 == len(set(b)) and a[0] != b[0]:
        raise harness.InputError(
            f"{args.a} and {args.b}: the stabilized-window {args.metric} is constant in "
            f"both ({a[0]!r} and {b[0]!r}); Welch's t-test needs variance in at least one")
    result = stats.welch_t_test(a, b)
    record = result.to_record(f"{args.a} vs {args.b} [{args.metric}]")
    print(json.dumps(record, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    overrides = {k: v for k, v in vars(args).items() if k in harness.SPEC_KEYS}
    spec = harness.parse_spec_file(args.spec, overrides)
    report = harness.run_experiment(spec)
    print(harness.render_text_report(report))
    print(f"full report in {spec.out_dir}/report.json")
    return EXIT_OK


def _cmd_report(args) -> int:
    report = harness.load_report(args.run_dir)
    if args.format == "json":
        print(json.dumps(asdict(report), indent=2, sort_keys=True))
    else:
        print(harness.render_text_report(report), end="")  # the text of report.txt
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langlab",
        description="Desk-scale possible vs. impossible language learning lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a seeded SVO corpus")
    p.add_argument("--count", type=int, default=ExperimentSpec.corpus_count)
    p.add_argument("--seed", type=int, default=ExperimentSpec.corpus_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "transform",
        help="apply a group transform to a corpus file",
        description="Applies the transform line by line. With --normalize, "
        "raw external text is lowercased and terminal punctuation is "
        "stripped before transforming; generated corpora need no "
        "normalization.",
    )
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in TransformKind])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("train", help="train one model on a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--arch", choices=tuple(models.CONFIG_TYPES),
                   default=ExperimentSpec.arch)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--steps", dest="total_steps", metavar="STEPS", type=int,
                   default=TrainingConfig.total_steps)
    p.add_argument("--peak-lr", type=float, default=TrainingConfig.peak_lr)
    p.add_argument("--batch-size", type=int, default=TrainingConfig.batch_size)
    p.add_argument("--warmup-fraction", type=float, default=TrainingConfig.warmup_fraction)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="held-out perplexity of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="Welch test between two metrics CSVs")
    p.add_argument("--a", required=True, help="metrics CSV, first group")
    p.add_argument("--b", required=True, help="metrics CSV, second group")
    p.add_argument("--metric", choices=("loss", "perplexity"), default="loss")
    p.add_argument("--start-fraction", type=float,
                   default=ExperimentSpec.stabilized_fraction)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "experiment",
        help="run a full experiment (generate, transform, train, test, report)",
        description="Configuration comes from a key = value spec file "
        "(see README for the schema); flags, --experiment too, override file "
        "values.",
    )
    p.add_argument("--spec", help="path to spec file")
    p.add_argument("--experiment",
                   choices=(*harness.EXPERIMENT_PRESETS, ExperimentSpec.experiment),
                   help="experiment preset: 1/2 transformer, 3/4 lstm; "
                   "2/4 take an external corpus")
    p.add_argument("--out-dir")
    p.add_argument("--arch", choices=tuple(models.CONFIG_TYPES))
    p.add_argument("--groups", help="comma-separated group list")
    p.add_argument("--seeds", help="comma-separated training seeds")
    p.add_argument("--steps", dest="total_steps", metavar="STEPS", type=int,
                   help="training steps per run")
    p.add_argument("--corpus-count", type=int)
    p.add_argument("--corpus-file")
    p.add_argument("--seed", dest="corpus_seed", metavar="SEED", type=int,
                   help="corpus generation seed")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="render a stored experiment report")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except harness.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (harness.InputError, OSError) as exc:  # OSError: a path not read or written
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
