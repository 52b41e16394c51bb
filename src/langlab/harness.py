"""Experiment orchestration: generate, transform, tokenize, train, evaluate,
compare, and report.

A run is fully declarative: an ExperimentSpec plus its seeds determine every
output byte.  For each (group, seed) the harness builds the group's corpus by
transforming a shared base corpus, trains a fresh model, and logs metrics;
afterwards it runs Welch tests of the natural group against each impossible
group on stabilized-window losses and perplexities, and writes CSV curves,
JSON and text reports, and SVG plots.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import corpusio, models, plots, stats, tokenizer, training
from .corpusio import InputError
from .grammar import GenerationConfig, Sentence, default_grammar, generate_corpus
from .training import MetricSeries, TrainingConfig
from .transforms import TransformKind, apply_transform

__all__ = [
    "ConfigError",
    "config_errors",
    "InputError",
    "ExperimentSpec",
    "GroupResult",
    "RunReport",
    "LinearitySummary",
    "run_experiment",
    "model_config",
    "train_run",
    "linearity_gradient_summary",
    "render_text_report",
    "parse_spec_file",
    "load_report",
]

GROUP_TRANSFORMS = {
    "natural": TransformKind.IDENTITY,
    "reversed": TransformKind.REVERSE,
    "parity-negation": TransformKind.PARITY_NEGATION,
}
KNOWN_GROUPS = tuple(GROUP_TRANSFORMS)

# experiment-id analogs: (architecture, whether the corpus is an external corpus_file)
EXPERIMENT_PRESETS = {
    "1": ("transformer", False),
    "2": ("transformer", True),
    "3": ("lstm", False),
    "4": ("lstm", True),
}


class ConfigError(ValueError):
    pass


@contextmanager
def config_errors():
    """A ValueError raised inside, by a config's own check, leaves as a
    ConfigError: the one place such a check becomes a configuration error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str = "custom"
    corpus_file: str | None = None  # an external corpus; None or "": a generated one
    corpus_count: int = 10000
    corpus_seed: int = 12345
    groups: tuple[str, ...] = KNOWN_GROUPS
    arch: str = "transformer"
    seeds: tuple[int, ...] = (1, 2, 3)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    stabilized_fraction: float = 0.5
    heldout_fraction: float = 0.05
    out_dir: str = "runs/out"
    # model key of MODEL_KEYS[arch] -> value; a key not set keeps its config default
    model: dict = field(default_factory=dict)

    def validate(self) -> None:
        external = EXPERIMENT_PRESETS.get(self.experiment, (None, None))[1]  # None: custom
        if external and not self.corpus_file:
            raise ConfigError(f"experiment {self.experiment} reads an external corpus; "
                              f"set corpus_file")
        if external is False and self.corpus_file:
            raise ConfigError(f"experiment {self.experiment} generates its corpus, but "
                              f"corpus_file {self.corpus_file!r} is set")
        if self.arch not in models.CONFIG_TYPES:
            raise ConfigError(f"unknown arch: {self.arch!r}")
        for key in self.model:
            if key not in MODEL_KEYS[self.arch]:
                owner = next((a for a, keys in MODEL_KEYS.items() if key in keys), None)
                raise ConfigError(f"{key}: a setting of the {owner} model, not the "
                                  f"{self.arch}" if owner else f"unknown spec key: {key!r}")
        if not self.groups:
            raise ConfigError("at least one group is required")
        for g in self.groups:
            if g not in KNOWN_GROUPS:
                raise ConfigError(f"unknown group: {g!r} (known: {KNOWN_GROUPS})")
        if len(set(self.groups)) != len(self.groups):
            raise ConfigError("duplicate groups in spec")
        if len(self.groups) >= 2 and "natural" not in self.groups:
            raise ConfigError("statistical comparisons require the natural group")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("duplicate seeds in spec")
        if not 0.0 <= self.stabilized_fraction < 1.0:
            raise ConfigError("stabilized_fraction must be in [0, 1)")
        if not 0.0 < self.heldout_fraction < 0.5:
            raise ConfigError("heldout_fraction must be in (0, 0.5)")
        if self.corpus_seed < 0:
            raise ConfigError(f"corpus_seed must be >= 0, got {self.corpus_seed}")
        with config_errors():  # every config a run builds, before it writes a file
            if not self.corpus_file:
                GenerationConfig(self.corpus_count, self.corpus_seed).validate()
            for seed in self.seeds:
                dataclasses.replace(self.training, seed=seed).validate()
                model_config(self, 1, seed).validate()  # the corpus sets the vocab
        if len(self.groups) >= 2:
            records = self.training.total_steps  # train() logs every step
            samples = len(self.seeds) * (
                records - stats.stabilized_start(records, self.stabilized_fraction))
            if samples < 2:
                raise ConfigError(
                    f"{samples} stabilized-window sample(s) per group, but "
                    f"Welch's t-test needs at least 2; add seeds or steps"
                )


@dataclass
class GroupResult:
    group: str
    seeds: list[int]
    metrics_csv: list[str]
    final_loss: list[float]
    final_perplexity: list[float]
    min_perplexity: list[float]
    heldout_loss: list[float]
    heldout_perplexity: list[float]
    mean_stabilized_loss: float
    vocab_size: int


@dataclass
class LinearitySummary:
    ranking: list[str]  # ascending mean stabilized loss
    parity_below_reversed: bool | None


@dataclass
class RunReport:
    experiment: str
    arch: str
    groups: dict[str, GroupResult]
    comparisons: list[dict]
    linearity: LinearitySummary | None
    spec_echo: dict

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "arch": self.arch,
            "groups": {g: dataclasses.asdict(r) for g, r in self.groups.items()},
            "comparisons": self.comparisons,
            "linearity": dataclasses.asdict(self.linearity) if self.linearity else None,
            "spec": self.spec_echo,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunReport":
        groups = {g: GroupResult(**r) for g, r in data["groups"].items()}
        # in the run's order, which the spec echo keeps: the file sorts its keys
        groups = {g: groups[g] for g in data.get("spec", {}).get("groups", groups)}
        lin = LinearitySummary(**data["linearity"]) if data.get("linearity") else None
        return cls(data["experiment"], data["arch"], groups,
                   data["comparisons"], lin, data.get("spec", {}))


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_base_corpus(spec: ExperimentSpec) -> list[Sentence]:
    if not spec.corpus_file:
        return generate_corpus(default_grammar(),
                               GenerationConfig(spec.corpus_count, spec.corpus_seed))
    return corpusio.read_corpus(spec.corpus_file, normalize=True)


def _split_indices(n: int, heldout_fraction: float, seed: int):
    rng = np.random.default_rng([seed, 0xC0FFEE])
    heldout = max(1, round(n * heldout_fraction))
    perm = rng.permutation(n)
    held = sorted(int(i) for i in perm[:heldout])
    train = sorted(int(i) for i in perm[heldout:])
    return train, held


def model_config(spec: ExperimentSpec, vocab: int, seed: int):
    """The model config of spec.arch with the spec's model settings."""
    return models.CONFIG_TYPES[spec.arch](vocab=vocab, seed=seed, **spec.model)


def train_run(model_cfg: models.TransformerConfig | models.LstmConfig,
              encoded: list[tuple[int, ...]], cfg: TrainingConfig,
              run_dir: Path, group: str = ""
              ) -> tuple[MetricSeries, models.ModelParameters]:
    """Train a fresh model of model_cfg and write run_dir/metrics.csv and
    run_dir/model.ckpt; a diverging run still writes the metrics logged
    before it.  Returns (series, trained parameters)."""
    run_dir.mkdir(parents=True, exist_ok=True)
    params = models.init_model(model_cfg)
    try:
        series, params = training.train(params, encoded, cfg, group=group)
    except training.DivergenceError as exc:
        exc.series.to_csv(run_dir / "metrics.csv")
        raise
    series.to_csv(run_dir / "metrics.csv")
    models.save_checkpoint(params, run_dir / "model.ckpt")
    return series, params


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Execute the full pipeline for every (group, seed); returns the report.
    The configuration checks and the base corpus come before anything is
    written under out_dir; the report of an earlier run there is deleted then."""
    spec.validate()
    base = _load_base_corpus(spec)
    train_idx, held_idx = _split_indices(
        len(base), spec.heldout_fraction, spec.corpus_seed
    )
    if not train_idx:
        raise ConfigError(
            f"corpus has {len(base)} sentence(s) and holding out {len(held_idx)} "
            f"leaves none for training; use a larger corpus"
        )

    max_seq = model_config(spec, 1, 0).max_seq  # None: no position limit
    if max_seq is not None:
        # Check every group before any trains.  Each transform changes the
        # length of every sentence by the same amount, so a longest base
        # sentence is longest in every group.  The model reads every encoded
        # token but the last: BOS and the words.
        longest = max(base, key=len)
        for group in spec.groups:
            width = len(apply_transform(GROUP_TRANSFORMS[group], longest)) + 1
            if width > max_seq:
                raise ConfigError(
                    f"group {group}: model input width {width} exceeds max_seq "
                    f"{max_seq}; raise max_seq"
                )

    out = Path(spec.out_dir)
    for sub in ("corpora", "vocab", "runs", "curves", "tables", "plots"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for name in ("report.json", "report.txt"):
        (out / name).unlink(missing_ok=True)

    group_results: dict[str, GroupResult] = {}
    all_series: dict[str, list[MetricSeries]] = {}
    for group in spec.groups:  # one group's corpora in memory at a time
        kind = GROUP_TRANSFORMS[group]
        group_results[group], all_series[group] = _run_group(
            spec, group, [apply_transform(kind, base[i]) for i in train_idx],
            [apply_transform(kind, base[i]) for i in held_idx], out)

    comparisons: list[dict] = []
    impossible = [g for g in spec.groups if g != "natural"]
    if "natural" in spec.groups and impossible:
        for group in impossible:
            for metric in ("loss", "perplexity"):
                res = stats.welch_t_test(
                    _pooled_window(all_series["natural"], spec.stabilized_fraction, metric),
                    _pooled_window(all_series[group], spec.stabilized_fraction, metric))
                record = res.to_record(f"natural vs {group} [{metric}]")
                record["indicator"] = metric
                comparisons.append(record)

    report = RunReport(
        experiment=spec.experiment,
        arch=spec.arch,
        groups=group_results,
        comparisons=comparisons,
        linearity=None,
        spec_echo=_spec_echo(spec),
    )
    if len(impossible) >= 2:
        report.linearity = linearity_gradient_summary(report)

    _write_curves(out, all_series)
    _write_tables(out, report)
    corpusio.write_lines(out / "report.json",
                         [json.dumps(report.to_json_dict(), indent=2, sort_keys=True)])
    corpusio.write_lines(out / "report.txt",
                         [render_text_report(report).removesuffix("\n")])
    return report


def _run_group(spec: ExperimentSpec, group: str, train_sents: list[Sentence],
               held_sents: list[Sentence], out: Path
               ) -> tuple[GroupResult, list[MetricSeries]]:
    """Write one group's corpora and vocabulary, then train one model per seed
    and evaluate it on the held-out sentences.  Returns the group's result and
    its series in seed order."""
    corpusio.write_corpus(out / "corpora" / f"{group}.train.txt", train_sents)
    corpusio.write_corpus(out / "corpora" / f"{group}.heldout.txt", held_sents)
    vocab = tokenizer.build_vocabulary(train_sents)
    tokenizer.save_vocabulary(vocab, out / "vocab" / f"{group}.vocab")
    enc_train = tokenizer.encode_corpus(vocab, train_sents)
    enc_held = tokenizer.encode_corpus(vocab, held_sents)
    series_list, evals = [], []
    for seed in spec.seeds:
        cfg = dataclasses.replace(spec.training, seed=seed)
        _log(f"[langlab] training {spec.arch} group={group} seed={seed} "
             f"steps={cfg.total_steps}")
        series, params = train_run(model_config(spec, len(vocab), seed), enc_train,
                                   cfg, out / "runs" / group / f"seed{seed}", group)
        evals.append(training.evaluate_perplexity(params, enc_held, cfg.batch_size))
        del params  # weights only (train leaves no .grad): free before the next run
        series_list.append(series)
    window = _pooled_window(series_list, spec.stabilized_fraction, "loss")
    return GroupResult(
        group=group, seeds=list(spec.seeds),
        metrics_csv=[f"runs/{group}/seed{seed}/metrics.csv" for seed in spec.seeds],
        final_loss=[s.records[-1].loss for s in series_list],
        final_perplexity=[s.records[-1].perplexity for s in series_list],
        min_perplexity=[min(r.perplexity for r in s.records) for s in series_list],
        heldout_loss=[e.loss for e in evals],
        heldout_perplexity=[e.perplexity for e in evals],
        mean_stabilized_loss=sum(window) / len(window),
        vocab_size=len(vocab),
    ), series_list


def _pooled_window(series_list: list[MetricSeries], fraction: float,
                   metric: str) -> list[float]:
    """The stabilized windows of every series, one after another."""
    return [v for s in series_list for v in stats.stabilized_window(s, fraction, metric)]


def _spec_echo(spec: ExperimentSpec) -> dict:
    echo = dataclasses.asdict(spec)
    echo["groups"] = list(spec.groups)
    echo["seeds"] = list(spec.seeds)
    echo["model"] = {**MODEL_KEYS[spec.arch], **spec.model}
    return echo


def linearity_gradient_summary(report: RunReport) -> LinearitySummary:
    """Groups ordered by mean stabilized loss; flags whether the
    parity-negation group sits below the reversed group.  Diagnostic only."""
    impossible = [g for g in report.groups if g != "natural"]
    if len(impossible) < 2:
        raise ValueError("linearity summary needs at least 2 impossible groups")
    ranking = sorted(
        report.groups,
        key=lambda g: (report.groups[g].mean_stabilized_loss, g),
    )
    flag = None
    if "parity-negation" in report.groups and "reversed" in report.groups:
        flag = (report.groups["parity-negation"].mean_stabilized_loss
                < report.groups["reversed"].mean_stabilized_loss)
    return LinearitySummary(ranking=ranking, parity_below_reversed=flag)


def _write_curves(out: Path, all_series: dict[str, list[MetricSeries]]) -> None:
    """Each group's per-seed curve CSV and, from the same rows, the chart of
    every group's mean curve: over all logged steps and over steps <= 50."""
    for metric in ("loss", "perplexity"):
        for tag, limit, title in (
                ("overall", None, f"Training {metric} (mean over seeds)"),
                ("first50", 50, f"Training {metric}, first 50 steps")):
            means = {}
            for group, series_list in all_series.items():
                rows = [(r.step, [getattr(s.records[i], metric) for s in series_list])
                        for i, r in enumerate(series_list[0].records)
                        if limit is None or r.step <= limit]
                corpusio.write_lines(
                    out / "curves" / f"{group}.{metric}.{tag}.csv",
                    ["step," + ",".join(f"seed{s.seed}" for s in series_list),
                     *(f"{step}," + ",".join(f"{v:.17g}" for v in vals)
                       for step, vals in rows)])
                means[group] = ([step for step, _ in rows],
                                [sum(vals) / len(vals) for _, vals in rows])
            plots.line_chart(out / "plots" / f"{metric}_{tag}.svg", means, title,
                             "step", metric)


def _write_tables(out: Path, report: RunReport) -> None:
    """The per-(group, seed) perplexity table and its bar chart of group means."""
    groups = report.groups
    corpusio.write_lines(out / "tables" / "final_min_perplexity.csv", [
        "group,seed,final_perplexity,min_perplexity,heldout_loss,heldout_perplexity",
        *(f"{group},{seed},{r.final_perplexity[i]:.17g},{r.min_perplexity[i]:.17g},"
          f"{r.heldout_loss[i]:.17g},{r.heldout_perplexity[i]:.17g}"
          for group, r in groups.items() for i, seed in enumerate(r.seeds))])
    plots.bar_chart(
        out / "plots" / "final_min_perplexity.svg", list(groups),
        {"final": [sum(r.final_perplexity) / len(r.final_perplexity)
                   for r in groups.values()],
         "minimum": [sum(r.min_perplexity) / len(r.min_perplexity)
                     for r in groups.values()]},
        "Final and minimum perplexity (mean over seeds)", "perplexity",
    )


def render_text_report(report: RunReport) -> str:
    lines = [f"Experiment {report.experiment} ({report.arch})", ""]
    lines.append("Per-group summary (mean over seeds):")
    lines.append(f"  {'group':<18}{'final ppl':>12}{'min ppl':>12}"
                 f"{'heldout ppl':>14}")
    for group, r in report.groups.items():
        n = len(r.seeds)
        lines.append(
            f"  {group:<18}{sum(r.final_perplexity) / n:>12.3f}"
            f"{sum(r.min_perplexity) / n:>12.3f}"
            f"{sum(r.heldout_perplexity) / n:>14.3f}"
        )
    if report.comparisons:
        lines.append("")
        lines.append("Welch's t-test on stabilized-window samples (natural first):")
        for rec in report.comparisons:
            lines.append(
                f"  {rec['comparison']}: {stats.format_p(rec['p'])}, "
                f"t({rec['df']:.1f})={rec['t']:.2f}, "
                f"Cohen's d={rec['d']:.2f}"
            )
    if report.linearity is not None:
        lines.append("")
        lines.append("Linearity-gradient diagnostic (ascending mean stabilized loss):")
        lines.append("  ranking: " + " < ".join(report.linearity.ranking))
        if report.linearity.parity_below_reversed is not None:
            lines.append(
                f"  parity-negation below reversed: "
                f"{report.linearity.parity_below_reversed}"
            )
    lines.append("")
    return "\n".join(lines)


def load_report(run_dir: str | Path) -> RunReport:
    path = Path(run_dir) / "report.json"
    try:
        return RunReport.from_json_dict(json.loads(corpusio.read_text(path)))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not JSON: {exc}") from exc
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:  # a value of the wrong type or shape
        raise InputError(f"{path}: malformed report: {exc}") from exc


# ------------------------------------------------------------- spec file I/O
#
# Declarative key = value format, one per line, '#' comments.  Lists are
# comma-separated.  The keys are the fields of ExperimentSpec and
# TrainingConfig but ``training``, ``model`` and TrainingConfig.seed (each
# run's seed comes from ``seeds``), and the model keys of the spec's arch; the
# type of a field's default parses its value.

# spec key -> (config class, field default)
SPEC_KEYS = {f.name: (cls, f.default)
             for cls, skip in ((ExperimentSpec, ("training", "model")),
                               (TrainingConfig, ("seed",)))
             for f in dataclasses.fields(cls) if f.name not in skip}

# arch -> {model key: its default}: the fields of the arch's config but vocab
# and seed, which each run sets
MODEL_KEYS = {arch: {f.name: f.default for f in dataclasses.fields(cls)
                     if f.name not in ("vocab", "seed")}
              for arch, cls in models.CONFIG_TYPES.items()}


def parse_spec_file(path: str | Path | None,
                    overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from a key=value file (None: no file) plus an
    override mapping, whose None values override nothing."""
    pairs: dict[str, str] = {}
    lines = corpusio.read_text(path).splitlines() if path is not None else []
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs[key] = value
    if overrides:
        pairs.update({k: str(v) for k, v in overrides.items() if v is not None})
    return build_spec(pairs)


def build_spec(pairs: dict[str, str]) -> ExperimentSpec:
    """The spec of key = value pairs.  Its arch is the arch key, else the
    experiment preset's, else the default; every key but a spec key is a model
    key of that arch, as validate checks.  A corpus_count key with a
    corpus_file is an error: the file is read whole."""
    preset = EXPERIMENT_PRESETS.get(pairs.get("experiment"), (ExperimentSpec.arch,))
    arch = pairs.get("arch", preset[0])
    kwargs: dict = {ExperimentSpec: {"arch": arch, "model": {}}, TrainingConfig: {}}
    for key, value in pairs.items():
        if key in SPEC_KEYS:
            cls, default = SPEC_KEYS[key]
            kwargs[cls][key] = _parse_value(key, value, default)
        else:  # a model key; one of no field of arch's config has no default to
            # parse it by, so it stays a str and validate rejects it
            kwargs[ExperimentSpec]["model"][key] = _parse_value(
                key, value, MODEL_KEYS.get(arch, {}).get(key))
    spec = ExperimentSpec(training=TrainingConfig(**kwargs[TrainingConfig]),
                          **kwargs[ExperimentSpec])
    spec.validate()
    if spec.corpus_file and "corpus_count" in pairs:
        raise ConfigError(f"corpus_count {spec.corpus_count} is set, but corpus_file "
                          f"{spec.corpus_file!r} is read whole")
    return spec


def _parse_value(key: str, value: str, default):
    """value as the type of the key's default: str for a None default, and
    for a tuple the comma-separated items, each as the type of its first."""
    if isinstance(default, tuple):
        return tuple(_parse_value(key, item.strip(), default[0])
                     for item in value.split(",") if item.strip())
    try:
        return (str if default is None else type(default))(value)
    except ValueError as exc:
        raise ConfigError(f"spec key {key!r}: cannot parse {value!r}") from exc
