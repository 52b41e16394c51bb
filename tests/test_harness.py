import dataclasses
import itertools
import json
import math
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab import cli, harness, models
from langlab.corpusio import read_corpus, write_corpus
from langlab.grammar import GenerationConfig, default_grammar, generate_corpus
from langlab.harness import (
    ConfigError,
    ExperimentSpec,
    GroupResult,
    InputError,
    RunReport,
    build_spec,
    linearity_gradient_summary,
    load_report,
    model_config,
    parse_spec_file,
    render_text_report,
    run_experiment,
)
from langlab.models import (LstmConfig, TransformerConfig, init_model, load_checkpoint,
                            save_checkpoint)
from langlab.tokenizer import build_vocabulary, save_vocabulary
from langlab.training import MetricSeries, TrainingConfig, lr_schedule
from langlab.transforms import NOT_TOKEN
from sentences import sent


def tiny_spec(out_dir, **overrides):
    defaults = dict(
        experiment="tiny",
        corpus_count=300,
        corpus_seed=77,
        seeds=(1, 2),
        training=TrainingConfig(total_steps=8, batch_size=32, seed=0),
        out_dir=str(out_dir),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    spec = tiny_spec(out)
    report = run_experiment(spec)
    assert not list(out.rglob("*.tmp"))  # every artifact replaced its temporary file
    return spec, report, out


# ----------------------------------------------------------------- reporting


def test_report_groups_and_comparisons(tiny_run):
    _, report, _ = tiny_run
    assert set(report.groups) == {"natural", "reversed", "parity-negation"}
    # 2 impossible groups x 2 indicators
    assert len(report.comparisons) == 4
    indicators = {(c["comparison"], c["indicator"]) for c in report.comparisons}
    assert ("natural vs reversed [loss]", "loss") in indicators
    assert ("natural vs parity-negation [perplexity]", "perplexity") in indicators


def test_report_json_schema(tiny_run):
    _, _, out = tiny_run
    data = json.loads((out / "report.json").read_text())
    assert set(data) == {"experiment", "arch", "groups", "comparisons",
                         "linearity", "spec"}
    for rec in data["comparisons"]:
        assert {"comparison", "t", "df", "p", "d", "n1", "n2", "means",
                "variances"} <= set(rec)
    for group in data["groups"].values():
        assert len(group["final_perplexity"]) == 2
        assert len(group["metrics_csv"]) == 2


def test_min_perplexity_cross_check(tiny_run):
    _, report, out = tiny_run
    for group in report.groups.values():
        for i, csv_rel in enumerate(group.metrics_csv):
            series = MetricSeries.from_csv(out / csv_rel)
            recomputed = min(r.perplexity for r in series.records)
            assert group.min_perplexity[i] == recomputed
            assert group.min_perplexity[i] <= group.final_perplexity[i]
            assert group.final_perplexity[i] == series.records[-1].perplexity


def test_group_corpora_differ_only_by_transform(tiny_run):
    _, _, out = tiny_run
    natural = read_corpus(out / "corpora" / "natural.train.txt")
    reversed_ = read_corpus(out / "corpora" / "reversed.train.txt")
    parity = read_corpus(out / "corpora" / "parity-negation.train.txt")
    assert len(natural) == len(reversed_) == len(parity)
    step = max(1, len(natural) // 25)
    for i in range(0, len(natural), step):
        assert tuple(reversed(reversed_[i].words)) == natural[i].words
        par = parity[i].words
        if par[-1] == NOT_TOKEN:
            assert par[:-1] == natural[i].words
            assert len(natural[i].words) % 2 == 1
        else:
            assert par[0] == NOT_TOKEN
            assert par[1:] == natural[i].words
            assert len(natural[i].words) % 2 == 0


def test_heldout_split_sizes(tiny_run):
    spec, _, out = tiny_run
    train = read_corpus(out / "corpora" / "natural.train.txt")
    held = read_corpus(out / "corpora" / "natural.heldout.txt")
    assert len(train) + len(held) == spec.corpus_count
    assert len(held) == round(spec.corpus_count * spec.heldout_fraction)


def test_report_text_rendering(tiny_run):
    _, report, out = tiny_run
    text = (out / "report.txt").read_text()
    assert text == render_text_report(report)
    assert "Welch's t-test" in text
    for rec in report.comparisons:
        assert f"t({rec['df']:.1f})={rec['t']:.2f}" in text
        assert f"Cohen's d={rec['d']:.2f}" in text


def test_report_round_trip(tiny_run):
    _, report, out = tiny_run
    loaded = load_report(out)
    assert loaded.to_json_dict() == report.to_json_dict()


def test_report_command_prints_report_txt(tiny_run, capsys):
    """report.json sorts its keys, but report lists the groups in the run's
    order (natural, reversed, parity-negation), as report.txt does, with no
    extra blank line."""
    _, _, out = tiny_run
    capsys.readouterr()
    assert cli.main(["report", "--run-dir", str(out)]) == 0
    assert capsys.readouterr().out == (out / "report.txt").read_text()


def test_end_to_end_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(tiny_spec(out, corpus_count=200,
                                 training=TrainingConfig(total_steps=5,
                                                         batch_size=32)))
        outs.append(out)
    a, b = outs
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        if rel.name == "report.json":
            # out_dir is echoed in the spec block; compare everything else
            ja = json.loads((a / rel).read_text())
            jb = json.loads((b / rel).read_text())
            ja["spec"].pop("out_dir"), jb["spec"].pop("out_dir")
            assert ja == jb
        else:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_single_group_no_comparisons(tmp_path):
    spec = tiny_spec(tmp_path / "solo", groups=("natural",), seeds=(1,),
                     corpus_count=150,
                     training=TrainingConfig(total_steps=4, batch_size=32))
    report = run_experiment(spec)
    assert report.comparisons == []
    assert report.linearity is None
    text = render_text_report(report)
    assert "Welch" not in text


def test_spec_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="natural"):
        tiny_spec(tmp_path, groups=("reversed", "parity-negation")).validate()
    with pytest.raises(ConfigError, match="unknown group"):
        tiny_spec(tmp_path, groups=("natural", "shuffled")).validate()
    with pytest.raises(ConfigError, match="^experiment 2 reads an external corpus; set "
                                          "corpus_file$"):
        tiny_spec(tmp_path, experiment="2").validate()
    with pytest.raises(ConfigError, match="arch"):
        tiny_spec(tmp_path, arch="rnn").validate()
    with pytest.raises(ConfigError):
        tiny_spec(tmp_path, seeds=()).validate()
    with pytest.raises(ConfigError, match="duplicate seeds"):
        tiny_spec(tmp_path, seeds=(1, 1)).validate()
    with pytest.raises(ConfigError, match="^experiment 1 generates its corpus, but "
                                          "corpus_file 'x.txt' is set$"):
        tiny_spec(tmp_path, experiment="1", corpus_file="x.txt").validate()
    tiny_spec(tmp_path, corpus_file="x.txt").validate()  # a custom experiment reads it
    tiny_spec(tmp_path, corpus_file="").validate()  # the README's empty corpus_file line
    # a model key is a field of the arch's config, from a Python caller too
    with pytest.raises(ConfigError, match="^max_seq: a setting of the transformer model, "
                                          "not the lstm$"):
        tiny_spec(tmp_path, arch="lstm", model={"max_seq": 4}).validate()
    with pytest.raises(ConfigError, match="^unknown spec key: 'width'$"):
        tiny_spec(tmp_path, model={"width": 4}).validate()
    # 3 logged steps leave 1 stabilized-window sample per seed, 4 leave 2
    with pytest.raises(ConfigError, match="1 stabilized-window sample"):
        tiny_spec(tmp_path, seeds=(1,),
                  training=TrainingConfig(total_steps=3)).validate()
    tiny_spec(tmp_path, seeds=(1,), training=TrainingConfig(total_steps=4)).validate()


def test_external_corpus_missing_file(tmp_path):
    spec = tiny_spec(tmp_path, corpus_file=str(tmp_path / "absent.txt"))
    with pytest.raises(InputError, match=r"absent\.txt: cannot read"):
        run_experiment(spec)


def test_external_corpus_normalization(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("The girl is given cats.\nThe horse has enjoyed the school!\n")
    spec = tiny_spec(
        tmp_path / "ext", corpus_file=str(raw),
        groups=("natural",), seeds=(1,), heldout_fraction=0.4,
        training=TrainingConfig(total_steps=2, batch_size=2),
    )
    run_experiment(spec)
    lines = (tmp_path / "ext" / "corpora" / "natural.train.txt").read_text()
    assert lines.islower()
    assert "." not in lines and "!" not in lines


# ----------------------------------------------------------------- linearity


def fake_report(mean_losses):
    groups = {
        name: GroupResult(
            group=name, seeds=[1], metrics_csv=[], final_loss=[1.0],
            final_perplexity=[2.0], min_perplexity=[1.5], heldout_loss=[1.0],
            heldout_perplexity=[2.0], mean_stabilized_loss=loss, vocab_size=10,
        )
        for name, loss in mean_losses.items()
    }
    return RunReport("x", "transformer", groups, [], None, {})


def test_linearity_ranking_and_flag():
    report = fake_report({"natural": 1.2, "parity-negation": 2.0, "reversed": 3.1})
    summary = linearity_gradient_summary(report)
    assert summary.ranking == ["natural", "parity-negation", "reversed"]
    assert summary.parity_below_reversed is True


def test_linearity_tie_stable_by_name():
    report = fake_report({"natural": 2.0, "parity-negation": 2.0, "reversed": 2.0})
    summary = linearity_gradient_summary(report)
    assert summary.ranking == ["natural", "parity-negation", "reversed"]
    assert summary.parity_below_reversed is False


def test_linearity_requires_two_impossible_groups():
    report = fake_report({"natural": 1.0, "reversed": 2.0})
    with pytest.raises(ValueError, match="2 impossible"):
        linearity_gradient_summary(report)


# ------------------------------------------------------------------ specfile


def test_parse_spec_file(tmp_path):
    path = tmp_path / "exp.spec"
    path.write_text(
        "# comment\n"
        "experiment = 1\n"
        "corpus_count = 120\n"
        "seeds = 3, 4\n"
        "groups = natural, reversed\n"
        "total_steps = 6\n"
        "peak_lr = 0.001\n"
        f"out_dir = {tmp_path / 'o'}\n"
    )
    spec = parse_spec_file(path)
    assert spec.arch == "transformer"  # preset from experiment 1
    assert spec.corpus_file is None
    assert spec.seeds == (3, 4)
    assert spec.groups == ("natural", "reversed")
    assert spec.training.total_steps == 6
    assert spec.training.peak_lr == 0.001


def test_parse_spec_overrides(tmp_path):
    path = tmp_path / "exp.spec"
    path.write_text("experiment = 3\ncorpus_count = 100\n"
                    f"out_dir = {tmp_path / 'o'}\n")
    spec = parse_spec_file(path, {"corpus_count": 250, "arch": None})
    assert spec.corpus_count == 250
    assert spec.arch == "lstm"  # preset 3 preserved


def test_parse_spec_unknown_key(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("bogus_key = 1\n")
    with pytest.raises(ConfigError, match="unknown spec key"):
        parse_spec_file(path)


def test_parse_spec_bad_value(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("corpus_count = many\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_spec_file(path)


def test_parse_spec_missing_file(tmp_path):
    with pytest.raises(InputError):
        parse_spec_file(tmp_path / "absent.spec")


def _readme_pairs(block: str) -> dict[str, str]:
    """The key = value pairs of a README block; one line holds several keys:
    a value ends where the next key starts."""
    pairs = {}
    for line in re.sub(r"#.*", "", block).splitlines():
        pairs.update(re.findall(r"(\w+)\s*=\s*(.*?)\s*(?=\s\w+\s*=|$)", line))
    return pairs


def test_readme_spec_keys_match_spec_fields():
    """The README's first spec block names every spec key, and only spec
    keys: the fields of both configs but training, model and the per-run
    seed.  Each block after it names an arch and every model key of that
    arch: its config's fields but vocab and seed.  Each with the first builds
    a spec."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("## Experiment spec files", 1)[1].split("```")
    shared, *model_blocks = map(_readme_pairs, blocks[1:2 * len(harness.MODEL_KEYS) + 2:2])
    assert sorted(shared) == sorted(harness.SPEC_KEYS)
    fields = ({f.name for f in dataclasses.fields(ExperimentSpec)} - {"training", "model"}
              | {f.name for f in dataclasses.fields(TrainingConfig)} - {"seed"})
    assert set(harness.SPEC_KEYS) == fields
    assert sorted(block["arch"] for block in model_blocks) == sorted(harness.MODEL_KEYS)
    for block in model_blocks:
        config = models.CONFIG_TYPES[block["arch"]]
        assert sorted(block) == sorted(
            {"arch"} | {f.name for f in dataclasses.fields(config)} - {"vocab", "seed"})
        spec = build_spec({**shared, **block})
        assert spec.model.keys() == harness.MODEL_KEYS[block["arch"]].keys()


def test_build_spec_requires_valid_groups():
    # single impossible group is fine; two groups without natural are not
    assert build_spec({"groups": "reversed"}).groups == ("reversed",)
    with pytest.raises(ConfigError):
        build_spec({"groups": "reversed, parity-negation"})


# the keys whose field default, or its first item for seeds, is a number: the
# model keys of either arch among them
_NUMERIC_KEYS = sorted({
    key for key, (_, default) in harness.SPEC_KEYS.items()
    if isinstance(default[0] if isinstance(default, tuple) else default, (int, float))
} | {key for keys in harness.MODEL_KEYS.values() for key in keys})


# Values stay small: a spec that builds is initialised, so no draw may ask for a
# large array.
@settings(max_examples=200, deadline=None)
@given(pairs=st.dictionaries(st.sampled_from(_NUMERIC_KEYS), st.one_of(
           st.integers(-3, 9).map(str), st.sampled_from(["nan", "inf", "-inf", "0.25"])),
       min_size=1),
       arch=st.sampled_from(["transformer", "lstm"]))
def test_numeric_spec_value_is_rejected_or_runs(pairs, arch):
    """build_spec raises ConfigError, or every config the run builds from
    the spec works: the models, the held-out split and the learning rate."""
    try:
        spec = build_spec({**pairs, "arch": arch})
    except ConfigError:
        return
    for seed in spec.seeds:
        init_model(model_config(spec, 8, seed))
    harness._split_indices(10, spec.heldout_fraction, spec.corpus_seed)
    assert math.isfinite(lr_schedule(1, spec.training))


@pytest.mark.parametrize("arch, config", [("transformer", TransformerConfig),
                                          ("lstm", LstmConfig)])
def test_spec_shape_defaults_are_the_model_defaults(arch, config):
    """A spec that sets no model key runs its config's defaults, as langlab
    train does, so their checkpoints match."""
    assert model_config(ExperimentSpec(arch=arch), 11, 4) == config(vocab=11, seed=4)


@pytest.mark.parametrize("pairs, config", [
    ({"experiment": "1"}, TransformerConfig(layers=2, model_dim=64, heads=2, ff_dim=256,
                                            max_seq=16, vocab=40, seed=3)),
    ({"experiment": "2", "corpus_file": "c.txt"},
     TransformerConfig(layers=2, model_dim=64, heads=2, ff_dim=256, max_seq=16, vocab=40,
                       seed=3)),
    ({"experiment": "3"}, LstmConfig(layers=1, hidden_dim=128, embed_dim=64, vocab=40,
                                     seed=3)),
    ({"experiment": "4", "corpus_file": "c.txt"},
     LstmConfig(layers=1, hidden_dim=128, embed_dim=64, vocab=40, seed=3)),
], ids=["1", "2", "3", "4"])
def test_preset_model_configs(pairs, config):
    """Each preset builds the desk-scale model it always has."""
    assert model_config(build_spec(pairs), 40, 3) == config


def test_cli_defaults_are_the_config_defaults():
    """Each subcommand flag default is its config field's default; train's
    --seed alone keeps its own, 1, as TrainingConfig.seed is 0."""
    parse = cli.build_parser().parse_args
    spec, cfg = ExperimentSpec(), TrainingConfig()
    train = parse(["train", "--corpus", "c.txt", "--out-dir", "run"])
    assert ((train.total_steps, train.peak_lr, train.batch_size, train.warmup_fraction,
             train.arch, train.seed)
            == (cfg.total_steps, cfg.peak_lr, cfg.batch_size, cfg.warmup_fraction,
                spec.arch, 1))
    generate = parse(["generate", "--out", "c.txt"])
    assert (generate.count, generate.seed) == (spec.corpus_count, spec.corpus_seed)
    stats_args = parse(["stats", "--a", "a.csv", "--b", "b.csv"])
    assert stats_args.start_fraction == spec.stabilized_fraction


# ------------------------------------------------------------------------ CLI


def test_cli_generate_and_transform(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    assert cli.main(["generate", "--count", "50", "--seed", "3",
                     "--out", str(corpus)]) == 0
    assert len(corpus.read_text().splitlines()) == 50
    out = tmp_path / "rev.txt"
    assert cli.main(["transform", "--kind", "reverse", "--in", str(corpus),
                     "--out", str(out)]) == 0
    back = tmp_path / "back.txt"
    assert cli.main(["transform", "--kind", "reverse", "--in", str(out),
                     "--out", str(back)]) == 0
    assert back.read_bytes() == corpus.read_bytes()


def test_cli_train_eval_stats(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    cli.main(["generate", "--count", "80", "--seed", "3", "--out", str(corpus)])
    run = tmp_path / "run"
    assert cli.main(["train", "--corpus", str(corpus), "--steps", "4",
                     "--batch-size", "16", "--seed", "2",
                     "--out-dir", str(run)]) == 0
    assert (run / "metrics.csv").is_file()
    # the corpus's longest sentence is shorter than the config's max_seq floor
    assert load_checkpoint(run / "model.ckpt").config.max_seq == TransformerConfig.max_seq
    capsys.readouterr()  # drop the train summary before parsing eval output
    assert cli.main(["eval", "--checkpoint", str(run / "model.ckpt"),
                     "--vocab", str(run / "vocab.txt"),
                     "--corpus", str(corpus)]) == 0
    eval_out = capsys.readouterr().out
    loss = float(eval_out.split("loss=")[1].splitlines()[0])
    ppl = float(eval_out.split("perplexity=")[1].splitlines()[0])
    assert ppl == pytest.approx(math.exp(loss))
    assert cli.main(["stats", "--a", str(run / "metrics.csv"),
                     "--b", str(run / "metrics.csv")]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["t"] == 0.0 and record["p"] == 1.0


def test_cli_experiment_and_report(tmp_path, capsys):
    out = tmp_path / "exp"
    code = cli.main([
        "experiment", "--experiment", "1", "--corpus-count", "150",
        "--seeds", "1", "--steps", "4", "--groups", "natural,reversed",
        "--seed", "9", "--out-dir", str(out),
    ])
    assert code == 0
    assert (out / "report.json").is_file()
    assert cli.main(["report", "--run-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "natural vs reversed" in text
    assert cli.main(["report", "--run-dir", str(out), "--format", "json"]) == 0


def _tiny_spec_file(path, *lines):
    path.write_text("\n".join(["experiment = 1", "corpus_count = 60", "groups = natural",
                               "seeds = 1", "total_steps = 4", "batch_size = 16", *lines])
                    + "\n")
    return str(path)


def test_cli_experiment_flag_overrides_spec_file(tmp_path, capsys):
    spec = _tiny_spec_file(tmp_path / "exp.spec")
    out = tmp_path / "out"
    assert cli.main(["experiment", "--spec", spec, "--experiment", "3",
                     "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert (report["experiment"], report["arch"]) == ("3", "lstm")


def test_failed_rerun_leaves_no_earlier_report(tmp_path, capsys):
    out = str(tmp_path / "out")
    good = _tiny_spec_file(tmp_path / "good.spec")
    assert cli.main(["experiment", "--spec", good, "--out-dir", out]) == 0
    assert cli.main(["report", "--run-dir", out]) == 0
    bad = _tiny_spec_file(tmp_path / "bad.spec", "experiment = 3", "total_steps = 30",
                          "peak_lr = 50")
    assert cli.main(["experiment", "--spec", bad, "--out-dir", out]) == cli.EXIT_RUNTIME
    assert "diverged" in capsys.readouterr().err
    assert cli.main(["report", "--run-dir", out]) == cli.EXIT_INPUT


def test_cli_error_codes(tmp_path, capsys):
    # input error: missing corpus file
    assert cli.main(["transform", "--kind", "reverse",
                     "--in", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o.txt")]) == cli.EXIT_INPUT
    # config error: comparisons without natural group
    assert cli.main(["experiment", "--groups", "reversed,parity-negation",
                     "--corpus-count", "50", "--seeds", "1", "--steps", "2",
                     "--out-dir", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    # input error: spec file missing
    assert cli.main(["experiment", "--spec", str(tmp_path / "absent.spec")]) \
        == cli.EXIT_INPUT
    # input error: corrupt metrics file
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n")
    assert cli.main(["stats", "--a", str(bad), "--b", str(bad)]) \
        == cli.EXIT_INPUT


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("bad_inputs")
    write_corpus(d / "c.txt", generate_corpus(default_grammar(),
                                              GenerationConfig(count=60, seed=3)))
    (d / "unknown.spec").write_text("bogus_key = 1\n")
    (d / "short.spec").write_text("max_seq = 4\n")
    (d / "nine.spec").write_text("experiment = 1\nmax_seq = 9\n")
    (d / "heads.spec").write_text("heads = 3\n")
    (d / "lstm-short.spec").write_text("arch = lstm\nmax_seq = 4\n")
    (d / "dim.spec").write_text("model_dim = 32\n")
    (d / "hidden.spec").write_text("arch = transformer\nhidden_dim = 8\n")
    (d / "source.spec").write_text("corpus_source = generated\n")
    (d / "every.spec").write_text("eval_every = 1\n")
    (d / "count.spec").write_text("corpus_count = 5\n")
    (d / "dir").mkdir()  # a directory where a file is expected
    (d / "empty.txt").write_text("")
    (d / "blank.txt").write_text("\n\n\n")
    ckpt = d / "good.ckpt"
    save_checkpoint(init_model(LstmConfig(hidden_dim=4, embed_dim=4, vocab=8)), ckpt)
    blob = ckpt.read_bytes()
    (d / "truncated.ckpt").write_bytes(blob[:-5])
    (d / "doubled.ckpt").write_bytes(blob + blob)
    (d / "latin.ckpt").write_bytes(struct.pack("<I", 3) + b"\xff\xfe\xfd")
    hidden = struct.pack("<I", 10) + b"hidden_dim" + struct.pack("<I", 1)
    assert blob.count(hidden + b"4") == 1
    (d / "abc.ckpt").write_bytes(blob.replace(hidden + b"4", hidden[:-4]
                                              + struct.pack("<I", 3) + b"abc"))
    for name, edit in (("missing", lambda t: t.pop("out.b")),
                       ("extra", lambda t: t.update({"l1.wx": t["l0.wx"]})),
                       ("shape", lambda t: t.update({"l0.wh": t["out.w"]}))):
        params = init_model(LstmConfig(hidden_dim=4, embed_dim=4, vocab=8))
        edit(params.tensors)
        save_checkpoint(params, d / f"{name}.ckpt")
    params = init_model(LstmConfig(hidden_dim=4, embed_dim=4, vocab=8))
    params.tensors["l0.wh"].data[1, 2] = math.nan
    save_checkpoint(params, d / "nonfinite.ckpt")
    save_checkpoint(init_model(TransformerConfig(layers=1, model_dim=4, heads=1, ff_dim=4,
                                                 max_seq=16, vocab=8)), d / "t16.ckpt")
    (d / "long.txt").write_text("a b\n\n" + " ".join(["a b c d d"] * 5) + "\n")
    (d / "not.txt").write_text("the girl runs\n\n\nthe boy NOT runs\n")
    (d / "not.out").write_text("an earlier output\n")
    (d / "space.txt").write_text("the girl runs\nthe boy  runs\n")
    (d / "tab.txt").write_text("the girl runs\nthe boy\truns\n")
    (d / "nbsp.txt").write_text("the girl runs\nthe boy\u00a0runs\n", encoding="utf-8")
    # good.ckpt has vocab 8: one vocabulary smaller, one (from c.txt) larger
    save_vocabulary(build_vocabulary([sent("the")]), d / "small.vocab")
    save_vocabulary(build_vocabulary(read_corpus(d / "c.txt")), d / "big.vocab")
    save_vocabulary(build_vocabulary([sent("a b c d")]), d / "eight.vocab")
    (d / "headless.vocab").write_text("a\nb\nc\nd\n")
    # 9 lines, 8 distinct tokens: with the repeat dropped each would fit good.ckpt
    (d / "repeat.vocab").write_text("<pad>\n<bos>\n<eos>\n<unk>\na\nb\na\nc\nd\n")
    (d / "unk.vocab").write_text("<pad>\n<bos>\n<eos>\n<unk>\na\n<unk>\nb\nc\nd\n")
    latin = "the café runs\n".encode("latin-1")  # é as the one byte 0xE9: not UTF-8
    for name in ("latin.txt", "latin.vocab", "latin.spec", "latin.csv"):
        (d / name).write_bytes(latin)
    for name, text in (("nojson", "{"), ("nogroups", '{"experiment": "1", "arch": "lstm"}'),
                       ("nofields", '{"experiment": "1", "arch": "lstm", "comparisons": [],'
                                    ' "groups": {"natural": {"group": "natural"}}}'),
                       ("listgroups", '{"experiment": "1", "arch": "lstm", "comparisons": [],'
                                      ' "groups": []}')):
        (d / name).mkdir()
        (d / name / "report.json").write_text(text)
    header = MetricSeries.CSV_HEADER + "\n"
    for name, rows in (("header", ""), ("word", "1,2.5,12.2,0.1,natural,lstm,1\n"
                                                "2,low,12.2,0.1,natural,lstm,1\n"),
                       ("short", "1,2.5,12.2\n"),
                       ("four", "".join(f"{k},{3 - k / 8},1,0.1,natural,lstm,1\n"
                                        for k in range(1, 5))),
                       ("flat2", "".join(f"{k},2,7.4,0.1,natural,lstm,1\n" for k in range(1, 5))),
                       ("flat3", "".join(f"{k},3,20.1,0.1,natural,lstm,1\n"
                                         for k in range(1, 5)))):
        (d / f"{name}.csv").write_text(header + rows)
    return d


def _eval_args(ckpt, vocab="v.txt"):
    return ["eval", "--checkpoint", "{d}/" + ckpt, "--vocab", "{d}/" + vocab,
            "--corpus", "{d}/c.txt"]


_TINY_EXPERIMENT = ["--seeds", "1", "--steps", "4", "--out-dir", "{d}/exp"]
_CANNOT_READ_DIR = r"^input error: \S*/dir: cannot read \(Is a directory\)$"
_OS_ERROR_ON = r"^input error: \[Errno \d+\] [^:]+: '\S*"  # Python's message names the path


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["experiment", "--spec", "{d}/unknown.spec"],
                 cli.EXIT_CONFIG, "unknown spec key: 'bogus_key'", id="unknown-key"),
    pytest.param(["experiment", "--corpus-count", "1", *_TINY_EXPERIMENT],
                 cli.EXIT_CONFIG, "leaves none for training", id="small-corpus"),
    pytest.param(["experiment", "--spec", "{d}/short.spec", "--corpus-count", "40",
                  *_TINY_EXPERIMENT],
                 cli.EXIT_CONFIG, r"input width \d+ exceeds max_seq 4; raise max_seq$",
                 id="too-long"),
    pytest.param(["experiment", "--spec", "{d}/nine.spec", "--corpus-count", "40",
                  "--seeds", "1", "--steps", "4", "--out-dir", "{d}/nine"],
                 cli.EXIT_CONFIG,
                 r"group parity-negation: model input width 10 exceeds max_seq 9",
                 id="too-long-later-group"),
    pytest.param(["experiment", "--experiment", "2", "--corpus-file", "{d}/c.txt",
                  "--seeds", "1", "--steps", "2", "--out-dir", "{d}/few"],
                 cli.EXIT_CONFIG, r"1 stabilized-window sample\(s\) per group",
                 id="too-few-samples"),
    pytest.param(["train", "--corpus", "{d}/c.txt", "--steps", "0",
                  "--out-dir", "{d}/s0"],
                 cli.EXIT_CONFIG, r"^configuration error: total_steps must be >= 1",
                 id="train-zero-steps"),
    pytest.param(["generate", "--count", "-5", "--out", "{d}/neg.txt"], cli.EXIT_CONFIG,
                 r"^configuration error: count must be non-negative, got -5$",
                 id="generate-negative-count"),
    pytest.param(["train", "--corpus", "{d}/c.txt", "--seed", "-3", "--out-dir", "{d}/s-3"],
                 cli.EXIT_CONFIG, r"^configuration error: seed must be >= 0, got -3$",
                 id="train-negative-seed"),
    pytest.param(["train", "--corpus", "{d}/c.txt", "--peak-lr", "nan",
                  "--out-dir", "{d}/nan"],
                 cli.EXIT_CONFIG,
                 r"^configuration error: peak_lr must be positive and finite, got nan$",
                 id="train-nan-lr"),
    # absent metrics files: the fraction is checked before either is read
    pytest.param(["stats", "--a", "{d}/absent.csv", "--b", "{d}/absent.csv",
                  "--start-fraction", "1.5"],
                 cli.EXIT_CONFIG, r"^configuration error: start_fraction must be in "
                 r"\[0, 1\): 1\.5$", id="stats-start-fraction"),
    pytest.param(["stats", "--a", "{d}/absent.csv", "--b", "{d}/absent.csv",
                  "--start-fraction", "nan"],
                 cli.EXIT_CONFIG, r"^configuration error: start_fraction must be in "
                 r"\[0, 1\): nan$", id="stats-nan-start-fraction"),
    pytest.param(["experiment", "--spec", "{d}/heads.spec", "--out-dir", "{d}/heads"],
                 cli.EXIT_CONFIG,
                 r"^configuration error: model_dim 64 not divisible by heads 3$",
                 id="experiment-heads"),
    pytest.param(["experiment", "--corpus-count", "-5", *_TINY_EXPERIMENT], cli.EXIT_CONFIG,
                 r"^configuration error: count must be non-negative, got -5$",
                 id="experiment-negative-corpus-count"),
    pytest.param(["experiment", "--seed", "-1", *_TINY_EXPERIMENT], cli.EXIT_CONFIG,
                 r"^configuration error: corpus_seed must be >= 0, got -1$",
                 id="experiment-negative-corpus-seed"),
    pytest.param(["experiment", "--corpus-count", "80", "--steps", "4", "--seeds", "1,1",
                  "--groups", "natural,reversed", "--out-dir", "{d}/dup"],
                 cli.EXIT_CONFIG, r"^configuration error: duplicate seeds in spec$",
                 id="experiment-duplicate-seeds"),
    pytest.param(["experiment", "--experiment", "1", "--corpus-file", "{d}/c.txt",
                  *_TINY_EXPERIMENT],
                 cli.EXIT_CONFIG, r"^configuration error: experiment 1 generates its corpus, "
                 r"but corpus_file '\S*c\.txt' is set$",
                 id="experiment-corpus-file-generated"),
    pytest.param(["experiment", "--experiment", "2", *_TINY_EXPERIMENT], cli.EXIT_CONFIG,
                 r"^configuration error: experiment 2 reads an external corpus; set "
                 r"corpus_file$", id="experiment-external-without-corpus-file"),
    # a corpus_file is read whole: a corpus_count beside it, flag or key, is refused
    pytest.param(["experiment", "--corpus-file", "{d}/c.txt", "--corpus-count", "5",
                  *_TINY_EXPERIMENT], cli.EXIT_CONFIG,
                 r"^configuration error: corpus_count 5 is set, but corpus_file "
                 r"'\S*c\.txt' is read whole$", id="corpus-count-flag-with-corpus-file"),
    pytest.param(["experiment", "--experiment", "2", "--spec", "{d}/count.spec",
                  "--corpus-file", "{d}/c.txt", *_TINY_EXPERIMENT], cli.EXIT_CONFIG,
                 r"^configuration error: corpus_count 5 is set, but corpus_file "
                 r"'\S*c\.txt' is read whole$", id="corpus-count-key-with-corpus-file"),
    # a model key of the other architecture, whichever way the arch is set
    pytest.param(["experiment", "--spec", "{d}/lstm-short.spec", *_TINY_EXPERIMENT],
                 cli.EXIT_CONFIG, r"^configuration error: max_seq: a setting of the "
                 r"transformer model, not the lstm$", id="lstm-max-seq"),
    pytest.param(["experiment", "--experiment", "3", "--spec", "{d}/dim.spec",
                  *_TINY_EXPERIMENT],
                 cli.EXIT_CONFIG, r"^configuration error: model_dim: a setting of the "
                 r"transformer model, not the lstm$", id="lstm-model-dim"),
    pytest.param(["experiment", "--spec", "{d}/hidden.spec", *_TINY_EXPERIMENT],
                 cli.EXIT_CONFIG, r"^configuration error: hidden_dim: a setting of the "
                 r"lstm model, not the transformer$", id="transformer-hidden-dim"),
    pytest.param(["experiment", "--spec", "{d}/source.spec", *_TINY_EXPERIMENT],
                 cli.EXIT_CONFIG, r"^configuration error: unknown spec key: 'corpus_source'$",
                 id="corpus-source-key"),
    pytest.param(["experiment", "--spec", "{d}/every.spec", *_TINY_EXPERIMENT],
                 cli.EXIT_CONFIG, r"^configuration error: unknown spec key: 'eval_every'$",
                 id="eval-every-key"),
    # 4 records: a start fraction of 0.9 leaves the last one alone
    pytest.param(["stats", "--a", "{d}/four.csv", "--b", "{d}/four.csv",
                  "--start-fraction", "0.9"],
                 cli.EXIT_CONFIG, r"^configuration error: \S*four\.csv: --start-fraction "
                 r"0\.9 leaves 1 stabilized-window sample\(s\); Welch's t-test needs at "
                 r"least 2$", id="stats-window-too-short"),
    pytest.param(["stats", "--a", "{d}/flat2.csv", "--b", "{d}/flat3.csv"], cli.EXIT_INPUT,
                 r"^input error: \S*flat2\.csv and \S*flat3\.csv: the stabilized-window loss "
                 r"is constant in both \(2\.0 and 3\.0\); Welch's t-test needs variance in "
                 r"at least one$", id="stats-constant-windows"),
    pytest.param(["train", "--corpus", "{d}/absent.txt", "--out-dir", "{d}/t"],
                 cli.EXIT_INPUT, r"absent\.txt", id="missing-corpus"),
    # the flags are checked before the corpus is read
    pytest.param(["train", "--corpus", "{d}/absent.txt", "--seed", "-3",
                  "--out-dir", "{d}/t-3"],
                 cli.EXIT_CONFIG, r"^configuration error: seed must be >= 0, got -3$",
                 id="train-negative-seed-absent-corpus"),
    pytest.param(["stats", "--a", "{d}/word.csv", "--b", "{d}/word.csv"], cli.EXIT_INPUT,
                 r"^input error: \S*word\.csv: line 3: could not convert string to "
                 r"float: 'low'$", id="stats-csv-not-a-number"),
    pytest.param(["stats", "--a", "{d}/short.csv", "--b", "{d}/short.csv"], cli.EXIT_INPUT,
                 r"^input error: \S*short\.csv: line 2: not enough values to unpack",
                 id="stats-csv-short-row"),
    pytest.param(["stats", "--a", "{d}/header.csv", "--b", "{d}/header.csv"], cli.EXIT_INPUT,
                 r"^input error: \S*header\.csv: no records$", id="stats-csv-no-records"),
    pytest.param(["stats", "--a", "{d}/latin.csv", "--b", "{d}/latin.csv"], cli.EXIT_INPUT,
                 r"^input error: \S*latin\.csv: not UTF-8 text \(invalid continuation "
                 r"byte\)$", id="stats-csv-not-utf8"),
    pytest.param(_eval_args("truncated.ckpt"), cli.EXIT_INPUT,
                 r"truncated\.ckpt: truncated at byte offset \d+", id="truncated-ckpt"),
    pytest.param(_eval_args("doubled.ckpt"), cli.EXIT_INPUT,
                 r"doubled\.ckpt: \d+ trailing bytes .* byte offset \d+",
                 id="trailing-bytes-ckpt"),
    pytest.param(_eval_args("latin.ckpt"), cli.EXIT_INPUT,
                 r"^input error: \S*latin\.ckpt: not UTF-8 at byte offset 4 "
                 r"\(invalid start byte\)$", id="eval-ckpt-not-utf8"),
    pytest.param(_eval_args("abc.ckpt"), cli.EXIT_INPUT,
                 r"^input error: \S*abc\.ckpt: config hidden_dim: 'abc' does not parse "
                 r"as int$", id="eval-ckpt-config-value"),
    pytest.param(_eval_args("missing.ckpt"), cli.EXIT_INPUT,
                 r"^input error: \S*missing\.ckpt: tensor out\.b: missing$",
                 id="eval-ckpt-missing-tensor"),
    pytest.param(_eval_args("extra.ckpt"), cli.EXIT_INPUT,
                 r"^input error: \S*extra\.ckpt: tensor l1\.wx: not a tensor of this "
                 r"lstm config$", id="eval-ckpt-extra-tensor"),
    pytest.param(_eval_args("shape.ckpt"), cli.EXIT_INPUT,
                 r"^input error: \S*shape\.ckpt: tensor l0\.wh: shape \(4, 8\), the "
                 r"config needs \(4, 16\)$", id="eval-ckpt-tensor-shape"),
    pytest.param(_eval_args("nonfinite.ckpt", "eight.vocab"), cli.EXIT_INPUT,
                 r"^input error: \S*nonfinite\.ckpt: tensor l0\.wh: holds NaN or inf$",
                 id="eval-ckpt-nonfinite"),
    pytest.param(_eval_args("good.ckpt", "small.vocab"), cli.EXIT_INPUT,
                 r"small\.vocab has 5 tokens but checkpoint \S*good\.ckpt was "
                 r"trained on 8$", id="eval-smaller-vocab"),
    pytest.param(_eval_args("good.ckpt", "big.vocab"), cli.EXIT_INPUT,
                 r"big\.vocab has \d\d+ tokens but checkpoint \S*good\.ckpt was "
                 r"trained on 8$", id="eval-larger-vocab"),
    pytest.param(["train", "--corpus", "{d}/c.txt", "--peak-lr", "50", "--steps", "30",
                  "--batch-size", "16", "--seed", "5", "--out-dir", "{d}/lr"],
                 cli.EXIT_RUNTIME, r"diverged at step \d+ .*seed 5", id="diverged"),
    pytest.param(["transform", "--kind", "reverse", "--in", "{d}/not.txt",
                  "--out", "{d}/not.out"],
                 cli.EXIT_INPUT,
                 r"^input error: \S*not\.txt: line 4: reserved token present$",
                 id="reserved-token"),
    pytest.param(["transform", "--kind", "reverse", "--in", "{d}/space.txt",
                  "--out", "{d}/space.out"],
                 cli.EXIT_INPUT, r"^input error: \S*space\.txt: line 2: empty word",
                 id="transform-stray-space"),
    pytest.param(["train", "--corpus", "{d}/space.txt", "--steps", "2",
                  "--out-dir", "{d}/space"],
                 cli.EXIT_INPUT, r"^input error: \S*space\.txt: line 2: empty word",
                 id="train-stray-space"),
    pytest.param(["eval", "--checkpoint", "{d}/good.ckpt", "--vocab", "{d}/eight.vocab",
                  "--corpus", "{d}/space.txt"],
                 cli.EXIT_INPUT, r"^input error: \S*space\.txt: line 2: empty word",
                 id="eval-stray-space"),
    pytest.param(["transform", "--kind", "reverse", "--in", "{d}/tab.txt",
                  "--out", "{d}/tab.out"],
                 cli.EXIT_INPUT,
                 r"^input error: \S*tab\.txt: line 2: whitespace U\+0009 inside a word$",
                 id="transform-tab"),
    pytest.param(["train", "--corpus", "{d}/nbsp.txt", "--steps", "2",
                  "--out-dir", "{d}/nbsp"],
                 cli.EXIT_INPUT,
                 r"^input error: \S*nbsp\.txt: line 2: whitespace U\+00A0 inside a word$",
                 id="train-nbsp"),
    pytest.param(["eval", "--checkpoint", "{d}/good.ckpt", "--vocab", "{d}/eight.vocab",
                  "--corpus", "{d}/tab.txt"],
                 cli.EXIT_INPUT,
                 r"^input error: \S*tab\.txt: line 2: whitespace U\+0009 inside a word$",
                 id="eval-tab"),
    pytest.param(["eval", "--checkpoint", "{d}/t16.ckpt", "--vocab", "{d}/eight.vocab",
                  "--corpus", "{d}/long.txt"],
                 cli.EXIT_INPUT,
                 r"^input error: \S*long\.txt: line 3: input width 26 exceeds max_seq 16 "
                 r"of checkpoint \S*t16\.ckpt$",
                 id="eval-too-long"),
    pytest.param(_eval_args("good.ckpt", "headless.vocab"), cli.EXIT_INPUT,
                 r"^input error: \S*headless\.vocab: missing special-token header$",
                 id="eval-vocab-no-header"),
    pytest.param(_eval_args("good.ckpt", "repeat.vocab"), cli.EXIT_INPUT,
                 r"^input error: \S*repeat\.vocab: line 7: repeated token 'a'$",
                 id="eval-vocab-repeat"),
    pytest.param(_eval_args("good.ckpt", "unk.vocab"), cli.EXIT_INPUT,
                 r"^input error: \S*unk\.vocab: line 6: repeated token '<unk>'$",
                 id="eval-vocab-repeat-special"),
    pytest.param(_eval_args("good.ckpt", "latin.vocab"), cli.EXIT_INPUT,
                 r"^input error: \S*latin\.vocab: not UTF-8 text \(invalid continuation byte\)$",
                 id="eval-vocab-not-utf8"),
    pytest.param(["train", "--corpus", "{d}/latin.txt", "--steps", "2",
                  "--out-dir", "{d}/latin"],
                 cli.EXIT_INPUT,
                 r"^input error: \S*latin\.txt: not UTF-8 text \(invalid continuation byte\)$",
                 id="train-corpus-not-utf8"),
    pytest.param(["experiment", "--experiment", "2", "--corpus-file", "{d}/latin.txt",
                  *_TINY_EXPERIMENT],
                 cli.EXIT_INPUT,
                 r"^input error: \S*latin\.txt: not UTF-8 text \(invalid continuation byte\)$",
                 id="experiment-corpus-not-utf8"),
    pytest.param(["experiment", "--spec", "{d}/latin.spec"], cli.EXIT_INPUT,
                 r"^input error: \S*latin\.spec: not UTF-8 text \(invalid continuation byte\)$",
                 id="spec-not-utf8"),
    pytest.param(["report", "--run-dir", "{d}/nojson"], cli.EXIT_INPUT,
                 r"^input error: \S*nojson/report\.json: not JSON: ", id="report-not-json"),
    pytest.param(["report", "--run-dir", "{d}/nogroups"], cli.EXIT_INPUT,
                 r"^input error: \S*nogroups/report\.json: missing key 'groups'$",
                 id="report-missing-key"),
    pytest.param(["report", "--run-dir", "{d}/nofields"], cli.EXIT_INPUT,
                 r"^input error: \S*nofields/report\.json: malformed report: .*'seeds'",
                 id="report-missing-group-field"),
    pytest.param(["report", "--run-dir", "{d}/listgroups"], cli.EXIT_INPUT,
                 r"^input error: \S*listgroups/report\.json: malformed report: ",
                 id="report-groups-not-object"),
    # a path of the wrong kind: a directory read as a file
    pytest.param(["transform", "--kind", "reverse", "--in", "{d}/dir", "--out", "{d}/t.out"],
                 cli.EXIT_INPUT, _CANNOT_READ_DIR, id="transform-in-dir"),
    pytest.param(["train", "--corpus", "{d}/dir", "--out-dir", "{d}/t"],
                 cli.EXIT_INPUT, _CANNOT_READ_DIR, id="train-corpus-dir"),
    pytest.param(_eval_args("dir"), cli.EXIT_INPUT, _CANNOT_READ_DIR,
                 id="eval-checkpoint-dir"),
    pytest.param(_eval_args("good.ckpt", "dir"), cli.EXIT_INPUT, _CANNOT_READ_DIR,
                 id="eval-vocab-dir"),
    pytest.param(["eval", "--checkpoint", "{d}/good.ckpt", "--vocab", "{d}/eight.vocab",
                  "--corpus", "{d}/dir"],
                 cli.EXIT_INPUT, _CANNOT_READ_DIR, id="eval-corpus-dir"),
    pytest.param(["experiment", "--spec", "{d}/dir"], cli.EXIT_INPUT, _CANNOT_READ_DIR,
                 id="experiment-spec-dir"),
    # ... a directory written as a file
    pytest.param(["transform", "--kind", "reverse", "--in", "{d}/c.txt", "--out", "{d}/dir"],
                 cli.EXIT_INPUT, _OS_ERROR_ON + r"dir\.tmp' -> '\S*/dir'$",
                 id="transform-out-dir"),
    pytest.param(["generate", "--count", "3", "--out", "{d}/dir"], cli.EXIT_INPUT,
                 _OS_ERROR_ON + r"dir\.tmp' -> '\S*/dir'$", id="generate-out-dir"),
    # ... a regular file as an output directory
    pytest.param(["train", "--corpus", "{d}/c.txt", "--steps", "2", "--out-dir", "{d}/c.txt"],
                 cli.EXIT_INPUT, _OS_ERROR_ON + r"c\.txt'$", id="train-out-dir-file"),
    pytest.param(["experiment", "--corpus-count", "40", "--seeds", "1", "--steps", "4",
                  "--out-dir", "{d}/c.txt"],
                 cli.EXIT_INPUT, _OS_ERROR_ON + r"c\.txt/corpora'$",
                 id="experiment-out-dir-file"),
    # ... a missing file
    pytest.param(["stats", "--a", "{d}/absent.csv", "--b", "{d}/four.csv"], cli.EXIT_INPUT,
                 r"^input error: \S*absent\.csv: cannot read \(No such file or directory\)$",
                 id="stats-missing-csv"),
    pytest.param(["report", "--run-dir", "{d}/absent"], cli.EXIT_INPUT,
                 r"^input error: \S*absent/report\.json: cannot read \(No such file or "
                 r"directory\)$", id="report-missing-run-dir"),
    # a corpus with no sentence: empty, or blank lines only
    *(pytest.param(argv, cli.EXIT_INPUT, rf"^input error: \S*{name}\.txt: no sentences$",
                   id=f"{cmd}-{name}-corpus")
      for name in ("empty", "blank")
      for cmd, argv in (
          ("train", ["train", "--corpus", f"{{d}}/{name}.txt", "--out-dir", f"{{d}}/{name}"]),
          ("eval", ["eval", "--checkpoint", "{d}/good.ckpt", "--vocab", "{d}/eight.vocab",
                    "--corpus", f"{{d}}/{name}.txt"]),
          ("experiment", ["experiment", "--experiment", "2", "--corpus-file",
                          f"{{d}}/{name}.txt", *_TINY_EXPERIMENT]))),
])
def test_cli_exit_code_matrix(bad_inputs, capsys, argv, code, message):
    assert cli.main([a.format(d=bad_inputs) for a in argv]) == code
    assert re.search(message, capsys.readouterr().err.strip())
    if code == cli.EXIT_CONFIG:  # a configuration error writes nothing
        for flag in ("--out", "--out-dir"):
            if flag in argv:
                assert not Path(argv[argv.index(flag) + 1].format(d=bad_inputs)).exists()
    if "{d}/not.out" in argv:  # a rejected transform leaves an existing --out as it was
        assert (bad_inputs / "not.out").read_bytes() == b"an earlier output\n"
    assert not list(bad_inputs.glob("*.tmp"))  # nor does any failed write leave one
    if "{d}/lr" in argv:  # a diverging run keeps the metrics logged so far
        lines = (bad_inputs / "lr" / "metrics.csv").read_text().splitlines()
        assert lines[0] == MetricSeries.CSV_HEADER and len(lines) >= 2


@pytest.mark.parametrize("argv, code", [
    pytest.param(["experiment", "--spec", "{d}/short.spec", "--arch", "lstm",
                  "--corpus-count", "40", "--seeds", "1", "--steps", "4",
                  "--out-dir", "{d}/lstm-short"], cli.EXIT_CONFIG, id="experiment-max-seq-4"),
    pytest.param(["eval", "--checkpoint", "{d}/good.ckpt", "--vocab", "{d}/eight.vocab",
                  "--corpus", "{d}/long.txt"], cli.EXIT_OK, id="eval-long-lines"),
])
def test_lstm_has_no_position_limit(bad_inputs, capsys, argv, code):
    """max_seq is the transformer's alone: the spec of the too-long case is a
    configuration error on an LSTM, which writes nothing, and the corpus of
    the eval-too-long case runs on one."""
    assert cli.main([a.format(d=bad_inputs) for a in argv]) == code
    if argv[0] == "eval":  # each word and EOS of long.txt is predicted: 3 + 26
        assert "tokens=29" in capsys.readouterr().out
    else:
        assert "max_seq: a setting of the transformer model" in capsys.readouterr().err
        assert not (bad_inputs / "lstm-short").exists()


_FLAG_VALUES = st.one_of(st.integers(-3, 9).map(str),
                         st.sampled_from(["nan", "inf", "-inf", "0.25", "0.9"]))
# every drawn learning rate is either rejected or too small to diverge
_FLAG_LRS = st.sampled_from(["-1", "0", "nan", "inf", "-inf", "0.001", "0.01"])
_SUBCOMMAND_FLAGS = {
    "generate": {"--count": _FLAG_VALUES, "--seed": _FLAG_VALUES},
    "train": {"--steps": _FLAG_VALUES, "--peak-lr": _FLAG_LRS,
              "--batch-size": _FLAG_VALUES, "--warmup-fraction": _FLAG_VALUES,
              "--seed": _FLAG_VALUES},
    "stats": {"--start-fraction": _FLAG_VALUES},
}
_flag_runs = itertools.count()


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_FLAGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subcommand_flags_exit_0_or_2(bad_inputs, command, data):
    """Any mix of small, negative, zero, nan and infinite numeric flags runs
    (exit 0) or is a configuration error (exit 2) that creates no output."""
    flags = data.draw(st.fixed_dictionaries({}, optional=_SUBCOMMAND_FLAGS[command]))
    out = bad_inputs / f"flags{next(_flag_runs)}"
    drawn = [f"{flag}={value}" for flag, value in flags.items()]  # so "-inf" is a value
    argv = {
        "generate": ["generate", *drawn, "--out", str(out)],
        # short runs unless the draw sets --steps or --batch-size
        "train": ["train", "--corpus", str(bad_inputs / "c.txt"), "--arch",
                  data.draw(st.sampled_from(["transformer", "lstm"])), "--steps", "4",
                  "--batch-size", "8", *drawn, "--out-dir", str(out)],
        "stats": ["stats", "--a", str(bad_inputs / "four.csv"),
                  "--b", str(bad_inputs / "four.csv"), *drawn],
    }[command]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: a value its type cannot parse
        code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
    if code == cli.EXIT_CONFIG:
        assert not out.exists()
