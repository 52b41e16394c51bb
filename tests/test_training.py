import math

import numpy as np
import pytest

from langlab import models, tokenizer
from langlab.models import LstmConfig, TransformerConfig, init_model
from langlab.numcore import Tape
from langlab.training import (
    AdamOptimizer,
    DivergenceError,
    MetricSeries,
    TrainingConfig,
    evaluate_perplexity,
    lr_schedule,
    train,
)
from sentences import sent


def encode_corpus(sentences):
    vocab = tokenizer.build_vocabulary(sentences)
    return vocab, [tokenizer.encode(vocab, s) for s in sentences]


@pytest.fixture(scope="module")
def tiny_setup(small_corpus):
    corpus = small_corpus[:200]
    vocab, encoded = encode_corpus(corpus)
    cfg = TransformerConfig(layers=1, model_dim=32, heads=2, ff_dim=64,
                            max_seq=16, vocab=len(vocab), seed=1)
    return vocab, encoded, cfg


# ------------------------------------------------------------------ schedule


def test_schedule_zero_at_start():
    assert lr_schedule(0, TrainingConfig(total_steps=1000)) == 0.0


def test_schedule_peak_at_warmup_end():
    cfg = TrainingConfig(total_steps=1000, warmup_fraction=0.14, peak_lr=0.01)
    assert lr_schedule(140, cfg) == pytest.approx(0.01, abs=0)


def test_schedule_linear_midpoint():
    cfg = TrainingConfig(total_steps=1000, warmup_fraction=0.14, peak_lr=0.01)
    assert lr_schedule(70, cfg) == pytest.approx(0.005)


def test_schedule_zero_at_end():
    cfg = TrainingConfig(total_steps=1000, warmup_fraction=0.14, peak_lr=0.01)
    assert lr_schedule(1000, cfg) == 0.0


def test_schedule_out_of_range():
    cfg = TrainingConfig(total_steps=100)
    with pytest.raises(ValueError, match="outside"):
        lr_schedule(-1, cfg)
    with pytest.raises(ValueError, match="outside"):
        lr_schedule(101, cfg)


def test_schedule_piecewise_linear_single_peak():
    cfg = TrainingConfig(total_steps=200, warmup_fraction=0.14, peak_lr=1.0)
    values = [lr_schedule(s, cfg) for s in range(201)]
    peak_steps = [s for s, v in enumerate(values) if v == max(values)]
    assert peak_steps == [28]  # ceil(0.14 * 200)
    diffs = np.diff(values)
    assert np.allclose(diffs[:27], diffs[0])    # constant ramp slope
    assert np.allclose(diffs[29:], diffs[-1])   # constant decay slope
    assert diffs[0] > 0 > diffs[-1]


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(total_steps=0).validate()
    with pytest.raises(ValueError):
        TrainingConfig(warmup_fraction=1.0).validate()
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        TrainingConfig(batch_size=0).validate()
    for lr in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="peak_lr must be positive and finite"):
            TrainingConfig(peak_lr=lr).validate()
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainingConfig(seed=-1).validate()
    TrainingConfig(total_steps=1, batch_size=1).validate()


# ---------------------------------------------------------------------- adam


def test_adam_zero_gradient_fixed_point():
    params = init_model(LstmConfig(layers=1, hidden_dim=4, embed_dim=4, vocab=5))
    before = {n: t.data.copy() for n, t in params.tensors.items()}
    opt = AdamOptimizer()
    zero = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
    opt.step(params, zero, 1, lr=0.1)
    for n, t in params.tensors.items():
        assert np.array_equal(t.data, before[n])


def test_adam_first_step_closed_form():
    params = init_model(LstmConfig(layers=1, hidden_dim=4, embed_dim=4, vocab=5))
    before = {n: t.data.copy() for n, t in params.tensors.items()}
    grads = {n: np.full_like(t.data, 0.37) for n, t in params.tensors.items()}
    lr, eps = 0.01, 1e-8
    AdamOptimizer().step(params, grads, 1, lr=lr)
    for n, t in params.tensors.items():
        update = t.data - before[n]
        expected = -lr * 0.37 / (0.37 + eps)
        assert np.all(np.abs(update - expected) < 1e-9)


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(3)
    target = rng.normal(size=12)
    from langlab.models import ModelParameters
    from langlab.numcore import Tensor
    w = Tensor(rng.normal(size=12))
    params = ModelParameters(LstmConfig(), {"w": w})
    opt = AdamOptimizer()
    for step in range(1, 201):
        grad = 2 * (w.data - target)
        opt.step(params, {"w": grad}, step, lr=0.05)
    assert np.linalg.norm(w.data - target) < 1e-3


def test_adam_bit_identical_to_out_of_place_formula():
    """Three steps against the out-of-place update, compared by bytes."""
    params = init_model(LstmConfig(layers=1, hidden_dim=4, embed_dim=4, vocab=5))
    ref = {n: t.data.copy() for n, t in params.tensors.items()}
    m = {n: np.zeros_like(a) for n, a in ref.items()}
    v = {n: np.zeros_like(a) for n, a in ref.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    rng = np.random.default_rng(11)
    opt = AdamOptimizer()
    for step in range(1, 4):
        grads = {n: rng.normal(size=a.shape) for n, a in ref.items()}
        held = {n: t.data for n, t in params.tensors.items()}
        kept = {n: a.copy() for n, a in held.items()}
        opt.step(params, grads, step, lr=lr)
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            m_hat = m[n] / (1 - b1 ** step)
            v_hat = v[n] / (1 - b2 ** step)
            ref[n] = ref[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert params.tensors[n].data.tobytes() == ref[n].tobytes()
            # the array a tape may still hold is never written
            assert held[n].tobytes() == kept[n].tobytes()


def test_adam_shape_mismatch():
    params = init_model(LstmConfig(layers=1, hidden_dim=4, embed_dim=4, vocab=5))
    grads = {"embed": np.zeros((1, 1))}
    with pytest.raises(ValueError, match="shape"):
        AdamOptimizer().step(params, grads, 1, lr=0.1)


# --------------------------------------------------------------------- train


def test_dry_run_two_records(tiny_setup):
    vocab, encoded, cfg = tiny_setup
    params = init_model(cfg)
    series, _ = train(params, encoded, TrainingConfig(total_steps=2, seed=1))
    assert len(series.records) == 2
    assert all(math.isfinite(r.loss) for r in series.records)
    assert [r.step for r in series.records] == [1, 2]


def test_first_logged_loss_near_ln_vocab(tiny_setup):
    vocab, encoded, cfg = tiny_setup
    params = init_model(cfg)
    series, _ = train(params, encoded, TrainingConfig(total_steps=1, seed=1))
    ln_v = math.log(cfg.vocab)
    assert abs(series.records[0].loss - ln_v) < 0.05 * ln_v


def test_training_determinism_byte_identical(tmp_path, tiny_setup):
    vocab, encoded, cfg = tiny_setup
    out = []
    for run in range(2):
        params = init_model(cfg)
        series, _ = train(params, encoded,
                          TrainingConfig(total_steps=8, seed=5), group="natural")
        path = tmp_path / f"run{run}.csv"
        series.to_csv(path)
        out.append(path.read_bytes())
    assert out[0] == out[1]


def test_perplexity_is_exp_loss_bit_exact(tmp_path, tiny_setup):
    vocab, encoded, cfg = tiny_setup
    params = init_model(cfg)
    series, _ = train(params, encoded, TrainingConfig(total_steps=6, seed=2))
    for r in series.records:
        assert r.perplexity == math.exp(r.loss)
    path = tmp_path / "m.csv"
    series.to_csv(path)
    loaded = MetricSeries.from_csv(path)
    for r in loaded.records:
        assert r.perplexity == math.exp(r.loss)  # survives 17-digit round trip


def test_metric_csv_header_and_metadata(tmp_path, tiny_setup):
    vocab, encoded, cfg = tiny_setup
    params = init_model(cfg)
    series, _ = train(params, encoded, TrainingConfig(total_steps=3, seed=4),
                      group="reversed")
    path = tmp_path / "m.csv"
    series.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,perplexity,lr,group,arch,seed"
    assert lines[1].endswith(",reversed,transformer,4")


def test_train_leaves_no_gradients_and_the_same_series(tiny_setup):
    """train moves each step's gradients off the parameters: none holds .grad
    afterwards, and the series and weights match, byte for byte, a loop that
    leaves them on the parameters."""
    vocab, encoded, cfg = tiny_setup
    config = TrainingConfig(total_steps=5, batch_size=16, seed=3)
    series, params = train(init_model(cfg), encoded, config)
    assert [n for n, t in params.tensors.items() if t.grad is not None] == []

    ref, rng, opt, losses = init_model(cfg), np.random.default_rng(3), AdamOptimizer(), []
    order = rng.permutation(len(encoded))
    for step in range(1, 6):
        seqs = [encoded[i] for i in order[(step - 1) * 16:step * 16]]
        tape = Tape()
        logits = models.forward(ref, [s[:-1] for s in seqs], tape)
        loss = tape.cross_entropy(logits, [t for s in seqs for t in s[1:]])
        tape.backward(loss)
        opt.step(ref, {n: t.grad for n, t in ref.tensors.items()}, step,
                 lr_schedule(step, config))
        losses.append(float(loss.data))
    assert [r.loss for r in series.records] == losses
    for name, t in params.tensors.items():
        assert t.data.tobytes() == ref.tensors[name].data.tobytes()


def test_divergence_names_the_first_nonfinite_parameter(tiny_setup):
    vocab, encoded, cfg = tiny_setup
    params = init_model(cfg)
    params.tensors["ln_f.g"].data[0] = np.inf
    params.tensors["l0.ff.w2"].data[3, 1] = np.nan
    with pytest.raises(DivergenceError, match=r"^training diverged at step 1 .*: loss nan; "
                       r"parameter l0\.ff\.w2 holds NaN or inf$") as info:
        train(params, encoded, TrainingConfig(total_steps=2, seed=1))
    assert info.value.series.records == []


def test_vocab_mismatch_rejected(tiny_setup):
    vocab, encoded, cfg = tiny_setup
    small = TransformerConfig(layers=1, model_dim=16, heads=2, ff_dim=32,
                              max_seq=16, vocab=10, seed=1)
    params = init_model(small)
    with pytest.raises(ValueError, match="vocab mismatch"):
        train(params, encoded, TrainingConfig(total_steps=1))


def test_empty_corpus_rejected(tiny_setup):
    _, _, cfg = tiny_setup
    with pytest.raises(ValueError, match="empty"):
        train(init_model(cfg), [], TrainingConfig(total_steps=1))


def test_losses_decline_over_first_50_steps(tiny_setup):
    # diagnostic mirror of the first-50-step figures: median successive
    # difference should be negative for a healthy run; informational only
    vocab, encoded, cfg = tiny_setup
    params = init_model(cfg)
    series, _ = train(params, encoded, TrainingConfig(total_steps=50, seed=1))
    losses = [r.loss for r in series.records]
    med = float(np.median(np.diff(losses)))
    print(f"first-50 median successive loss difference: {med:+.5f}")
    assert losses[-1] < losses[0]  # training moved at all


# ---------------------------------------------------------------- evaluation


def test_uniform_model_perplexity_equals_vocab(tiny_setup):
    vocab, encoded, cfg = tiny_setup
    params = init_model(cfg)
    for t in params.tensors.values():      # zero weights give uniform logits
        t.data = np.zeros_like(t.data)
    result = evaluate_perplexity(params, encoded[:50])
    assert result.perplexity == pytest.approx(cfg.vocab, rel=1e-10)
    assert result.loss == pytest.approx(math.log(cfg.vocab), abs=1e-10)


def test_memorizer_perplexity_approaches_one():
    sentence = sent("the girl is given cats")
    vocab, encoded = encode_corpus([sentence] * 8)
    cfg = TransformerConfig(layers=1, model_dim=32, heads=2, ff_dim=64,
                            max_seq=16, vocab=len(vocab), seed=1)
    params = init_model(cfg)
    _, params = train(params, encoded,
                      TrainingConfig(total_steps=500, batch_size=8,
                                     peak_lr=5e-3, seed=1))
    result = evaluate_perplexity(params, encoded)
    assert result.perplexity <= 1.01


def test_evaluate_empty_rejected(tiny_setup):
    _, _, cfg = tiny_setup
    with pytest.raises(ValueError, match="empty"):
        evaluate_perplexity(init_model(cfg), [])


@pytest.mark.parametrize("arch", ["transformer", "lstm"])
def test_evaluate_predicts_every_id_of_a_row_including_0(tiny_setup, arch):
    """Every id of a row but its first is a target, id 0 too, each predicted
    from the ids before it in its own row: the mean matches a row-by-row
    negative log-likelihood."""
    vocab, _, cfg = tiny_setup
    if arch == "lstm":
        cfg = LstmConfig(hidden_dim=8, embed_dim=8, vocab=len(vocab), seed=1)
    params = init_model(cfg)
    rows = [(1, 5, 0, 6, 2), (1, 7, 8, 2)]
    result = evaluate_perplexity(params, rows)
    assert result.tokens == 7
    nll = []
    for row in rows:
        logits = models.forward(params, [row[:-1]], Tape(record=False)).data
        lse = np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1)) + logits.max(1)
        nll.extend(lse - logits[np.arange(len(row) - 1), row[1:]])
    assert result.loss == pytest.approx(sum(nll) / 7, rel=1e-12)


def test_evaluate_perplexity_identity(tiny_setup):
    vocab, encoded, cfg = tiny_setup
    result = evaluate_perplexity(init_model(cfg), encoded[:30])
    assert result.perplexity == math.exp(result.loss)


def test_every_tape_op_runs_in_training_or_eval(tiny_setup, monkeypatch):
    """Each public Tape op is reached by a training step or an eval batch of
    one of the two models: the Tape carries no op that only tests use."""
    vocab, encoded, cfg = tiny_setup
    called = set()
    ops = [n for n, f in vars(Tape).items()
           if callable(f) and not n.startswith("_") and n != "backward"]
    for name in ops:
        def traced(self, *args, _name=name, _op=getattr(Tape, name), **kwargs):
            called.add(_name)
            return _op(self, *args, **kwargs)
        monkeypatch.setattr(Tape, name, traced)
    for model_cfg in (cfg, LstmConfig(hidden_dim=8, embed_dim=8, vocab=len(vocab))):
        _, params = train(init_model(model_cfg), encoded, TrainingConfig(total_steps=1))
        evaluate_perplexity(params, encoded[:8])
    assert sorted(set(ops) - called) == []
