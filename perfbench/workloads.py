"""One execution of one benchmark workload, in a process of its own.

run.py starts this script once per repetition, so every repetition pays the
real set-up (interpreter start, imports, corpus generation, model init)::

    python3 perfbench/workloads.py --workload exp1-transformer --seed 12345 \
        --trace 0 --spawned <perf_counter at spawn> --work DIR --result FILE

The workload runs with the benchmark's wrappers installed (light ones that
time optimizer steps, model batches and corpus stages; with ``--trace 1``,
spans around every public function of every layer and every Tape op), then
the wrappers are removed and the correctness checks run, outside the timed
part.  The result, with the per-repetition metrics and the environment, is
written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

import numpy as np

import spans
from spans import EVAL, EVAL_BATCH, STEP, TRAIN, clock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import langlab  # noqa: E402
from langlab import (  # noqa: E402
    corpusio, grammar, harness, models, numcore, tokenizer, training, transforms,
)

if Path(langlab.__file__).resolve().parent != (ROOT / "src" / "langlab").resolve():
    raise SystemExit(f"imported langlab from {langlab.__file__}, not from {ROOT / 'src'}")

REFERENCES = Path(__file__).resolve().parent / "references.json"
PPL_RTOL = 1e-6  # held-out / eval perplexity against the stored reference
EXP_RTOL = 1e-12  # perplexity == exp(loss) within each metrics.csv row

# exp* repetitions: the experiment-1/3 presets (10k sentences, 3 groups x
# seeds 1,2,3, batch 64, per-sentence grouping, max_seq 16) shortened from
# 120 to EXP_STEPS steps per run, with the held-out share cut in proportion
# so that training stays most of the time, as in the full experiment.
EXP_STEPS = 8
EXP_HELDOUT = 0.01

# corpus-eval repetitions
CE_SENTENCES = 50_000
CE_EVAL_SENTENCES = 2_000
CE_TRAIN_STEPS = 12

CORPUS_LAYERS = ("grammar", "transforms", "corpusio", "tokenizer")
LAYERS = ("grammar", "transforms", "tokenizer", "corpusio", "numcore",
          "models", "training", "stats", "plots", "harness")
OPS = ("matmul", "gelu", "softmax", "layer_norm", "slice_axis", "concat",
       "sigmoid", "tanh", "mul", "add", "add_bias", "embedding_lookup",
       "cross_entropy", "reshape", "transpose", "scale")

_encode = tokenizer.encode  # the benchmark's own encode loop bypasses wrappers


# ------------------------------------------------------------ instrumentation


def _count_targets(rec, row, args, kwargs, out):
    targets = args[2] if len(args) > 2 else kwargs["targets"]
    ignore = kwargs.get("ignore_id", args[3] if len(args) > 3 else None)
    pad, total = spans.padding_fraction(targets, ignore)
    rec.count("positions", total)
    rec.count("tokens", total - pad)
    rec.note(row, "tokens", total - pad)


def _count_op(rec, row, args, kwargs, out):
    rec.count("ops", 1)
    rec.count("out_bytes", out.data.nbytes)


def _count_loss_op(rec, row, args, kwargs, out):
    _count_targets(rec, row, args, kwargs, out)
    _count_op(rec, row, args, kwargs, out)


def install(rec: spans.Recorder, trace: bool) -> None:
    mods = [m for n, m in sys.modules.items()
            if n == "langlab" or n.startswith("langlab.")]
    rec.wrap(training, "train", "training.train", context=TRAIN, modules=mods)
    rec.wrap(training, "evaluate_perplexity", "training.evaluate_perplexity",
             context=EVAL, modules=mods)
    rec.wrap(training.AdamOptimizer, "step", "training.optimizer", always=True)
    rec.wrap(numcore.Tape, "cross_entropy", "numcore.cross_entropy",
             after=_count_loss_op if trace else _count_targets)
    done = {"train", "evaluate_perplexity"}
    if not trace:
        for module, attr in ((grammar, "generate_corpus"),
                             (transforms, "apply_transform"),
                             (transforms, "transform_file"),
                             (corpusio, "write_corpus"),
                             (corpusio, "read_corpus"),
                             (tokenizer, "build_vocabulary"),
                             (tokenizer, "save_vocabulary"),
                             (tokenizer, "encode")):
            rec.wrap(module, attr, f"{module.__name__.split('.')[-1]}.{attr}",
                     modules=mods)
        return
    for name, fn in list(vars(numcore.Tape).items()):
        if name.startswith("_") or name == "cross_entropy" or not callable(fn):
            continue
        rec.wrap(numcore.Tape, name, f"numcore.{name}",
                 after=None if name == "backward" else _count_op)
    for layer in LAYERS:
        if layer != "numcore":
            rec.wrap_public(importlib.import_module(f"langlab.{layer}"), layer,
                            modules=mods, skip=done)


# ------------------------------------------------------------------ workloads


def run_exp(arch: str, seed: int, work: Path) -> dict:
    spec = harness.ExperimentSpec(
        experiment="1" if arch == "transformer" else "3", arch=arch,
        corpus_seed=seed, heldout_fraction=EXP_HELDOUT,
        training=training.TrainingConfig(total_steps=EXP_STEPS),
        out_dir=str(work / "exp"),
    )
    harness.run_experiment(spec)
    return {"spec": spec, "sentences": spec.corpus_count}


def run_corpus_eval(seed: int, work: Path, rec: spans.Recorder) -> dict:
    kinds = {"reversed": transforms.TransformKind.REVERSE,
             "parity-negation": transforms.TransformKind.PARITY_NEGATION}
    base = grammar.generate_corpus(
        grammar.default_grammar(),
        grammar.GenerationConfig(count=CE_SENTENCES, seed=seed))
    paths = {g: work / f"{g}.txt" for g in ("natural", *kinds)}
    corpusio.write_corpus(paths["natural"], base)
    for group, kind in kinds.items():
        transforms.transform_file(kind, paths["natural"], paths[group])
    back = {g: corpusio.read_corpus(p) for g, p in paths.items()}
    vocab = tokenizer.build_vocabulary(itertools.chain(*back.values()))
    with rec.span("tokenizer.encode"):
        enc = {g: [_encode(vocab, s) for s in sents] for g, sents in back.items()}
    train_set = enc["natural"][:-CE_EVAL_SENTENCES]
    held_set = enc["natural"][-CE_EVAL_SENTENCES:]
    params = models.init_model(models.TransformerConfig(vocab=len(vocab), seed=1))
    _, params = training.train(
        params, train_set, training.TrainingConfig(total_steps=CE_TRAIN_STEPS, seed=1))
    ckpt = work / "model.ckpt"
    models.save_checkpoint(params, ckpt)
    params = models.load_checkpoint(ckpt)
    result = training.evaluate_perplexity(params, held_set, 64)
    return {"base": base, "back": back, "paths": paths, "eval": result,
            "sentences": CE_SENTENCES}


# --------------------------------------------------------------------- checks


def _reference(workload: str, seed: int) -> dict | None:
    """The stored results for this workload when ``seed`` is the seed they
    were made with (the default seed), else None."""
    if not REFERENCES.is_file():  # none stored yet: every reference check fails
        return {}
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return refs.get(workload, {}) if seed == refs["seed"] else None


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def check_exp(state: dict, work: Path) -> tuple[dict, dict]:
    spec = state["spec"]
    out = work / "exp"
    data = json.loads((out / "report.json").read_text(encoding="utf-8"))
    checks = {"report_keys": set(data) == {"experiment", "arch", "groups",
                                           "comparisons", "linearity", "spec"}}
    rows_ok = ppl_ok = True
    for group in spec.groups:
        for seed in spec.seeds:
            lines = (out / "runs" / group / f"seed{seed}" / "metrics.csv").read_text(
                encoding="utf-8").splitlines()[1:]
            rows_ok &= len(lines) == spec.training.total_steps
            for line in lines:
                loss, ppl = (float(v) for v in line.split(",")[1:3])
                rows_ok &= math.isfinite(loss) and math.isfinite(ppl)
                ppl_ok &= abs(math.exp(loss) - ppl) <= EXP_RTOL * ppl
    checks["metrics_rows_finite"] = rows_ok
    checks["perplexity_is_exp_loss"] = ppl_ok
    report_txt = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    observed = {
        "welch_lines": [ln.strip() for ln in report_txt
                        if ln.strip().startswith("natural vs ")],
        "heldout_perplexity": {g: r["heldout_perplexity"]
                               for g, r in data["groups"].items()},
    }
    return checks, observed


def check_corpus_eval(state: dict, work: Path) -> tuple[dict, dict]:
    base, back = state["base"], state["back"]
    rev = transforms.TransformKind.REVERSE
    words = [s.words for s in base]
    checks = {
        "round_trip_exact": [s.words for s in back["natural"]] == words,
        "reverse_twice_identity": len(back["reversed"]) == len(base) and all(
            transforms.apply_transform(rev, r).words == w
            for r, w in zip(back["reversed"], words)),
        "parity_inverts": len(back["parity-negation"]) == len(base) and all(
            transforms.invert_parity_negation(p).words == w
            for p, w in zip(back["parity-negation"], words)),
        "eval_perplexity_finite": math.isfinite(state["eval"].perplexity),
    }
    observed = {
        "corpus_sha256": hashlib.sha256(
            state["paths"]["natural"].read_bytes()).hexdigest(),
        "eval_perplexity": state["eval"].perplexity,
    }
    return checks, observed


def check_references(workload: str, seed: int, observed: dict) -> dict:
    ref = _reference(workload, seed)
    if ref is None:
        return {}
    if workload == "corpus-eval":
        return {
            "ref_corpus_sha256": observed["corpus_sha256"] == ref.get("corpus_sha256"),
            "ref_eval_perplexity": "eval_perplexity" in ref and _close(
                observed["eval_perplexity"], ref["eval_perplexity"], PPL_RTOL),
        }
    ppl = observed["heldout_perplexity"]
    ref_ppl = ref.get("heldout_perplexity", {})
    return {
        "ref_welch_lines": observed["welch_lines"] == ref.get("welch_lines"),
        "ref_heldout_perplexity": set(ppl) == set(ref_ppl) and all(
            len(ppl[g]) == len(ref_ppl[g])
            and all(_close(a, b, PPL_RTOL) for a, b in zip(ppl[g], ref_ppl[g]))
            for g in ppl),
    }


# -------------------------------------------------------------------- metrics


def end_to_end(rec: spans.Recorder, spawned: float, end: float,
               sentences: int) -> dict:
    model_starts = [rec.start[r] for n in ("training.train",
                                           "training.evaluate_perplexity")
                    for r in rec.rows(name=n)]
    steps, batches = rec.windows(STEP), rec.windows(EVAL_BATCH)
    corpus_s = sum(rec.duration(r) for r in range(len(rec.name))
                   if rec.layers[rec.name[r]] in CORPUS_LAYERS
                   and (rec.parent[r] < 0
                        or rec.layers[rec.name[rec.parent[r]]] not in CORPUS_LAYERS))
    return {
        "setup_s": min(model_starts) - spawned,
        "wall_s": end - spawned,
        "step_ms": [(b - a) * 1e3 for a, b in steps],
        "step_tokens_per_s": _rates(rec, steps),
        "batch_tokens_per_s": _rates(rec, batches),
        "corpus_sentences_per_s": sentences / corpus_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _rates(rec: spans.Recorder, windows) -> list[float]:
    """Non-PAD target tokens per second of each window."""
    return [t / (b - a) for t, (a, b) in zip(rec.per_window(windows, "tokens"), windows)]


def per_layer(rec: spans.Recorder) -> dict:
    agg: dict[tuple[str, int], list[float]] = {}  # (name, context) -> [total, self, calls]
    for row, own in enumerate(rec.self_times()):
        a = agg.setdefault((rec.names[rec.name[row]], rec.ctx[row]), [0.0, 0.0, 0])
        a[0] += rec.duration(row)
        a[1] += own
        a[2] += 1

    def ms(pred, column=0) -> float:
        return 1e3 * sum(v[column] for (n, c), v in agg.items() if pred(n, c))

    def layer_self(layer, only=None) -> float:
        return ms(lambda n, c: n.split(".", 1)[0] == layer
                  and (only is None or n in only), column=1)

    steps = [b - a for a, b in rec.windows(STEP)]
    per_step = 1.0 / len(steps)
    c = rec.counters
    out = {
        "numcore.ops_per_step": c.get((TRAIN, "ops"), 0) * per_step,
        "numcore.out_bytes_per_step": c.get((TRAIN, "out_bytes"), 0) * per_step,
    }
    for op in OPS:
        out[f"numcore.op_ms.{op}"] = ms(
            lambda n, ctx, op=op: n == f"numcore.{op}" and ctx == TRAIN) * per_step
    known = {f"numcore.{op}" for op in OPS} | {"numcore.backward"}
    out["numcore.op_ms.other"] = ms(
        lambda n, ctx: n.startswith("numcore.") and n not in known
        and ctx == TRAIN) * per_step
    out["numcore.backward_ms"] = ms(
        lambda n, ctx: n == "numcore.backward" and ctx == TRAIN) * per_step
    out["training.forward_ms"] = ms(
        lambda n, ctx: n == "models.forward" and ctx == TRAIN) * per_step
    out["training.loss_ms"] = out["numcore.op_ms.cross_entropy"]
    out["training.optimizer_ms"] = ms(lambda n, ctx: n == "training.optimizer") * per_step
    out["training.other_ms"] = ms(lambda n, ctx: n == "training.train", column=1) * per_step
    pct, tail, _ = spans.tail_percentile(steps)
    out["training.step_ms_tail"] = tail * 1e3
    out["training.step_tail_pct"] = pct
    out["training.steps"] = len(steps)
    positions = c.get((TRAIN, "positions"), 0)
    out["training.positions_per_step"] = positions * per_step
    out["training.padding_frac"] = (positions - c.get((TRAIN, "tokens"), 0)) / positions
    eval_batches = agg.get(("numcore.cross_entropy", EVAL), [0, 0, 0])[2]
    out["models.eval_forward_ms"] = ms(
        lambda n, ctx: n == "models.forward" and ctx == EVAL) / max(eval_batches, 1)
    out["models.eval_batches"] = eval_batches
    out["models.init_ms"] = layer_self("models", {"models.init_model"})
    out["models.checkpoint_ms"] = layer_self(
        "models", {"models.save_checkpoint", "models.load_checkpoint"})
    out["grammar.generate_ms"] = layer_self("grammar")
    out["transforms.apply_ms"] = layer_self("transforms")
    out["tokenizer.vocab_ms"] = layer_self(
        "tokenizer", {"tokenizer.build_vocabulary", "tokenizer.save_vocabulary",
                      "tokenizer.load_vocabulary"})
    out["tokenizer.encode_ms"] = layer_self("tokenizer", {"tokenizer.encode"})
    out["corpusio.write_ms"] = layer_self("corpusio", {"corpusio.write_corpus"})
    out["corpusio.read_ms"] = layer_self("corpusio", {"corpusio.read_corpus"})
    out["stats.welch_ms"] = layer_self("stats")
    out["plots.svg_ms"] = layer_self("plots")
    out["harness.self_ms"] = layer_self("harness")
    out["trace.spans"] = len(rec.name)
    return out


# ---------------------------------------------------------------- environment


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_effect": _blas_threads(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lib = next((ln.split()[-1] for ln in fh if "openblas" in ln.lower()), None)
    except OSError:
        return None
    if lib is None:
        return None
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return fn()
    return None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text(encoding="utf-8").strip() if path.is_file() else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "langlab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("exp1-transformer", "exp3-lstm", "corpus-eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    rec = spans.Recorder()
    install(rec, bool(args.trace))
    try:
        if args.workload == "corpus-eval":
            state = run_corpus_eval(args.seed, args.work, rec)
        else:
            arch = "transformer" if args.workload == "exp1-transformer" else "lstm"
            state = run_exp(arch, args.seed, args.work)
        end = clock()
    finally:
        rec.restore()
    result = {"metrics": end_to_end(rec, args.spawned, end, state["sentences"])}
    if args.trace:
        result["layers"] = per_layer(rec)
    try:
        if args.workload == "corpus-eval":
            checks, observed = check_corpus_eval(state, args.work)
        else:
            checks, observed = check_exp(state, args.work)
        checks.update(check_references(args.workload, args.seed, observed))
    except Exception:  # a check that cannot run is a failed check
        checks, observed = {"checks_ran": False}, {}
        traceback.print_exc()
    result.update(ok=all(checks.values()), checks=checks, observed=observed,
                  environment=environment())
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
