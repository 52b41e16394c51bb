"""langlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload exp1-transformer --seed 12345 \
        --seconds 40 --trace 0

Run from a checkout of the repository (the package is imported from its
``src/``).  The load is a closed loop with one client: repetitions of the
workload run back to back, each in a fresh process (perfbench/workloads.py)
so that every repetition pays the real set-up, until ``--seconds`` would be
exceeded (at least three repetitions).  BLAS is pinned to one thread for
every repetition.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians over
the repetitions.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics (medians over the traced ones) and the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it record the environment and a readable summary.  Metric meanings
and which workload each one is for are in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tally, tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("exp1-transformer", "exp3-lstm", "corpus-eval")
DEFAULT_SEED = 12345  # the paper's corpus seed; references.json is made with it
# One BLAS thread: on a shared 2-core VM, 2 threads made the run-to-run spread
# of exp1-transformer two to three times wider (see METRICS.md).
BLAS_THREADS = "1"
MIN_REPS = 3
REP_TIMEOUT_S = 150
DEADLINE_S = 160  # never start a repetition that could end past this


def run_rep(workload: str, seed: int, traced: bool) -> tuple[dict | None, float]:
    """One repetition in a fresh process; returns (result or None, seconds)."""
    work = WORK / "rep"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result, log = WORK / "result.json", WORK / "rep.log"
    result.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--spawned", repr(spawned), "--work", str(work), "--result", str(result)]
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            code = proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    took = time.perf_counter() - spawned
    if code != 0 or not result.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
        print(f"repetition failed ({code}):\n  " + "\n  ".join(tail), file=sys.stderr)
        return None, took
    data = json.loads(result.read_text(encoding="utf-8"))
    if not data["ok"]:
        failed = sorted(k for k, v in data["checks"].items() if not v)
        print(f"correctness checks failed: {failed}", file=sys.stderr)
    return data, took


def summarize_e2e(reps: list[dict]) -> tuple[dict, list[str]]:
    def pooled(key):
        return [x for r in reps for x in r["metrics"][key]]

    steps = pooled("step_ms")
    values = {
        "step_ms_p50": statistics.median(steps),
        "train_tokens_per_s": statistics.median(pooled("step_tokens_per_s")),
        "eval_tokens_per_s": statistics.median(pooled("batch_tokens_per_s")),
    }
    for key, value in reps[0]["metrics"].items():
        if not isinstance(value, list):
            values[key] = statistics.median(r["metrics"][key] for r in reps)
    pct, tail, beyond = tail_percentile(steps)
    notes = [f"step_ms_p50 from {len(steps)} steps in {len(reps)} repetitions; "
             f"tail (not gated): p{pct:g} = {tail:.2f} ms with {beyond} steps beyond it"]
    return values, notes


def summarize_layers(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    values = {key: statistics.median(r["layers"][key] for r in traced)
              for key in traced[0]["layers"]}
    base = statistics.median(r["metrics"]["wall_s"] for r in untraced)
    values["trace.untraced_wall_s"] = base
    values["corpus.sentences_per_s"] = statistics.median(
        r["metrics"]["corpus_sentences_per_s"] for r in untraced)
    values["trace.overhead_frac"] = (
        statistics.median(r["metrics"]["wall_s"] for r in traced) / base - 1.0)
    notes = [f"per-layer values are medians over {len(traced)} traced repetitions; "
             f"trace.overhead_frac is traced wall_s over untraced wall_s "
             f"({base:.3f} s, {len(untraced)} repetitions) minus 1",
             f"training.step_ms_tail is p{values['training.step_tail_pct']:g} of "
             f"{values['training.steps']:g} steps; padding_frac is over "
             f"{values['training.positions_per_step']:.0f} positions per step"]
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "langlab" / "__init__.py").is_file():
        print(f"error: no langlab sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    tally = Tally()
    untraced: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    try:
        while True:
            is_traced = bool(args.trace) and len(traced) < len(untraced)
            data, took = run_rep(args.workload, args.seed, is_traced)
            tally.record(data is not None and data["ok"])
            if data is not None:
                (traced if is_traced else untraced).append(data)
            elapsed = time.perf_counter() - started
            enough = tally.attempted >= MIN_REPS and (not args.trace or traced)
            if elapsed + took > DEADLINE_S or (enough and elapsed + took > args.seconds):
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics: dict = {}
    notes: list[str] = []
    if untraced and (traced or not args.trace):
        if args.trace:
            values, notes = summarize_layers(untraced, traced)
        else:
            values, notes = summarize_e2e(untraced)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print(f"error: BENCHMARK.json names metrics this run does not "
                  f"produce: {missing}", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    correct = tally.failed == 0 and bool(metrics)
    env = (untraced or traced or [{}])[0].get("environment", {})
    print(json.dumps({"environment": env, "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))
    print(f"# {args.workload}: {tally.attempted} repetitions, {tally.failed} failed "
          f"(failed_frac {tally.failed_frac:g} of {tally.attempted})")
    for note in notes:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"# {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
