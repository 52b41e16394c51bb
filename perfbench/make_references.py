"""Regenerate perfbench/references.json from one default-seed repetition of
each workload.

    python3 perfbench/make_references.py

Rerun only when a deliberate change to the library alters its results, and
commit the regenerated file; the benchmark compares default-seed runs with it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    refs = {"seed": run.DEFAULT_SEED}
    run.WORK.mkdir(exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            data, _ = run.run_rep(workload, run.DEFAULT_SEED, traced=False)
            if data is None:
                return 1
            failed = [k for k, v in data["checks"].items()
                      if not v and not k.startswith("ref_")]
            if failed:
                print(f"{workload}: invariant checks failed: {failed}", file=sys.stderr)
                return 1
            refs[workload] = data["observed"]
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    out = Path(__file__).resolve().parent / "references.json"
    out.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
