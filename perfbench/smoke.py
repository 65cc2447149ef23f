"""Smoke check of the benchmark on the smallest documents.

Runs every workload, untraced and traced, on s6, projective(3) and
grassmannian(2) (see ``inputs.SMOKE_DOCS``) and exits 1 unless every command
path of each workload passed its check at least once.  The only failures
allowed are the recorded ``extend`` defect and the ``check-extension`` that
depends on it, which the drawn projections hit on these documents too::

    python3 perfbench/smoke.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from inputs import SMOKE_DOCS, WORKLOADS

PATHS = {
    "rank-pinned": {"rank", "rank --basis"},
    "infer-validate": {"validate", "validate corrupted", "connection", "invariant", "dot"},
    "extend-roundtrip": {"project", "extend", "check-extension extended", "check-extension original"},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    problems = []
    for name, docs in SMOKE_DOCS.items():
        passed = set()
        for trace in (False, True):
            result = run.run(WORKLOADS[name], docs, args.seed, 0, trace)
            report = run.OUT / "results" / f"{name}-seed{args.seed}-trace{int(trace)}.json"
            commands = json.loads(report.read_text(encoding="utf-8"))["commands"]
            passed |= {c["kind"] for c in commands if c["status"] == "ok"}
            unexpected = [c for c in commands if c["status"] == "fail"]
            if not result["correct"] or unexpected:
                problems.append(f"{name} trace={int(trace)}: {unexpected[:3]}")
        if PATHS[name] - passed:
            problems.append(f"{name}: never passed {sorted(PATHS[name] - passed)}")
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
