"""Benchmark of the gkmgraph command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rank-pinned --seed 1 --seconds 12 --trace 0

One client runs ``python -m gkmgraph.cli`` children one at a time in a closed
loop (``PYTHONPATH=src``; the package is not installed), in whole rounds of
the workload's command list, and checks every output against answers that do
not come from the solver under test (see ``oracle.py``).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the command list once untraced and
once in-process with spans around each layer, and prints the per-layer
metrics.  The last line of standard output is one JSON object; details of the
run go to ``.perfbench/results/`` and a summary to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, Command, DocSpec, Inputs, SetupError, Workload, plan_round, set_up
from proc import ROOT, SRC, Child, run_cli, run_python, spawning
from speed import Speed

OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# Seconds of work the loop samples before and after each set-up stand for.
SETUP_SPEED_S = 3.0
IMPORT_REPEATS = 5
TAIL_BEYOND = 10
# Midpoint-rule steps per sample when integrating the quantile weights.
QUANTILE_STEPS = 64
DEFECT_PREFIX = "error: no completion spans the full lattice"

END_TO_END = {
    "cmds_per_s": "1/s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Record:
    """One command of the list: how it ran and whether its output was right."""

    def __init__(self, cmd: Command, child: Child | None):
        self.cmd, self.child = cmd, child
        self.status = "skipped" if child is None else "ran"
        self.detail = "a command it depends on failed" if child is None else ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def judge(self) -> None:
        """ok, defect (the recorded extend defect), or fail; skipped stays skipped."""
        if self.child is None:
            return
        err = self.child.err()
        if "Traceback (most recent call last)" in err:
            self.status, self.detail = "fail", "traceback: " + err.strip().splitlines()[-1]
        elif self.cmd.kind == "extend" and self.child.rc == 1 and err.startswith(DEFECT_PREFIX):
            self.status, self.detail = "defect", err.strip()
        elif self.child.rc != self.cmd.expect_rc:
            self.status, self.detail = "fail", f"exit {self.child.rc}: {err.strip()[-200:]}"
        else:
            reason = self.cmd.check(self.child.out())
            self.status, self.detail = ("fail", reason) if reason else ("ok", "")

    def runnable(self) -> bool:
        """Whether commands that read this one's output may run."""
        return self.child is not None and self.child.rc == self.cmd.expect_rc

    def summary(self) -> dict:
        c = self.child
        return {
            "id": self.cmd.id, "kind": self.cmd.kind, "doc": self.cmd.doc, "status": self.status,
            "detail": self.detail, "rc": c and c.rc, "wall_s": c and c.wall_s, "maxrss_kb": c and c.maxrss_kb,
        }


def execute(commands: list[Command], runner) -> list[Record]:
    """Run commands in order; a command whose input command failed is skipped."""
    records: dict[str, Record] = {}
    for cmd in commands:
        before = records.get(cmd.after) if cmd.after else None
        if before is not None and not before.runnable():
            records[cmd.id] = Record(cmd, None)
            continue
        child = runner(cmd.id, cmd.args, OUT / "out" / f"{cmd.id}.out", OUT / "out" / f"{cmd.id}.err")
        records[cmd.id] = Record(cmd, child)
    return list(records.values())


def spawn_runner(command_id: str, args: list[str], stdout: Path, stderr: Path) -> Child:
    return run_cli(args, stdout, stderr)


def judge_all(records: list[Record]) -> None:
    """Check outputs after the timed loop; identical outputs are checked once."""
    seen: dict[tuple, tuple[str, str]] = {}
    for rec in records:
        if rec.child is None or rec.cmd.kind in ("project", "extend"):
            rec.judge()
            continue
        key = (rec.cmd.kind, rec.cmd.doc, rec.child.rc, rec.child.out(), rec.child.err())
        if key in seen:
            rec.status, rec.detail = seen[key]
        else:
            rec.judge()
            seen[key] = (rec.status, rec.detail)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile.

    A mean of all order statistics, the i-th weighted by the mass that the
    Beta(p(n+1), (1-p)(n+1)) density puts on ((i-1)/n, i/n).  With a few
    samples per document, a single order statistic jumps between documents
    whose command times lie close together; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = QUANTILE_STEPS * n
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in ((k + 0.5) / steps for k in range(steps))]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [math.fsum(density[i * QUANTILE_STEPS:(i + 1) * QUANTILE_STEPS]) for i in range(n)]
    return math.fsum(w * v for w, v in zip(weights, ordered)) / math.fsum(weights)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its estimate."""
    rank = max(len(times) - TAIL_BEYOND, 1)
    return 100.0 * rank / len(times), quantile(times, rank / len(times))


def machine() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
    }


def set_up_timed(workload: Workload, docs: tuple[DocSpec, ...], seed: int, work: Path) -> tuple[Inputs, list[float], list[float]]:
    """Set up several times; each time is also scaled by loop samples taken around it."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        speed = Speed()
        speed.sample(SETUP_SPEED_S)
        start = time.perf_counter()
        inputs = set_up(workload, docs, seed, work)
        times.append(time.perf_counter() - start)
        speed.sample(SETUP_SPEED_S)
        scaled.append(times[-1] * speed.scale)
    return inputs, times, scaled


def closed_loop(workload: Workload, inputs: Inputs, seed: int, seconds: float, work: Path):
    """Whole rounds, one child at a time, with loop samples between the children.

    Returns the records, the rounds run, the seconds spent outside the loop
    samples, and the machine's speed over the run.
    """
    speed = Speed()
    sampling = sum(speed.sample())

    def runner(command_id: str, args: list[str], stdout: Path, stderr: Path) -> Child:
        nonlocal sampling
        child = run_cli(args, stdout, stderr)
        sampling += sum(speed.sample(child.wall_s))
        return child

    records: list[Record] = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for _ in range(workload.block_rounds):
            records += execute(plan_round(workload, inputs, seed, rounds, work / f"r{rounds}"), runner)
            rounds += 1
    return records, rounds, time.perf_counter() - start - sampling, speed


def end_to_end(records: list[Record], busy_s: float, scale: float, setup_scaled: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, every time taken to the reference speed by ``scale``."""
    ran = [r.child for r in records if r.child is not None]
    times = [c.wall_s for c in ran]
    pct, tail_s = tail(times)
    raw = {
        "cmds_per_s": len(ran) / busy_s,
        "cmd_p50_s": quantile(times, 0.5),
        "cmd_tail_s": tail_s,
    }
    values = {
        "cmds_per_s": raw["cmds_per_s"] / scale,
        "cmd_p50_s": raw["cmd_p50_s"] * scale,
        "cmd_tail_s": raw["cmd_tail_s"] * scale,
        "peak_rss_mb": max(c.maxrss_kb for c in ran) / 1024,
        "setup_s": statistics.median(setup_scaled),
    }
    info = {"tail_percentile": pct, "samples": len(times), "speed_scale": scale, "unscaled": raw}
    return values, info


def traced(workload: Workload, inputs: Inputs, seed: int, work: Path, out_stem: Path):
    import tracer

    tracer.import_gkmgraph()
    imports = [
        run_python(["-c", "import gkmgraph.cli"], work / "import.out", work / "import.err")
        for _ in range(IMPORT_REPEATS)
    ]
    if any(c.rc for c in imports):
        raise SetupError(f"importing gkmgraph.cli failed: {imports[0].err()[-300:]}")
    import_s = statistics.median(c.wall_s for c in imports)
    untraced = execute(plan_round(workload, inputs, seed, 0, work / "u0"), spawn_runner)
    mismatches = tracer.oracle_mismatches(seed)
    t = tracer.Tracer()
    t.install()
    try:
        traced_records = execute(plan_round(workload, inputs, seed, 0, work / "t0"), t.run_main)
    finally:
        t.uninstall()
    walls = {
        tr.cmd.id: u.child.wall_s
        for u, tr in zip(untraced, traced_records)
        if u.child is not None and tr.child is not None
    }
    values = t.metrics(walls, import_s, mismatches)
    t.write(out_stem.with_suffix(".spans.json"))
    return untraced + traced_records, values, {"oracle_mismatches": mismatches, "spans": len(t.spans)}


def run(workload: Workload, docs: tuple[DocSpec, ...], seed: int, seconds: float, trace: bool) -> dict:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (OUT / "out").mkdir(parents=True, exist_ok=True)
    stem = results / f"{workload.name}-seed{seed}-trace{int(trace)}"
    work = OUT / "work" / workload.name
    report = {"workload": workload.name, "seed": seed, "docs": [d.key for d in docs], "machine": machine()}
    with spawning():
        inputs, setup_times, setup_scaled = set_up_timed(workload, docs, seed, work)
        if trace:
            records, values, info = traced(workload, inputs, seed, work, stem)
        else:
            records, rounds, busy_s, speed = closed_loop(workload, inputs, seed, seconds, work)
    report["setup_times_s"], report["setup_scaled_s"] = setup_times, setup_scaled
    judge_all(records)
    if trace:
        from tracer import LAYER_METRICS

        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        oracle_ok = info["oracle_mismatches"] == 0
    else:
        values, info = end_to_end(records, busy_s, speed.scale, setup_scaled)
        info.update(rounds=rounds, busy_s=busy_s, speed_samples=len(speed.samples))
        units = END_TO_END
        oracle_ok = True
    shutil.rmtree(OUT / "out", ignore_errors=True)
    failed = [r for r in records if not r.ok]
    by_document: dict[str, dict[str, int]] = {}
    for r in failed:
        counts = by_document.setdefault(r.cmd.doc, {})
        counts[r.status] = counts.get(r.status, 0) + 1
    result = {
        "correct": oracle_ok and not any(r.status == "fail" for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report.update(info=info, result=result, fail_ratio=len(failed) / len(records),
                  failures_by_document=by_document, commands=[r.summary() for r in records])
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_summary(result, info, report, records)
    return result


def print_summary(result: dict, info: dict, report: dict, records: list[Record]) -> None:
    err = sys.stderr
    print(f"{report['workload']} seed {report['seed']}: {report['machine']}", file=err)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=err)
    print(f"  fail_ratio = {report['fail_ratio']:.6g} ({result['failed']} of {result['attempted']})", file=err)
    if "tail_percentile" in info:
        print(f"  cmd_tail_s is p{info['tail_percentile']:.1f} of {info['samples']} samples", file=err)
        unscaled = ", ".join(f"{k} = {v:.6g}" for k, v in info["unscaled"].items())
        print(f"  times scaled by {info['speed_scale']:.4f} to the reference speed; unscaled: {unscaled}", file=err)
    for r in records:
        if r.status in ("fail", "defect"):
            print(f"  {r.status}: {r.cmd.id} {r.cmd.kind} {r.cmd.doc}: {r.detail}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gkmgraph" / "cli.py").is_file():
        print(f"error: no gkmgraph package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result = run(workload, workload.docs, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
