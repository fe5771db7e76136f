"""Benchmark of the parl testbed: `parl run --check` and `parl eval --verify`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper3 --seed 0 --seconds 50 --trace 0

Workloads (all five arms, default config apart from robots and scenarios):

- paper3: `parl run --check` with 3 robots, the paper's headline comparison.
- fleet6: the same with 6 robots; cloud labeling grows faster than the scorer.
- reeval: `parl eval --verify` over the artifacts of a paper3 run that is made,
  untimed, before the timed ops.

The timed suite (the workloads of BENCHMARK.json) is paper3 and reeval; fleet6
runs by name, for the labeling-path scaling it shows.

Every op is one fresh single-threaded process (BLAS/OpenMP pinned to one
thread) whose artifacts go under a temporary `PARL_OUTPUT_ROOT` inside
`.bench_build/`, removed afterwards. Ops repeat, one at a time, until about
`--seconds` have passed, and at least three times. After each `run` op an
untimed `parl eval --verify` checks it, and its artifacts must match the first
op's byte for byte (`report.json` compared without its `output_dir` line). An
op fails if it raises, exits with a code other than 0 or 2 (2 is `--check`
reporting acceptance problems, which are results, not failures), fails the
gate, or differs from the first op.

`--seed k` sets world/augment/protocol seeds to 31+k/11+k/13+k; k=0 gives the
config defaults. `--size` picks scenarios per robot per task: `bench` (3, the
default) is the smallest config that completes, so a run fits several ops;
`full` (20) is the default config, about 40 s (paper3) and 90 s (fleet6) an op.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json. `wall_norm` is each op's wall time divided by the host probe's
median during it (see child.py), which cancels the host's speed drift;
`setup_s` is each process's set-up time scaled by the same probe to a
reference host speed. With `--trace 1` the run also makes a traced op before
and one after the timed ops, checks the tracer's coverage and that both traced
ops give identical call and byte counts, and reports the per-layer metrics
instead.
`--results PATH` writes the full record (metadata, per-op samples, quartiles,
artifact hashes). `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path.cwd()
CHILD = Path(__file__).resolve().parent / "child.py"

WORKLOAD_ROBOTS = {"paper3": 3, "fleet6": 6, "reeval": 3}
SAMPLES_PER_TASK = {"bench": 3, "full": 20}
DEFAULT_SEEDS = (31, 11, 13)
MIN_OPS = 3  # a median of at least three ops, whatever --seconds says
MAX_OPS = 1000
SPAN_STATS = ("calls", "s", "self_s", "p50_ms", "p99_ms")
GROUP_STATS = {"count": "calls", "s": "s", "bytes": "bytes"}
# `setup_s` is each process's launch-to-ready time scaled to a reference host
# speed: the raw time times REFERENCE_PROBE_S over the median of the host
# probe (child.py) sampled while that process ran its command. Any fixed value
# does; the probe reads 6-9 us on a shared 2-vCPU Xeon host, and 6 us keeps
# `setup_s` near the seconds that host shows in its faster phases.
REFERENCE_PROBE_S = 6e-6

# Spans reeval must exercise. On reeval every other named span must record
# zero calls: it reads a paper3 run's artifacts and never augments or rounds.
REEVAL_SPANS = frozenset({
    "codec.decode", "styles.fit_style", "world.segment", "policy.featurize",
    "policy.features_from_maps", "policy.evaluate",
})
ARTIFACT_GLOBS = ("report.json", "candidates.dm1", "models/*.dm1", "uploads/*.bin")


class BenchError(Exception):
    """The benchmark cannot run here at all."""


@dataclass
class Launch:
    rc: Optional[int]
    stdout: str
    stderr: str
    setup_s: float
    probe_s: float
    wall_s: float
    rss_mb: float
    record: dict


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    probe_s: float
    rss_mb: float
    ok: bool
    reason: str = ""


@dataclass
class State:
    """What one workload run accumulates."""

    setups: list[float] = field(default_factory=list)
    setups_raw: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    traced: list[Launch] = field(default_factory=list)
    reference: Optional[tuple] = None
    hashes: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    report: Optional[dict] = None
    acceptance_problems: Optional[int] = None
    problems: list[str] = field(default_factory=list)

    def add_setup(self, launch: Launch) -> None:
        self.setups_raw.append(launch.setup_s)
        if launch.probe_s:
            self.setups.append(launch.setup_s * REFERENCE_PROBE_S / launch.probe_s)


def seeds_for(k: int) -> tuple[int, int, int]:
    return tuple(s + k for s in DEFAULT_SEEDS)


def config_flags(workload: str, size: str, seed: int) -> list[str]:
    world, augment, protocol = seeds_for(seed)
    return [
        "--robots", str(WORKLOAD_ROBOTS[workload]),
        "--samples-per-task", str(SAMPLES_PER_TASK[size]),
        "--world-seed", str(world),
        "--augment-seed", str(augment),
        "--protocol-seed", str(protocol),
    ]


class Runner:
    """Launches child processes one at a time inside a private temp dir."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.counter = 0
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })

    def fresh_dir(self, stem: str) -> Path:
        self.counter += 1
        path = self.tmp / f"{stem}-{self.counter}"
        path.mkdir(parents=True)
        return path

    def launch(self, argv: list[str], trace: bool = False, output_root: Optional[Path] = None) -> Launch:
        self.counter += 1
        out_json = self.tmp / f"child-{self.counter}.json"
        env = dict(self.env)
        if output_root is not None:
            env["PARL_OUTPUT_ROOT"] = str(output_root)
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(out_json), "1" if trace else "0", *argv],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
        if not out_json.exists():
            return Launch(proc.returncode or 1, proc.stdout, proc.stderr, 0.0, 0.0, 0.0, 0.0, {})
        record = json.loads(out_json.read_text(encoding="utf-8"))
        out_json.unlink()
        expected = (ROOT / "src" / "parl").resolve()
        if Path(record["parl_file"]).resolve().parent != expected:
            raise BenchError(f"child imported parl from {record['parl_file']}, not {expected}")
        return Launch(
            rc=record["rc"] if proc.returncode == 0 else proc.returncode,
            stdout=proc.stdout,
            stderr=proc.stderr,
            setup_s=record["ready"] - launched,
            probe_s=record["probe_s"] or 0.0,
            wall_s=record["end"] - record["start"],
            rss_mb=record["maxrss_kb"] / 1024.0,
            record=record,
        )


def artifact_hashes(run_dir: Path) -> dict[str, str]:
    hashes = {}
    for pattern in ARTIFACT_GLOBS:
        for path in sorted(run_dir.glob(pattern)):
            hashes[path.relative_to(run_dir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def tree_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())


def normalized_report(text: str) -> str:
    return "".join(line for line in text.splitlines(True) if '"output_dir"' not in line)


def check_run(runner: Runner, state: State, launch: Launch, out: Path) -> list[str]:
    """Problems with a finished `parl run --check` (empty means it passed)."""
    if launch.rc not in (0, 2):
        return [f"run exited {launch.rc}: {launch.stderr.strip()[-300:]}"]
    checks = [line for line in launch.stdout.splitlines() if line.startswith("CHECK ")]
    if not checks or (launch.rc == 0) != (checks == ["CHECK PASS"]):
        return [f"run exited {launch.rc} with check lines {checks}"]
    gate = runner.launch(["eval", str(out), "--verify"])
    state.add_setup(gate)
    if gate.rc != 0 or "VERIFY PASS" not in gate.stdout:
        return [f"eval --verify failed (exit {gate.rc}): {gate.stdout.strip()[-300:]}"]
    return []


def keep_first(state: State, launch: Launch, out: Path) -> None:
    """Record the workload's first run: its artifacts, report and check result."""
    state.hashes = artifact_hashes(out)
    state.artifact_bytes = tree_bytes(out)
    state.report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    state.acceptance_problems = sum(line.startswith("CHECK FAIL") for line in launch.stdout.splitlines())


def compare_with_first(state: State, launch: Launch, out: Path) -> list[str]:
    """Problems if a run's artifacts differ from the workload's first op."""
    hashes = artifact_hashes(out)
    key = (
        normalized_report((out / "report.json").read_text(encoding="utf-8")),
        {k: v for k, v in hashes.items() if k != "report.json"},
    )
    if state.reference is None:
        state.reference = key
        keep_first(state, launch, out)
        return []
    if key[0] != state.reference[0]:
        return ["report.json differs from the first op"]
    first = state.reference[1]
    changed = sorted(k for k in set(key[1]) | set(first) if key[1].get(k) != first.get(k))
    return [f"artifacts differ from the first op: {changed}"] if changed else []


def run_op(runner: Runner, state: State, workload: str, size: str, seed: int, trace: bool,
           input_dir: Optional[Path]) -> Launch:
    """One timed (or traced) op and its untimed correctness gate."""
    if workload == "reeval":
        launch = runner.launch(["eval", str(input_dir), "--verify"], trace=trace)
        problems = []
        if launch.rc != 0 or "VERIFY PASS" not in launch.stdout:
            problems.append(f"eval --verify failed (exit {launch.rc}): {launch.stdout.strip()[-300:]}")
        elif state.reference is None:
            state.reference = (launch.stdout,)
        elif launch.stdout != state.reference[0]:
            problems.append("eval output differs from the first op")
    else:
        root = runner.fresh_dir("op")
        out = root / "parl-out"
        launch = runner.launch(["run", "--check", *config_flags(workload, size, seed)],
                               trace=trace, output_root=root)
        problems = check_run(runner, state, launch, out)
        if not problems:
            problems = compare_with_first(state, launch, out)
        shutil.rmtree(root)
    state.add_setup(launch)
    if not trace:
        record = launch.record
        state.ops.append(Op(launch.wall_s, record.get("cpu_s", 0.0), launch.probe_s,
                            launch.rss_mb, not problems, "; ".join(problems)))
    state.problems.extend(problems)
    return launch


def prepare_input(runner: Runner, state: State, size: str, seed: int) -> Path:
    """The paper3 run whose artifacts reeval reads; made once, untimed."""
    root = runner.fresh_dir("input")
    out = root / "parl-out"
    launch = runner.launch(["run", "--check", *config_flags("paper3", size, seed)], output_root=root)
    problems = check_run(runner, state, launch, out)
    if problems:
        raise BenchError(f"reeval input run failed: {problems}")
    keep_first(state, launch, out)
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def derived_metrics(state: State, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics that are not a span's or group's own statistic."""
    report = state.report
    aug = report["augmentation"]
    traces = [launch.record["trace"] for launch in state.traced]
    return {
        "codec.artifact_bytes": state.artifact_bytes,
        "augment.accept_ratio": aug["accepted"] / max(aug["attempts"], 1),
        "augment.insertion_failure_ratio": aug["insertion_failures"] / max(aug["attempts"], 1),
        "report.parl_failure_rate": report["overall"]["parl"]["failure_rate"],
        "report.parl_error": report["overall"]["parl"]["error"],
        "report.acceptance_problems": state.acceptance_problems,
        "tracing.overhead_s": statistics.median(t.wall_s for t in state.traced) - untraced_wall,
        "baselines.qualitative_table.raw_score_calls": traces[0]["raw_score_calls_in_table"],
    }


def span_metric(traces: list[dict], name: str) -> Optional[float]:
    """`<span>.<stat>` from the traced ops, or None if no span or group has it."""
    span, stat = name.rsplit(".", 1)
    if span in traces[0]["groups"] and stat in GROUP_STATS:
        table, stat = "groups", GROUP_STATS[stat]
    elif span in traces[0]["spans"] and stat in SPAN_STATS:
        table = "spans"
    else:
        return None
    if stat in ("calls", "bytes"):  # deterministic: check_traces compares the ops
        return traces[0][table][span][stat]
    return statistics.median(t[table][span][stat] for t in traces)


def check_traces(traces: list[dict], workload: str, span_names: list[str]) -> list[str]:
    """Tracer coverage, reeval isolation and call/byte-count determinism."""
    problems = [f"names left unwrapped: {t['unwrapped']}" for t in traces if t["unwrapped"]]
    first = traces[0]
    for other in traces[1:]:
        counts = [(f"{span}.calls", entry["calls"], other["spans"][span]["calls"])
                  for span, entry in first["spans"].items()]
        for group, entry in first["groups"].items():
            counts += [(f"{group}.{stat}", entry[stat], other["groups"][group][stat])
                       for stat in ("calls", "bytes")]
        counts.append(("raw_score_calls_in_table", first["raw_score_calls_in_table"],
                       other["raw_score_calls_in_table"]))
        problems += [f"{name} differs between traced ops ({a} vs {b})"
                     for name, a, b in counts if a != b]
    spans = set()
    for name in span_names:
        if span_metric(traces, name) is None:
            problems.append(f"{name}: the tracer has no such span or statistic")
        else:
            spans.add(name.rsplit(".", 1)[0])
    for span in sorted(spans):
        calls = (first["groups"].get(span) or first["spans"][span])["calls"]
        if workload != "reeval" or span in REEVAL_SPANS:
            if calls == 0:
                problems.append(f"{span}: zero calls on {workload}")
        elif calls != 0:
            problems.append(f"{span}: {calls} calls on reeval, which must not reach it")
    return problems


def run_workload(bench: dict, workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    tmp = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    runner = Runner(tmp)
    state = State()
    try:
        input_dir = prepare_input(runner, state, size, seed) if workload == "reeval" else None
        # One traced op on each side of the timed loop, so that a drift in
        # host speed during the run cancels out of tracing.overhead_s.
        if trace:
            state.traced.append(run_op(runner, state, workload, size, seed, True, input_dir))
        loop_start = time.monotonic()
        cycles = []
        while len(state.ops) < MAX_OPS:
            started = time.monotonic()
            run_op(runner, state, workload, size, seed, False, input_dir)
            now = time.monotonic()
            cycles.append(now - started)
            if len(state.ops) >= MIN_OPS and now - loop_start + statistics.median(cycles) > seconds:
                break
        if trace:
            state.traced.append(run_op(runner, state, workload, size, seed, True, input_dir))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    walls = [op.wall_s for op in state.ops]
    samples = {
        "wall_norm": [op.wall_s / op.probe_s for op in state.ops if op.probe_s],
        "wall_s": walls,
        "setup_s": state.setups,
        "setup_raw_s": state.setups_raw,
        "peak_rss_mb": [op.rss_mb for op in state.ops],
    }
    failed = sum(not op.ok for op in state.ops)
    metrics = {}
    if trace:
        if state.report is None or any("trace" not in launch.record for launch in state.traced):
            raise BenchError(f"{workload}: traced ops did not complete: {state.problems}")
        traces = [launch.record["trace"] for launch in state.traced]
        derived = derived_metrics(state, statistics.median(walls))
        span_names = [m["name"] for m in bench["per_layer"] if m["name"] not in derived]
        state.problems.extend(check_traces(traces, workload, span_names))
        for m in bench["per_layer"]:
            value = derived[m["name"]] if m["name"] in derived else span_metric(traces, m["name"])
            if value is not None:  # a missing span is already one of the problems
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
    result = {
        "correct": not state.problems,
        "attempted": len(state.ops),
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seeds": dict(zip(("world_seed", "augment_seed", "protocol_seed"), seeds_for(seed))),
        "size": size,
        "config_flags": config_flags(workload, size, seed),
        "seconds": seconds,
        "trace": trace,
        "op_failure_ratio": failed / max(len(state.ops), 1),
        "problems": state.problems,
        "samples": {name: quartiles(values) for name, values in samples.items()},
        "ops": [vars(op) for op in state.ops],
        "traced_wall_s": [launch.wall_s for launch in state.traced],
        "artifact_hashes": state.hashes,
        "artifact_bytes": state.artifact_bytes,
        "report_overall": state.report["overall"] if state.report else None,
        "acceptance_problems": state.acceptance_problems,
        "result": result,
    }
    return details


def metadata() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_ROBOTS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="seed offset k >= 0 (default 0)")
    parser.add_argument("--seconds", type=float, default=50.0, help="time to spend on timed ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SAMPLES_PER_TASK), default="bench")
    parser.add_argument("--results", metavar="PATH", help="write the full results record here")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and waited
    # for, and the temp dir removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "parl" / "__init__.py").is_file():
        print(f"perfbench: no parl sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    runs = {}
    try:
        for workload in workloads:
            runs[workload] = run_workload(bench, workload, args.seed, args.seconds, bool(args.trace), args.size)
            for problem in runs[workload]["problems"]:
                print(f"{workload}: PROBLEM {problem}")
            for name, metric in runs[workload]["result"]["metrics"].items():
                print(f"{workload:7s} {name:48s} {metric['value']:.6g} {metric['unit']}")
            for name in ("wall_s", "setup_raw_s"):
                print(f"{workload:7s} {name + ' (unnormalized median)':48s} "
                      f"{runs[workload]['samples'][name]['median']:.6g} s")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.results:
        doc = {"metadata": metadata(), "workloads": runs}
        Path(args.results).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    results = {w: r["result"] for w, r in runs.items()}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
