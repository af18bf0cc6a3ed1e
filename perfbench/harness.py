"""Run one workload of the spatreg benchmark and report its metrics.

Untraced run (--trace 0): run one small warm-up pass, then run passes
until --seconds of pass time have elapsed (at least MIN_PASSES), timing the
set-up in fresh interpreters between passes. Reports the end_to_end metrics
of BENCHMARK.json (times as medians over the run's samples) and prints the
samples on a `samples` line. The peak RSS is read when the last pass ends;
only then are the passes' outputs checked, so the checks' own memory never
shows in it.

Traced run (--trace 1): warm up on pass 0, run it untraced, run the same pass
under the timing tracer and again under the memory tracer, then run the
golden pass. Reports the per_layer metrics of BENCHMARK.json; --seconds
does not apply, the traced work is one pass so that its counters repeat
exactly.

Pass k of a run draws its inputs from the seed SeedSequence([seed, k]). The
golden pass is pass 0 of seed GOLDEN_SEED; golden.json holds the SHA-256 of
each of its output files at the commit that added the benchmark, so
`outputs_bit_identical` tells whether a change moved any output bit, and the
run prints which files moved. It is information, not a check. Every traced
run writes the golden pass's digests to .bench_runs/golden-<workload>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import spatreg
import spatreg.cli
from run import THREAD_SETTINGS
from tracing import Tracer
from workloads import WORKLOADS, CommandResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_PROBES = 9
MIN_PASSES = 3

# Set-up as a CLI invocation pays it: imports, the parser, and the cached
# kernel constants, timed inside a fresh interpreter.
SETUP_PROBE = """\
import time
start = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import spatreg.cli
from spatreg.kernels import kernel_by_name, kernel_constants
spatreg.cli.build_parser()
for name in ("epanechnikov", "uniform", "triangular"):
    kernel_constants(kernel_by_name(name))
print(time.perf_counter() - start)
"""

COMMAND_METRICS = (
    ("simulate", "simulate_s"),
    ("estimate", "estimate_s"),
    ("band", "band_s"),
    ("select-bandwidth", "select_s"),
)


@dataclass
class PassResult:
    workdir: Path
    wall: float
    results: list[CommandResult]
    attempted: int
    digests: dict[str, str]
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def pass_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def output_digests(workdir: Path) -> dict[str, str]:
    return {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


def _run_command(label: str, argv: list[str]) -> CommandResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = spatreg.cli.main(argv)
    except Exception:  # a crash is one failed operation; the run goes on
        code = None
        err.write(traceback.format_exc())
    return CommandResult(label, time.perf_counter() - start, code, err.getvalue())


def run_pass(workload, seed: int, workdir: Path, tracer: Tracer | None = None) -> PassResult:
    """Run the workload's commands for one seed in a fresh directory."""
    workdir.mkdir(parents=True)
    results = []
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        with tracer.span("harness") if tracer else nullcontext():
            start = time.perf_counter()
            for label, argv in workload.commands(seed):
                results.append(_run_command(label, argv))
            wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return PassResult(
        workdir=workdir,
        wall=wall,
        results=results,
        attempted=workload.ops_per_command * len(results),
        digests=output_digests(workdir),
    )


def check_pass(workload, result: PassResult) -> PassResult:
    """Check a pass's outputs; a failed check fails the command's operations."""
    problems = workload.check(result.workdir, result.results)
    result.failed = sum(workload.ops_per_command for found in problems.values() if found)
    result.problems = [p for found in problems.values() for p in found]
    return result


def setup_probe() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def measure(workload, seed: int, seconds: float, workdir: Path):
    """Untraced run: end-to-end values plus every pass made.

    The machine's speed drifts over tens of seconds, so the set-up probes
    are spread over the run between passes rather than taken in one burst.
    """
    run_pass(workload.warmup(), pass_seed(seed, 0), workdir / "warmup")
    passes: list[PassResult] = []
    setup: list[float] = []
    while len(passes) < MIN_PASSES or sum(p.wall for p in passes) < seconds:
        pass_dir = workdir / f"pass{len(passes)}"
        passes.append(run_pass(workload, pass_seed(seed, len(passes)), pass_dir))
        done = min(1.0, sum(p.wall for p in passes) / seconds)
        while len(setup) < SETUP_PROBES * done:
            setup.append(setup_probe())
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for p in passes:
        check_pass(workload, p)
    walls = [p.wall for p in passes]
    print("samples " + json.dumps({"setup_s": setup, "pass_wall_s": walls}))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "reps_per_s": workload.reps_per_pass * len(passes) / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    return values, passes


def moved_outputs(workload_name: str, digests: dict[str, str]) -> list[str]:
    recorded = json.loads(GOLDEN_PATH.read_text())[workload_name]
    return sorted(f for f in set(recorded) | set(digests) if recorded.get(f) != digests.get(f))


def trace_layers(workload, seed: int, workdir: Path):
    """Traced run: per-layer values, every pass made, and the two tracers."""
    # A full-size warm-up, so the untraced pass that the overhead ratio
    # divides by pays no first-use costs the traced passes skip.
    seed0 = pass_seed(seed, 0)
    run_pass(workload, seed0, workdir / "warmup")
    plain = run_pass(workload, seed0, workdir / "plain")
    timing, memory = Tracer(), Tracer(memory=True)
    with timing.active():
        traced = run_pass(workload, seed0, workdir / "traced", timing)
    with memory.active():
        traced_memory = run_pass(workload, seed0, workdir / "traced-memory", memory)
    golden_seed = pass_seed(GOLDEN_SEED, 0)
    golden = plain if seed0 == golden_seed else run_pass(workload, golden_seed, workdir / "golden")
    passes = [plain, traced, traced_memory] + ([golden] if golden is not plain else [])
    for p in passes:
        check_pass(workload, p)
    (RUNS / f"golden-{workload.name}.json").write_text(
        json.dumps({workload.name: golden.digests}, indent=2, sort_keys=True) + "\n"
    )
    moved = moved_outputs(workload.name, golden.digests)
    if moved:
        print(f"outputs moved against golden.json: {', '.join(moved)}")
    if not traced.digests == traced_memory.digests == plain.digests:
        print("traced outputs differ from untraced outputs")
    values = timing.layer_metrics()
    values.update((k, v) for k, v in memory.layer_metrics().items() if k.endswith(".peak_mb"))
    values["trace.overhead_ratio"] = traced.wall / plain.wall
    values["outputs_bit_identical"] = int(not moved)
    for command, metric in COMMAND_METRICS:
        values[metric] = sum(r.seconds for r in plain.results if r.command == command)
    return values, passes, (timing, memory)


def manifest(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "spatreg": spatreg.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_SETTINGS},
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def result_line(kind: str, values: dict, passes: list[PassResult]) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = dict(values, failed_frac=failed / attempted)
    metrics = {}
    for metric in spec:
        value = values[metric["name"]]
        metrics[metric["name"]] = {
            "value": value if isinstance(value, int) else float(value),
            "unit": metric["unit"],
        }
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload]
        if args.trace:
            values, passes, tracers = trace_layers(workload, args.seed, workdir)
            spans = RUNS / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans.write_text("".join(
                json.dumps(dict(span.record(), tracer=kind)) + "\n"
                for kind, tracer in zip(("timing", "memory"), tracers)
                for span in tracer.spans
            ))
        else:
            values, passes = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = manifest(args)
    (RUNS / f"manifest-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2) + "\n"
    )
    for p in passes:
        for problem in p.problems:
            print(f"check failed: {problem}")
    print("manifest " + json.dumps(info))
    print(result_line("per_layer" if args.trace else "end_to_end", values, passes))
    return 0
