"""Tests of the benchmark itself, on small instances of each workload.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import csv
import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

if not run.prepare():
    raise SystemExit(2)

import harness  # noqa: E402
import spatreg.estimators  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CliLarge, McCoverage, McLossCurves  # noqa: E402

SMALL = (McCoverage(reps=2), McLossCurves(reps=2), CliLarge(n=400))
SEED = 12345


def _checked(workload, workdir: Path):
    return harness.check_pass(workload, harness.run_pass(workload, SEED, workdir))


def _traced(workload, workdir: Path, memory: bool = False):
    tracer = Tracer(memory=memory)
    with tracer.active():
        result = harness.run_pass(workload, SEED, workdir, tracer)
    return harness.check_pass(workload, result), tracer


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _counters(tracer: Tracer) -> dict:
    return {
        k: v for k, v in tracer.layer_metrics().items()
        if not k.endswith(("_s", ".peak_mb"))
    }


def test_counters_repeat_across_traced_runs(tmp_path: Path):
    for workload in SMALL:
        # As in a traced run, warm up first: the first use of the cached
        # kernel constants evaluates the kernel, and that is set-up work.
        harness.run_pass(workload.warmup(), SEED, tmp_path / f"{workload.name}-warmup")
        _, first = _traced(workload, tmp_path / f"{workload.name}-a")
        _, second = _traced(workload, tmp_path / f"{workload.name}-b")
        counters = _counters(first)
        assert counters == _counters(second), workload.name
        # The dense path evaluates the kernel once per observation per output.
        assert counters["estimators.kernel_evals_per_output"] == workload.n


def test_traced_outputs_match_untraced(tmp_path: Path):
    for workload in SMALL:
        plain = _checked(workload, tmp_path / f"{workload.name}-plain")
        timed, _ = _traced(workload, tmp_path / f"{workload.name}-timed")
        sized, _ = _traced(workload, tmp_path / f"{workload.name}-sized", memory=True)
        assert plain.failed == timed.failed == sized.failed == 0, plain.problems
        assert plain.digests and plain.digests == timed.digests == sized.digests, workload.name


def test_self_times_cover_traced_wall(tmp_path: Path):
    for workload in SMALL:
        result, tracer = _traced(workload, tmp_path / workload.name)
        roots = [s for s in tracer.spans if s.parent < 0]
        assert [s.name for s in roots] == ["harness"]
        root = roots[0]
        covered = sum(s.self_s for s in tracer.spans)
        assert math.isclose(covered, root.end - root.start, rel_tol=1e-9, abs_tol=1e-9)
        assert result.wall <= root.end - root.start <= result.wall + 0.01
        assert all(s.self_s >= -1e-9 for s in tracer.spans)


def test_tracer_restores_the_package():
    original = spatreg.estimators.eval_kernel
    with Tracer().active():
        assert spatreg.estimators.eval_kernel is not original
    assert spatreg.estimators.eval_kernel is original


def test_checks_catch_a_moved_band(tmp_path: Path):
    workload = CliLarge(n=400)
    result = _checked(workload, tmp_path / "band")
    assert result.failed == 0, result.problems

    def widen(rows):
        rows[3]["hi"] = repr(float(rows[3]["hi"]) * (1 + 1e-7))

    _rewrite_csv(tmp_path / "band" / "band-mean.csv", widen)
    problems = workload.check(tmp_path / "band", result.results)
    assert [label for label, found in problems.items() if found] == ["band:mean"]


def test_checks_catch_a_moved_loss(tmp_path: Path):
    workload = McLossCurves(reps=2)  # every replication is rebuilt and checked
    result = _checked(workload, tmp_path / "loss")
    assert result.failed == 0, result.problems

    def move(rows):
        row = next(r for r in rows if r["target"] == "variance" and r["replication"] == "1")
        row["sup_loss"] = repr(float(row["sup_loss"]) * (1 + 1e-7))

    _rewrite_csv(tmp_path / "loss" / "out" / "losses.csv", move)
    assert workload.check(tmp_path / "loss", result.results)["loss-curves"]


def test_checks_catch_a_miscounted_coverage(tmp_path: Path):
    workload = McCoverage(reps=2)
    result = _checked(workload, tmp_path / "cov")
    assert result.failed == 0, result.problems

    def uncover(rows):
        # Counts that still add up, but disagree with the reference bands.
        row = rows[0]
        covered = int(row["covered"])
        row["covered"] = str(covered - 1 if covered else covered + 1)
        row["rate"] = repr(int(row["covered"]) / int(row["total"]))

    _rewrite_csv(tmp_path / "cov" / "out" / "coverage.csv", uncover)
    assert workload.check(tmp_path / "cov", result.results)["mc-coverage"]


def test_checks_catch_coverage_counts_that_do_not_add_up(tmp_path: Path):
    workload = McCoverage(reps=2)
    result = _checked(workload, tmp_path / "cov")
    assert result.failed == 0, result.problems
    path = tmp_path / "cov" / "out" / "coverage.csv"
    text = path.read_text().splitlines()
    fields = text[1].split(",")
    fields[4] = str(int(fields[4]) + 1)  # failures
    path.write_text("\n".join([text[0], ",".join(fields), *text[2:]]) + "\n")
    assert workload.check(tmp_path / "cov", result.results)["mc-coverage"]


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        harness.RUNS.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=harness.RUNS))
        try:
            fn(tmp) if fn.__code__.co_argcount else fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
