"""The benchmark's workloads: the CLI commands of one pass and the checks on
their outputs.

A pass is the unit the benchmark times. Every command runs serially
(--workers 1) through spatreg.cli.main inside the benchmark process, with
the pass directory as the working directory, so the outputs (config echoes
included) do not depend on where the checkout lives.

An operation is one Monte Carlo replication or one CLI command. An operation
fails when its command raises, exits nonzero or fails an output check. The
checks test relations the outputs must satisfy (counts that add up, curves,
bands and losses that agree with a dense reference to 1e-9 relative), never
exact bits or the generator's bit stream: a Monte Carlo replication's
dataset is rebuilt with the checked commit's own generator.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial

import reference
from spatreg.montecarlo import McConfig, _replication_dataset

MC_POINTS = "-0.5:0.1:0.5"
GRID_POINTS = -0.5 + 0.1 * np.arange(11)  # the CLI default "-0.5:0.1:0.5"
RTOL = 1e-9
LOSS_CHECK_REPS = 3  # loss-curve replications rebuilt and checked per pass


@dataclass(frozen=True)
class CommandResult:
    label: str
    seconds: float
    code: int | None
    stderr: str

    @property
    def command(self) -> str:
        return self.label.split(":")[0]


class McCoverage:
    """mc-coverage at the criterion-5 configuration: n=750, b=h=0.5, tau 0.05."""

    name = "mc-coverage"

    def __init__(self, reps: int = 10, n: int = 750):
        self.reps, self.n = reps, n
        self.reps_per_pass = self.ops_per_command = reps

    def warmup(self) -> "McCoverage":
        return McCoverage(reps=1, n=self.n)

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        return [(
            "mc-coverage",
            ["mc-coverage", "--replications", str(self.reps), "--n", str(self.n),
             "--points", MC_POINTS, "--bandwidth", "0.5", "--variance-bandwidth", "0.5",
             "--tau", "0.05", "--workers", "1", "--seed", str(seed), "--outdir", "out"],
        )]

    def check(self, workdir: Path, results: list[CommandResult]) -> dict[str, list[str]]:
        return _check_each(results, lambda: _check_coverage(workdir / "out", self.reps))


class McLossCurves:
    """loss-curves at its defaults: n=750, pilot 1.0, 20 candidates, 11 points."""

    name = "mc-loss-curves"
    grid_size = 20

    def __init__(self, reps: int = 10, n: int = 750):
        self.reps, self.n = reps, n
        self.reps_per_pass = self.ops_per_command = reps

    def warmup(self) -> "McLossCurves":
        return McLossCurves(reps=1, n=self.n)

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        return [(
            "loss-curves",
            ["loss-curves", "--replications", str(self.reps), "--n", str(self.n),
             "--workers", "1", "--seed", str(seed), "--outdir", "out"],
        )]

    def check(self, workdir: Path, results: list[CommandResult]) -> dict[str, list[str]]:
        outdir = workdir / "out"
        return _check_each(results, lambda: _check_losses(outdir, self.reps, self.grid_size))


class CliLarge:
    """One dataset through simulate, estimate (4 targets), band (3 targets) and
    select-bandwidth, every command at its default grids."""

    name = "cli-large"
    estimate_targets = ("density", "mean", "jackknife", "variance")
    band_targets = ("density", "mean", "variance")

    def __init__(self, n: int = 5000):
        self.n = n
        self.reps_per_pass = 1
        self.ops_per_command = 1

    def warmup(self) -> "CliLarge":
        return CliLarge(n=300)

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        common = ["--workers", "1"]
        out = [("simulate", ["simulate", "--n", str(self.n), "--seed", str(seed),
                             "--out", "data.csv", *common])]
        for t in self.estimate_targets:
            out.append((f"estimate:{t}", ["estimate", "--in", "data.csv", "--target", t,
                                          "--out", f"estimate-{t}.csv", *common]))
        for t in self.band_targets:
            out.append((f"band:{t}", ["band", "--in", "data.csv", "--target", t,
                                      "--out", f"band-{t}.csv", *common]))
        out.append(("select-bandwidth", ["select-bandwidth", "--in", "data.csv",
                                         "--out", "selection.json", *common]))
        return out

    def check(self, workdir: Path, results: list[CommandResult]) -> dict[str, list[str]]:
        problems = {r.label: _exit_problems(r) for r in results}
        try:
            data = _read_dataset(workdir / "data.csv", self.n)
        except (OSError, ValueError) as exc:
            return {label: found + [f"dataset unreadable: {exc}"] for label, found in problems.items()}
        ref = _Reference(*data)
        checks = {"simulate": lambda: _check_simulate(workdir, ref)}
        for t in self.estimate_targets:
            checks[f"estimate:{t}"] = lambda t=t: _check_estimate(workdir / f"estimate-{t}.csv", t, ref)
        for t in self.band_targets:
            checks[f"band:{t}"] = lambda t=t: _check_band(workdir / f"band-{t}.csv", t, ref)
        checks["select-bandwidth"] = lambda: _check_selection(workdir / "selection.json", ref)
        for label, check in checks.items():
            if not problems[label]:
                problems[label] = _guarded(check)
        return problems


WORKLOADS = {w.name: w for w in (McCoverage(), McLossCurves(), CliLarge())}


def _exit_problems(result: CommandResult) -> list[str]:
    if result.code == 0:
        return []
    return [f"{result.label} exited {result.code}: {result.stderr.strip()[-500:]}"]


def _guarded(check) -> list[str]:
    # A missing or malformed output file is a failed check, not a benchmark crash.
    try:
        return check()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def _check_each(results: list[CommandResult], check) -> dict[str, list[str]]:
    return {r.label: _exit_problems(r) or _guarded(check) for r in results}


def _close(actual, expected, rtol: float = RTOL) -> bool:
    """Equal NaN pattern, and finite entries within rtol of the expected sup-norm."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape or not np.array_equal(np.isnan(a), np.isnan(e)):
        return False
    finite = ~np.isnan(e)
    if not finite.any():
        return True
    scale = np.abs(e[finite]).max()
    return bool(np.all(np.abs(a[finite] - e[finite]) <= rtol * scale))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- Monte Carlo checks -------------------------------------------------------


def _check_coverage(outdir: Path, reps: int) -> list[str]:
    rows = _read_csv(outdir / "coverage.csv")
    summary = _read_json(outdir / "summary.json")
    problems = []
    cells = {(r["target"], float(r["tau"])) for r in rows}
    if cells != {("mean", 0.05), ("variance", 0.05)} or len(rows) != 2:
        problems.append(f"coverage cells {sorted(cells)}")
    failures = 0
    for r in rows:
        covered, total, failed = int(r["covered"]), int(r["total"]), int(r["failures"])
        failures += failed
        if total + failed != reps or not 0 <= covered <= total:
            problems.append(f"{r['target']}: covered {covered}, total {total}, failures {failed}")
        rate = float(r["rate"])
        if total and not math.isclose(rate, covered / total):
            problems.append(f"{r['target']}: rate {rate} != {covered}/{total}")
    if summary["replications_used"] != reps or summary["degeneracies"] != failures:
        problems.append(
            f"summary: {summary['replications_used']} replications, "
            f"{summary['degeneracies']} degeneracies, expected {reps} and {failures}"
        )
    if problems:
        return problems
    want = _reference_coverage(McConfig.from_dict(summary["config"]))
    for r in rows:
        sure, unsure, failed = want[(r["target"], float(r["tau"]))]
        covered = int(r["covered"])
        if int(r["failures"]) != failed or not sure <= covered <= sure + unsure:
            problems.append(
                f"{r['target']}: covered {covered}, failures {r['failures']}; the reference "
                f"gives {sure} covered (+{unsure} at the band edge), {failed} failures"
            )
    return problems


def _replication(config: McConfig, r: int):
    """Covariates and responses of replication r, from the package's generator."""
    dataset = _replication_dataset(config, r)
    return dataset.x, dataset.y


def _truths(config: McConfig, points: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "mean": polynomial.polyval(points, config.regression.mean.coefficients),
        "variance": polynomial.polyval(points, config.regression.variance.coefficients),
    }


def _reference_coverage(config: McConfig) -> dict[tuple[str, float], list[int]]:
    """Per (target, tau): [replications surely covered, replications whose
    truth lies within RTOL of a band edge, replications whose band fails]."""
    points = np.asarray(config.design_points)
    truths = _truths(config, points)
    counts = {(t, tau): [0, 0, 0] for t in truths for tau in config.tau_list}
    for r in range(config.replications):
        x, y = _replication(config, r)
        res = reference.residuals(x, y, config.b)
        for (target, tau), count in counts.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                centers, half, _ = reference.band(
                    target, x, y, res, points, config.b, config.h, tau
                )
            if not (np.isfinite(centers).all() and np.isfinite(half).all()):
                count[2] += 1
                continue
            margin = half - np.abs(truths[target] - centers)
            tol = RTOL * max(np.abs(centers).max(), half.max())
            if (margin > tol).all():
                count[0] += 1
            elif (margin >= -tol).all():
                count[1] += 1
    return counts


def _check_losses(outdir: Path, reps: int, grid_size: int) -> list[str]:
    rows = _read_csv(outdir / "losses.csv")
    summary = _read_json(outdir / "summary.json")
    problems = []
    seen: dict[tuple[str, int], list[str]] = {}
    for r in rows:
        float(r["sup_loss"])  # a loss must parse as a number, NaN included
        seen.setdefault((r["target"], int(r["replication"])), []).append(r)
    expected = {(t, rep) for t in ("mean", "jackknife_mean", "variance") for rep in range(reps)}
    if set(seen) != expected:
        problems.append(f"loss rows cover {len(seen)} (target, replication) pairs, expected {len(expected)}")
    for key, block in seen.items():
        bandwidths = [float(r["bandwidth"]) for r in block]
        if len(block) != grid_size or len(set(bandwidths)) != grid_size:
            problems.append(f"{key}: {len(block)} losses over {len(set(bandwidths))} bandwidths")
            continue
        if [r["adjacent_distance"] == "" for r in block] != [True] + [False] * (grid_size - 1):
            problems.append(f"{key}: adjacent distance present on the wrong rows")
    if summary["replications_used"] != reps or len(summary["loss_bandwidths"]) != grid_size:
        problems.append("summary does not match the replication count or grid")
    if any(len(v) != grid_size for v in summary["mean_sup_loss"].values()):
        problems.append("summary mean_sup_loss has the wrong length")
    if problems:
        return problems
    # Rebuild a few replications, chosen by the pass's seed, and recompute
    # every loss and adjacent distance of theirs with the reference.
    config = McConfig.from_dict(summary["config"])
    bandwidths = summary["loss_bandwidths"]
    chosen = np.random.default_rng(config.base_seed).choice(
        reps, size=min(LOSS_CHECK_REPS, reps), replace=False
    )
    for rep in sorted(int(r) for r in chosen):
        for target, (losses, adjacent) in _reference_losses(config, rep, bandwidths).items():
            block = sorted(seen[(target, rep)], key=lambda row: float(row["bandwidth"]))
            if not _close([float(row["bandwidth"]) for row in block], bandwidths):
                problems.append(f"({target}, {rep}): bandwidths differ from the summary grid")
            elif not _close([float(row["sup_loss"]) for row in block], losses):
                problems.append(f"({target}, {rep}): sup losses differ from the reference")
            elif not _close([float(row["adjacent_distance"]) for row in block[1:]], adjacent):
                problems.append(f"({target}, {rep}): adjacent distances differ from the reference")
    return problems


def _reference_losses(config: McConfig, rep: int, bandwidths) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per loss target: sup losses over the grid and adjacent distances."""
    points = np.asarray(config.design_points)
    truths = _truths(config, points)
    x, y = _replication(config, rep)
    res = reference.residuals(x, y, config.b)
    curves = {
        "mean": [reference.mean(x, y, points, bw) for bw in bandwidths],
        "jackknife_mean": [reference.jackknife(x, y, points, bw) for bw in bandwidths],
        "variance": [reference.variance(x, res, points, bw) for bw in bandwidths],
    }
    out = {}
    for target, series in curves.items():
        truth = truths["variance" if target == "variance" else "mean"]
        losses = []
        for curve in series:
            err = np.abs(curve - truth)
            losses.append(err[np.isfinite(err)].max() if np.isfinite(err).any() else math.nan)
        out[target] = (np.asarray(losses), reference.adjacent_distances(series))
    return out


# --- cli-large checks ---------------------------------------------------------


def _read_dataset(path: Path, n: int):
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "u,v,x,y":
        raise ValueError(f"header {header!r}")
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if arr.shape != (n, 4) or not np.isfinite(arr).all():
        raise ValueError(f"dataset shape {arr.shape}, expected ({n}, 4) finite values")
    if np.unique(arr[:, :2], axis=0).shape[0] != n:
        raise ValueError("locations are not distinct")
    return arr[:, :2], arr[:, 2], arr[:, 3]


class _Reference:
    """Dataset plus residuals cached per mean bandwidth (the dense pass is the costly part)."""

    def __init__(self, locations, x, y):
        self.locations, self.x, self.y = locations, x, y
        self._residuals: dict[float, np.ndarray] = {}

    def residuals(self, b: float) -> np.ndarray:
        if b not in self._residuals:
            self._residuals[b] = reference.residuals(self.x, self.y, b)
        return self._residuals[b]


def _check_simulate(workdir: Path, ref: _Reference) -> list[str]:
    meta = _read_json(workdir / "data.csv.meta.json")["dei_metrics"]
    got = (meta["max_nearest_distance"], meta["min_farthest_distance"])
    want = reference.dei(ref.locations)
    return [] if _close(got, want) else [f"dei metrics {got} != reference {want}"]


def _check_estimate(path: Path, target: str, ref: _Reference) -> list[str]:
    rows = _read_csv(path)
    points = np.array([float(r["x"]) for r in rows])
    values = np.array([float(r["value"]) for r in rows])
    if not _close(points, GRID_POINTS):
        return [f"design points {points}"]
    b = 0.5
    if target == "density":
        want = reference.density(ref.x, points, b)
    elif target == "mean":
        want = reference.mean(ref.x, ref.y, points, b)
    elif target == "jackknife":
        want = reference.jackknife(ref.x, ref.y, points, b)
    else:
        want = reference.variance(ref.x, ref.residuals(b), points, b)
    return [] if _close(values, want) else [f"{target} curve differs from the reference"]


def _check_band(path: Path, target: str, ref: _Reference) -> list[str]:
    rows = _read_csv(path)
    points = np.array([float(r["x"]) for r in rows])
    if not _close(points, GRID_POINTS):
        return [f"design points {points}"]
    b = 0.5
    centers, half, q = reference.band(target, ref.x, ref.y, ref.residuals(b), points, b, b, 0.05)
    problems = []
    for column, want in (("center", centers), ("lo", centers - half), ("hi", centers + half)):
        if not _close([float(r[column]) for r in rows], want):
            problems.append(f"{target} band {column} differs from the reference")
    if not _close([float(r["q_tau"]) for r in rows], np.full(len(rows), q)):
        problems.append(f"{target} band q_tau differs from {q}")
    return problems


def _selection_problems(stage: dict, want_distances, grid, threshold: float, what: str) -> list[str]:
    got = np.asarray(stage["adjacent_distances"], dtype=float)
    if not _close(got, want_distances):
        return [f"{what} adjacent distances differ from the reference"]
    # The chosen index must satisfy the rule on the reference distances,
    # allowing the same relative tolerance at the threshold.
    index = int(stage["chosen_index"])
    d = np.asarray(want_distances)
    limit = threshold * d.min()
    pos = index - 2
    ok = 0 <= pos < d.size and d[pos] < limit * (1 + RTOL) and np.all(d[:pos] >= limit * (1 - RTOL))
    if not ok or not math.isclose(stage["chosen_bandwidth"], grid[index - 1], rel_tol=RTOL):
        return [f"{what} choice {index} ({stage['chosen_bandwidth']}) breaks the rule"]
    return []


def _check_selection(path: Path, ref: _Reference) -> list[str]:
    payload = _read_json(path)
    grid = 1.0 * np.arange(1, 21) / 20
    threshold = 2.0
    mean_curves = [reference.jackknife(ref.x, ref.y, GRID_POINTS, b) for b in grid]
    problems = _selection_problems(
        payload["mean"], reference.adjacent_distances(mean_curves), grid, threshold, "mean"
    )
    if problems:
        return problems
    res = ref.residuals(float(payload["mean"]["chosen_bandwidth"]))
    variance_curves = [reference.variance(ref.x, res, GRID_POINTS, h) for h in grid]
    return _selection_problems(
        payload["variance"], reference.adjacent_distances(variance_curves), grid, threshold, "variance"
    )
