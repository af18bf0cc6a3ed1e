"""Command-line entry point.

Subcommands: simulate, estimate, band, select-bandwidth, mc-clt,
mc-coverage, loss-curves. Every run writes a config echo JSON holding the
fully resolved arguments, sufficient to replay the run exactly.

Exit codes: 0 success, 2 usage error, 3 data error (an input file that is
missing, unreadable or malformed, or any other file-system error),
4 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bandwidth import BandwidthGrid, select_two_stage
from .data import read_dataset_csv, write_dataset_csv
from .dgp import LatticeConfig, dei_metrics, simulate_dataset
from .errors import (
    AllDegenerateError,
    DatasetFormatError,
    DegenerateDensityError,
    DegenerateVarianceError,
    DuplicateLocationError,
    EmptyIntervalError,
    NegativeVarianceError,
    NonpositiveV4Error,
    TooManySitesError,
)
from .estimators import density_estimate, jackknife_mean, nw_mean, variance_estimate
from .inference import band_table, confidence_band
from .kernels import kernel_by_name
from .montecarlo import (
    McConfig,
    coverage_table,
    losses_table,
    run_clt_experiment,
    run_coverage_experiment,
    run_loss_curves,
    scores_table,
    summary_json_dict,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# OSError: an input that is missing, a directory or unreadable, or any other
# file-system failure; UnicodeDecodeError: an input that is not UTF-8 text.
DATA_ERRORS = (DatasetFormatError, DuplicateLocationError, OSError, UnicodeDecodeError)
NUMERIC_ERRORS = (
    AllDegenerateError,
    DegenerateDensityError,
    DegenerateVarianceError,
    EmptyIntervalError,
    NonpositiveV4Error,
)
USAGE_ERRORS = (NegativeVarianceError, TooManySitesError, ValueError)

# Largest design grid --points may ask for.
MAX_POINTS = 10**6


def parse_point_grid(text: str) -> np.ndarray:
    """Parse 'start:step:stop' into an inclusive grid.

    The endpoint is snapped to the count implied by rounding
    (stop - start) / step to the nearest integer, so floating-point stops
    never drop the final point. Every number must be finite, and a grid of
    more than MAX_POINTS points is refused before anything is allocated.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"points must be 'start:step:stop', got {text!r}")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"points must be finite numbers, got {text!r}")
    if len(values) == 1:
        return np.asarray(values)
    start, step, stop = values
    if step <= 0:
        raise ValueError("point step must be positive")
    steps = (stop - start) / step  # may overflow to inf
    if not steps < MAX_POINTS - 0.5:
        raise ValueError(f"points grid {text!r} has more than {MAX_POINTS} points")
    count = round(steps)
    if count < 0:
        raise ValueError("stop must not precede start")
    return start + step * np.arange(count + 1)


def _jsonable(value):
    # The one NaN rule of every JSON output: a non-finite float becomes null.
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _echo(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if key != "handler"}


def _write_rows(columns: list[str], rows: list[list], path: Path, fmt: str) -> None:
    """Write one table: CSV with a header line (None as an empty cell), or
    JSON {"rows": [...]} with one object per row."""
    if fmt == "json":
        _write_json(path, {"rows": [dict(zip(columns, row)) for row in rows]})
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _lattice_from_args(args: argparse.Namespace) -> LatticeConfig:
    side = args.side if args.side is not None else args.n
    return LatticeConfig(side=side, spacing=args.spacing, u0=args.u0, v0=args.v0)


def _cmd_simulate(args: argparse.Namespace) -> int:
    dataset = simulate_dataset(args.n, seed=args.seed, lattice=_lattice_from_args(args))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(dataset, out)
    metrics = dei_metrics(dataset.locations)
    _write_json(
        Path(str(out) + ".meta.json"),
        {
            "config": _echo(args),
            "dei_metrics": {
                "max_nearest_distance": metrics.max_nearest_distance,
                "min_farthest_distance": metrics.min_farthest_distance,
            },
        },
    )
    print(f"wrote {dataset.n} observations to {out}")
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    dataset = read_dataset_csv(args.infile)
    kernel = kernel_by_name(args.kernel)
    points = parse_point_grid(args.points)
    mean_bandwidth = args.mean_bandwidth if args.mean_bandwidth is not None else args.bandwidth
    if args.target == "density":
        curve = density_estimate(dataset, points, args.bandwidth, kernel)
    elif args.target == "mean":
        curve = nw_mean(dataset, points, args.bandwidth, kernel)
    elif args.target == "jackknife":
        curve = jackknife_mean(dataset, points, args.bandwidth, kernel)
    else:
        curve = variance_estimate(dataset, points, args.bandwidth, mean_bandwidth, kernel)
    rows = [
        [float(x), float(v), curve.estimator_tag, curve.bandwidth]
        for x, v in zip(curve.design_points, curve.values)
    ]
    out = Path(args.out)
    _write_rows(["x", "value", "target", "bandwidth"], rows, out, args.format)
    _write_json(Path(str(out) + ".config.json"), {"config": _echo(args)})
    print(f"wrote {len(rows)} design points to {out}")
    return EXIT_OK


def _cmd_band(args: argparse.Namespace) -> int:
    dataset = read_dataset_csv(args.infile)
    kernel = kernel_by_name(args.kernel)
    points = parse_point_grid(args.points)
    h = args.variance_bandwidth if args.variance_bandwidth is not None else args.bandwidth
    band = confidence_band(
        dataset,
        points,
        args.target,
        args.bandwidth,
        h,
        args.tau,
        kernel,
        shared_rate_bandwidth=(args.rate_bandwidth == "shared"),
    )
    out = Path(args.out)
    _write_rows(*band_table(band), out, args.format)
    _write_json(
        Path(str(out) + ".config.json"),
        {"config": _echo(args), "rate_bandwidth": band.rate_bandwidth},
    )
    print(f"wrote {band.design_points.size}-point {args.target} band to {out}")
    return EXIT_OK


def _cmd_select_bandwidth(args: argparse.Namespace) -> int:
    dataset = read_dataset_csv(args.infile)
    kernel = kernel_by_name(args.kernel)
    points = parse_point_grid(args.points)
    variance_pilot = args.variance_pilot if args.variance_pilot is not None else args.pilot
    selection = select_two_stage(
        dataset,
        points,
        BandwidthGrid(args.pilot, args.grid_size, args.threshold),
        BandwidthGrid(variance_pilot, args.grid_size, args.threshold),
        kernel,
    )
    payload = {"config": _echo(args)}
    for stage, trace in (("mean", selection.mean_trace), ("variance", selection.variance_trace)):
        payload[stage] = {
            "adjacent_distances": [float(d) for d in trace.adjacent_distances],
            "chosen_index": trace.chosen_index,
            "chosen_bandwidth": trace.chosen_bandwidth,
        }
    _write_json(Path(args.out), payload)
    print(
        f"selected mean bandwidth {selection.b_hat:g}, "
        f"variance bandwidth {selection.h_hat:g}"
    )
    return EXIT_OK


def _mc_config(args: argparse.Namespace, replications: int, tau_list=(0.05,)) -> McConfig:
    points = parse_point_grid(args.points)
    h = args.variance_bandwidth if args.variance_bandwidth is not None else args.bandwidth
    lattice = None
    if args.side is not None:
        lattice = LatticeConfig(side=args.side)
    return McConfig(
        replications=replications,
        n=args.n,
        b=args.bandwidth,
        h=h,
        design_points=tuple(points),
        tau_list=tuple(tau_list),
        base_seed=args.seed,
        lattice=lattice,
        kernel=args.kernel,
    )


def _finish_mc(args: argparse.Namespace, summary, name: str, table) -> int:
    outdir = Path(args.outdir)
    table_file = f"{name}.{args.format}"
    _write_rows(*table, outdir / table_file, args.format)
    _write_json(outdir / "summary.json", summary_json_dict(summary))
    _write_json(outdir / "config.json", {"config": _echo(args)})
    print(f"wrote {sorted([table_file, 'summary.json', 'config.json'])} to {outdir}")
    return EXIT_OK


def _cmd_mc_clt(args: argparse.Namespace) -> int:
    config = _mc_config(args, args.replications)
    summary = run_clt_experiment(config, workers=args.workers)
    return _finish_mc(args, summary, "scores", scores_table(summary))


def _cmd_mc_coverage(args: argparse.Namespace) -> int:
    tau_list = args.tau if args.tau else [0.05]
    config = _mc_config(args, args.replications, tau_list=tau_list)
    summary = run_coverage_experiment(config, workers=args.workers)
    return _finish_mc(args, summary, "coverage", coverage_table(summary))


def _cmd_loss_curves(args: argparse.Namespace) -> int:
    config = _mc_config(args, args.replications)
    grid = BandwidthGrid(args.pilot, args.grid_size, args.threshold)
    summary = run_loss_curves(config, grid, workers=args.workers)
    return _finish_mc(args, summary, "losses", losses_table(summary))


def _worker_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--workers", type=_worker_count, default=1,
                        help="parallel workers, capped at the replication and CPU counts "
                        "(results are worker-count invariant)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table format of estimate, band, mc-clt, mc-coverage and loss-curves")
    parser.add_argument("--kernel", default="epanechnikov", help="kernel name")


def _add_dataset_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="infile", required=True, help="input dataset CSV (header u,v,x,y)")


def _add_dgp_options(parser: argparse.ArgumentParser, default_n: int = 750) -> None:
    parser.add_argument("--n", type=int, default=default_n, help="sample size")
    parser.add_argument("--side", type=int, default=None, help="lattice side (default: n)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatreg",
        description="Nonparametric estimation, joint bands, and simulation "
        "experiments for heteroscedastic spatial regression samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic dataset and write CSV + DEI sidecar")
    _add_common(p)
    _add_dgp_options(p)
    p.add_argument("--spacing", type=float, default=0.3)
    p.add_argument("--u0", type=float, default=0.3)
    p.add_argument("--v0", type=float, default=0.6)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit one estimator over a design-point grid")
    _add_common(p)
    _add_dataset_source(p)
    p.add_argument("--target", choices=("density", "mean", "jackknife", "variance"), required=True)
    p.add_argument("--bandwidth", type=float, default=0.5)
    p.add_argument("--mean-bandwidth", type=float, default=None, help="residual mean bandwidth for the variance target (default: --bandwidth)")
    p.add_argument("--points", default="-0.5:0.1:0.5", help="design grid start:step:stop")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("band", help="build a joint confidence band")
    _add_common(p)
    _add_dataset_source(p)
    p.add_argument("--target", choices=("density", "mean", "variance"), required=True)
    p.add_argument("--bandwidth", type=float, default=0.5, help="density/mean bandwidth b")
    p.add_argument("--variance-bandwidth", type=float, default=None, help="variance bandwidth h (default: --bandwidth)")
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--rate-bandwidth", choices=("per-target", "shared"), default="per-target",
                   help="bandwidth entering the width denominator: the target's own, or h for all targets")
    p.add_argument("--points", default="-0.5:0.1:0.5")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_band)

    p = sub.add_parser("select-bandwidth", help="two-stage bandwidth selection, full trace as JSON")
    _add_common(p)
    _add_dataset_source(p)
    p.add_argument("--points", default="-0.5:0.1:0.5")
    p.add_argument("--pilot", type=float, default=1.0)
    p.add_argument("--variance-pilot", type=float, default=None, help="pilot for the variance stage (default: --pilot)")
    p.add_argument("--grid-size", type=int, default=20)
    p.add_argument("--threshold", type=float, default=2.0)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(handler=_cmd_select_bandwidth)

    p = sub.add_parser("mc-clt", help="normalized-score replication experiment")
    _add_common(p)
    _add_dgp_options(p)
    p.add_argument("--replications", type=int, default=250)
    p.add_argument("--bandwidth", type=float, default=0.5)
    p.add_argument("--variance-bandwidth", type=float, default=None)
    p.add_argument("--points", default="-0.25:0.25:0.25")
    p.add_argument("--outdir", required=True)
    p.set_defaults(handler=_cmd_mc_clt)

    p = sub.add_parser("mc-coverage", help="joint band coverage replication experiment")
    _add_common(p)
    _add_dgp_options(p)
    p.add_argument("--replications", type=int, default=500)
    p.add_argument("--bandwidth", type=float, default=0.5)
    p.add_argument("--variance-bandwidth", type=float, default=None)
    p.add_argument("--tau", type=float, action="append", default=None, help="band level; repeatable (default 0.05)")
    p.add_argument("--points", default="-0.5:0.1:0.5")
    p.add_argument("--outdir", required=True)
    p.set_defaults(handler=_cmd_mc_coverage)

    p = sub.add_parser("loss-curves", help="sup-loss curves across a bandwidth grid")
    _add_common(p)
    _add_dgp_options(p)
    p.add_argument("--replications", type=int, default=50)
    p.add_argument("--bandwidth", type=float, default=0.5, help="residual mean bandwidth for the variance sweep")
    p.add_argument("--variance-bandwidth", type=float, default=None)
    p.add_argument("--pilot", type=float, default=1.0)
    p.add_argument("--grid-size", type=int, default=20)
    p.add_argument("--threshold", type=float, default=2.0)
    p.add_argument("--points", default="-0.5:0.1:0.5")
    p.add_argument("--outdir", required=True)
    p.set_defaults(handler=_cmd_loss_curves)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    # Glue "--points -0.5:0.1:0.5" into one token so argparse does not read
    # the leading minus of the grid as an option prefix.
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--points" and i + 1 < len(argv):
            out.append(f"--points={argv[i + 1]}")
            i += 2
            continue
        out.append(argv[i])
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except DATA_ERRORS as exc:
        return _fail(EXIT_DATA, exc)
    except NUMERIC_ERRORS as exc:
        return _fail(EXIT_NUMERIC, exc)
    except USAGE_ERRORS as exc:
        return _fail(EXIT_USAGE, exc)


def _fail(code: int, exc: Exception) -> int:
    message = " ".join(str(exc).split())
    print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
