"""Benchmark entry point for spatreg.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The package is imported from ./src, so
nothing needs installing. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the metrics are the
end_to_end set of BENCHMARK.json with --trace 0 and the per_layer set with
--trace 1. Run records (manifest, spans, golden-pass digests)
go to ./.bench_runs/.

Without ./src/spatreg the command exits 2 and prints no result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: with OpenBLAS's default of two on a two-core machine, the
# same n=750 residual call took anywhere from 16 to 55 ms.
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def prepare() -> bool:
    """Pin BLAS threads before numpy loads and put ./src on the import path."""
    if not (SRC / "spatreg" / "__init__.py").is_file():
        print(f"error: no spatreg sources under {SRC}", file=sys.stderr)
        return False
    os.environ.update(THREAD_SETTINGS)
    sys.path.insert(0, str(SRC))
    return True


def main() -> int:
    if not prepare():
        return 2
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
