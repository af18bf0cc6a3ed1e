"""The names and parameters the benchmark in perfbench/ relies on.

perfbench/tracing.py rebinds every function in its TRACED list by name and
reads some of their arguments by parameter name; perfbench/workloads.py
rebuilds replication datasets through montecarlo._replication_dataset. A
rename in the package would break the benchmark silently, so it is checked
here. perfbench/ is only read as text, never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from spatreg.montecarlo import McConfig, McSummary, _replication_dataset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Parameters the tracer reads from the bound call arguments, by traced name.
READ_PARAMETERS = {
    "kernels.eval_kernel": {"z"},
    "estimators.density_estimate": {"dataset", "design_points"},
    "estimators.nw_mean": {"dataset", "design_points", "bandwidth", "kernel"},
    "estimators.jackknife_mean": {"dataset", "design_points"},
    "estimators.jackknife_residuals": {"dataset", "mean_bandwidth", "kernel"},
    "estimators.variance_estimate": {"dataset", "design_points", "residuals"},
    "estimators.v4_estimate": {"dataset", "interval", "residuals", "variance_at_observations"},
    "dgp.spatial_ma": {"sites", "innovations"},
    "montecarlo.run_coverage_experiment": {"config"},
    "montecarlo.run_loss_curves": {"config"},
}


def _traced():
    # Read the TRACED literal from the source; nothing in perfbench/ runs.
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [f"{m}.{a}" for m, a in ast.literal_eval(node.value)]
    raise AssertionError(f"no TRACED assignment in {TRACING}")


TRACED = _traced()


def _resolve(name):
    module_name, attr = name.split(".")
    return getattr(importlib.import_module(f"spatreg.{module_name}"), attr)


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_exists(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", sorted(READ_PARAMETERS))
def test_traced_parameters(name):
    assert name in TRACED
    parameters = set(inspect.signature(_resolve(name)).parameters)
    assert READ_PARAMETERS[name] <= parameters


def test_montecarlo_results_carry_degeneracies():
    # The tracer adds result.degeneracies of every traced montecarlo call.
    assert "degeneracies" in McSummary.__dataclass_fields__


def test_replication_dataset_and_config_round_trip():
    assert list(inspect.signature(_replication_dataset).parameters) == ["config", "r"]
    config = McConfig(replications=2, n=30, base_seed=5)
    again = McConfig.from_dict(config.as_dict())
    assert again.as_dict() == config.as_dict()
    assert _replication_dataset(again, 1).n == 30


def test_harness_entry_points():
    # The set-up probe of perfbench/harness.py imports and calls these.
    import spatreg
    from spatreg.cli import build_parser, main
    from spatreg.kernels import kernel_by_name, kernel_constants

    assert callable(main)
    build_parser()
    assert kernel_constants(kernel_by_name("uniform")).l2_norm_sq == 0.5
    assert isinstance(spatreg.__version__, str)
