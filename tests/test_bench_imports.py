"""The package names the benchmark harness in ``perfbench/`` imports.

The harness imports public names from the package inside its traced
functions, so a rename would otherwise surface only when the traced
benchmark runs.  These tests read its import statements and resolve each
name here.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

# The names the traced pipeline and replication loop rely on.
CORE_NAMES = {
    ("care_rank.model", "hessian"),
    ("care_rank.inference", "projected_hessian_pinv"),
    ("care_rank.inference", "standardized_stats"),
    ("care_rank.inference", "care_ranking_scores"),
    ("care_rank.inference", "full_inference_report"),
    ("care_rank.inference", "plugin_variance_model"),
    ("care_rank.model", "build_projection"),
    ("care_rank.model", "connected_components"),
    ("care_rank.model", "is_connected"),
    ("care_rank.cli", "ResultBundle"),
    ("care_rank.io", "parse_comparisons_csv"),
    ("care_rank.io", "parse_covariates_csv"),
    ("care_rank.io", "write_comparisons_csv"),
    ("care_rank.io", "write_covariates_csv"),
    ("care_rank.io", "write_inference_csv"),
    ("care_rank.io", "write_ranking_csv"),
    ("care_rank.io", "write_json"),
    ("care_rank.simulation", "SyntheticSpec"),
    ("care_rank.simulation", "generate_truth"),
    ("care_rank.simulation", "sample_comparisons"),
    ("care_rank.simulation", "rng_stream"),
    ("care_rank.simulation", "ExperimentPlan"),
    ("care_rank.simulation", "run_distribution_experiment"),
    ("care_rank.simulation", "run_rate_experiment"),
}


def bench_imports() -> set[tuple[str, str]]:
    """(module, name) for every ``from care_rank... import name`` in the
    harness sources."""
    found = set()
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("care_rank"):
                found.update((node.module, alias.name) for alias in node.names)
    return found


def test_scan_sees_core_names():
    assert CORE_NAMES <= bench_imports()


@pytest.mark.parametrize("module, name", sorted(bench_imports() | CORE_NAMES))
def test_bench_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"

