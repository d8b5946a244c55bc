"""The public surface: every exported name resolves, the package and
the CLI load lazily, and the library example in the README runs as
written."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import care_rank

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_all_entry_resolves():
    checked = 0
    for info in pkgutil.iter_modules(care_rank.__path__):
        module = importlib.import_module(f"care_rank.{info.name}")
        names = getattr(module, "__all__", [])
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"care_rank.{info.name}.__all__ names {missing}"
        exec(f"from care_rank.{info.name} import *", {})
        checked += len(names)
    assert checked > 0


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:quick start", "exec"), {})
    assert capsys.readouterr().out.strip()


# What the package exports, by owning submodule.
EXPORTS = {
    "errors": ["CareRankError", "ConfigurationError", "ConnectivityError",
               "DegenerateColumnError", "DegenerateContrastError", "DegenerateDesignError",
               "DimensionError", "InvalidArgumentError", "ParseError"],
    "model": ["ComparisonData", "CovariateMatrix", "FitDiagnostics", "ParamVector",
              "ProjectionOperator", "build_projection", "connected_components", "gradient",
              "hessian", "is_connected"],
    "estimation": ["FitConfig", "FitResult", "fit_mle", "preprocess_covariates"],
    "inference": ["ContrastResult", "InferenceReport", "RankingScores", "VarianceModel",
                  "care_ranking_scores", "contrast_inference", "full_inference_report",
                  "plugin_variance_model", "projected_hessian_pinv",
                  "quadratic_approx_minimizer", "soft_threshold", "standardized_stats"],
    "normal": ["normal_cdf", "normal_quantile", "two_sided_p_value"],
    "simulation": ["ExperimentPlan", "ExperimentResult", "SyntheticSpec",
                   "distribution_sampling_probability", "effective_sample_size",
                   "generate_truth", "ks_distance_to_normal", "rate_experiment_pairs",
                   "rng_stream", "run_distribution_experiment", "run_rate_experiment",
                   "sample_comparisons"],
}

_LAZY_PROBE = """
import importlib, json, sys
import care_rank, care_rank.cli
numpy_at_import = "numpy" in sys.modules
exports = json.loads(sys.argv[1])
listed = dir(care_rank)
star = {}
exec("from care_rank import *", star)
print(json.dumps({
    "numpy_at_import": numpy_at_import,
    "not_listed": [n for names in exports.values() for n in names if n not in listed],
    "wrong_owner": [n for module, names in exports.items() for n in names
                    if getattr(care_rank, n)
                    is not getattr(importlib.import_module("care_rank." + module), n)],
    "not_starred": [n for names in exports.values() for n in names if n not in star],
}))
"""


def _python(code: str, *args: str, cwd=None) -> dict:
    """Run ``code`` in a fresh interpreter that imports this package; its
    last line of output, as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(care_rank.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_and_cli_load_lazily():
    found = _python(_LAZY_PROBE, json.dumps(EXPORTS))
    assert found == {"numpy_at_import": False, "not_listed": [], "wrong_owner": [],
                     "not_starred": []}
    assert sorted(care_rank.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_fit_loads_no_inference_or_simulation(tmp_path):
    (tmp_path / "comparisons.csv").write_text(
        "item_i,item_j,trials,wins_j\na,b,6,2\na,c,6,3\nb,c,6,4\n", encoding="ascii"
    )
    found = _python(
        "import json, sys\n"
        "from care_rank.cli import main\n"
        "code = main(['fit', '--comparisons', 'comparisons.csv', '--out', 'out'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('care_rank.'))]))",
        cwd=tmp_path,
    )
    assert found == [0, ["care_rank.cli", "care_rank.errors", "care_rank.estimation",
                         "care_rank.io", "care_rank.model"]]
