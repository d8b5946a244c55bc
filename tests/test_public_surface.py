"""The public surface: every exported name resolves, and the library
example in the README runs as written."""

import importlib
import pkgutil
import re
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
