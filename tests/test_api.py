"""Public API surface: every exported name resolves, the methods the
benchmark tracer wraps stay defined, the README's library example runs,
and every source file parses on the oldest supported Python."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gflsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(gflsim.__path__, "gflsim."))
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    # pyproject's requires-python is 3.10.  Parsing with its grammar catches
    # 3.11-only syntax such as ``except*`` on any interpreter, numpy or not;
    # library calls new in 3.11 are not caught.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A stale ``__all__`` entry does not fail at import, only at
    # ``from module import *`` or on first use.
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


@pytest.mark.parametrize("cls, name", [
    ("World", "build"),
    ("World", "step"),
    ("HandoffPolicy", "decide"),
    ("HandoffPolicy", "on_epoch"),
    ("FuzzySystem", "crisp_from_strengths"),
    ("ReplayFitness", "window_support"),
    ("ReplayFitness", "batch"),
    ("RuleEvolver", "evolve"),
])
def test_traced_methods_stay_defined(cls, name):
    # perfbench/tracer.py wraps each of these through ``gflsim.<cls>.__dict__[name]``:
    # a method deleted or only inherited breaks the benchmark with a KeyError.
    assert name in getattr(gflsim, cls).__dict__, f"{cls}.{name}"


def test_cold_import_loads_no_process_pool():
    # Only ``compare`` with more than one worker starts a pool, so a cold
    # import leaves out the stack behind it: a fifth of its start-up time.
    pool_stack = ("concurrent.futures", "multiprocessing", "logging", "socket", "subprocess")
    src = str(Path(gflsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import gflsim, sys; print(*(m for m in {pool_stack!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []


def test_a_default_gfls_run_leaves_numpy_ma_unimported():
    # numpy.ma is about 1 MB of imports that nothing here needs; the replay's
    # np.unique calls (on floats, ints and rows read as bytes) do not load it.
    src = str(Path(gflsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys; from gflsim.experiment import config_from_dict, run; "
            "run(config_from_dict({}), 'gfls', 0); print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


def test_readme_library_use_runs(capsys):
    # The documented loop must keep up with the API it drives.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.rstrip().endswith(" events")
