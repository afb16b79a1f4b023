"""Every name a package module imports is used in that module or listed in
its __all__ (a stdlib-ast stand-in for a linter's unused-import rule),
every module-level private name is loaded in its module, the package
imports exactly the standard library and its declared dependencies, and
no run path (Capon or STFT extract, match, fisher, bench) loads a scipy
module."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import enfcapon

MODULES = sorted(Path(enfcapon.__file__).parent.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" and "from a import b" bind c, b.
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


def test_detects_unused_import():
    source = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    assert unused_imports(source) == [(2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_names(source):
    """Module-level private functions, classes and assigned names (_x, not
    __x__) that the module never loads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in loaded)


def test_detects_unused_private_name():
    source = ("_USED, _PAIR = 1, 2\n_SPARE: int = 3\n__version__ = '1'\n"
              "def _helper():\n    return _USED\n"
              "class _Dead:\n    _attr = 4\n"
              "def public(obj):\n    return _helper() + obj._SPARE\n")
    assert unused_private_names(source) == [(1, "_PAIR"), (2, "_SPARE"), (6, "_Dead")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def top_level_imports(source):
    """Top-level names of every absolute import in source, function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_detects_top_level_imports():
    source = ("import os.path, json as j\nfrom . import capon\nfrom .bench import host\n"
              "def f():\n    from scipy.signal import upfirdn\n")
    assert top_level_imports(source) == {"os", "json", "scipy"}


def test_dependency_census():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements}
    imported = set().union(*(top_level_imports(path.read_text(encoding="utf-8"))
                             for path in MODULES))
    assert imported - set(sys.stdlib_module_names) - {"enfcapon"} == declared
    assert declared == {"numpy", "click"}


RUN_PATHS = """
import sys
import numpy as np
import enfcapon.cli
from enfcapon.bench import run_bench
from enfcapon.matching import best_lag, fisher_test
from enfcapon.pipeline import estimate, extract_enf, power_config, prepare
from enfcapon.signal_io import SampledSignal

t = np.arange(4410) / 441.0
signal = SampledSignal(np.cos(2 * np.pi * 180.0 * t), 441.0)
track = extract_enf(signal, power_config())
assert len(track) > 1
assert len(extract_enf(signal, power_config(estimator="stft"))) == len(track)
best_lag(track.freq_hz, np.concatenate([track.freq_hz, track.freq_hz]))
# 20 s frames at a 1 s shift over 60 s run estimate in several blocks.
t = np.arange(60 * 441) / 441.0
signal = SampledSignal(np.cos(2 * np.pi * 180.0 * t), 441.0)
for estimator in ("capon", "stft"):
    config = power_config(estimator=estimator, frame_len_s=20.0)
    filtered = prepare(signal, config)
    assert len(estimate(filtered, config)) > 2 * (len(filtered) // 8820)
fisher_test(0.9, 0.8, 100)
run_bench(trials=1)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_run_paths_load_no_scipy():
    src = str(Path(enfcapon.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", RUN_PATHS], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
