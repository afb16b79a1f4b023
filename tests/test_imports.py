"""Every name a package module imports is used in that module or listed in
its __all__ (a stdlib-ast stand-in for a linter's unused-import rule), and
the Capon, match and fisher paths load no scipy module."""

import ast
import os
import subprocess
import sys
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


CAPON_MATCH_FISHER = """
import sys
import numpy as np
import enfcapon.cli
from enfcapon.matching import best_lag, fisher_test
from enfcapon.pipeline import extract_enf, power_config
from enfcapon.signal_io import SampledSignal

t = np.arange(4410) / 441.0
track = extract_enf(SampledSignal(np.cos(2 * np.pi * 180.0 * t), 441.0), power_config())
assert len(track) > 1
best_lag(track.freq_hz, np.concatenate([track.freq_hz, track.freq_hz]))
fisher_test(0.9, 0.8, 100)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_capon_match_and_fisher_load_no_scipy():
    src = str(Path(enfcapon.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", CAPON_MATCH_FISHER], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
