import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import skinfem

MODULES = ["skinfem"] + [
    f"skinfem.{m.name}" for m in pkgutil.iter_modules(skinfem.__path__)
]


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{modname}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("modname", MODULES)
def test_no_process_wide_caches(modname):
    """Nothing global pins memory for the life of the process: no module
    attribute is a memoizing wrapper (functools caches and the like)."""
    mod = importlib.import_module(modname)
    cached = [
        name for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info") or hasattr(obj, "cache_clear")
    ]
    assert not cached, f"{modname} holds caches: {cached}"


def test_cli_import_leaves_out_scipy_interpolate():
    """No scipy module at all is loaded: numpy is the only runtime
    dependency, and `scipy.interpolate` alone (with the optimize, fft and
    special modules it pulls in) would add about 0.3 s to every
    command-line start."""
    env = dict(os.environ)
    pkg_parent = str(Path(skinfem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = pkg_parent + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import sys, skinfem, skinfem.cli\n"
        "print(skinfem.__file__)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    msg = f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    assert proc.returncode == 0, msg
    child_file, loaded = proc.stdout.splitlines()
    assert Path(child_file).resolve() == Path(skinfem.__file__).resolve(), msg
    assert loaded == "[]", msg
