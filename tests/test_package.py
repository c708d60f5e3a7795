import ast
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import skinfem
from skinfem import geometry

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


def test_cli_import_leaves_out_scipy_interpolate(tmp_path):
    """No scipy module at all is loaded: numpy is the only runtime
    dependency, and `scipy.interpolate` alone (with the optimize, fft and
    special modules it pulls in) would add about 0.3 s to every
    command-line start. Nor do runs of three studies load `numpy.ma`,
    `numpy.polynomial`, `argparse` or `configparser`, which would add to
    every run's start-up time and resident memory."""
    env = dict(os.environ)
    pkg_parent = str(Path(skinfem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = pkg_parent + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import sys, skinfem, skinfem.cli\n"
        "print(skinfem.__file__)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from skinfem.cli import ExperimentConfig, run\n"
        "for study, sigmas, p in [('sigma-scaling', [5.0, 20.0, 80.0], 1),\n"
        "                         ('p-convergence', [5.0], 1), ('field-map', [5.0], 1)]:\n"
        "    cfg = ExperimentConfig(study=study, config='A', sigmas=sigmas, ps=[p],\n"
        "                           mesh_spec='M1', out=f'{sys.argv[1]}/{study}')\n"
        "    assert run(cfg) == 0, study\n"
        "print([m for m in ('numpy.ma', 'numpy.polynomial', 'argparse', 'configparser')\n"
        "       if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True
    )
    msg = f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    assert proc.returncode == 0, msg
    child_file, loaded, after_runs = proc.stdout.splitlines()
    assert Path(child_file).resolve() == Path(skinfem.__file__).resolve(), msg
    assert loaded == "[]", msg
    assert after_runs == "[]", msg


CONFIG_NAMES = ("A", "B1", "B2", "C1", "C2")


def _names_a_config(node) -> bool:
    """Whether node is a configuration name, or a tuple, list or set of
    literals holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_config(x) for x in node.elts)
    return isinstance(node, ast.Constant) and node.value in CONFIG_NAMES


def config_name_checks(source: str) -> list[int]:
    """Lines of source that decide by a configuration's name: an ==, != or
    in comparison with a name, or a startswith test of a name's prefix."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            equality = any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
            if equality and any(_names_a_config(x) for x in [node.left, *node.comparators]):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and any(name.startswith(str(node.args[0].value)) for name in CONFIG_NAMES)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_configurations_are_decided_by_their_records():
    """No module decides what a configuration is by its name: the names are
    only the keys of the tables that map them to their records
    (`geometry.CONFIGURATIONS`) and study set-ups (`cli.STUDY_TABLE`)."""
    sites = [
        f"{path.name}:{line}"
        for path in sorted(Path(skinfem.__file__).parent.glob("*.py"))
        for line in config_name_checks(path.read_text())
    ]
    assert not sites, f"configuration name checks at {sites}"
    assert tuple(geometry.CONFIGURATIONS) == CONFIG_NAMES


def test_config_name_scan_finds_each_form():
    found = config_name_checks(
        'if config == "A": pass\n'
        'if "C1" != config: pass\n'
        'if config not in ("B1", "B2"): pass\n'
        'x = config.startswith("C")\n'
        'x = CONFIGURATIONS["A"]\n'
        'x = {"B1": 1}\n'
        'x = config in CONFIGURATIONS\n'
        'x = name.startswith("field_")\n'
    )
    assert found == [1, 2, 3, 4]


def test_benchmark_library_calls_run():
    """The benchmark's eval-b1 workload calls the library directly (mesh,
    space, assemble with uniform_eps, solve), where the CLI workloads reach
    only `cli.run`; its set-up still runs and meets its oracle H = r."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    field = worker.eval_b1_setup()
    pts = [[0.5, 0.1], [1.5, -0.7], [3.0, 1.0], [3.9, 0.0]]
    h = skinfem.evaluate(field, pts)
    assert max(abs(v - r) for v, (r, _) in zip(h, pts)) <= worker.EVAL_TOL
