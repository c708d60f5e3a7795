"""Regenerate the reference files under tests/golden.

    PYTHONPATH=src python tests/golden/generate.py [name ...]

A name is a study of `TestGoldenRuns.CASES` in tests/test_cli.py, whose
CLI artifacts (all but the manifest) replace tests/golden/<study>, or
`locate`, which rewrites tests/golden/locate/<config>_<mesh>.csv: the
(elem, u, v) of every point (r, z) of `TestBatchedLocation`, from the
per-point scalar locator below at (r, |z|), as the mesh holds the half
meridian z >= 0 (elem -1 and u, v nan outside the mesh). With no
name, everything is regenerated. pytest does not collect this file.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from skinfem import cli, mesh, postprocess  # noqa: E402
from skinfem.basis import tensor_lagrange  # noqa: E402
from test_cli import TestGoldenRuns  # noqa: E402
from test_fem import LOCATE_CASES, locate_points  # noqa: E402


# The per-point location path that the batched locate/inverse_map
# replaced, kept verbatim apart from names and from _ref_locate returning
# None where the old locate raised.

def _ref_boxes(m):
    boxes = np.empty((m.n_elements, 4))
    for e in range(m.n_elements):
        X = m.nodes[m.elem_nodes[e]]
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        pad = 0.1 * max(hi[0] - lo[0], hi[1] - lo[1]) + 1e-12
        boxes[e] = (lo[0] - pad, hi[0] + pad, lo[1] - pad, hi[1] + pad)
    return boxes


def _ref_inverse_map(m, e, r, z, tol=1e-12):
    g = m.geomdeg
    X = m.nodes[m.elem_nodes[e]]
    u, v = 0.5, 0.5
    target = np.array([r, z])
    for _ in range(60):
        GV, GDu, GDv = tensor_lagrange(g, u, v)
        pos = X.T @ GV[0]
        resid = pos - target
        if np.max(np.abs(resid)) < 1e-14 * (1.0 + np.max(np.abs(target))):
            return u, v
        J = np.column_stack([X.T @ GDu[0], X.T @ GDv[0]])
        try:
            step = np.linalg.solve(J, resid)
        except np.linalg.LinAlgError:
            return None
        if np.max(np.abs(step)) > 0.5:
            step *= 0.5 / np.max(np.abs(step))
        u, v = u - step[0], v - step[1]
        if not (-0.5 <= u <= 1.5 and -0.5 <= v <= 1.5):
            return None
        if np.max(np.abs(step)) < tol:
            return u, v
    return None


def _ref_locate(m, boxes, r, z, tol=1e-9):
    """(element, u, v), or None where the point is outside."""
    b = boxes
    mask = (b[:, 0] <= r) & (r <= b[:, 1]) & (b[:, 2] <= z) & (z <= b[:, 3])
    best = None
    for e in np.nonzero(mask)[0]:
        res = _ref_inverse_map(m, int(e), r, z)
        if res is None:
            continue
        u, v = res
        slack = max(-u, u - 1.0, -v, v - 1.0, 0.0)
        if slack <= tol:
            return int(e), min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0)
        if best is None or slack < best[0]:
            best = (slack, int(e), u, v)
    if best is not None and best[0] <= 1e-6:
        _, e, u, v = best
        return e, min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0)
    return None


def write_locations():
    (HERE / "locate").mkdir(exist_ok=True)
    for config, spec in LOCATE_CASES:
        m = mesh.mesh_for(config, spec, sigma_max=80.0)
        boxes = _ref_boxes(m)
        ref = [_ref_locate(m, boxes, r, abs(z)) for r, z in locate_points(m)]
        rows = [(-1, np.nan, np.nan) if x is None else x for x in ref]
        postprocess.write_csv(HERE / "locate" / f"{config}_{spec}.csv", "elem,u,v", zip(*rows))


def write_study(study):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        ini = os.path.join(tmp, "golden.ini")
        with open(ini, "w") as f:
            f.write(f"[experiment]\nstudy = {study}\n{TestGoldenRuns.CASES[study]}out = {out}\n")
        cfg = cli.load_config(ini)
        if cli.run(cfg) != cli.EXIT_OK:
            raise SystemExit(f"{study}: the CLI run failed")
        shutil.rmtree(HERE / study, ignore_errors=True)
        (HERE / study).mkdir()
        for name in os.listdir(out):
            if name != "manifest.txt":
                shutil.copyfile(os.path.join(out, name), HERE / study / name)


def main(names):
    for name in names or sorted(TestGoldenRuns.CASES) + ["locate"]:
        if name == "locate":
            write_locations()
        elif name in TestGoldenRuns.CASES:
            write_study(name)
        else:
            raise SystemExit(f"unknown name {name!r}")
        print(f"wrote {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
