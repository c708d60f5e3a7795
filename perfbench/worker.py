"""One repetition of one benchmark workload, in a fresh interpreter.

Reads {"workload", "inputs", "out", "trace", "setup_only"} as JSON on stdin and
prints one JSON object on stdout. Only the standard library is imported before
skinfem, so the measured import time includes numpy and scipy, as it does for
every `skinfem` command-line invocation, and the process-wide caches of the
package start cold, as they do there.

    setup_s      import of skinfem, skinfem.cli and skinfem.postprocess, plus,
                 for eval-b1, the mesh, space and manufactured solve
    wall_s       first call into skinfem until the results are in memory
                 (eval-b1) or on disk (CLI workloads)
    peak_rss_mb  peak resident set size of this process
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

EVAL_SIGMA = 5.0
EVAL_P = 8
MAP_R = (0.0, 4.0)
MAP_Z = (-2.0, 2.0)
MAP_N = 81
BOUNDARY_TOL = 1e-9
EVAL_TOL = 1e-10


class Checks:
    """Output checks; every failed one counts against fail_frac."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def _check_manifest(checks: Checks, out: str):
    """Every artifact hash in manifest.txt must match the bytes on disk."""
    try:
        with open(os.path.join(out, "manifest.txt")) as f:
            lines = f.read().splitlines()[1:]
    except OSError:
        lines = []
    checks.check(bool(lines), "manifest.txt missing or empty")
    for line in lines:
        name, digest = line.rsplit(" ", 1)
        try:
            with open(os.path.join(out, name), "rb") as f:
                ok = hashlib.sha256(f.read()).hexdigest() == digest
        except OSError:
            ok = False
        checks.check(ok, f"manifest hash mismatch for {name}")


def _run_cli(cfg, checks: Checks, out: str):
    from skinfem import cli

    t0 = time.perf_counter()
    code = cli.run(cfg)
    wall = time.perf_counter() - t0
    checks.check(code == 0, f"cli.run exit code {code}")
    _check_manifest(checks, out)
    written = sum(
        os.path.getsize(os.path.join(d, n)) for d, _, names in os.walk(out) for n in names
    )
    return wall, {}, {"cli.bytes_written": float(written)}


def sweep_b1(inputs, checks: Checks, out: str):
    """sigma-scaling on B1 M3 p=16; criterion 4 bounds the fitted exponent."""
    from skinfem import cli

    cfg = cli.ExperimentConfig(
        study="sigma-scaling", config="B1", sigmas=list(inputs["sigmas"]), ps=[16],
        mesh_spec="M3", out=out,
    )
    result = _run_cli(cfg, checks, out)
    try:
        with open(os.path.join(out, "scaling_exponent.txt")) as f:
            t = float(f.read())
    except (OSError, ValueError):
        t = float("nan")
    checks.check(-0.30 <= t <= -0.20, f"scaling exponent {t} outside [-0.30, -0.20]")
    return result


def pconv_a(inputs, checks: Checks, out: str):
    """p-convergence on A M2 p=12..16; criterion 5 bounds every |A_p - A_ref|."""
    from skinfem import cli

    cfg = cli.ExperimentConfig(
        study="p-convergence", config="A", sigmas=[inputs["sigma"]], ps=[12, 13, 14, 15, 16],
        mesh_spec="M2", out=out,
    )
    result = _run_cli(cfg, checks, out)
    rows = []
    for name in sorted(os.listdir(out)):
        if name.startswith("pconv_s") and name.endswith(".csv"):
            with open(os.path.join(out, name)) as f:
                rows += [line.split(",") for line in f.read().splitlines()[1:]]
    checks.check(len(rows) == 5, f"{len(rows)} p-convergence rows, expected 5")
    for p, absdiff in rows:
        checks.check(float(absdiff) <= 1e-4, f"p={p}: absdiff {absdiff} > 1e-4")
    return result


def eval_b1_setup():
    """Manufactured field H = r on B1 M2 p=8 (uniform eps): a pointwise oracle."""
    from skinfem import fem, mesh, physics

    params = physics.PhysicalParams(sigma=EVAL_SIGMA)
    m = mesh.mesh_for("B1", "M2", sigma_max=EVAL_SIGMA)
    space = fem.FeSpace(m, EVAL_P)
    source = fem.SourceSpec.manufactured(params.kappa)
    return fem.solve(fem.assemble(space, params, source, uniform_eps=True))


def eval_b1(inputs, checks: Checks, field):
    """81x81 Im H map over the domain's bounding box, then one batched evaluate."""
    import numpy as np

    from skinfem import fem, postprocess

    pts = np.asarray(inputs["points"], dtype=float)
    t0 = time.perf_counter()
    r_axis, z_axis, vals = postprocess.imag_field_map(field, MAP_R, MAP_Z, MAP_N, MAP_N)
    t1 = time.perf_counter()
    h = fem.evaluate(field, pts)
    t2 = time.perf_counter()

    for (r, z), v in zip(pts, h):
        checks.check(abs(v - r) <= EVAL_TOL, f"|H - r| = {abs(v - r):.3e} at ({r}, {z})")
    for j, z in enumerate(z_axis):
        for i, r in enumerate(r_axis):
            level = (r / 4.0) ** 2 + (z / 2.0) ** 2
            if abs(level - 1.0) <= BOUNDARY_TOL:
                continue  # on the boundary either answer is right
            ok = np.isfinite(vals[j, i]) if level < 1.0 else np.isnan(vals[j, i])
            checks.check(bool(ok), f"map cell ({r:g}, {z:g}) = {vals[j, i]}")
    e2e = {"map_s": t1 - t0, "eval_pts_per_s": len(pts) / (t2 - t1)}
    return t2 - t0, e2e, {}


def _environment() -> dict:
    import numpy as np
    import scipy

    from skinfem import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "kernels.USE_NUMBA": getattr(kernels, "USE_NUMBA", "absent"),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.

    Not ru_maxrss: that also counts the parent's high-water mark, which a
    child inherits across fork and exec.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    job = json.load(sys.stdin)
    workload = job["workload"]
    t0 = time.perf_counter()
    import skinfem  # noqa: F401
    import skinfem.cli  # noqa: F401
    import skinfem.postprocess  # noqa: F401

    import_s = time.perf_counter() - t0
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    t1 = time.perf_counter()
    field = eval_b1_setup() if workload == "eval-b1" else None
    result = {"setup_s": import_s + time.perf_counter() - t1}
    if not job["setup_only"]:
        checks = Checks()
        top_before = tracer.top_total if tracer else 0.0
        if workload == "eval-b1":
            wall, e2e, layers = eval_b1(job["inputs"], checks, field)
        else:
            run = {"sweep-b1": sweep_b1, "pconv-a": pconv_a}[workload]
            wall, e2e, layers = run(job["inputs"], checks, job["out"])
        result.update(
            wall_s=wall, e2e=e2e, attempted=checks.attempted, failed=checks.failed,
            notes=checks.notes, env=_environment(),
        )
        if tracer:
            traced, absent = spans.layer_metrics(tracer)
            layers.update(traced)
            # Share of the workload's wall time inside child spans: those of
            # cli.run for the CLI workloads, the top-level calls for eval-b1.
            st = tracer.stats["cli.run"]
            if st.calls:
                cover = st.child / st.total
            else:
                cover = (tracer.top_total - top_before) / wall
            layers["trace.cover_frac"] = cover
            result["layers"] = layers
            result["absent"] = tracer.absent + absent
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
