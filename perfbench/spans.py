"""Per-layer spans and counters, recorded from outside the package.

`install` replaces module attributes of skinfem (for example
`skinfem.fem.assemble`) with timing wrappers. Callers inside the package look
these names up through the module at call time (`kernels.element_matrix`,
`fem.assemble`, the fem-global `locate`), so every call is seen without an
edit to `src/`. A target that no longer exists is recorded as absent and left
alone, so the benchmark keeps running when a later change deletes or reshapes
a layer.

A span's self time is its duration minus the durations of its direct child
spans. Spans and counters stay in memory and are reduced to per-layer metrics
once, after the workload has finished.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class _Stat:
    __slots__ = ("total", "child", "calls", "errors")

    def __init__(self):
        self.total = 0.0
        self.child = 0.0
        self.calls = 0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxes: dict[str, float] = defaultdict(float)
        self.top_total = 0.0  # summed duration of spans opened with no parent
        self.absent: list[str] = []
        self.hook_failed: set[str] = set()
        self._stack: list[float] = []  # child time accumulated per open span

    def wrap(self, name, fn, before=None, after=None):
        """Return fn timed as span `name`. `before(tracer, args, kwargs)` records
        counters from every call, `after(tracer, args, kwargs, result)` from a
        successful one."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(name, before, args, kwargs)
            stat = self.stats[name]
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stat.total += dt
                stat.child += self._stack.pop()
                stat.calls += 1
                if self._stack:
                    self._stack[-1] += dt
                else:
                    self.top_total += dt
            if after is not None:
                self._hook(name, after, args, kwargs, result)
            return result

        return traced

    def _hook(self, name, hook, *args):
        if name in self.hook_failed:
            return
        try:
            hook(self, *args)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError):
            # The layer changed its arguments or result; its counters are
            # reported absent.
            self.hook_failed.add(name)


# --- counters taken from arguments and results -------------------------------

def _after_mesh_for(tr, args, kwargs, mesh):
    tr.maxes["mesh.n_elements"] = max(tr.maxes["mesh.n_elements"], mesh.n_elements)


def _after_fespace_init(tr, args, kwargs, _):
    tr.maxes["fem.n_dofs"] = max(tr.maxes["fem.n_dofs"], args[0].n_dofs)


def _after_element_matrix(tr, args, kwargs, _):
    nq, n = args[0].shape  # phi: quadrature points x basis functions
    tr.counts["kernels.flops"] += 6.0 * nq * n * n


def _after_assemble(tr, args, kwargs, system):
    space = system.space
    n2 = (space.p + 1) ** 2
    tr.maxes["fem.nnz"] = max(tr.maxes["fem.nnz"], system.matrix.nnz)
    # rows and cols as int64 plus one complex128 value per element-matrix entry
    tr.counts["fem.triplet_bytes"] += 32.0 * space.mesh.n_elements * n2 * n2


def _after_factor(tr, args, kwargs, fact):
    lu_nnz = fact.lu.L.nnz + fact.lu.U.nnz
    tr.maxes["linsolve.lu_nnz"] = max(tr.maxes["linsolve.lu_nnz"], lu_nnz)
    tr.counts["linsolve.lu_nnz_sum"] += lu_nnz
    tr.counts["linsolve.a_nnz_sum"] += args[0].csr.nnz


def _before_evaluate(tr, args, kwargs):
    # Counted before the call: points outside the mesh raise.
    points = args[1] if len(args) > 1 else kwargs["points"]
    shape = getattr(points, "shape", None) or (len(points),)
    tr.counts["fem.evaluate_points"] += 1 if len(shape) == 1 else shape[0]


# (module, attribute path, span name, hook before the call, hook after it)
TARGETS = [
    ("skinfem.mesh", "mesh_for", "mesh.mesh_for", None, _after_mesh_for),
    ("skinfem.fem", "FeSpace.__init__", "fem.FeSpace", None, _after_fespace_init),
    ("skinfem.fem", "assemble", "fem.assemble", None, _after_assemble),
    ("skinfem.kernels", "element_matrix", "kernels.element_matrix", None, _after_element_matrix),
    ("skinfem.fem", "solve", "fem.solve", None, None),
    ("skinfem.linsolve", "factor", "linsolve.factor", None, _after_factor),
    ("skinfem.linsolve", "backsolve", "linsolve.backsolve", None, None),
    ("skinfem.fem", "evaluate", "fem.evaluate", _before_evaluate, None),
    ("skinfem.fem", "locate", "fem.locate", None, None),
    ("skinfem.fem", "inverse_map", "fem.inverse_map", None, None),
    ("skinfem.postprocess", "conductor_norm", "postprocess.conductor_norm", None, None),
    ("skinfem.postprocess", "imag_field_map", "postprocess.imag_field_map", None, None),
    ("skinfem.cli", "run", "cli.run", None, None),
]


def install(tracer: Tracer):
    """Wrap every target that exists; record the others in tracer.absent."""
    for modname, path, name, before, after in TARGETS:
        try:
            owner = importlib.import_module(modname)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.absent.append(name)
            continue
        if not callable(fn):
            tracer.absent.append(name)
            continue
        setattr(owner, attr, tracer.wrap(name, fn, before, after))


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> tuple[dict, list]:
    """Per-layer metric values by name, plus the names left absent.

    Sizes (elements, DOFs, nnz, LU nnz) are the largest seen; times, calls,
    flops and bytes are summed over calls. A metric is absent when a span it
    is computed from was not installed, or when its counters (a need written
    "<span>:counters") could not be read from that span's arguments or result.
    """
    st = tr.stats  # a defaultdict: a span never entered reads as zero
    present = {target[2] for target in TARGETS} - set(tr.absent)
    present |= {n + ":counters" for n in present - tr.hook_failed}

    def self_s(name):
        return st[name].total - st[name].child

    km_s = st["kernels.element_matrix"].total
    gflop = tr.counts["kernels.flops"] / 1e9
    evaluated = tr.counts["fem.evaluate_points"]
    spec = {
        # name: (value, spans it needs)
        "kernels.element_matrix_s": (km_s, ["kernels.element_matrix"]),
        "kernels.element_matrix_calls": (st["kernels.element_matrix"].calls, ["kernels.element_matrix"]),
        "kernels.gflops": (gflop, ["kernels.element_matrix:counters"]),
        "kernels.gflop_per_s": (_ratio(gflop, km_s), ["kernels.element_matrix:counters"]),
        "fem.assemble_s": (st["fem.assemble"].total, ["fem.assemble"]),
        "fem.assemble_self_s": (self_s("fem.assemble"), ["fem.assemble", "kernels.element_matrix"]),
        "fem.assemble_calls": (st["fem.assemble"].calls, ["fem.assemble"]),
        "fem.nnz": (tr.maxes["fem.nnz"], ["fem.assemble:counters"]),
        "fem.triplet_bytes": (tr.counts["fem.triplet_bytes"], ["fem.assemble:counters"]),
        "fem.solve_s": (st["fem.solve"].total, ["fem.solve"]),
        "fem.solve_self_s": (self_s("fem.solve"), ["fem.solve", "linsolve.factor", "linsolve.backsolve"]),
        "linsolve.factor_s": (st["linsolve.factor"].total, ["linsolve.factor"]),
        "linsolve.backsolve_s": (st["linsolve.backsolve"].total, ["linsolve.backsolve"]),
        "linsolve.lu_nnz": (tr.maxes["linsolve.lu_nnz"], ["linsolve.factor:counters"]),
        "linsolve.fill_ratio": (
            _ratio(tr.counts["linsolve.lu_nnz_sum"], tr.counts["linsolve.a_nnz_sum"]),
            ["linsolve.factor:counters"],
        ),
        "fem.evaluate_s": (st["fem.evaluate"].total, ["fem.evaluate"]),
        "fem.evaluate_points": (evaluated, ["fem.evaluate:counters"]),
        "fem.locate_calls": (st["fem.locate"].calls, ["fem.locate"]),
        "fem.inverse_map_calls": (st["fem.inverse_map"].calls, ["fem.inverse_map"]),
        "fem.inverse_map_per_point": (
            _ratio(st["fem.inverse_map"].calls, evaluated),
            ["fem.inverse_map", "fem.evaluate:counters"],
        ),
        "fem.locate_miss_frac": (
            _ratio(st["fem.locate"].errors, st["fem.locate"].calls), ["fem.locate"]
        ),
        "mesh.mesh_for_s": (st["mesh.mesh_for"].total, ["mesh.mesh_for"]),
        "mesh.n_elements": (tr.maxes["mesh.n_elements"], ["mesh.mesh_for:counters"]),
        "fem.FeSpace_s": (st["fem.FeSpace"].total, ["fem.FeSpace"]),
        "fem.n_dofs": (tr.maxes["fem.n_dofs"], ["fem.FeSpace:counters"]),
        "postprocess.conductor_norm_s": (st["postprocess.conductor_norm"].total, ["postprocess.conductor_norm"]),
        "postprocess.imag_field_map_s": (st["postprocess.imag_field_map"].total, ["postprocess.imag_field_map"]),
        "cli.run_s": (st["cli.run"].total, ["cli.run"]),
        "cli.self_s": (self_s("cli.run"), ["cli.run"]),
    }
    out, absent = {}, []
    for name, (value, needs) in spec.items():
        if all(n in present for n in needs):
            out[name] = float(value)
        else:
            absent.append(name)
    return out, absent
