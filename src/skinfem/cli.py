"""Config-driven experiment runner.

Experiments are described by a flat INI file and produce deterministic CSV
artifacts plus a manifest. Example:

    [experiment]
    study = slope-study
    config = B1
    sigma = 5, 20, 80
    p = 10, 12, 16
    mesh = M3
    out = results/slopes

Lists are separated by commas only. `;` and `#` start a comment, on a line of
their own or after whitespace inside a line, so `p = 10, 12 ; degrees` reads
as `p = 10, 12`.

Exit codes: 0 ok, 2 config error, 3 solve error, 4 postprocess error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fem, geometry, mesh, physics, postprocess

__all__ = ["ExperimentConfig", "load_config", "run", "main", "ConfigError"]

STUDIES = (
    "solve",
    "p-convergence",
    "h-stability",
    "sigma-scaling",
    "slope-study",
    "corner-study",
    "field-map",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVE = 3
EXIT_POST = 4

_MESH_SPEC = re.compile(r"[Mm][1-9][0-9]*")


class ConfigError(ValueError):
    pass


class PostprocessError(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    study: str
    config: str
    sigmas: list = field(default_factory=list)
    ps: list = field(default_factory=list)
    mesh_spec: str = "M3"
    out: str = "results"
    omega: float = physics.OMEGA_DEFAULT

    def validate(self):
        if self.study not in STUDIES:
            raise ConfigError(
                f"field 'study': unknown kind {self.study!r} (choose from {', '.join(STUDIES)})"
            )
        if self.config not in geometry.CONFIG_PARAMS:
            raise ConfigError(f"field 'config': unknown configuration {self.config!r}")
        if self.study == "corner-study" and self.config != "A":
            raise ConfigError("field 'config': corner-study requires configuration A")
        if not self.sigmas:
            raise ConfigError("field 'sigma': empty conductivity list")
        if not all(0 < s < math.inf for s in self.sigmas):
            raise ConfigError("field 'sigma': conductivities must be positive and finite")
        if not 0 < self.omega < math.inf:
            raise ConfigError(f"field 'omega': {self.omega!r} is not positive and finite")
        if not self.ps:
            raise ConfigError("field 'p': empty degree list")
        if any(not 1 <= p <= fem.MAX_DEGREE for p in self.ps):
            raise ConfigError(f"field 'p': degrees must lie in 1..{fem.MAX_DEGREE}")
        if self.study in ("solve", "slope-study") and len(self.ps) not in (1, len(self.sigmas)):
            raise ConfigError("field 'p': give one degree or one per sigma")
        if self.study in ("sigma-scaling", "corner-study", "field-map", "h-stability", "p-convergence") and len(self.ps) < 1:
            raise ConfigError("field 'p': at least one degree required")
        specs = self.mesh_spec.split("+") if self.study == "h-stability" else [self.mesh_spec]
        if not all(_MESH_SPEC.fullmatch(s.strip()) for s in specs):
            raise ConfigError(
                f"field 'mesh': bad spec {self.mesh_spec!r} (expected 'M<k>' with k >= 1)"
            )
        if not self.out:
            raise ConfigError("field 'out': empty output directory")

    def paired(self):
        """(sigma, p) pairs: a single p broadcasts over all sigmas."""
        ps = self.ps if len(self.ps) == len(self.sigmas) else [self.ps[0]] * len(self.sigmas)
        return list(zip(self.sigmas, ps))

    def key(self) -> str:
        raw = "|".join(
            [
                self.study,
                self.config,
                ",".join(f"{s:.17g}" for s in self.sigmas),
                ",".join(str(p) for p in self.ps),
                self.mesh_spec,
                f"{self.omega:.17g}",
            ]
        )
        return hashlib.sha256(raw.encode()).hexdigest()


def _parse_float(tok: str, name: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"field {name!r}: cannot parse {tok.strip()!r} as a number")


def _parse_floats(raw: str, name: str):
    return [_parse_float(tok, name) for tok in raw.split(",") if tok.strip()]


def _parse_ints(raw: str, name: str):
    out = []
    for x in _parse_floats(raw, name):
        if not x.is_integer():
            raise ConfigError(f"field {name!r}: {x!r} is not an integer")
        out.append(int(x))
    return out


def load_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None
    )
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}")
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if "experiment" not in cp:
        raise ConfigError(f"{path}: missing [experiment] section")
    sec = cp["experiment"]
    known = {"study", "config", "sigma", "p", "mesh", "out", "omega"}
    for k in sec:
        if k not in known:
            raise ConfigError(f"{path}: unknown field {k!r} in [experiment]")
    cfg = ExperimentConfig(
        study=sec.get("study", "solve").strip(),
        config=sec.get("config", "").strip(),
        sigmas=_parse_floats(sec.get("sigma", ""), "sigma"),
        ps=_parse_ints(sec.get("p", ""), "p"),
        mesh_spec=sec.get("mesh", "M3").strip(),
        out=sec.get("out", "results").strip(),
        omega=_parse_float(sec.get("omega", str(physics.OMEGA_DEFAULT)), "omega"),
    )
    return cfg


# ---------------------------------------------------------------------------
# Study implementations

def _source_for(config: str) -> fem.SourceSpec:
    if config == "C1":
        return fem.SourceSpec.config_C1()
    return fem.SourceSpec.dirichlet_radius()


class _Runner:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.written: list[str] = []
        self.dom = geometry.meridian_domain(cfg.config)
        self.source = _source_for(cfg.config)
        self._spaces: dict[tuple[str, int], fem.FeSpace] = {}

    # -- helpers ------------------------------------------------------------

    def _mesh(self, spec: str):
        sigma_max = max(self.cfg.sigmas)
        return mesh.mesh_for(self.cfg.config, spec, sigma_max=sigma_max)

    def _space(self, spec: str, p: int) -> fem.FeSpace:
        key = (spec, p)
        if key not in self._spaces:
            self._spaces[key] = fem.FeSpace(self._mesh(spec), p)
        return self._spaces[key]

    def _solve(self, spec: str, p: int, sigma: float) -> fem.DiscreteField:
        params = physics.PhysicalParams(sigma=sigma, omega=self.cfg.omega)
        space = self._space(spec, p)
        system = fem.assemble(space, params, self.source)
        return fem.solve(system)

    def _path(self, name: str) -> str:
        path = os.path.join(self.cfg.out, name)
        self.written.append(path)
        return path

    def _ref_norm(self, spec: str, p: int, sigma: float) -> float:
        """Reference conductor norm, cached on disk keyed by the input hash."""
        raw = "|".join(
            [self.cfg.config, spec, str(p), f"{sigma:.17g}", f"{self.cfg.omega:.17g}"]
        )
        h = hashlib.sha256(raw.encode()).hexdigest()
        cache_dir = os.path.join(self.cfg.out, ".cache")
        os.makedirs(cache_dir, exist_ok=True)
        cache = os.path.join(cache_dir, f"ref_{h}.txt")
        if os.path.exists(cache):
            with open(cache) as f:
                return float(f.read().strip())
        A = postprocess.conductor_norm(self._solve(spec, p, sigma))
        with open(cache, "w") as f:
            f.write(f"{A:.17g}\n")
        return A

    # -- studies ------------------------------------------------------------

    def run(self):
        os.makedirs(self.cfg.out, exist_ok=True)
        # A manifest left by an earlier run must not vouch for this one's
        # artifacts if it fails; a successful run writes a new one last.
        manifest = os.path.join(self.cfg.out, "manifest.txt")
        if os.path.exists(manifest):
            os.remove(manifest)
        getattr(self, "study_" + self.cfg.study.replace("-", "_"))()
        self._write_manifest()

    def study_solve(self):
        rows = []
        for sigma, p in self.cfg.paired():
            f = self._solve(self.cfg.mesh_spec, p, sigma)
            f.meta = {"config": self.cfg.config, "sigma": sigma, "mesh": self.cfg.mesh_spec}
            fem.write_field(f, self._path(f"field_s{sigma:g}_p{p}.txt"))
            rows.append((sigma, float(p), postprocess.conductor_norm(f)))
        cols = tuple(np.array(c) for c in zip(*rows))
        postprocess._write_csv(self._path("norms.csv"), "sigma,p,A", cols)

    def study_slope_study(self):
        H = self.dom.equator_mean_curvature()
        a = self.dom.equator_interface_radius
        lines = ["sigma,ell,s,curv_ratio,p,n,s_fit,err"]
        for sigma, p in self.cfg.paired():
            params = physics.PhysicalParams(sigma=sigma, omega=self.cfg.omega)
            f = self._solve(self.cfg.mesh_spec, p, sigma)
            rep = postprocess.slope_report(f, params, H, a)
            y3, vals = postprocess.extract_radial(f, a)
            postprocess.write_profile_csv(
                self._path(f"profile_s{sigma:g}_p{p}.csv"), y3, vals
            )
            lines.append(
                ",".join(
                    f"{v:.17g}"
                    for v in (
                        sigma,
                        rep.ell,
                        rep.slope_theory,
                        rep.curv_ratio,
                        p,
                        rep.n_samples,
                        rep.slope_fit,
                        rep.err,
                    )
                )
            )
        with open(self._path("slope_table.csv"), "w") as f:
            f.write("\n".join(lines) + "\n")

    def study_p_convergence(self):
        if self.cfg.config == "A":
            ref_spec, ref_p = "M3", 16
        else:
            ref_spec, ref_p = "M6", 20
        for sigma in self.cfg.sigmas:
            ref = self._ref_norm(ref_spec, ref_p, sigma)
            ps, diffs = [], []
            for p in self.cfg.ps:
                A = postprocess.conductor_norm(self._solve(self.cfg.mesh_spec, p, sigma))
                ps.append(float(p))
                diffs.append(abs(A - ref))
            postprocess._write_csv(
                self._path(f"pconv_s{sigma:g}.csv"),
                "p,absdiff",
                (np.array(ps), np.array(diffs)),
            )

    def study_h_stability(self):
        specs = [s.strip() for s in self.cfg.mesh_spec.split("+")]
        p = self.cfg.ps[0]
        for sigma in self.cfg.sigmas:
            ks, norms = [], []
            for spec in specs:
                A = postprocess.conductor_norm(self._solve(spec, p, sigma))
                ks.append(float(spec[1:]))
                norms.append(A)
            postprocess._write_csv(
                self._path(f"hstab_s{sigma:g}_p{p}.csv"),
                "mesh,A",
                (np.array(ks), np.array(norms)),
            )

    def study_sigma_scaling(self):
        p = self.cfg.ps[0]
        norms = [
            postprocess.conductor_norm(self._solve(self.cfg.mesh_spec, p, s))
            for s in self.cfg.sigmas
        ]
        postprocess.write_scaling_csv(self._path("scaling.csv"), self.cfg.sigmas, norms)
        try:
            t = postprocess.scaling_exponent(self.cfg.sigmas, norms)
        except ValueError as exc:
            raise PostprocessError(str(exc))
        with open(self._path("scaling_exponent.txt"), "w") as f:
            f.write(f"{t:.17g}\n")

    def study_corner_study(self):
        p = self.cfg.ps[0]
        for sigma in self.cfg.sigmas:
            params = physics.PhysicalParams(sigma=sigma, omega=self.cfg.omega)
            f = self._solve(self.cfg.mesh_spec, p, sigma)
            r0 = self.dom.params["r0"]
            l0 = self.dom.params["l0"]
            mid, slopes = postprocess.corner_slopes(
                f, corner=(r0, l0 / 2.0), params=params, max_depth=10 * params.ell / 4
            )
            postprocess.write_slopes_csv(
                self._path(f"corner_s{sigma:g}_p{p}.csv"), mid, slopes
            )

    def study_field_map(self):
        p = self.cfg.ps[0]
        sigma = self.cfg.sigmas[0]
        f = self._solve(self.cfg.mesh_spec, p, sigma)
        if self.cfg.config == "A":
            rmax = self.dom.params["r1"]
            zmax = self.dom.params["l1"] / 2.0
        else:
            rmax = self.dom.params["b"]
            zmax = self.dom.params["d"]
        r_axis, z_axis, vals = postprocess.imag_field_map(
            f, (0.0, rmax), (-zmax, zmax), 81, 81
        )
        lines = ["r,z,imH"]
        for j, z in enumerate(z_axis):
            for i, r in enumerate(r_axis):
                v = vals[j, i]
                lines.append(f"{r:.17g},{z:.17g},{'nan' if np.isnan(v) else format(v, '.17g')}")
        with open(self._path(f"fieldmap_s{sigma:g}_p{p}.csv"), "w") as f_:
            f_.write("\n".join(lines) + "\n")

    # -- manifest -----------------------------------------------------------

    def _write_manifest(self):
        key = self.cfg.key()
        lines = [f"input {key}"]
        for path in sorted(self.written):
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            lines.append(f"{os.path.relpath(path, self.cfg.out)} {digest}")
        with open(os.path.join(self.cfg.out, "manifest.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")

    def cleanup_partial(self):
        for path in self.written:
            if os.path.exists(path):
                os.remove(path)


def run(cfg: ExperimentConfig) -> int:
    try:
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    runner = _Runner(cfg)
    try:
        runner.run()
    except PostprocessError as exc:
        runner.cleanup_partial()
        print(f"postprocess error: {exc}", file=sys.stderr)
        return EXIT_POST
    except Exception as exc:
        runner.cleanup_partial()
        print(f"solve error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="skinfem", description=__doc__)
    ap.add_argument("--config", required=True, help="path to INI experiment file")
    ap.add_argument("--study", choices=STUDIES, help="override the study kind")
    ap.add_argument("--out", help="override the output directory")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.study:
        cfg.study = args.study
    if args.out:
        cfg.out = args.out
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
