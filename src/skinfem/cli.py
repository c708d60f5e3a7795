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

Exit codes: 0 ok, 2 config error (or an output path under `out` that cannot
be written), 3 solve error, 4 postprocess error. Any other exception is a bug:
the run removes its partial outputs and lets it propagate.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

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

_ONE_DEGREE_STUDIES = ("h-stability", "sigma-scaling", "corner-study", "field-map")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVE = 3
EXIT_POST = 4


class ConfigError(ValueError):
    pass


class PostprocessError(RuntimeError):
    pass


# Failures of the numerical pipeline on valid input: exit 3.
_SOLVE_ERRORS = (fem.AssemblyError, mesh.MeshGenerationError)


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
        """Raise ConfigError naming the first bad field; spell the mesh spec M<k>."""
        if self.study not in STUDIES:
            raise ConfigError(
                f"field 'study': unknown kind {self.study!r} (choose from {', '.join(STUDIES)})"
            )
        if self.config not in geometry.CONFIGURATIONS:
            raise ConfigError(f"field 'config': unknown configuration {self.config!r}")
        geom = geometry.CONFIGURATIONS[self.config]
        if self.study == "corner-study" and geom.corner is None:
            raise ConfigError("field 'config': corner-study requires configuration A")
        if not self.sigmas:
            raise ConfigError("field 'sigma': empty conductivity list")
        if not all(0 < s < math.inf for s in self.sigmas):
            raise ConfigError("field 'sigma': conductivities must be positive and finite")
        if not 0 < self.omega < math.inf:
            raise ConfigError(f"field 'omega': {self.omega!r} is not positive and finite")
        for s in self.sigmas:
            try:
                physics.PhysicalParams(sigma=s, omega=self.omega)
            except ValueError as exc:
                raise ConfigError(f"fields 'sigma' and 'omega': {exc}") from None
        if self.study == "corner-study":
            # corner_slopes samples the diagonal from (r0, l0/2) inward down to
            # the depth _CORNER_SAMPLES * ell / 4, which must stay off the axis.
            n = postprocess._CORNER_SAMPLES
            ell_max = 4.0 * math.sqrt(2.0) * min(geom.r0, (geom.l0 + geom.l1) / 2.0) / n
            if physics.PhysicalParams(sigma=min(self.sigmas), omega=self.omega).ell >= ell_max:
                raise ConfigError(
                    f"fields 'sigma' and 'omega': sigma {min(self.sigmas)!r} at omega "
                    f"{self.omega!r} is too small; corner-study samples down to {n} ell/4 "
                    f"and needs ell = sqrt(2/(omega mu0 sigma)) < {ell_max:.4g} m"
                )
        if not self.ps:
            raise ConfigError("field 'p': empty degree list")
        if any(not 1 <= p <= fem.MAX_DEGREE for p in self.ps):
            raise ConfigError(f"field 'p': degrees must lie in 1..{fem.MAX_DEGREE}")
        if self.study in ("solve", "slope-study") and len(self.ps) not in (1, len(self.sigmas)):
            raise ConfigError("field 'p': give one degree or one per sigma")
        if self.study in _ONE_DEGREE_STUDIES and len(self.ps) != 1:
            raise ConfigError(f"field 'p': {self.study} takes exactly one degree")
        if self.study == "field-map" and len(self.sigmas) != 1:
            raise ConfigError("field 'sigma': field-map takes exactly one conductivity")
        if self.study == "sigma-scaling" and len(set(self.sigmas)) < 3:
            raise ConfigError("field 'sigma': sigma-scaling needs at least 3 distinct conductivities")
        if self.study != "sigma-scaling":
            # A study's artifacts are named by sigma's %g, and by p but for
            # p-convergence's; sigma-scaling writes none per sigma.
            named = {}
            for sigma, p in self.paired():
                name = f"s{sigma:g}" + ("" if self.study == "p-convergence" else f"_p{p}")
                if name in named:
                    raise ConfigError(
                        f"field 'sigma': {named[name]!r} and {sigma!r} give the same "
                        f"artifact name ({name})"
                    )
                named[name] = sigma
        specs = self.mesh_spec.split("+") if self.study == "h-stability" else [self.mesh_spec]
        matches = [mesh.MESH_SPEC.fullmatch(s) for s in specs]
        if not all(matches):
            raise ConfigError(
                f"field 'mesh': bad spec {self.mesh_spec!r} (expected 'M<k>' with k >= 1)"
            )
        # One spelling per mesh: the reference reuse and the manifest key compare specs.
        self.mesh_spec = "+".join(f"M{m[1]}" for m in matches)
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
    import configparser  # only here: `run` takes a config already read

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

def _post(fn, *args, **kwargs):
    """Call a postprocess function; a ValueError from it is a PostprocessError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise PostprocessError(str(exc)) from exc


class StudySetup(NamedTuple):
    """What a configuration's studies solve: the problem data, and the mesh
    and degree of the p-convergence reference norm."""

    source: fem.SourceSpec
    pconv_reference: tuple[str, int]


STUDY_TABLE = {
    "A": StudySetup(fem.SourceSpec.dirichlet_radius(), ("M3", 16)),
    "B1": StudySetup(fem.SourceSpec.dirichlet_radius(), ("M6", 20)),
    "B2": StudySetup(fem.SourceSpec.dirichlet_radius(), ("M6", 20)),
    "C1": StudySetup(fem.SourceSpec.config_C1(), ("M6", 20)),
    "C2": StudySetup(fem.SourceSpec.dirichlet_radius(), ("M6", 20)),
}


class _Runner:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.written: list[str] = []
        self.geom = geometry.CONFIGURATIONS[cfg.config]
        self.setup = STUDY_TABLE[cfg.config]

    # -- helpers ------------------------------------------------------------

    def _mesh(self, spec: str):
        return mesh.mesh_for(self.cfg.config, spec, max(self.cfg.sigmas), self.cfg.omega)

    def _fields(self, spec: str, p: int, sigmas) -> list:
        """The fields at sigmas on mesh spec and degree p, in their order,
        from one assembly and one `fem.solve_all`."""
        params = [physics.PhysicalParams(sigma=s, omega=self.cfg.omega) for s in sigmas]
        system = fem.assemble(fem.FeSpace(self._mesh(spec), p), params[0], self.setup.source)
        return fem.solve_all(system, params)

    def _norms(self, spec: str, p: int, sigmas) -> list:
        return [_post(postprocess.conductor_norm, f) for f in self._fields(spec, p, sigmas)]

    def _paired_fields(self) -> list:
        """((sigma, p), field) for each of the run's (sigma, p) pairs, in
        their order: the sigmas of one degree are solved together."""
        pairs = self.cfg.paired()
        fields = {}
        for p in dict.fromkeys(p for _, p in pairs):
            sigmas = [s for s, q in pairs if q == p]
            fields.update(zip([(s, p) for s in sigmas], self._fields(self.cfg.mesh_spec, p, sigmas)))
        return [(pair, fields[pair]) for pair in pairs]

    def _path(self, name: str) -> str:
        path = os.path.join(self.cfg.out, name)
        self.written.append(path)
        return path

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
        for (sigma, p), f in self._paired_fields():
            r, z = f.space.dof_coords.T
            postprocess.write_csv(
                self._path(f"field_s{sigma:g}_p{p}.csv"),
                "r,z,re,im",
                (r, z, f.coeffs.real, f.coeffs.imag),
            )
            rows.append((sigma, p, _post(postprocess.conductor_norm, f)))
        postprocess.write_csv(self._path("norms.csv"), "sigma,p,A", zip(*rows))

    def study_slope_study(self):
        H = self.geom.equator_mean_curvature()
        a = self.geom.equator_interface_radius
        rows = []
        for (sigma, p), f in self._paired_fields():
            params = physics.PhysicalParams(sigma=sigma, omega=self.cfg.omega)
            y3, vals = _post(postprocess.extract_radial, f, a)
            rep = _post(postprocess.slope_report, y3, vals, params, H)
            postprocess.write_profile_csv(
                self._path(f"profile_s{sigma:g}_p{p}.csv"), y3, vals
            )
            rows.append(
                (sigma, rep.ell, rep.slope_theory, rep.curv_ratio, p, rep.n_samples,
                 rep.slope_fit, rep.err)
            )
        postprocess.write_csv(
            self._path("slope_table.csv"), "sigma,ell,s,curv_ratio,p,n,s_fit,err", zip(*rows)
        )

    def study_p_convergence(self):
        ref_spec, ref_p = self.setup.pconv_reference
        refs = self._norms(ref_spec, ref_p, self.cfg.sigmas)
        # A degree on the reference's mesh and degree is the reference.
        norms = [
            refs if (self.cfg.mesh_spec, p) == (ref_spec, ref_p)
            else self._norms(self.cfg.mesh_spec, p, self.cfg.sigmas)
            for p in self.cfg.ps
        ]
        for k, (sigma, ref) in enumerate(zip(self.cfg.sigmas, refs)):
            postprocess.write_csv(
                self._path(f"pconv_s{sigma:g}.csv"),
                "p,absdiff",
                (self.cfg.ps, [abs(row[k] - ref) for row in norms]),
            )

    def study_h_stability(self):
        specs = self.cfg.mesh_spec.split("+")
        (p,) = self.cfg.ps
        norms = [self._norms(spec, p, self.cfg.sigmas) for spec in specs]
        ks = [int(spec[1:]) for spec in specs]
        for k, sigma in enumerate(self.cfg.sigmas):
            postprocess.write_csv(
                self._path(f"hstab_s{sigma:g}_p{p}.csv"), "mesh,A", (ks, [row[k] for row in norms])
            )

    def study_sigma_scaling(self):
        (p,) = self.cfg.ps
        norms = self._norms(self.cfg.mesh_spec, p, self.cfg.sigmas)
        postprocess.write_csv(self._path("scaling.csv"), "sigma,A", (self.cfg.sigmas, norms))
        t = _post(postprocess.scaling_exponent, self.cfg.sigmas, norms)
        with open(self._path("scaling_exponent.txt"), "w") as f:
            f.write(f"{t:.17g}\n")

    def study_corner_study(self):
        (p,) = self.cfg.ps
        for sigma, f in zip(self.cfg.sigmas, self._fields(self.cfg.mesh_spec, p, self.cfg.sigmas)):
            params = physics.PhysicalParams(sigma=sigma, omega=self.cfg.omega)
            mid, slopes = _post(postprocess.corner_slopes, f, params, corner=self.geom.corner)
            postprocess.write_csv(
                self._path(f"corner_s{sigma:g}_p{p}.csv"), "rho,slope", (mid, slopes)
            )

    def study_field_map(self):
        (p,) = self.cfg.ps
        (sigma,) = self.cfg.sigmas
        (f,) = self._fields(self.cfg.mesh_spec, p, [sigma])
        rmax, zmax = self.geom.extent
        r_axis, z_axis, vals = _post(
            postprocess.imag_field_map, f, (0.0, rmax), (-zmax, zmax), 81, 81
        )
        R, Z = np.meshgrid(r_axis, z_axis)
        postprocess.write_csv(
            self._path(f"fieldmap_s{sigma:g}_p{p}.csv"),
            "r,z,imH",
            (R.ravel(), Z.ravel(), vals.ravel()),
        )

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
            if os.path.isfile(path):
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
    except BaseException as exc:
        runner.cleanup_partial()
        if isinstance(exc, PostprocessError):
            print(f"postprocess error: {exc}", file=sys.stderr)
            return EXIT_POST
        if isinstance(exc, _SOLVE_ERRORS):
            print(f"solve error: {exc}", file=sys.stderr)
            return EXIT_SOLVE
        if isinstance(exc, OSError) and _under(exc.filename, cfg.out):
            print(f"output error: {exc.filename}: {exc.strerror}", file=sys.stderr)
            return EXIT_CONFIG
        raise
    return EXIT_OK


def _under(path, root: str) -> bool:
    """Whether path is root or lies below it."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        return False
    path, root = os.path.abspath(os.fsdecode(path)), os.path.abspath(root)
    return os.path.commonpath([path, root]) == root


def main(argv=None) -> int:
    import argparse  # only here: `run` needs no command line

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
