import hashlib
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skinfem import cli, fem, mesh, physics, postprocess


def write_ini(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASE = """\
[experiment]
study = solve
config = A
sigma = 5
p = 2
mesh = M1
out = {out}
"""


class TestValidation:
    def test_empty_sigma_list(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[experiment]\nstudy = solve\nconfig = B1\nsigma =\np = 2\n",
        )
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG

    def test_unknown_study(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[experiment]\nstudy = wizardry\nconfig = B1\nsigma = 5\np = 2\n",
        )
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG

    def test_corner_study_requires_config_a(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[experiment]\nstudy = corner-study\nconfig = B1\nsigma = 5\np = 2\n",
        )
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG

    def test_corner_samples_off_the_mesh_rejected(self, tmp_path, capsys):
        # ell = 1.94 m: the depths 11 ell/4 along the corner diagonal would
        # cross the axis r = 0 and leave the mesh.
        out = tmp_path / "out"
        body = (
            "[experiment]\nstudy = corner-study\nconfig = A\nsigma = 0.14063\np = 8\n"
            f"mesh = M4\nomega = 3e6\nout = {out}\n"
        )
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'sigma'" in err and "'omega'" in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma, omega", [("5e-324", "5e-324"), ("1e-300", "1e-10")])
    def test_underflowing_skin_depth_rejected(self, tmp_path, capsys, sigma, omega):
        # omega mu0 sigma underflows: 0.0 for the first pair, subnormal for
        # the second, where 2 / (omega mu0 sigma) overflows.
        out = tmp_path / "out"
        body = (
            f"[experiment]\nstudy = solve\nconfig = B1\nsigma = {sigma}\np = 2\n"
            f"mesh = M1\nomega = {omega}\nout = {out}\n"
        )
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'sigma'" in err and "'omega'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, sigma, omega",
        [("B1", "1e300", "1e300"), ("B1", "1e307", "3e7"), ("A", "5", "1e170"),
         ("A", "1e307", "1e-10")],
    )
    def test_pair_without_finite_scalars_rejected(self, tmp_path, capsys, config, sigma, omega):
        # A skin depth of 0 (the product omega mu0 sigma overflows), kappa^2
        # overflowing, or delta underflowing to 0.
        out = tmp_path / "out"
        body = (
            f"[experiment]\nstudy = solve\nconfig = {config}\nsigma = {sigma}\np = 2\n"
            f"mesh = M1\nomega = {omega}\nout = {out}\n"
        )
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'sigma'" in err and "'omega'" in err
        assert not out.exists()

    def test_unknown_field(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[experiment]\nstudy = solve\nconfig = A\nsigma = 5\np = 2\nfrobnicate = 1\n",
        )
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG

    def test_missing_file(self):
        assert cli.main(["--config", "/nonexistent/exp.ini"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["--threads", "--seed"])
    def test_removed_flag_rejected(self, tmp_path, flag):
        path = write_ini(tmp_path, BASE.format(out=tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", path, flag, "1"])
        assert exc.value.code == 2

    def test_nonnumeric_sigma(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[experiment]\nstudy = solve\nconfig = A\nsigma = high\np = 2\n",
        )
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("p = 2", "p = 2\nomega = fast", "omega"),
            ("p = 2", "p = 2.7", "p"),
            ("mesh = M1", "mesh = Mx", "mesh"),
            ("sigma = 5", "sigma = nan", "sigma"),
            ("sigma = 5", "sigma = 5;20", "sigma"),
        ],
    )
    def test_bad_field_is_config_error(self, tmp_path, capsys, old, new, field):
        body = BASE.format(out=tmp_path / "out").replace(old, new)
        path = write_ini(tmp_path, body)
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "study, sigma, p, field",
        [
            ("h-stability", "5", "2, 3", "p"),
            ("sigma-scaling", "5, 10, 20", "2, 3", "p"),
            ("corner-study", "5", "2, 3", "p"),
            ("field-map", "5", "2, 3", "p"),
            ("field-map", "5, 20", "2", "sigma"),
        ],
    )
    def test_unused_values_rejected(self, tmp_path, capsys, study, sigma, p, field):
        body = (
            BASE.format(out=tmp_path / "out")
            .replace("study = solve", f"study = {study}")
            .replace("sigma = 5", f"sigma = {sigma}")
            .replace("p = 2", f"p = {p}")
        )
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_CONFIG
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "study, sigma, p",
        [
            ("solve", "5, 5", "2"),
            ("solve", "100, 100.0001", "2"),  # both are s100 under %g
            ("solve", "5, 20, 5", "2, 3, 2"),
            ("slope-study", "5, 5.0", "8"),
            ("h-stability", "5, 5", "2"),
            ("corner-study", "20, 20.00001", "2"),
            ("p-convergence", "5, 5", "2, 3"),
            ("p-convergence", "5, 5.000001", "2"),
        ],
    )
    def test_artifact_name_collision_rejected(self, tmp_path, capsys, study, sigma, p):
        body = (
            BASE.format(out=tmp_path / "out")
            .replace("study = solve", f"study = {study}")
            .replace("sigma = 5", f"sigma = {sigma}")
            .replace("p = 2", f"p = {p}")
        )
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_CONFIG
        assert "field 'sigma'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "study, sigmas, ps",
        [
            ("solve", [5.0, 5.0], [2, 3]),  # field_s5_p2.csv and field_s5_p3.csv
            ("slope-study", [100.0, 100.001], [8]),  # s100 and s100.001
            ("sigma-scaling", [5.0, 5.0, 20.0, 80.0], [2]),  # no file per sigma
        ],
    )
    def test_distinct_artifact_names_accepted(self, study, sigmas, ps):
        cli.ExperimentConfig(study=study, config="A", sigmas=sigmas, ps=ps).validate()

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = cli.load_config(write_ini(tmp_path, example))
        cfg.validate()
        assert (cfg.study, cfg.config, cfg.mesh_spec) == ("slope-study", "B1", "M3")
        assert cfg.sigmas == [5.0, 20.0, 80.0]
        assert cfg.ps == [10, 12, 16]


_KEYS = ["study", "config", "sigma", "p", "mesh", "out", "omega"]
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
_TOKEN = st.one_of(
    st.integers(-3, 25).map(str),
    st.floats().map(repr),
    st.sampled_from(
        ["M1", "M2+M3", "Mx", "M0", "fast", "2.7", "1e400", "A", "B1", "C1",
         "solve", "h-stability", "corner-study", "%(x)s", ";", "#", ""]
    ),
    _TEXT,
)
_VALUE = st.lists(_TOKEN, max_size=4).map(", ".join)
_LINE = st.one_of(
    st.tuples(st.sampled_from(_KEYS) | _TEXT, _VALUE).map(" = ".join),
    _TEXT,
)
_INI = st.tuples(
    st.sampled_from(["[experiment]", "[other]", "", "[experiment]\n[experiment]"]),
    st.lists(_LINE, max_size=8),
).map(lambda t: "\n".join([t[0], *t[1]]) + "\n")


@settings(max_examples=300, deadline=None)
@given(_INI)
def test_fuzz_load_config_ends_in_config_error_or_success(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "exp.ini")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        try:
            cli.load_config(path).validate()
        except cli.ConfigError:
            pass


class TestRuns:
    def test_solve_study_artifacts(self, tmp_path):
        out = tmp_path / "out"
        path = write_ini(tmp_path, BASE.format(out=out))
        assert cli.main(["--config", path]) == cli.EXIT_OK
        assert (out / "manifest.txt").exists()
        assert (out / "norms.csv").exists()
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0].startswith("input ")
        assert any("norms.csv" in line for line in manifest[1:])

    @pytest.mark.parametrize("config, p", [("A", 3), ("C1", 2)])
    def test_field_csv_rebuilds_the_solved_field(self, tmp_path, config, p):
        out = tmp_path / "out"
        body = BASE.format(out=out).replace("config = A", f"config = {config}")
        body = body.replace("p = 2", f"p = {p}")
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_OK
        path = out / f"field_s5_p{p}.csv"
        assert path.read_text().splitlines()[0] == "r,z,re,im"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        m = mesh.mesh_for(config, "M1", sigma_max=5.0)
        space = fem.FeSpace(m, p)
        params = physics.PhysicalParams(sigma=5.0)
        solved = fem.solve(fem.assemble(space, params, cli.STUDY_TABLE[config].source))
        assert data.shape == (space.n_dofs, 4)
        assert np.array_equal(data[:, :2], space.dof_coords)
        assert np.array_equal(data[:, 2] + 1j * data[:, 3], solved.coeffs)
        rebuilt = fem.DiscreteField(space, data[:, 2] + 1j * data[:, 3])
        elems = np.random.default_rng(0).choice(m.n_elements, 20)
        points = m.nodes[m.elem_nodes[elems]].mean(axis=1)  # inside each element
        assert np.array_equal(fem.evaluate(rebuilt, points), fem.evaluate(solved, points))

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        p1 = write_ini(tmp_path, BASE.format(out=out1), "a.ini")
        p2 = write_ini(tmp_path, BASE.format(out=out2), "b.ini")
        assert cli.main(["--config", p1]) == cli.EXIT_OK
        assert cli.main(["--config", p2]) == cli.EXIT_OK
        assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()

    def test_study_override_flag(self, tmp_path):
        out = tmp_path / "out"
        body = BASE.format(out=out).replace("study = solve", "study = corner-study")
        path = write_ini(tmp_path, body)
        # override back to solve via the flag
        assert cli.main(["--config", path, "--study", "solve"]) == cli.EXIT_OK

    def test_sigma_scaling_study(self, tmp_path):
        out = tmp_path / "out"
        body = (
            "[experiment]\nstudy = sigma-scaling\nconfig = A\n"
            f"sigma = 5, 10, 20\np = 2\nmesh = M1\nout = {out}\n"
        )
        path = write_ini(tmp_path, body)
        assert cli.main(["--config", path]) == cli.EXIT_OK
        t = float((out / "scaling_exponent.txt").read_text())
        assert -1.0 < t < 0.0

    def test_slope_table_columns(self, tmp_path):
        out = tmp_path / "out"
        body = (
            "[experiment]\nstudy = slope-study\nconfig = A\n"
            f"sigma = 5\np = 8\nmesh = M2\nout = {out}\n"
        )
        path = write_ini(tmp_path, body)
        assert cli.main(["--config", path]) == cli.EXIT_OK
        header = (out / "slope_table.csv").read_text().splitlines()[0]
        assert header == "sigma,ell,s,curv_ratio,p,n,s_fit,err"

    def test_slope_study_shell_conductor(self, tmp_path):
        # C1's conductor lies outside the interface; its fitted slope
        # resolves the negative mean-curvature correction.
        out = tmp_path / "out"
        body = (
            "[experiment]\nstudy = slope-study\nconfig = C1\n"
            f"sigma = 20, 80\np = 12, 16\nmesh = M3\nout = {out}\n"
        )
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_OK
        rows = _golden_columns(out / "slope_table.csv")
        assert np.all(rows["curv_ratio"] < 0)
        assert np.all(rows["err"] < np.abs(rows["curv_ratio"]))

    def test_field_map_located_in_band_elements(self, tmp_path):
        # The C2 conductor shell's thin band elements: at the parent commit
        # four grid points inside the outer boundary read nan.
        out = tmp_path / "out"
        body = (
            "[experiment]\nstudy = field-map\nconfig = C2\n"
            f"sigma = 400\np = 4\nmesh = M3\nout = {out}\n"
        )
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_OK
        rows = _golden_columns(out / "fieldmap_s400_p4.csv")
        g = cli.geometry.CONFIGURATIONS["C2"]
        inside = (rows["r"] / g.b) ** 2 + (rows["z"] / g.d) ** 2 < 1.0
        assert np.count_nonzero(inside) > 81 * 81 / 2
        assert np.all(np.isfinite(rows["imH"][inside]))

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert cli.main(["--config", write_ini(tmp_path, BASE.format(out=out))]) == cli.EXIT_OK
        assert (out / "manifest.txt").exists()

        def no_fit(sigmas, norms):
            raise ValueError("scaling fit failed")

        # A postprocess failure after scaling.csv is written.
        monkeypatch.setattr(cli.postprocess, "scaling_exponent", no_fit)
        body = BASE.format(out=out).replace("study = solve", "study = sigma-scaling")
        body = body.replace("sigma = 5", "sigma = 5, 20, 80")
        assert cli.main(["--config", write_ini(tmp_path, body, "b.ini")]) == cli.EXIT_POST
        assert not (out / "manifest.txt").exists()
        assert not (out / "scaling.csv").exists()

    def test_solve_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = write_ini(tmp_path, BASE.format(out=out))
        from skinfem import postprocess

        def boom(field):
            raise cli.fem.AssemblyError("synthetic failure")

        monkeypatch.setattr(cli.postprocess, "conductor_norm", boom)
        assert cli.main(["--config", path]) == cli.EXIT_SOLVE
        assert not (out / "norms.csv").exists()
        leftovers = [f for f in os.listdir(out)] if out.exists() else []
        assert not any(f.startswith("field_") for f in leftovers)


TWO_SIGMAS = BASE.replace("sigma = 5", "sigma = 5, 20")


def _fail_second_field(monkeypatch, exc):
    """Let fem.solve_all solve the run's first field and raise exc from the
    call that would return its second."""
    solve_all = cli.fem.solve_all
    solved = []

    def flaky(system, params):
        solved.extend(params)
        if len(solved) > 1:
            raise exc
        return solve_all(system, params)

    monkeypatch.setattr(cli.fem, "solve_all", flaky)


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (fem.AssemblyError("singular interior block in element 3"), cli.EXIT_SOLVE),
            (mesh.MeshGenerationError("facet shared by 3 elements"), cli.EXIT_SOLVE),
            (cli.PostprocessError("no conductor samples"), cli.EXIT_POST),
        ],
        ids=["assembly", "mesh", "postprocess"],
    )
    def test_library_error_exit_code(self, tmp_path, monkeypatch, capsys, exc, code):
        out = tmp_path / "out"
        _fail_second_field(monkeypatch, exc)
        assert cli.main(["--config", write_ini(tmp_path, TWO_SIGMAS.format(out=out))]) == code
        assert str(exc) in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_singular_skeleton_exit_3(self, tmp_path, monkeypatch, capsys):
        # Zero skeleton rows and columns: regular interior blocks, a
        # singular summed skeleton.
        assemble = cli.fem.assemble

        def singular(space, *args, **kwargs):
            system = assemble(space, *args, **kwargs)
            bl = fem._skeleton_locals(space.p)
            full = fem.kernels.full_index((space.p + 1) ** 2)
            for a in (system.stiffness, system.mass):
                a[:, full[bl, :]] = 0.0
                a[:, full[:, bl]] = 0.0
            return system

        monkeypatch.setattr(cli.fem, "assemble", singular)
        out = tmp_path / "out"
        assert cli.main(["--config", write_ini(tmp_path, BASE.format(out=out))]) == cli.EXIT_SOLVE
        assert "singular front at element" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_repeated_sigmas_exit_2(self, tmp_path, monkeypatch, capsys):
        # Three copies of one sigma are one point of the scaling fit: the
        # config is refused before any mesh is built.
        def no_mesh(*args, **kwargs):
            raise AssertionError("mesh built for a config that fails validation")

        monkeypatch.setattr(cli.mesh, "mesh_for", no_mesh)
        out = tmp_path / "out"
        body = BASE.format(out=out).replace("study = solve", "study = sigma-scaling")
        body = body.replace("sigma = 5", "sigma = 80, 80, 80")
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "field 'sigma'" in err and "3 distinct" in err
        assert not out.exists()

    def test_postprocess_value_error_exit_4(self, tmp_path, monkeypatch):
        def bad(field):
            raise ValueError("zero magnitude sample")

        monkeypatch.setattr(cli.postprocess, "conductor_norm", bad)
        path = write_ini(tmp_path, BASE.format(out=tmp_path / "out"))
        assert cli.main(["--config", path]) == cli.EXIT_POST

    def test_bug_propagates_without_partial_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        _fail_second_field(monkeypatch, TypeError("unsupported operand"))
        with pytest.raises(TypeError, match="unsupported operand"):
            cli.main(["--config", write_ini(tmp_path, TWO_SIGMAS.format(out=out))])
        assert os.listdir(out) == []

    def test_unwritable_output_exit_2_names_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "norms.csv").mkdir(parents=True)  # a directory where the CSV goes
        assert cli.main(["--config", write_ini(tmp_path, BASE.format(out=out))]) == cli.EXIT_CONFIG
        assert str(out / "norms.csv") in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["norms.csv"]

    def test_os_error_elsewhere_propagates(self, tmp_path, monkeypatch):
        elsewhere = str(tmp_path / "elsewhere" / "x.bin")
        _fail_second_field(monkeypatch, FileNotFoundError(2, "No such file", elsewhere))
        path = write_ini(tmp_path, TWO_SIGMAS.format(out=tmp_path / "out"))
        with pytest.raises(FileNotFoundError):
            cli.main(["--config", path])
        assert os.listdir(tmp_path / "out") == []


class TestSigmaReuse:
    def test_one_assembly_for_a_sigma_sweep(self, tmp_path, monkeypatch):
        calls = []
        kernel = cli.fem.kernels.element_matrix

        def counted(*args):
            result = kernel(*args)
            calls.append(len(result[0]))
            return result

        monkeypatch.setattr(cli.fem.kernels, "element_matrix", counted)
        out = tmp_path / "out"
        body = (
            "[experiment]\nstudy = sigma-scaling\nconfig = A\n"
            f"sigma = 5, 10, 20\np = 2\nmesh = M1\nout = {out}\n"
        )
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_OK
        swept = sum(calls)
        space = fem.FeSpace(mesh.mesh_for("A", "M1", sigma_max=20.0), 2)
        fem.assemble(space, physics.PhysicalParams(sigma=5.0), fem.SourceSpec.dirichlet_radius())
        assert swept == sum(calls) - swept == 2  # one element matrix per shape class

    def test_sweep_b1_kernel_evaluations(self, tmp_path, monkeypatch):
        # The sweep-b1 study, mesh and sigmas (B1 M3 meshed for sigma <= 400)
        # at p=4: the classes depend on the mesh alone. Its 152 elements
        # fall into 73 classes up to z-translation and z-reflection.
        calls = []
        kernel = cli.fem.kernels.element_matrix

        def counted(*args):
            result = kernel(*args)
            calls.append(len(result[0]))
            return result

        monkeypatch.setattr(cli.fem.kernels, "element_matrix", counted)
        out = tmp_path / "out"
        body = (
            "[experiment]\nstudy = sigma-scaling\nconfig = B1\n"
            f"sigma = 80, 200, 400\np = 4\nmesh = M3\nout = {out}\n"
        )
        assert cli.main(["--config", write_ini(tmp_path, body)]) == cli.EXIT_OK
        assert sum(calls) == 73

    @staticmethod
    def _fresh_norm(config, spec, p, sigma, sigma_max):
        """Conductor norm from its own assembly, with no reuse."""
        space = fem.FeSpace(mesh.mesh_for(config, spec, sigma_max=sigma_max), p)
        params = physics.PhysicalParams(sigma=sigma)
        system = fem.assemble(space, params, fem.SourceSpec.dirichlet_radius())
        return postprocess.conductor_norm(fem.solve(system))

    def _check_outputs(self, tmp_path, out, body, expected):
        """Artifacts equal `expected` byte for byte, and so does the manifest."""
        cfg = cli.load_config(write_ini(tmp_path, body))
        assert cli.run(cfg) == cli.EXIT_OK
        ref = tmp_path / "ref"
        ref.mkdir()
        lines = [f"input {cfg.key()}"]
        for name in sorted(expected):
            postprocess.write_csv(str(ref / name), *expected[name])
            data = (ref / name).read_bytes()
            assert (out / name).read_bytes() == data, name
            lines.append(f"{name} {hashlib.sha256(data).hexdigest()}")
        assert (out / "manifest.txt").read_text() == "\n".join(lines) + "\n"

    def test_h_stability_matches_per_sigma_loop(self, tmp_path):
        out = tmp_path / "out"
        body = (
            "[experiment]\nstudy = h-stability\nconfig = A\n"
            f"sigma = 5, 20\np = 3\nmesh = M1+M2\nout = {out}\n"
        )
        expected = {}
        for sigma in (5.0, 20.0):  # sigma outermost, one assembly per solve
            norms = [self._fresh_norm("A", spec, 3, sigma, 20.0) for spec in ("M1", "M2")]
            expected[f"hstab_s{sigma:g}_p3.csv"] = (
                "mesh,A", (np.array([1.0, 2.0]), np.array(norms))
            )
        self._check_outputs(tmp_path, out, body, expected)

    def test_p_convergence_matches_per_sigma_loop(self, tmp_path):
        out = tmp_path / "out"
        body = (
            "[experiment]\nstudy = p-convergence\nconfig = A\n"
            f"sigma = 5, 20\np = 2, 3\nmesh = M1\nout = {out}\n"
        )
        expected = {}
        for sigma in (5.0, 20.0):
            ref = self._fresh_norm("A", "M3", 16, sigma, 20.0)
            diffs = [abs(self._fresh_norm("A", "M1", p, sigma, 20.0) - ref) for p in (2, 3)]
            expected[f"pconv_s{sigma:g}.csv"] = (
                "p,absdiff", (np.array([2.0, 3.0]), np.array(diffs))
            )
        self._check_outputs(tmp_path, out, body, expected)


class TestPConvergenceReference:
    def test_rerun_with_other_sigmas_uses_its_own_mesh(self, tmp_path, monkeypatch):
        # B/C meshes depend on max(sigma), so a rerun into the same `out`
        # with another sigma list has another mesh and another reference.
        # A reference on the run's own mesh and degree gives absdiff 0 exactly.
        b1 = cli.STUDY_TABLE["B1"]._replace(pconv_reference=("M1", 2))
        monkeypatch.setitem(cli.STUDY_TABLE, "B1", b1)
        out = tmp_path / "out"
        for sigmas in ([5.0], [5.0, 80.0]):
            cfg = cli.ExperimentConfig(
                study="p-convergence", config="B1", sigmas=sigmas, ps=[2],
                mesh_spec="M1", out=str(out),
            )
            assert cli.run(cfg) == cli.EXIT_OK
            for sigma in sigmas:
                rows = (out / f"pconv_s{sigma:g}.csv").read_text().splitlines()
                assert rows == ["p,absdiff", "2,0"], (sigmas, sigma)
        assert not (out / ".cache").exists()
        norms = [
            postprocess.conductor_norm(cli._Runner(cli.ExperimentConfig(
                study="p-convergence", config="B1", sigmas=sigmas, ps=[2],
                mesh_spec="M1", out=str(out),
            ))._fields("M1", 2, [5.0])[0])
            for sigmas in ([5.0], [5.0, 80.0])
        ]
        assert norms == [
            pytest.approx(1.3719895303532526, rel=1e-12),
            pytest.approx(1.3640791978794686, rel=1e-12),
        ]


def test_p_convergence_solves_each_mesh_and_degree_once(tmp_path, monkeypatch):
    # With the reference on the run's mesh (A M1 p=2), the listed degree 2
    # reads the reference's fields: two solve_all calls, not three.
    monkeypatch.setitem(cli.STUDY_TABLE, "A", cli.STUDY_TABLE["A"]._replace(pconv_reference=("M1", 2)))
    solve_all = cli.fem.solve_all
    calls = []

    def counted(system, params):
        calls.append((system.space.mesh.n_elements, system.space.p, len(params)))
        return solve_all(system, params)

    monkeypatch.setattr(cli.fem, "solve_all", counted)
    out = tmp_path / "out"
    cfg = cli.ExperimentConfig(
        study="p-convergence", config="A", sigmas=[5.0, 20.0], ps=[2, 3], mesh_spec="M1", out=str(out)
    )
    assert cli.run(cfg) == cli.EXIT_OK
    assert calls == [(4, 2, 2), (4, 3, 2)]
    for sigma in (5, 20):
        rows = (out / f"pconv_s{sigma}.csv").read_text().splitlines()
        assert rows[1] == "2,0"


def test_mesh_spec_spelling_does_not_change_the_run(tmp_path, monkeypatch):
    # 'm1' is M1: degree 3, the reference's mesh and degree, reads the
    # reference's fields, and the artifacts and manifest are the same bytes.
    monkeypatch.setitem(cli.STUDY_TABLE, "A", cli.STUDY_TABLE["A"]._replace(pconv_reference=("M1", 3)))
    solve_all = cli.fem.solve_all
    calls = []

    def counted(system, params):
        calls.append(system.space.p)
        return solve_all(system, params)

    monkeypatch.setattr(cli.fem, "solve_all", counted)
    outputs = []
    for k, spec in enumerate(("M1", "m1")):
        calls.clear()
        out = tmp_path / f"out{k}"
        body = f"[experiment]\nstudy = p-convergence\nconfig = A\nsigma = 5\np = 2, 3\nmesh = {spec}\nout = {out}\n"
        assert cli.main(["--config", write_ini(tmp_path, body, f"{k}.ini")]) == cli.EXIT_OK
        assert calls == [3, 2]
        outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert outputs[0] == outputs[1]


def test_mesh_resolves_the_run_omega():
    # The skin band is 3 ell at the run's omega, not at the default one.
    cfg = cli.ExperimentConfig(
        study="slope-study", config="B1", sigmas=[80.0, 200.0], ps=[8], omega=3e6
    )
    got = cli._Runner(cfg)._mesh("M2")
    b1 = cli.geometry.CONFIGURATIONS["B1"]
    assert np.array_equal(got.nodes, mesh.layered_mesh_B(b1, 2, 200.0, 3e6).nodes)
    assert not np.array_equal(got.nodes, mesh.layered_mesh_B(b1, 2, 200.0).nodes)


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_columns(path):
    """Named numeric columns of a study output: the columns of a CSV, or the
    one number of another text file."""
    if path.suffix == ".csv":
        data = np.genfromtxt(path, delimiter=",", names=True)
        return {col: np.atleast_1d(data[col]) for col in data.dtype.names}
    return {"value": np.atleast_1d(np.loadtxt(path))}


class TestGoldenRuns:
    """CLI runs of every study against outputs committed under tests/golden,
    which `python tests/golden/generate.py <study>` rewrites from CASES.
    The B/C studies (field-map, sigma-scaling, slope-study) were written on
    the conforming B/C core of the whole meridian, and the A studies
    (corner-study, h-stability, p-convergence) by earlier code; the half
    meridian agrees with both to 1e-10. solve, whose field file has one row
    per DOF, was rewritten on the half meridian z >= 0."""

    CASES = {
        "field-map": "config = B1\nsigma = 20\np = 2\nmesh = M1\n",
        "corner-study": "config = A\nsigma = 5, 20\np = 2\nmesh = M1\n",
        "p-convergence": "config = A\nsigma = 20\np = 2, 3\nmesh = M1\n",
        "slope-study": "config = B1\nsigma = 5, 20\np = 8\nmesh = M2\n",
        "sigma-scaling": "config = B1\nsigma = 5, 20, 80\np = 2\nmesh = M1\n",
        "h-stability": "config = A\nsigma = 5, 20\np = 2\nmesh = M1+M2\n",
        "solve": "config = C1\nsigma = 20\np = 2\nmesh = M1\n",
    }

    @pytest.mark.parametrize("study", sorted(CASES))
    def test_matches_golden(self, tmp_path, study):
        out = tmp_path / "out"
        body = f"[experiment]\nstudy = {study}\n{self.CASES[study]}out = {out}\n"
        cfg = cli.load_config(write_ini(tmp_path, body))
        assert cli.run(cfg) == cli.EXIT_OK
        golden = sorted(p.name for p in (GOLDEN / study).iterdir())
        assert sorted(os.listdir(out)) == sorted(golden + ["manifest.txt"])
        for name in golden:
            want = _golden_columns(GOLDEN / study / name)
            got = _golden_columns(out / name)
            assert got.keys() == want.keys(), name
            for col in want:
                w, g = want[col], got[col]
                assert np.array_equal(np.isnan(g), np.isnan(w)), (name, col)
                ok = ~np.isnan(w)
                assert np.max(np.abs(g[ok] - w[ok])) <= 1e-10 * np.max(np.abs(w[ok])), (name, col)
        manifest = [f"input {cfg.key()}"] + [
            f"{name} {hashlib.sha256((out / name).read_bytes()).hexdigest()}"
            for name in golden
        ]
        assert (out / "manifest.txt").read_text() == "\n".join(manifest) + "\n"
        again = tmp_path / "again"
        rerun = write_ini(tmp_path, body.replace(str(out), str(again)), "again.ini")
        assert cli.main(["--config", rerun]) == cli.EXIT_OK
        for name in golden + ["manifest.txt"]:
            assert (again / name).read_bytes() == (out / name).read_bytes(), name
