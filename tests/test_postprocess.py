import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skinfem import fem, mesh, physics, postprocess
from skinfem.physics import PhysicalParams


@pytest.fixture(scope="module")
def solved_a():
    """Manufactured H = r on configuration A (uniform eps)."""
    params = PhysicalParams(sigma=5.0)
    m = mesh.square_mesh_A(2)
    sp = fem.FeSpace(m, 4)
    f = fem.solve(
        fem.assemble(sp, params, fem.SourceSpec.manufactured(params.kappa), uniform_eps=True)
    )
    return f


class TestRegression:
    def test_exact_line_recovery(self):
        y3 = np.linspace(0.01, 0.5, 40)
        values = 10.0 ** (2.0 - 3.0 * y3)
        s, b = postprocess.regression_slope(y3, values, ell=1.0)
        assert s == pytest.approx(3.0, abs=1e-12)
        assert b == pytest.approx(2.0, abs=1e-12)

    def test_exponential_profile(self):
        ell = 0.05
        y3 = np.linspace(0.001, ell, 30)
        values = np.exp(-y3 / ell)
        s, _ = postprocess.regression_slope(y3, values, ell)
        assert s == pytest.approx(1.0 / (ell * np.log(10.0)), rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(-np.pi, np.pi))
    def test_scale_and_phase_invariance(self, scale, phase):
        y3 = np.linspace(0.01, 0.2, 15)
        base = np.exp(-(4.0 + 3.0j) * y3)
        s0, _ = postprocess.regression_slope(y3, base, 0.2)
        s1, _ = postprocess.regression_slope(y3, scale * np.exp(1j * phase) * base, 0.2)
        assert s1 == pytest.approx(s0, rel=1e-9, abs=1e-9)

    def test_window_requires_samples(self):
        with pytest.raises(ValueError):
            postprocess.regression_slope(np.array([0.5, 0.6]), np.array([1.0, 1.0]), 0.1)

    def test_curvature_blind_fit_error_equals_ratio(self):
        # feed the regression a flat-interface profile and compare against
        # the curvature-corrected slope: err = H / (1/ell - H) = curv_ratio
        params = PhysicalParams(sigma=20.0)
        H = 1.25
        y3 = np.linspace(1e-4, params.ell, 50)
        values = np.exp(-y3 / params.ell)  # modulus decay without curvature
        s_fit, _ = postprocess.regression_slope(y3, values, params.ell)
        s_th = physics.theoretical_slope(params, H)
        err = abs(s_th - s_fit) / s_th
        assert err == pytest.approx(physics.curv_ratio(params, H), rel=1e-9)


class TestScaling:
    def test_exact_power_law(self):
        sig = np.array([10.0, 20.0, 40.0, 80.0])
        norms = 3.0 * sig**-0.25
        assert postprocess.scaling_exponent(sig, norms) == pytest.approx(-0.25, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            postprocess.scaling_exponent([1.0, 2.0], [1.0, 1.0])

    def test_needs_three_distinct_sigmas(self):
        # A repeated sigma adds no point to the fit: 80, 80, 80 is one.
        for sigmas in ([80.0, 80.0, 80.0], [5.0, 20.0, 20.0, 5.0]):
            with pytest.raises(ValueError, match="3 distinct sigmas"):
                postprocess.scaling_exponent(sigmas, np.ones(len(sigmas)))

    def test_rejects_nonpositive(self):
        # NaN and inf are not positive finite values either; NaNs never
        # compare equal, so three of them pass the distinct-sigma count.
        for sigmas, norms in [
            ([1.0, 2.0, 3.0], [1.0, -1.0, 1.0]),
            ([np.nan] * 3, [1.0] * 3),
            ([1.0, 2.0, 3.0], [1.0, np.inf, 1.0]),
        ]:
            with pytest.raises(ValueError, match="positive and finite"):
                postprocess.scaling_exponent(sigmas, norms)


class TestConductorNorm:
    def test_linear_field_oracle(self, solved_a):
        # |H| = r on the conductor [0,1]x[-1,1]: norm^2 = int r^3 = 1/2
        assert postprocess.conductor_norm(solved_a) == pytest.approx(
            np.sqrt(0.5), rel=1e-10
        )


def _conductor_norm_per_element(field):
    """The element-by-element conductor norm, twice the half meridian's
    integral: the reference for the batched one."""
    from skinfem.basis import tensor_lagrange_grid
    from skinfem.fem import _geometry_eval, _quad_points

    space = field.space
    m, p = space.mesh, space.p
    xq, w2 = _quad_points(p + 3)
    phi = tensor_lagrange_grid(p, xq)[0]
    total = 0.0
    for e in range(m.n_elements):
        if not m.conductor[e]:
            continue
        X = m.nodes[m.elem_nodes[e]]
        rq, _, _, _, _, _, det = _geometry_eval(X, *tensor_lagrange_grid(m.geomdeg, xq))
        hq = phi @ field.coeffs[space.elem_dofs[e]]
        total += np.sum(w2 * det * rq * np.abs(hq) ** 2)
    return float(np.sqrt(2.0 * total))


@pytest.mark.parametrize(
    "config, spec, p, source",
    [
        ("A", "M2", 6, fem.SourceSpec.dirichlet_radius()),
        ("B1", "M1", 8, fem.SourceSpec.dirichlet_radius()),
        ("C1", "M1", 5, fem.SourceSpec.config_C1()),
    ],
)
def test_conductor_norm_matches_per_element_loop(config, spec, p, source):
    params = PhysicalParams(sigma=20.0)
    space = fem.FeSpace(mesh.mesh_for(config, spec, sigma_max=20.0), p)
    field = fem.solve(fem.assemble(space, params, source))
    assert np.iscomplexobj(field.coeffs) and np.any(field.coeffs.imag != 0)
    ref = _conductor_norm_per_element(field)
    assert postprocess.conductor_norm(field) == pytest.approx(ref, rel=1e-13, abs=0)


class TestExtraction:
    def test_manufactured_trace(self, solved_a):
        y3, vals = postprocess.extract_radial(solved_a, 1.0)
        assert np.all(np.diff(y3) > 0)
        assert y3[0] > 0
        # H = r along z = 0: values are 1 - y3
        assert np.max(np.abs(vals - (1.0 - y3))) < 1e-10

    def test_no_interface_sample(self, solved_a):
        y3, _ = postprocess.extract_radial(solved_a, 1.0)
        assert np.min(y3) > 1e-9

    def test_shell_conductor_depth(self):
        # C1's conductor lies outside the interface, at 2 <= r <= 4 on z = 0:
        # the depth is r - 2, increasing away from the interface.
        m = mesh.mesh_for("C1", "M1", sigma_max=20.0)
        space = fem.FeSpace(m, 3)
        field = fem.solve(
            fem.assemble(space, PhysicalParams(sigma=20.0), fem.SourceSpec.config_C1())
        )
        y3, vals = postprocess.extract_radial(field, 2.0)
        assert len(y3) > 3 and y3[0] > 1e-9 and np.all(np.diff(y3) > 0)
        assert y3[-1] == pytest.approx(2.0, abs=1e-12)
        pts = np.column_stack([2.0 + y3, np.zeros_like(y3)])
        assert np.allclose(vals, fem.evaluate(field, pts), rtol=0, atol=1e-10 * np.max(np.abs(vals)))


def _stub_field(monkeypatch, fn):
    """Let `fem.evaluate`, which corner_slopes reads a field by, return the
    closed form fn(r, z); the field passed is then not read."""
    monkeypatch.setattr(
        postprocess.fem, "evaluate", lambda field, pts: np.array([fn(r, z) for r, z in pts])
    )


class TestCornerSlopes:
    def test_constant_rate_field(self, monkeypatch):
        s = 7.0

        def fn(r, z):
            rho = np.hypot(1.0 - r, 1.0 - z)
            return 10.0 ** (-s * rho)

        _stub_field(monkeypatch, fn)
        params = PhysicalParams(sigma=80.0)
        mid, slopes = postprocess.corner_slopes(None, params, corner=(1.0, 1.0))
        assert np.allclose(slopes, s, rtol=1e-9)

    def test_eleven_samples_at_quarter_skin_depths(self, monkeypatch):
        # At this pair (10 ell/4) / (ell/4) rounds below 10, so a count
        # derived from a depth range would lose the last sample.
        params = PhysicalParams(sigma=0.14063, omega=3e6)
        assert (10 * params.ell / 4) / (params.ell / 4.0) < 10.0
        _stub_field(monkeypatch, lambda r, z: 10.0 ** (r + z))
        mid, slopes = postprocess.corner_slopes(None, params)
        rho = params.ell / 4.0 * np.arange(1, 12)
        assert np.array_equal(mid, 0.5 * (rho[1:] + rho[:-1]))
        assert len(slopes) == 10


class TestCsv:
    def test_profile_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        postprocess.write_profile_csv(path, [0.1, 0.2], [1.0, 0.1])
        lines = path.read_text().splitlines()
        assert lines[0] == "y3,log10H"
        assert len(lines) == 3
        assert float(lines[2].split(",")[1]) == pytest.approx(-1.0)

    def test_profile_csv_drops_zero_magnitude(self, tmp_path):
        path = tmp_path / "p.csv"
        postprocess.write_profile_csv(path, [0.1, 0.2], [1.0, 0.0])
        assert len(path.read_text().splitlines()) == 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rho = np.linspace(0.0, 1.0, 7)
        sl = np.pi * rho
        postprocess.write_csv(a, "rho,slope", (rho, sl))
        postprocess.write_csv(b, "rho,slope", (rho, sl))
        assert a.read_bytes() == b.read_bytes()

    def test_scaling_csv_header(self, tmp_path):
        # ints print without a decimal point, NaN as nan, floats round-trip
        path = tmp_path / "s.csv"
        postprocess.write_csv(path, "sigma,p,A", ([10.0], [16], [np.nan]))
        postprocess.write_csv(tmp_path / "t.csv", "x", ([0.1 + 0.2],))
        assert path.read_text() == "sigma,p,A\n10,16,nan\n"
        assert float((tmp_path / "t.csv").read_text().split()[1]) == 0.1 + 0.2


class TestFieldMap:
    def test_nan_outside(self, solved_a):
        r_axis, z_axis, vals = postprocess.imag_field_map(
            solved_a, (0.1, 2.5), (0.0, 0.0), 5, 1
        )
        assert np.isnan(vals[0, -1])  # r = 2.5 is outside
        assert not np.isnan(vals[0, 0])
