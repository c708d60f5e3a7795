import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skinfem.geometry import CONFIGURATIONS, AxisPointError, Ellipse
from skinfem.mesh import mesh_for

# Checks against central finite differences of Ellipse.point: none of them
# reuses the closed forms under test.
_FD_STEP = 1e-5
_ELLIPSES = [(2.0, 1.0), (4.0, 1.0), (4.0, 2.0), (8.0, 2.0), (1.5, 1.5)]
_phis = st.floats(0.05, np.pi - 0.05)
_ellipses = st.sampled_from(_ELLIPSES)


def _fd_derivatives(ellipse, phi, h=_FD_STEP):
    """gamma'(phi) and gamma''(phi) by central differences of point."""
    pm, p0, pp = (np.array(ellipse.point(phi + s)) for s in (-h, 0.0, h))
    return (pp - pm) / (2 * h), (pp - 2 * p0 + pm) / h**2


class TestFrenet:
    @settings(max_examples=40, deadline=None)
    @given(_ellipses, _phis)
    def test_tangent_matches_fd(self, ac, phi):
        # The tangent (-n_z, n_r) carried by the inward normal is the unit
        # direction of gamma'.
        ellipse = Ellipse(*ac)
        d1, _ = _fd_derivatives(ellipse, phi)
        nr, nz = ellipse.inward_normal(phi)
        assert np.allclose((-nz, nr), d1 / np.hypot(*d1), rtol=0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(_ellipses, _phis)
    def test_normal_orthogonal(self, ac, phi):
        ellipse = Ellipse(*ac)
        d1, _ = _fd_derivatives(ellipse, phi)
        n = np.array(ellipse.inward_normal(phi))
        assert abs(n @ d1) < 1e-9 * np.hypot(*d1)
        assert np.hypot(*n) == pytest.approx(1.0, abs=1e-14)
        # A short step along n leaves the point inside the ellipse.
        r, z = np.array(ellipse.point(phi)) + 1e-3 * n
        assert (r / ellipse.a) ** 2 + (z / ellipse.c) ** 2 < 1.0

    @settings(max_examples=40, deadline=None)
    @given(_ellipses, _phis)
    def test_curvature_matches_fd_of_tangent(self, ac, phi):
        ellipse = Ellipse(*ac)
        (dr, dz), (ddr, ddz) = _fd_derivatives(ellipse, phi, h=1e-4)
        k_fd = abs(dr * ddz - dz * ddr) / np.hypot(dr, dz) ** 3
        assert ellipse.curvature(phi) == pytest.approx(k_fd, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(_ellipses, _phis)
    def test_mean_curvature_matches_fd(self, ac, phi):
        # Half the sum of the meridian curvature and the parallel circle's
        # normal curvature -n_r / r, where the inward normal n is the unit
        # tangent T rotated clockwise, so n_r = T_z.
        ellipse = Ellipse(*ac)
        (dr, dz), (ddr, ddz) = _fd_derivatives(ellipse, phi, h=1e-4)
        sp = np.hypot(dr, dz)
        k_fd = abs(dr * ddz - dz * ddr) / sp**3
        r, _ = ellipse.point(phi)
        assert ellipse.mean_curvature(phi) == pytest.approx(0.5 * (k_fd - dz / sp / r), rel=1e-6)

    def test_arrays(self):
        ellipse = Ellipse(2.0, 1.0)
        phi = np.linspace(0.1, 3.0, 7)
        for method in (ellipse.point, ellipse.inward_normal):
            want = np.array([method(float(t)) for t in phi]).T
            np.testing.assert_allclose(method(phi), want, rtol=1e-15, atol=1e-15)
        for method in (ellipse.curvature, ellipse.mean_curvature):
            np.testing.assert_allclose(method(phi), [method(float(t)) for t in phi], rtol=1e-15)


class TestEllipse:
    def test_equator_curvatures(self):
        ellipse = Ellipse(2.0, 1.0)
        r, z = ellipse.point(np.pi / 2)
        assert (r, z) == (2.0, pytest.approx(0.0, abs=1e-15))
        # k = a/c^2 = 2, parallel curvature 1/a: H = (2 + 1/2)/2
        assert ellipse.curvature(np.pi / 2) == 2.0
        assert ellipse.mean_curvature(np.pi / 2) == 1.25

    def test_b2_equator(self):
        # k = a/c^2 = 1, parallel curvature 1/a: H = (1 + 1/4)/2
        assert Ellipse(4.0, 2.0).mean_curvature(np.pi / 2) == pytest.approx(0.625, rel=1e-15)

    def test_inward_normal(self):
        nr, nz = Ellipse(2.0, 1.0).inward_normal(np.pi / 2)
        assert nr == -1.0
        assert nz == pytest.approx(0.0, abs=1e-15)
        assert Ellipse(2.0, 1.0).inward_normal(0.0) == (0.0, -1.0)

    def test_axis_point_mean_curvature(self):
        ellipse = Ellipse(2.0, 1.0)
        for phi in (0.0, np.pi, np.array([0.5, np.pi])):
            with pytest.raises(AxisPointError):
                ellipse.mean_curvature(phi)

    def test_max_curvature_bounds_curvature(self):
        for a, c in _ELLIPSES:
            ellipse = Ellipse(a, c)
            k = ellipse.curvature(np.linspace(0.0, np.pi, 20_001))
            # to rounding: on the circle every k is 1/R up to an ulp
            assert np.max(k) <= ellipse.max_curvature * (1.0 + 1e-15)
            assert ellipse.curvature(np.pi / 2) == ellipse.max_curvature == a / c**2

    @pytest.mark.parametrize("a, c", [(1.0, 2.0), (1.0, 0.0), (0.0, 0.0), (-1.0, -2.0)])
    def test_rejects_bad_axes(self, a, c):
        with pytest.raises(ValueError, match="a >= c > 0"):
            Ellipse(a, c)


class TestCircle:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, np.pi), st.floats(0.5, 5.0))
    def test_constant_curvature(self, phi, radius):
        sphere = Ellipse(radius, radius)
        assert sphere.curvature(phi) == pytest.approx(1.0 / radius, rel=1e-14)
        if 0.05 < phi < np.pi - 0.05:
            assert sphere.mean_curvature(phi) == pytest.approx(1.0 / radius, rel=1e-14)


class TestPolyline:
    def test_config_a_lateral_mean_curvature(self):
        # Config A's interface is the polyline of the rectangle's sides; on
        # its lateral wall r = 1: k = 0 and the parallel curvature is 1/r.
        assert CONFIGURATIONS["A"].equator_mean_curvature() == 0.5


class TestConfigurations:
    def test_equator_mean_curvature_signs(self):
        expect = {"A": 0.5, "B1": 1.25, "C1": -1.25, "B2": 2.125, "C2": -2.125}
        # B2 interface: a = 4, c = 1: k = 4, parallel curvature 1/4
        for config, H in expect.items():
            assert CONFIGURATIONS[config].equator_mean_curvature() == H

    def test_interface_radii(self):
        assert CONFIGURATIONS["A"].equator_interface_radius == 1.0
        assert CONFIGURATIONS["B1"].equator_interface_radius == 2.0
        assert CONFIGURATIONS["B2"].equator_interface_radius == 4.0

    def test_extent_and_corner(self):
        # The meridian box [0, r_max] x [-z_max, z_max]; only A has a corner.
        expect = {"A": (2.0, 2.0), "B1": (4.0, 2.0), "C1": (4.0, 2.0), "B2": (8.0, 2.0)}
        for config, extent in expect.items():
            assert CONFIGURATIONS[config].extent == extent
        assert CONFIGURATIONS["A"].corner == (1.0, 1.0)
        assert all(CONFIGURATIONS[c].corner is None for c in ("B1", "B2", "C1", "C2"))

    def test_unknown_config(self):
        with pytest.raises(ValueError, match="unknown configuration 'Z9'"):
            mesh_for("Z9", "M1")
