import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from skinfem import geometry
from skinfem.geometry import (
    AxisPointError,
    CornerPointError,
    PolylineCurve,
    circle_arclength,
    ellipse_arclength,
    meridian_domain,
)


@pytest.fixture(scope="module")
def b1_curve():
    return ellipse_arclength(2.0, 1.0, conductor_inside=True)


class TestFrenet:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 0.95))
    def test_unit_speed(self, frac):
        curve = ellipse_arclength(2.0, 1.0)
        xi = frac * curve.length
        tr, tz = curve.tangent(xi)
        assert np.hypot(tr, tz) == pytest.approx(1.0, abs=1e-10)

    def test_tangent_matches_fd(self, b1_curve):
        xi = 0.37 * b1_curve.length
        h = 1e-6
        p0 = np.array(b1_curve.point(xi - h))
        p1 = np.array(b1_curve.point(xi + h))
        fd = (p1 - p0) / (2 * h)
        assert np.allclose(fd, b1_curve.tangent(xi), atol=1e-8)

    def test_normal_orthogonal(self, b1_curve):
        for frac in [0.2, 0.5, 0.8]:
            xi = frac * b1_curve.length
            t = np.array(b1_curve.tangent(xi))
            n = np.array(b1_curve.normal(xi))
            assert abs(t @ n) < 1e-10
            assert np.hypot(*n) == pytest.approx(1.0, abs=1e-10)

    def test_curvature_matches_fd_of_tangent(self, b1_curve):
        xi = 0.43 * b1_curve.length
        h = 1e-5
        t0 = np.array(b1_curve.tangent(xi - h))
        t1 = np.array(b1_curve.tangent(xi + h))
        # |dT/ds| = |k| for a unit-speed curve
        assert np.hypot(*((t1 - t0) / (2 * h))) == pytest.approx(
            abs(b1_curve.curvature(xi)), rel=1e-4
        )


class TestEllipse:
    def test_equator_curvatures(self, b1_curve):
        xi = 0.5 * b1_curve.length
        r, z = b1_curve.point(xi)
        assert (r, z) == (pytest.approx(2.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))
        assert b1_curve.curvature(xi) == pytest.approx(2.0, rel=1e-9)
        assert b1_curve.mean_curvature(xi) == pytest.approx(1.25, rel=1e-9)

    def test_b2_equator(self):
        curve = ellipse_arclength(4.0, 2.0)
        xi = 0.5 * curve.length
        # k = a/c^2 = 1, z'/r = 1/a: H = (1 + 1/4)/2
        assert curve.mean_curvature(xi) == pytest.approx((1.0 + 0.25) / 2.0, rel=1e-9)

    def test_inward_normal(self, b1_curve):
        xi = 0.5 * b1_curve.length
        nr, nz = b1_curve.normal(xi)
        assert nr == pytest.approx(-1.0, abs=1e-10)
        assert nz == pytest.approx(0.0, abs=1e-10)

    def test_length_oracle(self):
        a, c = 2.0, 1.0
        ds = lambda t: np.hypot(a * np.cos(t), c * np.sin(t))
        expect, _ = quad(ds, 0.0, np.pi)
        curve = ellipse_arclength(a, c)
        assert curve.length == pytest.approx(expect, rel=1e-9)

    def test_reparametrization_consistency(self, b1_curve):
        # point(xi) then arc length from the south pole matches xi
        xi = 0.31 * b1_curve.length
        n = 20000
        xs = np.linspace(0.0, xi, n)
        pts = np.array([b1_curve.point(x) for x in xs])
        measured = np.sum(np.hypot(*np.diff(pts, axis=0).T))
        assert measured == pytest.approx(xi, rel=1e-6)

    def test_axis_point_mean_curvature(self, b1_curve):
        with pytest.raises(AxisPointError):
            b1_curve.mean_curvature(0.0)

    def test_normal_coords(self, b1_curve):
        xi = 0.5 * b1_curve.length
        r, z = b1_curve.normal_coords(xi, 0.1)
        assert r == pytest.approx(1.9, abs=1e-10)
        assert z == pytest.approx(0.0, abs=1e-10)

    def test_normal_coords_validity(self, b1_curve):
        kmax = b1_curve.max_abs_curvature()
        with pytest.raises(ValueError):
            b1_curve.normal_coords(0.5 * b1_curve.length, 1.5 / kmax)


class TestCircle:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 0.9), st.floats(0.5, 5.0))
    def test_constant_curvature(self, frac, radius):
        curve = circle_arclength(radius)
        assert curve.curvature(frac * curve.length) == pytest.approx(
            1.0 / radius, rel=1e-8
        )

    def test_length(self):
        curve = circle_arclength(3.0)
        assert curve.length == pytest.approx(3.0 * np.pi, rel=1e-10)


class TestArcLengthInversion:
    @pytest.mark.parametrize(
        "a, c, inside",
        [(2.0, 1.0, True), (4.0, 1.0, True), (2.0, 1.0, False), (1.5, 1.5, True)],
        ids=["B1", "B2", "C1", "circle"],
    )
    def test_matches_cubic_spline(self, a, c, inside):
        # Reference: the not-a-knot cubic spline through the same (s, t) knots.
        from scipy.interpolate import CubicSpline

        curve = ellipse_arclength(a, c, conductor_inside=inside)
        spline = CubicSpline(curve._s_knots, curve._t_knots)
        xis = np.concatenate(
            [np.linspace(0.0, curve.length, 10_001), curve._s_knots, [0.0, curve.length]]
        )
        ours = np.array([curve._t(float(x)) for x in xis])
        assert np.max(np.abs(ours - spline(xis))) <= 1e-10

    def test_knots_interpolated(self, b1_curve):
        ts = [b1_curve._t(float(s)) for s in b1_curve._s_knots]
        assert np.allclose(ts, b1_curve._t_knots, rtol=0.0, atol=1e-14)

    def test_clamped_outside_curve(self, b1_curve):
        assert b1_curve._t(-1.0) == b1_curve._t(0.0) == 0.0
        assert b1_curve._t(b1_curve.length + 1.0) == pytest.approx(np.pi, abs=1e-14)


class TestPolyline:
    def test_config_a_lateral_mean_curvature(self):
        dom = meridian_domain("A")
        # midpoint of the lateral wall r = 1: k = 0, z'/r = 1
        assert dom.interface.mean_curvature(2.0) == pytest.approx(0.5, rel=1e-12)

    def test_corner_raises(self):
        dom = meridian_domain("A")
        for xi in (1.0, 3.0):
            with pytest.raises(CornerPointError):
                dom.interface.tangent(xi)

    def test_points_and_length(self):
        curve = PolylineCurve([(0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)])
        assert curve.length == pytest.approx(4.0)
        assert curve.point(2.0) == (pytest.approx(1.0), pytest.approx(0.0))
        assert curve.curvature(2.0) == 0.0


class TestConfigurations:
    def test_equator_mean_curvature_signs(self):
        assert meridian_domain("B1").equator_mean_curvature() == pytest.approx(1.25, rel=1e-9)
        assert meridian_domain("C1").equator_mean_curvature() == pytest.approx(-1.25, rel=1e-9)
        # B2 interface: a = 4, c = 1: k = 4, z'/r = 1/4
        assert meridian_domain("B2").equator_mean_curvature() == pytest.approx(2.125, rel=1e-9)

    def test_interface_radii(self):
        assert meridian_domain("A").equator_interface_radius == 1.0
        assert meridian_domain("B1").equator_interface_radius == 2.0
        assert meridian_domain("B2").equator_interface_radius == 4.0

    def test_predicates(self):
        dom = meridian_domain("B1")
        assert dom.in_conductor(1.0, 0.0)
        assert not dom.in_conductor(3.0, 0.0)
        assert dom.in_domain(3.0, 0.0)
        assert not dom.in_domain(5.0, 0.0)

    def test_unknown_config(self):
        with pytest.raises(ValueError):
            meridian_domain("Z9")
