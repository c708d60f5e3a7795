"""Meridian-domain geometry: interface curves, curvature, benchmark configs.

Interface curves are stored in arc-length parametrization xi -> (r(xi), z(xi))
with the Frenet normal n = (-z', r') pointing into the conductor. The five
benchmark configurations are A (coaxial cylinders, meridian rectangles),
B1/B2 (conducting spheroid inside a spheroid) and C1/C2 (the same geometry
with the roles of the subdomains swapped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CornerPointError",
    "AxisPointError",
    "InterfaceCurve",
    "ParametricArcCurve",
    "PolylineCurve",
    "ellipse_arclength",
    "circle_arclength",
    "MeridianDomain",
    "meridian_domain",
    "CONFIG_PARAMS",
]


class CornerPointError(ValueError):
    """Raised when curvature is requested at a corner of a polyline interface."""


class AxisPointError(ValueError):
    """Raised when an operation needs r > 0 but the point sits on the axis."""


class InterfaceCurve:
    """Arc-length parametrized meridian interface curve.

    Subclasses provide point/tangent/second-derivative evaluation; curvature
    and mean curvature are derived here. `corners` lists arc-length positions
    where the curve is not C^2 (empty for smooth curves).
    """

    length: float
    corners: Sequence[float] = ()

    def point(self, xi: float) -> tuple[float, float]:
        raise NotImplementedError

    def tangent(self, xi: float) -> tuple[float, float]:
        raise NotImplementedError

    def second(self, xi: float) -> tuple[float, float]:
        raise NotImplementedError

    def normal(self, xi: float) -> tuple[float, float]:
        """Unit normal (-z', r'), pointing into the conductor."""
        rp, zp = self.tangent(xi)
        return (-zp, rp)

    def curvature(self, xi: float) -> float:
        rp, zp = self.tangent(xi)
        rpp, zpp = self.second(xi)
        return rp * zpp - zp * rpp

    def mean_curvature(self, xi: float) -> float:
        """Half trace of the surface curvature tensor, (k + z'/r)/2."""
        r, _ = self.point(xi)
        if r <= 1e-13:
            raise AxisPointError(f"mean curvature undefined on the axis (xi={xi})")
        k = self.curvature(xi)
        _, zp = self.tangent(xi)
        return 0.5 * (k + zp / r)

    def max_abs_curvature(self, n_samples: int = 400) -> float:
        xis = np.linspace(0.0, self.length, n_samples)
        best = 0.0
        for xi in xis:
            try:
                best = max(best, abs(self.curvature(float(xi))))
            except CornerPointError:
                continue
        return best

    def normal_coords(self, xi: float, h: float) -> tuple[float, float]:
        """Map normal coordinates (xi, h) to (r, z) = X(xi) + h*n(xi)."""
        kmax = self.max_abs_curvature()
        if h < 0.0 or (kmax > 0.0 and h >= 1.0 / kmax):
            raise ValueError(
                f"normal offset h={h} outside validity range [0, {1.0 / kmax if kmax else math.inf})"
            )
        r, z = self.point(xi)
        rp, zp = self.tangent(xi)
        return (r - h * zp, z + h * rp)


class ParametricArcCurve(InterfaceCurve):
    """Arc-length reparametrization of an analytic parametric curve.

    The cumulative arc length s(t) is tabulated by composite Gauss quadrature
    on a dense parameter grid and inverted with the piecewise cubic Hermite
    interpolant of t(s) whose knot slopes are the exact dt/ds = 1/|gamma'(t)|
    (de Boor, A Practical Guide to Splines, ch. IV), accurate to O(h^4);
    tangents and curvature are evaluated analytically at the recovered
    parameter, so the unit-speed property holds to rounding.
    """

    def __init__(
        self,
        x: Callable[[np.ndarray], np.ndarray],
        y: Callable[[np.ndarray], np.ndarray],
        dx: Callable[[np.ndarray], np.ndarray],
        dy: Callable[[np.ndarray], np.ndarray],
        ddx: Callable[[np.ndarray], np.ndarray],
        ddy: Callable[[np.ndarray], np.ndarray],
        t0: float,
        t1: float,
        n_cells: int = 2048,
    ):
        self._fx, self._fy = x, y
        self._fdx, self._fdy = dx, dy
        self._fddx, self._fddy = ddx, ddy
        t_edges = np.linspace(t0, t1, n_cells + 1)
        gx, gw = np.polynomial.legendre.leggauss(8)
        mid = 0.5 * (t_edges[:-1] + t_edges[1:])
        half = 0.5 * np.diff(t_edges)
        tq = mid[:, None] + half[:, None] * gx[None, :]
        speed = np.hypot(self._fdx(tq), self._fdy(tq))
        cell_len = half * (speed * gw[None, :]).sum(axis=1)
        s_edges = np.concatenate([[0.0], np.cumsum(cell_len)])
        self.length = float(s_edges[-1])
        self._s_knots, self._t_knots = s_edges, t_edges
        self._dtds = 1.0 / np.hypot(self._fdx(t_edges), self._fdy(t_edges))
        self.corners = ()

    def _t(self, xi: float) -> float:
        """Parameter t at arc length xi (clamped to [0, length])."""
        xi = min(max(xi, 0.0), self.length)
        s, t, m = self._s_knots, self._t_knots, self._dtds
        k = min(int(np.searchsorted(s, xi, side="right")) - 1, len(s) - 2)
        h = s[k + 1] - s[k]
        u = (xi - s[k]) / h
        # Cubic Hermite basis on [s_k, s_k+1] in the local coordinate u.
        h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
        h01 = u * u * (3.0 - 2.0 * u)
        h10 = u * (1.0 - u) ** 2
        h11 = u * u * (u - 1.0)
        return float(h00 * t[k] + h01 * t[k + 1] + h * (h10 * m[k] + h11 * m[k + 1]))

    def point(self, xi: float) -> tuple[float, float]:
        t = self._t(xi)
        return (float(self._fx(t)), float(self._fy(t)))

    def tangent(self, xi: float) -> tuple[float, float]:
        t = self._t(xi)
        dx, dy = float(self._fdx(t)), float(self._fdy(t))
        sp = math.hypot(dx, dy)
        return (dx / sp, dy / sp)

    def second(self, xi: float) -> tuple[float, float]:
        t = self._t(xi)
        dx, dy = float(self._fdx(t)), float(self._fdy(t))
        ddx, ddy = float(self._fddx(t)), float(self._fddy(t))
        sp2 = dx * dx + dy * dy
        sp = math.sqrt(sp2)
        spp = (dx * ddx + dy * ddy) / sp
        return (ddx / sp2 - dx * spp / (sp2 * sp), ddy / sp2 - dy * spp / (sp2 * sp))


class PolylineCurve(InterfaceCurve):
    """Piecewise-straight interface (config A) with explicit corner markers.

    Curvature queries at a corner fail loudly; the corner region is a
    distinct regime and must not silently report zero curvature.
    """

    corner_tol = 1e-9

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        self.vertices = [tuple(map(float, v)) for v in vertices]
        seg = np.diff(np.asarray(self.vertices), axis=0)
        self._seg_len = np.hypot(seg[:, 0], seg[:, 1])
        self._cum = np.concatenate([[0.0], np.cumsum(self._seg_len)])
        self.length = float(self._cum[-1])
        self._seg_dir = seg / self._seg_len[:, None]
        self.corners = tuple(self._cum[1:-1])

    def _segment(self, xi: float) -> tuple[int, float]:
        xi = min(max(xi, 0.0), self.length)
        i = int(np.searchsorted(self._cum, xi, side="right")) - 1
        i = min(max(i, 0), len(self._seg_len) - 1)
        return i, xi - self._cum[i]

    def point(self, xi: float) -> tuple[float, float]:
        i, s = self._segment(xi)
        v = self.vertices[i]
        d = self._seg_dir[i]
        return (v[0] + s * d[0], v[1] + s * d[1])

    def tangent(self, xi: float) -> tuple[float, float]:
        self._check_corner(xi)
        i, _ = self._segment(xi)
        return (float(self._seg_dir[i, 0]), float(self._seg_dir[i, 1]))

    def second(self, xi: float) -> tuple[float, float]:
        self._check_corner(xi)
        return (0.0, 0.0)

    def curvature(self, xi: float) -> float:
        self._check_corner(xi)
        return 0.0

    def _check_corner(self, xi: float):
        for c in self.corners:
            if abs(xi - c) < self.corner_tol:
                raise CornerPointError(f"curvature undefined at corner xi={c}")


def ellipse_arclength(a: float, c: float, conductor_inside: bool = True) -> ParametricArcCurve:
    """Arc-length curve for the half ellipse r = a*sin(phi), z = +-c*cos(phi).

    For a conductor inside the ellipse the curve runs from the south pole
    (0, -c) to the north pole (0, c), which makes the normal (-z', r') point
    inward. `conductor_inside=False` reverses the orientation (config C).
    """
    if not (a >= c > 0.0):
        raise ValueError("ellipse_arclength requires a >= c > 0")
    sgn = -1.0 if conductor_inside else 1.0
    return ParametricArcCurve(
        x=lambda t: a * np.sin(t),
        y=lambda t: sgn * c * np.cos(t),
        dx=lambda t: a * np.cos(t),
        dy=lambda t: -sgn * c * np.sin(t),
        ddx=lambda t: -a * np.sin(t),
        ddy=lambda t: -sgn * c * np.cos(t),
        t0=0.0,
        t1=math.pi,
    )


def circle_arclength(radius: float, conductor_inside: bool = True) -> ParametricArcCurve:
    """Meridian semicircle of a sphere (both principal curvatures 1/R)."""
    return ellipse_arclength(radius, radius, conductor_inside=conductor_inside)


# Benchmark geometry parameters (meters).
CONFIG_PARAMS = {
    "A": {"r0": 1.0, "l0": 2.0, "r1": 2.0, "l1": 4.0},
    "B1": {"a": 2.0, "b": 4.0, "c": 1.0, "d": 2.0},
    "B2": {"a": 4.0, "b": 8.0, "c": 1.0, "d": 2.0},
    "C1": {"a": 2.0, "b": 4.0, "c": 1.0, "d": 2.0},
    "C2": {"a": 4.0, "b": 8.0, "c": 1.0, "d": 2.0},
}


@dataclass
class MeridianDomain:
    """One benchmark configuration: geometry parameters plus predicates."""

    config: str
    params: dict
    interface: InterfaceCurve
    in_conductor: Callable[[float, float], bool] = field(repr=False, default=None)
    in_domain: Callable[[float, float], bool] = field(repr=False, default=None)

    @property
    def equator_interface_radius(self) -> float:
        """Interface radius at z = 0 (where radial extraction starts)."""
        if self.config == "A":
            return self.params["r0"]
        return self.params["a"]

    def equator_mean_curvature(self) -> float:
        """Mean curvature of the interface at the equator point z = 0."""
        return self.interface.mean_curvature(0.5 * self.interface.length)


def meridian_domain(config: str) -> MeridianDomain:
    """Build one of the five benchmark configurations (A, B1, B2, C1, C2)."""
    if config not in CONFIG_PARAMS:
        raise ValueError(f"unknown configuration {config!r}")
    p = CONFIG_PARAMS[config]
    if config == "A":
        r0, l0, r1, l1 = p["r0"], p["l0"], p["r1"], p["l1"]
        curve = PolylineCurve(
            [(0.0, -l0 / 2), (r0, -l0 / 2), (r0, l0 / 2), (0.0, l0 / 2)]
        )
        return MeridianDomain(
            config="A",
            params=p,
            interface=curve,
            in_conductor=lambda r, z: 0.0 <= r <= r0 and abs(z) <= l0 / 2,
            in_domain=lambda r, z: 0.0 <= r <= r1 and abs(z) <= l1 / 2,
        )
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    inside_inner = lambda r, z: (r / a) ** 2 + (z / c) ** 2 <= 1.0
    inside_outer = lambda r, z: (r / b) ** 2 + (z / d) ** 2 <= 1.0
    if config.startswith("B"):
        curve = ellipse_arclength(a, c, conductor_inside=True)
        in_cond = lambda r, z: inside_inner(r, z)
    else:
        curve = ellipse_arclength(a, c, conductor_inside=False)
        in_cond = lambda r, z: inside_outer(r, z) and not inside_inner(r, z)
    return MeridianDomain(
        config=config,
        params=p,
        interface=curve,
        in_conductor=in_cond,
        in_domain=lambda r, z: r >= 0.0 and inside_outer(r, z),
    )
