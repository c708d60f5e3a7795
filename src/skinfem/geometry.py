"""Meridian-domain geometry: the spheroid interface and the benchmark configs.

The five benchmark configurations are A (coaxial cylinders, meridian
rectangles), B1/B2 (conducting spheroid inside a spheroid) and C1/C2 (the
same geometry with the roles of the subdomains swapped). The B/C interface
is the meridian half ellipse of a spheroid, in the closed-form
parametrization `Ellipse`; mean curvature is a local quantity and does not
depend on how the curve is parametrized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AxisPointError",
    "Ellipse",
    "MeridianDomain",
    "meridian_domain",
    "CONFIG_PARAMS",
]


class AxisPointError(ValueError):
    """Raised when an operation needs r > 0 but the point sits on the axis."""


class Ellipse:
    """Meridian half ellipse phi -> (a sin phi, c cos phi), phi in [0, pi],
    of the spheroid with equator radius a and polar semi-axis c, a >= c > 0.

    Every method takes a float or an array of phi. The curvatures are taken
    with respect to the inward normal, so they are positive.
    """

    def __init__(self, a: float, c: float):
        if not (a >= c > 0.0):
            raise ValueError(f"Ellipse requires a >= c > 0, got a={a!r}, c={c!r}")
        self.a, self.c = a, c
        self.max_curvature = a / c**2  # meridian curvature at the equator

    def point(self, phi):
        return self.a * np.sin(phi), self.c * np.cos(phi)

    def inward_normal(self, phi):
        # Tangent of phi -> (a sin, c cos) is (a cos, -c sin); inward is (T_z, -T_r).
        dr, dz = self.a * np.cos(phi), -self.c * np.sin(phi)
        sp = np.hypot(dr, dz)
        return dz / sp, -dr / sp

    def curvature(self, phi):
        """Meridian curvature a c / |gamma'(phi)|^3."""
        return self.a * self.c / np.hypot(self.a * np.cos(phi), self.c * np.sin(phi)) ** 3

    def mean_curvature(self, phi):
        """Mean curvature of the spheroid, (k - n_r / r) / 2: half the sum of
        the meridian and the parallel curvature."""
        r, _ = self.point(phi)
        if np.any(r <= 1e-13):
            raise AxisPointError(f"mean curvature undefined on the axis (phi={phi})")
        nr, _ = self.inward_normal(phi)
        return 0.5 * (self.curvature(phi) - nr / r)


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
    """One benchmark configuration: its name and geometry parameters."""

    config: str
    params: dict

    @property
    def equator_interface_radius(self) -> float:
        """Interface radius at z = 0 (where radial extraction starts)."""
        if self.config == "A":
            return self.params["r0"]
        return self.params["a"]

    def equator_mean_curvature(self) -> float:
        """Mean curvature of the interface at the equator point z = 0, with
        respect to the normal into the conductor: 1/(2 r0) on A's lateral
        wall, and on B/C the spheroid's, negative for the C shells."""
        if self.config == "A":
            return 0.5 / self.params["r0"]
        H = float(Ellipse(self.params["a"], self.params["c"]).mean_curvature(np.pi / 2))
        return H if self.config.startswith("B") else -H


def meridian_domain(config: str) -> MeridianDomain:
    """One of the five benchmark configurations (A, B1, B2, C1, C2)."""
    if config not in CONFIG_PARAMS:
        raise ValueError(f"unknown configuration {config!r}")
    return MeridianDomain(config=config, params=CONFIG_PARAMS[config])
