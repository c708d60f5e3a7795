"""Meridian-domain geometry: the spheroid interface and the benchmark configs.

The five benchmark configurations are A (coaxial cylinders, meridian
rectangles), B1/B2 (conducting spheroid inside a spheroid) and C1/C2 (the
same geometry with the roles of the subdomains swapped). The B/C interface
is the meridian half ellipse of a spheroid, in the closed-form
parametrization `Ellipse`; mean curvature is a local quantity and does not
depend on how the curve is parametrized. `CONFIGURATIONS` maps each name
to a record of its dimensions, which answers every question about the
configuration from its fields, so a sphere needs no name of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AxisPointError",
    "Ellipse",
    "Cylinders",
    "Spheroids",
    "CONFIGURATIONS",
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


@dataclass(frozen=True)
class Cylinders:
    """Configuration A: the conducting cylinder r <= r0, |z| <= l0/2 inside
    the dielectric cylinder r <= r1, |z| <= l1/2 (meters)."""

    r0: float
    l0: float
    r1: float
    l1: float

    @property
    def equator_interface_radius(self) -> float:
        """Interface radius at z = 0 (where radial extraction starts)."""
        return self.r0

    def equator_mean_curvature(self) -> float:
        """1/(2 r0) on the lateral wall: meridian curvature 0, parallel 1/r0."""
        return 0.5 / self.r0

    @property
    def extent(self) -> tuple[float, float]:
        """(r_max, z_max) of the meridian box [0, r_max] x [-z_max, z_max]."""
        return self.r1, self.l1 / 2.0

    @property
    def corner(self) -> tuple[float, float]:
        """The reentrant corner (r0, l0/2) of the conductor."""
        return self.r0, self.l0 / 2.0


@dataclass(frozen=True)
class Spheroids:
    """Configurations B/C: the spheroid with meridian (a sin phi, c cos phi)
    inside the spheroid (b sin phi, d cos phi) (meters). The conductor is
    the inner spheroid, or the shell between the two when `shell` is set.
    The properties mean what they mean on `Cylinders`."""

    a: float
    b: float
    c: float
    d: float
    shell: bool = False

    corner = None  # a smooth interface has no reentrant corner

    @property
    def equator_interface_radius(self) -> float:
        return self.a

    def equator_mean_curvature(self) -> float:
        """Mean curvature of the interface at the equator, with respect to
        the normal into the conductor: negative for a shell."""
        H = float(Ellipse(self.a, self.c).mean_curvature(np.pi / 2))
        return -H if self.shell else H

    @property
    def extent(self) -> tuple[float, float]:
        return self.b, self.d


# The five benchmark configurations, by name.
CONFIGURATIONS = {
    "A": Cylinders(r0=1.0, l0=2.0, r1=2.0, l1=4.0),
    "B1": Spheroids(a=2.0, b=4.0, c=1.0, d=2.0),
    "B2": Spheroids(a=4.0, b=8.0, c=1.0, d=2.0),
    "C1": Spheroids(a=2.0, b=4.0, c=1.0, d=2.0, shell=True),
    "C2": Spheroids(a=4.0, b=8.0, c=1.0, d=2.0, shell=True),
}
