"""Physical constants, derived scalar parameters, and the leading boundary-layer profile.

Everything downstream (assembly coefficients, slope predictions, profile
checks) pulls its scalars from :class:`PhysicalParams` so there is a single
source of truth for the physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EPS0",
    "MU0",
    "OMEGA_DEFAULT",
    "PhysicalParams",
    "ProfileTrace",
    "skin_depth",
    "theoretical_slope",
    "curv_ratio",
    "profile_v0",
]

# CODATA vacuum permittivity / permeability, SI units.
EPS0 = 8.8541878128e-12
MU0 = 4.0e-7 * math.pi

# Angular frequency used in all benchmark runs (rad/s).
OMEGA_DEFAULT = 3.0e7

LN10 = math.log(10.0)

# exp(-i*pi/4) in closed form; avoids trig rounding in the decay rate.
_EXP_MINUS_IPI4 = complex(1.0, -1.0) / math.sqrt(2.0)


def skin_depth(omega: float, mu0: float, sigma: float) -> float:
    """Classical half-space skin depth sqrt(2/(omega*mu0*sigma)), in meters."""
    if omega <= 0.0 or mu0 <= 0.0 or sigma <= 0.0:
        raise ValueError("skin_depth requires strictly positive arguments")
    return math.sqrt(2.0 / (omega * mu0 * sigma))


@dataclass(frozen=True)
class PhysicalParams:
    """Physics scalars for one conductivity.

    Derived quantities:
      delta  -- small parameter sqrt(omega*eps0/sigma), dimensionless
      kappa  -- free-space wavenumber omega*sqrt(eps0*mu0), 1/m
      lam    -- complex decay rate kappa*exp(-i*pi/4), 1/m
      ell    -- skin depth sqrt(2/(omega*mu0*sigma)), m
    """

    sigma: float
    omega: float = OMEGA_DEFAULT
    eps0: float = EPS0
    mu0: float = MU0

    def __post_init__(self):
        # The mesh takes ell, and the assembly kappa^2 and eps_conductor
        # (through delta): each must be a finite nonzero float. Python floats
        # raise on a divisor that underflowed to 0 and on a power that overflows.
        if not (0.0 < self.sigma < math.inf and 0.0 < self.omega < math.inf):
            raise ValueError(
                f"sigma {self.sigma!r} and omega {self.omega!r} must be positive and finite"
            )
        try:
            derived = (self.ell, self.delta, self.kappa**2, self.eps_conductor)
        except (ZeroDivisionError, OverflowError):
            derived = (0.0,)
        if not all(0.0 < abs(x) < math.inf for x in derived):
            raise ValueError(
                f"sigma {self.sigma!r} and omega {self.omega!r} give a skin depth "
                "sqrt(2/(omega mu0 sigma)), delta sqrt(omega eps0/sigma) or kappa^2 "
                "(omega^2 eps0 mu0) that is 0 or not finite"
            )

    @property
    def delta(self) -> float:
        return math.sqrt(self.omega * self.eps0 / self.sigma)

    @property
    def kappa(self) -> float:
        return self.omega * math.sqrt(self.eps0 * self.mu0)

    @property
    def lam(self) -> complex:
        return self.kappa * _EXP_MINUS_IPI4

    @property
    def ell(self) -> float:
        return skin_depth(self.omega, self.mu0, self.sigma)

    @property
    def eps_conductor(self) -> complex:
        """Relative permittivity coefficient 1 + i/delta^2 in the conductor."""
        return 1.0 + 1.0j / self.delta**2


@dataclass(frozen=True)
class ProfileTrace:
    """Interface trace feeding the leading boundary-layer profile.

    h0 is the trace of the leading dielectric term on the interface. For
    real boundary data h0 is real valued.
    """

    h0: complex


def theoretical_slope(params: PhysicalParams, mean_curv: float) -> float:
    """Predicted log10 decay slope (1/ln 10) * (1/ell - H), per meter."""
    return (1.0 / params.ell - mean_curv) / LN10


def curv_ratio(params: PhysicalParams, mean_curv: float) -> float:
    """Curvature contribution relative to the rest of the slope, H/(1/ell - H)."""
    denom = 1.0 / params.ell - mean_curv
    if denom <= 0.0:
        raise ValueError(
            "skin depth too large for the asymptotic regime (1/ell <= mean curvature)"
        )
    return mean_curv / denom


def profile_v0(params: PhysicalParams, trace: ProfileTrace, Y: float) -> complex:
    """Leading conductor profile exp(-lambda*Y)*h0 in the stretched variable Y."""
    if Y < 0.0:
        raise ValueError("stretched coordinate Y must be >= 0")
    import cmath

    return cmath.exp(-params.lam * Y) * trace.h0

