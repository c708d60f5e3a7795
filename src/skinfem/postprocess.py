"""Post-processing: conductor norms, radial decay slopes, corner profiles.

The decay-rate analysis fits log10|H| against the depth coordinate below
the interface and compares the fitted slope with the curvature-corrected
prediction of the boundary-layer expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import tensor_lagrange_grid
from . import fem
from .fem import DiscreteField, _geometry_eval, _quad_points
from .mesh import _sorted_unique
from .physics import PhysicalParams, curv_ratio, theoretical_slope

__all__ = [
    "conductor_norm",
    "scaling_exponent",
    "extract_radial",
    "regression_slope",
    "SlopeReport",
    "slope_report",
    "corner_slopes",
    "imag_field_map",
    "write_csv",
    "write_profile_csv",
]

_Z_TOL = 1e-9
_CORNER_SAMPLES = 11  # corner-study depths ell/4 .. 11 ell/4


def conductor_norm(field: DiscreteField) -> float:
    """Weighted L2 norm sqrt(int_conductor |H|^2 r dr dz) over the whole
    conductor: twice the integral over the half z >= 0 that the mesh holds,
    as H is even in z."""
    space = field.space
    mesh, p = space.mesh, space.p
    xq, w2 = _quad_points(p + 3)
    phi = tensor_lagrange_grid(p, xq)[0]
    cond = np.flatnonzero(mesh.conductor)
    # One real product for all conductor elements: the coefficients as
    # (n_basis, 2 n_cond) with the real and imaginary parts side by side.
    coef = np.ascontiguousarray(field.coeffs[space.elem_dofs[cond]].T, dtype=np.complex128)
    hq = phi @ coef.view(np.float64)
    abs2 = (hq * hq).reshape(len(w2), len(cond), 2).sum(axis=2)
    X = mesh.nodes[mesh.elem_nodes[cond]]
    rq, _, _, _, _, _, det = _geometry_eval(X, *tensor_lagrange_grid(mesh.geomdeg, xq))
    wdr = (w2 * det * rq).T
    return float(np.sqrt(2.0 * np.sum(wdr * abs2)))


def scaling_exponent(sigmas, norms) -> float:
    """Least-squares exponent t in norm ~ C sigma^t (log-log fit)."""
    sigmas = np.asarray(sigmas, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if len(_sorted_unique(sigmas)) < 3:
        raise ValueError("scaling fit needs at least 3 distinct sigmas")
    values = np.concatenate([sigmas, norms])
    if not np.all((0 < values) & (values < np.inf)):
        raise ValueError("sigma and norm values must be positive and finite")
    t, _ = np.polyfit(np.log(sigmas), np.log(norms), 1)
    return float(t)


def extract_radial(field: DiscreteField, interface_radius: float):
    """Nodal trace of the field on the conductor part of the equator z = 0.

    Collects the degree-p nodal values on conductor-element edges lying on
    z = 0, the symmetry plane that bounds the half meridian, and returns
    (y3, values) with the depth coordinate y3 = |interface_radius - r| on
    the conductor's side (r below the interface for A and B, above it for
    the C shells), sorted by increasing depth. The interface sample y3 = 0
    is dropped (it anchors the boundary data, not the decay).
    """
    space = field.space
    dofs = space.elem_dofs[space.mesh.conductor].ravel()
    pts = space.dof_coords[dofs]
    on_eq = np.abs(pts[:, 1]) < _Z_TOL
    if not np.any(on_eq):
        raise ValueError("no conductor samples found on z = 0")
    # One sample per distinct r, the last in element order, by decreasing r,
    # then stably by increasing depth (a no-op where the conductor lies at
    # r below the interface).
    r, d = pts[on_eq, 0][::-1], dofs[on_eq][::-1]
    rs, last = np.unique(r, return_index=True)
    y3, vals = np.abs(interface_radius - rs[::-1]), field.coeffs[d[last]][::-1]
    order = np.argsort(y3, kind="stable")
    keep = order[y3[order] > _Z_TOL]
    return y3[keep], vals[keep]


def regression_slope(y3, values, ell: float):
    """OLS fit of log10|H| = b - s y3 over the skin-depth window y3 <= ell.

    Returns (s, b). Needs at least 2 samples in the window and nonzero |H|.
    """
    y3 = np.asarray(y3, dtype=float)
    mag = np.abs(np.asarray(values))
    mask = y3 <= ell
    if np.count_nonzero(mask) < 2:
        raise ValueError("fewer than 2 samples inside the fit window")
    if np.any(mag[mask] <= 0):
        raise ValueError("zero magnitude sample inside the fit window")
    coef = np.polyfit(y3[mask], np.log10(mag[mask]), 1)
    return float(-coef[0]), float(coef[1])


@dataclass(frozen=True)
class SlopeReport:
    sigma: float
    ell: float
    n_samples: int
    slope_theory: float
    slope_fit: float
    err: float
    curv_ratio: float


def slope_report(y3, vals, params: PhysicalParams, mean_curv: float) -> SlopeReport:
    """Fit the decay slope of the equatorial trace (y3, vals) from
    `extract_radial` and compare with the curvature-corrected theoretical
    value."""
    ell = params.ell
    s_fit, _ = regression_slope(y3, vals, ell)
    s_th = theoretical_slope(params, mean_curv)
    err = abs(s_th - s_fit) / s_th
    n = int(np.count_nonzero(y3 <= ell))
    return SlopeReport(
        sigma=params.sigma,
        ell=ell,
        n_samples=n,
        slope_theory=s_th,
        slope_fit=s_fit,
        err=err,
        curv_ratio=curv_ratio(params, mean_curv),
    )


def corner_slopes(field: DiscreteField, params: PhysicalParams, corner=(1.0, 1.0)):
    """Local decay slopes along the inward diagonal from a reentrant corner.

    Samples |H| along the direction (-1,-1)/sqrt(2) starting at `corner`, at
    the _CORNER_SAMPLES depths k ell/4, k = 1, 2, ..., and returns the
    midpoints rho and finite-difference slopes
    s_i = -(log10|H_{i+1}| - log10|H_i|) / (rho_{i+1} - rho_i).
    """
    rho = params.ell / 4.0 * np.arange(1, _CORNER_SAMPLES + 1)
    d = 1.0 / np.sqrt(2.0)
    pts = np.column_stack([corner[0] - rho * d, corner[1] - rho * d])
    vals = fem.evaluate(field, pts)
    mag = np.abs(vals)
    if np.any(mag <= 0):
        raise ValueError("zero magnitude along the corner diagonal")
    logs = np.log10(mag)
    slopes = -(logs[1:] - logs[:-1]) / (rho[1:] - rho[:-1])
    mid = 0.5 * (rho[1:] + rho[:-1])
    return mid, slopes


def imag_field_map(field: DiscreteField, r_range, z_range, nr: int, nz: int):
    """Raster of Im H on a regular grid; NaN outside the meridian domain.

    Returns (r_axis, z_axis, values[nz, nr]).
    """
    r_axis = np.linspace(r_range[0], r_range[1], nr)
    z_axis = np.linspace(z_range[0], z_range[1], nz)
    R, Z = np.meshgrid(r_axis, z_axis)
    elem, u, v = fem.locate(field.space.mesh, np.column_stack([R.ravel(), Z.ravel()]))
    inside = elem >= 0
    out = np.full(nz * nr, np.nan)
    out[inside] = fem._values_at(field, elem[inside], u[inside], v[inside]).imag
    return r_axis, z_axis, out.reshape(nz, nr)


# ---------------------------------------------------------------------------
# CSV output (17 significant digits, deterministic)

def write_csv(path, header: str, columns):
    """Write equal-length columns under a header line, one row per line.

    Every value is printed with format `.17g`, which round-trips a float,
    prints an integer-valued number as an integer (16) and NaN as `nan`.
    """
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_profile_csv(path, y3, values):
    mag = np.abs(np.asarray(values))
    keep = mag > 0  # the axis sample has H = 0 exactly; no finite log there
    write_csv(path, "y3,log10H", (np.asarray(y3, dtype=float)[keep], np.log10(mag[keep])))
