"""Exact oracle: a conducting spherical shell around a dielectric ball.

The conductor is the shell a < R < b, the dielectric the ball R < a (a = 1,
b = 2 here; R, theta spherical coordinates), as in configurations C1 and
C2, whose conductor lies on the concave side of the interface. The source
is f = F r on R < s (F = 100), with H = 0 on R = b, as in C1. The exact
field is H = f(R) sin(theta) (Jackson, *Classical Electrodynamics*, 3rd
ed., sections 9.6-9.7), and u = R f solves

    u'' + (k^2 - 2/R^2) u = -F R^2 on R < s, and 0 elsewhere,

with k = kappa sqrt(eps), eps = `eps_conductor` in the conductor and 1
outside:

- in the core R < s, u = A psi1(kappa R) - F R^2/kappa^2;
- in the dielectric s < R < a, u = B psi1(kappa R) + C chi1(kappa R);
- in the conductor, u = D xi+(k R) + E xi-(k R), Im k > 0,

with psi1 and chi1 the Riccati-Bessel functions x j1 and x y1, and
xi+-(x) = -exp(+-i (x - x+-)) (1 +- i/x) the Riccati-Hankel functions x h1
scaled at x+ = k a and x- = k b, so that neither overflows. u and u' are
continuous at s, u and (1/eps) u' at a, and u(b) = 0: five equations for
A..E. The interface is a sphere seen from outside, so the conductor's mean
curvature is -1/a: the concave sign of the paper's slope law. numpy only.
"""

import numpy as np
import pytest

from skinfem import fem, physics, postprocess
from skinfem.geometry import Spheroids
from skinfem.mesh import layered_mesh_B
from test_sphere_oracle import chi1, dchi1, dpsi1, psi1

SHELL = Spheroids(a=1.0, b=2.0, c=1.0, d=2.0, shell=True)
SIGMA_MAX = 400.0  # the mesh's skin band resolves every sigma up to this
F = 100.0
CUT, ALIGNED = 0.5, SHELL.a  # source radii: inside an element row, on the interface


def xi(x, x0, sign):
    return -np.exp(sign * 1j * (x - x0)) * (1.0 + sign * 1j / x)


def dxi(x, x0, sign):
    return -np.exp(sign * 1j * (x - x0)) * (sign * 1j - 1.0 / x - sign * 1j / x**2)


def radial_profiles(params, s, a=SHELL.a, b=SHELL.b):
    """u = R f in the core, the dielectric and the conductor, as functions
    of R."""
    kap, eps = params.kappa, params.eps_conductor
    k = kap * np.sqrt(eps)
    assert k.imag > 0.0
    ka, kb = k * a, k * b
    lhs = np.array([
        [psi1(kap * s), -psi1(kap * s), -chi1(kap * s), 0.0, 0.0],
        [kap * dpsi1(kap * s), -kap * dpsi1(kap * s), -kap * dchi1(kap * s), 0.0, 0.0],
        [0.0, psi1(kap * a), chi1(kap * a), -xi(ka, ka, 1), -xi(ka, kb, -1)],
        [0.0, kap * dpsi1(kap * a), kap * dchi1(kap * a), -k / eps * dxi(ka, ka, 1), -k / eps * dxi(ka, kb, -1)],
        [0.0, 0.0, 0.0, xi(kb, ka, 1), xi(kb, kb, -1)],
    ])
    rhs = [F * s**2 / kap**2, 2.0 * F * s / kap**2, 0.0, 0.0, 0.0]
    A, B, C, D, E = np.linalg.solve(lhs, rhs)

    def core(R):
        return A * psi1(kap * R) - F * R**2 / kap**2

    def dielectric(R):
        return B * psi1(kap * R) + C * chi1(kap * R)

    def conductor(R):
        return D * xi(k * R, ka, 1) + E * xi(k * R, kb, -1)

    return core, dielectric, conductor


def exact_field(params, s, points):
    """H = u(R) r/R^2 at the (n, 2) points (r, z), and H = 0 at the origin."""
    core, dielectric, conductor = radial_profiles(params, s)
    r, z = points.T
    R = np.hypot(r, z)
    H = np.zeros(len(R), dtype=np.complex128)
    sides = ((R > 0) & (R < s), core), ((R >= s) & (R <= SHELL.a), dielectric), (R > SHELL.a, conductor)
    for side, u in sides:
        H[side] = u(R[side]) * r[side] / R[side] ** 2
    return H


def source(s):
    """f = F r on R < s, its support marked for the cut elements' rule."""
    return fem.SourceSpec(
        interior_f=lambda r, z: np.where(r**2 + z**2 < s**2, F * r, 0.0),
        support=lambda r, z: r**2 + z**2 < s**2,
    )


@pytest.mark.parametrize("s", [CUT, ALIGNED], ids=["cut", "aligned"])
@pytest.mark.parametrize("sigma", [5.0, 80.0, 400.0])
def test_profiles_solve_the_ode(sigma, s):
    # Central differences, the residual relative to the sum of the terms'
    # magnitudes. In the core A psi1 and F R^2/kappa^2 cancel to about three
    # digits (kappa = 0.1), so its step is 1e-3: one of 1e-4 read 3e-3 there.
    # Measured at most 3.9e-5 in the core, 1.9e-6 in the dielectric and
    # 5.8e-8 in the conductor, whose step is 1e-3/|k|.
    params = physics.PhysicalParams(sigma=sigma)
    core, dielectric, conductor = radial_profiles(params, s)
    kap2, k2 = params.kappa**2, params.kappa**2 * params.eps_conductor
    sides = [
        (core, kap2, 1e-3, np.linspace(0.1, s, 6), F),
        (dielectric, kap2, 1e-3, np.linspace(s, SHELL.a, 6), 0.0),
        (conductor, k2, 1e-3 / np.sqrt(abs(k2)), np.linspace(SHELL.a, 0.95 * SHELL.b, 6), 0.0),
    ]
    for u, kk, h, R, f in sides:
        u0, up, um = u(R), u(R + h), u(R - h)
        terms = [(up - 2.0 * u0 + um) / h**2, (kk - 2.0 / R**2) * u0, f * R**2]
        residual = np.abs(sum(terms)) / sum(np.abs(t) for t in terms)
        assert np.max(residual) < 1e-4


@pytest.mark.parametrize("sigma", [5.0, 80.0, 400.0])
def test_profiles_meet_the_boundary_and_interface_conditions(sigma):
    # u' by one-sided second-order differences on each side of an
    # interface. At s the step is 1e-4 for the core's cancellation; at a it
    # is 1e-3/|k|, the conductor's scale. Measured at most 5.8e-6 at s and
    # 9.6e-6 at a; the sign of xi''s 1/x term flipped reads 1.6e-2 to
    # 1.5e-1 at a, and a flux without 1/eps is off by |eps|.
    params = physics.PhysicalParams(sigma=sigma)
    core, dielectric, conductor = radial_profiles(params, CUT)
    a, b, s = SHELL.a, SHELL.b, CUT
    assert abs(conductor(b)) <= 1e-12 * abs(conductor(a))
    assert core(s) == pytest.approx(dielectric(s), rel=1e-10)
    assert conductor(a) == pytest.approx(dielectric(a), rel=1e-13)

    def slope(u, x, h, side):
        g = u(x + side * np.arange(3) * h)
        return side * (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h)

    assert slope(core, s, 1e-4, -1) == pytest.approx(slope(dielectric, s, 1e-4, 1), rel=1e-4)
    h = 1e-3 / abs(params.kappa * np.sqrt(params.eps_conductor))
    flux_c = slope(conductor, a, h, 1) / params.eps_conductor
    assert flux_c == pytest.approx(slope(dielectric, a, h, -1), rel=1e-3)


def test_mean_curvature_is_minus_one_over_the_radius():
    assert SHELL.equator_mean_curvature() == -1.0 / SHELL.a
    for radius in (0.5, 3.0):
        shell = Spheroids(a=radius, b=2.0 * radius, c=radius, d=2.0 * radius, shell=True)
        assert shell.equator_mean_curvature() == pytest.approx(-1.0 / radius, rel=1e-15)


@pytest.fixture(scope="module")
def systems():
    """The shell's M3 mesh on the half meridian, assembled at p = 4, 8 and
    12 for sigma 5, with the source edge cut by elements and on the
    interface."""
    m = layered_mesh_B(SHELL, 3, SIGMA_MAX)
    params = physics.PhysicalParams(sigma=5.0)
    spaces = {p: fem.FeSpace(m, p) for p in (4, 8, 12)}
    return {(s, p): fem.assemble(spaces[p], params, source(s)) for s in (CUT, ALIGNED) for p in spaces}


# (max|H_h - H| over the DOF nodes, the same over the nodes with R > 0.9),
# relative to max|H|, measured; asserted with a margin of 2. With the cut
# source the largest error sits at its edge, R = 0.5: the cut elements'
# load is integrated on a 4 x 4 subdivided rule, first order for an
# indicator, and it floors the band (R > 0.9) at 7.3e-5 from p = 12. With
# the aligned source the band reads 3e-7 at p = 8 and 12 at sigma 5, the
# floor of the degree-4 geometry.
NODAL_ERROR = {
    (CUT, 5.0, 4): (3.83e-3, 5.53e-4), (CUT, 5.0, 8): (7.09e-4, 1.46e-4),
    (CUT, 5.0, 12): (3.88e-4, 7.30e-5),
    (CUT, 80.0, 4): (5.82e-3, 5.82e-3), (CUT, 80.0, 8): (7.09e-4, 1.46e-4),
    (CUT, 80.0, 12): (3.88e-4, 7.30e-5),
    (CUT, 400.0, 4): (4.48e-3, 4.48e-3), (CUT, 400.0, 8): (7.09e-4, 2.94e-4),
    (CUT, 400.0, 12): (3.88e-4, 7.30e-5),
    (ALIGNED, 5.0, 4): (2.40e-4, 2.40e-4), (ALIGNED, 5.0, 8): (3.00e-7, 3.00e-7),
    (ALIGNED, 5.0, 12): (2.98e-7, 2.98e-7),
    (ALIGNED, 80.0, 4): (1.86e-2, 1.86e-2), (ALIGNED, 80.0, 8): (2.37e-4, 2.37e-4),
    (ALIGNED, 80.0, 12): (1.17e-6, 1.17e-6),
    (ALIGNED, 400.0, 4): (1.41e-2, 1.41e-2), (ALIGNED, 400.0, 8): (9.47e-4, 9.47e-4),
    (ALIGNED, 400.0, 12): (6.28e-5, 6.28e-5),
}


@pytest.fixture(scope="module")
def fields(systems):
    """The field at each (source, sigma, p) of NODAL_ERROR, one `solve_all`
    per (source, p)."""
    out = {}
    for (s, p), system in systems.items():
        sigmas = [sigma for t, sigma, q in NODAL_ERROR if (t, q) == (s, p)]
        solved = fem.solve_all(system, [physics.PhysicalParams(sigma=x) for x in sigmas])
        out.update(zip([(s, x, p) for x in sigmas], solved))
    return out


@pytest.mark.parametrize("s, sigma, p", list(NODAL_ERROR), ids=str)
def test_nodal_error(fields, s, sigma, p):
    params = physics.PhysicalParams(sigma=sigma)
    field = fields[s, sigma, p]
    exact = exact_field(params, s, field.space.dof_coords)
    err = np.abs(field.coeffs - exact) / np.max(np.abs(exact))
    band = np.hypot(*field.space.dof_coords.T) > 0.9
    worst, worst_band = NODAL_ERROR[s, sigma, p]
    assert np.max(err) <= 2.0 * worst and np.max(err[band]) <= 2.0 * worst_band


@pytest.mark.parametrize("sigma", [5.0, 20.0, 80.0, 200.0, 400.0])
def test_decay_slope_follows_the_concave_mean_curvature(systems, sigma):
    """The exact f at `extract_radial`'s equator depths of the p = 8 space
    (its DOF nodes in the conductor on z = 0, 26 of them within ell at
    sigma 5 and 12 at sigma 400), fitted by `regression_slope`.

    With H = -1/a the relative slope error is at most 0.163 (ell/a)^2
    measured (1.7e-3 at sigma 5, 9.9e-6 at sigma 400), asserted under
    0.3 (ell/a)^2 as for the sphere. The flat-interface slope (H = 0) is off
    by ell/a to within 1.8%, and the convex sign (H = 1/a) by 2 ell/a to
    within 12.5%.
    """
    params = physics.PhysicalParams(sigma=sigma)
    space = systems[CUT, 8].space
    y3, vals = postprocess.extract_radial(
        fem.DiscreteField(space, exact_field(params, CUT, space.dof_coords)), SHELL.a
    )
    depth = params.ell / SHELL.a
    concave = postprocess.slope_report(y3, vals, params, SHELL.equator_mean_curvature())
    assert concave.err < 0.3 * depth**2
    assert postprocess.slope_report(y3, vals, params, 0.0).err == pytest.approx(depth, rel=0.03)
    convex = postprocess.slope_report(y3, vals, params, 1.0 / SHELL.a)
    assert convex.err == pytest.approx(2.0 * depth, rel=0.15)
