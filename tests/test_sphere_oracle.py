"""Exact oracle: a conducting sphere inside a dielectric sphere.

The conductor is the ball R < a, the dielectric the shell a < R < b, and
H = g = r on R = b (a = 1, b = 2 here; R, theta spherical coordinates). The
exact field is H = f(R) sin(theta) (Jackson, *Classical Electrodynamics*,
3rd ed., sections 9.6-9.7), where f solves the order-1 spherical Bessel
equation f'' + 2 f'/R + (k^2 - 2/R^2) f = 0 on each side, k = kappa
sqrt(eps), eps = `eps_conductor` in the conductor and 1 outside:

- in the conductor, f = A psi1(k_c R)/(k_c R);
- in the dielectric, f = [B psi1(kappa R) + C chi1(kappa R)]/(kappa R);

with psi1(x) = sin x/x - cos x and chi1(x) = -cos x/x - sin x (x j1 and
x y1), and A, B, C fixed by f(b) = b, f continuous at a and (1/eps)(R f)'
continuous at a. The interface is a sphere, so its mean curvature is 1/a
at every point: the decay slope predicted by `theoretical_slope` can be
checked on the exact field, without the finite elements, and the finite
elements against the exact field on the exact domain. numpy only.
"""

import numpy as np
import pytest

from skinfem import fem, physics, postprocess
from skinfem.geometry import Spheroids
from skinfem.mesh import layered_mesh_B

SPHERE = Spheroids(a=1.0, b=2.0, c=1.0, d=2.0)
SIGMA_MAX = 400.0  # the mesh's skin band resolves every sigma up to this


def psi1(x):
    return np.sin(x) / x - np.cos(x)


def chi1(x):
    return -np.cos(x) / x - np.sin(x)


def dpsi1(x):
    return np.cos(x) / x - np.sin(x) / x**2 + np.sin(x)


def dchi1(x):
    return np.sin(x) / x + np.cos(x) / x**2 - np.cos(x)


def radial_profiles(params, a=SPHERE.a, b=SPHERE.b):
    """The exact f in the conductor and in the dielectric, as functions of R.

    For f = psi1(k R)/(k R), (R f)' = psi1'(k R), and likewise for chi1.
    The conductor's f is written as f(a) psi1(k_c R) a / (psi1(k_c a) R),
    so that its exponential growth cancels; the unknowns are f(a), B, C.
    """
    kap, eps = params.kappa, params.eps_conductor
    kc = kap * np.sqrt(eps)
    lhs = np.array([
        [0.0, psi1(kap * b) / (kap * b), chi1(kap * b) / (kap * b)],
        [-1.0, psi1(kap * a) / (kap * a), chi1(kap * a) / (kap * a)],
        [-kc * a * dpsi1(kc * a) / (psi1(kc * a) * eps), dpsi1(kap * a), dchi1(kap * a)],
    ])
    fa, B, C = np.linalg.solve(lhs, [b, 0.0, 0.0])

    def conductor(R):
        return fa * a * psi1(kc * R) / (psi1(kc * a) * R)

    def dielectric(R):
        return (B * psi1(kap * R) + C * chi1(kap * R)) / (kap * R)

    return conductor, dielectric


def exact_field(params, points):
    """H = f(R) r/R at the (n, 2) points (r, z); the conductor's f where
    R <= a, and H = 0 at the origin."""
    conductor, dielectric = radial_profiles(params)
    r, z = points.T
    R = np.hypot(r, z)
    H = np.zeros(len(R), dtype=np.complex128)
    for side, f in ((R > 0) & (R <= SPHERE.a), conductor), (R > SPHERE.a, dielectric):
        H[side] = f(R[side]) * r[side] / R[side]
    return H


@pytest.mark.parametrize("sigma", [5.0, 80.0, 400.0])
def test_profiles_solve_the_bessel_equation(sigma):
    # Central differences with a step of 1e-3 of the shorter of 1/|k| and R,
    # the scales f varies on: the residual reads 2e-7 of the equation's
    # largest term at most, against O(1) for a wrong psi1 or chi1.
    params = physics.PhysicalParams(sigma=sigma)
    conductor, dielectric = radial_profiles(params)
    sides = [
        (conductor, params.kappa**2 * params.eps_conductor, np.linspace(0.5, 1.0, 6)),
        (dielectric, params.kappa**2, np.linspace(1.0, 2.0, 6)),
    ]
    for f, k2, R in sides:
        h = 1e-3 * min(1.0 / np.sqrt(abs(k2)), R[0])
        f0, fp, fm = f(R), f(R + h), f(R - h)
        terms = [(fp - 2.0 * f0 + fm) / h**2, (fp - fm) / h / R, (k2 - 2.0 / R**2) * f0]
        residual = np.abs(sum(terms)) / sum(np.abs(t) for t in terms)
        assert np.max(residual) < 1e-5


@pytest.mark.parametrize("sigma", [5.0, 80.0, 400.0])
def test_profiles_meet_the_boundary_and_interface_conditions(sigma):
    # (R f)' by one-sided second-order differences on each side of R = a,
    # so that a slip in psi1' or chi1' where A, B, C are solved shows up:
    # the two sides then differ by about 1 relative, against 1.1e-5 at
    # most measured here.
    params = physics.PhysicalParams(sigma=sigma)
    conductor, dielectric = radial_profiles(params)
    a, b, h = SPHERE.a, SPHERE.b, 1e-5
    assert dielectric(b) == pytest.approx(b, rel=1e-13)
    assert conductor(a) == pytest.approx(dielectric(a), rel=1e-13)
    steps = np.arange(3) * h
    gc = (a - steps) * conductor(a - steps)  # R f at a, a - h, a - 2h
    gd = (a + steps) * dielectric(a + steps)
    flux_c = (3.0 * gc[0] - 4.0 * gc[1] + gc[2]) / (2.0 * h)
    flux_d = -(3.0 * gd[0] - 4.0 * gd[1] + gd[2]) / (2.0 * h)
    assert flux_c / params.eps_conductor == pytest.approx(flux_d, rel=1e-3)


def test_mean_curvature_is_one_over_the_radius():
    for radius in (SPHERE.a, 0.5, 3.0):
        sphere = Spheroids(a=radius, b=2.0 * radius, c=radius, d=2.0 * radius)
        assert sphere.equator_mean_curvature() == pytest.approx(1.0 / radius, rel=1e-15)


@pytest.fixture(scope="module")
def systems():
    """The sphere's M3 mesh, assembled at p = 4, 8 and 12 for sigma 5."""
    m = layered_mesh_B(SPHERE, 3, SIGMA_MAX)
    params = physics.PhysicalParams(sigma=5.0)
    return {
        p: fem.assemble(fem.FeSpace(m, p), params, fem.SourceSpec.dirichlet_radius())
        for p in (4, 8, 12)
    }


# max|H_h - H| / max|H| over the DOF nodes, measured; asserted with a margin
# of 2. p = 8 and 12 read the same: the floor of the degree-4 geometry, whose
# interface nodes lie within 2.3e-8 of the sphere.
NODAL_ERROR = {
    (5.0, 4): 8.7e-6, (5.0, 8): 3.2e-7, (5.0, 12): 3.2e-7,
    (80.0, 4): 3.1e-5, (80.0, 8): 1.3e-6, (80.0, 12): 1.3e-6,
}


@pytest.fixture(scope="module")
def fields(systems):
    """The field at each (sigma, p) of NODAL_ERROR, one `solve_all` per p."""
    out = {}
    for p, system in systems.items():
        sigmas = [s for s, q in NODAL_ERROR if q == p]
        solved = fem.solve_all(system, [physics.PhysicalParams(sigma=s) for s in sigmas])
        out.update(zip([(s, p) for s in sigmas], solved))
    return out


@pytest.mark.parametrize("sigma, p", list(NODAL_ERROR), ids=str)
def test_nodal_error(fields, sigma, p):
    params = physics.PhysicalParams(sigma=sigma)
    field = fields[sigma, p]
    exact = exact_field(params, field.space.dof_coords)
    err = np.max(np.abs(field.coeffs - exact)) / np.max(np.abs(exact))
    assert err <= 2.0 * NODAL_ERROR[sigma, p]


@pytest.mark.parametrize("sigma", [5.0, 20.0, 80.0, 200.0, 400.0])
def test_decay_slope_follows_the_mean_curvature(systems, sigma):
    """The exact f at `extract_radial`'s equator depths of the p = 8 space
    (its DOF nodes in the conductor on z = 0, 36 of them within ell at
    sigma 5 and 12 at sigma 400), fitted by `regression_slope`.

    With H = 1/a the relative slope error is second order: at most
    0.142 (ell/a)^2 measured (1.5e-3 at sigma 5, 1.1e-5 at sigma 400),
    asserted under 0.3 (ell/a)^2. The flat-interface slope (H = 0) is off
    by ell/a to within 1.3%. The error depends on the samples: 58 uniform
    depths in (0, ell] read 1.0e-4 at sigma 5 and 199 read 1.8e-4.
    """
    params = physics.PhysicalParams(sigma=sigma)
    space = systems[8].space
    y3, vals = postprocess.extract_radial(
        fem.DiscreteField(space, exact_field(params, space.dof_coords)), SPHERE.a
    )
    H = SPHERE.equator_mean_curvature()
    depth = params.ell / SPHERE.a
    assert postprocess.slope_report(y3, vals, params, H).err < 0.3 * depth**2
    flat = postprocess.slope_report(y3, vals, params, 0.0)
    assert flat.err == pytest.approx(depth, rel=0.03)
