"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (written past pytest's capture so the
verdicts always appear in the run log) and then asserts.
"""

import numpy as np
import pytest

from skinfem import fem, geometry, mesh, physics, postprocess
from skinfem.physics import PhysicalParams
from test_fem import global_matrix
from test_mesh import facet_adjacency


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capman(pytestconfig):
    global _CAPMAN
    _CAPMAN = pytestconfig.pluginmanager.getplugin("capturemanager")


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print("\n" + line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def run_b1(m, sigma, p, space_cache={}):
    params = PhysicalParams(sigma=sigma)
    key = (id(m), p)
    if key not in space_cache:
        space_cache[key] = fem.FeSpace(m, p)
    space = space_cache[key]
    return fem.solve(fem.assemble(space, params, fem.SourceSpec.dirichlet_radius())), params, space


@pytest.fixture(scope="module")
def b1_m3():
    return mesh.mesh_for("B1", "M3", sigma_max=80.0)


def test_criterion_1_analytic_decay_table():
    H = geometry.CONFIGURATIONS["B1"].equator_mean_curvature()
    rows = [
        (5.0, 0.103, 3.67332, 0.148),
        (20.0, 0.0515, 7.88951, 0.069),
        (80.0, 0.0258, 16.32188, 0.033),
    ]
    ok = True
    details = []
    for sigma, ell, s, ratio in rows:
        p = PhysicalParams(sigma=sigma)
        got_ell = physics.skin_depth(p.omega, p.mu0, sigma)
        got_s = physics.theoretical_slope(p, H)
        got_ratio = physics.curv_ratio(p, H)
        ok &= abs(got_ell - ell) / ell < 5e-3
        ok &= abs(got_s - s) <= 1e-4
        ok &= abs(got_ratio - ratio) <= 1e-3
        details.append(f"sigma={sigma:g}: ell={got_ell:.4f} s={got_s:.5f} ratio={got_ratio:.3f}")
    report("criterion 1: closed-form skin depth / slope / curvature ratio", ok, "; ".join(details))


def test_criterion_2_manufactured_exactness():
    params = PhysicalParams(sigma=5.0)
    m = mesh.square_mesh_A(2)
    rng = np.random.default_rng(123)
    pts = np.column_stack([2.0 * rng.random(50), 4.0 * rng.random(50) - 2.0])
    worst = 0.0
    for p in (1, 4, 10):
        space = fem.FeSpace(m, p)
        f = fem.solve(
            fem.assemble(space, params, fem.SourceSpec.manufactured(params.kappa), uniform_eps=True)
        )
        worst = max(worst, float(np.max(np.abs(fem.evaluate(f, pts) - pts[:, 0]))))
    report(
        "criterion 2: manufactured linear solution exact at p in {1,4,10}",
        worst <= 1e-10,
        f"max pointwise error {worst:.2e}",
    )


def test_criterion_3_slope_reproduction(b1_m3):
    dom = geometry.CONFIGURATIONS["B1"]
    H = dom.equator_mean_curvature()
    a = dom.equator_interface_radius
    bounds = {5.0: 0.015, 20.0: 0.004, 80.0: 0.0016}
    ok = True
    details = []
    for sigma, p in [(5.0, 10), (20.0, 12), (80.0, 16)]:
        f, params, _ = run_b1(b1_m3, sigma, p)
        rep = postprocess.slope_report(*postprocess.extract_radial(f, a), params, H)
        ok &= rep.err <= bounds[sigma] and rep.err < rep.curv_ratio
        details.append(
            f"sigma={sigma:g}: s_fit={rep.slope_fit:.5f} err={rep.err:.4f}"
            f" (bound {bounds[sigma]}, ratio {rep.curv_ratio:.3f})"
        )
    report("criterion 3: curvature-corrected decay slopes on B1", ok, "; ".join(details))


def test_criterion_4_sigma_scaling():
    sigmas = [80.0, 100.0, 200.0, 300.0, 400.0]
    m = mesh.mesh_for("B1", "M3", sigma_max=max(sigmas))
    space = fem.FeSpace(m, 16)
    # sigma enters only the conductor coefficient: assemble once and solve
    # every sigma in one pass
    system = fem.assemble(space, PhysicalParams(sigma=sigmas[0]), fem.SourceSpec.dirichlet_radius())
    fields = fem.solve_all(system, [PhysicalParams(sigma=sigma) for sigma in sigmas])
    norms = [postprocess.conductor_norm(f) for f in fields]
    t = postprocess.scaling_exponent(sigmas, norms)
    report(
        "criterion 4: conductor norm scales like sigma^(-1/4)",
        -0.30 <= t <= -0.20,
        f"fitted exponent {t:.4f}",
    )


def test_criterion_5_p_convergence_plateau():
    src = fem.SourceSpec.dirichlet_radius()
    m_ref = mesh.mesh_for("A", "M3")
    m2 = mesh.mesh_for("A", "M2")
    sigmas = (5.0, 20.0, 80.0)
    params = [PhysicalParams(sigma=sigma) for sigma in sigmas]

    def norms(space):
        """Conductor norm at every sigma from one assembly of the space."""
        system = fem.assemble(space, params[0], src)
        fields = fem.solve_all(system, params)
        return np.array([postprocess.conductor_norm(f) for f in fields])

    ref = norms(fem.FeSpace(m_ref, 16))
    worst = np.zeros(len(sigmas))
    for p in (12, 13, 14, 15, 16):
        worst = np.maximum(worst, np.abs(norms(fem.FeSpace(m2, p)) - ref))
    ok = bool(np.all(worst <= 1e-4))
    details = [f"sigma={s:g}: max |A_p - A_ref| = {w:.2e}" for s, w in zip(sigmas, worst)]
    report("criterion 5: p-convergence plateau below 1e-4 for p >= 12", ok, "; ".join(details))


def test_criterion_6_corner_decay():
    params = PhysicalParams(sigma=80.0)
    m = mesh.mesh_for("A", "M4")
    space = fem.FeSpace(m, 16)
    f = fem.solve(fem.assemble(space, params, fem.SourceSpec.dirichlet_radius()))
    mid, slopes = postprocess.corner_slopes(f, params, corner=(1.0, 1.0))
    s_flat = physics.theoretical_slope(params, 0.0)
    near = slopes[0] / s_flat
    deep = slopes[mid >= 2.0 * params.ell] / s_flat
    ok = near < 0.30 and len(deep) > 0 and np.all(deep > 0.50)
    report(
        "criterion 6: non-exponential corner decay on configuration A",
        ok,
        f"nearest slope {near:.2f} of flat rate; beyond 2*ell: "
        + ", ".join(f"{d:.2f}" for d in deep),
    )


def test_criterion_7_property_suites_standalone():
    # representative invariants that need no stored solver data
    ok = True
    details = []

    ellipse = geometry.Ellipse(2.0, 1.0)
    ok &= abs(ellipse.curvature(0.5 * np.pi) - 2.0) < 1e-8
    ok &= abs(np.hypot(*ellipse.inward_normal(0.5 * np.pi)) - 1.0) < 1e-10
    details.append("geometry normal/curvature")

    p = PhysicalParams(sigma=20.0)
    tr = physics.ProfileTrace(h0=1.0 - 0.5j)
    h = 1e-3
    lhs = (
        physics.profile_v0(p, tr, 0.5 + h)
        - 2 * physics.profile_v0(p, tr, 0.5)
        + physics.profile_v0(p, tr, 0.5 - h)
    ) / h**2
    ok &= abs(lhs - p.lam**2 * physics.profile_v0(p, tr, 0.5)) < 1e-4 * abs(lhs)
    details.append("profile ODE residual")

    y3 = np.linspace(0.01, 0.3, 25)
    s, b = postprocess.regression_slope(y3, 10.0 ** (1.0 - 2.0 * y3), 0.3)
    ok &= abs(s - 2.0) < 1e-10 and abs(b - 1.0) < 1e-10
    details.append("regression exactness")

    m = mesh.mesh_for("B1", "M1", sigma_max=80.0)
    A = global_matrix(
        fem.assemble(fem.FeSpace(m, 2), p, fem.SourceSpec.dirichlet_radius())
    )
    d = (A - A.T).tocoo()
    ok &= d.nnz == 0 or np.max(np.abs(d.data)) == 0.0
    details.append("matrix symmetry")

    for owners in facet_adjacency(m).values():
        ok &= len(owners) <= 2
    details.append("mesh conformity")

    report("criterion 7: property suites standalone", ok, "; ".join(details))
