import numpy as np
import pytest
from hypothesis import given, strategies as st

from skinfem import physics
from skinfem.physics import PhysicalParams, ProfileTrace


def table_params(sigma):
    return PhysicalParams(sigma=sigma)


class TestSkinDepth:
    def test_reference_values(self):
        # ell = sqrt(2/(omega mu0 sigma)) at omega = 3e7
        for sigma, ell in [(5.0, 0.103), (20.0, 0.0515), (80.0, 0.0258)]:
            got = physics.skin_depth(3e7, physics.MU0, sigma)
            assert got == pytest.approx(ell, rel=5e-3)

    def test_closed_form(self):
        sigma, omega = 7.3, 2.1e7
        expect = np.sqrt(2.0 / (omega * physics.MU0 * sigma))
        assert physics.skin_depth(omega, physics.MU0, sigma) == expect

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_rejects_nonpositive(self, sigma):
        with pytest.raises(ValueError):
            physics.skin_depth(3e7, physics.MU0, sigma)

    @given(st.floats(1e-3, 1e6), st.floats(1e3, 1e12))
    def test_identity_with_delta(self, sigma, omega):
        # ell = sqrt(2) * delta / kappa
        p = PhysicalParams(sigma=sigma, omega=omega)
        assert p.ell == pytest.approx(np.sqrt(2.0) * p.delta / p.kappa, rel=1e-14)


class TestParamsValidity:
    @pytest.mark.parametrize(
        "sigma, omega",
        [
            (0.0, 3e7),  # not positive
            (5.0, np.inf),  # not finite
            (np.nan, 3e7),
            (1e300, 1e300),  # omega mu0 sigma overflows: ell = 0
            (1e307, 3e7),
            (5.0, 1e170),  # kappa^2 overflows
            (1e307, 1e-10),  # omega eps0 / sigma underflows: delta = 0
            (5e-324, 5e-324),  # omega mu0 sigma underflows to 0
            (1e-300, 1e-10),  # a subnormal product: ell overflows
        ],
    )
    def test_rejects_pairs_without_finite_scalars(self, sigma, omega):
        with pytest.raises(ValueError, match="sigma .* and omega"):
            PhysicalParams(sigma=sigma, omega=omega)

    @given(st.floats(), st.floats())
    def test_accepted_pairs_have_finite_nonzero_scalars(self, sigma, omega):
        try:
            p = PhysicalParams(sigma=sigma, omega=omega)
        except ValueError:
            return
        for x in (p.ell, p.delta, p.kappa**2, p.eps_conductor):
            assert 0.0 < abs(x) < np.inf


class TestSlopes:
    H_B1 = 1.25  # equator mean curvature, prolate interface a=2, c=1

    def test_theoretical_slope_values(self):
        for sigma, s in [(5.0, 3.67332), (20.0, 7.88951), (80.0, 16.32188)]:
            got = physics.theoretical_slope(table_params(sigma), self.H_B1)
            assert got == pytest.approx(s, abs=1e-4)

    def test_curv_ratio_values(self):
        for sigma, ratio in [(5.0, 0.148), (20.0, 0.069), (80.0, 0.033)]:
            got = physics.curv_ratio(table_params(sigma), self.H_B1)
            assert got == pytest.approx(ratio, abs=1e-3)

    def test_slope_decomposition(self):
        # s * ln10 = 1/ell - H, and curv_ratio = H / (1/ell - H)
        p = table_params(20.0)
        s = physics.theoretical_slope(p, self.H_B1)
        assert s * physics.LN10 == pytest.approx(1.0 / p.ell - self.H_B1, rel=1e-14)
        r = physics.curv_ratio(p, self.H_B1)
        assert r == pytest.approx(self.H_B1 / (1.0 / p.ell - self.H_B1), rel=1e-14)

    def test_curv_ratio_rejects_degenerate(self):
        p = table_params(5.0)
        with pytest.raises(ValueError):
            physics.curv_ratio(p, 1.0 / p.ell)


def _fd_second(f, y, h=1e-3):
    return (f(y + h) - 2.0 * f(y) + f(y - h)) / h**2


class TestProfiles:
    def test_v0_ode_residual(self):
        # (d^2/dY^2 - lam^2) v0 = 0
        p = table_params(20.0)
        tr = ProfileTrace(h0=1.3 - 0.4j)
        for Y in [0.1, 0.5, 2.0]:
            lhs = _fd_second(lambda y: physics.profile_v0(p, tr, y), Y)
            rhs = p.lam**2 * physics.profile_v0(p, tr, Y)
            assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_v0_decay_scale(self):
        # |v0| drops by e over Y = sqrt(2)/kappa (i.e. depth ell in y3 = delta Y)
        p = table_params(5.0)
        tr = ProfileTrace(h0=1.0)
        Y = np.sqrt(2.0) / p.kappa
        ratio = abs(physics.profile_v0(p, tr, Y)) / abs(physics.profile_v0(p, tr, 0.0))
        assert ratio == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_profiles_reject_negative_depth(self):
        p = table_params(5.0)
        tr = ProfileTrace(h0=1.0)
        with pytest.raises(ValueError):
            physics.profile_v0(p, tr, -0.1)


def test_lambda_phase():
    p = table_params(20.0)
    assert p.lam == pytest.approx(p.kappa * (1.0 - 1.0j) / np.sqrt(2.0), rel=1e-14)
    assert p.lam.real > 0 and p.lam.imag < 0


def test_eps_conductor():
    p = table_params(20.0)
    assert p.eps_conductor == pytest.approx(1.0 + 1.0j / p.delta**2, rel=1e-14)
