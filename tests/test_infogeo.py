"""Dually flat fiber geometry: metrics, connections, divergence."""

import numpy as np
import pytest

from cmx.contact import Generator, GeneratorKind
from cmx.fiber import energy_quadratic
from cmx.infogeo import (
    Connection,
    FiberPoint,
    alpha_connection,
    canonical_divergence,
    contravariant_metric,
    fiber_metric,
    geodesic,
    pythagoras_check,
    random_orthogonal_triple,
)


class TestMetrics:
    def test_fiber_metric_values(self):
        np.testing.assert_array_equal(
            fiber_metric(2.0, 3.0),
            np.diag([0.5, 0.5, 0.5, 1 / 3, 1 / 3, 1 / 3]))
        np.testing.assert_array_equal(fiber_metric(1.0, 1.0), np.eye(6))

    def test_contravariant_values(self):
        np.testing.assert_array_equal(
            contravariant_metric(2.0, 3.0), np.diag([2.0, 2, 2, 3, 3, 3]))
        np.testing.assert_array_equal(contravariant_metric(1.0, 1.0), np.eye(6))

    def test_inverse_pair(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            eps, mu = rng.uniform(0.1, 10.0, 2)
            prod = fiber_metric(eps, mu) @ contravariant_metric(eps, mu)
            assert np.abs(prod - np.eye(6)).max() <= 1e-15

    def test_dual_pairing_is_kronecker(self):
        # d x / d p is the contravariant metric, so g . (dx/dp) = identity
        eps, mu = 2.0, 5.0
        pairing = fiber_metric(eps, mu) @ contravariant_metric(eps, mu)
        np.testing.assert_allclose(pairing, np.eye(6), atol=1e-15)

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            fiber_metric(0.0, 1.0)
        with pytest.raises(ValueError):
            contravariant_metric(1.0, -1.0)

    @pytest.mark.parametrize("eps,mu", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan),
                                        (1.0, np.inf)])
    def test_non_finite_media_are_rejected(self, eps, mu):
        # NaN compares False with 0 and inf gives a singular metric
        for metric in (fiber_metric, contravariant_metric):
            with pytest.raises(ValueError, match="positive and finite"):
                metric(eps, mu)


class TestFiberPoint:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            FiberPoint(x=np.ones(6), p=np.zeros(6), eps=1.0, mu=1.0)

    def test_non_finite_media_are_rejected(self):
        with pytest.raises(ValueError, match="positive and finite"):
            FiberPoint.from_x(np.ones(6), np.nan, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            FiberPoint(np.ones(6), 5 * np.ones(6), np.nan, 1.0)  # p does not fit x

    @pytest.mark.parametrize("x,p", [
        (np.full(6, np.nan), np.full(6, np.nan)),
        (np.ones(6), np.full(6, np.inf)),
        (np.full(6, np.inf), np.full(6, np.inf)),
    ])
    def test_non_finite_coordinates_are_rejected(self, x, p):
        with pytest.raises(ValueError, match="must be finite"):
            FiberPoint(x, p, 1.0, 1.0)

    def test_from_x_and_from_p_agree(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=6)
        xi = FiberPoint.from_x(x, 2.0, 3.0)
        xi2 = FiberPoint.from_p(xi.p, 2.0, 3.0)
        np.testing.assert_allclose(xi2.x, x, atol=1e-14)


class TestAlphaConnection:
    def test_quadratic_generator_is_flat(self):
        gamma = alpha_connection(energy_quadratic(2.0, 3.0), alpha=-1.0,
                                 x=np.ones(6))
        assert not gamma.any()

    def test_cubic_generator_constant_third_derivative(self):
        gen = Generator(
            kind=GeneratorKind.X_TYPE,
            value=lambda x: float(x[0] ** 3) / 6.0,
            gradient=lambda x: 0.5 * x**2,
            hessian=lambda x: np.array([[x[0]]]),
        )
        gamma = alpha_connection(gen, alpha=-1.0, x=np.array([0.7]))
        np.testing.assert_allclose(gamma, np.ones((1, 1, 1)), rtol=1e-9)

    def test_quartic_generator_linear_coefficients(self):
        gen = Generator(
            kind=GeneratorKind.X_TYPE,
            value=lambda x: float(x[0] ** 4) / 24.0,
            gradient=lambda x: x**3 / 6.0,
            hessian=lambda x: np.array([[0.5 * x[0] ** 2]]),
        )
        for x0 in (0.5, 1.0, 2.0):
            gamma = alpha_connection(gen, alpha=-1.0, x=np.array([x0]))
            assert gamma[0, 0, 0] == pytest.approx(x0, rel=1e-6)

    def test_duality_identity_for_random_cubic(self):
        from itertools import permutations

        rng = np.random.default_rng(2)
        raw = rng.normal(size=(2, 2, 2))
        c = sum(raw.transpose(p) for p in permutations(range(3))) / 6.0

        def hessian(x):
            return np.einsum("abc,c->ab", c, x)

        gen = Generator(kind=GeneratorKind.X_TYPE,
                        value=lambda x: float(np.einsum("abc,a,b,c->", c, x, x, x)) / 6.0,
                        gradient=lambda x: 0.5 * np.einsum("abc,b,c->a", c, x, x),
                        hessian=hessian)
        x = rng.uniform(-1, 1, 2)
        alpha = 0.4
        gp = alpha_connection(gen, alpha, x)
        gm = alpha_connection(gen, -alpha, x)
        step = 1e-5
        for a in range(2):
            da = np.zeros(2)
            da[a] = step
            dg = (hessian(x + da) - hessian(x - da)) / (2 * step)
            recon = gp[a] + gm[a].T
            np.testing.assert_allclose(dg, recon, atol=1e-6)


class TestCanonicalDivergence:
    def test_coincident_points(self):
        xi = FiberPoint.from_x(np.arange(6.0), 2.0, 3.0)
        assert canonical_divergence(xi, xi) == 0.0

    def test_unit_displacement(self):
        xi = FiberPoint.from_x(np.array([1.0, 0, 0, 0, 0, 0]), 1.0, 1.0)
        xi0 = FiberPoint.from_x(np.zeros(6), 1.0, 1.0)
        assert canonical_divergence(xi, xi0) == 0.5

    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            eps, mu = rng.uniform(0.2, 5.0, 2)
            x1, x2 = rng.normal(size=(2, 6))
            xi1 = FiberPoint.from_x(x1, eps, mu)
            xi2 = FiberPoint.from_x(x2, eps, mu)
            g = fiber_metric(eps, mu)
            quad = 0.5 * (x1 - x2) @ g @ (x1 - x2)
            assert abs(canonical_divergence(xi1, xi2) - quad) <= 1e-12 * (1 + quad)

    def test_medium_mismatch_rejected(self):
        a = FiberPoint.from_x(np.ones(6), 1.0, 1.0)
        b = FiberPoint.from_x(np.ones(6), 2.0, 1.0)
        with pytest.raises(ValueError):
            canonical_divergence(a, b)


class TestGeodesics:
    def test_endpoints(self):
        a = FiberPoint.from_x(np.arange(6.0), 2.0, 3.0)
        b = FiberPoint.from_x(np.arange(6.0)[::-1].copy(), 2.0, 3.0)
        for conn in (Connection.NABLA, Connection.NABLA_PRIME):
            np.testing.assert_allclose(geodesic(conn, a, b, 0.0).x, a.x)
            np.testing.assert_allclose(geodesic(conn, a, b, 1.0).x, b.x)

    def test_connections_coincide_for_linear_media(self):
        # the constitutive map is linear, so straight lines in either
        # coordinate system are the same curve
        a = FiberPoint.from_x(np.array([1.0, 0, 2, 0, 0, 1]), 2.0, 3.0)
        b = FiberPoint.from_x(np.array([0.0, 1, 0, 2, 1, 0]), 2.0, 3.0)
        for t in (0.25, 0.5, 0.75):
            x_path = geodesic(Connection.NABLA, a, b, t)
            p_path = geodesic(Connection.NABLA_PRIME, a, b, t)
            np.testing.assert_allclose(x_path.x, p_path.x, atol=1e-14)
            np.testing.assert_allclose(x_path.p, p_path.p, atol=1e-14)


class TestPythagoras:
    def test_unit_corner(self):
        xi3 = FiberPoint.from_x(np.array([1.0, 0, 0, 0, 0, 0]), 1.0, 1.0)
        xi2 = FiberPoint.from_x(np.zeros(6), 1.0, 1.0)
        xi1 = FiberPoint.from_x(np.array([0.0, 1, 0, 0, 0, 0]), 1.0, 1.0)
        lhs, rhs, defect = pythagoras_check(xi3, xi2, xi1)
        assert defect == 0.0
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    def test_degenerate_corner_reports_defect(self):
        xi3 = FiberPoint.from_x(np.array([1.0, 0, 0, 0, 0, 0]), 1.0, 1.0)
        xi2 = FiberPoint.from_x(np.array([0.5, 0, 0, 0, 0, 0]), 1.0, 1.0)
        xi1 = FiberPoint.from_x(np.zeros(6), 1.0, 1.0)
        lhs, rhs, defect = pythagoras_check(xi3, xi2, xi1)
        assert defect != 0.0  # collinear corner: no orthogonality, no assertion

    def test_collapsed_first_leg(self):
        xi2 = FiberPoint.from_x(np.arange(6.0), 2.0, 3.0)
        xi1 = FiberPoint.from_x(np.arange(6.0) - 2.0, 2.0, 3.0)
        lhs, rhs, _ = pythagoras_check(xi2, xi2, xi1)
        assert lhs == rhs == canonical_divergence(xi2, xi1)

    def test_constructed_orthogonal_triples(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            eps, mu = rng.uniform(0.1, 10.0, 2)
            xi3, xi2, xi1 = random_orthogonal_triple(rng, eps, mu)
            lhs, rhs, defect = pythagoras_check(xi3, xi2, xi1)
            assert abs(defect) <= 1e-10
            assert abs(lhs - rhs) <= 1e-12 * (1 + lhs)
