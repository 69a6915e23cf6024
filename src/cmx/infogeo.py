"""Dually flat geometry induced per cell by the quadratic energy density.

For one cell with constants (eps, mu) the energy density is a strictly
convex quadratic of the six induction components; its Hessian is a metric,
the intensities are the dual coordinates, and the pair of flat affine
connections makes the fiber a dually flat space with a Bregman-type
canonical divergence and a generalized Pythagorean identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "FiberPoint",
    "Connection",
    "fiber_metric",
    "contravariant_metric",
    "alpha_connection",
    "canonical_divergence",
    "geodesic",
    "pythagoras_check",
    "random_orthogonal_triple",
]

_CONSISTENCY_TOL = 1e-12


def _check_medium(eps, mu):
    if not (0 < eps < math.inf and 0 < mu < math.inf):  # NaN fails too
        raise ValueError("medium constants must be positive and finite")


def _diagonal(a, b):
    """diag(a x3, b x3), filled by stride."""
    g = np.zeros((6, 6))
    g.flat[:21:7] = a
    g.flat[21::7] = b
    return g


def fiber_metric(eps, mu):
    """Hessian of the energy density: diag(1/eps x3, 1/mu x3)."""
    _check_medium(eps, mu)
    return _diagonal(1.0 / eps, 1.0 / mu)


def contravariant_metric(eps, mu):
    """Hessian of the co-energy density: diag(eps x3, mu x3), the metric inverse."""
    _check_medium(eps, mu)
    return _diagonal(eps, mu)


@dataclass(frozen=True)
class FiberPoint:
    """A fiber point in both coordinate systems: inductions x, intensities p."""

    x: np.ndarray
    p: np.ndarray
    eps: float
    mu: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        if x.shape != (6,) or p.shape != (6,):
            raise ValueError("fiber coordinates must be length-6 vectors")
        expected = fiber_metric(self.eps, self.mu) @ x
        scale = 1.0 + float(np.abs(expected).max())
        # `not <=`, so that a NaN left by a non-finite coordinate fails too
        if not float(np.abs(expected - p).max()) <= _CONSISTENCY_TOL * scale:
            if not (np.isfinite(x).all() and np.isfinite(p).all()):
                raise ValueError("fiber coordinates must be finite")
            raise ValueError("p is not the constitutive gradient of x")

    @classmethod
    def from_x(cls, x, eps, mu):
        x = np.asarray(x, dtype=float)
        return cls(x=x, p=fiber_metric(eps, mu) @ x, eps=eps, mu=mu)

    @classmethod
    def from_p(cls, p, eps, mu):
        p = np.asarray(p, dtype=float)
        return cls(x=contravariant_metric(eps, mu) @ p, p=p, eps=eps, mu=mu)

    def same_medium(self, other):
        return self.eps == other.eps and self.mu == other.mu

    def energy(self):
        """Value of the (quadratic) energy density at this point."""
        return 0.5 * float(self.x @ self.p)


class Connection(Enum):
    """The two flat affine connections of the dually flat fiber."""

    NABLA = "nabla"          # affine in the induction coordinates x
    NABLA_PRIME = "nabla'"   # affine in the intensity coordinates p


def alpha_connection(gen, alpha, x):
    """Connection coefficients (1 - alpha)/2 times the third derivatives.

    ``gen`` is an X-type generator evaluated at ``x``; third derivatives
    are central finite differences of the Hessian.  For a quadratic
    generator every entry vanishes, and for any generator the identity
    d_a g_bc = Gamma^(alpha)_abc + Gamma^(-alpha)_acb holds.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    step = np.sqrt(np.cbrt(np.finfo(float).eps)) * (1.0 + float(np.abs(x).max()))
    third = np.empty((n, n, n))
    for a in range(n):
        da = np.zeros(n)
        da[a] = step
        hp = np.asarray(gen.hessian(x + da), dtype=float)
        hm = np.asarray(gen.hessian(x - da), dtype=float)
        third[a] = (hp - hm) / (2 * step)
    return 0.5 * (1.0 - alpha) * third


def canonical_divergence(xi, xi2):
    """Bregman-type divergence: energy(xi) + coenergy(xi2) - x|xi . p|xi2.

    Nonnegative, zero only at coincident points; for the quadratic energy
    it equals half the metric square of the induction difference.
    """
    if not xi.same_medium(xi2):
        raise ValueError("fiber points carry different media")
    psi = 0.5 * float(xi.x @ xi.p)
    phi = 0.5 * float(xi2.x @ xi2.p)
    return psi + phi - float(xi.x @ xi2.p)


def geodesic(connection, xi_from, xi_to, t):
    """Point at parameter t along the chosen flat connection's geodesic.

    Both connections are flat for the quadratic energy, so geodesics are
    straight lines in the respective coordinates: induction coordinates
    for NABLA, intensity coordinates for NABLA_PRIME.
    """
    if not xi_from.same_medium(xi_to):
        raise ValueError("fiber points carry different media")
    if connection is Connection.NABLA:
        x = (1.0 - t) * xi_from.x + t * xi_to.x
        return FiberPoint.from_x(x, xi_from.eps, xi_from.mu)
    p = (1.0 - t) * xi_from.p + t * xi_to.p
    return FiberPoint.from_p(p, xi_from.eps, xi_from.mu)


def pythagoras_check(xi3, xi2, xi1):
    """Divergence additivity along a corner xi3 -> xi2 -> xi1.

    Returns (lhs, rhs, orthogonality_defect) with lhs the divergence from
    xi3 to xi1, rhs the sum through xi2, and the defect the metric inner
    product at xi2 of the incoming NABLA-geodesic tangent with the
    outgoing NABLA_PRIME-geodesic tangent.  Additivity holds whenever the
    defect vanishes.
    """
    if not (xi3.same_medium(xi2) and xi2.same_medium(xi1)):
        raise ValueError("fiber points carry different media")
    g = fiber_metric(xi2.eps, xi2.mu)
    tangent_in = xi2.x - xi3.x
    tangent_out = contravariant_metric(xi2.eps, xi2.mu) @ (xi1.p - xi2.p)
    defect = float(tangent_in @ g @ tangent_out)
    lhs = canonical_divergence(xi3, xi1)
    rhs = canonical_divergence(xi3, xi2) + canonical_divergence(xi2, xi1)
    return lhs, rhs, defect


def random_orthogonal_triple(rng, eps, mu, scale=1.0):
    """Sample (xi3, xi2, xi1) with orthogonal geodesic tangents at xi2.

    The incoming direction is drawn in induction coordinates, the outgoing
    one in intensity coordinates, then projected in the fiber metric so
    the corner is exactly orthogonal.
    """
    g = fiber_metric(eps, mu)
    ginv = contravariant_metric(eps, mu)
    x2 = scale * rng.standard_normal(6)
    u = scale * rng.standard_normal(6)            # x-displacement into the corner
    v = scale * rng.standard_normal(6)            # p-displacement out of the corner
    w = ginv @ v                                   # outgoing tangent in x coordinates
    gu = g @ u
    w = w - u * float(gu @ w) / float(gu @ u)      # metric Gram-Schmidt
    xi2 = FiberPoint.from_x(x2, eps, mu)
    xi3 = FiberPoint.from_x(x2 - u, eps, mu)
    xi1 = FiberPoint.from_x(x2 + w, eps, mu)
    return xi3, xi2, xi1
