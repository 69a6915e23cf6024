"""Finite-dimensional contact geometry in canonical coordinates (x, p, z).

The contact 1-form is dz - p_a dx^a.  This module evaluates it, builds the
characteristic (Reeb) direction, assembles contact Hamiltonian vector
fields from a Hamiltonian's first derivatives, measures the residuals that
cut out a Legendre submanifold from a generating function, restricts
dynamics to such a submanifold, computes the total Legendre transform of a
strictly convex generator, and integrates the resulting flows with RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "ContactPoint",
    "Tangent",
    "ContactHamiltonian",
    "Generator",
    "GeneratorKind",
    "AdaptedResiduals",
    "ConvergenceError",
    "FlowDivergedError",
    "OffSubmanifoldError",
    "eval_contact_form",
    "reeb_field",
    "contact_hamiltonian_field",
    "adapted_residuals",
    "restricted_field",
    "adapted_hamiltonian",
    "legendre_transform",
    "legendre_dual",
    "integrate_flow",
]

# Central finite-difference step scale: cube root of machine epsilon.
_FD_STEP = float(np.cbrt(np.finfo(float).eps))


class ConvergenceError(RuntimeError):
    """Newton iteration for the Legendre transform failed to converge."""


class FlowDivergedError(RuntimeError):
    """A trajectory produced a non-finite state; carries the step index."""

    def __init__(self, step):
        super().__init__(f"non-finite state encountered at step {step}")
        self.step = step


class OffSubmanifoldError(ValueError):
    """Restricted dynamics was requested at a point off the submanifold."""


def _vec(x):
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        return v.reshape(1)
    if v.ndim != 1:
        raise ValueError("coordinate arrays must be one-dimensional")
    return v


@dataclass(frozen=True)
class ContactPoint:
    """A point (x, p, z) of a (2n+1)-dimensional contact manifold."""

    x: np.ndarray
    p: np.ndarray
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", _vec(self.x))
        object.__setattr__(self, "p", _vec(self.p))
        object.__setattr__(self, "z", float(self.z))
        if self.x.shape != self.p.shape:
            raise ValueError(f"x has length {self.x.size} but p has length {self.p.size}")
        if not (np.isfinite(self.x).all() and np.isfinite(self.p).all() and math.isfinite(self.z)):
            raise ValueError("contact point has non-finite entries")

    @property
    def n(self):
        return self.x.size


@dataclass(frozen=True)
class Tangent:
    """A tangent vector (dx, dp, dz) at a contact point."""

    dx: np.ndarray
    dp: np.ndarray
    dz: float

    def __post_init__(self):
        object.__setattr__(self, "dx", _vec(self.dx))
        object.__setattr__(self, "dp", _vec(self.dp))
        object.__setattr__(self, "dz", float(self.dz))
        if self.dx.shape != self.dp.shape:
            raise ValueError("dx and dp lengths differ")

    @property
    def n(self):
        return self.dx.size


@dataclass(frozen=True)
class ContactHamiltonian:
    """A scalar function h(x, p, z) with gradient access.

    ``gradient`` returns (dh/dx, dh/dp, dh/dz); ``analytic`` records
    whether it is exact or a central finite-difference fallback.
    """

    value: Callable[[np.ndarray, np.ndarray, float], float]
    gradient: Callable[[np.ndarray, np.ndarray, float], tuple]
    analytic: bool = True

    @classmethod
    def from_value(cls, f, scale=1.0):
        """Wrap a plain h(x, p, z) with central finite-difference gradients."""
        step = _FD_STEP * scale

        def grad(x, p, z):
            gx = np.empty_like(x)
            gp = np.empty_like(p)
            for a in range(x.size):
                dx = np.zeros_like(x)
                dx[a] = step
                gx[a] = (f(x + dx, p, z) - f(x - dx, p, z)) / (2 * step)
                dp = np.zeros_like(p)
                dp[a] = step
                gp[a] = (f(x, p + dp, z) - f(x, p - dp, z)) / (2 * step)
            gz = (f(x, p, z + step) - f(x, p, z - step)) / (2 * step)
            return gx, gp, gz

        return cls(value=f, gradient=grad, analytic=False)


class GeneratorKind(Enum):
    """Which coordinates a generating function depends on."""

    X_TYPE = "x"  # psi(x): graph p = grad psi, z = psi
    P_TYPE = "p"  # phi(p): graph x = grad phi, z = p . grad phi - phi


@dataclass(frozen=True)
class Generator:
    """A generating function of a Legendre submanifold, with derivatives."""

    kind: GeneratorKind
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    strictly_convex: bool = False

    @classmethod
    def quadratic(cls, matrix, kind=GeneratorKind.X_TYPE):
        """Generator u -> u . M u / 2 for a symmetric matrix M."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.allclose(m, m.T):
            raise ValueError("quadratic generator needs a symmetric square matrix")
        convex = bool(np.all(np.linalg.eigvalsh(m) > 0))
        return cls(
            kind=kind,
            value=lambda u, m=m: 0.5 * float(u @ m @ u),
            gradient=lambda u, m=m: m @ u,
            hessian=lambda u, m=m: m.copy(),
            strictly_convex=convex,
        )

    @classmethod
    def from_value(cls, f, kind=GeneratorKind.X_TYPE, scale=1.0, strictly_convex=False):
        """Wrap a plain scalar function with finite-difference derivatives."""
        step = _FD_STEP * scale

        def grad(u):
            g = np.empty_like(u)
            for a in range(u.size):
                du = np.zeros_like(u)
                du[a] = step
                g[a] = (f(u + du) - f(u - du)) / (2 * step)
            return g

        hstep = np.sqrt(step)  # second differences lose half the digits

        def hess(u):
            n = u.size
            h = np.empty((n, n))
            for a in range(n):
                da = np.zeros(n)
                da[a] = hstep
                for b in range(a, n):
                    db = np.zeros(n)
                    db[b] = hstep
                    h[a, b] = h[b, a] = (
                        f(u + da + db) - f(u + da - db) - f(u - da + db) + f(u - da - db)
                    ) / (4 * hstep * hstep)
            return h

        return cls(kind=kind, value=f, gradient=grad, hessian=hess,
                   strictly_convex=strictly_convex)


@dataclass(frozen=True)
class AdaptedResiduals:
    """Residuals whose simultaneous vanishing puts a point on the submanifold."""

    delta0: float
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", _vec(self.delta))
        object.__setattr__(self, "delta0", float(self.delta0))

    @property
    def max_abs(self):
        return max(abs(self.delta0), float(np.abs(self.delta).max()))


def eval_contact_form(pt, v):
    """Value of the contact form on a tangent vector: dz - p_a dx^a."""
    if pt.n != v.n:
        raise ValueError(f"point dimension {pt.n} != tangent dimension {v.n}")
    return v.dz - float(pt.p @ v.dx)


def reeb_field(n):
    """The characteristic direction: unit dz component, zero elsewhere."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return Tangent(np.zeros(n), np.zeros(n), 1.0)


def contact_hamiltonian_field(h, pt):
    """Vector field X_h of a contact Hamiltonian at a point.

    Componentwise: dx = -dh/dp, dp = dh/dx + p dh/dz,
    dz = h - p . dh/dp; the identity <contact form, X_h> = h then holds
    by construction.
    """
    gx, gp, gz = h.gradient(pt.x, pt.p, pt.z)
    gx, gp = _vec(gx), _vec(gp)
    val = float(h.value(pt.x, pt.p, pt.z))
    out = Tangent(-gp, gx + pt.p * gz, val - float(pt.p @ gp))
    if not (np.isfinite(out.dx).all() and np.isfinite(out.dp).all() and math.isfinite(out.dz)):
        raise ValueError("non-finite derivative values in contact Hamiltonian field")
    return out


def adapted_residuals(gen, pt):
    """How far a point sits from the submanifold cut out by a generator.

    X-type psi: (psi(x) - z, grad psi(x) - p).
    P-type phi: (x . p - phi(p) - z, x - grad phi(p)).
    """
    if gen.kind is GeneratorKind.X_TYPE:
        return AdaptedResiduals(
            gen.value(pt.x) - pt.z, _vec(gen.gradient(pt.x)) - pt.p
        )
    return AdaptedResiduals(
        float(pt.x @ pt.p) - gen.value(pt.p) - pt.z,
        pt.x - _vec(gen.gradient(pt.p)),
    )


_ON_SHELL_TOL = 1e-9


def restricted_field(gen, F, pt, strict=False):
    """Push-forward of a velocity field on a Legendre submanifold.

    X-type: dx = F, dp = Hess(psi) F, dz = grad psi . F.
    P-type: dp = F, dx = Hess(phi) F, dz = p . Hess(phi) F.
    Equals the contact Hamiltonian field of ``adapted_hamiltonian`` at
    on-submanifold points.  With ``strict`` the on-shell precondition is
    checked against 1e-9.
    """
    F = _vec(F)
    if F.size != pt.n:
        raise ValueError(f"velocity has length {F.size}, point has dimension {pt.n}")
    if strict:
        res = adapted_residuals(gen, pt)
        if res.max_abs > _ON_SHELL_TOL:
            raise OffSubmanifoldError(
                f"point is off the generated submanifold (residual {res.max_abs:.3e})"
            )
    if gen.kind is GeneratorKind.X_TYPE:
        hess = np.asarray(gen.hessian(pt.x), dtype=float)
        return Tangent(F, hess @ F, float(_vec(gen.gradient(pt.x)) @ F))
    hess = np.asarray(gen.hessian(pt.p), dtype=float)
    return Tangent(hess @ F, F, float(pt.p @ (hess @ F)))


def adapted_hamiltonian(gen, F, kappa=1.0):
    """Contact Hamiltonian whose restricted flow realises ``restricted_field``.

    h = Delta_a F^a + kappa * Delta_0 built from the adapted residuals of
    ``gen``; it vanishes on the generated submanifold, and its contact
    Hamiltonian field restricted there reproduces the pushed-forward
    velocity F.
    """
    F = _vec(F)
    if kappa <= 0:
        raise ValueError("kappa must be positive")

    if gen.kind is GeneratorKind.X_TYPE:

        def value(x, p, z):
            return float((_vec(gen.gradient(x)) - p) @ F) + kappa * (gen.value(x) - z)

        def gradient(x, p, z):
            hess = np.asarray(gen.hessian(x), dtype=float)
            gx = hess @ F + kappa * _vec(gen.gradient(x))
            return gx, -F, -kappa

    else:

        def value(x, p, z):
            return float((x - _vec(gen.gradient(p))) @ F) + kappa * (
                float(x @ p) - gen.value(p) - z
            )

        def gradient(x, p, z):
            hess = np.asarray(gen.hessian(p), dtype=float)
            gp = -hess @ F + kappa * (x - _vec(gen.gradient(p)))
            return F + kappa * p, gp, -kappa

    return ContactHamiltonian(value=value, gradient=gradient, analytic=True)


def legendre_transform(gen, p, max_iter=100):
    """Total Legendre transform sup_x [x . p - psi(x)] of an X-type generator.

    Damped Newton iteration on grad psi(x) = p, started from the
    Hessian-at-origin guess; returns (value, maximizer).  Strict convexity
    guarantees a unique root; non-convergence raises ConvergenceError.
    """
    if gen.kind is not GeneratorKind.X_TYPE:
        raise ValueError("legendre_transform expects an X-type generator")
    if not gen.strictly_convex:
        raise ValueError("legendre_transform requires the strict-convexity flag")
    p = _vec(p)
    n = p.size
    tol = 1e-12 * (1.0 + float(np.abs(p).max()))

    try:
        x = np.linalg.solve(np.asarray(gen.hessian(np.zeros(n)), dtype=float), p)
        if not np.isfinite(x).all():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        x = p.copy()  # curvature degenerates at the origin; start at the dual point
    r = _vec(gen.gradient(x)) - p
    for _ in range(max_iter):
        if float(np.abs(r).max()) <= tol:
            return float(x @ p) - float(gen.value(x)), x
        try:
            step = np.linalg.solve(np.asarray(gen.hessian(x), dtype=float), r)
        except np.linalg.LinAlgError:
            step = r
        t = 1.0
        for _ in range(30):
            x_new = x - t * step
            r_new = _vec(gen.gradient(x_new)) - p
            if np.isfinite(r_new).all() and np.linalg.norm(r_new) < np.linalg.norm(r):
                break
            t *= 0.5
        else:
            raise ConvergenceError("damped Newton step failed to reduce the residual")
        x, r = x_new, r_new
    if float(np.abs(r).max()) <= tol:
        return float(x @ p) - float(gen.value(x)), x
    raise ConvergenceError(
        f"Newton did not reach tolerance {tol:.3e} in {max_iter} iterations"
    )


def legendre_dual(gen):
    """The transform of an X-type generator, packaged as a generator itself.

    Value and gradient come from the numeric supremum (the gradient of the
    dual is the maximizer); the Hessian is the inverse Hessian at the
    maximizer.  Applying ``legendre_transform`` to the result recovers the
    original function pointwise.
    """

    def value(p):
        val, _ = legendre_transform(gen, p)
        return val

    def gradient(p):
        _, xstar = legendre_transform(gen, p)
        return xstar

    def hessian(p):
        _, xstar = legendre_transform(gen, p)
        return np.linalg.inv(np.asarray(gen.hessian(xstar), dtype=float))

    return Generator(
        kind=GeneratorKind.X_TYPE,
        value=value,
        gradient=gradient,
        hessian=hessian,
        strictly_convex=gen.strictly_convex,
    )


def _pack(pt):
    return np.concatenate([pt.x, pt.p, [pt.z]])


def _unpack(y, n):
    return ContactPoint(y[:n], y[n : 2 * n], y[2 * n])


def integrate_flow(field, pt0, dt, steps):
    """Fixed-step RK4 over a tangent-field callable; returns the trajectory.

    ``field(pt) -> Tangent``; the trajectory has ``steps + 1`` points
    starting at ``pt0``.  A non-finite state aborts with the step index.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = pt0.n

    def rhs(y):
        t = field(_unpack(y, n))
        return np.concatenate([t.dx, t.dp, [t.dz]])

    traj = [pt0]
    y = _pack(pt0)
    for step in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(y).all():
            raise FlowDivergedError(step)
        traj.append(_unpack(y, n))
    return traj
