"""Self-contained verification suites behind the `cmx verify` command.

Each suite function runs a batch of numbered checks and returns
CheckResult rows; the acceptance test module asserts the same rows, so
the command line and the test suite cannot drift apart.  Tolerances are
fixed here and nowhere else.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import contact as ct
from .config import parse_config
from .dec import (
    FormField,
    Mesh,
    exterior_derivative,
    hodge_star,
    inner_product_1forms,
    integrate,
    resample,
    sample_form,
    wedge,
)
from .dynamics import (
    SchemeConfig,
    _leapfrog,
    cfl_limit,
    evolve_potential,
    run_scenario,
    solve_vector_potential,
    step_induction,
)
from .fiber import (
    MaxwellState,
    MediumProfile,
    Orientation,
    coenergy_density,
    contact_hamiltonian_density,
    energy_density,
    energy_quadratic,
    functional,
    induction_from_intensity,
    intensity_from_induction,
    pairing_density,
    phase_residuals,
)
from .infogeo import (
    FiberPoint,
    alpha_connection,
    canonical_divergence,
    contravariant_metric,
    fiber_metric,
    pythagoras_check,
    random_orthogonal_triple,
)
from .scenarios import gaussian_pulse_state, plane_wave_state
from .snapshots import read_snapshot, write_snapshot
from .timeseries import read_timeseries, write_timeseries

__all__ = ["CheckResult", "SUITES", "run_suites", "format_results"]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, measured, bound, larger_ok=False):
    """Pass when measured <= bound (or >= bound with ``larger_ok``)."""
    ok = measured >= bound if larger_ok else measured <= bound
    rel = ">=" if larger_ok else "<="
    return CheckResult(name, bool(ok), f"{measured:.3e} {rel} {bound:.3e}")


# ----------------------------------------------------------------------
# random analytic test objects
# ----------------------------------------------------------------------

def _random_hamiltonian(rng, n):
    """Smooth Hamiltonian with closed-form gradient for identity checks."""
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    c = rng.standard_normal()
    c2 = rng.standard_normal()
    d = rng.standard_normal(n)
    g = rng.standard_normal(n)
    wx = rng.uniform(0.5, 2.0, n)
    wp = rng.uniform(0.5, 2.0, n)
    M = rng.standard_normal((n, n))

    def value(x, p, z):
        return float(
            a @ x + b @ p + c * z + 0.5 * c2 * z * z
            + d @ np.sin(wx * x) + g @ np.cos(wp * p) + x @ M @ p
        )

    def gradient(x, p, z):
        gx = a + d * wx * np.cos(wx * x) + M @ p
        gp = b - g * wp * np.sin(wp * p) + M.T @ x
        gz = c + c2 * z
        return gx, gp, gz

    return ct.ContactHamiltonian(value=value, gradient=gradient, analytic=True)


def _random_convex_generator(rng, n, kind=ct.GeneratorKind.X_TYPE):
    """Strictly convex non-quadratic generator with analytic derivatives."""
    A = rng.standard_normal((n, n))
    M = A.T @ A + 0.5 * np.eye(n)
    c = rng.uniform(0.1, 0.6, n)
    w = rng.uniform(0.3, 1.0, n)

    def value(u):
        return 0.5 * float(u @ M @ u) + float(c @ np.cosh(w * u))

    def gradient(u):
        return M @ u + c * w * np.sinh(w * u)

    def hessian(u):
        return M + np.diag(c * w * w * np.cosh(w * u))

    return ct.Generator(kind=kind, value=value, gradient=gradient,
                        hessian=hessian, strictly_convex=True)


def _on_shell_point(gen, rng, n):
    if gen.kind is ct.GeneratorKind.X_TYPE:
        x = rng.uniform(-1, 1, n)
        return ct.ContactPoint(x, gen.gradient(x), gen.value(x))
    p = rng.uniform(-1, 1, n)
    x = np.asarray(gen.gradient(p), dtype=float)
    return ct.ContactPoint(x, p, float(x @ p) - gen.value(p))


def _tangent_gap(t1, t2):
    return max(
        float(np.abs(t1.dx - t2.dx).max()),
        float(np.abs(t1.dp - t2.dp).max()),
        abs(t1.dz - t2.dz),
    )


# ----------------------------------------------------------------------
# contact suite (acceptance criteria 1 and 2)
# ----------------------------------------------------------------------

def suite_contact(seed=0):
    rng = np.random.default_rng(seed)
    results = []

    # criterion 1: pairing identity and dlambda condition, 1000 random cases
    worst_pair = worst_dx = worst_dp = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        h = _random_hamiltonian(rng, n)
        pt = ct.ContactPoint(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n),
                             rng.uniform(-2, 2))
        X = ct.contact_hamiltonian_field(h, pt)
        hval = h.value(pt.x, pt.p, pt.z)
        scale = 1.0 + abs(hval)
        worst_pair = max(worst_pair, abs(ct.eval_contact_form(pt, X) - hval) / scale)
        gx, gp, gz = h.gradient(pt.x, pt.p, pt.z)
        gscale = 1.0 + float(np.abs(gx).max() + np.abs(gp).max() + abs(gz))
        worst_dx = max(worst_dx, float(np.abs(X.dx + gp).max()) / gscale)
        worst_dp = max(worst_dp, float(np.abs(-X.dp + gx + pt.p * gz).max()) / gscale)
    results.append(_check("contact.pairing_identity", worst_pair, 1e-12))
    results.append(_check("contact.dlambda_dp_component", worst_dx, 1e-12))
    results.append(_check("contact.dlambda_dx_component", worst_dp, 1e-12))

    # finite-difference gradients satisfy the same identities loosely
    worst_fd = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        ha = _random_hamiltonian(rng, n)
        hf = ct.ContactHamiltonian.from_value(ha.value)
        pt = ct.ContactPoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                             rng.uniform(-1, 1))
        worst_fd = max(worst_fd, _tangent_gap(
            ct.contact_hamiltonian_field(ha, pt),
            ct.contact_hamiltonian_field(hf, pt)))
    results.append(_check("contact.fd_gradient_agreement", worst_fd, 1e-6))

    # criterion 2: restricted field equals the adapted-Hamiltonian field
    worst = 0.0
    for n in (1, 2, 6):
        for kind in (ct.GeneratorKind.X_TYPE, ct.GeneratorKind.P_TYPE):
            for _ in range(20):
                gen = _random_convex_generator(rng, n, kind)
                pt = _on_shell_point(gen, rng, n)
                F = rng.uniform(-1, 1, n)
                kappa = float(rng.uniform(0.5, 2.0))
                t_restricted = ct.restricted_field(gen, F, pt, strict=True)
                t_adapted = ct.contact_hamiltonian_field(
                    ct.adapted_hamiltonian(gen, F, kappa), pt)
                worst = max(worst, _tangent_gap(t_restricted, t_adapted))
    results.append(_check("contact.restricted_equals_adapted", worst, 1e-10))

    # criterion 2: RK4 constraint drift shrinks >= 15x when dt halves
    gen = _random_convex_generator(rng, 2)
    F = np.array([0.7, -0.4])
    pt0 = _on_shell_point(gen, rng, 2)

    def max_drift(dt, steps):
        traj = ct.integrate_flow(
            lambda q: ct.restricted_field(gen, F, q), pt0, dt, steps)
        return max(ct.adapted_residuals(gen, q).max_abs for q in traj)

    d1 = max_drift(0.1, 100)
    d2 = max_drift(0.05, 200)
    results.append(_check("contact.rk4_drift_halving_factor", d1 / d2, 15.0,
                          larger_ok=True))

    # involution on strictly convex quadratics
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        gen = ct.Generator.quadratic(A.T @ A + 0.3 * np.eye(n))
        dual = ct.legendre_dual(gen)
        x = rng.uniform(-2, 2, n)
        val, _ = ct.legendre_transform(dual, x)
        worst = max(worst, abs(val - gen.value(x)))
    results.append(_check("contact.legendre_involution", worst, 1e-9))

    return results


# ----------------------------------------------------------------------
# dec suite (acceptance criterion 4 and mesh invariants)
# ----------------------------------------------------------------------

def _random_field(rng, mesh, degree, dual=False):
    shape = mesh.dims if degree in (0, 3) else (3, *mesh.dims)
    return FormField(mesh, degree, rng.standard_normal(shape), dual)


def suite_dec(seed=0):
    rng = np.random.default_rng(seed)
    mesh = Mesh((16, 16, 16))
    results = []

    # d(d(x)) = 0 within 8 ulp of the field scale
    worst = 0.0
    for _ in range(200):
        degree = int(rng.integers(0, 2))
        dual = bool(rng.integers(0, 2))
        alpha = _random_field(rng, mesh, degree, dual)
        dd = exterior_derivative(exterior_derivative(alpha))
        worst = max(worst, float(np.abs(dd.data).max())
                    / float(np.abs(alpha.data).max()))
    results.append(_check("dec.dd_zero", worst, 8 * _EPS))

    # star involution is bitwise
    exact = True
    for degree in range(4):
        for dual in (False, True):
            alpha = _random_field(rng, mesh, degree, dual)
            back = hodge_star(hodge_star(alpha))
            exact &= bool(np.array_equal(back.data, alpha.data))
            exact &= back.degree == alpha.degree and back.dual == alpha.dual
    results.append(CheckResult("dec.star_involution_bitwise", exact,
                               "bit-for-bit" if exact else "mismatch"))

    # alpha ^ star(beta) symmetry, degrees 1 and 2
    worst = 0.0
    for degree in (1, 2):
        for _ in range(20):
            a = _random_field(rng, mesh, degree)
            b = _random_field(rng, mesh, degree)
            lhs = wedge(a, hodge_star(b))
            rhs = wedge(b, hodge_star(a))
            scale = float(np.abs(lhs.data).max()) or 1.0
            worst = max(worst, float(np.abs(lhs.data - rhs.data).max()) / scale)
    results.append(_check("dec.wedge_star_symmetry", worst, 1e-13))

    # triple-product formula on constants (1-form paired with 2-form)
    worst = 0.0
    for _ in range(20):
        dvals = rng.standard_normal(3)
        fvals = rng.standard_normal(3)
        one = FormField(mesh, 1, np.stack([np.full(mesh.dims, v) for v in dvals]))
        two = FormField(mesh, 2, np.stack([np.full(mesh.dims, v) for v in fvals]))
        trip = hodge_star(wedge(one, two))
        expect = float(dvals @ fvals)
        worst = max(worst, float(np.abs(trip.data - expect).max()))
    results.append(_check("dec.triple_product_constants", worst, 1e-14))

    # discrete Stokes: integral of an exact 3-form vanishes
    worst = 0.0
    for dual in (False, True):
        alpha = _random_field(rng, mesh, 2, dual)
        total = abs(integrate(exterior_derivative(alpha)))
        worst = max(worst, total / float(np.abs(alpha.data).max()))
    n3 = float(np.prod(mesh.dims))
    results.append(_check("dec.stokes_periodic", worst, 1e-12 * n3))

    # convergence order >= 1.9 for d, wedge, and the 1-form inner product
    def errors(n):
        m = Mesh((n, n, n), spacing=1.0 / n)
        L = 1.0
        kx = 2 * np.pi / L

        def f1(x, y, z):
            return np.sin(kx * x) * np.cos(kx * y)

        def f2(x, y, z):
            return np.cos(kx * y) * np.sin(kx * z)

        alpha = sample_form(m, 1, [f1, f2, None])
        dalpha = exterior_derivative(alpha)
        # analytic curl component 2: d(alpha_1)/d0 - d(alpha_0)/d1
        X, Y, Z = m.coord_axes(dalpha.offsets()[2])
        truth = np.zeros(m.dims)
        truth += 0.0  # alpha_1 has no x dependence
        truth -= -kx * np.sin(kx * X) * np.sin(kx * Y)
        e_d = float(np.abs(dalpha.data[2] - truth).max())

        beta = sample_form(m, 1, [None, f2, f1])
        prod = wedge(alpha, beta)
        Xp, Yp, Zp = m.coord_axes(prod.offsets()[2])
        truth_w = f1(Xp, Yp, Zp) * f2(Xp, Yp, Zp)
        e_w = float(np.abs(prod.data[2] - truth_w).max())

        ip = inner_product_1forms(alpha, beta)
        Xn, Yn, Zn = m.coord_axes((0.0, 0.0, 0.0))
        truth_ip = f2(Xn, Yn, Zn) ** 2  # only the middle components pair up
        e_ip = float(np.abs(ip.data - truth_ip).max())

        via_star = hodge_star(wedge(alpha, hodge_star(beta)))
        back = resample(via_star.data, (0.5, 0.5, 0.5), (0.0, 0.0, 0.0))
        e_vs = float(np.abs(ip.data - back).max())
        return np.array([e_d, e_w, e_ip, e_vs])

    errs = [errors(n) for n in (16, 32, 64)]
    orders = np.minimum(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))
    results.append(_check("dec.derivative_order", float(orders[0]), 1.9, larger_ok=True))
    results.append(_check("dec.wedge_order", float(orders[1]), 1.9, larger_ok=True))
    results.append(_check("dec.inner_product_order", float(orders[2]), 1.9, larger_ok=True))
    results.append(_check("dec.inner_vs_star_order", float(orders[3]), 1.9, larger_ok=True))

    # full-period trapezoid integration is exact on sin^2
    m = Mesh((16, 8, 8), spacing=0.5)
    L = m.extent[0]
    dens = sample_form(m, 3, lambda x, y, z: np.sin(2 * np.pi * x / L) ** 2)
    vol = m.extent[0] * m.extent[1] * m.extent[2]
    err = abs(integrate(dens) - vol / 2) / (vol / 2)
    results.append(_check("dec.sin2_integral", err, 1e-13))

    return results


# ----------------------------------------------------------------------
# fiber suite (acceptance criterion 3 and energy invariants)
# ----------------------------------------------------------------------

def suite_fiber(seed=0):
    rng = np.random.default_rng(seed)
    results = []

    # criterion 3: numeric supremum of the six-variable energy density
    worst_val = 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.1, 10.0))
        mu = float(rng.uniform(0.1, 10.0))
        p = rng.uniform(-3, 3, 6)
        val, argmax = ct.legendre_transform(energy_quadratic(eps, mu), p)
        closed = 0.5 * (eps * float(p[:3] @ p[:3]) + mu * float(p[3:] @ p[3:]))
        worst_val = max(worst_val, abs(val - closed) / (1.0 + abs(closed)))
    results.append(_check("fiber.legendre_vs_coenergy", worst_val, 1e-10))

    worst = 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.1, 10.0))
        mu = float(rng.uniform(0.1, 10.0))
        gen = energy_quadratic(eps, mu)
        x = rng.uniform(-3, 3, 6)
        val, _ = ct.legendre_transform(ct.legendre_dual(gen), x)
        worst = max(worst, abs(val - gen.value(x)))
    results.append(_check("fiber.legendre_involution", worst, 1e-9))

    mesh = Mesh((8, 8, 8), spacing=0.5)
    medium = MediumProfile(mesh, 1.0 + rng.random(mesh.dims),
                           1.0 + rng.random(mesh.dims))

    # Hessian is the expected diagonal and positive definite per cell
    worst = 0.0
    pd = True
    for idx in zip(*[rng.integers(0, 8, 50) for _ in range(3)]):
        g = fiber_metric(medium.eps[idx], medium.mu[idx])
        expect = np.diag([1 / medium.eps[idx]] * 3 + [1 / medium.mu[idx]] * 3)
        worst = max(worst, float(np.abs(g - expect).max()))
        pd &= bool(np.all(np.linalg.eigvalsh(g) > 0))
    results.append(_check("fiber.hessian_diagonal", worst, 0.0))
    results.append(CheckResult("fiber.hessian_positive_definite", pd,
                               "all sampled cells" if pd else "failure"))

    # constitutive round trip
    D = _random_field(rng, mesh, 2, dual=True)
    B = _random_field(rng, mesh, 2, dual=False)
    e, h = intensity_from_induction(D, B, medium)
    D2, B2 = induction_from_intensity(e, h, medium)
    gap = max(float(np.abs((D2 - D).data).max()), float(np.abs((B2 - B).data).max()))
    results.append(_check("fiber.constitutive_round_trip", gap, 1e-14))

    # functional derivative of the energy functional matches the wedge form
    deltaD = _random_field(rng, mesh, 2, dual=True)
    eta = 1e-3

    def psi_of(dfield):
        return functional(energy_density(dfield, B, medium))

    slope_1 = (psi_of(D + eta * deltaD) - psi_of(D - eta * deltaD)) / (2 * eta)
    slope_2 = (psi_of(D + 0.5 * eta * deltaD) - psi_of(D - 0.5 * eta * deltaD)) / eta
    slope = (4 * slope_2 - slope_1) / 3  # Richardson; exact already for quadratics
    pairing = integrate(wedge(medium.intensity(D), deltaD))
    rel = abs(slope - pairing) / (1.0 + abs(pairing))
    results.append(_check("fiber.functional_derivative", rel, 1e-8))

    # on-shell energy identity and phase residuals in both orientations
    state = MaxwellState.from_induction(D, B, medium)
    scale = state.field_scale()
    pd_density = pairing_density(state.D, state.B, state.e, state.h)
    co = coenergy_density(state.e, state.h, medium)
    identity_gap = float(np.abs((pd_density - co - state.energy).data).max())
    results.append(_check("fiber.onshell_energy_identity", identity_gap,
                          1e-12 * max(scale, 1.0) ** 2))
    for orientation in (Orientation.DB, Orientation.EH):
        res = phase_residuals(state, medium, orientation)
        results.append(_check(f"fiber.onshell_residuals_{orientation.value}",
                              res.max_abs(), 1e-14 * max(scale, 1.0) ** 2))
        dens = contact_hamiltonian_density(state, medium, orientation, residuals=res)
        results.append(_check(f"fiber.hamiltonian_density_onshell_{orientation.value}",
                              float(np.abs(dens.data).max()),
                              1e-12 * max(scale, 1.0) ** 2))

    return results


# ----------------------------------------------------------------------
# dynamics suite (acceptance criteria 5-9)
# ----------------------------------------------------------------------

def _linear_fit_slope(times, values):
    t = np.asarray(times) - times[0]
    v = np.asarray(values)
    A = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(A, v, rcond=None)[0]
    return float(slope)


def _modified_energy(state, medium, dt):
    """The cell density w = psi - (dt^2 / 8) mean((d e)^2 / mu) that the
    leapfrog's energy balance conserves exactly, as an (N1, N2, N3) array."""
    zero = FormField.zeros(state.mesh, 2, dual=True)
    curl = energy_density(zero, exterior_derivative(state.e), medium)
    return energy_density(state.D, state.B, medium).data - (0.25 * dt * dt) * curl.data


def suite_dynamics(seed=0):
    results = []

    # criteria 5 and 6a: vacuum plane wave, 32^3, cfl 0.5, 2000 steps
    mesh = Mesh((32, 32, 32))
    medium = MediumProfile.vacuum(mesh)
    cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, steps=2000, cadence=20)
    state0 = plane_wave_state(mesh, medium, cfg.dt, axis=0, wavelength=16.0,
                              polarization=1)
    scale = state0.field_scale()
    final, reports = run_scenario(state0, medium, cfg)
    div_worst = max(max(r.div_D_max, r.div_B_max) for r in reports)
    results.append(_check("dynamics.divergence_conservation", div_worst,
                          1e-12 * scale / mesh.spacing))
    psi0 = reports[0].psi_total
    slope = _linear_fit_slope([r.time for r in reports],
                              [r.psi_total for r in reports])
    drift = abs(slope) * (final.time - state0.time) / psi0
    results.append(_check("dynamics.energy_secular_drift", drift, 1e-8))
    ham_worst = max(abs(r.hamiltonian_functional) for r in reports)
    results.append(_check("dynamics.hamiltonian_functional", ham_worst,
                          1e-10 * psi0))

    # criterion 6b: evolved energy vs recomputed density converges as dt^2
    mesh_s = Mesh((16, 8, 8))
    med_s = MediumProfile.uniform(mesh_s, 2.0, 3.0)
    lim = cfl_limit(mesh_s, med_s)

    def worst_energy_gap(halve):
        cfg_h = SchemeConfig(dt=0.5 * lim / halve, cfl=0.5 / halve,
                             steps=150 * halve)
        s = plane_wave_state(mesh_s, med_s, cfg_h.dt, axis=0, wavelength=16.0,
                             polarization=1)
        worst = 0.0
        for _ in range(cfg_h.steps):
            s = step_induction(s, med_s, cfg_h)
            gap = float(np.abs(
                (energy_density(s.D, s.B, med_s) - s.energy).data).max())
            worst = max(worst, gap)
        return worst

    g1, g2 = worst_energy_gap(1), worst_energy_gap(2)
    results.append(_check("dynamics.energy_bookkeeping_order", g1 / g2, 3.8,
                          larger_ok=True))

    # the energy coordinate advances on the leapfrog's exact discrete balance:
    # E - w keeps its initial value in every cell, where w is psi less the
    # O(dt^2) modified-energy term (dt^2 / 8) mean((d e)^2 / mu); random
    # media and rough divergence-free data, 200 steps near the limit
    rng = np.random.default_rng(seed)
    mesh_x = Mesh((12, 10, 8), spacing=0.5)
    med_x = MediumProfile(mesh_x, 1.0 + 2.0 * rng.random(mesh_x.dims),
                          1.0 + rng.random(mesh_x.dims))
    s_x = MaxwellState.from_induction(
        exterior_derivative(_random_field(rng, mesh_x, 1, dual=True)),
        exterior_derivative(_random_field(rng, mesh_x, 1)), med_x)
    balance = 0.0
    for orientation in (Orientation.DB, Orientation.EH):
        cfg_x = SchemeConfig.from_cfl(mesh_x, med_x, cfl=0.95, orientation=orientation,
                                      steps=200, cadence=200)
        w0 = _modified_energy(s_x, med_x, cfg_x.dt)
        end, _ = run_scenario(s_x, med_x, cfg_x)
        drift = (end.energy.data - _modified_energy(end, med_x, cfg_x.dt)) \
            - (s_x.energy.data - w0)
        balance = max(balance, float(np.abs(drift).max() / np.abs(w0).max()))
    results.append(_check("dynamics.energy_exact_balance", balance, 2e-14))

    # criterion 7: the two orientations agree and the Hamiltonian stays zero
    med7 = MediumProfile.uniform(mesh, 2.0, 3.0)
    cfg7 = SchemeConfig.from_cfl(mesh, med7, cfl=0.5, steps=1000, cadence=50)
    s7 = plane_wave_state(mesh, med7, cfg7.dt, axis=0, wavelength=16.0,
                          polarization=1)
    a, b = s7, s7
    ham7 = 0.0
    psi7 = functional(energy_density(s7.D, s7.B, med7))
    cfg7e = replace(cfg7, orientation=Orientation.EH)
    curl_a = curl_b = None  # each step hands its last curl to the next
    for k in range(cfg7.steps):
        a, curl_a = _leapfrog(a, med7, cfg7, curl_a)
        b, curl_b = _leapfrog(b, med7, cfg7e, curl_b)
        if (k + 1) % cfg7.cadence == 0:
            ham7 = max(ham7, abs(functional(
                contact_hamiltonian_density(a, med7, Orientation.DB))))
    gap7 = max(
        float(np.abs((a.D - b.D).data).max()),
        float(np.abs((a.B - b.B).data).max()),
        float(np.abs((a.e - b.e).data).max()),
        float(np.abs((a.h - b.h).data).max()),
        float(np.abs((a.energy - b.energy).data).max()),
    ) / s7.field_scale()
    results.append(_check("dynamics.orientation_agreement", gap7, 1e-10))
    results.append(_check("dynamics.orientation_hamiltonian", ham7, 1e-10 * psi7))

    # criterion 8: plane-wave physics oracle against the analytic period
    def period_error(ppw):
        m8 = Mesh((ppw, 4, 4))
        med8 = MediumProfile.vacuum(m8)
        period = float(ppw)  # wavelength / c in natural units
        dt = 0.99 * cfl_limit(m8, med8)
        steps = int(np.ceil(period / dt))
        dt = period / steps
        cfg8 = SchemeConfig(dt=dt, cfl=dt / cfl_limit(m8, med8), steps=steps)
        s8 = plane_wave_state(m8, med8, dt, axis=0, wavelength=float(ppw),
                              polarization=1)
        cur = s8
        for _ in range(steps):
            cur = step_induction(cur, med8, cfg8)
        num = (cur.e - s8.e).data
        return float(np.sqrt(np.mean(num**2) / np.mean(s8.e.data**2)))

    err16 = period_error(16)
    err32 = period_error(32)
    results.append(_check("dynamics.plane_wave_period_rms", err16, 1e-2))
    results.append(_check("dynamics.plane_wave_refinement", err16 / err32, 3.5,
                          larger_ok=True))

    # criterion 9: potential-form oracle against the field stepper
    mesh9 = Mesh((16, 8, 8))
    med9 = MediumProfile.vacuum(mesh9)
    cfg9 = SchemeConfig.from_cfl(mesh9, med9, cfl=0.5, steps=500)
    s9 = plane_wave_state(mesh9, med9, cfg9.dt, axis=0, wavelength=16.0,
                          polarization=1)
    B_half0 = s9.B - (0.5 * cfg9.dt) * exterior_derivative(s9.e)
    traj = evolve_potential(solve_vector_potential(B_half0), -1.0 * s9.e,
                            med9, cfg9)
    yee = s9
    sq_err = 0.0
    sq_ref = 0.0
    for n in range(1, cfg9.steps + 1):
        yee = step_induction(yee, med9, cfg9)
        sq_err += float(np.sum((traj.e[n] - yee.e).data ** 2))
        sq_err += float(np.sum((traj.B_sync(n) - yee.B).data ** 2))
        sq_ref += float(np.sum(yee.e.data ** 2) + np.sum(yee.B.data ** 2))
    results.append(_check("dynamics.potential_cross_check",
                          float(np.sqrt(sq_err / sq_ref)), 1e-6))

    # leapfrog time reversal returns the initial state
    cfg_r = SchemeConfig.from_cfl(mesh_s, med_s, cfl=0.5, steps=100)
    s_r = plane_wave_state(mesh_s, med_s, cfg_r.dt, axis=0, wavelength=16.0,
                           polarization=1)
    fw = s_r
    for _ in range(cfg_r.steps):
        fw = step_induction(fw, med_s, cfg_r)
    back_cfg = cfg_r.reversed()
    bw = fw
    for _ in range(cfg_r.steps):
        bw = step_induction(bw, med_s, back_cfg)
    rev = max(
        float(np.abs((bw.D - s_r.D).data).max()),
        float(np.abs((bw.B - s_r.B).data).max()),
        float(np.abs((bw.energy - s_r.energy).data).max()),
    ) / s_r.field_scale()
    results.append(_check("dynamics.time_reversal", rev, 1e-10))

    # graded-permittivity slab scenario preserves the divergence constraints
    mesh_sl = Mesh((16, 4, 32))
    med_sl = MediumProfile.sech_slab(mesh_sl, 1.0, 4.0, 1.0)
    cfg_sl = SchemeConfig.from_cfl(mesh_sl, med_sl, cfl=0.5, steps=300,
                                   cadence=20)
    s_sl = gaussian_pulse_state(mesh_sl, med_sl, center=8.0, width=2.0)
    _, reports_sl = run_scenario(s_sl, med_sl, cfg_sl)
    div_sl = max(max(r.div_D_max, r.div_B_max) for r in reports_sl)
    results.append(_check("dynamics.sech_slab_divergence", div_sl,
                          1e-12 * s_sl.field_scale() / mesh_sl.spacing))

    return results


# ----------------------------------------------------------------------
# information geometry suite (acceptance criterion 10)
# ----------------------------------------------------------------------

def suite_infogeo(seed=0):
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(1000):
        eps = float(rng.uniform(0.05, 20.0))
        mu = float(rng.uniform(0.05, 20.0))
        prod = fiber_metric(eps, mu) @ contravariant_metric(eps, mu)
        worst = max(worst, float(np.abs(prod - np.eye(6)).max()))
    results.append(_check("infogeo.metric_inverse_product", worst, 1e-14))

    gamma = alpha_connection(energy_quadratic(2.0, 3.0), alpha=0.5,
                             x=rng.uniform(-1, 1, 6))
    results.append(_check("infogeo.flat_connection_quadratic",
                          float(np.abs(gamma).max()), 0.0))

    # divergence: nonnegative, vanishing only at coincidence, quadratic form
    worst_form = 0.0
    nonneg = True
    separated = True
    for _ in range(200):
        eps = float(rng.uniform(0.1, 10.0))
        mu = float(rng.uniform(0.1, 10.0))
        x1 = rng.uniform(-2, 2, 6)
        x2 = rng.uniform(-2, 2, 6)
        xi1 = FiberPoint.from_x(x1, eps, mu)
        xi2 = FiberPoint.from_x(x2, eps, mu)
        div = canonical_divergence(xi1, xi2)
        g = fiber_metric(eps, mu)
        quad = 0.5 * float((x1 - x2) @ g @ (x1 - x2))
        worst_form = max(worst_form, abs(div - quad) / (1.0 + quad))
        nonneg &= div >= 0.0
        if float(np.abs(x1 - x2).max()) > 1e-6:
            separated &= div > 1e-16
        zero = canonical_divergence(xi1, xi1)
        nonneg &= zero == 0.0
    results.append(_check("infogeo.divergence_quadratic_form", worst_form, 1e-12))
    results.append(CheckResult("infogeo.divergence_separates", nonneg and separated,
                               "nonnegative, zero only at coincidence"
                               if nonneg and separated else "violated"))

    # generalized Pythagorean identity on constructed orthogonal corners
    worst = 0.0
    worst_defect = 0.0
    for _ in range(1000):
        eps = float(rng.uniform(0.1, 10.0))
        mu = float(rng.uniform(0.1, 10.0))
        xi3, xi2, xi1 = random_orthogonal_triple(rng, eps, mu)
        lhs, rhs, defect = pythagoras_check(xi3, xi2, xi1)
        worst = max(worst, abs(lhs - rhs) / (1.0 + lhs))
        worst_defect = max(worst_defect, abs(defect))
    results.append(_check("infogeo.pythagoras_additivity", worst, 1e-12))
    results.append(_check("infogeo.pythagoras_corner_orthogonal", worst_defect,
                          1e-10))

    # duality identity for a non-quadratic generator
    gen = _random_convex_generator(rng, 2)
    x = rng.uniform(-0.5, 0.5, 2)
    alpha = 0.7
    gam_p = alpha_connection(gen, alpha, x)
    gam_m = alpha_connection(gen, -alpha, x)
    step = 1e-5
    worst = 0.0
    for a in range(2):
        da = np.zeros(2)
        da[a] = step
        dg = (np.asarray(gen.hessian(x + da)) - np.asarray(gen.hessian(x - da))) / (2 * step)
        recon = gam_p[a] + np.swapaxes(gam_m, 1, 2)[a]
        worst = max(worst, float(np.abs(dg - recon).max()))
    results.append(_check("infogeo.alpha_duality_identity", worst, 1e-6))

    return results


# ----------------------------------------------------------------------
# i/o checks (acceptance criterion 11; run as part of `verify all`)
# ----------------------------------------------------------------------

def io_checks(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    mesh = Mesh((4, 3, 5), spacing=0.25)
    medium = MediumProfile(mesh, 1.0 + rng.random(mesh.dims),
                           1.0 + rng.random(mesh.dims))
    D = _random_field(rng, mesh, 2, dual=True)
    B = _random_field(rng, mesh, 2)
    state = MaxwellState.from_induction(D, B, medium, time=0.8125)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.cmx")
        write_snapshot(state, path)
        back = read_snapshot(path)
        exact = all(
            np.array_equal(getattr(back, name).data, getattr(state, name).data)
            for name in ("D", "B", "e", "h", "energy")
        ) and back.time == state.time and back.mesh == state.mesh
        results.append(CheckResult("io.snapshot_round_trip", exact,
                                   "bit-for-bit" if exact else "mismatch"))

        tiny = MaxwellState.zero(Mesh((2, 2, 2)))
        tiny_path = os.path.join(tmp, "tiny.cmx")
        write_snapshot(tiny, tiny_path)
        with open(tiny_path, "rb") as fh:
            header = b"".join(fh.readline() for _ in range(5))
            payload = fh.read()
        results.append(CheckResult(
            "io.snapshot_size", len(payload) == 13 * 8 * 8,
            f"payload {len(payload)} bytes, header {len(header)}"))

        cfg = parse_config("grid.dims = 8 8 8\nscheme.steps = 3\n"
                           "initial.preset = gaussian_pulse 4.0 1.5 1.0\n")
        echo = cfg.to_text()
        results.append(CheckResult("io.config_round_trip",
                                   parse_config(echo) == cfg
                                   and parse_config(echo).to_text() == echo,
                                   "canonical echo is a fixed point"))

        m = cfg.build_mesh()
        med = cfg.build_medium(m)
        scheme = cfg.build_scheme(m, med)
        rows = []
        for _ in range(2):
            _, reports = run_scenario(cfg.build_initial(m, med, scheme), med,
                                      scheme)
            csv_path = os.path.join(tmp, "ts.csv")
            write_timeseries(reports, csv_path)
            with open(csv_path, "rb") as fh:
                rows.append(fh.read())
            parsed = read_timeseries(csv_path)
            exact_rows = parsed == list(reports)
        results.append(CheckResult("io.timeseries_round_trip", exact_rows,
                                   "parsed rows equal written rows"
                                   if exact_rows else "mismatch"))
        results.append(CheckResult("io.deterministic_rerun",
                                   rows[0] == rows[1],
                                   "byte-identical reruns"
                                   if rows[0] == rows[1] else "runs differ"))
    return results


SUITES = {
    "contact": suite_contact,
    "dec": suite_dec,
    "fiber": suite_fiber,
    "dynamics": suite_dynamics,
    "infogeo": suite_infogeo,
}


def run_suites(name, seed=0):
    """Run one named suite, or every suite plus the i/o checks for 'all'."""
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite(seed))
        results.extend(io_checks(seed))
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)


def format_results(results):
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}")
    npass = sum(r.passed for r in results)
    lines.append(f"{npass}/{len(results)} checks passed")
    return "\n".join(lines)
