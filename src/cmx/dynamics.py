"""Time evolution of the Maxwell fields and its conservation diagnostics.

One step is a symmetric staggered leapfrog: the magnetic field takes a
half step with the curl of the electric intensity, the displacement a full
step with the curl of the half-advanced magnetic intensity, then the
second magnetic half step; the slaved pair is refreshed through the
constitutive maps.  Every division by eps or mu, here and in the
potential-form leapfrog, is `MediumProfile.intensity`, and every
multiplication `MediumProfile.induction`.  The energy coordinate is
integrated separately with the divergence of the discrete Poynting 2-form
built from time-centered intensities, so the energy balance is a
falsifiable check rather than a bookkeeping identity:
`cmx.dec.poynting_divergence`, the summation-by-parts partner of the
fourth-order (2,4) staggered difference in `cmx.dec.exterior_derivative`,
makes the semi-discrete balance exact pointwise, leaving a pure O(dt^2)
residual.  The stability bound in `cfl_limit` follows from the same
difference's Fourier symbol.

Both orientations (inductions evolved or intensities evolved) perform the
same update algebra for static linear media and agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .dec import (
    FormField,
    WHOLE,
    _poynting_divergence,
    difference_symbol,
    exterior_derivative,
    integrate,
)
from .fiber import (
    MaxwellState,
    Orientation,
    contact_hamiltonian_density,
    functional,
    phase_residuals,
)

__all__ = [
    "SchemeConfig",
    "DiagnosticsReport",
    "CFLError",
    "NonFiniteStateError",
    "step_induction",
    "step_intensity",
    "poynting_report",
    "run_scenario",
    "evolve_potential",
    "PotentialTrajectory",
    "solve_vector_potential",
]


class CFLError(ValueError):
    """Time step exceeds the stability bound |dt| <= `cfl_limit`.

    That bound is (6/7) h sqrt(eps mu) / sqrt(3), six sevenths of the
    two-point (Yee) scheme's, because the (2,4) difference symbol peaks at
    7/6 of the two-point one.
    """


class NonFiniteStateError(RuntimeError):
    """A run produced non-finite fields, and where they first went bad.

    ``field`` names the first field with a non-finite entry, ``component``
    is its component (None for a 0-form), ``cell`` the index (i, j, k) of
    its first non-finite entry in C order, and ``step`` the step index.
    """

    def __init__(self, step, field, component, cell):
        where = field if component is None else f"{field}[{component}]"
        super().__init__(f"non-finite {where} at cell {cell}, step {step}")
        self.step = step
        self.field = field
        self.component = component
        self.cell = cell


def _first_nonfinite(step, pairs):
    """NonFiniteStateError at the first non-finite entry of ``(name, FormField)`` pairs.

    The pairs are searched in order and each array in C order; the caller
    has found that some entry is non-finite.
    """
    for name, field in pairs:
        bad = np.flatnonzero(~np.isfinite(field.data))
        if bad.size:
            index = tuple(int(i) for i in np.unravel_index(bad[0], field.data.shape))
            if field.ncomp == 1:
                return NonFiniteStateError(step, name, None, index)
            return NonFiniteStateError(step, name, index[0], index[1:])
    return NonFiniteStateError(step, "time", None, None)


def cfl_limit(mesh, medium):
    """Largest stable time step of the leapfrog, (6/7) h sqrt(eps_min mu_min) / sqrt(3).

    The leapfrog is stable while c dt |K| <= 2, where |K|^2 sums the
    squared moduli of `cmx.dec.difference_symbol` over the three axes.  The
    symbol peaks at (7/6)(2/h) on the grid's Nyquist mode, so the bound is
    2 / (sqrt(3) max|symbol|) at the slowest local wave speed.
    """
    peak = float(np.abs(difference_symbol(np.pi, mesh.spacing)))
    return float(2.0 * np.sqrt(medium.eps_min * medium.mu_min)
                 / (np.sqrt(3.0) * peak))


@dataclass(frozen=True)
class SchemeConfig:
    """Stepping parameters; ``cfl`` records dt relative to the stability bound.

    ``dt`` may be negated to run the exact time reverse of the symmetric
    leapfrog; the CFL number always refers to |dt|.
    """

    dt: float
    cfl: float
    orientation: Orientation = Orientation.DB
    steps: int = 0
    cadence: int = 1
    kappa: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "cfl", float(self.cfl))
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValueError("dt must be finite and nonzero")
        if not 0 < self.cfl < 1:
            raise CFLError(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")

    @classmethod
    def from_cfl(cls, mesh, medium, cfl=0.5, orientation=Orientation.DB,
                 steps=0, cadence=1, kappa=1.0):
        dt = cfl * cfl_limit(mesh, medium)
        return cls(dt=dt, cfl=cfl, orientation=orientation, steps=steps,
                   cadence=cadence, kappa=kappa)

    def reversed(self):
        return replace(self, dt=-self.dt)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-report-step conservation and residual summary."""

    time: float
    psi_total: float
    phi_total: float
    div_D_max: float
    div_B_max: float
    constitutive_residual_max: float
    energy_residual_max: float
    hamiltonian_functional: float
    poynting_balance_residual: float

    def __post_init__(self):
        for name in self.FIELDS:
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"diagnostics field {name} is non-finite")
            object.__setattr__(self, name, value)


DiagnosticsReport.FIELDS = tuple(f.name for f in fields(DiagnosticsReport))  # column order


def _check_cfl(mesh, medium, dt):
    limit = cfl_limit(mesh, medium)
    if abs(dt) > limit * (1 + 1e-12):
        raise CFLError(f"|dt| = {abs(dt):.6g} exceeds the stability bound {limit:.6g}")


def _advance(base, scale, rate, medium=None):
    """base + scale * rate, or base + medium.intensity(scale * rate), formed
    in the fresh array of ``rate``.

    ``rate`` is a curl just computed for this update and used nowhere else;
    its array is collocated with ``base`` and becomes the result's.
    """
    data = rate.data
    data *= scale
    if medium is not None:
        medium.intensity(rate, out=data)
    data += base.data
    return FormField(base.mesh, base.degree, data, base.dual)


def _energy_step(energy, e_old, e_new, h_old, h_new, dt):
    """Advance the energy coordinate by -dt * star d(e ^ h), time-centered.

    d(e ^ h) is `cmx.dec.poynting_divergence`, whose pointwise balance with
    the field update is exact in the semi-discrete limit.  It is bilinear,
    so the two halvings of the time averages become one factor 1/4.  The
    star of the 3-form is the dual 0-form with the same array.
    """
    return _advance(energy, -0.25 * dt, _centred_flux(e_old, e_new, h_old, h_new))


def _centred_flux(e_old, e_new, h_old, h_new):
    """poynting_divergence(e_old + e_new, h_old + h_new), summed slab by slab."""
    return _poynting_divergence(e_old.mesh, (e_old.data, e_new.data),
                                (h_old.data, h_new.data))


def _leapfrog(state, medium, cfg, curl_e=None):
    """One leapfrog step in ``cfg``'s orientation, and the curl of its new e.

    DB evolves (D, B) with plain curls and slaves e and h to them through
    ``medium.intensity``; EH evolves (e, h) with the curls mapped through
    ``medium.intensity`` and slaves D, B through ``medium.induction``.
    ``curl_e`` is exterior_derivative(state.e) when the caller already has
    it, and the first half-step consumes its array.
    The returned curl d(e_new) of the last half-step is left whole: it is
    bit for bit the next step's first curl.
    """
    _check_cfl(state.mesh, medium, cfg.dt)
    dt = cfg.dt
    if curl_e is None:
        curl_e = exterior_derivative(state.e)
    if cfg.orientation is Orientation.DB:
        B_half = _advance(state.B, -0.5 * dt, curl_e)
        h_mid = medium.intensity(B_half)
        D_new = _advance(state.D, dt, exterior_derivative(h_mid))
        e_new = medium.intensity(D_new)
        curl_new = exterior_derivative(e_new)
        # the second half-step goes into B_half's array, by way of h_mid's
        kick = np.multiply(curl_new.data, -0.5 * dt, out=h_mid.data)
        np.add(B_half.data, kick, out=B_half.data)
        B_new, h_new = B_half, medium.intensity(B_half, out=kick)
    else:
        h_half = _advance(state.h, -0.5 * dt, curl_e, medium)
        e_new = _advance(state.e, dt, exterior_derivative(h_half), medium)
        curl_new = exterior_derivative(e_new)
        # the second half-step goes into h_half's array; its kick becomes B
        kick = curl_new * (-0.5 * dt)
        kick = medium.intensity(kick, out=kick.data)
        np.add(h_half.data, kick.data, out=h_half.data)
        h_new, D_new = h_half, medium.induction(e_new)
        B_new = medium.induction(h_new, out=kick.data)
    energy_new = _energy_step(state.energy, state.e, e_new, state.h, h_new, dt)
    return MaxwellState(D=D_new, B=B_new, e=e_new, h=h_new, energy=energy_new,
                        time=state.time + dt), curl_new


def step_induction(state, medium, cfg):
    """One leapfrog step evolving (D, B); e, h slaved via the constitutive maps."""
    if cfg.orientation is not Orientation.DB:
        raise ValueError("step_induction requires the DB orientation")
    return _leapfrog(state, medium, cfg)[0]


def step_intensity(state, medium, cfg):
    """One leapfrog step evolving (e, h); D, B slaved via the constitutive maps."""
    if cfg.orientation is not Orientation.EH:
        raise ValueError("step_intensity requires the EH orientation")
    return _leapfrog(state, medium, cfg)[0]


def poynting_report(s_prev, s_next, medium, region=WHOLE, kappa=1.0, psi_prev=None,
                    orientation=Orientation.DB):
    """Energy-balance and constraint diagnostics between two reported states.

    The balance residual is the rate of change of the energy functional
    plus the integrated divergence of the time-centered Poynting flux,
    the same `cmx.dec.poynting_divergence` that drives the energy
    coordinate; on
    the whole periodic domain the divergence integral is identically zero
    (discrete Stokes), so the residual is the pure drift rate.

    Residuals, energy and Hamiltonian density are measured in
    ``orientation``, which `run_scenario` sets to the run's own: DB reads
    psi from energy_density(D, B) and the field residuals as 1-forms, EH
    reads psi from pairing - co-energy and the field residuals D - eps e,
    B - mu h as 2-forms.  ``psi_prev`` is the energy functional of
    ``s_prev`` over ``region`` in that orientation when the caller already
    has it, as `run_scenario` has from the previous row; the phase
    residuals of ``s_next`` supply its energy density, co-energy density
    and constitutive images to the rest of the report.
    """
    res = phase_residuals(s_next, medium, orientation)
    psi_next = functional(res.energy, region)
    if psi_prev is None:
        psi_prev = psi_next if s_prev is s_next else functional(
            phase_residuals(s_prev, medium, orientation).energy, region)
    dt = s_next.time - s_prev.time
    rate = (psi_next - psi_prev) / dt if dt != 0 else 0.0
    if region.is_whole or dt == 0:
        flux = 0.0
    else:
        flux = 0.25 * integrate(
            _centred_flux(s_prev.e, s_next.e, s_prev.h, s_next.h), region)

    density = contact_hamiltonian_density(s_next, medium, orientation, kappa,
                                          residuals=res)
    return DiagnosticsReport(
        time=s_next.time,
        psi_total=psi_next,
        phi_total=functional(res.coenergy, region),
        div_D_max=float(np.abs(exterior_derivative(s_next.D).data).max()),
        div_B_max=float(np.abs(exterior_derivative(s_next.B).data).max()),
        constitutive_residual_max=res.constitutive_max(),
        energy_residual_max=float(np.abs(res.delta_energy.data).max()),
        hamiltonian_functional=functional(density, region),
        poynting_balance_residual=rate + flux,
    )


def _check_finite(state, step):
    """Raise NonFiniteStateError at the first non-finite entry of a reported state."""
    if not state.is_finite():
        raise _first_nonfinite(step, [(name, getattr(state, name))
                                      for name in ("D", "B", "e", "h", "energy")])


def run_scenario(initial, medium, cfg, sinks=()):
    """Step the configured orientation, reporting diagnostics every cadence.

    ``sinks`` are callables ``sink(state, step_index)`` invoked at every
    reported step (including step 0); snapshot stride logic belongs to the
    sink.  Returns the final state and the list of diagnostics rows.  Each
    report takes the previous row's ``psi_total`` as its ``psi_prev``.
    A reported state with a non-finite entry, the initial one included,
    raises `NonFiniteStateError`.

    Each step's last curl d(e) feeds the next step's first half-step, so a
    step runs `exterior_derivative` twice.  Each report is measured in the
    run's orientation, where the stepped states' constitutive residuals
    are exactly zero, so a later report runs it twice (div D, div B).
    Outputs equal those of `step_induction` or `step_intensity` called
    once per step.
    """
    state = initial
    prev_reported = initial
    _check_finite(initial, 0)
    reports = [poynting_report(initial, initial, medium, kappa=cfg.kappa,
                               orientation=cfg.orientation)]
    for sink in sinks:
        sink(initial, 0)
    curl_e = None
    for k in range(1, cfg.steps + 1):
        state, curl_e = _leapfrog(state, medium, cfg, curl_e)
        if k % cfg.cadence == 0 or k == cfg.steps:
            _check_finite(state, k)
            reports.append(poynting_report(prev_reported, state, medium, kappa=cfg.kappa,
                                           psi_prev=reports[-1].psi_total,
                                           orientation=cfg.orientation))
            prev_reported = state
            for sink in sinks:
                sink(state, k)
    return state, reports


@dataclass(frozen=True)
class PotentialTrajectory:
    """Fields derived from a potential run, on the leapfrog's native combs.

    ``e[n]`` is the intensity at t0 + n dt; ``B_half[n]`` is the magnetic
    2-form at t0 + (n + 1/2) dt.  ``B_sync(n)`` averages two consecutive
    half-comb values, which reproduces the synchronized magnetic field of
    `step_induction` exactly.
    """

    e: list
    B_half: list
    A: list

    def B_sync(self, n):
        return 0.5 * (self.B_half[n - 1] + self.B_half[n])


def evolve_potential(A0, Adot0, medium, cfg):
    """Second-order leapfrog for the potential 1-form wave equation.

    Integrates  d^2 A/dt^2 = -(1/eps) star d((1/mu) star dA)  with central
    differences, handing back intensities e = -dA/dt and magnetic fields
    B = dA for cross-validation against the field stepper.

    Staggered convention: ``A0`` is the potential on the half comb at
    t0 + dt/2 and ``Adot0`` the leapfrog velocity across t0, so the first
    derived intensity is e[0] = -Adot0 at t0.  With A0 chosen as a discrete
    vector potential of the half-advanced magnetic field (see
    `solve_vector_potential`), the derived trajectories coincide with a
    `step_induction` run from the same physical data to rounding.
    """
    if A0.degree != 1 or A0.dual or Adot0.degree != 1 or Adot0.dual:
        raise ValueError("A0 and Adot0 must be primal 1-forms")
    if A0.mesh != medium.mesh:
        raise ValueError("potential and medium live on different meshes")
    _check_cfl(A0.mesh, medium, cfg.dt)
    dt = cfg.dt

    def curl_curl(A):
        dA = exterior_derivative(A)
        d2 = exterior_derivative(medium.intensity(dA, out=dA.data))
        return medium.intensity(d2, out=d2.data)

    A_prev = A0 - dt * Adot0
    A_curr = A0
    e_list = [-1.0 * Adot0]
    B_list = [exterior_derivative(A_curr)]
    A_list = [A_curr]
    for k in range(1, cfg.steps + 1):
        A_next = 2.0 * A_curr - A_prev - (dt * dt) * curl_curl(A_curr)
        if not np.isfinite(A_next.data).all():
            raise _first_nonfinite(k, [("A", A_next)])
        e_list.append((-1.0 / dt) * (A_next - A_curr))
        B_list.append(exterior_derivative(A_next))
        A_list.append(A_next)
        A_prev, A_curr = A_curr, A_next
    return PotentialTrajectory(e=e_list, B_half=B_list, A=A_list)


def solve_vector_potential(B):
    """A primal 1-form A with dA = B, for an exactly closed, mean-free B.

    Solved per Fourier mode with the pseudoinverse of the primal curl's
    symbol (the forward `difference_symbol` on array indices); raises if B
    is not closed to rounding or carries a nonzero mean component (no
    periodic potential exists then).
    """
    if B.degree != 2 or B.dual:
        raise ValueError("expected a primal 2-form")
    mesh = B.mesh
    h = mesh.spacing
    close = float(np.abs(exterior_derivative(B).data).max())
    scale = float(np.abs(B.data).max()) or 1.0
    if close > 1e-10 * scale / h:
        raise ValueError(f"input 2-form is not closed (max divergence {close:.3e})")
    means = B.data.reshape(3, -1).mean(axis=1)
    if np.abs(means).max() > 1e-12 * scale:
        raise ValueError("input 2-form has a nonzero mean component")

    Bk = np.stack([np.fft.fftn(B.data[a]) for a in range(3)])
    kappa = []
    for a in range(3):
        theta = 2.0 * np.pi * np.fft.fftfreq(mesh.dims[a])
        sym = np.exp(0.5j * theta) * difference_symbol(theta, h)
        shape = [1, 1, 1]
        shape[a] = mesh.dims[a]
        kappa.append(sym.reshape(shape) * np.ones(mesh.dims))
    # curl symbol: (dA)_a = kappa_b A_c - kappa_c A_b, (a, b, c) cyclic
    M = np.zeros((*mesh.dims, 3, 3), dtype=complex)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        M[..., a, c] = kappa[b]
        M[..., a, b] = -kappa[c]
    Ak = np.linalg.pinv(M) @ np.moveaxis(Bk, 0, -1)[..., None]
    A_data = np.stack(
        [np.fft.ifftn(Ak[..., a, 0]).real for a in range(3)]
    )
    A = FormField(mesh, 1, A_data, dual=False)
    resid = float(np.abs((exterior_derivative(A) - B).data).max())
    if resid > 1e-9 * scale:
        raise ValueError(f"potential reconstruction failed (residual {resid:.3e})")
    return A
