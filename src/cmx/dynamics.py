"""Time evolution of the Maxwell fields and its conservation diagnostics.

One step is a symmetric staggered leapfrog: the magnetic field takes a
half step with the curl of the electric intensity, the displacement a full
step with the curl of the half-advanced magnetic intensity, then the
second magnetic half step; the slaved pair is refreshed through the
constitutive maps.  Every division by eps or mu, here and in the
potential-form leapfrog, is `MediumProfile.intensity`, and every
multiplication `MediumProfile.induction`.  The stability bound in
`cfl_limit` follows from the Fourier symbol of the fourth-order (2,4)
staggered difference in `cmx.dec.exterior_derivative`.

The energy coordinate advances on the scheme's exact discrete (Yee)
balance, built from the three curls the step forms anyway (see
`_leapfrog`).  In every cell E_n - E_0 = w_n - w_0 to rounding, where
w = psi - (dt^2/8) mean((d e)^2 / mu) is the density of the modified
energy the leapfrog conserves; so the balance is a falsifiable identity,
and the gap psi - E is that O(dt^2) term.  It holds for media linear in
the fields.  Reports measure the balance of psi against the Poynting flux
`cmx.dec.poynting_divergence`, the summation-by-parts partner of the
(2,4) difference.

`run_scenario` allocates its workspace once and steps one state in place:
after the first step, a step allocates nothing of field size but the
difference's scratch, and a report nothing.

Both orientations (inductions evolved or intensities evolved) perform the
same update algebra for static linear media and agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .dec import (
    FormField,
    WHOLE,
    difference_symbol,
    exterior_derivative,
    integrate,
    poynting_divergence,
)
from .fiber import (
    MaxwellState,
    Orientation,
    PhaseResiduals,
    _cell_means,
    _max_abs,
    _product,
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

    The pairs are searched in order and each array in C order; None when
    every entry is finite.
    """
    for name, field in pairs:
        bad = np.flatnonzero(~np.isfinite(field.data))
        if bad.size:
            index = tuple(int(i) for i in np.unravel_index(bad[0], field.data.shape))
            if field.ncomp == 1:
                return NonFiniteStateError(step, name, None, index)
            return NonFiniteStateError(step, name, index[0], index[1:])
    return None


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
            if not math.isfinite(value):
                raise ValueError(f"diagnostics field {name} is non-finite")
            object.__setattr__(self, name, value)


DiagnosticsReport.FIELDS = tuple(f.name for f in fields(DiagnosticsReport))  # column order


def _check_cfl(mesh, medium, dt):
    limit = cfl_limit(mesh, medium)
    if abs(dt) > limit * (1 + 1e-12):
        raise CFLError(f"|dt| = {abs(dt):.6g} exceeds the stability bound {limit:.6g}")


def _energy_terms(sign, degree, x, y, z=None):
    """`cmx.fiber._cell_means` terms of x_a y_a, or (x_a + y_a) z_a, on
    the edges (``degree`` 1) or faces (``degree`` 2), added with ``sign``."""
    if z is None:
        fill = _product(x, y)
    else:
        def fill(a, sl, p):
            np.multiply(np.add(x[a][sl], y[a][sl], out=p), z[a][sl], out=p)
    return [(degree, a, sign, fill) for a in range(3)]


def _leapfrog(state, medium, cfg, curl_e=None, out=None, into=None):
    """One leapfrog step in ``cfg``'s orientation, and the curl of its new e.

    DB evolves (D, B) with plain curls and slaves e and h to them through
    ``medium.intensity``; EH evolves (e, h) with the curls mapped through
    ``medium.intensity`` and slaves D, B through ``medium.induction``.

    The energy coordinate advances on the scheme's exact discrete balance,

        E_{n+1} = E_n + (dt/2) [mean((e_n + e_{n+1}) . d h_{n+1/2})
                                - mean(h_{n+1/2} . (d e_n + d e_{n+1}))],

    with the edge and face means of the energy density, from the three
    curls the step forms anyway.  Each curl is taken into the sum as soon
    as its partner exists, so one curl array serves all three.

    ``out`` is a (7, N1, N2, N3) array, allocated when not given: out[:3]
    receives d(e_new), the curl of the last half-step, which is returned
    whole, bit for bit the next step's first curl; out[3:] is scratch.
    ``curl_e`` is exterior_derivative(state.e) when the caller already has
    it, and may be out[:3].

    ``into`` names the five arrays (D, B, e, h, energy) that receive the
    new state.  When it is None they are allocated, and the step writes
    nothing the input state holds.  They may be the input state's own
    arrays, each in its own place, except e: e_n is read by the energy
    update after e_{n+1} exists.  The step never reads the slaved partner
    of e (h in DB, D in EH), so e_{n+1} may take that array, and the
    partner e_n's, as `_turned` has it.  Every old value is read before
    its array is written, so the new state is bit for bit the allocated
    step's.
    """
    _check_cfl(state.mesh, medium, cfg.dt)
    dt, mesh = cfg.dt, state.mesh
    if out is None:
        out = np.empty((7, *mesh.dims))
    if into is None:
        into = [np.empty((3, *mesh.dims)) for _ in range(4)] + [np.empty(mesh.dims)]
    D, B, e, h, energy = into
    curl, half, sums = out[:3], out[3:6], out[6]
    if curl_e is None:
        curl_e = exterior_derivative(state.e, out=curl)
    e_n = state.e.data
    if cfg.orientation is Orientation.DB:
        np.add(np.multiply(curl_e.data, -0.5 * dt, out=half), state.B.data, out=B)
        B_half = FormField(mesh, 2, B)
        h_mid = medium.intensity(B_half, out=half)
        _cell_means(sums, _energy_terms(-1, 2, h_mid.data, curl_e.data), fresh=True)
        d_h = exterior_derivative(h_mid, out=curl)
        # e's array holds the kick until e_new takes it
        np.add(np.multiply(d_h.data, dt, out=e), state.D.data, out=D)
        D_new = FormField(mesh, 2, D, dual=True)
        e_new = medium.intensity(D_new, out=e)
        _cell_means(sums, _energy_terms(1, 1, e_n, e_new.data, d_h.data))
        curl_new = exterior_derivative(e_new, out=curl)
        _cell_means(sums, _energy_terms(-1, 2, h_mid.data, curl_new.data))
        # h's array holds the second kick until h_new takes it
        B += np.multiply(curl_new.data, -0.5 * dt, out=h)
        B_new, h_new = B_half, medium.intensity(B_half, out=h)
    else:
        np.multiply(curl_e.data, -0.5 * dt, out=half)
        kick = medium.intensity(FormField(mesh, 2, half), out=half)
        h_half = FormField(mesh, 1, np.add(kick.data, state.h.data, out=h), dual=True)
        _cell_means(sums, _energy_terms(-1, 2, h_half.data, curl_e.data), fresh=True)
        d_h = exterior_derivative(h_half, out=curl)
        np.multiply(d_h.data, dt, out=half)
        rise = medium.intensity(FormField(mesh, 2, half, dual=True), out=half)
        e_new = FormField(mesh, 1, np.add(rise.data, e_n, out=e))
        _cell_means(sums, _energy_terms(1, 1, e_n, e_new.data, d_h.data))
        curl_new = exterior_derivative(e_new, out=curl)
        _cell_means(sums, _energy_terms(-1, 2, h_half.data, curl_new.data))
        # the second half-step goes into h_half's array, which becomes h_new
        np.multiply(curl_new.data, -0.5 * dt, out=half)
        h += medium.intensity(FormField(mesh, 2, half), out=half).data
        h_new = h_half
        # D_n and B_n are read by nothing above, so their arrays are written last
        D_new, B_new = medium.induction(e_new, out=D), medium.induction(h_new, out=B)
    np.add(np.multiply(sums, 0.5 * dt, out=sums), state.energy.data, out=energy)
    return MaxwellState(D=D_new, B=B_new, e=e_new, h=h_new,
                        energy=FormField(mesh, 0, energy, dual=True),
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
                    orientation=Orientation.DB, out=None):
    """Energy-balance and constraint diagnostics between two reported states.

    The balance residual is the rate of change of the energy functional
    plus the integrated divergence of the time-centered Poynting flux,
    `cmx.dec.poynting_divergence` of the summed intensities; on the whole
    periodic domain the divergence integral is identically zero (discrete
    Stokes), so the residual is the pure drift rate, and ``s_prev`` is read
    only for its time when ``psi_prev`` is given.

    Residuals, energy and Hamiltonian density are measured in
    ``orientation``, which `run_scenario` sets to the run's own: DB reads
    psi from energy_density(D, B) and the field residuals as 1-forms, EH
    reads psi from pairing - co-energy and the field residuals D - eps e,
    B - mu h as 2-forms.  ``psi_prev`` is the energy functional of
    ``s_prev`` over ``region`` in that orientation when the caller already
    has it, as `run_scenario` has from the previous row; the phase
    residuals of ``s_next`` supply its energy density and co-energy density
    to the rest of the report.  ``out`` may name `PhaseResiduals` of this
    orientation (see `cmx.fiber.phase_residuals`) whose arrays the report
    works in, and overwrites; then it allocates no field array of its own
    on states whose constitutive residuals are zero.
    """
    res = phase_residuals(s_next, medium, orientation, out=out)
    psi_next = functional(res.energy, region)
    phi_next = functional(res.coenergy, region)
    energy_residual = _max_abs(res.delta_energy.data)
    if psi_prev is None:
        psi_prev = psi_next if s_prev is s_next else functional(
            phase_residuals(s_prev, medium, orientation).energy, region)
    dt = s_next.time - s_prev.time
    rate = (psi_next - psi_prev) / dt if dt != 0 else 0.0
    if region.is_whole or dt == 0:
        flux = 0.0
    else:
        flux = 0.25 * integrate(
            poynting_divergence(s_prev.e + s_next.e, s_prev.h + s_next.h), region)
    # the density and the divergences go into the co-energy's and energy's arrays
    density = contact_hamiltonian_density(s_next, medium, orientation, kappa,
                                          residuals=res, out=res.coenergy.data)
    return DiagnosticsReport(
        time=s_next.time,
        psi_total=psi_next,
        phi_total=phi_next,
        div_D_max=_max_abs(exterior_derivative(s_next.D, out=res.energy.data).data),
        div_B_max=_max_abs(exterior_derivative(s_next.B, out=res.energy.data).data),
        constitutive_residual_max=res.constitutive_max(),
        energy_residual_max=energy_residual,
        hamiltonian_functional=functional(density, region),
        poynting_balance_residual=rate + flux,
    )


def _reported(step, s_prev, state, medium, **options):
    """`poynting_report` from ``s_prev`` to ``state``, the row of step ``step``.

    Every entry of D, B, e, h and the energy feeds some column, so a
    non-finite state gets its row rejected; that raises NonFiniteStateError
    at its first non-finite entry.  A finite state whose diagnostics
    overflow raises the report's ValueError.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the errors say it, not numpy
            return poynting_report(s_prev, state, medium, **options)
    except ValueError as exc:
        error = _first_nonfinite(step, [(name, getattr(state, name))
                                        for name in ("D", "B", "e", "h", "energy")])
        if error is None:
            raise
        raise error from exc


def _turned(state, orientation):
    """The arrays a step of ``state`` writes the next state into: its own,
    with e's traded for the slaved partner's (h in DB, D in EH), which the
    step never reads."""
    D, B, e, h, energy = (getattr(state, name).data
                          for name in ("D", "B", "e", "h", "energy"))
    if orientation is Orientation.DB:
        return D, B, h, e, energy
    return e, B, D, h, energy


def run_scenario(initial, medium, cfg, sinks=()):
    """Step the configured orientation, reporting diagnostics every cadence.

    ``sinks`` are callables ``sink(state, step_index)`` invoked at every
    reported step (including step 0); snapshot stride logic belongs to the
    sink.  Returns the final state and the list of diagnostics rows.  Each
    report takes the previous row's ``psi_total`` as its ``psi_prev``, so
    only the previous row's time is kept, not its state.
    A reported state with a non-finite entry, the initial one included,
    raises `NonFiniteStateError` (see `_reported`).

    Each step's last curl d(e) feeds the next step's first half-step, so a
    step runs `exterior_derivative` twice.  Each report is measured in the
    run's orientation, where the stepped states' constitutive residuals
    are exactly zero, so a later report runs it twice (div D, div B).
    Outputs equal those of `step_induction` or `step_intensity` called
    once per step.

    The run steps one state in place.  Step 1 writes into thirteen arrays
    it allocates, so ``initial`` is never written; every later step writes
    the new state over the last (see `_turned`).  A sink is handed that
    live state, valid only during the call: a sink that keeps it must copy
    it.  The state returned is the run's own.

    Memory: the run allocates one (12, N1, N2, N3) block up front.  Its
    first three planes carry the curl from step to step, the next four are
    each step's scratch, and the last nine hold each report's
    `PhaseResiduals`; steps and reports never overlap in time, so they
    share planes 3-6.  After step 1 the run holds one state and this
    block: a step allocates nothing of field size but
    `exterior_derivative`'s per-call scratch, and a report none.
    """
    work = np.empty((12, *initial.mesh.dims))
    residuals = PhaseResiduals.empty(initial.mesh, cfg.orientation, out=work[3:])
    reports = [_reported(0, initial, initial, medium, kappa=cfg.kappa,
                         orientation=cfg.orientation, out=residuals)]
    for sink in sinks:
        sink(initial, 0)
    state, curl_e, into = initial, None, None
    for k in range(1, cfg.steps + 1):
        state, curl_e = _leapfrog(state, medium, cfg, curl_e, out=work[:7], into=into)
        into = _turned(state, cfg.orientation)
        if k % cfg.cadence == 0 or k == cfg.steps:
            # a whole-domain report handed psi_prev reads s_prev's time alone,
            # so s_prev is this state at the last row's time
            reports.append(_reported(k, replace(state, time=reports[-1].time), state,
                                     medium, kappa=cfg.kappa,
                                     psi_prev=reports[-1].psi_total,
                                     orientation=cfg.orientation, out=residuals))
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
    for k in range(1, cfg.steps + 1):
        A_next = 2.0 * A_curr - A_prev - (dt * dt) * curl_curl(A_curr)
        if not np.isfinite(A_next.data).all():
            raise _first_nonfinite(k, [("A", A_next)])
        e_list.append((-1.0 / dt) * (A_next - A_curr))
        B_list.append(exterior_derivative(A_next))
        A_prev, A_curr = A_curr, A_next
    return PotentialTrajectory(e=e_list, B_half=B_list)


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
