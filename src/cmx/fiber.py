"""Electromagnetic field content per grid cell: energies and constitutive maps.

The per-cell fiber coordinates are the induction components (through the
Hodge dual of the 2-forms D and B), the field intensities e and h, and an
energy coordinate.  Field placement on the staggered complex:

    D  dual 2-form    (arrays collocated with e on edges)
    B  primal 2-form  (faces)
    e  primal 1-form  (edges)
    h  dual 1-form    (arrays collocated with B on faces)
    energy  dual 0-form (cell centers)

Permittivity and permeability are cell-sampled, stored only along the axes
they vary on, and averaged onto edge and face centers, so both constitutive
maps are diagonal per component.  `MediumProfile.intensity` and
`MediumProfile.induction` are the one place the maps are applied: every
stepper, preset and check goes through them, and only the two densities
below read the staggered media themselves.  The energy and co-energy
densities are quadratic, strictly convex functions of the respective six
field components; their cell values use the same edge and face averaging
as the Poynting pairing in `cmx.dynamics`, which makes the semi-discrete
energy balance exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .contact import Generator
from .dec import (
    FormField,
    WHOLE,
    component_offsets,
    exterior_derivative,
    integrate,
    resample,
    wedge,
)
from .infogeo import fiber_metric

__all__ = [
    "Orientation",
    "MediumProfile",
    "MaxwellState",
    "PhaseResiduals",
    "energy_density",
    "coenergy_density",
    "pairing_density",
    "functional",
    "intensity_from_induction",
    "induction_from_intensity",
    "phase_residuals",
    "contact_hamiltonian_density",
    "energy_quadratic",
]

_CELL = (0.5, 0.5, 0.5)
_MEAN_SAFE = np.finfo(float).max / 2  # a two-point mean of values up to this is finite


class Orientation(Enum):
    """Which field pair is evolved: inductions (DB) or intensities (EH)."""

    DB = "DB"
    EH = "EH"


def _staggered(cell_values, offsets):
    """The (3, *shape) array of a cell-sampled field averaged onto each offset.

    Length-1 axes are skipped: there (x + x) * 0.5 is x for |x| <= _MEAN_SAFE."""
    out = np.empty((3, *cell_values.shape))
    for a, offset in enumerate(offsets):
        offset = tuple(o if n > 1 else c for o, c, n in zip(offset, _CELL, cell_values.shape))
        resample(cell_values, _CELL, offset, out=out[a])
    return out


def _compact(mesh, values, name):
    """``values`` right-aligned to 3-D as float64, kept at length 1 on each
    axis it was given at length 1 on; ValueError names a bad dtype or shape."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    shape = (1,) * (3 - arr.ndim) + arr.shape
    if len(shape) != 3 or any(n not in (1, m) for n, m in zip(shape, mesh.dims)):
        raise ValueError(f"{name} of shape {arr.shape} does not broadcast "
                         f"to the mesh dims {mesh.dims}")
    arr = arr.reshape(shape).astype(float)
    if not (np.abs(arr) <= _MEAN_SAFE).all():  # NaN compares False
        raise ValueError(f"{name} has non-finite entries or entries above {_MEAN_SAFE:.4g}, "
                         "whose staggered means overflow")
    return arr


class MediumProfile:
    """Strictly positive permittivity and permeability sampled per cell.

    ``eps`` and ``mu`` read as (N1, N2, N3) arrays and ``eps_edge`` and
    ``mu_face`` as (3, N1, N2, N3) ones: their averages onto the edges and
    faces, collocated with the 1-form and 2-form components they weight, so
    each constitutive map is one broadcast.  All four are read-only
    broadcast views of arrays kept only along the axes the input varies on
    (a scalar keeps (3, 1, 1, 1) staggered values, a (1, 1, N3) slab
    (3, 1, 1, N3)); the input's shape decides, not its values.
    """

    def __init__(self, mesh, eps, mu):
        eps, mu = _compact(mesh, eps, "eps"), _compact(mesh, mu, "mu")
        eps_min, mu_min = float(eps.min()), float(mu.min())
        if eps_min <= 0 or mu_min <= 0:
            raise ValueError("permittivity and permeability must be strictly positive")
        edge, face = _staggered(eps, component_offsets(1)), _staggered(mu, component_offsets(2))
        self.mesh, self.eps_min, self.mu_min = mesh, eps_min, mu_min
        self.eps, self.mu = np.broadcast_to(eps, mesh.dims), np.broadcast_to(mu, mesh.dims)
        self.eps_edge = np.broadcast_to(edge, (3, *mesh.dims))
        self.mu_face = np.broadcast_to(face, (3, *mesh.dims))

    @classmethod
    def vacuum(cls, mesh):
        return cls(mesh, 1.0, 1.0)

    @classmethod
    def uniform(cls, mesh, eps, mu):
        if np.ndim(eps) or np.ndim(mu):
            raise ValueError("a uniform medium takes scalar eps and mu")
        return cls(mesh, eps, mu)

    @classmethod
    def sech_slab(cls, mesh, eps0, z30, mu0):
        """Permittivity eps0 * sech^2(zeta3 / z30) around the domain midplane."""
        z3 = mesh.axis_coords(2, _CELL[2])
        centered = z3 - 0.5 * mesh.extent[2]
        eps = eps0 / np.cosh(centered / z30) ** 2
        return cls(mesh, eps.reshape(1, 1, -1), float(mu0))

    def intensity(self, induction, out=None):
        """The constitutive image of an induction: a dual 2-form D gives the
        primal 1-form D / eps_edge, a primal 2-form B the dual 1-form
        B / mu_face.  ``out`` may name the array that receives the result."""
        weight = self._weight(induction, 2)
        return FormField(self.mesh, 1, np.divide(induction.data, weight, out=out),
                         not induction.dual)

    def induction(self, intensity, out=None):
        """The inverse map: a primal 1-form e gives the dual 2-form
        e * eps_edge, a dual 1-form h the primal 2-form h * mu_face."""
        weight = self._weight(intensity, 1)
        return FormField(self.mesh, 2, np.multiply(intensity.data, weight, out=out),
                         not intensity.dual)

    def _weight(self, form, degree):
        """eps_edge for a ``degree``-form on the edges, mu_face for one on the faces."""
        if form.degree != degree:
            raise ValueError(f"expected a {degree}-form, got a {form.degree}-form")
        if form.mesh != self.mesh:
            raise ValueError(f"the form lives on {form.mesh}, the medium on {self.mesh}")
        return self.eps_edge if form.dual == (degree == 2) else self.mu_face


def _expect(field, degree, dual, name):
    if field.degree != degree or field.dual != dual:
        kind = "dual" if dual else "primal"
        raise ValueError(f"{name} must be a {kind} {degree}-form")


@dataclass(frozen=True)
class MaxwellState:
    """The thirteen per-cell fiber coordinates as staggered grid fields."""

    D: FormField
    B: FormField
    e: FormField
    h: FormField
    energy: FormField
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        _expect(self.D, 2, True, "D")
        _expect(self.B, 2, False, "B")
        _expect(self.e, 1, False, "e")
        _expect(self.h, 1, True, "h")
        _expect(self.energy, 0, True, "energy")
        meshes = {f.mesh for f in (self.D, self.B, self.e, self.h, self.energy)}
        if len(meshes) != 1:
            raise ValueError("state fields live on different meshes")

    @property
    def mesh(self):
        return self.D.mesh

    @classmethod
    def zero(cls, mesh, time=0.0):
        return cls(
            D=FormField.zeros(mesh, 2, dual=True),
            B=FormField.zeros(mesh, 2),
            e=FormField.zeros(mesh, 1),
            h=FormField.zeros(mesh, 1, dual=True),
            energy=FormField.zeros(mesh, 0, dual=True),
            time=time,
        )

    @classmethod
    def from_induction(cls, D, B, medium, time=0.0):
        """On-shell state: intensities slaved to (D, B), energy set to the density."""
        e, h = intensity_from_induction(D, B, medium)
        return cls(D=D, B=B, e=e, h=h,
                   energy=energy_density(D, B, medium), time=time)

    def is_finite(self):
        return all(
            np.all(np.isfinite(f.data))
            for f in (self.D, self.B, self.e, self.h, self.energy)
        ) and np.isfinite(self.time)

    def field_scale(self):
        """Max absolute value over all D, B, e, h components."""
        return max(
            float(np.abs(f.data).max()) for f in (self.D, self.B, self.e, self.h)
        )


def _to_cell(arr, degree, a):
    """Component ``a`` of a pointwise product on the edges (``degree`` 1) or
    faces (``degree`` 2), averaged onto the cell centers."""
    return resample(arr, component_offsets(degree)[a], _CELL)


def energy_density(D, B, medium):
    """Quadratic energy density of the inductions, as a cell 0-form.

    Half the metric square of star(D) weighted by 1/eps plus the same for
    star(B) with 1/mu; nonnegative, zero only where both fields vanish.
    """
    _expect(D, 2, True, "D")
    _expect(B, 2, False, "B")
    if D.mesh != medium.mesh or B.mesh != medium.mesh:
        raise ValueError("fields and medium live on different meshes")
    # weighted one component at a time: weighting whole fields at once
    # raised a 64^3 run's memory peak, which sits in the report, by 8 MiB
    total = np.zeros(medium.mesh.dims)
    for a in range(3):
        total += _to_cell(D.data[a] ** 2 / medium.eps_edge[a], 1, a)
        total += _to_cell(B.data[a] ** 2 / medium.mu_face[a], 2, a)
    return FormField(medium.mesh, 0, 0.5 * total, dual=True)


def coenergy_density(e, h, medium):
    """Quadratic co-energy density of the intensities, as a cell 0-form."""
    _expect(e, 1, False, "e")
    _expect(h, 1, True, "h")
    if e.mesh != medium.mesh or h.mesh != medium.mesh:
        raise ValueError("fields and medium live on different meshes")
    total = np.zeros(medium.mesh.dims)  # one component at a time, as energy_density
    for a in range(3):
        total += _to_cell(medium.eps_edge[a] * e.data[a] ** 2, 1, a)
        total += _to_cell(medium.mu_face[a] * h.data[a] ** 2, 2, a)
    return FormField(medium.mesh, 0, 0.5 * total, dual=True)


def pairing_density(D, B, e, h):
    """Componentwise pairing star(D).e + star(B).h as a cell 0-form."""
    total = np.zeros(D.mesh.dims)
    for a in range(3):
        total += _to_cell(D.data[a] * e.data[a], 1, a)
        total += _to_cell(B.data[a] * h.data[a], 2, a)
    return FormField(D.mesh, 0, total, dual=True)


def functional(density, region=WHOLE):
    """Volume integral of a density 0-form: integrate(density * vol).

    The star of a 0-form is the 3-form with the same array, so the sum
    reads the density's own array instead of the star's copy.
    """
    if density.degree != 0:
        raise ValueError("functional expects a density 0-form")
    return integrate(FormField(density.mesh, 3, density.data, not density.dual), region)


def intensity_from_induction(D, B, medium):
    """Constitutive map e = star(D)/eps, h = star(B)/mu.

    The medium is sampled at the staggered location of each target
    component, so the map is a collocated diagonal rescaling.
    """
    _expect(D, 2, True, "D")
    _expect(B, 2, False, "B")
    return medium.intensity(D), medium.intensity(B)


def induction_from_intensity(e, h, medium):
    """Constitutive map D = eps * star(e), B = mu * star(h)."""
    _expect(e, 1, False, "e")
    _expect(h, 1, True, "h")
    return medium.induction(e), medium.induction(h)


@dataclass(frozen=True)
class PhaseResiduals:
    """Residuals that vanish exactly when the state sits on the phase space
    of the chosen orientation (constitutive and energy relations hold).

    ``energy`` is the energy density the evolved pair implies and
    ``images`` are the evolved pair's constitutive images, both as formed
    for the residuals: DB keeps energy_density(D, B) and (star(D)/eps,
    star(B)/mu); EH keeps pairing - co-energy and (eps star(e), mu star(h)).
    ``coenergy`` is coenergy_density(e, h) in both orientations.
    """

    orientation: Orientation
    delta_energy: FormField
    delta_De: FormField
    delta_Bh: FormField
    energy: FormField
    images: tuple
    coenergy: FormField

    def max_abs(self):
        return max(float(np.abs(self.delta_energy.data).max()), self.constitutive_max())

    def constitutive_max(self):
        return max(
            float(np.abs(self.delta_De.data).max()),
            float(np.abs(self.delta_Bh.data).max()),
        )


def phase_residuals(state, medium, orientation):
    """Residuals of the induction- or intensity-oriented phase space.

    DB: (energy density - energy, star(D)/eps - e, star(B)/mu - h) with the
    field residuals as 1-forms.  EH: (pairing - co-energy - energy,
    D - eps star(e), B - mu star(h)) with the field residuals as 2-forms.
    """
    coenergy = coenergy_density(state.e, state.h, medium)
    if orientation is Orientation.DB:
        e_c, h_c = intensity_from_induction(state.D, state.B, medium)
        energy = energy_density(state.D, state.B, medium)
        return PhaseResiduals(
            orientation=orientation,
            delta_energy=energy - state.energy,
            delta_De=e_c - state.e,
            delta_Bh=h_c - state.h,
            energy=energy,
            images=(e_c, h_c),
            coenergy=coenergy,
        )
    D_c, B_c = induction_from_intensity(state.e, state.h, medium)
    energy = pairing_density(state.D, state.B, state.e, state.h) - coenergy
    return PhaseResiduals(
        orientation=orientation,
        delta_energy=energy - state.energy,
        delta_De=state.D - D_c,
        delta_Bh=state.B - B_c,
        energy=energy,
        images=(D_c, B_c),
        coenergy=coenergy,
    )


def contact_hamiltonian_density(state, medium, orientation, kappa=1.0, residuals=None):
    """Density whose volume functional generates the restricted dynamics.

    Sum of the Hodge duals of the constitutive residuals wedged with the
    curl-driven velocity factors of the chosen orientation, plus
    kappa times the energy residual.  Identically zero (to rounding) on
    states satisfying the constitutive and energy relations.
    ``residuals`` may hand in ``phase_residuals(state, medium,
    orientation)`` when the caller has already formed them.

    The sum starts from +0.0, and a residual without a nonzero entry adds
    nothing, so its curl is not formed: on a run's reported states, whose
    constitutive residuals are exactly zero in the run's own orientation,
    the density is kappa times the energy residual.  Off-shell states go
    through the full formula.  The velocity factor of B is minus a curl;
    its term is subtracted rather than wedged with a negated copy, which
    gives the same bits.  The star of each 3-form is the 0-form with the
    same array.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if residuals is None:
        residuals = phase_residuals(state, medium, orientation)
    elif residuals.orientation is not orientation:
        raise ValueError("residuals were formed for the other orientation")
    db = orientation is Orientation.DB
    # DB curls the images star(D)/eps and star(B)/mu, EH the evolved intensities
    e_c, h_c = residuals.images if db else (state.e, state.h)
    density = np.zeros(medium.mesh.dims)
    if residuals.delta_De.data.any():
        F_De = exterior_derivative(h_c)
        F_De = F_De if db else medium.intensity(F_De)
        density += wedge(residuals.delta_De, F_De).data
        del F_De  # the D term is finished before the second curl is formed
    if residuals.delta_Bh.data.any():
        minus_F_Bh = exterior_derivative(e_c)
        minus_F_Bh = minus_F_Bh if db else medium.intensity(minus_F_Bh)
        density -= wedge(residuals.delta_Bh, minus_F_Bh).data
    density += kappa * residuals.delta_energy.data
    return FormField(medium.mesh, 0, density, dual=True)


def energy_quadratic(eps, mu):
    """The six-variable energy density at one cell as a convex generator.

    Variables are the three star(D) components followed by the three
    star(B) components; the Hessian is diag(1/eps x3, 1/mu x3).  Its total
    Legendre transform is the co-energy density in the (e, h) variables.
    """
    return Generator.quadratic(fiber_metric(eps, mu))
