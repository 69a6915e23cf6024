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
field components; their cell values use the same edge and face means as
the leapfrog's energy update in `cmx.dynamics`, which makes its discrete
energy balance exact.  The densities, the constitutive maps, the phase
residuals and the contact Hamiltonian density take ``out=`` arrays, so a
run can form them without allocating field-size arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .contact import Generator
from .dec import (
    FormField,
    WHOLE,
    _slabs,
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
        z3 = mesh.coord_axes(_CELL)[2]
        centered = z3 - 0.5 * mesh.extent[2]
        with np.errstate(over="ignore"):  # eps 0 where cosh overflows, rejected below
            eps = eps0 / np.cosh(centered / z30) ** 2
        return cls(mesh, eps, float(mu0))

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

    def field_scale(self):
        """Max absolute value over all D, B, e, h components."""
        return max(
            float(np.abs(f.data).max()) for f in (self.D, self.B, self.e, self.h)
        )


def _moves_to_cell(offset):
    """The one-axis (src, dst) offset moves, in axis order, from ``offset`` to the cell."""
    moves = []
    for ax in range(3):
        if offset[ax] != _CELL[ax]:
            dst = offset[:ax] + (_CELL[ax],) + offset[ax + 1:]
            moves.append((offset, dst))
            offset = dst
    return moves


# (degree, component) -> the moves of that edge or face component to the cell
_TO_CELL = {(degree, a): _moves_to_cell(offset)
            for degree in (1, 2) for a, offset in enumerate(component_offsets(degree))}


# The cell means keep two scratch slabs, where `exterior_derivative` keeps
# seven, so their slabs are four times as thick: at 48^3 and 64^3 an energy
# density took ~20% less time than with the differences' slabs (2-vCPU
# x86, interleaved in-process medians).  Against whole-field means they run
# the benchmark's 64^3 and 48^3 configs ~5% and ~8% faster (17 of 20
# alternating `run_scenario` reps each, outputs byte-identical).
_MEAN_SLAB_BYTES = 1 << 19


def _cell_means(out, terms, fresh=False):
    """Add to ``out`` pointwise products on the edges or faces, each averaged
    onto the cell centers; with ``fresh``, ``out`` starts from +0.0.

    ``terms`` lists ``(degree, a, sign, fill)``: ``fill(a, planes, p)``
    writes component ``a`` of a product on the edges (``degree`` 1) or
    faces (``degree`` 2) over a slice of first-axis planes into ``p``, and
    ``sign`` adds (+1) or subtracts (-1) its cell mean.  The work goes slab
    by slab, so the scratch is two slabs, not two fields.  Where there are
    several slabs, a mean along the first axis reads the plane after the
    slab, which the product is formed on too; `resample` wraps that
    frame's last plane, which is dropped.  Each value, mean and sum is the
    whole-field one, bit for bit, added in the order of ``terms``.
    """
    dims = out.shape
    slabs = _slabs(dims, _MEAN_SLAB_BYTES)
    # one slab is the whole field, whose own means wrap the first axis
    frame = int(len(slabs) > 1)
    work = np.empty((2, max(i1 - i0 for i0, i1 in slabs) + frame, *dims[1:]))
    plans = [(a, fill, np.add if sign > 0 else np.subtract, _TO_CELL[degree, a],
              frame * (_TO_CELL[degree, a][0][0][0] != _CELL[0]))
             for degree, a, sign, fill in terms]
    for i0, i1 in slabs:
        rows = i1 - i0
        acc = out[i0:i1]
        if fresh:
            acc.fill(0.0)
        for a, fill, op, moves, framed in plans:
            p, spare = work[0, :rows + framed], work[1, :rows + framed]
            fill(a, slice(i0, i1), p[:rows])
            if framed:
                fill(a, slice(i1 % dims[0], i1 % dims[0] + 1), p[rows:])
            for src, dst in moves:
                p, spare = resample(p, src, dst, out=spare)[:rows], p[:rows]
            op(acc, p, out=acc)
    return out


def _density(mesh, out, edge, face, scale=None):
    """The cell density, sum over a of the means of ``edge`` and ``face``
    products (`_cell_means` fills), times ``scale``."""
    if out is None:
        out = np.empty(mesh.dims)
    _cell_means(out, [(degree, a, 1, fill) for a in range(3)
                      for degree, fill in ((1, edge), (2, face))], fresh=True)
    if scale is not None:
        out *= scale
    return FormField(mesh, 0, out, dual=True)


def _squared_over(x, w):
    """The fill of x_a^2 / w_a."""
    return lambda a, sl, p: np.divide(np.square(x[a][sl], out=p), w[a][sl], out=p)


def _weighted_square(x, w):
    """The fill of w_a x_a^2."""
    return lambda a, sl, p: np.multiply(w[a][sl], np.square(x[a][sl], out=p), out=p)


def _product(x, y):
    """The fill of x_a y_a."""
    return lambda a, sl, p: np.multiply(x[a][sl], y[a][sl], out=p)


def energy_density(D, B, medium, out=None):
    """Quadratic energy density of the inductions, as a cell 0-form.

    Half the metric square of star(D) weighted by 1/eps plus the same for
    star(B) with 1/mu; nonnegative, zero only where both fields vanish.
    ``out`` may name the (N1, N2, N3) array that receives it.
    """
    _expect(D, 2, True, "D")
    _expect(B, 2, False, "B")
    if D.mesh != medium.mesh or B.mesh != medium.mesh:
        raise ValueError("fields and medium live on different meshes")
    return _density(medium.mesh, out, _squared_over(D.data, medium.eps_edge),
                    _squared_over(B.data, medium.mu_face), 0.5)


def coenergy_density(e, h, medium, out=None):
    """Quadratic co-energy density of the intensities, as a cell 0-form."""
    _expect(e, 1, False, "e")
    _expect(h, 1, True, "h")
    if e.mesh != medium.mesh or h.mesh != medium.mesh:
        raise ValueError("fields and medium live on different meshes")
    return _density(medium.mesh, out, _weighted_square(e.data, medium.eps_edge),
                    _weighted_square(h.data, medium.mu_face), 0.5)


def pairing_density(D, B, e, h, out=None):
    """Componentwise pairing star(D).e + star(B).h as a cell 0-form."""
    return _density(D.mesh, out, _product(D.data, e.data), _product(B.data, h.data))


def functional(density, region=WHOLE):
    """Volume integral of a density 0-form: integrate(density * vol).

    The star of a 0-form is the 3-form with the same array, so the sum
    reads the density's own array instead of the star's copy.
    """
    if density.degree != 0:
        raise ValueError("functional expects a density 0-form")
    return integrate(FormField(density.mesh, 3, density.data, not density.dual), region)


def intensity_from_induction(D, B, medium, out=None):
    """Constitutive map e = star(D)/eps, h = star(B)/mu.

    The medium is sampled at the staggered location of each target
    component, so the map is a collocated diagonal rescaling.  ``out`` may
    name the pair of arrays that receive e and h.
    """
    _expect(D, 2, True, "D")
    _expect(B, 2, False, "B")
    out_e, out_h = (None, None) if out is None else out
    return medium.intensity(D, out=out_e), medium.intensity(B, out=out_h)


def induction_from_intensity(e, h, medium, out=None):
    """Constitutive map D = eps * star(e), B = mu * star(h); ``out`` as in
    `intensity_from_induction`."""
    _expect(e, 1, False, "e")
    _expect(h, 1, True, "h")
    out_D, out_B = (None, None) if out is None else out
    return medium.induction(e, out=out_D), medium.induction(h, out=out_B)


def _max_abs(arr):
    """max |arr| without the array of absolute values (+0.0 for all zeros)."""
    return abs(max(float(arr.max()), -float(arr.min())))


@dataclass(frozen=True)
class PhaseResiduals:
    """Residuals that vanish exactly when the state sits on the phase space
    of the chosen orientation (constitutive and energy relations hold).

    ``energy`` is the energy density the evolved pair implies, as formed
    for the residuals: energy_density(D, B) in DB, pairing - co-energy in
    EH.  ``coenergy`` is coenergy_density(e, h) in both orientations.
    """

    orientation: Orientation
    delta_energy: FormField
    delta_De: FormField
    delta_Bh: FormField
    energy: FormField
    coenergy: FormField

    @classmethod
    def empty(cls, mesh, orientation, out=None):
        """Residuals with uninitialized arrays, for `phase_residuals`' ``out``.

        ``out`` may name the (9, N1, N2, N3) block that holds them, in the
        order delta_De, delta_Bh, delta_energy, energy, coenergy.
        """
        if out is None:
            out = np.empty((9, *mesh.dims))
        degree, dual = (1, False) if orientation is Orientation.DB else (2, True)
        return cls(orientation,
                   delta_energy=FormField(mesh, 0, out[6], dual=True),
                   delta_De=FormField(mesh, degree, out[0:3], dual),
                   delta_Bh=FormField(mesh, degree, out[3:6], not dual),
                   energy=FormField(mesh, 0, out[7], dual=True),
                   coenergy=FormField(mesh, 0, out[8], dual=True))

    def max_abs(self):
        return max(_max_abs(self.delta_energy.data), self.constitutive_max())

    def constitutive_max(self):
        return max(_max_abs(self.delta_De.data), _max_abs(self.delta_Bh.data))


def phase_residuals(state, medium, orientation, out=None):
    """Residuals of the induction- or intensity-oriented phase space.

    DB: (energy density - energy, star(D)/eps - e, star(B)/mu - h) with the
    field residuals as 1-forms.  EH: (pairing - co-energy - energy,
    D - eps star(e), B - mu star(h)) with the field residuals as 2-forms.
    ``out`` may name residuals of the same orientation and mesh, from
    `PhaseResiduals.empty` or an earlier call, whose arrays receive these
    and which are returned.
    """
    if out is None:
        out = PhaseResiduals.empty(medium.mesh, orientation)
    elif out.orientation is not orientation or out.energy.mesh != medium.mesh:
        raise ValueError("out holds residuals of another orientation or mesh")
    de, dDe, dBh = out.delta_energy.data, out.delta_De.data, out.delta_Bh.data
    coenergy_density(state.e, state.h, medium, out=out.coenergy.data)
    if orientation is Orientation.DB:
        energy_density(state.D, state.B, medium, out=out.energy.data)
        intensity_from_induction(state.D, state.B, medium, out=(dDe, dBh))
        np.subtract(dDe, state.e.data, out=dDe)
        np.subtract(dBh, state.h.data, out=dBh)
    else:
        pairing_density(state.D, state.B, state.e, state.h, out=out.energy.data)
        np.subtract(out.energy.data, out.coenergy.data, out=out.energy.data)
        induction_from_intensity(state.e, state.h, medium, out=(dDe, dBh))
        np.subtract(state.D.data, dDe, out=dDe)
        np.subtract(state.B.data, dBh, out=dBh)
    np.subtract(out.energy.data, state.energy.data, out=de)
    return out


def contact_hamiltonian_density(state, medium, orientation, kappa=1.0, residuals=None,
                                out=None):
    """Density whose volume functional generates the restricted dynamics.

    Sum of the Hodge duals of the constitutive residuals wedged with the
    curl-driven velocity factors of the chosen orientation, plus
    kappa times the energy residual.  Identically zero (to rounding) on
    states satisfying the constitutive and energy relations.
    ``residuals`` may hand in ``phase_residuals(state, medium,
    orientation)`` when the caller has already formed them, and ``out``
    the (N1, N2, N3) array that receives the density.

    The sum starts from +0.0 and ends with the energy term, formed in
    ``out``; a residual without a nonzero entry adds nothing, so its curl
    is not formed: on a run's reported
    states, whose constitutive residuals are exactly zero in the run's own
    orientation, the density is kappa times the energy residual.  Off-shell
    states go through the full formula.  The velocity factor of B is minus
    a curl; its term is subtracted rather than wedged with a negated copy,
    which gives the same bits.  The star of each 3-form is the 0-form with
    the same array.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if residuals is None:
        residuals = phase_residuals(state, medium, orientation)
    elif residuals.orientation is not orientation:
        raise ValueError("residuals were formed for the other orientation")
    db = orientation is Orientation.DB
    energy_term = np.multiply(residuals.delta_energy.data, kappa, out=out)
    density = 0.0
    if residuals.delta_De.data.any():
        # DB curls the images star(D)/eps and star(B)/mu, EH the evolved intensities
        F_De = exterior_derivative(medium.intensity(state.B) if db else state.h)
        F_De = F_De if db else medium.intensity(F_De)
        density = density + wedge(residuals.delta_De, F_De).data
        del F_De  # the D term is finished before the second curl is formed
    if residuals.delta_Bh.data.any():
        minus_F_Bh = exterior_derivative(medium.intensity(state.D) if db else state.e)
        minus_F_Bh = minus_F_Bh if db else medium.intensity(minus_F_Bh)
        density = density - wedge(residuals.delta_Bh, minus_F_Bh).data
    return FormField(medium.mesh, 0, np.add(density, energy_term, out=energy_term), dual=True)


def energy_quadratic(eps, mu):
    """The six-variable energy density at one cell as a convex generator.

    Variables are the three star(D) components followed by the three
    star(B) components; the Hessian is diag(1/eps x3, 1/mu x3).  Its total
    Legendre transform is the co-energy density in the (e, h) variables.
    """
    return Generator.quadratic(fiber_metric(eps, mu))
