"""Medium and initial-condition presets for simulation runs.

The plane-wave preset builds the exact traveling eigenmode of the
leapfrog update for the requested time step: the one-step map of a single
axis-aligned Fourier mode is a 2x2 matrix acting on the (intensity,
induction) amplitudes, and sampling its forward eigenvector onto the
staggered grid gives a wave that purely translates.  Conservation
diagnostics on such a wave sit at rounding level instead of being
polluted by the beat between forward and backward branches.

Each preset is one row of `MEDIUM_PRESETS` or `INITIAL_PRESETS`, which
`cmx.config` parses and echoes and `*_from_preset` build from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dec import FormField, difference_symbol
from .fiber import _MEAN_SAFE, MaxwellState, MediumProfile, energy_density

__all__ = [
    "medium_from_preset",
    "plane_wave_state",
    "gaussian_pulse_state",
    "initial_from_preset",
]


def _axis_triplet(axis, polarization):
    if axis == polarization:
        raise ValueError("polarization axis must differ from the propagation axis")
    third = 3 - axis - polarization
    even = (axis, polarization, third) in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    return third, 1.0 if even else -1.0


def _eigenmode_amplitudes(dt, eps, mu, k, spacing, sigma):
    """Forward-eigenvector (e_hat, b_hat) of the one-step map of one mode.

    Amplitudes are taken against each component's own staggered sample
    coordinates, which turns the forward and the backward staggered
    difference into the same centred `difference_symbol`.
    """
    ktilde = difference_symbol(k * spacing, spacing)

    def step(v):
        e, b = v
        b = b - 0.5 * dt * sigma * ktilde * e
        e = e - (dt / (eps * mu)) * sigma * ktilde * b
        b = b - 0.5 * dt * sigma * ktilde * e
        return np.array([e, b])

    M = np.column_stack([step(np.array([1.0 + 0j, 0.0])), step(np.array([0.0, 1.0 + 0j]))])
    vals, vecs = np.linalg.eig(M)
    forward = int(np.argmin(vals.imag))  # e^{-i w dt}, w > 0: right-moving
    vec = vecs[:, forward]
    return vec / vec[0]  # unit real intensity amplitude


def _slaved_to(e, B, medium, time):
    """The state of intensity e and induction B, with D, h and the energy slaved to them."""
    D, h = medium.induction(e), medium.intensity(B)
    with np.errstate(over="ignore"):  # an infinite energy fails the run's first report
        energy = energy_density(D, B, medium)
    return MaxwellState(D=D, B=B, e=e, h=h, energy=energy, time=time)


def _divides_extent(mesh, axis, wavelength):
    """Raise ValueError unless ``wavelength`` divides the periodic extent along ``axis``."""
    extent = mesh.extent[axis]
    mode = extent / wavelength
    if not math.isfinite(mode) or abs(mode - round(mode)) > 1e-9 or round(mode) == 0:
        raise ValueError(
            f"wavelength {wavelength} does not divide the periodic extent {extent}"
        )


def plane_wave_state(mesh, medium, dt, axis, wavelength, polarization, amplitude=1.0,
                     time=0.0):
    """On-shell traveling plane wave sampled as a discrete eigenmode.

    ``axis`` is the propagation direction and ``polarization`` the axis of
    the electric intensity (0-based); the wavelength must divide the
    periodic extent along ``axis``.  The eigenmode amplitudes use the mean
    permittivity and permeability, each summed as one flat run of cells (a
    3-D broadcast view would sum in another order), so in a uniform medium
    the wave is the exact eigenmode of the stepper run with this ``dt``.
    """
    _divides_extent(mesh, axis, wavelength)
    third, sigma = _axis_triplet(axis, polarization)
    k = 2.0 * np.pi / wavelength
    eps = float(medium.eps.reshape(-1).mean())
    mu = float(medium.mu.reshape(-1).mean())
    e_hat, b_hat = _eigenmode_amplitudes(dt, eps, mu, k, mesh.spacing, sigma)

    e = FormField.zeros(mesh, 1)
    coords_e = mesh.coord_axes(e.offsets()[polarization])[axis]
    e.data[polarization] = amplitude * np.real(e_hat * np.exp(1j * k * coords_e))

    B = FormField.zeros(mesh, 2)
    coords_b = mesh.coord_axes(B.offsets()[third])[axis]
    B.data[third] = amplitude * np.real(b_hat * np.exp(1j * k * coords_b))

    return _slaved_to(e, B, medium, time)


def gaussian_pulse_state(mesh, medium, center, width, amplitude=1.0, time=0.0):
    """Right-moving Gaussian pulse along the first axis, polarized along the second."""
    if width <= 0:
        raise ValueError("pulse width must be positive")
    e = FormField.zeros(mesh, 1)
    x_e = mesh.coord_axes(e.offsets()[1])[0]
    e.data[1] = amplitude * np.exp(-0.5 * ((x_e - center) / width) ** 2)

    B = FormField.zeros(mesh, 2)
    x_b = mesh.coord_axes(B.offsets()[2])[0]
    B.data[2] = amplitude * np.exp(-0.5 * ((x_b - center) / width) ** 2)

    return _slaved_to(e, B, medium, time)


@dataclass(frozen=True)
class Preset:
    """A preset: ``params`` maps each parameter, in token order, to int or
    float (finite); ``holds`` says whether parsed values obey ``rule``;
    ``build`` takes ``(mesh, *values)`` for a medium and
    ``(mesh, medium, dt, *values)`` for an initial state.  ``fits(mesh,
    *values)`` raises ValueError when the values do not suit the mesh
    (``sech_slab``'s builds the medium and drops it)."""

    params: dict
    build: Callable
    holds: Callable = lambda *values: True
    rule: str = ""
    fits: Callable = lambda mesh, *values: None


# medium.preset: name -> row
MEDIUM_PRESETS = {
    "vacuum": Preset({}, MediumProfile.vacuum),
    "uniform": Preset({"eps": float, "mu": float}, MediumProfile.uniform,
                      lambda *values: 0 < min(values) and max(values) <= _MEAN_SAFE,
                      f"parameters must be positive and at most {_MEAN_SAFE:.4g}"),
    "sech_slab": Preset({"eps0": float, "z30": float, "mu0": float}, MediumProfile.sech_slab,
                        lambda *values: min(values) > 0, "parameters must be positive",
                        MediumProfile.sech_slab),
}

# initial.preset: name -> row; axes are 1-based in a config
INITIAL_PRESETS = {
    "zero": Preset({}, lambda mesh, medium, dt: MaxwellState.zero(mesh)),
    "plane_wave": Preset(
        {"axis": int, "wavelength": float, "polarization": int, "amplitude": float},
        lambda mesh, medium, dt, axis, wavelength, polarization, amplitude: plane_wave_state(
            mesh, medium, dt, axis - 1, wavelength, polarization - 1, amplitude),
        lambda axis, wavelength, polarization, amplitude: (
            {axis, polarization} <= {1, 2, 3} and axis != polarization and wavelength > 0),
        "axis and polarization must be distinct values in 1..3, wavelength positive",
        lambda mesh, axis, wavelength, *rest: _divides_extent(mesh, axis - 1, wavelength)),
    "gaussian_pulse": Preset(
        {"center": float, "width": float, "amplitude": float},
        lambda mesh, medium, dt, *values: gaussian_pulse_state(mesh, medium, *values),
        lambda center, width, amplitude: width > 0, "width must be positive"),
}


def medium_from_preset(mesh, preset):
    """Build a MediumProfile from a ('name', params...) tuple."""
    return MEDIUM_PRESETS[preset[0]].build(mesh, *preset[1:])


def initial_from_preset(mesh, medium, dt, preset):
    """Build the initial state from a ('name', params...) tuple."""
    return INITIAL_PRESETS[preset[0]].build(mesh, medium, dt, *preset[1:])
