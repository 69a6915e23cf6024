"""Presets: every table row end to end, and the initial states against their
formulas written out on full meshgrids."""

import numpy as np
import pytest

from cmx.cli import main
from cmx.config import ConfigError, parse_config
from cmx.dec import FormField, Mesh
from cmx.dynamics import SchemeConfig
from cmx.fiber import MaxwellState, MediumProfile, energy_density
from cmx.scenarios import (
    INITIAL_PRESETS,
    MEDIUM_PRESETS,
    _axis_triplet,
    _eigenmode_amplitudes,
    gaussian_pulse_state,
    plane_wave_state,
)

MESH = Mesh((12, 8, 10), spacing=0.5)

# valid parameter tokens of every preset row, for a (6, 4, 8) mesh of unit spacing
EXAMPLES = {
    "vacuum": "", "uniform": "2.0 3.0", "sech_slab": "2.0 2.0 1.5",
    "zero": "", "plane_wave": "1 6.0 2 0.5", "gaussian_pulse": "3.0 1.5 -2.0",
}
PRESET_ROWS = [("medium.preset", name) for name in MEDIUM_PRESETS] + [
    ("initial.preset", name) for name in INITIAL_PRESETS]


@pytest.mark.parametrize("key, name", PRESET_ROWS)
def test_preset_row_parses_echoes_and_builds(key, name):
    text = f"grid.dims = 6 4 8\n{key} = {name} {EXAMPLES[name]}\n"
    cfg = parse_config(text)
    echo = cfg.to_text()
    assert parse_config(echo) == cfg and parse_config(echo).to_text() == echo
    assert f"{key} = {name} {EXAMPLES[name]}".strip() in echo
    mesh = cfg.build_mesh()
    medium = cfg.build_medium(mesh)
    state = cfg.build_initial(mesh, medium, cfg.build_scheme(mesh, medium))
    assert state.mesh == mesh
    for field in ("D", "B", "e", "h", "energy"):
        assert np.isfinite(getattr(state, field).data).all()


@pytest.mark.parametrize("key, name", PRESET_ROWS)
def test_preset_row_rejects_a_wrong_parameter_count(key, name):
    tokens = EXAMPLES[name].split()
    for wrong in (tokens + ["1.0"], tokens[:-1]):
        if wrong == tokens:  # a row without parameters has no shorter form
            continue
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = {' '.join([name, *wrong])}\n")
        (lineno, msg), = err.value.errors
        assert lineno == 1 and msg.startswith(f"{name} expects")


def test_uniform_rejects_a_constant_whose_staggered_mean_overflows():
    with pytest.raises(ConfigError) as err:
        parse_config("medium.preset = uniform 1e308 1.0\n")
    (lineno, msg), = err.value.errors
    assert lineno == 1 and msg == "uniform parameters must be positive and at most 8.988e+307"


@pytest.mark.parametrize("spacing, preset, message", [
    ("", "initial.preset = plane_wave 1 7.0 2 1.0",
     "plane_wave: wavelength 7.0 does not divide the periodic extent 8.0"),
    ("", "initial.preset = plane_wave 3 16.0 1 1.0",
     "plane_wave: wavelength 16.0 does not divide the periodic extent 8.0"),
    ("", "initial.preset = plane_wave 1 1e-320 2 1.0",  # extent / wavelength is inf
     "plane_wave: wavelength 1e-320 does not divide the periodic extent 8.0"),
    ("grid.spacing = 1e308", "initial.preset = plane_wave 1 8.0 2 1.0",  # the extent is inf
     "plane_wave: wavelength 8.0 does not divide the periodic extent inf"),
    ("", "medium.preset = sech_slab 1.0 0.001 1.0",
     "sech_slab: permittivity and permeability must be strictly positive"),
])
def test_a_preset_that_does_not_fit_the_mesh_fails_on_its_line(spacing, preset, message):
    with pytest.raises(ConfigError) as err:
        parse_config(f"grid.dims = 8 8 8\n{spacing}\n{preset}\n")
    (lineno, msg), = err.value.errors
    assert lineno == 3 and msg.startswith(message)


def test_a_preset_that_does_not_fit_the_mesh_fails_in_the_cli(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("grid.dims = 8 8 8\ninitial.preset = plane_wave 1 7.0 2 1.0\n")
    assert main(["simulate", "--config", str(path), "--print-config"]) == 1
    assert capsys.readouterr().err == (
        f"{path}:2: plane_wave: wavelength 7.0 does not divide the periodic extent 8.0\n")


def test_a_mesh_that_cannot_be_built_fails_on_the_dims_line():
    with pytest.raises(ConfigError) as err:
        parse_config(f"scheme.steps = 1\ngrid.dims = {2 ** 40} {2 ** 40} {2 ** 40}\n")
    (lineno, msg), = err.value.errors
    assert lineno == 2 and "mesh dims" in msg


def state_from_samples(mesh, medium, e, B):
    """The presets' on-shell completion of sampled (e, B), written out."""
    D = FormField(mesh, 2, np.stack([medium.eps_edge[a] * e.data[a] for a in range(3)]),
                  dual=True)
    h = FormField(mesh, 1, np.stack([B.data[a] / medium.mu_face[a] for a in range(3)]),
                  dual=True)
    return MaxwellState(D=D, B=B, e=e, h=h, energy=energy_density(D, B, medium))


def assert_states_identical(actual, expected):
    for name in ("D", "B", "e", "h", "energy"):
        np.testing.assert_array_equal(getattr(actual, name).data,
                                      getattr(expected, name).data, err_msg=name)


@pytest.mark.parametrize("axis, polarization",
                         [(a, p) for a in range(3) for p in range(3) if a != p])
def test_plane_wave_matches_meshgrid_formula(axis, polarization):
    medium = MediumProfile.sech_slab(MESH, 2.0, 1.5, 1.3)
    dt = SchemeConfig.from_cfl(MESH, medium, cfl=0.5).dt
    wavelength = MESH.extent[axis] / 2
    amplitude = 0.7
    state = plane_wave_state(MESH, medium, dt, axis, wavelength, polarization,
                             amplitude=amplitude)

    third, sigma = _axis_triplet(axis, polarization)
    k = 2.0 * np.pi / wavelength
    e_hat, b_hat = _eigenmode_amplitudes(dt, float(medium.eps.mean()),
                                         float(medium.mu.mean()), k, MESH.spacing, sigma)
    e = FormField.zeros(MESH, 1)
    x = MESH.coords(e.offsets()[polarization])[axis]
    e.data[polarization] = amplitude * np.real(e_hat * np.exp(1j * k * x))
    B = FormField.zeros(MESH, 2)
    x = MESH.coords(B.offsets()[third])[axis]
    B.data[third] = amplitude * np.real(b_hat * np.exp(1j * k * x))
    assert_states_identical(state, state_from_samples(MESH, medium, e, B))


def test_gaussian_pulse_matches_meshgrid_formula():
    medium = MediumProfile.sech_slab(MESH, 2.0, 1.5, 1.3)
    center, width, amplitude = 2.5, 0.8, 1.2
    state = gaussian_pulse_state(MESH, medium, center, width, amplitude=amplitude)

    e = FormField.zeros(MESH, 1)
    x = MESH.coords(e.offsets()[1])[0]
    e.data[1] = amplitude * np.exp(-0.5 * ((x - center) / width) ** 2)
    B = FormField.zeros(MESH, 2)
    x = MESH.coords(B.offsets()[2])[0]
    B.data[2] = amplitude * np.exp(-0.5 * ((x - center) / width) ** 2)
    assert_states_identical(state, state_from_samples(MESH, medium, e, B))
