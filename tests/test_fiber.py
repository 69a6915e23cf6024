"""Per-cell energies, constitutive maps, and phase-space residuals."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cmx.contact import legendre_transform
from cmx.dec import (
    FormField,
    Mesh,
    Region,
    component_offsets,
    exterior_derivative,
    resample,
    wedge,
)
from cmx.dynamics import SchemeConfig, run_scenario
from cmx.fiber import (
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
from cmx.scenarios import gaussian_pulse_state, plane_wave_state


@pytest.fixture
def mesh():
    return Mesh((8, 8, 8))


def constant_field(mesh, degree, values, dual):
    data = np.stack([np.full(mesh.dims, v) for v in values])
    return FormField(mesh, degree, data, dual)


class TestMediumProfile:
    def test_positivity_enforced(self, mesh):
        with pytest.raises(ValueError):
            MediumProfile(mesh, 0.0, 1.0)
        with pytest.raises(ValueError):
            MediumProfile(mesh, 1.0, -2.0)

    def test_sech_slab_profile(self):
        # bitwise against the profile evaluated on the full meshgrid
        mesh = Mesh((12, 8, 10), spacing=0.5)
        medium = MediumProfile.sech_slab(mesh, eps0=2.0, z30=3.0, mu0=1.5)
        mid = mesh.extent[2] / 2
        z = mesh.coords((0.5, 0.5, 0.5))[2]
        expected = 2.0 / np.cosh((z - mid) / 3.0) ** 2
        np.testing.assert_array_equal(medium.eps, expected)
        np.testing.assert_array_equal(medium.mu, 1.5)
        assert (medium.eps_min, medium.mu_min) == (expected.min(), 1.5)

    def test_staggered_sampling_averages_neighbors(self, mesh):
        rng = np.random.default_rng(0)
        medium = MediumProfile(mesh, 1.0 + rng.random(mesh.dims), 1.0)
        # the first edge offset only moves along the two transverse axes
        manual = 0.25 * (
            medium.eps
            + np.roll(medium.eps, 1, axis=1)
            + np.roll(medium.eps, 1, axis=2)
            + np.roll(np.roll(medium.eps, 1, axis=1), 1, axis=2)
        )
        np.testing.assert_allclose(medium.eps_edge[0], manual)

    @pytest.mark.parametrize("kind", ["random", "sech_slab", "uniform", "vacuum"])
    def test_staggered_media_are_stacked_resamples(self, kind):
        mesh = Mesh((6, 5, 4), spacing=0.5)
        varying = {"random": (0, 1, 2), "sech_slab": (2,)}.get(kind, ())
        if kind == "random":
            rng = np.random.default_rng(4)
            medium = MediumProfile(mesh, 0.5 + rng.random(mesh.dims),
                                   0.7 + rng.random(mesh.dims))
        elif kind == "sech_slab":
            medium = MediumProfile.sech_slab(mesh, eps0=2.0, z30=0.8, mu0=1.5)
        elif kind == "uniform":
            medium = MediumProfile.uniform(mesh, 1.3, 1.7)
        else:
            medium = MediumProfile.vacuum(mesh)
        cell = (0.5, 0.5, 0.5)
        for stored, values, degree in ((medium.eps_edge, medium.eps, 1),
                                       (medium.mu_face, medium.mu, 2)):
            assert isinstance(stored, np.ndarray)
            assert stored.dtype == np.float64 and stored.shape == (3, *mesh.dims)
            assert not stored.flags.writeable
            for a, offset in enumerate(component_offsets(degree)):
                assert stored[a].tobytes() == resample(values, cell, offset).tobytes()
            owner = stored
            while owner.base is not None:
                owner = owner.base
            assert owner.size <= 3 * np.prod([mesh.dims[ax] for ax in varying])


MEDIUM_DIMS = (4, 3, 5)

# scalars and arrays of any dtype and of right-aligned shapes that fit the
# mesh or do not (wrong sizes, empty axes, 0-d and 4-d input)
medium_values = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.booleans(),
    st.integers(-2**70, 2**70),
    st.floats(),
    st.complex_numbers(),
    hnp.arrays(
        dtype=st.sampled_from([np.float64, np.float32, np.float16, np.int32, np.uint8,
                               np.complex128, np.bool_, np.dtype("<U3")]),
        shape=st.lists(st.sampled_from([0, 1, 2, 3, 4, 5]), max_size=4).map(tuple),
    ),
)


class TestMalformedMedia:
    @given(eps=medium_values, mu=medium_values)
    @settings(max_examples=300, deadline=None)
    def test_media_construct_or_raise_value_error(self, eps, mu):
        mesh = Mesh(MEDIUM_DIMS)
        for build in (MediumProfile, MediumProfile.uniform):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # no silent casts either
                    medium = build(mesh, eps, mu)
            except ValueError:
                continue
            for given_values, stored in ((eps, medium.eps), (mu, medium.mu)):
                assert np.asarray(given_values).dtype.kind in "iuf"  # real numbers only
                assert np.array_equal(stored, np.broadcast_to(
                    np.asarray(given_values, dtype=float), mesh.dims))
            assert medium.eps.shape == medium.mu.shape == mesh.dims
            assert medium.eps_edge.shape == medium.mu_face.shape == (3, *mesh.dims)
            assert medium.eps_min > 0 and medium.mu_min > 0
            assert np.isfinite(medium.eps_edge).all() and np.isfinite(medium.mu_face).all()

    @pytest.mark.parametrize("eps, match", [
        (1.0 + 2.0j, "dtype complex128"),
        (None, "dtype object"),
        ("2.0", "dtype <U3"),
        (np.ones((4, 3, 2)), r"shape \(4, 3, 2\)"),
        (np.ones((1, 4, 3, 5)), r"shape \(1, 4, 3, 5\)"),
        (np.array([1.0, np.nan, 1.0, 1.0, 1.0]), "non-finite"),
        (np.full(5, 1e308), "staggered means overflow"),
    ])
    def test_errors_name_the_bad_dtype_or_shape(self, eps, match):
        with pytest.raises(ValueError, match=match):
            MediumProfile(Mesh(MEDIUM_DIMS), eps, 1.0)

    def test_a_vanishing_slab_raises_only_its_value_error(self):
        # cosh overflows far from a thin slab's midplane, where eps becomes 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="strictly positive"):
                MediumProfile.sech_slab(Mesh((8, 8, 8)), 1.0, 0.001, 1.0)


def compact_and_full(mesh, kind, rng):
    """One medium given compactly and as full arrays, as (eps, mu) pairs."""
    dims = mesh.dims
    if kind == "vacuum":
        eps, mu = 1.0, 1.0
    elif kind == "uniform":
        eps, mu = 1.3, 1.7
    elif kind == "sech_slab":
        eps = MediumProfile.sech_slab(mesh, 2.0, 0.2 * mesh.extent[2], 1.0).eps[:1, :1]
        mu = 1.0
    elif kind == "two_axes":
        eps = 1.0 + rng.random((dims[0], 1, dims[2]))
        mu = 0.7 + rng.random((dims[0], 1, 1))
    else:
        eps, mu = 1.0 + rng.random(dims), 0.7 + rng.random(dims)
    eps, mu = np.array(eps), np.array(mu)
    return (eps, mu), tuple(np.broadcast_to(v, dims).copy() for v in (eps, mu))


def state_bits(state):
    return [getattr(state, name).data.tobytes() for name in ("D", "B", "e", "h", "energy")]


class TestCompactMediaMatchFullArrays:
    """A medium given along the axes it varies on gives the bits of the same
    medium given as full arrays: staggered media, densities and runs."""

    KINDS = ["vacuum", "uniform", "sech_slab", "two_axes", "random"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_staggered_media_and_densities(self, kind):
        mesh = Mesh((6, 5, 8), spacing=0.7)
        rng = np.random.default_rng(31)
        compact_in, full_in = compact_and_full(mesh, kind, rng)
        compact, full = MediumProfile(mesh, *compact_in), MediumProfile(mesh, *full_in)
        assert compact.eps_edge.tobytes() == full.eps_edge.tobytes()
        assert compact.mu_face.tobytes() == full.mu_face.tobytes()
        assert (compact.eps_min, compact.mu_min) == (full.eps_min, full.mu_min)
        shape = (3, *mesh.dims)
        D = FormField(mesh, 2, rng.standard_normal(shape), dual=True)
        B = FormField(mesh, 2, rng.standard_normal(shape))
        e = FormField(mesh, 1, rng.standard_normal(shape))
        h = FormField(mesh, 1, rng.standard_normal(shape), dual=True)
        for density in (lambda m: energy_density(D, B, m),
                        lambda m: coenergy_density(e, h, m)):
            a, b = density(compact), density(full)
            assert a.data.tobytes() == b.data.tobytes()
            assert functional(a).hex() == functional(b).hex()
        state = MaxwellState(D=D, B=B, e=e, h=h, energy=energy_density(D, B, full))
        for orientation in (Orientation.DB, Orientation.EH):
            assert (contact_hamiltonian_density(state, compact, orientation).data.tobytes()
                    == contact_hamiltonian_density(state, full, orientation).data.tobytes())

    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    @pytest.mark.parametrize("kind, dims, preset", [
        *[(kind, (8, 6, 10), preset) for kind in KINDS
          for preset in ("plane_wave", "gaussian_pulse")],
        # big enough that numpy sums the mean over cells in blocks
        ("sech_slab", (48, 48, 48), "plane_wave"),
        ("uniform", (48, 48, 48), "plane_wave"),
    ])
    def test_runs(self, kind, dims, preset, orientation):
        mesh = Mesh(dims, spacing=0.5)
        compact_in, full_in = compact_and_full(mesh, kind, np.random.default_rng(32))
        runs = []
        for values in (compact_in, full_in):
            medium = MediumProfile(mesh, *values)
            cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.8, steps=3, cadence=1,
                                        orientation=orientation)
            if preset == "plane_wave":
                initial = plane_wave_state(mesh, medium, cfg.dt, axis=0,
                                           wavelength=mesh.extent[0] / 2, polarization=2)
            else:
                initial = gaussian_pulse_state(mesh, medium, center=2.0, width=0.8)
            final, reports = run_scenario(initial, medium, cfg)
            runs.append((cfg.dt.hex(), state_bits(initial), state_bits(final),
                         [[getattr(r, f).hex() for f in r.FIELDS] for r in reports]))
        assert runs[0] == runs[1]


class TestEnergyDensities:
    def test_unit_medium_unit_induction(self, mesh):
        m = MediumProfile.vacuum(mesh)
        D = constant_field(mesh, 2, [1.0, 0.0, 0.0], dual=True)
        B = FormField.zeros(mesh, 2)
        np.testing.assert_allclose(energy_density(D, B, m).data, 0.5)

    def test_permittivity_scaling(self, mesh):
        m = MediumProfile.uniform(mesh, 2.0, 1.0)
        D = constant_field(mesh, 2, [2.0, 0.0, 0.0], dual=True)
        B = FormField.zeros(mesh, 2)
        np.testing.assert_allclose(energy_density(D, B, m).data, 1.0)

    def test_zero_fields(self, mesh):
        m = MediumProfile.vacuum(mesh)
        zero = energy_density(FormField.zeros(mesh, 2, dual=True),
                              FormField.zeros(mesh, 2), m)
        assert not zero.data.any()

    def test_coenergy_values(self, mesh):
        m = MediumProfile.uniform(mesh, 2.0, 3.0)
        e = constant_field(mesh, 1, [1.0, 0.0, 0.0], dual=False)
        h = FormField.zeros(mesh, 1, dual=True)
        np.testing.assert_allclose(coenergy_density(e, h, m).data, 1.0)
        h2 = constant_field(mesh, 1, [0.0, 1.0, 0.0], dual=True)
        e0 = FormField.zeros(mesh, 1)
        np.testing.assert_allclose(coenergy_density(e0, h2, m).data, 1.5)
        assert not coenergy_density(e0, FormField.zeros(mesh, 1, dual=True),
                                    m).data.any()

    def test_nonnegative_and_definite(self, mesh):
        rng = np.random.default_rng(1)
        m = MediumProfile(mesh, 0.5 + rng.random(mesh.dims),
                          0.5 + rng.random(mesh.dims))
        D = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)), dual=True)
        B = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)))
        psi = energy_density(D, B, m)
        assert psi.data.min() >= 0.0


class TestFunctional:
    def test_constant_density(self, mesh):
        m = MediumProfile.vacuum(mesh)
        half = FormField(mesh, 0, np.full(mesh.dims, 0.5), dual=True)
        assert functional(half) == 256.0

    def test_zero_density(self, mesh):
        assert functional(FormField.zeros(mesh, 0, dual=True)) == 0.0

    def test_region_restriction(self, mesh):
        half = FormField(mesh, 0, np.full(mesh.dims, 0.5), dual=True)
        assert functional(half, Region(lo=(0, 0, 0), hi=(8, 8, 4))) == 128.0


class TestConstitutiveMaps:
    def test_intensity_from_induction(self, mesh):
        m = MediumProfile.uniform(mesh, 2.0, 1.0)
        D = constant_field(mesh, 2, [2.0, 0.0, 0.0], dual=True)
        B = FormField(mesh, 2, np.random.default_rng(2).standard_normal((3, *mesh.dims)))
        e, h = intensity_from_induction(D, B, m)
        np.testing.assert_allclose(e.data[0], 1.0)
        np.testing.assert_array_equal(h.data, B.data)  # identity permeability

    def test_induction_from_intensity(self, mesh):
        m = MediumProfile.uniform(mesh, 2.0, 3.0)
        e = constant_field(mesh, 1, [1.0, 0.0, 0.0], dual=False)
        h = constant_field(mesh, 1, [0.0, 0.0, 1.0], dual=True)
        D, B = induction_from_intensity(e, h, m)
        np.testing.assert_allclose(D.data[0], 2.0)
        np.testing.assert_allclose(B.data[2], 3.0)

    def test_round_trip(self, mesh):
        rng = np.random.default_rng(3)
        m = MediumProfile(mesh, 0.5 + rng.random(mesh.dims),
                          0.5 + rng.random(mesh.dims))
        D = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)), dual=True)
        B = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)))
        e, h = intensity_from_induction(D, B, m)
        D2, B2 = induction_from_intensity(e, h, m)
        np.testing.assert_allclose(D2.data, D.data, rtol=0, atol=1e-14)
        np.testing.assert_allclose(B2.data, B.data, rtol=0, atol=1e-14)


class TestMediumMaps:
    """MediumProfile.intensity and .induction are the written-out divides and
    multiplies by the staggered media, bit for bit."""

    @staticmethod
    def medium(kind, mesh):
        rng = np.random.default_rng(12)
        return {
            "random": lambda: MediumProfile(mesh, 0.5 + rng.random(mesh.dims),
                                            0.7 + rng.random(mesh.dims)),
            "uniform": lambda: MediumProfile.uniform(mesh, 2.0, 3.0),
            "vacuum": lambda: MediumProfile.vacuum(mesh),
            "sech_slab": lambda: MediumProfile.sech_slab(mesh, 2.0, 1.5, 1.3),
        }[kind]()

    @pytest.mark.parametrize("kind", ["random", "uniform", "vacuum", "sech_slab"])
    @pytest.mark.parametrize("dims", [(6, 5, 8), (2, 2, 2)])
    def test_maps_are_the_written_out_divides_and_multiplies(self, kind, dims):
        mesh = Mesh(dims, spacing=0.7)
        m = self.medium(kind, mesh)
        rng = np.random.default_rng(13)
        data = rng.standard_normal((3, *dims))
        cases = [  # (map, degree, dual, expected data, image degree, image dual)
            (m.intensity, 2, True, data / m.eps_edge, 1, False),  # D -> e
            (m.intensity, 2, False, data / m.mu_face, 1, True),  # B -> h
            (m.induction, 1, False, data * m.eps_edge, 2, True),  # e -> D
            (m.induction, 1, True, data * m.mu_face, 2, False),  # h -> B
        ]
        for apply, degree, dual, expected, image_degree, image_dual in cases:
            form = FormField(mesh, degree, data.copy(), dual)
            image = apply(form)
            assert image.data.tobytes() == expected.tobytes()
            assert (image.mesh, image.degree, image.dual) == (mesh, image_degree, image_dual)
            assert form.data.tobytes() == data.tobytes()  # the input is left alone
            out = np.empty_like(data)
            assert apply(form, out=out).data is out
            assert out.tobytes() == expected.tobytes()
            in_place = apply(form, out=form.data)  # a fresh curl's array may take it
            assert in_place.data is form.data
            assert in_place.data.tobytes() == expected.tobytes()

    def test_wrong_degree_or_mesh_names_the_fault(self, mesh):
        m = MediumProfile.vacuum(mesh)
        other = Mesh((8, 8, 4))
        for apply, degree, wrong in ((m.intensity, 2, 1), (m.induction, 1, 2)):
            for bad in (0, 3, wrong):
                with pytest.raises(ValueError, match=f"expected a {degree}-form, "
                                                     f"got a {bad}-form"):
                    apply(FormField.zeros(mesh, bad))
            for far in (other, Mesh(mesh.dims, spacing=0.5)):
                with pytest.raises(ValueError, match="the form lives on Mesh"):
                    apply(FormField.zeros(far, degree))


def random_onshell_state(mesh, rng):
    medium = MediumProfile(mesh, 0.5 + rng.random(mesh.dims),
                           0.5 + rng.random(mesh.dims))
    D = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)), dual=True)
    B = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)))
    return MaxwellState.from_induction(D, B, medium), medium


class TestPhaseResiduals:
    def test_onshell_state_both_orientations(self, mesh):
        state, medium = random_onshell_state(mesh, np.random.default_rng(4))
        scale = state.field_scale() ** 2
        for orientation in (Orientation.DB, Orientation.EH):
            res = phase_residuals(state, medium, orientation)
            assert res.max_abs() <= 1e-14 * scale

    def test_perturbed_intensity_shows_in_residual(self, mesh):
        state, medium = random_onshell_state(mesh, np.random.default_rng(5))
        e = state.e.copy()
        e.data[0, 2, 3, 4] += 1.0
        bumped = MaxwellState(D=state.D, B=state.B, e=e, h=state.h,
                              energy=state.energy, time=state.time)
        res = phase_residuals(bumped, medium, Orientation.DB)
        assert abs(res.delta_De.data[0, 2, 3, 4] + 1.0) < 1e-14
        mask = np.ones(mesh.dims, dtype=bool)
        mask[2, 3, 4] = False
        assert not res.delta_De.data[0][mask].any()

    def test_onshell_energy_identity(self, mesh):
        state, medium = random_onshell_state(mesh, np.random.default_rng(6))
        lhs = pairing_density(state.D, state.B, state.e, state.h) \
            - coenergy_density(state.e, state.h, medium)
        gap = np.abs((lhs - state.energy).data).max()
        assert gap <= 1e-12 * state.field_scale() ** 2


class TestContactHamiltonianDensity:
    def test_onshell_is_zero(self, mesh):
        state, medium = random_onshell_state(mesh, np.random.default_rng(7))
        for orientation in (Orientation.DB, Orientation.EH):
            dens = contact_hamiltonian_density(state, medium, orientation)
            assert np.abs(dens.data).max() <= 1e-12 * state.field_scale() ** 2

    def test_energy_perturbation_enters_linearly(self, mesh):
        state, medium = random_onshell_state(mesh, np.random.default_rng(8))
        energy = state.energy.copy()
        energy.data[1, 2, 3] += 0.25
        bumped = MaxwellState(D=state.D, B=state.B, e=state.e, h=state.h,
                              energy=energy, time=state.time)
        kappa = 1.75
        dens = contact_hamiltonian_density(bumped, medium, Orientation.DB, kappa)
        assert abs(dens.data[1, 2, 3] + kappa * 0.25) < 1e-12
        mask = np.ones(mesh.dims, dtype=bool)
        mask[1, 2, 3] = False
        assert np.abs(dens.data[mask]).max() <= 1e-12 * state.field_scale() ** 2

    def test_uniform_fields_leave_only_the_gauge_term(self, mesh):
        medium = MediumProfile.uniform(mesh, 2.0, 1.0)
        D = constant_field(mesh, 2, [1.0, 0.5, 0.0], dual=True)
        B = constant_field(mesh, 2, [0.0, 1.0, 0.0], dual=False)
        e_wrong = constant_field(mesh, 1, [3.0, 3.0, 3.0], dual=False)
        h = constant_field(mesh, 1, [0.0, 1.0, 0.0], dual=True)
        energy = energy_density(D, B, medium)
        state = MaxwellState(D=D, B=B, e=e_wrong, h=h, energy=energy)
        dens = contact_hamiltonian_density(state, medium, Orientation.DB, 2.0)
        # curls of uniform fields vanish, so the residual terms drop out
        np.testing.assert_allclose(dens.data, 0.0, atol=1e-14)

    def test_kappa_must_be_positive(self, mesh):
        state, medium = random_onshell_state(mesh, np.random.default_rng(9))
        with pytest.raises(ValueError):
            contact_hamiltonian_density(state, medium, Orientation.DB, kappa=0.0)


def written_out_density(state, medium, orientation, kappa):
    """wedge(dDe, F_De) - wedge(dBh, -F_Bh) + kappa dE, every factor formed
    from its definition; returns the density array and whether the D and
    B residuals have a nonzero entry."""
    mesh = medium.mesh
    D, B, e, h = state.D.data, state.B.data, state.e.data, state.h.data
    eps, mu = medium.eps_edge, medium.mu_face
    if orientation is Orientation.DB:
        e_c = FormField(mesh, 1, D / eps)
        h_c = FormField(mesh, 1, B / mu, dual=True)
        dDe = FormField(mesh, 1, e_c.data - e)
        dBh = FormField(mesh, 1, h_c.data - h, dual=True)
        dE = energy_density(state.D, state.B, medium).data - state.energy.data
        F_De = exterior_derivative(h_c)
        minus_F_Bh = exterior_derivative(e_c)
    else:
        dDe = FormField(mesh, 2, D - e * eps, dual=True)
        dBh = FormField(mesh, 2, B - h * mu)
        dE = (pairing_density(state.D, state.B, state.e, state.h).data
              - coenergy_density(state.e, state.h, medium).data) - state.energy.data
        F_De = FormField(mesh, 1, exterior_derivative(state.h).data / eps)
        minus_F_Bh = FormField(mesh, 1, exterior_derivative(state.e).data / mu, dual=True)
    density = wedge(dDe, F_De).data - wedge(dBh, minus_F_Bh).data + kappa * dE
    return density, dDe.data.any(), dBh.data.any()


def random_state_with_residuals(mesh, rng, orientation, off_shell):
    """A random heterogeneous medium and a state on the orientation's phase
    space, with noise added to the slaved fields named in ``off_shell``
    (a subset of "De", "Bh") and to the energy coordinate."""
    medium = MediumProfile(mesh, 0.5 + rng.random(mesh.dims), 0.7 + rng.random(mesh.dims))
    shape = (3, *mesh.dims)
    if orientation is Orientation.DB:
        D = FormField(mesh, 2, rng.standard_normal(shape), dual=True)
        B = FormField(mesh, 2, rng.standard_normal(shape))
        e, h = intensity_from_induction(D, B, medium)
        slaved = {"De": e, "Bh": h}
    else:
        e = FormField(mesh, 1, rng.standard_normal(shape))
        h = FormField(mesh, 1, rng.standard_normal(shape), dual=True)
        D, B = induction_from_intensity(e, h, medium)
        slaved = {"De": D, "Bh": B}
    for name in off_shell:
        slaved[name].data[...] += 1e-3 * rng.standard_normal(shape)
    energy = energy_density(D, B, medium)
    energy.data[...] += 1e-3 * rng.standard_normal(mesh.dims)
    return MaxwellState(D=D, B=B, e=e, h=h, energy=energy), medium


class TestDensityAgainstWrittenOutFormula:
    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    @pytest.mark.parametrize("off_shell", [("De", "Bh"), ("De",), ("Bh",), ()])
    def test_matches_full_formula(self, orientation, off_shell):
        mesh = Mesh((6, 5, 4), spacing=0.7)
        rng = np.random.default_rng(20)
        state, medium = random_state_with_residuals(mesh, rng, orientation, off_shell)
        kappa = 1.5
        expected, De_nonzero, Bh_nonzero = written_out_density(state, medium,
                                                               orientation, kappa)
        assert (De_nonzero, Bh_nonzero) == ("De" in off_shell, "Bh" in off_shell)
        dens = contact_hamiltonian_density(state, medium, orientation, kappa)
        assert np.array_equal(dens.data, expected)
        expected_form = FormField(mesh, 0, expected, dual=True)
        assert functional(dens).hex() == functional(expected_form).hex()


class TestOwnOrientationRuns:
    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    @pytest.mark.parametrize("preset", ["gaussian_pulse", "plane_wave"])
    def test_stepped_rows_have_exactly_zero_constitutive_residual(self, orientation,
                                                                  preset):
        mesh = Mesh((12, 8, 10), spacing=0.5)
        rng = np.random.default_rng(12)
        medium = MediumProfile(mesh, 1.0 + 2.0 * rng.random(mesh.dims),
                               1.0 + rng.random(mesh.dims))
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.9, steps=6, cadence=1,
                                    orientation=orientation, kappa=1.5)
        if preset == "gaussian_pulse":
            initial = gaussian_pulse_state(mesh, medium, center=3.0, width=1.0)
        else:
            initial = plane_wave_state(mesh, medium, cfg.dt, axis=2, wavelength=2.5,
                                       polarization=0)
        _, reports = run_scenario(initial, medium, cfg)
        assert len(reports) == cfg.steps + 1
        assert [r.constitutive_residual_max for r in reports[1:]] == [0.0] * cfg.steps


class TestEnergyQuadratic:
    def test_legendre_matches_coenergy_closed_form(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            eps = float(rng.uniform(0.2, 5.0))
            mu = float(rng.uniform(0.2, 5.0))
            p = rng.uniform(-2, 2, 6)
            value, argmax = legendre_transform(energy_quadratic(eps, mu), p)
            closed = 0.5 * (eps * p[:3] @ p[:3] + mu * p[3:] @ p[3:])
            assert abs(value - closed) <= 1e-12 * (1 + abs(closed))
            np.testing.assert_allclose(
                argmax, np.concatenate([eps * p[:3], mu * p[3:]]), atol=1e-12)

    def test_hessian_is_the_expected_diagonal(self):
        gen = energy_quadratic(2.0, 4.0)
        np.testing.assert_array_equal(
            gen.hessian(np.zeros(6)),
            np.diag([0.5, 0.5, 0.5, 0.25, 0.25, 0.25]))
