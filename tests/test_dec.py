"""Staggered-grid exterior calculus: d, star, wedge, integration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmx.dec import (
    FormField,
    Mesh,
    Region,
    component_offsets,
    difference_symbol,
    exterior_derivative,
    hodge_star,
    inner_product_1forms,
    integrate,
    poynting_divergence,
    resample,
    sample_form,
    wedge,
)
from cmx.fiber import MediumProfile, energy_density, pairing_density
from cmx.verify import suite_dec

# meshes on which the four-point stencil wraps onto itself along some axis
WRAPPING_MESHES = [(8, 8, 8), (2, 2, 2), (16, 2, 3)]
# a field big enough to be worked on in several slabs, the last one short
SLABBED_MESH = (36, 32, 32)


@pytest.fixture
def mesh():
    return Mesh((8, 8, 8))


def constant_1form(mesh, values, dual=False):
    data = np.stack([np.full(mesh.dims, v) for v in values])
    return FormField(mesh, 1, data, dual)


def constant_2form(mesh, values, dual=False):
    data = np.stack([np.full(mesh.dims, v) for v in values])
    return FormField(mesh, 2, data, dual)


class TestMesh:
    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError):
            Mesh((1, 8, 8))
        with pytest.raises(ValueError):
            Mesh((8, 8))
        with pytest.raises(ValueError):
            Mesh((8, 8, 8), spacing=0.0)

    def test_coords_are_staggered(self):
        m = Mesh((4, 4, 4), spacing=0.5)
        x, _, _ = m.coords((0.5, 0.0, 0.0))
        assert x[0, 0, 0] == 0.25 and x[1, 0, 0] == 0.75

    @pytest.mark.parametrize("dims", [
        (2**21, 2**21, 2**21 + 1),  # the int64 product reads -9.2e18
        (2**32 + 1, 2**32 + 1, 2),  # the int64 product reads 2**34 + 2
    ])
    def test_counts_cells_exactly(self, dims):
        with pytest.raises(ValueError, match=f"hold {math.prod(dims)} cells"):
            Mesh(dims)

    def test_holds_as_many_cells_as_a_1form_can_index(self):
        # a mesh holds only its dims, so neither allocates anything
        most = np.iinfo(np.intp).max // (3 * 8)
        assert Mesh((2, 2, most // 4)).dims == (2, 2, most // 4)
        with pytest.raises(ValueError, match="cells"):
            Mesh((2, 2, most // 4 + 1))


def full_grid_sample(mesh, degree, funcs, dual):
    """Independent encoder: each callable on full meshgrids, broadcast into its component."""
    offsets = component_offsets(degree, dual)
    data = np.zeros((len(offsets), *mesh.dims))
    funcs = [funcs] if len(offsets) == 1 else funcs
    for c, (f, offset) in enumerate(zip(funcs, offsets)):
        if f is not None:
            data[c] = np.broadcast_to(f(*mesh.coords(offset)), mesh.dims)
    return data.reshape(FormField.zeros(mesh, degree).data.shape)


class TestSampleForm:
    FUNCS = [
        lambda x, y, z: np.sin(0.7 * x) * np.cos(0.3 * y) + np.exp(-0.1 * z),
        lambda x, y, z: 2.5,  # scalar-returning
        lambda x, y, z: np.tanh(0.4 * y),  # ignores two axes
    ]

    @pytest.mark.parametrize("dims,spacing", [((8, 8, 8), 1.0), ((7, 13, 5), 0.37),
                                              ((33, 31, 29), 1.0 / 29)])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("dual", [False, True])
    def test_matches_full_grid_encoder_bitwise(self, dims, spacing, degree, dual):
        m = Mesh(dims, spacing)
        cases = [[f] * 3 for f in self.FUNCS] + [self.FUNCS, [None, self.FUNCS[0], None]]
        if degree in (0, 3):
            cases = self.FUNCS
        for funcs in cases:
            got = sample_form(m, degree, funcs, dual)
            assert (got.degree, got.dual) == (degree, dual)
            assert got.data.tobytes() == full_grid_sample(m, degree, funcs, dual).tobytes()

    @pytest.mark.parametrize("degree,funcs", [
        (1, [np.sin] * 4),  # one too many
        (1, [np.sin] * 2),  # the third component would stay zero unasked
        (1, np.sin),  # a bare callable for three components
        (2, [np.sin, 1.0, None]),  # an entry that is not a callable
        (0, [np.sin] * 3),  # a list where one callable goes
        (3, 2.0),
    ])
    def test_malformed_funcs_are_rejected(self, mesh, degree, funcs):
        with pytest.raises(ValueError, match=f"degree-{degree} form samples"):
            sample_form(mesh, degree, funcs)


class TestExteriorDerivative:
    def test_constant_scalar_has_zero_gradient(self, mesh):
        f = FormField(mesh, 0, np.full(mesh.dims, 3.7))
        assert not exterior_derivative(f).data.any()

    def test_dd_vanishes_to_rounding(self, mesh):
        rng = np.random.default_rng(0)
        f = FormField(mesh, 0, rng.standard_normal(mesh.dims))
        dd = exterior_derivative(exterior_derivative(f))
        assert np.abs(dd.data).max() <= 8 * np.finfo(float).eps * np.abs(f.data).max()

    @pytest.mark.parametrize("dims", [(8, 6, 4), (40, 20, 24)])
    @pytest.mark.parametrize("degree,dual", [(0, False), (1, False), (1, True), (2, True)])
    def test_out_receives_the_same_bits(self, dims, degree, dual):
        # (40, 20, 24) is worked in several slabs, (8, 6, 4) in one
        m = Mesh(dims, spacing=0.7)
        shape = dims if degree == 0 else (3, *dims)
        alpha = FormField(m, degree, np.random.default_rng(degree).standard_normal(shape), dual)
        expected = exterior_derivative(alpha)
        out = np.full(expected.data.shape, np.nan)
        got = exterior_derivative(alpha, out=out)
        assert got.data is out and out.tobytes() == expected.data.tobytes()
        with pytest.raises(ValueError):
            exterior_derivative(alpha, out=np.empty((2, *dims)))

    def test_sine_curl_matches_centered_difference(self):
        # a 1-form with only the middle component, varying along the first
        # axis, has a single curl component on the matching faces
        errs = {}
        for n in (16, 32):
            m = Mesh((n, 4, 4))
            L = m.extent[0]
            k = 2 * np.pi / L
            alpha = sample_form(m, 1, [None, lambda x, y, z: np.sin(k * x), None])
            d = exterior_derivative(alpha)
            x_face = m.coords(d.offsets()[2])[0]
            analytic = k * np.cos(k * x_face)
            errs[n] = np.abs(d.data[2] - analytic).max()
            assert errs[n] < k**3 / 12  # second-order bound, ~ k^3 h^2 / 24
            assert not d.data[0].any() and not d.data[1].any()
        assert errs[32] < errs[16] / 3.5

    # 1-forms on meshes with a two-cell axis are not in this list: there the
    # (2,4) stencil is 7/6 of the two-point one on every mode, and about 1
    # in 1000 random 1-forms on (2, 2, 2), 1 in 10^4 on (16, 2, 3), exceeds
    # the 8-ulp bound (up to 12 ulp)
    @pytest.mark.parametrize("dims, degree", [
        ((8, 8, 8), 0), ((8, 8, 8), 1), ((2, 2, 2), 0), ((16, 2, 3), 0),
        (SLABBED_MESH, 0), (SLABBED_MESH, 1)])
    @given(dual=st.booleans(), seed=st.integers())
    @settings(max_examples=10, deadline=None)
    def test_dd_vanishes_on_wrapping_and_slabbed_meshes(self, dims, degree, dual, seed):
        rng = np.random.default_rng(seed % (2**32))
        m = Mesh(dims)
        shape = m.dims if degree == 0 else (3, *m.dims)
        alpha = FormField(m, degree, rng.standard_normal(shape), dual)
        dd = exterior_derivative(exterior_derivative(alpha))
        assert np.abs(dd.data).max() <= 8 * np.finfo(float).eps * np.abs(alpha.data).max()

    @pytest.mark.parametrize("dims", [(12, 2, 3), SLABBED_MESH])
    @pytest.mark.parametrize("dual", [False, True])
    def test_symbol_matches_stencil(self, dual, dims):
        # d of exp(i theta j) along the first axis is the mode times the
        # symbol, up to the half-cell phase of the staggering, on every mode
        # of the axis (including Nyquist)
        m = Mesh(dims, spacing=0.5)
        n = dims[0]
        j = np.arange(n)[:, None, None]
        for mode in range(n):
            theta = 2 * np.pi * mode / n
            parts = [exterior_derivative(FormField(
                m, 0, f(theta * j) * np.ones(m.dims), dual)).data[0]
                for f in (np.cos, np.sin)]
            shift = -0.5 if dual else 0.5
            expect = (np.exp(1j * theta * (j + shift))
                      * difference_symbol(theta, m.spacing))
            np.testing.assert_allclose(parts[0] + 1j * parts[1],
                                       np.broadcast_to(expect, m.dims),
                                       rtol=0, atol=1e-12)

    def test_symbol_peak_is_seven_sixths_of_two_point(self):
        theta = np.linspace(0, np.pi, 1001)
        peak = np.abs(difference_symbol(theta)).max()
        assert peak == pytest.approx(abs(difference_symbol(np.pi)))
        assert peak == pytest.approx(2.0 * 7.0 / 6.0)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (16, 32):
            m = Mesh((n, 2, 2), spacing=1.0 / n)
            k = 2 * np.pi
            alpha = sample_form(m, 1, [None, lambda x, y, z: np.sin(k * x), None])
            d = exterior_derivative(alpha)
            x_face = m.coords(d.offsets()[2])[0]
            errs.append(np.abs(d.data[2] - k * np.cos(k * x_face)).max())
        assert np.log2(errs[0] / errs[1]) > 3.9

    def test_degree_three_rejected(self, mesh):
        vol = FormField(mesh, 3, np.ones(mesh.dims))
        with pytest.raises(ValueError):
            exterior_derivative(vol)

    @given(st.integers(0, 1), st.booleans(), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_dd_zero_property(self, degree, dual, seed):
        rng = np.random.default_rng(seed % (2**32))
        m = Mesh((4, 6, 5))
        shape = m.dims if degree == 0 else (3, *m.dims)
        alpha = FormField(m, degree, rng.standard_normal(shape), dual)
        dd = exterior_derivative(exterior_derivative(alpha))
        assert np.abs(dd.data).max() <= 8 * np.finfo(float).eps * np.abs(alpha.data).max()


class TestHodgeStar:
    def test_axis_relabelling(self, mesh):
        one = constant_1form(mesh, [1.0, 0.0, 0.0])
        two = hodge_star(one)
        assert two.degree == 2 and two.dual
        assert two.data[0].min() == two.data[0].max() == 1.0
        assert not two.data[1].any() and not two.data[2].any()

    def test_involution_bitwise(self, mesh):
        rng = np.random.default_rng(1)
        for degree in range(4):
            shape = mesh.dims if degree in (0, 3) else (3, *mesh.dims)
            alpha = FormField(mesh, degree, rng.standard_normal(shape))
            back = hodge_star(hodge_star(alpha))
            assert np.array_equal(back.data, alpha.data)
            assert back.degree == degree and back.dual == alpha.dual

    def test_volume_form_of_ones(self, mesh):
        ones = FormField(mesh, 0, np.ones(mesh.dims))
        vol = hodge_star(ones)
        assert vol.degree == 3
        assert vol.data.min() == vol.data.max() == 1.0


class TestWedge:
    def test_unit_axis_forms(self, mesh):
        a = constant_1form(mesh, [1.0, 0.0, 0.0])
        b = constant_1form(mesh, [0.0, 1.0, 0.0])
        w = wedge(a, b)
        assert w.degree == 2
        np.testing.assert_array_equal(w.data[2], np.ones(mesh.dims))
        assert not w.data[0].any() and not w.data[1].any()

    def test_metric_square_of_constant_1form(self, mesh):
        a = constant_1form(mesh, [1.0, 2.0, 3.0])
        w = wedge(a, hodge_star(a))
        assert w.degree == 3
        np.testing.assert_allclose(w.data, 14.0)

    def test_triple_product_constant(self, mesh):
        delta = constant_1form(mesh, [1.0, 0.0, 0.0])
        F = constant_2form(mesh, [5.0, 0.0, 0.0])  # the (2,3)-face component
        scalar = hodge_star(wedge(delta, F))
        assert scalar.degree == 0
        np.testing.assert_array_equal(scalar.data, np.full(mesh.dims, 5.0))

    def test_antisymmetry_of_1_1(self, mesh):
        rng = np.random.default_rng(2)
        a = FormField(mesh, 1, rng.standard_normal((3, *mesh.dims)))
        b = FormField(mesh, 1, rng.standard_normal((3, *mesh.dims)))
        ab = wedge(a, b)
        ba = wedge(b, a)
        np.testing.assert_array_equal(ab.data, -ba.data)

    def test_symmetry_of_1_2_pairs(self, mesh):
        rng = np.random.default_rng(3)
        a = FormField(mesh, 1, rng.standard_normal((3, *mesh.dims)))
        F = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)))
        np.testing.assert_array_equal(wedge(a, F).data, wedge(F, a).data)

    def test_scalar_scaling(self, mesh):
        rng = np.random.default_rng(4)
        s = FormField(mesh, 0, np.full(mesh.dims, 2.0))
        a = FormField(mesh, 1, rng.standard_normal((3, *mesh.dims)))
        np.testing.assert_allclose(wedge(s, a).data, 2.0 * a.data)

    def test_unsupported_degrees_rejected(self, mesh):
        F = constant_2form(mesh, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            wedge(F, F)


class TestIntegrate:
    def test_constant_density(self):
        m = Mesh((8, 8, 8), spacing=0.5)
        vol = FormField(m, 3, np.ones(m.dims))
        assert integrate(vol) == 64.0  # (N h)^3

    def test_zero_field(self, mesh):
        assert integrate(FormField(mesh, 3, np.zeros(mesh.dims))) == 0.0

    def test_sin_squared_over_full_periods(self):
        m = Mesh((32, 4, 4), spacing=0.25)
        L = m.extent[0]
        dens = sample_form(m, 3, lambda x, y, z: np.sin(2 * np.pi * x / L) ** 2)
        volume = m.extent[0] * m.extent[1] * m.extent[2]
        assert abs(integrate(dens) - volume / 2) < 1e-12 * volume

    def test_box_region(self, mesh):
        vol = FormField(mesh, 3, np.ones(mesh.dims))
        box = Region(lo=(0, 0, 0), hi=(4, 4, 4))
        assert integrate(vol, box) == 64.0
        with pytest.raises(ValueError):
            integrate(vol, Region(lo=(0, 0, 0), hi=(9, 4, 4)))

    @pytest.mark.parametrize("bounds,named", [
        (dict(hi=(2, 2, 2)), "lo"), (dict(lo=(0, 0, 0)), "hi"),
        (dict(lo=(0, 0), hi=(1, 1)), "lo"), (dict(lo=(0, 0, 0), hi=(2, 2, 2.5)), "hi"),
        (dict(lo=(0, 0, 0), hi=(1, 1, 1, 1)), "hi"), (dict(lo=0, hi=(1, 1, 1)), "lo"),
    ])
    def test_malformed_box_is_rejected(self, bounds, named):
        # a box needs both bounds, each 3 integers; no lo once meant the whole domain
        with pytest.raises(ValueError, match=f"region box {named} must be 3 integers"):
            Region(**bounds)

    def test_stokes_on_periodic_domain(self, mesh):
        rng = np.random.default_rng(5)
        alpha = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)))
        total = integrate(exterior_derivative(alpha))
        bound = 1e-12 * np.abs(alpha.data).max() * np.prod(mesh.dims)
        assert abs(total) <= bound

    def test_wrong_degree_rejected(self, mesh):
        with pytest.raises(ValueError):
            integrate(FormField(mesh, 0, np.ones(mesh.dims)))


class TestPoyntingDivergence:
    @pytest.mark.parametrize("dims", [*WRAPPING_MESHES, (4, 6, 5), SLABBED_MESH])
    def test_pairs_exactly_with_d(self, dims):
        # the semi-discrete energy rate mean(e . dh) - mean(h . de) of the
        # energy density's edge and face means is minus the divergence
        rng = np.random.default_rng(7)
        m = Mesh(dims, spacing=0.7)
        e = FormField(m, 1, rng.standard_normal((3, *dims)))
        h = FormField(m, 1, rng.standard_normal((3, *dims)), dual=True)
        rate = pairing_density(exterior_derivative(h),
                               -1.0 * exterior_derivative(e), e, h)
        div = poynting_divergence(e, h)
        assert div.degree == 3 and not div.dual
        scale = np.abs(rate.data).max()
        np.testing.assert_allclose(div.data, -rate.data, rtol=0,
                                   atol=1e-14 * scale)

    def test_box_integral_is_boundary_flux(self):
        # the divergence telescopes: over the whole periodic box it sums to
        # zero, and constant crossed fields carry no net flux anywhere
        rng = np.random.default_rng(8)
        m = Mesh((8, 6, 4))
        e = FormField(m, 1, rng.standard_normal((3, *m.dims)))
        h = FormField(m, 1, rng.standard_normal((3, *m.dims)), dual=True)
        div = poynting_divergence(e, h)
        assert abs(integrate(div)) <= 1e-13 * np.abs(div.data).max() * div.data.size
        e0 = constant_1form(m, [0.0, 0.5, 0.0])
        h0 = constant_1form(m, [0.0, 0.0, 0.25], dual=True)
        assert not poynting_divergence(e0, h0).data.any()

    def test_operand_guard(self, mesh):
        e = constant_1form(mesh, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            poynting_divergence(e, e)

    @pytest.mark.parametrize("dims", [*WRAPPING_MESHES, (4, 6, 5), SLABBED_MESH])
    def test_matches_rolled_flux_bitwise(self, dims):
        rng = np.random.default_rng(sum(dims))
        m = Mesh(dims, spacing=0.7)
        signed_zeros = [np.where(rng.random((3, *dims)) < 0.5, -0.0, 0.0) for _ in range(2)]
        for e_data, h_data in [rng.standard_normal((2, 3, *dims)), signed_zeros]:
            div = poynting_divergence(FormField(m, 1, e_data), FormField(m, 1, h_data, dual=True))
            assert div.data.tobytes() == rolled_divergence(e_data, h_data, 0.7).tobytes()


# the flux form of poynting_divergence written out with np.roll, grouped as
# the implementation rounds it: F = C1 F1 + C3 F3 over C1 / 2 per face
C1, C3 = 9.0 / 8.0, -1.0 / 24.0


def rolled_flux(e, h, ax):
    """e_i (h_{i+1/2} + h_{i-1/2}) + (C3 / C1) e_i (h_{i+3/2} + h_{i-3/2})
    + (2 C3 / C1) (e_{i-1} h_{i+1/2} + e_{i+1} h_{i-1/2}), where h[i] is h_{i+1/2}."""
    def at(x, s):
        return np.roll(x, -s, ax)
    f1 = (h + at(h, -1) + (at(h, 1) + at(h, -2)) * (C3 / C1)) * e
    f3 = (at(e, -1) * h + at(e, 1) * at(h, -1)) * (2.0 * C3 / C1)
    return f1 + f3


def rolled_divergence(e, h, spacing):
    """Net flux out of each cell: per axis c, the face flux e_a h_b - e_b h_a
    summed over its shared transverse axis, then differenced along c."""
    div = None
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        f_ab, f_ba = rolled_flux(e[a], h[b], c), rolled_flux(e[b], h[a], c)
        net = (f_ab + np.roll(f_ab, -1, b)) - (f_ba + np.roll(f_ba, -1, a))
        step = np.roll(net, -1, c) - net
        div = step if div is None else div + step
    return div * (0.25 * C1 / spacing)


class TestInnerProduct:
    def test_unit_component(self, mesh):
        a = constant_1form(mesh, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(inner_product_1forms(a, a).data,
                                      np.ones(mesh.dims))

    def test_constant_pairing(self, mesh):
        a = constant_1form(mesh, [1.0, 2.0, 3.0])
        b = constant_1form(mesh, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(inner_product_1forms(a, b).data, 10.0)

    def test_degree_guard(self, mesh):
        a = constant_1form(mesh, [1.0, 0.0, 0.0])
        F = constant_2form(mesh, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            inner_product_1forms(a, F)


# the two-point means written out with np.roll, one axis at a time in axis
# order, as the independent oracle of resample and the products built on it
OFFSETS = list(itertools.product((0.0, 0.5), repeat=3))


def rolled_mean(x, ax, src, dst):
    if dst > src:  # 0 -> 1/2
        return 0.5 * (x + np.roll(x, -1, ax))
    return 0.5 * (np.roll(x, 1, ax) + x)  # 1/2 -> 0


def rolled_means(x, src, dst):
    for ax in range(3):
        if src[ax] != dst[ax]:
            x = rolled_mean(x, ax, src[ax], dst[ax])
    return x


def rolled_term(u, off_u, v, off_v, target):
    """Each factor meaned where it alone is off the target, then the product."""
    shared = []
    for ax in range(3):
        if off_u[ax] != target[ax] and off_v[ax] != target[ax]:
            shared.append(ax)
        elif off_u[ax] != target[ax]:
            u = rolled_mean(u, ax, off_u[ax], target[ax])
        elif off_v[ax] != target[ax]:
            v = rolled_mean(v, ax, off_v[ax], target[ax])
    prod = u * v
    for ax in shared:
        prod = rolled_mean(prod, ax, off_u[ax], target[ax])
    return prod


def layouts(x):
    """C-ordered, Fortran-ordered and strided-view copies of one array."""
    wide = np.zeros((*x.shape[:-1], 2 * x.shape[-1]))
    wide[..., ::2] = x
    return {"C": x, "F": np.asfortranarray(x), "strided": wide[..., ::2]}


class TestTwoPointMeans:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (16, 2, 3), (12, 8, 10)])
    def test_resample_matches_rolled_means_bitwise(self, dims):
        x = np.random.default_rng(sum(dims)).standard_normal(dims)
        for layout, arr in layouts(x).items():
            for src, dst in itertools.product(OFFSETS, OFFSETS):
                got = resample(arr, src, dst)
                assert got.tobytes() == rolled_means(x, src, dst).tobytes(), (layout, src, dst)
                out = np.empty(dims)
                assert resample(arr, src, dst, out=out) is out
                assert out.tobytes() == got.tobytes(), (layout, src, dst)

    @pytest.mark.parametrize("dual_a,dual_b", list(itertools.product((False, True), repeat=2)))
    def test_products_match_rolled_means_bitwise(self, dual_a, dual_b):
        dims = (12, 8, 10)
        rng = np.random.default_rng(5)
        m = Mesh(dims)
        a_data, b_data = (rng.standard_normal((3, *dims)) for _ in range(2))
        offs_a, offs_b = component_offsets(1, dual_a), component_offsets(1, dual_b)
        for layout, data in layouts(a_data).items():
            a, b = FormField(m, 1, data, dual_a), FormField(m, 1, b_data, dual_b)
            expected = np.zeros((3, *dims))
            for c in range(3):
                i, j = (c + 1) % 3, (c + 2) % 3
                target = component_offsets(2)[c]
                expected[c] = (rolled_term(a_data[i], offs_a[i], b_data[j], offs_b[j], target)
                               - rolled_term(a_data[j], offs_a[j], b_data[i], offs_b[i], target))
            assert wedge(a, b).data.tobytes() == expected.tobytes(), layout
            expected = np.zeros(dims)
            for c in range(3):
                expected += rolled_term(a_data[c], offs_a[c], b_data[c], offs_b[c], (0.0,) * 3)
            assert inner_product_1forms(a, b).data.tobytes() == expected.tobytes(), layout


class TestMemoryPeaks:
    """Traced peaks, in whole field arrays, of the products, the media and
    the dec suite's convergence check."""

    DIMS = (32, 32, 32)

    @pytest.mark.parametrize("name,arrays", [
        ("wedge_1_1", 5), ("wedge_1_2", 3), ("inner_product", 3), ("energy_density", 4),
        ("medium", 8), ("sample_form", 3),
    ])
    def test_peak_stays_pinned(self, name, arrays, peak_arrays):
        rng = np.random.default_rng(6)
        m = Mesh(self.DIMS)

        def field(degree, dual=False):
            return FormField(m, degree, rng.standard_normal((3, *self.DIMS)), dual)

        e, e2, B, D = field(1), field(1), field(2), field(2, dual=True)
        eps, mu = 1.0 + rng.random(self.DIMS), 1.0 + rng.random(self.DIMS)
        medium = MediumProfile(m, eps, mu)
        calls = {
            "wedge_1_1": lambda: wedge(e, e2),
            "wedge_1_2": lambda: wedge(e, B),
            "inner_product": lambda: inner_product_1forms(e, e2),
            "energy_density": lambda: energy_density(D, B, medium),
            "medium": lambda: MediumProfile(m, eps, mu),
            # the convergence oracle's 1-form; full meshgrids peaked at 9 arrays
            "sample_form": lambda: sample_form(m, 1, [
                lambda x, y, z: np.sin(x) * np.cos(y), lambda x, y, z: np.cos(y) * np.sin(z),
                None]),
        }
        # the outputs count; scratch below half an array (plane buffers) does not
        assert peak_arrays(calls[name], self.DIMS) < arrays + 0.5

    @pytest.mark.parametrize("preset,arrays", [
        ("vacuum", 0.01), ("uniform", 0.01), ("sech_slab", 0.1),
    ])
    def test_compact_media_stay_below_a_field_array(self, preset, arrays, peak_arrays):
        # media are stored only along the axes they vary on
        m = Mesh(self.DIMS)
        build = {
            "vacuum": lambda: MediumProfile.vacuum(m),
            "uniform": lambda: MediumProfile.uniform(m, 2.0, 3.0),
            "sech_slab": lambda: MediumProfile.sech_slab(m, 2.0, 8.0, 1.0),
        }[preset]
        assert peak_arrays(build, self.DIMS) < arrays

    def test_dec_suite_holds_one_field_set_at_a_time(self, peak_arrays):
        # the 64^3 level of the convergence check sets the suite's peak: two
        # 1-forms and a 1^1 wedge (11 arrays) at most, 11.4 measured; holding
        # every array of the check at once peaked at 21.5
        assert peak_arrays(lambda: suite_dec(0), (64, 64, 64)) <= 13
