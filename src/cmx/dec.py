"""Discrete exterior calculus on a uniform periodic 3D grid.

Fields are differential forms of degree 0..3 stored component-wise against
an orthonormal right-handed coframe, on a staggered (Yee-type) complex:

    primal 0-form   nodes          offset (0, 0, 0)
    primal 1-form   edges, comp a  offset Delta/2 along axis a
    primal 2-form   faces, comp a  offset Delta/2 along both axes != a
    primal 3-form   cells          offset (Delta/2, Delta/2, Delta/2)

A field may instead live on the dual complex (cell centers as dual nodes);
a dual q-form occupies the primal (3-q) locations, so the Hodge star is a
pure component relabelling between collocated arrays and ``star(star(x))``
is the identity bit for bit.  The exterior derivative applies the
fourth-order (2,4) staggered difference of Fang (1989), 9/8 of the
one-cell difference minus 1/24 of the three-cell one, forward on the
primal complex and backward on the dual one; `difference_symbol` is its
Fourier symbol.  Products of forms (`wedge`, `resample`) move values with
two-point means; the energy flux that pairs exactly with the four-point
difference is `poynting_divergence`, a whole-field oracle.  Every periodic
shift, in the differences, the flux and the means alike, goes through one
primitive, `_periodic`.  Two kernels work big fields in slabs:
`exterior_derivative` here, run every step, and `fiber._cell_means`, which
forms the energy update and every density.  All factors of the grid
spacing live in ``exterior_derivative``, ``poynting_divergence`` and
``integrate``.

2-form component ``a`` is the coefficient of sigma^b ^ sigma^c with
(a, b, c) a cyclic permutation of (0, 1, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "FormField",
    "Region",
    "WHOLE",
    "difference_symbol",
    "exterior_derivative",
    "hodge_star",
    "poynting_divergence",
    "wedge",
    "integrate",
    "inner_product_1forms",
    "sample_form",
]


# the most cells a mesh may hold: numpy must be able to index a 1-form on it,
# three float64 components per cell
_MAX_CELLS = np.iinfo(np.intp).max // 24


class Mesh:
    """Uniform periodic grid with cubic cells of side ``spacing``."""

    def __init__(self, dims, spacing=1.0):
        dims = tuple(int(n) for n in dims)
        cells = math.prod(dims)  # exact: numpy's product wraps in int64
        if len(dims) != 3 or any(n < 2 for n in dims) or cells < 8:
            raise ValueError(f"mesh dims must be 3 integers >= 2 with >= 8 cells, got {dims}")
        if cells > _MAX_CELLS:
            raise ValueError(f"mesh dims {dims} hold {cells} cells, more than the "
                             f"{_MAX_CELLS} a field array can index")
        if not (np.isfinite(spacing) and spacing > 0):
            raise ValueError(f"spacing must be finite and positive, got {spacing}")
        self.dims = dims
        self.spacing = float(spacing)

    @property
    def cell_volume(self):
        return self.spacing ** 3

    @property
    def extent(self):
        """Periodic box side lengths (N_a * spacing)."""
        return tuple(n * self.spacing for n in self.dims)

    def axis_coords(self, axis, offset):
        """1D coordinates (i + offset) * spacing along one axis."""
        return (np.arange(self.dims[axis]) + offset) * self.spacing

    def coord_axes(self, offset):
        """Coordinates along each axis at a staggered offset, shaped to broadcast.

        ``offset`` is a 3-tuple with entries in {0, 1/2} in units of the
        spacing; returns three arrays of shapes (N1, 1, 1), (1, N2, 1) and
        (1, 1, N3).  An elementwise function of them broadcasts to its
        values at every sample point, and costs only its own arithmetic.
        """
        return [self.axis_coords(a, offset[a]).reshape([-1 if b == a else 1 for b in range(3)])
                for a in range(3)]

    def coords(self, offset):
        """Meshgrid coordinates of every sample point at a staggered offset:
        three (N1, N2, N3) arrays, the `coord_axes` broadcast to the mesh."""
        axes = [self.axis_coords(a, offset[a]) for a in range(3)]
        return np.meshgrid(*axes, indexing="ij")

    def __eq__(self, other):
        return (
            isinstance(other, Mesh)
            and self.dims == other.dims
            and self.spacing == other.spacing
        )

    def __hash__(self):
        return hash((self.dims, self.spacing))

    def __repr__(self):
        return f"Mesh(dims={self.dims}, spacing={self.spacing})"


def _primal_offset(degree, comp):
    if degree == 0:
        return (0.0, 0.0, 0.0)
    if degree == 1:
        return tuple(0.5 if ax == comp else 0.0 for ax in range(3))
    if degree == 2:
        return tuple(0.0 if ax == comp else 0.5 for ax in range(3))
    return (0.5, 0.5, 0.5)


def component_offsets(degree, dual=False):
    """Staggered offsets (units of spacing) of each stored component."""
    placement_degree = 3 - degree if dual else degree
    ncomp = 3 if degree in (1, 2) else 1
    return [_primal_offset(placement_degree, c) for c in range(ncomp)]


@dataclass(frozen=True)
class FormField:
    """A discrete differential form: degree, complex flag, component data.

    ``data`` has shape (N1, N2, N3) for degrees 0 and 3 and (3, N1, N2, N3)
    for degrees 1 and 2.  Arithmetic on forms allocates fresh outputs, and
    an operation writes into an existing array only where its ``out`` names
    one.  `cmx.dynamics.run_scenario` steps its own state in place, so the
    forms of a state it hands a sink hold their values only until its next
    step.
    """

    mesh: Mesh
    degree: int
    data: np.ndarray
    dual: bool = False

    def __post_init__(self):
        if self.degree not in (0, 1, 2, 3):
            raise ValueError(f"form degree must be 0..3, got {self.degree}")
        expected = self.mesh.dims if self.degree in (0, 3) else (3, *self.mesh.dims)
        if self.data.shape != expected:
            raise ValueError(
                f"component array shape {self.data.shape} does not match "
                f"degree-{self.degree} field on mesh {self.mesh.dims}"
            )

    @classmethod
    def zeros(cls, mesh, degree, dual=False):
        shape = mesh.dims if degree in (0, 3) else (3, *mesh.dims)
        return cls(mesh, degree, np.zeros(shape), dual)

    @property
    def ncomp(self):
        return 3 if self.degree in (1, 2) else 1

    def component(self, a):
        return self.data[a] if self.degree in (1, 2) else self.data

    def offsets(self):
        return component_offsets(self.degree, self.dual)

    def copy(self):
        return FormField(self.mesh, self.degree, self.data.copy(), self.dual)

    def __add__(self, other):
        self._check_like(other)
        return FormField(self.mesh, self.degree, self.data + other.data, self.dual)

    def __sub__(self, other):
        self._check_like(other)
        return FormField(self.mesh, self.degree, self.data - other.data, self.dual)

    def __mul__(self, scalar):
        return FormField(self.mesh, self.degree, self.data * scalar, self.dual)

    __rmul__ = __mul__

    def __neg__(self):
        return FormField(self.mesh, self.degree, -self.data, self.dual)

    def _check_like(self, other):
        if not isinstance(other, FormField):
            raise TypeError("expected a FormField")
        if (self.mesh, self.degree, self.dual) != (other.mesh, other.degree, other.dual):
            raise ValueError("fields live on different meshes, degrees, or complexes")


def sample_form(mesh, degree, funcs, dual=False):
    """Build a form by evaluating callables f(X1, X2, X3) at its sample points.

    ``funcs`` is a single callable (degrees 0, 3) or a list or tuple of
    exactly three (degrees 1, 2); a None entry leaves that component zero,
    and anything else raises ValueError.  Each callable receives its
    component's `Mesh.coord_axes`, shaped (N1, 1, 1), (1, N2, 1) and
    (1, 1, N3), and must be elementwise: its result, of any shape that
    broadcasts to the mesh (a scalar too), is broadcast into the component,
    so it is sampled at the cost of its own arithmetic.
    """
    field = FormField.zeros(mesh, degree, dual)
    fs = [funcs] if field.ncomp == 1 else funcs
    if not (isinstance(fs, (list, tuple)) and len(fs) == field.ncomp
            and all(f is None or callable(f) for f in fs)):
        wanted = "a callable" if field.ncomp == 1 else "a list or tuple of three callables"
        raise ValueError(f"a degree-{degree} form samples {wanted} (or None), got {funcs!r}")
    for c, (f, offset) in enumerate(zip(fs, field.offsets())):
        if f is not None:
            field.component(c)[...] = f(*mesh.coord_axes(offset))
    return field


@dataclass(frozen=True)
class Region:
    """Integration region: the whole periodic domain or a cell-index box.

    A box is half-open, ``lo[a] <= i_a < hi[a]``, in cell indices.
    """

    lo: tuple | None = None
    hi: tuple | None = None

    def __post_init__(self):
        if self.lo is None and self.hi is None:
            return
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if not (isinstance(bound, (tuple, list)) and len(bound) == 3
                    and all(isinstance(i, (int, np.integer)) for i in bound)):
                raise ValueError(f"region box {name} must be 3 integers, got {bound!r}")

    @property
    def is_whole(self):
        return self.lo is None

    def slices(self, mesh):
        if self.is_whole:
            return (slice(None),) * 3
        lo, hi = self.lo, self.hi
        for a in range(3):
            if not (0 <= lo[a] < hi[a] <= mesh.dims[a]):
                raise ValueError(f"region box {lo}..{hi} outside mesh dims {mesh.dims}")
        return tuple(slice(lo[a], hi[a]) for a in range(3))


WHOLE = Region()


# The (2,4) staggered difference: _C1 times the one-cell difference plus _C3
# times the three-cell one.  _C1 + 3 _C3 = 1, so it is also the one-cell
# difference plus _C3 times the third difference centred on the same point.
_C1, _C3 = 9.0 / 8.0, -1.0 / 24.0


def difference_symbol(theta, spacing=1.0):
    """Fourier symbol of the staggered difference at phase advance ``theta = k h``.

    A mode exp(i k x) sampled at each component's own staggered coordinate
    is multiplied by this centred value, 2i/h (C1 sin(theta/2) + C3
    sin(3 theta/2)), under the forward (primal) and the backward (dual)
    difference alike; on array indices the forward difference carries the
    extra factor exp(i theta / 2).  Its modulus peaks at (7/6)(2/h), at
    theta = pi.
    """
    theta = np.asarray(theta, dtype=float)
    return (2j / spacing) * (_C1 * np.sin(0.5 * theta) + _C3 * np.sin(1.5 * theta))


# (shape, axis, sa, sb) -> the flat slices of `_periodic`'s one pass (or
# None) and the index tuples of the hyperplanes it redoes; on small fields
# working them out cost more than the arithmetic
_PERIODIC_PLANS = {}


def _periodic(op, a, sa, b, sb, axis, out):
    """out_i = op(a_{i+sa}, b_{i+sb}) along ``axis``, with periodic indices.

    The module's one periodic shift: `_rows` calls it for the differences
    of `exterior_derivative`, `_flux_pairing` and `poynting_divergence`
    for the flux, and `_mean_half` for the two-point means of `resample`
    and the products built on it.  One pass over the flattened arrays is
    right wherever neither shifted index leaves [0, n); the few
    hyperplanes where one wraps are redone from their periodic images.
    The flat slices come from ``a.strides``, so ``a``, ``b`` and ``out``
    must be C-contiguous arrays of one shape, and ``out`` must overlap
    neither input.
    """
    key = (a.shape, axis, sa, sb)
    plan = _PERIODIC_PLANS.get(key)
    if plan is None:
        n = a.shape[axis]
        lo, hi = max(0, -sa, -sb), max(0, sa, sb)
        flat, planes = None, range(n)
        if lo + hi < n:
            stride = a.strides[axis] // a.itemsize
            start, stop = lo * stride, a.size - hi * stride
            flat = (slice(start + sa * stride, stop + sa * stride),
                    slice(start + sb * stride, stop + sb * stride), slice(start, stop))
            planes = (*range(lo), *range(n - hi, n))
        lead = (slice(None),) * axis
        plan = _PERIODIC_PLANS[key] = (flat, [
            (lead + ((i + sa) % n,), lead + ((i + sb) % n,), lead + (i,)) for i in planes])
    flat, planes = plan
    if flat is not None:
        op(a.reshape(-1)[flat[0]], b.reshape(-1)[flat[1]], out=out.reshape(-1)[flat[2]])
    for ia, ib, io in planes:
        op(a[ia], b[ib], out=out[io])
    return out


# `exterior_derivative`, run every step, works big fields in slabs of whole
# planes along the first axis, small enough that a slab's scratch arrays
# stay in a core's cache (and are reused by the allocator rather than
# faulted in afresh); a field that fits one slab is worked whole.  Against
# whole-field passes, `run_scenario` on the benchmark's configs (outputs
# byte-identical) runs the 64^3 slab pulse ~10% faster (16 of 20
# alternating in-process reps) and the 48^3 archive run ~9% faster (19 of
# 20), but the 32^3 EH run, two slabs, ~5% slower (29 of 40); 2-vCPU x86,
# 4 MiB L2.  A slab that is not the whole axis reads _HALO planes beyond
# either side of it for the shifts along that axis.
_SLAB_BYTES = 1 << 17
_HALO = 2


def _slabs(dims, nbytes=_SLAB_BYTES):
    """(first, end) plane ranges of slabs of at most ``nbytes`` per array."""
    step = max(1, nbytes // (8 * dims[1] * dims[2]))
    return [(i0, min(i0 + step, dims[0])) for i0 in range(0, dims[0], step)]


def _planes(arr, lo, hi, buf):
    """Planes lo..hi-1 along the first axis of ``arr``, indices periodic.

    A view of ``arr`` when no index wraps, else assembled in ``buf``.
    """
    if 0 <= lo and hi <= len(arr):
        return arr[lo:hi]
    return np.take(arr, range(lo, hi), axis=0, out=buf[:hi - lo], mode="wrap")


def _rows(op, a, sa, b, sb, axis, out, base=None):
    """out_j = op(a, b) at the planes base + j, shifted by sa and sb along axis.

    The shifts of `exterior_derivative`'s differences.  With ``base`` None
    the arrays hold whole fields and every shift is periodic.  Otherwise
    they hold a slab with extra planes: along the first axis the shifts
    select other planes, which ``a`` and ``b`` must hold; along the other
    two they are periodic.
    """
    if base is None:
        return _periodic(op, a, sa, b, sb, axis, out)
    n = len(out)
    if axis == 0:
        return op(a[base + sa: base + sa + n], b[base + sb: base + sb + n], out=out)
    return _periodic(op, a[base: base + n], sa, b[base: base + n], sb, axis, out)


def _difference_parts(arr, axis, forward, rows, work, halo):
    """The two parts of the (2,4) difference of a slab along ``axis``.

    ``arr`` holds the slab's ``rows`` planes, plus _HALO planes on either
    side when ``halo`` is set and ``axis`` is the first.  Returns views of
    ``work`` holding the one-cell difference and the third difference
    centred on the same point; the difference is ``one + _C3 * third``.
    Forward differences land half a cell ahead of the samples, backward
    ones half a cell behind.
    """
    one, tmp, third = work
    third = third[:rows]
    framed = halo and axis == 0
    if framed:
        # one-cell differences from the plane before the slab to the one
        # after it, second differences from the slab's first plane on
        one, tmp = one[:rows + 2], tmp[:rows + 1]
        arr_base, one_base, tmp_base = _HALO - 1, 1, 0
    else:
        one, tmp = one[:rows], tmp[:rows]
        arr_base = one_base = tmp_base = None
    if forward:
        _rows(np.subtract, arr, 1, arr, 0, axis, one, arr_base)
    else:
        _rows(np.subtract, arr, 0, arr, -1, axis, one, arr_base)
    _rows(np.subtract, one, 0, one, -1, axis, tmp, one_base)
    _rows(np.subtract, tmp, 1, tmp, 0, axis, third, tmp_base)
    return (one[1:rows + 1] if framed else one), third


def _mean_half(arr, axis, src, dst, out):
    """Two-point mean moving one component offset between 0 and 1/2, into ``out``."""
    if dst > src:  # 0 -> 1/2, value centred at i + 1/2
        _periodic(np.add, arr, 0, arr, 1, axis, out)
    else:  # 1/2 -> 0, centred at i
        _periodic(np.add, arr, -1, arr, 0, axis, out)
    out *= 0.5
    return out


def resample(arr, src_offset, dst_offset, out=None):
    """Average an array from one staggered offset to another, axis by axis.

    The last two-point mean lands in ``out`` if given (C-contiguous, not
    overlapping ``arr``); with no axis to move, ``arr`` is returned or copied.
    """
    axes = [ax for ax in range(3) if src_offset[ax] != dst_offset[ax]]
    if not axes:
        if out is None:
            return arr
        np.copyto(out, arr)
        return out
    arr = np.ascontiguousarray(arr, dtype=float)
    if out is None:
        out = np.empty(arr.shape)
    # the means alternate between out and one spare, so the last lands in out
    bufs = (out, np.empty(arr.shape) if len(axes) > 1 else None)
    for k, ax in enumerate(axes):
        arr = _mean_half(arr, ax, src_offset[ax], dst_offset[ax], bufs[(len(axes) - 1 - k) % 2])
    return arr


def exterior_derivative(alpha, out=None):
    """Discrete d: staggered (2,4) differences divided by the spacing.

    Forward differences on the primal complex, backward on the dual, so
    that d of a form lands on the staggered location of its degree.  The
    differences along different axes commute, so d(d(x)) vanishes to
    rounding on either complex.  ``out`` may name the C-contiguous array,
    not overlapping ``alpha.data``, that receives the result's components.
    """
    if alpha.degree == 3:
        raise ValueError("exterior derivative of a 3-form is not defined")
    forward = not alpha.dual
    data = np.ascontiguousarray(alpha.data, dtype=float)
    dims = alpha.mesh.dims
    q = alpha.degree
    # (input component, axis, sign) terms of each output component, the
    # first one positive; the one-cell parts are summed apart from the
    # third-difference parts, so the large part rounds as in the two-point
    # scheme and d(d(x)) stays within a few ulp
    if q == 0:
        terms = [[(None, a, 1)] for a in range(3)]
    elif q == 1:
        terms = [[((a + 2) % 3, (a + 1) % 3, 1), ((a + 1) % 3, (a + 2) % 3, -1)]
                 for a in range(3)]
    else:
        terms = [[(a, a, 1) for a in range(3)]]
    shape = dims if q == 2 else (3, *dims)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    # the one-cell parts are summed in the output's own planes
    acc = out.reshape(len(terms), *dims)
    inv_h = 1.0 / alpha.mesh.spacing
    slabs = _slabs(dims)
    halo = len(slabs) > 1
    span = max(i1 - i0 for i0, i1 in slabs)
    work = [np.empty((span + 2, *dims[1:])) for _ in range(3)]
    third = np.empty((span, *dims[1:]))
    frame = np.empty((span + 2 * _HALO, *dims[1:]))
    for i0, i1 in slabs:
        rows = i1 - i0
        acc_third = third[:rows]
        for k, comp_terms in enumerate(terms):
            acc_one = acc[k, i0:i1]
            for n, (comp, axis, sign) in enumerate(comp_terms):
                arr = data if comp is None else data[comp]
                framed = halo and axis == 0
                if framed:
                    arr = _planes(arr, i0 - _HALO, i1 + _HALO, frame)
                else:
                    arr = arr[i0:i1]
                # the first term lands in the sums directly unless framed
                direct = n == 0 and not framed
                parts = (acc_one, work[1], acc_third) if direct else work
                g, t = _difference_parts(arr, axis, forward, rows, parts, halo)
                if n == 0:
                    if not direct:
                        np.copyto(acc_one, g)
                        np.copyto(acc_third, t)
                else:
                    op = np.add if sign > 0 else np.subtract
                    op(acc_one, g, out=acc_one)
                    op(acc_third, t, out=acc_third)
            acc_third *= _C3
            acc_one += acc_third
            acc_one *= inv_h
    return FormField(alpha.mesh, q + 1, out, alpha.dual)


def hodge_star(alpha):
    """Orthonormal diagonal Hodge: degree q <-> 3-q across the two complexes.

    Component arrays are copied unchanged (collocated relabelling,
    sigma^a -> sigma^b ^ sigma^c cyclically), so star(star(x)) == x exactly.
    """
    return FormField(alpha.mesh, 3 - alpha.degree, alpha.data.copy(), not alpha.dual)


def _wedge_term(u, off_u, v, off_v, target):
    """One product term of a wedge, averaged onto the target offset.

    Axes where a single factor is misaligned average that factor; axes
    where both factors share a misaligned offset average the product.
    Each move is a two-point mean, so the result is second order (the
    products stay two-point even though `exterior_derivative` is fourth
    order; `poynting_divergence` widens the one pairing that must match d).
    """
    shared = [ax for ax in range(3) if off_u[ax] != target[ax] and off_v[ax] != target[ax]]
    mid = tuple(off_u[ax] if ax in shared else target[ax] for ax in range(3))
    u, v = resample(u, off_u, mid), resample(v, off_v, mid)
    # the product reuses a fresh mean's array, and the other mean is freed
    prod = np.multiply(u, v, out=u if mid != off_u else v if mid != off_v else np.empty(u.shape))
    del u, v
    # the product's means alternate between its own array and one spare
    spare = np.empty(prod.shape) if shared else None
    for ax in shared:
        prod, spare = _mean_half(prod, ax, mid[ax], target[ax], spare), prod
    return prod


def _paired_sum(alpha, beta, degree):
    """Sum over a of the products alpha_a beta_a, averaged onto a primal ``degree``-form."""
    offs_a, offs_b = alpha.offsets(), beta.offsets()
    target = _primal_offset(degree, 0)
    total = np.zeros(alpha.mesh.dims)
    for a in range(3):
        total += _wedge_term(alpha.data[a], offs_a[a], beta.data[a], offs_b[a], target)
    return FormField(alpha.mesh, degree, total, dual=False)


def wedge(alpha, beta):
    """Wedge product for degree pairs (0, q), (q, 0), (1, 1), (1, 2), (2, 1).

    Components are averaged onto the staggered locations of the result
    (primal placement for degree >= 2 outputs) and combined with
    Levi-Civita signs; antisymmetry alpha^beta = (-1)^(qq') beta^alpha
    holds to rounding.  Averaging uses two-point means per axis (up to
    four points per product), is second order, and is not exactly
    associative.  ``d(wedge(e, h))`` is therefore not the exact energy
    flux divergence of the fourth-order d; that is `poynting_divergence`.
    """
    if alpha.mesh != beta.mesh:
        raise ValueError("wedge operands live on different meshes")
    qa, qb = alpha.degree, beta.degree
    if qa + qb > 3:
        raise ValueError(f"wedge of degrees {qa} and {qb} exceeds the top degree")

    if qa == 0 or qb == 0:
        scal, form = (alpha, beta) if qa == 0 else (beta, alpha)
        s_off = scal.offsets()[0]
        out = FormField.zeros(form.mesh, form.degree, form.dual)
        for c, off in enumerate(form.offsets()):
            np.multiply(resample(scal.data, s_off, off), form.component(c),
                        out=out.component(c))
        return out

    if qa == 1 and qb == 1:
        offs_a, offs_b = alpha.offsets(), beta.offsets()
        out = FormField.zeros(alpha.mesh, 2, dual=False)
        for c in range(3):
            a, b = (c + 1) % 3, (c + 2) % 3
            target = _primal_offset(2, c)
            np.subtract(_wedge_term(alpha.data[a], offs_a[a], beta.data[b], offs_b[b], target),
                        _wedge_term(alpha.data[b], offs_a[b], beta.data[a], offs_b[a], target),
                        out=out.data[c])
        return out

    if {qa, qb} == {1, 2}:
        return _paired_sum(alpha, beta, 3)

    raise ValueError(f"unsupported wedge degree pair ({qa}, {qb})")


def _flux_pairing(e, h, axis, out, work):
    """Face flux along ``axis`` of a product e h, over _C1 / 2, into ``out``.

    ``e`` sits on the nodes of the axis and ``h`` half a cell ahead of its
    index; the flux lands on the nodes.  Summation by parts of the (2,4)
    difference gives F = _C1 F1 + _C3 F3 with
        F1_i = e_i (h_{i+1/2} + h_{i-1/2}) / 2,
        F3_i = e_i (h_{i+3/2} + h_{i-3/2}) / 2 + e_{i-1} h_{i+1/2}
               + e_{i+1} h_{i-1/2}.
    """
    pair, long, cross = work
    _periodic(np.add, h, 0, h, -1, axis, pair)
    _periodic(np.add, h, 1, h, -2, axis, long)
    long *= _C3 / _C1
    pair += long
    np.multiply(pair, e, out=out)
    _periodic(np.multiply, e, -1, h, 0, axis, cross)
    _periodic(np.multiply, e, 1, h, -1, axis, long)
    cross += long
    cross *= 2.0 * _C3 / _C1
    out += cross
    return out


def poynting_divergence(e, h):
    """d(e ^ h) of a primal and a dual 1-form, as the flux form the stencil needs.

    Along each axis the face flux is the summation-by-parts partner of the
    (2,4) difference (see `_flux_pairing`); across the other two axes it is
    carried by the two-point means of `wedge`, and a cell's value is the
    net flux out of its six faces, divided by the spacing.  With the edge
    and face means of the energy density, cell by cell and to rounding,

        mean(h . d e) - mean(e . d h) = poynting_divergence(e, h),

    so the semi-discrete energy balance d/dt psi_cell = -div holds exactly
    pointwise, and the integral over any box is the flux through its
    boundary.  Box-region reports use it as that balance's oracle; it is
    computed over whole fields.  Returns a primal 3-form.
    """
    if e.degree != 1 or e.dual or h.degree != 1 or not h.dual:
        raise ValueError("poynting_divergence expects a primal and a dual 1-form")
    if e.mesh != h.mesh:
        raise ValueError("operands live on different meshes")
    mesh, dims = e.mesh, e.mesh.dims
    e_data, h_data = (np.ascontiguousarray(f.data, dtype=float) for f in (e, h))
    div = np.empty(dims)
    *work, flux_ab, flux_ba, net = (np.empty(dims) for _ in range(6))
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        # e_a h_b - e_b h_a through the faces normal to c; each product's
        # shared transverse axis (b, then a) takes a two-point sum
        f_ab = _flux_pairing(e_data[a], h_data[b], c, flux_ab, work)
        f_ba = _flux_pairing(e_data[b], h_data[a], c, flux_ba, work)
        _periodic(np.add, f_ab, 0, f_ab, 1, b, net)
        net -= _periodic(np.add, f_ba, 0, f_ba, 1, a, work[0])
        if c == 0:
            _periodic(np.subtract, net, 1, net, 0, c, div)
        else:
            div += _periodic(np.subtract, net, 1, net, 0, c, work[1])
    div *= 0.25 * _C1 / mesh.spacing
    return FormField(mesh, 3, div, dual=False)


def integrate(omega, region=WHOLE):
    """Integral of a 3-form over a region: cell-density sum times spacing^3."""
    if omega.degree != 3:
        raise ValueError("only 3-forms can be integrated over a volume region")
    sl = region.slices(omega.mesh)
    return float(omega.data[sl].sum()) * omega.mesh.cell_volume


def inner_product_1forms(alpha, beta):
    """Pointwise metric pairing of two 1-forms as a node 0-form.

    Componentwise products are averaged to the nodes; agrees with
    star(alpha ^ star(beta)) to second order on smooth fields.
    """
    if alpha.degree != 1 or beta.degree != 1:
        raise ValueError("inner_product_1forms expects two 1-forms")
    if alpha.mesh != beta.mesh:
        raise ValueError("operands live on different meshes")
    return _paired_sum(alpha, beta, 0)
