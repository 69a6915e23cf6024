"""The staggered grid calculus: d, Hodge star, wedge, integration.

Shows where each form degree lives on the staggered complex, then checks
the structural identities (d o d = 0, star involution, wedge symmetry,
the triple-product formula) and measures the fourth-order convergence of
the (2,4) staggered derivative against an analytic field.

Run:  python demos/dec_operators.py
"""

import numpy as np

from cmx import (
    FormField,
    Mesh,
    exterior_derivative,
    hodge_star,
    inner_product_1forms,
    integrate,
    sample_form,
    wedge,
)

rng = np.random.default_rng(3)

print("=" * 70)
print("1. Staggered placement")
print("=" * 70)
mesh = Mesh((16, 16, 16), spacing=0.5)
for degree in range(4):
    f = FormField.zeros(mesh, degree)
    print(f"primal {degree}-form: {f.ncomp} component(s) at offsets "
          f"{[tuple(o) for o in f.offsets()]}")
print("dual forms occupy the complementary locations; the Hodge star is a")
print("pure relabelling between collocated arrays.")

print()
print("=" * 70)
print("2. Structural identities")
print("=" * 70)
alpha = FormField(mesh, 1, rng.standard_normal((3, *mesh.dims)))
dd = exterior_derivative(exterior_derivative(alpha))
print(f"|d(d alpha)|_inf for a random 1-form: {np.abs(dd.data).max():.2e}")

beta = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)))
back = hodge_star(hodge_star(beta))
print(f"star(star(beta)) identical bit for bit: "
      f"{np.array_equal(back.data, beta.data)}")

gamma = FormField(mesh, 1, rng.standard_normal((3, *mesh.dims)))
sym = np.abs(wedge(alpha, hodge_star(gamma)).data
             - wedge(gamma, hodge_star(alpha)).data).max()
print(f"|alpha ^ star(gamma) - gamma ^ star(alpha)|_inf: {sym:.2e}")

stokes = integrate(exterior_derivative(beta))
print(f"integral of an exact 3-form over the periodic box: {stokes:.2e}")

delta = FormField(mesh, 1, np.stack([np.full(mesh.dims, v) for v in (1.0, 0, 0)]))
F = FormField(mesh, 2, np.stack([np.full(mesh.dims, v) for v in (5.0, 0, 0)]))
trip = hodge_star(wedge(delta, F))
print(f"star(delta ^ F) for delta=(1,0,0), F_23=5: {trip.data[0, 0, 0]} everywhere")

print()
print("=" * 70)
print("3. Convergence of the derivative")
print("=" * 70)
print(f"{'N':>5} {'max error':>12} {'order':>7}")
prev = None
for n in (8, 16, 32, 64):
    m = Mesh((n, 4, 4), spacing=1.0 / n)
    k = 2 * np.pi
    a = sample_form(m, 1, [None, lambda x, y, z: np.sin(k * x), None])
    d = exterior_derivative(a)
    x_face = m.coord_axes(d.offsets()[2])[0]
    err = np.abs(d.data[2] - k * np.cos(k * x_face)).max()
    order = "" if prev is None else f"{np.log2(prev / err):7.3f}"
    print(f"{n:5d} {err:12.3e} {order:>7}")
    prev = err

print()
print("=" * 70)
print("4. Metric pairings")
print("=" * 70)
a = FormField(mesh, 1, np.stack([np.full(mesh.dims, v) for v in (1.0, 2.0, 3.0)]))
b = FormField(mesh, 1, np.stack([np.full(mesh.dims, v) for v in (3.0, 2.0, 1.0)]))
ip = inner_product_1forms(a, b)
sq = hodge_star(wedge(a, hodge_star(a)))
print(f"<(1,2,3), (3,2,1)> = {ip.data[0, 0, 0]} at every node")
print(f"star(a ^ star a) for a=(1,2,3): {sq.data[0, 0, 0]} (the metric square 14)")
