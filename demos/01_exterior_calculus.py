"""Tour of the exact scalar engine and the exterior calculus layer.

Everything downstream rests on two facts demonstrated here: scalar
coefficients canonicalize to a unique expanded form (so symbolic equality
is structural equality), and the form operations obey the graded calculus
identities exactly.
"""

from cartanvp import forms as fm
from cartanvp import symexpr as sx

# --- exact scalars ---------------------------------------------------------

x, y = sx.variables("x y")

e = (x + y) ** 2 - (x**2 + 2 * x * y + y**2)
print("binomial identity collapses:", sx.canon(e))

# rational functions are reduced by monomial content only; equality testing
# still sees through unreduced quotients via the difference
r = (x**2 - 1) / (x - 1)
print("content-reduced quotient:", sx.canon(r))
print("difference against x + 1 is zero:", sx.is_zero(r - (x + 1)).verdict)

# generic coefficient functions are opaque atoms with formal partials
B = sx.func("B11", x, y)
print("d/dx of B11(x,y) * x:", sx.diff(B * x, "x"))

# trigonometric identities are not rewritten: the sine/cosine square sum
# samples as zero but is never certified zero
p = sx.sin(x) ** 2 + sx.cos(x) ** 2 - 1
print("pythagorean default:", sx.is_zero(p).verdict)

# --- forms on a chart ------------------------------------------------------

chart = fm.BundleChart(["x1", "x2"], ["z1", "z2", "z3"])
dz1, dz2 = fm.d_coord(chart, "z1"), fm.d_coord(chart, "z2")
dx1 = fm.d_coord(chart, "x1")

alpha = dz1 + dx1 * sx.func("B11", *map(sx.var, chart.coords))
beta = dz2 + dx1 * sx.func("B21", *map(sx.var, chart.coords))
print("\nwedge of two transport factors:")
print(" ", fm.wedge(alpha, beta).display())

# d d = 0, the antiderivation law, and pullback/d commutation hold
# canonically; see tests/test_forms.py for the randomized corpora
omega = fm.DiffForm(chart, 1, {(0,): sx.var("x1") * sx.var("z1")})
print("d(x1 z1 dx1):", fm.ext_d(omega).display())
print("d(d(...)):", fm.ext_d(fm.ext_d(omega)).display())

phi = fm.SectionMap(chart, {"z1": x * 0 + sx.var("x1") ** 2, "z2": sx.ZERO, "z3": sx.var("x2")})
print("pullback of dz1 along z1 = x1^2:", fm.pullback(phi, dz1).display())

e3 = fm.Chart(["a", "b", "c"])
print("Euclidean star of da:", fm.hodge_star(fm.d_coord(e3, "a")).display())
