"""A volume-preserving field characterized by a maximal-degree principle.

For the planar rotation field the engine checks volume preservation,
builds the primitives by the radial homotopy operator, assembles the
action form with the orientation sign fixed by the parity of the phase
dimension, and verifies both the characteristic property of the extended
field and the star identity for its dual one-form.  The characteristics are helices, which
the sweep machinery reproduces numerically.
"""

import math

import numpy as np

from cartanvp import flows
from cartanvp import forms as fm
from cartanvp import liouville as lv
from cartanvp import symexpr as sx
from cartanvp import varprin as vp

P = fm.Chart(["x", "y"])
x, y = sx.var("x"), sx.var("y")
omega = fm.volume_form(P)
X = fm.VecField(P, [-1 * y, x])

print("volume preserved:", lv.is_liouville(X, omega))

setup = lv.build_setup(P, omega, X)
print("resolved orientation exponent s =", setup.sign_s)
print("gamma =", setup.gamma.display())
print("theta =", setup.theta.display())

problem = lv.build_theta(setup)
W = vp.characteristic_field_maximal_degree(problem)
print("characteristic field:", W.display())

ok, sign = lv.verify_hodge_identity(setup)
print(f"star identity holds: {ok} (sign {sign})")

# integrate the characteristic field: a helix over the time axis
path = flows.flow(setup.Z, {"t": 0.0, "x": 1.0, "y": 0.0}, 2 * math.pi, step=1e-3)
end = path[-1]
print(f"\nflowing Z for one period returns to the start: "
      f"|end - start| = {np.linalg.norm(end - path[0] - np.array([2*math.pi, 0, 0])):.2e}")

# the swept section over the time axis is the helix (cos t, sin t);
# residual reporting uses finite-difference slopes, so its tolerance is
# the lattice resolution, not the integrator accuracy
patch = flows.sweep_section(
    problem,
    problem.annihilator,
    {"x": 1, "y": 0},
    grid={"t": (0.0, 2 * math.pi, 129)},
    step=1e-3,
    tolerance=1e-2,
)
ts = np.linspace(0, 2 * math.pi, 129)
worst = max(
    max(abs(pt[1] - math.cos(t)), abs(pt[2] - math.sin(t)))
    for t, pt in zip(ts, patch.points)
)
print(f"max deviation of the swept helix from the closed form: {worst:.2e}")
print(f"finite-difference residual bound on this lattice: {patch.max_residual:.2e}")
