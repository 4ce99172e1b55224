"""The five-dimensional maximally characteristic worked example, end to end.

Three transport factors dz^a + B_aj dx^j with generic coefficient atoms
define the two-step differential; the engine derives the contraction
forms, the critical-section equations (as signed minors of the slope
matrix and, independently, as pullback coefficients), and the rank-two
annihilating distribution tangent to every critical section.
"""

from cartanvp import fixtures as fx
from cartanvp import ideals as ids
from cartanvp import varprin as vp

p = fx.problem("example1")
cls = p.classification

print(f"n = {cls.n}, k = {cls.k}: {cls.degree_case}, {cls.proper}")
print(f"annihilator dimension q = {cls.q} (spanned by transversal fields)\n")

print("eta =", p.eta.display()[:120], "...\n")

for a, psi in enumerate(p.psi, start=1):
    print(f"psi_{a} =", psi.display()[:100], "...")

system = vp.critical_equations(p)
print("\ncritical-section equations (vanishing signed minors of P):")
for a, delta in enumerate(system.deltas, start=1):
    print(f"  Delta_{a} = {str(delta)[:110]} ...")
print("pullback route agrees with the minors, constant =", system.ratio)

print("\nannihilator basis (tangent to every critical section):")
for Y in p.annihilator.basis:
    print("  ", Y.display())

fr = ids.frobenius_check(p.annihilator)
print("\nFrobenius verdict with generic coefficients:", fr.verdict)
print("(the bracket of the generators escapes the span unless the")
print(" coefficients satisfy the closure condition; constants do)")

p_const = fx.problem("example1", instance="constant")
fr_const = ids.frobenius_check(p_const.annihilator)
print("Frobenius verdict with constant coefficients:", fr_const.verdict)

report = fx.run_fixture("example1")
print(f"\ngolden comparison vs the printed displays: passed = {report.passed}")
