"""The other two worked examples: an intermediate case with a pure base
factor, and a non-proper principle with a vertical annihilating field.

The intermediate case (six coordinates over a three-dimensional base) has
a rank-two annihilator although sections are three-dimensional, so seed
data on a one-dimensional sub-base is needed for reconstruction.  The
non-proper case carries a vertical field annihilating the differential:
the principle cannot distinguish variations along it, and the engine
reports it as a witness.
"""

from cartanvp import fixtures as fx
from cartanvp import varprin as vp

# --- intermediate case -----------------------------------------------------

p2 = fx.problem("example2")
c2 = p2.classification
print(f"intermediate example: n = {c2.n}, k = {c2.k}, case = {c2.degree_case}")
print(f"  h = {c2.h} (seed sub-base dimension), q = {c2.q} = k - h")
print("  annihilator generators:")
for Y in p2.annihilator.basis:
    print("   ", Y.display()[:110], "...")

system2 = vp.critical_equations(p2)
print("  equations in slope form (first one):")
print("   ", str(system2.deltas[0])[:120], "...")

rep2 = fx.run_fixture("example2")
diffs = [i for i in rep2.items if i.status == "discrepancy"]
print(f"  golden comparison passed = {rep2.passed};")
print(f"  printed-display discrepancies reported side by side: {len(diffs)}")
print("  (the printed equations transpose the slope factors; the stored")
print("   goldens carry the pullback-derived form)")

# --- non-proper case -------------------------------------------------------

p3 = fx.problem("example3")
c3 = p3.classification
print(f"\nnon-proper example: n = {c3.n}, k = {c3.k}, case = {c3.degree_case}")
print(f"  properness: {c3.proper}; vertical witness:")
for Y in p3.vertical_annihilator.basis:
    print("   ", Y.display())
print(f"  annihilator rank q = {c3.q}, transversal part r = {c3.r}")

print("  contraction along the residual direction is a combination of the")
print("  leading contractions (so the ideal needs only k+1 generators)")

rep3 = fx.run_fixture("example3")
print(f"  golden comparison passed = {rep3.passed}")
for item in rep3.items:
    if item.name == "f_elimination_equivalence":
        print(
            "  tangent-frame elimination equivalence: residual",
            f"{item.detail['max_residual_with_tangent_frame']:.2e}",
        )
