"""Walk through the core diagnostics on a three-atom system.

The system has two mass-1/2 atoms "1" and "3" plus a null atom "2" that
funnels into "3".  Setwise the dynamics converge (the transfer matrix is
the identity on positive atoms), but the system is not even ergodic, which
makes it a good tour of the full decision surface.
"""

from fractions import Fraction

from pfkit import (
    classify,
    invariant_algebra,
    lower_bound_defect,
    minimal_invariant_superset,
    power_sequence,
    set_orbit,
    tail_algebra,
    three_point_system,
    transfer_operator,
    uniform_mixing_defect,
)

space, phi = three_point_system()
print("atoms:", dict(zip(space.atom_labels, space.masses)))
print("map:", {space.atom_labels[i]: space.atom_labels[t] for i, t in enumerate(phi.targets)})

# --- set orbits -----------------------------------------------------------
a12 = space.set_of(["1", "2"])
report = set_orbit(phi, a12)
print("\norbit of {1,2}:")
for n in range(3):
    s = report.set_at(n)
    print(f"  phi^{n} = {sorted(s.labels())}, measure {s.measure}")
print("converges:", report.converges)
print("limit class representative:", sorted(report.limit_class.representative().labels()))

# the limit is the minimal invariant superset, up to null sets
star = minimal_invariant_superset(phi, a12)
print("A* =", sorted(star.labels()))
assert report.limit_class == star.algebra_class()

# {1} is already invariant, and its class differs from the full space
a1 = space.set_of(["1"])
assert a1.algebra_class() != space.full_set().algebra_class()

# --- operator powers and algebras ------------------------------------------
p = transfer_operator(phi)
power_report = power_sequence(p)
print("\ntransfer operator converges:", power_report.converges)
print("limit matrix:", power_report.limit.entries)

tail, stabilized_at = tail_algebra(phi)
print("tail algebra blocks:", tail.blocks, "stabilized at n =", stabilized_at)
print("invariant algebra blocks:", invariant_algebra(phi).blocks)

# --- mixing diagnostics -----------------------------------------------------
profile = classify(phi, profile_set=a1, n_max=4)
print("\nergodic:", profile.ergodic, "mixing:", profile.mixing, "exact:", profile.exact)
print("uniform defects of {1}:", profile.defects)

d, c = profile.witness
print("lower-bound witness: D =", sorted(d.labels()), "c =", c)
for n in range(3):
    assert lower_bound_defect(phi, a1, d, c, n) == 0

# the defect never improves: the system holds the set {1} apart forever
assert uniform_mixing_defect(phi, a1, 100) == Fraction(1, 4)
print("defect at n=100 is still", uniform_mixing_defect(phi, a1, 100))
