"""The doubling map on dyadic intervals: an exact infinite example.

Dyadic sets are finite unions of intervals [a/2^k, b/2^k).  The doubling
map x -> 2x mod 1 acts exactly on them, its transfer operator averages
adjacent grid cells, and every level-k indicator flattens to its mean in
exactly k steps -- an exact system in the strongest sense, computed here
without a single float.
"""

from fractions import Fraction

from pfkit import (
    DyadicSet,
    DyadicStepFunction,
    exactness_profile,
    image_measure_profile,
    transfer_apply,
    transition_matrix,
)

F = Fraction

b = DyadicSet.from_pairs([(F(0), F(1, 4))])
print("B =", b.intervals, "measure", b.measure, "level", b.level)

print("image:", b.image().intervals)
print("preimage:", b.preimage().intervals)
assert b.preimage().measure == b.measure  # measure preservation

# --- transfer powers flatten indicators -------------------------------------
f = DyadicStepFunction.indicator(b)
for n in range(3):
    stepped = transfer_apply(f, n)
    print(f"P^{n} 1_B at level {stepped.level}: {stepped.values}")

profile = exactness_profile(b, 4)
print("uniform defect profile:", profile)
assert profile == (F(3, 16), F(1, 8), F(0), F(0), F(0))

# --- forward images swallow the space ----------------------------------------
print("image measures:", image_measure_profile(b, 4))

# a set can flatten before its level; the level only bounds the step count
symmetric = DyadicSet.from_pairs([(F(0), F(1, 4)), (F(3, 4), F(1))])
print("symmetric set profile:", exactness_profile(symmetric, 3))

# --- the exact bin-transition matrix ------------------------------------------
rows = transition_matrix(2)
print("level-2 transition matrix (sparse rows):")
for i, row in enumerate(rows):
    print(f"  cell {i}: {row}")
