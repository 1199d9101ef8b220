#!/usr/bin/env python3
"""How far can a contraction sit from the normal matrices?

The paired-shift family shows the two standard yardsticks pulling apart:
the self-commutator grows like sqrt(m) while the operator-norm distance
to the normals stays pinned near 1/2.  The Frobenius distance grows too,
but only half as fast as the commutator.
"""

from __future__ import annotations

import math

from almostnormal import nearest_normal, normality_defect, shift_example

print(f"{'m':>4} {'defect':>8} {'cm_frob':>8} {'dist_F':>8} "
      f"{'sqrt(m/4)':>10} {'dist_op':>8} {'lower_op':>9}")
for m in (2, 4, 8, 16, 32, 64):
    a = shift_example(m)
    near = nearest_normal(a, seed=0, restarts=2)
    print(f"{m:>4} {normality_defect(a):>8.4f} {math.sqrt(m):>8.4f} "
          f"{near.frobenius_exact:>8.4f} {math.sqrt(m / 4):>10.4f} "
          f"{near.distances[math.inf]:>8.4f} {near.lower_bounds[math.inf]:>9.4f}")

print()
print("defect stays 1 and dist_op stays 1/2 while dist_F grows like sqrt(m)/2:")
print("no single scalar normality measure orders these matrices correctly.")
