#!/usr/bin/env python3
"""Pseudospectra: where the resolvent is large.

For a normal matrix the eps-pseudospectrum is exactly the eps-neighborhood
of the spectrum, so the measured spread d_eps, the largest distance from a
member to the spectrum, never exceeds eps.  A non-normal matrix of the same
norm inflates far beyond its eigenvalues.
"""

from __future__ import annotations

import numpy as np

from almostnormal import GridSpec, pseudospectrum, shift_example

normal = np.diag([0j, 1 + 0j])
grid = GridSpec(center=0.5 + 0j, half_width=1.7, resolution=161)
for eps in (0.4, 0.2, 0.1):
    rep = pseudospectrum(normal, eps, grid)
    print(f"normal diag(0,1), eps={eps:<4} members={rep.members.size:>5} "
          f"d_eps={rep.d_eps:.4f} (<= eps)")

print()
jordan = 4.0 * shift_example(2)          # [[0, 4], [0, 0]], eigenvalues both 0
grid2 = GridSpec(center=0j, half_width=3.0, resolution=161)
for eps in (0.4, 0.2, 0.1):
    rep = pseudospectrum(jordan, eps, grid2)
    print(f"4*shift(2),    eps={eps:<4} members={rep.members.size:>5} "
          f"d_eps={rep.d_eps:.4f} (>> eps: resolvent blows up far from 0)")
