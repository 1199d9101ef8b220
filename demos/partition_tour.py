#!/usr/bin/env python3
"""Collapse a normal matrix onto finitely many eigenvalues.

Cover the spectrum with lattice squares, disjointify into a resolution of
identity, and replace each cluster by its centroid.  The error obeys
sqrt(multiplicity) * max diameter, and shrinking the squares walks the
approximant back to the matrix.
"""

from __future__ import annotations

import numpy as np

from almostnormal import (
    finite_spectrum_approx,
    normal_spectral_decomp,
    operator_norm,
    square_cover,
)

rng = np.random.default_rng(12)
lam = np.exp(2j * np.pi * rng.uniform(0, 1, 8)) * np.sqrt(rng.uniform(0, 1, 8))
u = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
a = (u * lam) @ u.conj().T
dec = normal_spectral_decomp(a)

print(f"{'side':>6} {'regions':>8} {'distinct':>9} {'error':>10} {'bound':>10}")
for side in (0.8, 0.4, 0.2, 0.1, 0.05):
    cover = square_cover(lam, side)
    approx = finite_spectrum_approx(dec, cover)
    roi = approx.resolution
    distinct = len({int(j) for j in roi.assignment})
    print(f"{side:>6} {len(cover):>8} {distinct:>9} "
          f"{approx.perturbation_norm:>10.6f} {approx.bound:>10.6f}")

roi = finite_spectrum_approx(dec, square_cover(lam, 0.2)).resolution
total = sum(roi.projections)
print()
print(f"projection algebra at side 0.2: ||sum P_j - I|| = "
      f"{operator_norm(total - np.eye(8)):.2e}")
