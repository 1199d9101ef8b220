#!/usr/bin/env python3
"""Move the spectrum of a normal matrix without touching the rest.

Three operations on the same input: clear an open disc (spectrum migrates
to the boundary circle), snap a chord segment to its endpoints, and press
everything onto an oscillating graph while keeping the norm.
"""

from __future__ import annotations

import numpy as np

from almostnormal import (
    OpenDisc,
    graph_normal_approx,
    normal_spectral_decomp,
    operator_norm,
    remove_arc,
    remove_region,
    self_commutator,
)

a = np.diag([0.1 + 0j, -0.3 + 0.2j, 0.5 - 0.1j, 1.4 + 0.3j, -1.2 - 0.5j])
dec = normal_spectral_decomp(a)
disc = OpenDisc(center=0j, radius=0.7)

res = remove_region(dec, disc, mu=0j)
print("remove disc |z| < 0.7:")
print(f"  moved {res.moved_count} of {dec.dim} eigenvalues, "
      f"perturbation {res.perturbation_norm:.4f} <= bound {res.bound}")
print(f"  new radii: {np.round(np.abs(res.decomp.eigenvalues), 4)}")

chord = np.diag([-0.6 + 0j, 0.2 + 0j, 0.55 + 0j, 2 + 0j])
res2 = remove_arc(normal_spectral_decomp(chord), OpenDisc(center=0j, radius=1.0),
                  e_minus=-1 + 0j, e_plus=1 + 0j)
print()
print("snap chord [-1, 1] inside the unit disc:")
print(f"  spectrum {np.round(res2.decomp.eigenvalues.real, 4)} "
      f"(outside point kept exactly)")

print()
print("graph approximant (norm never grows, output stays normal):")
norm_a = operator_norm(a)
for eps in (0.5, 0.2, 0.1):
    res3 = graph_normal_approx(dec, eps)
    out = res3.output
    print(f"  eps={eps:<4} ||A - out|| = {operator_norm(out - a):.4f} "
          f"<= {res3.bound:.4f}, ||out|| = {operator_norm(out):.4f} "
          f"(<= {norm_a:.4f}), defect {operator_norm(self_commutator(out)):.1e}")
