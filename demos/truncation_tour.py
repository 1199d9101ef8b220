#!/usr/bin/env python3
"""Truncation leakage of a banded multiplication window.

Restricting the shift symbol to the eigenspaces of G below lambda leaks a
bounded amount of norm: both truncation inequalities hold with constants
built from ||A|| and ||[G, A]|| times the unit-window count N1, and the
normalized witness distance of the truncated block decays as the window
grows.
"""

from __future__ import annotations

import numpy as np

from almostnormal import laurent_truncation_model, truncation_scaling, verify_truncation_bounds

model = laurent_truncation_model([0, 0, 1], 32)
print(f"window K=32: ||A|| = {model.norm_a:.4f}, ||[G, A]|| = {model.norm_comm:.4f}")
print()
print(f"{'lambda':>7} {'N':>4} {'N1':>4} {'lhs2':>8} {'rhs2':>8} {'lhs3':>8} {'rhs3':>8}")
for lam in (2.0, 4.0, 8.0, 12.0, 16.0):
    c = verify_truncation_bounds(model, lam)
    print(f"{lam:>7} {c['N']:>4} {c['N1']:>4} {c['lhs2']:>8.4f} {c['rhs2']:>8.4f} "
          f"{c['lhs3']:>8.4f} {c['rhs3']:>8.4f}")

print()
rows = truncation_scaling(model, np.arange(2.0, 17.0, 2.0), seed=0,
                          restarts=1, max_sweeps=40)
print("normalized trace-norm distance of the truncated block:")
for r in rows:
    print(f"  lambda={r['lambda']:>5}  dist1/N = {r['ratio']:.5f}")
print("the commutator trace norm sits at 2 whatever the window, so the")
print("per-dimension distance ratio falls off like 1/N.")
