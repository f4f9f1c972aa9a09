"""
How cost scales with players and rows
=====================================

Sweeps the parity protocol across a grid, printing the harness CSV rows.
Infeasible cells (too few players for the row count) keep their n,k,seed
columns and leave the rest empty. The ell column is the protocol's largest
per-block mask budget: it shrinks as players are added, because wider masks
make row collisions rarer.
"""

from fractions import Fraction

from nofkit import sweep
from nofkit.protocols import layout

lines = sweep("gip", n_list=[4, 16, 64], k_list=[2, 4, 8, 16], trials=20, seed=9)
for line in lines:
    print(line)

# the budget trend behind the ell column, at a fixed row count: more players
# means fewer mask zeros are needed, even when rows must be split into blocks
print()
n = 256
for k in (8, 16, 64, 256):
    lay = layout("gip", n, k, Fraction(1, 3))
    ell, blocks = lay.ell, len(lay.blocks)
    print(f"n={n} k={k:3d}: ell column {ell}, {blocks} block(s)")
