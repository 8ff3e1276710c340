#!/usr/bin/env python3
"""A flexible octahedron with a mirror plane through two opposite vertices.

C and F sit on the plane; D and B are the reflections of A and E.  The six
edge equalities of this family differ from the half-turn family: the equal
edges are not all opposite pairs.  The mirror symmetry survives the whole
motion.
"""

import numpy as np

from flexoct import DriveSpec, build_type2, edge_lengths, flex_dimension, flex_path
from flexoct.octahedron import (Realization, classify_edge_lengths,
                                reflection_pairing_residual)

C, F = (0, 0, 1), (0.2, 0, -1)
A, E = (1, 0.7, 0.3), (-0.9, 0.5, -0.2)

r = build_type2(C, F, A, E)
el = edge_lengths(r)
print("defining equalities (plane through C and F):")
for e1, e2 in (("FA", "FD"), ("EF", "BF"), ("CA", "CD"),
               ("BC", "EC"), ("AE", "DB"), ("AB", "DE")):
    print(f"  {e1} = {el[e1]:.6f}   {e2} = {el[e2]:.6f}")

report = classify_edge_lengths(el)
print(f"\nedge-length pattern recognized for fixed pair(s): "
      f"{[''.join(p) for p in report.matches_type2]}")
print(f"flex dimension: {flex_dimension(r).flex_dimension}")

path = flex_path(r, drive=DriveSpec(max_steps=150))
mapping = {"A": "D", "D": "A", "B": "E", "E": "B", "C": "C", "F": "F"}
sym = max(reflection_pairing_residual(Realization(p), mapping) for p in path.points)
dev = path.edge_deviation.max()
print(f"\ntraced {len(path.arclength)} frames: edge drift {dev:.2e}, "
      f"mirror-symmetry defect {sym:.2e}")

d_bc = np.unwrap(path.dihedral_series("BC"))
print(f"driven dihedral BC swept {d_bc.min():+.3f} .. {d_bc.max():+.3f} rad")
