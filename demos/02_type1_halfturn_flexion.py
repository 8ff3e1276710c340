#!/usr/bin/env python3
"""A flexible octahedron with a half-turn symmetry axis, and its rigid twin.

Builds the octahedron from three free vertices, confirms the opposite-edge
equalities and the one-dimensional flex, traces the motion while every edge
keeps its length, and contrasts it with the mirror-assembled octahedron that
has the same twelve edge lengths yet does not move.  Frames are exported as
OBJ meshes for any external viewer.
"""

import numpy as np

from flexoct import (DriveSpec, NotFlexible, OPPOSITE_EDGES, build_type1,
                     build_type1_mirror, edge_lengths, facet_crossings,
                     flex_dimension, flex_path)
from flexoct.cli import export_frames

A, B, F = (1, 0, 0.5), (0.1, 1, -0.4), (0.7, -0.8, 0.1)

r = build_type1(A, B, F)
el = edge_lengths(r)
print("opposite edge pairs (equal by the half-turn):")
for e1, e2 in OPPOSITE_EDGES:
    print(f"  {e1} = {el[e1]:.6f}   {e2} = {el[e2]:.6f}")

rep = flex_dimension(r)
print(f"\nrank {rep.rank} of the rigidity matrix -> "
      f"{rep.flex_dimension} internal degree(s) of freedom")
print(f"intercrossing facet pairs (the concavity): {facet_crossings(r)}")

path = flex_path(r, drive=DriveSpec(max_steps=150))
dev = path.edge_deviation.max()
print(f"\ntraced {len(path.arclength)} frames, max relative edge drift {dev:.2e}")
print("dihedral sweep along the path (radians):")
for e in ("BC", "CA", "AB"):
    s = np.unwrap(path.dihedral_series(e))
    print(f"  {e}: {s.min():+.3f} .. {s.max():+.3f}")

print("\nopposite dihedrals stay equal or supplementary in cosine:")
for e1, e2 in OPPOSITE_EDGES:
    c1 = np.cos(path.dihedral_series(e1))
    c2 = np.cos(path.dihedral_series(e2))
    tag = "equal" if np.max(np.abs(c1 - c2)) < np.max(np.abs(c1 + c2)) else "suppl."
    print(f"  {e1}/{e2}: {tag:6s} "
          f"dev {min(np.max(np.abs(c1 - c2)), np.max(np.abs(c1 + c2))):.2e}")

files = export_frames(path, "out_type1")
print(f"\nwrote {len(files) - 1} OBJ frames + path.csv under out_type1/")

rm = build_type1_mirror(A, B, F)
elm = edge_lengths(rm)
print("\nmirror assembly: same edge lengths "
      f"(max diff {max(abs(elm[e] - el[e]) for e in el):.2e}) but")
print(f"rank {flex_dimension(rm).rank}: ", end="")
try:
    flex_path(rm)
except NotFlexible as exc:
    print(f"not flexible ({exc})")
