#!/usr/bin/env python3
"""Classical covariants verified numerically along a flexion path.

Three checks along a half-turn-symmetric octahedron's motion: the facet
planes through the sides of one facet stay concurrent at a point of the
opposite facet's plane; the four skew hexagons keep their sides and angles;
and at every vertex the cosines of opposite dihedrals trace the predicted
straight line.
"""

from flexoct import DriveSpec, build_type1, flex_path
from flexoct.verifiers import (dihedral_cos_line_fit, hexagon_traces,
                               mannheim_residuals, opposite_dihedral_trace,
                               vertex_opposite_pairs)

r = build_type1((1, 0, 0.5), (0.1, 1, -0.4), (0.7, -0.8, 0.1))
path = flex_path(r, drive=DriveSpec(max_steps=120))
print(f"path of {len(path.arclength)} frames\n")

print("concurrency point on the opposite facet plane (normalized residual):")
for base in ("ABC", "DEF"):
    worst = mannheim_residuals(path.points, base=base).max()
    print(f"  base {base}: max residual {worst:.2e}")

print("\nthe four hexagons keep sides and interior angles:")
for trace in hexagon_traces(path):
    print(f"  {trace.hexagon}: side variation {trace.max_side_variation:.2e}, "
          f"angle variation {trace.max_angle_variation:.2e}")

print("\nopposite dihedral pairs over the whole path:")
for rel in opposite_dihedral_trace(path):
    print(f"  {rel.pair[0]}/{rel.pair[1]}: {rel.relation:13s} "
          f"(equal dev {rel.dev_equal:.1e}, suppl. dev {rel.dev_supplementary:.1e})")

print("\ncosine lines at each vertex, fitted vs closed form:")
for v in "ABCDEF":
    for pair in vertex_opposite_pairs(v):
        fit = dihedral_cos_line_fit(path, v, pair)
        print(f"  {v} ({pair[0]},{pair[1]}): residual {fit.max_residual:.1e}, "
              f"agreement {fit.agreement:.1e}")
