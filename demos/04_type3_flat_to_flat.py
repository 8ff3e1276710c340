#!/usr/bin/env python3
"""The completely flattenable octahedron built from a triangle and a point.

Start from a scalene triangle and the concurrency point of three cevians
(here the centroid).  Rotating each triangle angle by twice the bisector-to-
cevian angle and intersecting the rotated rays yields three more coplanar
vertices; the resulting flat octahedron is deformable, every vertex carries
a one-to-one dihedral relation, and pursuing the motion reaches a second
flat position.
"""

import numpy as np

from flexoct import (DriveSpec, VERTICES, build_type3_flat, classify, flex_path,
                     vertex_face_angles)
from flexoct.octahedron import VERTEX_CYCLES, coplanarity_measure
from flexoct.cli import export_frames

A, B, C = (0.0, 0.0), (4.0, 0.0), (1.0, 2.5)
P = (np.array(A) + B + np.array(C)) / 3.0

construction, flat = build_type3_flat(A, B, C, P)
print("rotation angles at A, B, C:",
      [round(t, 5) for t in construction.rotation_angles])
print("constructed flat vertices:")
for k, v in construction.flat_points.items():
    print(f"  {k}: ({v[0]:+.5f}, {v[1]:+.5f})")
print(f"closure (cevian concurrency) residual: {construction.ceva_residual:.2e}")
print(f"coplanarity measure: {coplanarity_measure(flat):.2e}")

print("\nevery vertex has opposite faces equal or supplementary in pairs:")
for v in VERTICES:
    cyc = VERTEX_CYCLES[v]
    ang = vertex_face_angles(flat, v, (cyc[0], cyc[1]))
    cls = classify(ang, tol=1e-6)
    print(f"  {v}: {cls.tag} ({cls.relation})")

path = flex_path(flat, drive=DriveSpec(max_steps=2000, initial_step=0.01,
                                       max_step=0.02, stop_after_flat_events=2))
print(f"\ncontinuation: {len(path.arclength)} frames, termination "
      f"'{path.termination}'")
print(f"left the plane up to measure {path.flat_measure.max():.4f}, then flattened again:")
for ev in path.flat_events():
    print(f"  flat event at frame {ev.frame_index}: measure {ev.info['measure']:.2e}")
print(f"edge drift along the way: "
      f"{path.edge_deviation.max():.2e}")

files = export_frames(path, "out_type3")
print(f"wrote {len(files) - 1} OBJ frames + path.csv under out_type3/")
