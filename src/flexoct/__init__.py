"""flexoct: flexible (articulated) octahedra and the spherical four-bar linkage.

Construct the three families of flexible octahedra, classify edge lengths
against their necessary conditions, flex realizations numerically while
preserving all twelve edges, and verify the classical covariance theorems
along the motion.
"""

from .linkage import (FaceAngles, LinkageClass, OppositeDihedralLine, TetraCoeffs,
                      UnicursalConstants, classify, decomposition_discriminant,
                      half_tangent, angle_from_half_tangent, opposite_dihedral_line,
                      planar_fourbar_coeffs, reconstruct_angles, solve_conjugate,
                      tetra_coeffs, unicursal_constants)
from .octahedron import (EDGE_ORDER, FACETS, OPPOSITE_EDGES, VERTICES, Realization,
                         all_dihedrals, classify_edge_lengths, dihedral_angle,
                         edge_lengths, regular_octahedron, validate,
                         vertex_face_angles, vertex_half_tangents)
from .builders import (Type3Construction, build_type1, build_type1_mirror,
                       build_type2, build_type3_flat)
from .flexion import (DriveSpec, FlexionPath, NotFlexible, RigidityReport,
                      facet_crossings, flex_dimension, flex_path, rigidity_matrix)
from .verifiers import (dihedral_cos_line_fit, hexagon_traces, mannheim_point,
                        opposite_dihedral_trace)

__version__ = "0.1.0"

__all__ = [
    "FaceAngles", "TetraCoeffs", "LinkageClass", "UnicursalConstants",
    "OppositeDihedralLine", "tetra_coeffs", "solve_conjugate", "classify",
    "unicursal_constants", "reconstruct_angles", "opposite_dihedral_line",
    "planar_fourbar_coeffs", "decomposition_discriminant", "half_tangent",
    "angle_from_half_tangent",
    "Realization", "VERTICES", "FACETS", "EDGE_ORDER", "OPPOSITE_EDGES",
    "edge_lengths", "dihedral_angle", "all_dihedrals", "vertex_face_angles",
    "vertex_half_tangents", "classify_edge_lengths", "validate",
    "regular_octahedron",
    "build_type1", "build_type1_mirror", "build_type2", "build_type3_flat",
    "Type3Construction",
    "rigidity_matrix", "flex_dimension", "flex_path", "facet_crossings",
    "DriveSpec", "FlexionPath", "RigidityReport", "NotFlexible",
    "mannheim_point", "opposite_dihedral_trace", "hexagon_traces",
    "dihedral_cos_line_fit",
]
