"""Independent checks of the structural theorems along realizations and paths.

Covered: the concurrency of the three facet planes through the sides of a
base facet at a point of the opposite facet plane (valid along deformations),
the equal-or-supplementary covariance of opposite dihedrals, the constancy
of the four skew hexagons' sides and angles, and the linear relation between
the cosines of opposite dihedrals at each vertex, fitted empirically and
compared against its closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linkage import OppositeDihedralLine, opposite_dihedral_line
from .octahedron import (EDGE_FACETS, EDGE_ORDER, FACET_NAMES, FACET_VERTS,
                         OPPOSITE_EDGES, VERTEX_CYCLES, VERTICES, DegenerateFacet,
                         NonAdjacentEdges, Realization, canonical_edge, diameter_array,
                         dot_rows, edge_length_array, face_angle, facet_normals,
                         vertex_face_angles)
from .flexion import FlexionPath

HEXAGONS = ("ABCDEF", "ABFDEC", "AECDBF", "AEFDBC")

_OPPOSITE_FACET = {"ABC": "DEF", "DEF": "ABC", "BCD": "AEF", "AEF": "BCD",
                   "CAE": "BFD", "BFD": "CAE", "ABF": "CDE", "CDE": "ABF"}


class NearParallelPlanes(ValueError):
    """The three facet planes are too close to parallel to intersect reliably."""


class InsufficientFrames(ValueError):
    """Too few path frames for the requested fit."""


@dataclass(frozen=True)
class ConcurrencyResult:
    base: str
    point: np.ndarray
    residual: float


def _concurrency(p: np.ndarray, base: str, cond_tol: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Meet points (n, 3) of the planes of the facets across base's sides,
    their distances (n,) from the opposite facet's plane over the diameter,
    and the conditioning (n,) of the planes' normal matrix, for (n, 6, 3)
    points.  Where the conditioning is below cond_tol the point and the
    distance are nan."""
    if base not in _OPPOSITE_FACET:
        raise ValueError(f"unknown facet {base!r}")
    # the facets across the three sides of base, then the opposite facet
    facets = [next(f for f in EDGE_FACETS[canonical_edge(base[i], base[(i + 1) % 3])]
                   if f != base) for i in range(3)] + [_OPPOSITE_FACET[base]]
    k = [FACET_NAMES.index(f) for f in facets]
    normals, areas = facet_normals(p)
    if np.any(areas[:, k] == 0.0):
        raise DegenerateFacet(f"a facet among {facets} has zero area")
    planes = normals[:, k]
    offsets = np.einsum("nij,nij->ni", planes, p[:, FACET_VERTS[k, 0]])
    a, b = planes[:, :3], offsets[:, :3]
    sv = np.linalg.svd(a, compute_uv=False)
    solvable = ~(sv[:, -1] < cond_tol * sv[:, 0])
    point = np.full(b.shape, np.nan)
    point[solvable] = np.linalg.solve(a[solvable], b[solvable, :, None])[..., 0]
    residual = np.abs(dot_rows(planes[:, 3], point) - offsets[:, 3]) / diameter_array(p)
    return point, residual, sv[:, -1] / sv[:, 0]


def mannheim_point(r: Realization, base: str = "ABC",
                   cond_tol: float = 1e-4) -> ConcurrencyResult:
    """Meet of the facet planes through the sides of ``base``, measured
    against the opposite facet's plane.

    For a deformable octahedron the three planes are the normal planes of
    the opposite facet's vertex trajectories, so their common point lies on
    the opposite facet's plane.  The residual is that distance over the
    diameter.  Raises NearParallelPlanes when the smallest over largest
    singular value of the normal matrix falls below cond_tol; the meet
    point error grows with the square of the conditioning (all three
    planes coincide at flat positions), so the default keeps evaluated
    residuals trustworthy to about 1e-8.
    """
    point, residual, cond = _concurrency(r.points[None], base, cond_tol)
    if np.isnan(residual[0]):
        raise NearParallelPlanes(f"plane normal conditioning {cond[0]:.2e}")
    return ConcurrencyResult(base=base, point=point[0], residual=float(residual[0]))


def mannheim_residuals(points: np.ndarray, base: str = "ABC",
                       cond_tol: float = 1e-4) -> np.ndarray:
    """The residuals of mannheim_point for each of the stacked realizations
    (n, 6, 3), in one batched pass; nan where it would raise
    NearParallelPlanes."""
    return _concurrency(points, base, cond_tol)[1]


@dataclass(frozen=True)
class PairRelation:
    pair: tuple[str, str]
    relation: str  # "equal" | "supplementary" | "none"
    dev_equal: float
    dev_supplementary: float


def opposite_dihedral_trace(path: FlexionPath, classify_below: float = 1e-6,
                            reject_above: float = 1e-3) -> list[PairRelation]:
    """Classify each opposite edge pair as equal or supplementary in cosine
    over the whole path.

    A pair is labeled only when one branch's deviation stays below
    ``classify_below`` while the other exceeds ``reject_above``; otherwise
    the relation is reported as none with both deviations.  A single-frame
    path classifies trivially by the smaller deviation.
    """
    if not path.frames:
        raise InsufficientFrames("empty path")
    out = []
    for e1, e2 in OPPOSITE_EDGES:
        c1 = np.cos(path.dihedral_series(e1))
        c2 = np.cos(path.dihedral_series(e2))
        dev_eq = float(np.max(np.abs(c1 - c2)))
        dev_su = float(np.max(np.abs(c1 + c2)))
        if dev_eq <= classify_below and dev_su >= reject_above:
            rel = "equal"
        elif dev_su <= classify_below and dev_eq >= reject_above:
            rel = "supplementary"
        elif len(path.frames) == 1:
            rel = "equal" if dev_eq <= dev_su else "supplementary"
        else:
            rel = "none"
        out.append(PairRelation((e1, e2), rel, dev_eq, dev_su))
    return out


@dataclass(frozen=True)
class HexagonTrace:
    hexagon: str
    sides: tuple[str, ...]
    max_side_variation: float       # relative to the initial length
    max_angle_variation: float      # radians


def hexagon_sides(hexagon: str) -> tuple[str, ...]:
    return tuple(canonical_edge(hexagon[i], hexagon[(i + 1) % 6]) for i in range(6))


def hexagon_traces(path: FlexionPath) -> list[HexagonTrace]:
    """Side-length and interior-angle variation of the four skew hexagons.

    Every deformable octahedron carries four closed hexagons whose sides
    are octahedron edges and whose vertex angles are facet angles, so both
    stay constant along any edge-preserving path; the reported variations
    double as a consistency check of the path itself.
    """
    if not path.frames:
        raise InsufficientFrames("empty path")
    pts = path.points
    sides = [[EDGE_ORDER.index(e) for e in hexagon_sides(h)] for h in HEXAGONS]
    lens = edge_length_array(pts)[:, sides]
    hexes = np.array([[VERTICES.index(v) for v in h] for h in HEXAGONS])
    angles = face_angle(pts, hexes, np.roll(hexes, 1, axis=1), np.roll(hexes, -1, axis=1))
    side_var = np.max(np.abs(lens - lens[0]) / lens[0], axis=(0, 2))
    angle_var = np.max(np.abs(angles - angles[0]), axis=(0, 2))
    return [HexagonTrace(h, hexagon_sides(h), float(sv), float(av))
            for h, sv, av in zip(HEXAGONS, side_var, angle_var)]


@dataclass(frozen=True)
class CosineLineFit:
    vertex: str
    pair: tuple[str, str]
    line: OppositeDihedralLine
    max_residual: float
    analytic: OppositeDihedralLine
    agreement: float
    degenerate: bool


def vertex_opposite_pairs(vertex: str) -> list[tuple[str, str]]:
    """The two opposite edge pairs of the tetrahedral angle at a vertex."""
    cyc = VERTEX_CYCLES[vertex]
    return [(cyc[0], cyc[2]), (cyc[1], cyc[3])]


def dihedral_cos_line_fit(path: FlexionPath, vertex: str,
                          pair: tuple[str, str]) -> CosineLineFit:
    """Total-least-squares line through the (cos phi, cos theta) samples of
    two opposite dihedrals at a vertex, compared with the closed form.

    The fitted and analytic lines are unit-normalized; agreement is their
    distance up to sign.  Requires at least three frames; a rank-deficient
    sample cloud (constant dihedrals) is flagged degenerate.  The closed form
    takes the face angles of the first frame, ordered so that its first
    dihedral runs along (vertex, pair[0]).
    """
    if len(path.frames) < 3:
        raise InsufficientFrames(f"{len(path.frames)} frames, need at least 3")
    cyc = VERTEX_CYCLES[vertex]
    p, s = pair
    if p not in cyc or s not in cyc or (cyc.index(p) - cyc.index(s)) % 4 != 2:
        raise NonAdjacentEdges(f"edges {vertex}{p} and {vertex}{s} are not opposite "
                               f"at {vertex}")
    # tracking (p, w), w the neighbour before p, puts p's dihedral first
    angles = vertex_face_angles(Realization(path.points[0]), vertex,
                                (p, cyc[cyc.index(p) - 1]))
    e1 = canonical_edge(vertex, pair[0])
    e2 = canonical_edge(vertex, pair[1])
    c1 = np.cos(path.dihedral_series(e1))
    c2 = np.cos(path.dihedral_series(e2))
    m = np.column_stack([c1, c2, np.ones_like(c1)])
    _, sv, vt = np.linalg.svd(m, full_matrices=False)
    coeffs = vt[-1]
    degenerate = bool(sv[1] <= 1e-12 * sv[0])
    line = OppositeDihedralLine(*map(float, coeffs)).normalized()
    fit_vec = np.array([line.l, line.m, line.n])
    max_residual = float(np.max(np.abs(m @ fit_vec)))
    analytic = opposite_dihedral_line(angles).normalized()
    ana_vec = np.array([analytic.l, analytic.m, analytic.n])
    agreement = float(min(np.linalg.norm(fit_vec - ana_vec),
                          np.linalg.norm(fit_vec + ana_vec)))
    return CosineLineFit(vertex, pair, line, max_residual, analytic,
                         agreement, degenerate)
