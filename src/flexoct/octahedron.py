"""Fixed octahedral combinatorics, realizations, and measurement.

The combinatorial octahedron has vertices A..F with opposite (non-adjacent)
pairs A-D, B-E, C-F, the eight triangular facets

    ABC, DEF, BCD, CAE, ABF, AEF, BFD, CDE,

and twelve edges.  Signed dihedrals follow the orientation induced by the
facet list: each facet is wound as written, and the shared-edge direction of
the first-listed facet fixes the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linkage import PRODUCT, FaceAngles, unicursal_constants

VERTICES = ("A", "B", "C", "D", "E", "F")
_VIDX = {v: i for i, v in enumerate(VERTICES)}

OPPOSITE_VERTEX = {"A": "D", "B": "E", "C": "F", "D": "A", "E": "B", "F": "C"}

FACETS = (("A", "B", "C"), ("D", "E", "F"), ("B", "C", "D"), ("C", "A", "E"),
          ("A", "B", "F"), ("A", "E", "F"), ("B", "F", "D"), ("C", "D", "E"))
FACET_NAMES = tuple("".join(f) for f in FACETS)

# canonical edge names, fixed order used in exports and reports
EDGE_ORDER = ("AB", "BC", "CA", "DE", "EF", "FD", "CD", "DB", "AE", "EC", "BF", "FA")
_EDGE_BY_SET = {frozenset(e): e for e in EDGE_ORDER}

OPPOSITE_EDGES = (("AB", "DE"), ("BC", "EF"), ("CA", "FD"),
                  ("AE", "DB"), ("BF", "EC"), ("CD", "FA"))

# cyclic order of neighbor vertices around each vertex; consecutive
# neighbors span one incident facet
VERTEX_CYCLES = {"A": ("B", "C", "E", "F"), "B": ("A", "C", "D", "F"),
                 "C": ("A", "B", "D", "E"), "D": ("B", "C", "E", "F"),
                 "E": ("A", "C", "D", "F"), "F": ("A", "B", "D", "E")}


def _edge_facets() -> dict[str, tuple[str, str]]:
    by_edge: dict[str, list[str]] = {e: [] for e in EDGE_ORDER}
    for f in FACETS:
        for i in range(3):
            by_edge[canonical_edge(f[i], f[(i + 1) % 3])].append("".join(f))
    # keep facet-list order so the first facet fixes the edge direction
    order = {name: i for i, name in enumerate(FACET_NAMES)}
    return {e: tuple(sorted(fs, key=order.__getitem__)) for e, fs in by_edge.items()}


def canonical_edge(v1: str, v2: str) -> str:
    """Canonical name of the edge joining two vertices."""
    try:
        return _EDGE_BY_SET[frozenset((v1, v2))]
    except KeyError:
        raise ValueError(f"{v1}{v2} is not an octahedron edge") from None


EDGE_FACETS = _edge_facets()


def _edge_direction(edge: str) -> tuple[str, str]:
    first = EDGE_FACETS[edge][0]
    for i in range(3):
        if {first[i], first[(i + 1) % 3]} == set(edge):
            return first[i], first[(i + 1) % 3]
    raise AssertionError


EDGE_DIRECTION = {e: _edge_direction(e) for e in EDGE_ORDER}

# Index tables of the geometry kernel.  One row per edge in EDGE_ORDER: its
# endpoints in EDGE_DIRECTION order, then the apexes of its first and second
# adjacent facet.  One row per facet in FACETS: its vertices as wound.
EDGE_TAIL, EDGE_HEAD, EDGE_APEX1, EDGE_APEX2 = np.array(
    [[_VIDX[v] for v in EDGE_DIRECTION[e]]
     + [_VIDX[next(v for v in f if v not in e)] for f in EDGE_FACETS[e]]
     for e in EDGE_ORDER]).T
FACET_VERTS = np.array([[_VIDX[v] for v in f] for f in FACETS])
# signed edge-vertex incidence: +1 at the head, -1 at the tail of each edge
EDGE_INCIDENCE = np.zeros((12, 6))
EDGE_INCIDENCE[np.arange(12), EDGE_HEAD] = 1.0
EDGE_INCIDENCE[np.arange(12), EDGE_TAIL] = -1.0
_PAIR_I, _PAIR_J = np.triu_indices(6, 1)


class DegenerateFacet(ValueError):
    """A facet of the realization has (near-)zero area."""


class NonAdjacentEdges(ValueError):
    """The two chosen edges at a vertex do not share a facet."""


# ---------------------------------------------------------------------------
# geometry kernel: batched over the leading axes of (..., 6, 3) point arrays


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of a and b, broadcast over the leading
    axes.  Each is one BLAS dot, so it rounds exactly as ``a_row @ b_row``
    does and a batched result equals the one-vector result bit for bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of v, each equal to np.linalg.norm(row)."""
    return np.sqrt(dot_rows(v, v))


def edge_vectors(p: np.ndarray) -> np.ndarray:
    """Edge vectors from tail to head, (..., 12, 3) in EDGE_ORDER."""
    return EDGE_INCIDENCE @ p


def edge_length_array(p: np.ndarray) -> np.ndarray:
    """Edge lengths, (..., 12) in EDGE_ORDER."""
    return row_norms(edge_vectors(p))


def _dihedrals(p: np.ndarray, k) -> np.ndarray:
    """Signed dihedrals along the edges k (an index list or a slice of
    EDGE_ORDER); raises DegenerateFacet when one of them is undefined."""
    edges = np.arange(len(EDGE_ORDER))[k]
    tail = p[..., EDGE_TAIL[k], :]
    e = p[..., EDGE_HEAD[k], :] - tail
    nrm = row_norms(e)
    zero = np.nonzero(nrm == 0.0)[-1]
    if zero.size:
        raise DegenerateFacet(f"edge {EDGE_ORDER[edges[zero[0]]]} has zero length")
    ehat = e / nrm[..., None]
    w1 = p[..., EDGE_APEX1[k], :] - tail
    w1 = w1 - dot_rows(w1, ehat)[..., None] * ehat
    w2 = p[..., EDGE_APEX2[k], :] - tail
    w2 = w2 - dot_rows(w2, ehat)[..., None] * ehat
    flat = np.nonzero((row_norms(w1) == 0.0) | (row_norms(w2) == 0.0))[-1]
    if flat.size:
        raise DegenerateFacet(
            f"facet adjacent to {EDGE_ORDER[edges[flat[0]]]} is degenerate")
    return np.arctan2(dot_rows(np.cross(w1, w2), ehat), dot_rows(w1, w2))


def dihedral_array(p: np.ndarray) -> np.ndarray:
    """All twelve signed dihedrals, (..., 12) in EDGE_ORDER; see dihedral_angle."""
    return _dihedrals(p, slice(None))


def diameter_array(p: np.ndarray) -> np.ndarray:
    """Largest distance between two of the six points, (...)."""
    return np.max(row_norms(p[..., _PAIR_I, :] - p[..., _PAIR_J, :]), axis=-1)


def coplanarity_array(p: np.ndarray) -> np.ndarray:
    """Smallest singular value of the centered coordinates over their norm,
    (...); 0 for six coplanar points."""
    m = p - p.mean(axis=-2, keepdims=True)
    s = np.linalg.svd(m, compute_uv=False)
    return s[..., -1] / row_norms(m.reshape(m.shape[:-2] + (18,)))


def facet_normals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals by the facet winding, (..., 8, 3), and areas, (..., 8),
    in FACETS order.  A facet of zero area has a nan normal."""
    q = p[..., FACET_VERTS, :]
    n = np.cross(q[..., 1, :] - q[..., 0, :], q[..., 2, :] - q[..., 0, :])
    nn = row_norms(n)
    with np.errstate(invalid="ignore", divide="ignore"):
        return n / nn[..., None], 0.5 * nn


def face_angle(p: np.ndarray, v, x, y) -> np.ndarray:
    """Angle at vertex v between the rays to vertices x and y; the vertex
    indices broadcast against each other."""
    ux = p[..., x, :] - p[..., v, :]
    uy = p[..., y, :] - p[..., v, :]
    c = dot_rows(ux, uy) / (row_norms(ux) * row_norms(uy))
    return np.arccos(np.clip(c, -1.0, 1.0))


def _vertex_indices(labels) -> np.ndarray:
    return np.array([_VIDX[v] for v in labels])


@dataclass(frozen=True)
class Realization:
    """Six labeled points in 3-space, rows in A..F order."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.shape != (6, 3):
            raise ValueError(f"expected (6, 3) points, got {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_dict(cls, d: dict) -> "Realization":
        return cls(np.array([d[v] for v in VERTICES], dtype=float))

    def __getitem__(self, label: str) -> np.ndarray:
        return self.points[_VIDX[label]]

    def as_dict(self) -> dict[str, list[float]]:
        return {v: [float(x) for x in self[v]] for v in VERTICES}

    def flat_vector(self) -> np.ndarray:
        return self.points.reshape(-1).copy()

    @classmethod
    def from_flat(cls, x: np.ndarray) -> "Realization":
        return cls(np.asarray(x, dtype=float).reshape(6, 3))

    def diameter(self) -> float:
        return float(diameter_array(self.points))


def facet_normal(r: Realization, facet) -> np.ndarray:
    """Unit normal by the winding of the facet as listed."""
    name = facet if isinstance(facet, str) else "".join(facet)
    if name not in FACET_NAMES:
        raise ValueError(f"{name} is not a facet as listed")
    k = FACET_NAMES.index(name)
    normals, areas = facet_normals(r.points)
    if areas[k] == 0.0:
        raise DegenerateFacet(f"facet {name} has zero area")
    return normals[k]


def check_facets(r: Realization, tol: float = 1e-12) -> None:
    bad = np.nonzero(facet_normals(r.points)[1] <= tol * r.diameter() ** 2)[0]
    if bad.size:
        raise DegenerateFacet(f"facet {FACET_NAMES[bad[0]]} is degenerate")


def edge_lengths(r: Realization, check: bool = True) -> dict[str, float]:
    """Euclidean lengths of the 12 edges, keyed by canonical edge name."""
    if check:
        check_facets(r)
    return dict(zip(EDGE_ORDER, map(float, edge_length_array(r.points))))


def dihedral_angle(r: Realization, edge: str) -> float:
    """Signed dihedral along an edge, in (-pi, pi].

    Magnitude is the interior angle between the two facet half-planes (0 =
    folded together, pi = opened flat); the sign is right-handed about the
    shared-edge direction induced by the first-listed adjacent facet.
    """
    k = EDGE_ORDER.index(canonical_edge(edge[0], edge[1]))
    return float(_dihedrals(r.points, [k])[0])


def all_dihedrals(r: Realization) -> dict[str, float]:
    return dict(zip(EDGE_ORDER, map(float, dihedral_array(r.points))))


def _vertex_cycle_from_pair(v: str, pair: tuple[str, str]) -> tuple[str, str, str, str]:
    """Cycle (P, M, N, Q) at v for tracked adjacent neighbors pair = (P, Q)."""
    cyc = VERTEX_CYCLES[v]
    p, q = pair
    if p not in cyc or q not in cyc:
        raise NonAdjacentEdges(f"{p} or {q} is not adjacent to {v}")
    i, j = cyc.index(p), cyc.index(q)
    if (i - j) % 4 not in (1, 3):
        raise NonAdjacentEdges(f"edges {v}{p} and {v}{q} do not share a facet")
    # walk the cycle from p the long way around to q
    if (j - i) % 4 == 3:
        m, n = cyc[(i + 1) % 4], cyc[(i + 2) % 4]
    else:
        m, n = cyc[(i - 1) % 4], cyc[(i - 2) % 4]
    return p, m, n, q


def vertex_face_angles(r: Realization, v: str, pair: tuple[str, str]) -> FaceAngles:
    """Face angles of the tetrahedral angle at v, oriented to the linkage
    convention for the two tracked edges (v, pair[0]) and (v, pair[1]).

    alpha is the facet angle between the tracked edges, beta flanks the
    first, delta the second, gamma lies opposite alpha.
    """
    p, m, n, q = _vertex_cycle_from_pair(v, pair)
    # alpha, beta, gamma, delta span (p, q), (p, m), (m, n), (n, q)
    angles = face_angle(r.points, _VIDX[v], _vertex_indices((p, p, m, n)),
                        _vertex_indices((q, m, n, q)))
    return FaceAngles(*map(float, angles))


def vertex_half_tangents(r: Realization, v: str, pair: tuple[str, str]) -> tuple[float, float]:
    """Half-tangents (t, u) of the dihedrals along the tracked edges at v.

    Both dihedrals are measured against the shared facet with a common
    normal z = p x y' (y' the in-facet direction toward the second edge),
    which makes them satisfy the linkage equation of vertex_face_angles.
    """
    p, m, n, q = _vertex_cycle_from_pair(v, pair)
    o = r[v]
    up = r[p] - o
    up = up / np.linalg.norm(up)
    uq = r[q] - o
    uq = uq / np.linalg.norm(uq)
    yp = uq - (uq @ up) * up
    yp = yp / np.linalg.norm(yp)
    z = np.cross(up, yp)
    um = r[m] - o
    wm = um - (um @ up) * up
    phi = math.atan2(float(wm @ z), float(wm @ yp))
    yq = up - (up @ uq) * uq
    yq = yq / np.linalg.norm(yq)
    un = r[n] - o
    wn = un - (un @ uq) * uq
    psi = math.atan2(float(wn @ z), float(wn @ yq))
    return math.tan(0.5 * phi), math.tan(0.5 * psi)


def opposite_pair_cosines(r: Realization, v: str,
                          pair: tuple[str, str]) -> tuple[FaceAngles, float, float]:
    """Face angles and dihedral cosines for an opposite edge pair at v.

    pair = (p, s) must be non-adjacent neighbors of v (the two edges are
    opposite in the tetrahedral angle).  Returns FaceAngles ordered so that
    the first tracked dihedral phi runs along (v, p) and theta along (v, s),
    together with (cos phi, cos theta).
    """
    cyc = VERTEX_CYCLES[v]
    p, s = pair
    if p not in cyc or s not in cyc:
        raise NonAdjacentEdges(f"{p} or {s} is not adjacent to {v}")
    if (cyc.index(p) - cyc.index(s)) % 4 != 2:
        raise NonAdjacentEdges(f"edges {v}{p} and {v}{s} are not opposite at {v}")
    i = cyc.index(p)
    q, w = cyc[(i + 1) % 4], cyc[(i + 3) % 4]  # cycle p, q, s, w
    # alpha, beta, gamma, delta span (w, p), (p, q), (q, s), (s, w)
    angles = FaceAngles(*map(float, face_angle(
        r.points, _VIDX[v], _vertex_indices((w, p, q, s)), _vertex_indices((p, q, s, w)))))
    cos_phi = math.cos(dihedral_angle(r, canonical_edge(v, p)))
    cos_theta = math.cos(dihedral_angle(r, canonical_edge(v, s)))
    return angles, cos_phi, cos_theta


def validate(el: dict[str, float]) -> list[str]:
    """Names of facets whose three edges violate the triangle inequality."""
    bad = []
    for name in FACET_NAMES:
        sides = sorted(el[canonical_edge(name[i], name[(i + 1) % 3])] for i in range(3))
        if sides[0] <= 0.0 or sides[0] + sides[1] <= sides[2]:
            bad.append(name)
    return bad


def coplanarity_measure(r: Realization) -> float:
    """Smallest singular value of the centered coordinates over their norm."""
    return float(coplanarity_array(r.points))


def flat_angle_product(r: Realization) -> float:
    """Closure product of the per-vertex linkage constants of a flat figure.

    Each of the vertices A, B, C of a flat realization carries a one-to-one
    (unicursal) dihedral relation whose constant is determined by two face
    angles.  Compatibility of the three relations around the facet ABC
    requires a product of those constants to equal 1; this returns the
    closest such product.  In the reference flat arrangement it reduces to

        cos((BAF-BAC)/2)/cos((BAF+BAC)/2)
        * sin((ABC-DBC)/2)/sin((ABC+DBC)/2)
        * sin((DCB+ACB)/2)/sin((DCB-ACB)/2)

    with all angles read off the flat figure.
    """
    # tracked edges: t on BC, u on CA, v on AB
    # A relates (v, u), B relates (t, v), C relates (t, u)
    specs = {"A": ("B", "C"), "B": ("C", "A"), "C": ("B", "A")}
    kinds: dict[str, str] = {}
    consts: dict[str, tuple[float, float]] = {}
    for v, pair in specs.items():
        ang = vertex_face_angles(r, v, pair)
        uc = unicursal_constants(ang, tol=1e-6)
        kinds[v] = uc.branch
        consts[v] = (uc.k_a, uc.k_b)

    # exponent of the shared variable v (dihedral AB) in each relation
    # A: v*u = k (product) or v/u = k (ratio)  ->  u = k v^-1 or u = v/k
    # B: t*v = k or t/v = k                    ->  t = k v^-1 or t = k v
    # C: t*u = k or t/u = k
    best = math.inf
    pa, pb, pc = (kinds[v] == PRODUCT for v in "ABC")
    u_pow = -1 if pa else +1
    t_pow = -1 if pb else +1
    for ka in consts["A"]:
        for kb in consts["B"]:
            coef_u = ka if pa else 1.0 / ka
            coef_t = kb
            for kc in consts["C"]:
                if pc and u_pow + t_pow == 0:
                    val = coef_t * coef_u
                elif not pc and t_pow == u_pow:
                    val = coef_t / coef_u
                else:
                    continue
                if kc != 0.0 and math.isfinite(val):
                    prod = val / kc
                    if abs(prod - 1.0) < abs(best - 1.0):
                        best = prod
    return best


@dataclass
class FlexTypeReport:
    """Necessary-condition report from edge lengths (never asserts flexibility)."""

    matches_type1: bool
    type1_max_deviation: float
    matches_type2: list[tuple[str, str]]
    type3_residual: float | None
    notes: list[str] = field(default_factory=list)


def _type2_deviation(el: dict[str, float], mapping: dict[str, str]) -> float:
    dev = 0.0
    for e in EDGE_ORDER:
        img = canonical_edge(mapping[e[0]], mapping[e[1]])
        dev = max(dev, abs(el[e] - el[img]))
    return dev


def classify_edge_lengths(el: dict[str, float], flat: Realization | None = None,
                          tol: float = 1e-9) -> FlexTypeReport:
    """Test the edge lengths against the three necessary condition patterns.

    Type one: the six opposite edge pairs equal.  Type two: for some
    opposite vertex pair held fixed, the remaining vertices swap as in a
    mirror through the fixed pair (the two opposite pairs exchanged within
    themselves).  Type three needs a flat realization; its residual is the
    flat closure product minus 1.  All conditions are necessary only.
    """
    mean = sum(el.values()) / len(el)
    thr = tol * mean
    notes = []

    dev1 = max(abs(el[e1] - el[e2]) for e1, e2 in OPPOSITE_EDGES)
    matches1 = dev1 <= thr
    if matches1:
        notes.append("type 1 conditions are necessary only: assembly chirality "
                     "decides flexibility")

    matches2: list[tuple[str, str]] = []
    for fixed in (("A", "D"), ("B", "E"), ("C", "F")):
        rest = [v for v in VERTICES if v not in fixed]
        p1 = (rest[0], OPPOSITE_VERTEX[rest[0]])
        p2 = tuple(v for v in rest if v not in p1)
        mapping = {fixed[0]: fixed[0], fixed[1]: fixed[1],
                   p1[0]: p1[1], p1[1]: p1[0], p2[0]: p2[1], p2[1]: p2[0]}
        if _type2_deviation(el, mapping) <= thr:
            matches2.append(fixed)
        # crossed pairings: the four moving vertices swap across opposite pairs
        for alt in ((p1[0], p2[0]), (p1[0], p2[1])):
            m = {fixed[0]: fixed[0], fixed[1]: fixed[1]}
            m[alt[0]], m[alt[1]] = alt[1], alt[0]
            o1, o2 = OPPOSITE_VERTEX[alt[0]], OPPOSITE_VERTEX[alt[1]]
            m[o1], m[o2] = o2, o1
            if _type2_deviation(el, m) <= thr:
                notes.append(f"crossed mirror pairing through {fixed[0]}{fixed[1]} "
                             f"also matches ({alt[0]}<->{alt[1]})")

    residual3 = None
    if flat is not None:
        if coplanarity_measure(flat) > 1e-6:
            raise ValueError("supplied realization is not flat")
        residual3 = abs(flat_angle_product(flat) - 1.0)

    return FlexTypeReport(matches1, dev1, matches2, residual3, notes)


def reflection_pairing_residual(r: Realization, mapping: dict[str, str]) -> float:
    """Best-fit mirror symmetry defect for a vertex pairing, per diameter.

    mapping is an involution on vertex labels; fixed labels must lie on the
    mirror plane, swapped pairs must reflect onto each other.
    """
    diffs = []
    for v, w in mapping.items():
        if v < w:
            diffs.append(r[v] - r[w])
    if not diffs:
        return 0.0
    m = np.array(diffs)
    _, _, vt = np.linalg.svd(m)
    n = vt[0]
    # plane offset from fixed vertices and pair midpoints
    anchors = [0.5 * (r[v] + r[mapping[v]]) for v in mapping]
    h = float(np.mean([a @ n for a in anchors]))
    worst = 0.0
    for v, w in mapping.items():
        img = r[v] - 2.0 * ((r[v] @ n) - h) * n
        worst = max(worst, float(np.linalg.norm(img - r[w])))
    return worst / r.diameter()


def regular_octahedron(scale: float = 1.0) -> Realization:
    """A regular octahedron with opposite vertices at +-scale on the axes."""
    s = float(scale)
    return Realization(np.array([[s, 0, 0], [0, s, 0], [0, 0, s],
                                 [-s, 0, 0], [0, -s, 0], [0, 0, -s]]))
