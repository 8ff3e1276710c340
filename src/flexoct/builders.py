"""Constructive generators for the three flexible octahedron families.

Type one: a half-turn axis maps A, B, F to D, E, C; result flexes with its
opposite edges pairwise equal.  The companion mirror builder assembles the
same twelve edge lengths in the opposite chirality, which is rigid and
serves as the negative control.  Type two: a mirror plane through two
opposite vertices.  Type three: a completely flat figure built from an
arbitrary triangle and an interior concurrency point, every vertex of which
carries a one-to-one (unicursal) dihedral relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flexion import flex_dimension
from .octahedron import Realization, check_facets, edge_lengths, flat_angle_product


class DegenerateInput(ValueError):
    """Inputs collapse a facet or admit no valid assembly."""


class PointsNotOnPlane(ValueError):
    """A point required to lie on the mirror plane does not."""


class DegenerateConcurrency(ValueError):
    """The concurrency point lies on an interior bisector; the flat figure collapses."""


class UnboundedIntersection(ValueError):
    """Defining rays are parallel; a flat vertex escapes to infinity."""


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise DegenerateInput("zero direction vector")
    return v / n


def half_turn(point, axis_point, axis_direction) -> np.ndarray:
    """Rotation by pi about the line (axis_point, axis_direction)."""
    p = np.asarray(point, dtype=float)
    a = np.asarray(axis_point, dtype=float)
    d = _unit(np.asarray(axis_direction, dtype=float))
    v = p - a
    return a + 2.0 * (v @ d) * d - v


def reflect(point, plane_point, plane_normal) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    q = np.asarray(plane_point, dtype=float)
    n = _unit(np.asarray(plane_normal, dtype=float))
    return p - 2.0 * ((p - q) @ n) * n


def build_type1(p_a, p_b, p_f, axis_point=(0.0, 0.0, 0.0),
                axis_direction=(0.0, 0.0, 1.0)) -> Realization:
    """Half-turn symmetric octahedron: D, E, C are the images of A, B, F.

    The output satisfies all six opposite-edge equalities exactly and is
    the superimposable (flexible) assembly: the triangle pair (ACE, DCE) is
    the direct half-turn image of (DFB, AFB).
    """
    a = np.asarray(p_a, dtype=float)
    b = np.asarray(p_b, dtype=float)
    f = np.asarray(p_f, dtype=float)
    d = half_turn(a, axis_point, axis_direction)
    e = half_turn(b, axis_point, axis_direction)
    c = half_turn(f, axis_point, axis_direction)
    r = Realization(np.array([a, b, c, d, e, f]))
    try:
        check_facets(r)
    except ValueError as exc:
        raise DegenerateInput(str(exc)) from None
    return r


def build_type2(p_c, p_f, p_a, p_e, plane_point=(0.0, 0.0, 0.0),
                plane_normal=(0.0, 1.0, 0.0), tol: float = 1e-12) -> Realization:
    """Mirror symmetric octahedron: C, F on the plane, D and B the images
    of A and E."""
    pc = np.asarray(p_c, dtype=float)
    pf = np.asarray(p_f, dtype=float)
    pa = np.asarray(p_a, dtype=float)
    pe = np.asarray(p_e, dtype=float)
    q = np.asarray(plane_point, dtype=float)
    n = _unit(np.asarray(plane_normal, dtype=float))
    span = max(np.linalg.norm(p - q) for p in (pc, pf, pa, pe)) or 1.0
    for name, p in (("C", pc), ("F", pf)):
        if abs((p - q) @ n) > tol * span:
            raise PointsNotOnPlane(f"point {name} is off the mirror plane")
    for name, p in (("A", pa), ("E", pe)):
        if abs((p - q) @ n) <= tol * span:
            raise DegenerateInput(f"point {name} must lie off the mirror plane")
    pd = reflect(pa, q, n)
    pb = reflect(pe, q, n)
    r = Realization(np.array([pa, pb, pc, pd, pe, pf]))
    try:
        check_facets(r)
    except ValueError as exc:
        raise DegenerateInput(str(exc)) from None
    return r


# ---------------------------------------------------------------------------
# type 1 negative control: same edge lengths, mirror-assembled, rigid


def _mirror_central(el: dict[str, float]) -> Realization | None:
    """Centrally symmetric assembly D = -A, E = -B, F = -C, if realizable.

    The six independent lengths determine the Gram matrix of A, B, C; a
    point-symmetric realization exists iff it is positive semidefinite.
    """
    ab = (el["AE"] ** 2 - el["AB"] ** 2) / 4.0
    bc = (el["BF"] ** 2 - el["BC"] ** 2) / 4.0
    ca = (el["CD"] ** 2 - el["CA"] ** 2) / 4.0
    s_ab = el["AB"] ** 2 + 2.0 * ab
    s_bc = el["BC"] ** 2 + 2.0 * bc
    s_ca = el["CA"] ** 2 + 2.0 * ca
    a2 = (s_ab + s_ca - s_bc) / 2.0
    b2 = s_ab - a2
    c2 = s_ca - a2
    gram = np.array([[a2, ab, ca], [ab, b2, bc], [ca, bc, c2]])
    w, v = np.linalg.eigh(gram)
    if w[0] < -1e-10 * max(1.0, w[-1]):
        return None
    x = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    pa, pb, pc = x[0], x[1], x[2]
    return Realization(np.array([pa, pb, pc, -pa, -pb, -pc]))


def _first_order_rigid(r: Realization) -> bool:
    return flex_dimension(r).flex_dimension == 0


def _mirror_general(el: dict[str, float], sgn_b: float,
                    sgn_delta: float) -> Realization | None:
    """Close the mirror assembly by a one-variable solve in s = |AD|.

    With A at the origin and D at (s, 0, 0), each of B, C, E, F lies on a
    circle about AD whose axial offset and radius s fixes.  Each edge of the
    ring B-C-E-F fixes the cosine of the twist between its endpoints'
    circles: with F at twist 0, BF gives B, BC gives C (two ways), EC gives
    E, and EF is the one equation left, g(s) = cos(twist E) - k_EF.  g is
    sampled on 8192 diagonal lengths and each sign change bisected.  Roots
    that are first-order flexible are skipped: they sit at coplanar
    positions of the reattached pair, where the mirror and direct
    assemblies coincide.
    """
    arms = {"B": (el["AB"], el["DB"]), "C": (el["CA"], el["CD"]),
            "E": (el["AE"], el["DE"]), "F": (el["FA"], el["FD"])}
    lo = max(abs(p - q) for p, q in arms.values())
    hi = min(p + q for p, q in arms.values())
    if not hi > lo:
        return None

    def ring(s, sgn_c):
        """EF closure gap, axial offsets, radii and twists at diagonal s."""
        x = {v: (p * p - q * q + s * s) / (2.0 * s) for v, (p, q) in arms.items()}
        with np.errstate(invalid="ignore", divide="ignore"):
            rho = {v: np.sqrt(arms[v][0] ** 2 - x[v] ** 2) for v in arms}

            def cos_twist(v, w, edge):
                return ((rho[v] ** 2 + rho[w] ** 2 + (x[v] - x[w]) ** 2 - el[edge] ** 2)
                        / (2.0 * rho[v] * rho[w]))

            th = {"F": 0.0, "B": sgn_b * np.arccos(cos_twist("B", "F", "BF"))}
            th["C"] = th["B"] + sgn_c * np.arccos(cos_twist("B", "C", "BC"))
            th["E"] = th["C"] + sgn_delta * np.arccos(cos_twist("C", "E", "EC"))
            return np.cos(th["E"]) - cos_twist("E", "F", "EF"), x, rho, th

    grid = np.linspace(lo, hi, 8194)[1:-1]
    for sgn_c in (1.0, -1.0):
        g = ring(grid, sgn_c)[0]
        for i in np.flatnonzero(g[:-1] * g[1:] <= 0.0):
            a, b, ga = grid[i], grid[i + 1], g[i]
            while a < 0.5 * (a + b) < b:
                m = 0.5 * (a + b)
                if ring(m, sgn_c)[0] * ga > 0.0:
                    a = m
                else:
                    b = m
            _, x, rho, th = ring(a, sgn_c)
            pos = {v: [x[v], rho[v] * np.cos(th[v]), rho[v] * np.sin(th[v])] for v in arms}
            r = Realization(np.array([[0.0, 0.0, 0.0], pos["B"], pos["C"],
                                      [a, 0.0, 0.0], pos["E"], pos["F"]]))
            if _lengths_match(r, el) and _first_order_rigid(r):
                return r
    return None


def _chirality(r: Realization, triple: tuple[str, str, str]) -> float:
    a = r["A"]
    m = np.array([r[v] - a for v in triple])
    return float(np.sign(np.linalg.det(m)))


def _lengths_match(r: Realization, el: dict[str, float]) -> bool:
    got = edge_lengths(r, check=False)
    return all(abs(got[k] - el[k]) <= 1e-9 * el[k] for k in el)


def build_type1_mirror(p_a, p_b, p_f, axis_point=(0.0, 0.0, 0.0),
                       axis_direction=(0.0, 0.0, 1.0)) -> Realization:
    """The mirror-assembled counterpart of build_type1: identical twelve
    edge lengths, opposite relative chirality of the two triangle systems,
    generically rigid.

    The reflected triangle pair no longer closes the BC and EF edges at
    their original lengths, so after reflecting, the assembly is re-closed:
    first in the point-symmetric position (closed form), otherwise by a
    one-variable solve in the diagonal length |AD|: the edges BF, BC and EC
    fix the twists of B, C and E about AD, and EF is the one closure
    equation left.  Raises DegenerateInput when no mirror assembly closes at
    these edge lengths.
    """
    direct = build_type1(p_a, p_b, p_f, axis_point, axis_direction)
    el = edge_lengths(direct)

    r = _mirror_central(el)
    if r is not None and _lengths_match(r, el):
        try:
            check_facets(r)
            if _first_order_rigid(r):
                return r
        except ValueError:
            pass

    chi1 = _chirality(direct, ("B", "F", "D"))
    chi2 = _chirality(direct, ("C", "E", "D"))
    # in the AD frame of _mirror_general, sign(sin th_B) = -chi1 reproduces
    # the first tetrahedron; sign(sin(th_E - th_C)) = -chi2 flips the second
    # (the mirror)
    r = _mirror_general(el, sgn_b=-chi1, sgn_delta=-chi2)
    if r is not None:
        try:
            check_facets(r)
            return r
        except ValueError:
            pass
    raise DegenerateInput("mirror assembly does not close at these edge lengths")


# ---------------------------------------------------------------------------
# type 3: flat construction


@dataclass(frozen=True)
class Type3Construction:
    """Provenance of a flat unicursal octahedron.

    Holds the base triangle, the concurrency point of the three cevians,
    the signed rotation angles applied at A, B, C (twice the angle from
    each interior bisector to its cevian), the constructed flat vertices,
    and the closure residual of the per-vertex linkage constants.
    """

    base: dict[str, tuple[float, float]]
    concurrency_point: tuple[float, float]
    rotation_angles: tuple[float, float, float]
    flat_points: dict[str, tuple[float, float]]
    ceva_residual: float


def _ang2(u: np.ndarray, v: np.ndarray) -> float:
    return math.atan2(u[0] * v[1] - u[1] * v[0], float(u @ v))


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _line_intersection(p1, d1, p2, d2, tol: float = 1e-12) -> np.ndarray:
    m = np.array([d1, -d2]).T
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) <= tol * np.linalg.norm(d1) * np.linalg.norm(d2):
        raise UnboundedIntersection("defining rays are parallel")
    t = np.linalg.solve(m, np.asarray(p2, dtype=float) - np.asarray(p1, dtype=float))
    return np.asarray(p1, dtype=float) + t[0] * np.asarray(d1, dtype=float)


def build_type3_flat(p_a, p_b, p_c, interior_point,
                     tol: float = 1e-9) -> tuple[Type3Construction, Realization]:
    """Flat octahedron from a triangle and an interior concurrency point.

    At each triangle vertex the facet angle is rotated, in the plane, by
    twice the signed angle from the interior bisector to the cevian through
    the given point; D, E, F are the pairwise intersections of the rotated
    rays, extended through the vertices where needed.  Concurrency of the
    cevians makes the flat figure the necessary-and-sufficient flat
    position of a deformable octahedron, and every vertex carries opposite
    faces equal or supplementary in pairs.
    """
    a2 = np.asarray(p_a, dtype=float)[:2]
    b2 = np.asarray(p_b, dtype=float)[:2]
    c2 = np.asarray(p_c, dtype=float)[:2]
    p2 = np.asarray(interior_point, dtype=float)[:2]

    area2 = (b2 - a2)[0] * (c2 - a2)[1] - (b2 - a2)[1] * (c2 - a2)[0]
    scale = max(np.linalg.norm(b2 - a2), np.linalg.norm(c2 - a2))
    if abs(area2) <= 1e-12 * scale * scale:
        raise DegenerateInput("base triangle is degenerate")
    # strict interior check via barycentric signs
    for q0, q1, q2v in ((a2, b2, c2), (b2, c2, a2), (c2, a2, b2)):
        cross = (q1 - q0)[0] * (p2 - q0)[1] - (q1 - q0)[1] * (p2 - q0)[0]
        if cross * area2 <= 0.0:
            raise DegenerateInput("concurrency point must lie strictly inside the triangle")

    pts = {"A": a2, "B": b2, "C": c2}
    thetas = {}
    rays = {}
    for v, x, y in (("A", "B", "C"), ("B", "C", "A"), ("C", "A", "B")):
        o = pts[v]
        ux = _unit(pts[x] - o)
        uy = _unit(pts[y] - o)
        bis = _unit(ux + uy)
        theta = 2.0 * _ang2(bis, _unit(p2 - o))
        thetas[v] = theta
        rot = _rot2(theta)
        rays[v] = {x: rot @ ux, y: rot @ uy}
    if min(abs(t) for t in thetas.values()) <= tol:
        raise DegenerateConcurrency(
            "concurrency point lies on an interior bisector (rotation vanishes)")

    d2 = _line_intersection(b2, rays["B"]["C"], c2, rays["C"]["B"])
    e2 = _line_intersection(c2, rays["C"]["A"], a2, rays["A"]["C"])
    f2 = _line_intersection(a2, rays["A"]["B"], b2, rays["B"]["A"])

    coords = {"A": a2, "B": b2, "C": c2, "D": d2, "E": e2, "F": f2}
    r = Realization(np.array([[q[0], q[1], 0.0] for q in coords.values()]))
    try:
        check_facets(r)
    except ValueError as exc:
        raise DegenerateInput(str(exc)) from None

    residual = abs(flat_angle_product(r) - 1.0)

    construction = Type3Construction(
        base={k: (float(v[0]), float(v[1])) for k, v in pts.items()},
        concurrency_point=(float(p2[0]), float(p2[1])),
        rotation_angles=(thetas["A"], thetas["B"], thetas["C"]),
        flat_points={k: (float(v[0]), float(v[1])) for k, v in coords.items()},
        ceva_residual=float(residual))
    return construction, r
