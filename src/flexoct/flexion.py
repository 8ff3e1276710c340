"""First-order rigidity analysis and finite flexion by continuation.

The rigidity matrix stacks the gradients of the twelve squared edge-length
constraints; its co-rank beyond the six rigid-body motions counts the
independent infinitesimal flexes.

Finite flexion is traced by arc-length predictor-corrector continuation in
the three hinge angles of a pinned facet: each other vertex turns about the
facet side it is hinged on, and the three edges between them are the
memoir's tetrahedral-angle relations at the facet's vertices.  The predictor
follows the null vector of their 3 x 3 Jacobian, whose singular values also
decide a loss of rank or a branch ambiguity; the corrector is Gauss-Newton
on the three residuals plus the arc row, a 3 x 3 solve in plain floats.

At a flat (coplanar) configuration the hinge-angle Jacobian vanishes.  A
flat start's tangent is the common zero of the three self-stress quadratic
forms of the 18-coordinate system, found in closed form from their conic
pencils; the corrected second-order probe that picks among them is the
path's first step.  Flat crossings are recorded as events, not failures: a
hinged vertex's height above the facet is rho sin(psi + alpha), so a step
whose end heights point against its start heights brackets a crossing, at
psi = k pi - alpha for every angle.

A traced path is a FlexionPath of columns, one row per frame: the points,
arc lengths, twelve dihedrals, edge deviations and coplanarity measures,
all built from the steps' hinge angles in one batched pass when the path
returns or raises.  ``FlexionPath.frames`` is a read-only per-row view.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .octahedron import (EDGE_INCIDENCE, EDGE_ORDER, FACET_NAMES, FACET_VERTS, FACETS,
                         FLAT_TOL, OPPOSITE_VERTEX, VERTICES, Realization, canonical_edge,
                         check_facets, coplanarity_array, coplanarity_measure,
                         dihedral_angle, dihedral_array, dot_rows, edge_length_array,
                         edge_vectors, facet_normals, row_norms)
# no longer called here; kept bound because the benchmark's span tracer test
# checks that it patches this module's binding of all_dihedrals too
from .octahedron import all_dihedrals  # noqa: F401


# singular values below RANK_TOL count as zero: times the largest for the
# rigidity matrix, absolutely for the hinge-angle Jacobian, whose entries
# are cosines
RANK_TOL = 1e-7


class NotFlexible(ValueError):
    """The starting realization admits no finite flex."""


class ContinuationStall(RuntimeError):
    """Corrector failed after reducing the step to its floor."""

    def __init__(self, message: str, partial: "FlexionPath"):
        super().__init__(message)
        self.partial = partial


class BranchAmbiguity(RuntimeError):
    """Tangent space dimension exceeded one away from a flat configuration,
    or fell short of three at a flat start."""

    def __init__(self, message: str, partial: "FlexionPath"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class RigidityReport:
    singular_values: np.ndarray
    rank: int
    flex_dimension: int
    degenerate_flag: bool


@dataclass(frozen=True)
class DriveSpec:
    """Continuation controls.

    The driven edge's signed dihedral acts as a stopping monitor only; the
    path itself is parameterized by arc length, since dihedral
    parameterization is singular exactly at flat configurations.  Step
    sizes are relative to the starting diameter.
    """

    edge: str = "BC"
    dihedral_range: tuple[float, float] = (-math.pi, math.pi)
    direction: int = +1
    max_steps: int = 200
    initial_step: float = 0.02
    max_step: float = 0.05
    min_step_factor: float = 1e-6
    corrector_tol: float = 1e-12
    max_newton: int = 25
    rank_tol: float = RANK_TOL
    flat_event_tol: float = FLAT_TOL
    stop_after_flat_events: int | None = None
    pin: tuple[str, str, str] = ("A", "B", "C")


@dataclass(frozen=True)
class PathFrame:
    """One row of a FlexionPath, for readers that take a path frame by frame."""

    realization: Realization
    arclength: float
    max_edge_deviation: float
    flat_measure: float
    flat: bool


@dataclass
class PathEvent:
    kind: str
    frame_index: int
    info: dict


class _Frames(Sequence):
    """Read-only per-row view of a FlexionPath's columns."""

    def __init__(self, path: "FlexionPath"):
        self._path = path

    def __len__(self) -> int:
        return len(self._path.arclength)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if isinstance(i, range):
            return [self[k] for k in i]
        p = self._path
        return PathFrame(Realization(p.points[i]), float(p.arclength[i]),
                         float(p.edge_deviation[i]), float(p.flat_measure[i]),
                         bool(p.flat[i]))


@dataclass(eq=False)
class FlexionPath:
    """A traced path as columns, one row per frame: ``points`` (n, 6, 3),
    ``arclength`` (n,) in units of the diameter, ``dihedrals`` (n, 12) in
    EDGE_ORDER, ``edge_deviation`` (n,), the largest relative deviation from
    the target edge lengths, ``flat_measure`` (n,), the coplanarity measure,
    and ``flat`` (n,), where that measure is within the flat tolerance."""

    points: np.ndarray
    arclength: np.ndarray
    dihedrals: np.ndarray
    edge_deviation: np.ndarray
    flat_measure: np.ndarray
    flat: np.ndarray
    events: list[PathEvent] = field(default_factory=list)
    termination: str = ""
    drive: DriveSpec | None = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_points(cls, points, arclength, target_len: np.ndarray, flat_measure,
                    flat_tol: float, **info) -> "FlexionPath":
        """The path through stacked points, (n, 6, 3), with its dihedrals and
        its edge deviations from target_len (EDGE_ORDER) computed in one
        batched pass; ``info`` fills the remaining fields."""
        points = np.asarray(points, dtype=float).reshape(-1, 6, 3)
        lens = edge_length_array(points)
        measure = np.asarray(flat_measure, dtype=float)
        return cls(points, np.asarray(arclength, dtype=float), dihedral_array(points),
                   np.max(np.abs(lens - target_len) / target_len, axis=-1),
                   measure, measure <= flat_tol, **info)

    @property
    def frames(self) -> Sequence[PathFrame]:
        return _Frames(self)

    def dihedral_series(self, edge: str) -> np.ndarray:
        return self.dihedrals[:, EDGE_ORDER.index(canonical_edge(edge[0], edge[1]))]

    def flat_events(self) -> list[PathEvent]:
        return [ev for ev in self.events if ev.kind == "flat"]


def rigidity_matrix(r: Realization) -> np.ndarray:
    """12 x 18 Jacobian of the squared edge-length constraints."""
    d = 2.0 * edge_vectors(r.points)
    return (EDGE_INCIDENCE[:, :, None] * d[:, None, :]).reshape(12, 18)


def flex_dimension(r: Realization, rank_tol: float = RANK_TOL) -> RigidityReport:
    """Numerical rank of the rigidity matrix and the flex count 18 - 6 - rank.

    Coplanar realizations are flagged degenerate: every out-of-plane
    displacement is then a first-order flex, so the reported dimension
    overcounts finite flexes there.
    """
    sv = np.linalg.svd(rigidity_matrix(r), compute_uv=False)
    rank = int(np.sum(sv > rank_tol * sv[0])) if sv[0] > 0 else 0
    return RigidityReport(
        singular_values=sv,
        rank=rank,
        flex_dimension=18 - 6 - rank,
        degenerate_flag=coplanarity_measure(r) <= FLAT_TOL)


# ---------------------------------------------------------------------------
# facet-facet intersections


# the 16 facet pairs, as FACETS indices i < j, that share at most a vertex
_FACET_PAIRS = np.array([(i, j) for i, j in zip(*np.triu_indices(len(FACETS), 1))
                         if len(set(FACETS[i]) & set(FACETS[j])) < 2])
_NEXT = [1, 2, 0]  # the other end of each side of a triangle


def facet_crossings(r: Realization, tol: float | None = None) -> list[tuple[str, str]]:
    """Pairs of non-adjacent facets whose closed triangles intersect.

    Facet pairs sharing an edge are excluded; pairs sharing only a vertex
    count as crossing when the intersection extends beyond the shared
    point.  A pair not in one plane crosses when the stretches the two
    triangles cut from the line where their planes meet overlap by more
    than tol.  A coplanar pair (every vertex within tol of the other's
    plane) crosses when the projections of the two triangles on each of
    their six in-plane side normals overlap by more than tol, so coplanar
    facets that touch only along a side or at a vertex do not cross.
    Crossing facets are the signature of the concave, mutually piercing
    realizations traced out by flexible octahedra.
    """
    if tol is None:
        tol = 1e-9 * r.diameter()
    tris = r.points[FACET_VERTS][_FACET_PAIRS]  # (16, 2, 3, 3)
    normals, areas = (a[_FACET_PAIRS] for a in facet_normals(r.points))
    # zero-area facets and parallel planes give nan or inf entries; the
    # masks below never let them decide a pair
    with np.errstate(invalid="ignore", divide="ignore"):
        # the heights of each triangle's vertices above the other's plane
        dist = dot_rows(tris - tris[:, ::-1, :1], normals[:, ::-1, None])
        apart = ((dist > tol).all(-1) | (dist < -tol).all(-1)).any(-1)
        coplanar = (np.abs(dist) <= tol).all((-2, -1))

        # each triangle's stretch of the meet line: its vertices on the other
        # plane and the points where its sides cross that plane
        line = np.cross(normals[:, 0], normals[:, 1])
        line = line / row_norms(line)[:, None]
        at = dot_rows(tris, line[:, None, None])
        ahead = dist[..., _NEXT]
        cut = at + dist / (dist - ahead) * (at[..., _NEXT] - at)
        params = np.concatenate([at, cut], axis=-1)
        on = np.concatenate([np.abs(dist) <= tol, dist * ahead < -tol * tol], axis=-1)
        lo = np.where(on, params, np.inf).min(-1)
        hi = np.where(on, params, -np.inf).max(-1)
        meet = hi.min(-1) - lo.max(-1) > tol

        # coplanar pairs: the triangles' projections on each side normal
        sides = tris[..., _NEXT, :] - tris
        axes = np.cross(sides, normals[:, :, None]).reshape(-1, 6, 3)
        axes = axes / row_norms(axes)[..., None]
        proj = tris @ axes.swapaxes(-1, -2)[:, None]  # (16, 2, 3 vertices, 6 axes)
        overlap = proj.max(-2).min(-2) - proj.min(-2).max(-2)
        share = overlap.min(-1) > tol
    cross = (areas > 0.0).all(-1) & ~apart & np.where(coplanar, share, meet)
    return [(FACET_NAMES[i], FACET_NAMES[j]) for i, j in _FACET_PAIRS[cross]]


# ---------------------------------------------------------------------------
# continuation


def _pin_frames(p: np.ndarray, pin) -> np.ndarray:
    """Orthonormal frames (..., 3, 3) of points (..., 6, 3): rows e1 along
    pin[0] -> pin[1], e2 = n x e1 and n normal to the three pin vertices."""
    i0, i1, i2 = pin
    e1 = p[..., i1, :] - p[..., i0, :]
    e1 = e1 / row_norms(e1)[..., None]
    n = np.cross(e1, p[..., i2, :] - p[..., i0, :])
    n = n / row_norms(n)[..., None]
    return np.stack([e1, np.cross(n, e1), n], axis=-2)


class _System:
    """Edge + pin constraint system in the 18 coordinates, for a flat start,
    where the hinge angles are degenerate; each squared-length row is
    normalized by its own target."""

    def __init__(self, r0: Realization, pin: tuple[int, int, int]):
        self.targets2 = edge_length_array(r0.points) ** 2
        i0, i1, i2 = pin
        _, e2, n = _pin_frames(r0.points, pin)
        rows = np.zeros((6, 6, 3))
        rows[:3, i0] = np.eye(3)
        rows[3, i1], rows[4, i1], rows[5, i2] = e2, n, n
        rows[3:, i0] = -np.array([e2, n, n])
        self.jacobian = np.vstack([rigidity_matrix(r0) / self.targets2[:, None],
                                   rows.reshape(6, 18) / r0.diameter()])

    def stress_quadric(self, lam: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Quadratic form of one self-stress restricted to a null-space basis."""
        wd = edge_vectors(basis.reshape(-1, 6, 3)).swapaxes(0, 1)
        terms = (lam * 2.0)[:, None, None] * (wd @ wd.swapaxes(1, 2))
        return (terms / self.targets2[:, None, None]).sum(axis=0)

    def acceleration(self, v: np.ndarray) -> np.ndarray:
        """Least-squares curve acceleration for the second-order predictor."""
        rhs = np.zeros(18)
        dv = edge_vectors(v.reshape(6, 3))
        rhs[:12] = -2.0 * dot_rows(dv, dv) / self.targets2
        return np.linalg.lstsq(self.jacobian, rhs, rcond=None)[0]


def _plane_zeros(q: np.ndarray, plane: np.ndarray) -> list[np.ndarray]:
    """The two unit vectors in the span of the orthonormal rows of plane on
    which the form q vanishes, or none where q is definite there."""
    w, f = np.linalg.eigh(plane @ q @ plane.T)
    if w[0] * w[1] > 0.0:
        return []
    a, b = np.sqrt(np.abs(w))
    return list((plane.T @ f @ [[b, b], [a, -a]]).T / math.hypot(a, b))


def _common_quadric_zero(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Unit vectors, one per +- pair, on which three ternary quadratic forms
    all vanish.

    A real common zero of two conics q1, q2 lies on a real line of each
    degenerate member q1 + lam q2 of their pencil, lam a real root of the
    cubic det(q1 + lam q2), so it is a meet of such a line with q1.  Meets
    on which every form vanishes to 1e-9 of its norm are kept.  Two conics
    that nearly touch place their meet poorly, so all three pencils are
    solved and each direction keeps its candidate of smallest residual.
    """
    norms = [max(np.linalg.norm(m), 1e-30) for m in mats]
    found = []
    for q1, q2 in zip(mats, mats[1:] + mats[:1]):
        # the rows of a 3 x 3 adjugate are cross products of columns
        adj1, adj2 = (np.cross(q[:, [1, 2, 0]].T, q[:, [2, 0, 1]].T) for q in (q1, q2))
        roots = np.roots([np.linalg.det(q2), np.trace(adj2 @ q1),
                          np.trace(adj1 @ q2), np.linalg.det(q1)])
        for lam in roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots.real))].real:
            member = q1 + lam * q2
            w, v = np.linalg.eigh(member)
            k = int(np.argmin(np.abs(w)))  # v[:, k] is where the two lines meet
            for line in _plane_zeros(member, np.delete(v, k, axis=1).T):
                for u in _plane_zeros(q1, np.array([v[:, k], line])):
                    res = max(abs(u @ m @ u) / n for m, n in zip(mats, norms))
                    if res < 1e-9:
                        found.append((res, u))
    sols: list[np.ndarray] = []
    for _, u in sorted(found, key=lambda item: item[0]):
        if all(abs(float(s @ u)) < 1.0 - 1e-6 for s in sols):
            sols.append(u)
    return sols


# The Jacobian of the three hinge residuals is cyclic, residual k reading
# only the angles k and k + 1: it is held as (a0, b0, a1, b1, a2, b2), the
# rows (a0, b0, 0), (0, a1, b1) and (b2, 0, a2).

def _row_crosses(jac) -> tuple[tuple[float, float, float], ...]:
    """The cross products of the rows 0 and 1, 1 and 2, and 2 and 0."""
    a0, b0, a1, b1, a2, b2 = jac
    return ((b0 * b1, -a0 * b1, a0 * a1), (a1 * a2, b1 * b2, -a1 * b2),
            (-a2 * b0, a0 * a2, b0 * b2))


def _null_vector(jac) -> tuple[float, float, float]:
    """Unit null vector of a rank-2 Jacobian: its rows' largest cross product."""
    v = max(_row_crosses(jac), key=lambda c: c[0] ** 2 + c[1] ** 2 + c[2] ** 2)
    n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    return v[0] / n, v[1] / n, v[2] / n


def _singular_values(jac) -> tuple[float, float, float]:
    """Singular values, largest first: the largest eigenvalue of the Gram
    matrix in closed form (the trigonometric solution of its cubic), the
    other two from its invariants c1 (the squared 2 x 2 minors) and det^2."""
    a0, b0, a1, b1, a2, b2 = jac
    o01, o12, o02 = a0 * b0, a1 * b1, a2 * b2  # the Gram matrix off its diagonal
    q = (a0 * a0 + b2 * b2 + b0 * b0 + a1 * a1 + b1 * b1 + a2 * a2) / 3.0
    d0, d1, d2 = a0 * a0 + b2 * b2 - q, b0 * b0 + a1 * a1 - q, b1 * b1 + a2 * a2 - q
    p = math.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (o01 ** 2 + o12 ** 2 + o02 ** 2)) / 6.0)
    r = (d0 * (d1 * d2 - o12 * o12) - o01 * (o01 * d2 - o12 * o02)
         + o02 * (o01 * o12 - d1 * o02)) / (2.0 * p ** 3) if p > 0.0 else 1.0
    lam1 = q + 2.0 * p * math.cos(math.acos(min(1.0, max(-1.0, r))) / 3.0)
    if not lam1 > 0.0:
        return 0.0, 0.0, 0.0
    c1 = sum(x * x for c in _row_crosses(jac) for x in c)
    prod = (a0 * a1 * a2 + b0 * b1 * b2) ** 2 / lam1  # lam2 * lam3
    total = max(c1 - prod, 0.0) / lam1                # lam2 + lam3
    lam2 = 0.5 * (total + math.sqrt(max(total * total - 4.0 * prod, 0.0)))
    return math.sqrt(lam1), math.sqrt(lam2), math.sqrt(prod / lam2 if lam2 > 0.0 else 0.0)


def _newton_step(jac, f, row, arc):
    """The Gauss-Newton step from the 3 x 3 normal equations of the residuals
    f plus the arc row, row . dy = -arc; zero where they are singular."""
    a0, b0, a1, b1, a2, b2 = jac
    t0, t1, t2 = row
    g00, g11, g22 = a0 * a0 + b2 * b2 + t0 * t0, b0 * b0 + a1 * a1 + t1 * t1, \
        b1 * b1 + a2 * a2 + t2 * t2
    g01, g12, g02 = a0 * b0 + t0 * t1, a1 * b1 + t1 * t2, a2 * b2 + t0 * t2
    r0, r1, r2 = (-(a0 * f[0] + b2 * f[2] + t0 * arc), -(b0 * f[0] + a1 * f[1] + t1 * arc),
                  -(b1 * f[1] + a2 * f[2] + t2 * arc))
    c00, c01, c02 = g11 * g22 - g12 * g12, g02 * g12 - g01 * g22, g01 * g12 - g02 * g11
    c11, c12, c22 = g00 * g22 - g02 * g02, g01 * g02 - g00 * g12, g00 * g11 - g01 * g01
    det = g00 * c00 + g01 * c01 + g02 * c02
    return ((c00 * r0 + c01 * r1 + c02 * r2) / det, (c01 * r0 + c11 * r1 + c12 * r2) / det,
            (c02 * r0 + c12 * r1 + c22 * r2) / det) if det else (0.0, 0.0, 0.0)


class _Hinges:
    """The flex in the hinge angles psi of a pinned facet P0 P1 P2.

    X_k, opposite P_k, turns about the side P_{k+1} -> P_{k+2}: X_k(psi) =
    c_k + rho_k (cos psi u_k + sin psi w_k), from psi = 0.  Residual k, the
    relative squared-length error of X_k X_{k+1}, is the memoir's relation
    at P_{k+2} as a trigonometric polynomial, smooth through pi.  Weighted
    by |X_k X_{k+1}| / (2 diam), in the arc y_k = rho_k psi_k / diam, each
    Jacobian entry is the cosine of a side and a hinge circle's tangent."""

    def __init__(self, p: np.ndarray, facet: tuple[int, int, int], diam: float):
        self.p0, self.facet = p, facet
        self.hinged = x = [VERTICES.index(OPPOSITE_VERTEX[VERTICES[i]]) for i in facet]
        tail = p[[facet[1], facet[2], facet[0]]]
        axis = p[[facet[2], facet[0], facet[1]]] - tail
        axis = axis / row_norms(axis)[:, None]
        arm = p[x] - tail
        arm = arm - dot_rows(arm, axis)[:, None] * axis  # from the foot on the axis
        self.c = c = p[x] - arm
        self.rho = rho = row_norms(arm)
        self.u = u = arm / rho[:, None]
        self.w = w = np.cross(axis, u)
        self.scale = tuple(map(float, diam / rho))  # d psi / d y
        # the height of X_k above the facet is rho_k sin(psi_k + alpha_k)
        n = _pin_frames(p, facet)[2]
        self.alpha = tuple(map(float, np.arctan2(u @ n, w @ n)))
        self.coeffs, self.weight = [], []
        for k, j in ((0, 1), (1, 2), (2, 0)):
            d = c[k] - c[j]
            length = float(np.linalg.norm(p[x[k]] - p[x[j]]))
            self.weight.append(length / (2.0 * diam))
            s = self.weight[k] / length ** 2
            sk, sj, sr = 2.0 * s * rho[k], -2.0 * s * rho[j], -2.0 * s * rho[k] * rho[j]
            self.coeffs.append((j, *map(float, (
                (d @ d + rho[k] ** 2 + rho[j] ** 2) * s - self.weight[k],
                sk * (d @ u[k]), sk * (d @ w[k]), sj * (d @ u[j]), sj * (d @ w[j]),
                sr * (u[k] @ u[j]), sr * (u[k] @ w[j]), sr * (w[k] @ u[j]), sr * (w[k] @ w[j])))))
        self.counts = {"steps": 0, "newton_iterations": 0, "halvings": 0, "flat_solves": 0}

    def evaluate(self, psi) -> tuple[list, list]:
        """The weighted residuals and the Jacobian in y at the angles psi."""
        cs, sn, sc = [math.cos(a) for a in psi], [math.sin(a) for a in psi], self.scale
        f, jac = [], []
        for k, (j, k0, kx1, kx2, ky1, ky2, m11, m12, m21, m22) in enumerate(self.coeffs):
            cx, sx, cy, sy = cs[k], sn[k], cs[j], sn[j]
            ax, bx = m11 * cy + m12 * sy, m21 * cy + m22 * sy
            f.append(k0 + kx1 * cx + kx2 * sx + ky1 * cy + ky2 * sy + cx * ax + sx * bx)
            jac.append((kx2 * cx - kx1 * sx + cx * bx - sx * ax) * sc[k])
            jac.append((ky2 * cy - ky1 * sy + cx * (m12 * cy - m11 * sy)
                        + sx * (m22 * cy - m21 * sy)) * sc[j])
        return f, jac

    def met(self, f, tol: float) -> bool:  # every relative squared-length error
        return all(abs(v) < tol * w for v, w in zip(f, self.weight))

    def advance(self, psi, tau, h: float) -> tuple[float, float, float]:
        return tuple(a + h * s * t for a, s, t in zip(psi, self.scale, tau))

    def distance(self, psi, phi) -> float:  # in the arc metric
        return math.sqrt(sum(((a - b) / s) ** 2 for a, b, s in zip(psi, phi, self.scale)))

    def heights(self, psi) -> list[float]:
        return [r * math.sin(a + al) for r, a, al in zip(self.rho, psi, self.alpha)]

    def points(self, psi: np.ndarray) -> np.ndarray:
        """The realizations, (n, 6, 3), at the angles psi, (n, 3)."""
        out = np.repeat(self.p0[None], len(psi), axis=0)
        out[:, self.hinged] = self.c + self.rho[:, None] * (
            np.cos(psi)[..., None] * self.u + np.sin(psi)[..., None] * self.w)
        return out

    def correct(self, psi, ref, tau, h: float, tol: float, max_newton: int):
        """Gauss-Newton from the prediction psi while each step lowers the
        residual norm; from the first point that meets tol, one more step,
        kept if it lowers the norm.  Returns the angles, the Jacobian there and
        whether tol was met.  The arc row asks the chord from ref, projected
        on the unit tangent tau there, to be h: a hinge's chord projects on its
        tangent as rho sin(psi - ref), so the row is sum tau sin(psi - ref) /
        scale = h."""
        sc = self.scale
        f, jac = self.evaluate(psi)
        sq, met = f[0] ** 2 + f[1] ** 2 + f[2] ** 2, self.met(f, tol)
        for _ in range(max_newton):
            self.counts["newton_iterations"] += 1
            d = [a - b for a, b in zip(psi, ref)]
            arc = sum(t * math.sin(x) / s for t, x, s in zip(tau, d, sc)) - h
            dy = _newton_step(jac, f, [t * math.cos(x) for t, x in zip(tau, d)], arc)
            trial = (psi[0] + sc[0] * dy[0], psi[1] + sc[1] * dy[1], psi[2] + sc[2] * dy[2])
            f_new, jac_new = self.evaluate(trial)
            sq_new = f_new[0] ** 2 + f_new[1] ** 2 + f_new[2] ** 2
            if met:
                return (trial, jac_new, True) if sq_new < sq else (psi, jac, True)
            if not sq_new < sq:
                break
            psi, f, jac, sq = trial, f_new, jac_new, sq_new
            met = self.met(f, tol)
        return psi, jac, met


def _flat_start_step(hinges: _Hinges, r0: Realization, drive: DriveSpec, orient):
    """The tangent, corrected angles and Jacobian, and step h of a flat start's
    first step: of the common zeros of the self-stress forms, each oriented,
    predicted to second order, projected on the hinge circles and corrected,
    the one corrected least at h, halved from drive.initial_step while none
    corrects."""
    sys, x0, diam = _System(r0, hinges.facet), r0.flat_vector(), r0.diameter()
    # the three flexes and self-stresses: the last singular vectors
    left, _, right = np.linalg.svd(sys.jacobian)
    null, dirs = right[-3:], []
    for u in _common_quadric_zero([sys.stress_quadric(lam[:12], null) for lam in left.T[-3:]]):
        v = null.T @ u
        rate = dot_rows(v.reshape(6, 3)[hinges.hinged], hinges.w)  # each hinge's arc
        tau = tuple(map(float, rate / np.linalg.norm(rate)))
        sign = orient(tau)
        dirs.append((tuple(sign * t for t in tau), sign * v, sys.acceleration(v)))
    h = drive.initial_step
    while dirs and h >= drive.initial_step * drive.min_step_factor:
        best = None
        for tau, v, acc in dirs:
            x = (x0 + h * diam * v + 0.5 * (h * diam) ** 2 * acc).reshape(6, 3)
            r = x[hinges.hinged] - hinges.c
            pred = tuple(map(float, np.arctan2(dot_rows(r, hinges.w), dot_rows(r, hinges.u))))
            psi, jac, ok = hinges.correct(pred, (0.0, 0.0, 0.0), tau, h, drive.corrector_tol,
                                          2 * drive.max_newton)
            if ok and (best is None or hinges.distance(psi, pred) < best[0]):
                best = (hinges.distance(psi, pred), tau, (psi, jac))
        if best is not None:
            return best[1], best[2], h
        h *= 0.5
        hinges.counts["halvings"] += 1
    raise NotFlexible("flat configuration has no finite flex "
                      "(no first-order flex extends to second order)")


def flex_path(r0: Realization, drive: DriveSpec = DriveSpec()) -> FlexionPath:
    """Trace a deformation from r0 that keeps r0's edge lengths.

    Raises DegenerateFacet when a facet of r0 has (near-)zero area and
    NotFlexible when the start has no flex.  A corrector failure after step
    reduction to the floor raises ContinuationStall carrying the partial
    path; a tangent-space ambiguity raises BranchAmbiguity the same way.
    The continuation runs in the hinge angles of the pin's facet, or of
    facet ABC when the pin is not a facet.
    """
    check_facets(r0)
    if len(set(drive.pin) & set(VERTICES)) != 3:
        raise ValueError(f"pin {tuple(drive.pin)}: expected three distinct vertex labels")
    pin, p0, diam = tuple(VERTICES.index(v) for v in drive.pin), r0.points, r0.diameter()
    if not np.any(np.cross(p0[pin[1]] - p0[pin[0]], p0[pin[2]] - p0[pin[0]])):
        raise ValueError("pin vertices are collinear")
    facet = next((tuple(map(int, f)) for f in FACET_VERTS if set(f) == set(pin)), (0, 1, 2))
    hinges = _Hinges(p0, facet, diam)
    counts, psi = hinges.counts, (0.0, 0.0, 0.0)
    jac = hinges.evaluate(psi)[1]
    dim = sum(s < drive.rank_tol for s in _singular_values(jac))
    if dim == 0:
        raise NotFlexible("flex dimension 0: the hinge-angle Jacobian has full rank")
    psis, events, meta = [psi], [], {"corrector": counts}

    def path(termination: str) -> FlexionPath:
        points = hinges.points(np.array(psis))
        points[0] = p0
        if set(pin) != set(facet):  # re-pose into the pin's gauge
            local = (points[1:] - points[1:, pin[0], None]) @ \
                _pin_frames(points[1:], pin).swapaxes(-1, -2)
            points[1:] = local @ _pin_frames(p0, pin) + p0[pin[0]]
        measures = coplanarity_array(points)
        arcs = np.cumsum(row_norms(np.diff(points, axis=0).reshape(-1, 18))) / diam
        for ev in filter(lambda ev: ev.kind == "flat", events):
            ev.info["measure"] = float(measures[ev.frame_index])
        return FlexionPath.from_points(points, np.r_[0.0, arcs], edge_length_array(p0),
                                       measures, drive.flat_event_tol, events=events,
                                       termination=termination, drive=drive, meta=meta)

    def at(psi) -> Realization:
        return Realization(hinges.points(np.array([psi]))[0])

    def stop_at_flat(k: int) -> bool:
        events.append(PathEvent("flat", k, {}))
        return len(events) >= (drive.stop_after_flat_events or math.inf)

    flat0 = coplanarity_measure(r0) <= drive.flat_event_tol
    if flat0 and stop_at_flat(0):
        return path("flat_event_target")

    # orient so the driven dihedral initially moves with drive.direction; at a
    # flat start this picks between the two mirror-image ways out of the plane
    e = canonical_edge(drive.edge[0], drive.edge[1])
    d0 = dihedral_angle(r0, e)

    def orient(tau) -> float:
        delta = dihedral_angle(at(hinges.advance((0.0, 0.0, 0.0), tau, 1e-6)), e) - d0
        delta = (delta + math.pi) % (2.0 * math.pi) - math.pi
        return -1.0 if abs(delta) > 1e-12 and math.copysign(1.0, delta) != drive.direction \
            else 1.0

    h, first = drive.initial_step, None  # first: a flat start's corrected first step
    if dim == 1:
        tau = _null_vector(jac)
        tau = tuple(orient(tau) * t for t in tau)
    elif flat0 and dim == 3:
        tau, first, h = _flat_start_step(hinges, r0, drive, orient)
    else:
        raise BranchAmbiguity(f"tangent space dimension {dim} at a "
                              f"{'flat' if flat0 else 'non-flat'} start", path(""))

    h_floor = drive.initial_step * drive.min_step_factor
    lo, hi = drive.dihedral_range
    # arctan2 stays in [-pi, pi], so only a narrower range can be left
    check_range = lo > -math.pi or hi < math.pi
    heights = [0.0] * 3 if flat0 else hinges.heights(psi)  # no crossing out of a flat start
    termination = "max_steps"
    while counts["steps"] < drive.max_steps:
        if first is not None:
            (psi_new, jac), first = first, None
        else:
            psi_new, jac, ok = hinges.correct(hinges.advance(psi, tau, h), psi, tau, h,
                                              drive.corrector_tol, drive.max_newton)
            if not ok:
                h *= 0.5
                counts["halvings"] += 1
                if h < h_floor:
                    raise ContinuationStall(
                        f"corrector failed at step {counts['steps']}, step size {h:g}",
                        path("stall"))
                continue
        counts["steps"] += 1
        psis.append(psi_new)

        sv = _singular_values(jac)
        if sv[2] >= drive.rank_tol:
            termination = "rank_loss"
            break
        if sv[1] >= drive.rank_tol:
            tau_new = _null_vector(jac)
        else:  # two or three null directions: keep the old tangent's part in them
            dim, tau_new = 3 if sv[0] < drive.rank_tol else 2, tau
            if dim == 2:  # project out the one row direction, the largest row's
                row = max(((jac[0], jac[1], 0.0), (0.0, jac[2], jac[3]), (jac[5], 0.0, jac[4])),
                          key=lambda r: r[0] ** 2 + r[1] ** 2 + r[2] ** 2)
                k = sum(r * t for r, t in zip(row, tau)) / sum(r * r for r in row)
                tau_new = tuple(t - k * r for t, r in zip(tau, row))
            nn = math.sqrt(sum(t * t for t in tau_new))
            if nn < 0.9 and coplanarity_measure(at(psi_new)) > 10.0 * drive.flat_event_tol:
                events.append(PathEvent("branch_ambiguity", len(psis) - 1, {"dimension": dim}))
                raise BranchAmbiguity(f"tangent dimension {dim} at step {counts['steps']}",
                                      path("branch_ambiguity"))
            tau_new = tuple(t / nn for t in tau_new)
        sign = 1.0 if sum(a * b for a, b in zip(tau_new, tau)) >= 0.0 else -1.0
        tau = tuple(sign * t for t in tau_new)
        heights_new = hinges.heights(psi_new)
        crossed = sum(a * b for a, b in zip(heights, heights_new)) < 0.0
        psi_old, psi, heights = psi, psi_new, heights_new

        if crossed:
            # the flat configuration crossed: each angle at its height's zero,
            # k pi - alpha, nearest the middle of the step; inserted as the event
            # frame when it meets the tolerance and lies between the two frames
            counts["flat_solves"] += 1
            flat = tuple(round((0.5 * (a + b) + al) / math.pi) * math.pi - al
                         for a, b, al in zip(psi_old, psi, hinges.alpha))
            gap = hinges.distance(psi_old, psi)
            if hinges.met(hinges.evaluate(flat)[0], drive.corrector_tol) \
                    and max(hinges.distance(flat, psi_old), hinges.distance(flat, psi)) < gap:
                psis.insert(len(psis) - 1, flat)
                if stop_at_flat(len(psis) - 2):
                    termination = "flat_event_target"
                    break

        if check_range and not lo <= dihedral_angle(at(psi), e) <= hi:
            termination = "range_exit"
            break

        h = min(h * 1.4, drive.max_step)

    return path(termination)
