"""First-order rigidity analysis and finite flexion by continuation.

The rigidity matrix stacks the gradients of the twelve squared edge-length
constraints; its co-rank beyond the six rigid-body motions counts the
independent infinitesimal flexes.  Finite flexion is traced by arc-length
predictor-corrector continuation: the predictor steps along the unit null
vector of the pinned constraint Jacobian, the corrector solves the edge
constraints plus six frame-pinning constraints (one vertex fixed, a second
on a fixed line through it, a third in a fixed plane).  The corrector is a
chord iteration with the pseudo-inverse taken from the null-space SVD of
the last accepted point, restarted as damped Gauss-Newton when it stops
converging.

Flat (coplanar) configurations are first-order degenerate: every
out-of-plane displacement is an infinitesimal flex.  A flat start's tangent
is the common zero of the three self-stress quadratic forms (a genuine flex
annihilates them), found in closed form from their conic pencils; the
corrected second-order probe that picks among them is the path's first step.
Flat crossings met along a path are recorded as events, not failures.  The
heights of the non-pinned vertices above the pin plane are odd about a
crossing, so a step whose end heights point against its start heights
brackets one.  The secant zero of the
heights along that step's chord starts a Gauss-Newton solve of the edge
constraints with the heights held at zero, where they are not degenerate;
the flat configuration it converges to is inserted as the event frame.

A traced path is a FlexionPath of columns, one row per frame: the points,
arc lengths, twelve dihedrals, edge deviations and coplanarity measures.  A
continuation step records only the point, its arc length and its
coplanarity measure (the flat test); the dihedrals and edge deviations of
all frames come from one batched pass over the stacked points when the path
returns or raises.  ``FlexionPath.frames`` is a read-only per-row view.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .octahedron import (EDGE_INCIDENCE, EDGE_ORDER, FACET_NAMES, FACET_VERTS, FACETS,
                         FLAT_TOL, VERTICES, Realization, canonical_edge, check_facets,
                         coplanarity_measure, dihedral_angle, dihedral_array,
                         dot_rows, edge_length_array, edge_vectors, facet_normals,
                         row_norms)
# no longer called here; kept bound because the benchmark's span tracer test
# checks that it patches this module's binding of all_dihedrals too
from .octahedron import all_dihedrals  # noqa: F401


_LINE_STEPS = 0.5 ** np.arange(13)  # the Gauss-Newton line search's step factors
# singular values below RANK_TOL times the largest count as zero
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
    or differed from three at a flat start."""

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


class _System:
    """Edge + pin constraint system in the 18 coordinates, holding r0's own
    edge lengths.

    Each squared-length residual is normalized by its own target, so the
    corrector tolerance bounds the relative length error of every edge
    uniformly, short edges included.
    """

    def __init__(self, r0: Realization, pin: tuple[str, str, str]):
        if len(set(pin) & set(VERTICES)) != 3:
            raise ValueError(f"pin {tuple(pin)}: expected three distinct vertex labels")
        self.x0 = r0.flat_vector()
        self.diam = r0.diameter()
        self.targets2 = edge_length_array(r0.points) ** 2
        self.target_len = np.sqrt(self.targets2)
        i0, i1, i2 = (VERTICES.index(v) for v in pin)
        p = r0.points
        e1 = p[i1] - p[i0]
        e1 = e1 / np.linalg.norm(e1)
        n = np.cross(e1, p[i2] - p[i0])
        nn = np.linalg.norm(n)
        if nn == 0.0:
            raise ValueError("pin vertices are collinear")
        n = n / nn
        e2 = np.cross(n, e1)
        rows = np.zeros((6, 6, 3))
        rows[:3, i0] = np.eye(3)
        rows[3, i1], rows[4, i1], rows[5, i2] = e2, n, n
        rows[3:, i0] = -np.array([e2, n, n])
        self.pin_rows = rows.reshape(6, 18) / self.diam
        # heights of the three other vertices above the pin plane, as rows on x
        rows = np.zeros((3, 6, 3))
        rows[np.arange(3), [i for i in range(6) if i not in (i0, i1, i2)]] = n
        rows[:, i0] = -n
        self.height_rows = rows.reshape(3, 18)
        # corrector effort: calls finished by the chord and by Gauss-Newton,
        # residual evaluations (a line-search stack counts once), and the
        # flat solves run where the heights above the pin plane change sign
        self.counts = {"chord_steps": 0, "gauss_newton_steps": 0, "residual_evals": 0,
                       "flat_probes": 0}

    def edge_residual(self, x: np.ndarray) -> np.ndarray:
        """Relative squared-length errors, (..., 12), for coordinates (..., 18)."""
        d = edge_vectors(x.reshape(x.shape[:-1] + (6, 3)))
        return ((d * d).sum(axis=-1) - self.targets2) / self.targets2

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        rows = rigidity_matrix(Realization.from_flat(x)) / self.targets2[:, None]
        return np.vstack([rows, self.pin_rows])

    def heights(self, x: np.ndarray) -> np.ndarray:
        """Signed heights, (..., 3), of the three non-pinned vertices above the
        pin plane, for coordinates (..., 18)."""
        return x @ self.height_rows.T

    def _newton_trials(self, x: np.ndarray, fv: np.ndarray, extra_rows: np.ndarray,
                       residual) -> tuple[np.ndarray, np.ndarray]:
        """The Gauss-Newton step from x on the constraints plus extra_rows,
        scaled by 1, 1/2, ..., 1/4096, and its residuals, as one stack."""
        jac = np.vstack([self.jacobian(x), extra_rows])
        dx = np.linalg.lstsq(jac, -fv, rcond=None)[0]
        trial = x + _LINE_STEPS[:, None] * dx
        return trial, residual(trial)

    def correct(self, x_pred: np.ndarray, x_ref: np.ndarray, tau: np.ndarray,
                h: float, tol: float, max_newton: int,
                chord: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
        """Chord iteration, else damped Gauss-Newton, on the constraints plus
        the arclength row.  After the first iterate that meets tol, either
        takes one more full step and keeps it if it lowers |f|.

        With ``chord``, a fixed 18 x 19 inverse of the corrector matrix, the
        iteration x <- x - chord @ f(x) runs while every iteration at least
        halves |f|.  On the first iteration that does not halve |f|, damped
        Gauss-Newton restarts from x_pred, so a step the chord fails ends
        exactly as a step without it.

        The Gauss-Newton line search takes the first of the steps 1, 1/2, ...,
        1/2048 that lowers the residual norm, else the step 1/4096.  All
        thirteen candidates are evaluated as one stack, and the residual of
        the one taken is carried into the next iteration.
        """
        arc_row = tau[None, :] / self.diam

        def residual(x):
            self.counts["residual_evals"] += 1
            pins = (self.pin_rows @ (x - self.x0)[..., None])[..., 0]
            arc = dot_rows(x - x_ref, tau)[..., None] / self.diam - h
            return np.concatenate([self.edge_residual(x), pins, arc], axis=-1)

        if chord is not None:
            x, fv = x_pred, residual(x_pred)
            sq, met = fv @ fv, False
            for _ in range(max_newton):
                x_new = x - chord @ fv
                f_new = residual(x_new)
                sq_new = f_new @ f_new
                if met or not sq_new <= 0.25 * sq:  # |f| at least halves
                    break
                x, fv, sq = x_new, f_new, sq_new
                met = np.max(np.abs(fv[:-1])) < tol
            if met:
                self.counts["chord_steps"] += 1
                return (x_new if sq_new < sq else x), True

        self.counts["gauss_newton_steps"] += 1
        x = x_pred.copy()
        fv = residual(x)
        for it in range(max_newton):
            met = it > 0 and np.max(np.abs(fv[:-1])) < tol
            trial, ftrial = self._newton_trials(x, fv, arc_row, residual)
            if met:
                return (trial[0] if ftrial[0] @ ftrial[0] < fv @ fv else x), True
            lower = row_norms(ftrial[:-1]) < np.linalg.norm(fv)
            k = int(np.argmax(lower)) if lower.any() else len(trial) - 1
            x, fv = trial[k], ftrial[k]
        return x, bool(np.max(np.abs(fv[:-1])) < tol)

    def flatten(self, x: np.ndarray, tol: float, max_newton: int) -> tuple[np.ndarray, bool]:
        """The flat realization nearest x with the target edge lengths.

        Damped Gauss-Newton, with the line search of ``correct``, solves the
        edge and pin constraints plus zero heights above the pin plane for
        as long as some step lowers |f|.  With the heights held at zero the
        edge constraints are not degenerate as they are near a flat point in
        space, so the solve converges to rounding.
        """
        self.counts["flat_probes"] += 1
        extra = self.height_rows / self.diam

        def residual(x):
            self.counts["residual_evals"] += 1
            pins = (self.pin_rows @ (x - self.x0)[..., None])[..., 0]
            return np.concatenate([self.edge_residual(x), pins, self.heights(x) / self.diam],
                                  axis=-1)

        fv = residual(x)
        for _ in range(max_newton):
            trial, ftrial = self._newton_trials(x, fv, extra, residual)
            lower = row_norms(ftrial) < np.linalg.norm(fv)
            if not lower.any():
                break
            k = int(np.argmax(lower))
            x, fv = trial[k], ftrial[k]
        return x, bool(np.max(np.abs(fv[:12])) < tol)

    def null_space(self, x: np.ndarray, rank_tol: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Null-space basis (rows) of the pinned Jacobian J at x, the
        pseudo-inverse V_r S_r^-1 U_r^T of J's range part, and the left null
        space (rows, the self-stresses), all from one SVD.

        With a one-row basis tau, [range part | tau * diam] is the
        pseudo-inverse of the corrector matrix [J; tau / diam] at x.  J is
        square, so there are as many self-stresses as null vectors.
        """
        u, sv, vt = np.linalg.svd(self.jacobian(x))
        null = sv < rank_tol * sv[0] if sv[0] != 0.0 else np.ones(len(sv), bool)
        return vt[null], (vt[~null].T / sv[~null]) @ u[:, ~null].T, u[:, null].T

    def stress_quadric(self, lam: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Quadratic form of one self-stress restricted to a null-space basis."""
        wd = edge_vectors(basis.reshape(-1, 6, 3)).swapaxes(0, 1)
        terms = (lam * 2.0)[:, None, None] * (wd @ wd.swapaxes(1, 2))
        return (terms / self.targets2[:, None, None]).sum(axis=0)

    def acceleration(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Least-squares curve acceleration for the second-order predictor."""
        rhs = np.zeros(18)
        dv = edge_vectors(v.reshape(6, 3))
        rhs[:12] = -2.0 * dot_rows(dv, dv) / self.targets2
        return np.linalg.lstsq(self.jacobian(x), rhs, rcond=None)[0]


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


def _flat_start_step(sys: _System, x0: np.ndarray, null: np.ndarray,
                     stresses: np.ndarray, drive: DriveSpec, orient
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """The first step out of a flat configuration with a three-dimensional
    null space and its three self-stresses: the tangent, the corrected point
    and the step h.  Each candidate tangent is oriented by ``orient`` and
    predicted to second order; of those that correct at h the one corrected
    least is taken, h being drive.initial_step, halved down to its floor
    while no candidate corrects."""
    mats = [sys.stress_quadric(lam[:12], null) for lam in stresses]
    dirs = []
    for u in _common_quadric_zero(mats):
        v = null.T @ u
        v = orient(v / np.linalg.norm(v))
        dirs.append((v, sys.acceleration(x0, v)))
    h = drive.initial_step
    while dirs and h >= drive.initial_step * drive.min_step_factor:
        best = None
        for v, acc in dirs:
            step = h * sys.diam
            x_pred = x0 + step * v + 0.5 * step * step * acc
            x_new, ok = sys.correct(x_pred, x0, v, h, drive.corrector_tol,
                                    2 * drive.max_newton)
            if not ok:
                continue
            corr = float(np.linalg.norm(x_new - x_pred))
            if best is None or corr < best[0]:
                best = (corr, v, x_new)
        if best is not None:
            return best[1], best[2], h
        h *= 0.5
    raise NotFlexible("flat configuration has no finite flex "
                      "(no first-order flex extends to second order)")


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def flex_path(r0: Realization, drive: DriveSpec = DriveSpec()) -> FlexionPath:
    """Trace a deformation from r0 that keeps r0's edge lengths.

    Raises DegenerateFacet when a facet of r0 has (near-)zero area and
    NotFlexible when the start has no flex.  A corrector failure
    after step reduction to the floor raises ContinuationStall carrying the
    partial path; a tangent-space ambiguity (at a flat start, a null space
    other than the three out-of-plane directions) raises BranchAmbiguity
    the same way.

    Each step keeps only what the continuation reads: the accepted point,
    its arclength and its coplanarity measure.  The other columns of the
    path are built from the stacked points once, when it returns or raises.
    """
    check_facets(r0)
    sys = _System(r0, drive.pin)
    x = r0.flat_vector()
    null, pinv, stresses = sys.null_space(x, drive.rank_tol)
    if null.shape[0] == 0:
        raise NotFlexible("flex dimension 0: the pinned Jacobian has full rank")
    meta = {"corrector": sys.counts}
    xs, arcs, measures = [x], [0.0], [coplanarity_measure(r0)]
    events: list[PathEvent] = []

    def path(termination: str) -> FlexionPath:
        return FlexionPath.from_points(xs, arcs, sys.target_len, measures,
                                       drive.flat_event_tol, events=events,
                                       termination=termination, drive=drive, meta=meta)

    def flat(k: int) -> bool:
        return measures[k] <= drive.flat_event_tol

    flat_events = 0
    if flat(0):
        events.append(PathEvent("flat", 0, {"measure": measures[0]}))
        flat_events += 1
        if drive.stop_after_flat_events is not None \
                and flat_events >= drive.stop_after_flat_events:
            return path("flat_event_target")

    # orient so the driven dihedral initially moves with drive.direction; at a
    # flat start this picks between the two mirror-image ways out of the plane
    eps = 1e-6 * sys.diam
    e = canonical_edge(drive.edge[0], drive.edge[1])
    d0 = dihedral_angle(r0, e)

    def orient(tau: np.ndarray) -> np.ndarray:
        delta = _wrap_angle(dihedral_angle(Realization.from_flat(x + eps * tau), e) - d0)
        flip = abs(delta) > 1e-12 and math.copysign(1.0, delta) != drive.direction
        return -tau if flip else tau

    h = drive.initial_step
    first = None  # a flat start's corrected first step
    if null.shape[0] == 1:
        tau = orient(null[0])
        chord = np.column_stack([pinv, tau * sys.diam])
    elif flat(0) and null.shape[0] == 3:
        tau, first, h = _flat_start_step(sys, x, null, stresses, drive, orient)
        chord = None
    else:
        raise BranchAmbiguity(
            f"tangent space dimension {null.shape[0]} at a "
            f"{'flat' if flat(0) else 'non-flat'} start", path(""))

    h_floor = drive.initial_step * drive.min_step_factor
    arc = 0.0
    lo, hi = drive.dihedral_range
    # arctan2 stays in [-pi, pi], so only a narrower range can be left
    check_range = lo > -math.pi or hi < math.pi
    heights = sys.heights(x)

    def insert_flat(k: int) -> bool:
        """Solve for the flat configuration where the heights above the pin
        plane change sign between frames k - 1 and k, starting from the chord
        point where their projection on frame k - 1's heights interpolates to
        zero.  Insert it as frame k when it lies between the two frames."""
        x_lo, x_hi = xs[k - 1], xs[k]
        h_lo = sys.heights(x_lo)
        g_lo, g_hi = float(h_lo @ h_lo), float(sys.heights(x_hi) @ h_lo)
        x_flat, ok = sys.flatten(x_lo + g_lo / (g_lo - g_hi) * (x_hi - x_lo),
                                 drive.corrector_tol, 2 * drive.max_newton)
        gap = float(np.linalg.norm(x_hi - x_lo))
        to_lo = float(np.linalg.norm(x_flat - x_lo))
        if not (ok and to_lo < gap and np.linalg.norm(x_flat - x_hi) < gap):
            return False
        measure = coplanarity_measure(Realization.from_flat(x_flat))
        if not measure <= drive.flat_event_tol:
            return False
        xs.insert(k, x_flat)
        arcs.insert(k, arcs[k - 1] + to_lo / sys.diam)
        measures.insert(k, measure)
        return True

    termination = "max_steps"
    step_count = 0
    while step_count < drive.max_steps:
        if first is not None:
            x_new, first = first, None
        else:
            x_new, ok = sys.correct(x + h * sys.diam * tau, x, tau, h, drive.corrector_tol,
                                    drive.max_newton, chord)
            if not ok:
                h *= 0.5
                if h < h_floor:
                    raise ContinuationStall(
                        f"corrector failed at step {step_count}, step size {h:g}",
                        path("stall"))
                continue

        arc += float(np.linalg.norm(x_new - x)) / sys.diam
        step_count += 1
        xs.append(x_new)
        arcs.append(arc)
        measures.append(coplanarity_measure(Realization.from_flat(x_new)))

        null, pinv, _ = sys.null_space(x_new, drive.rank_tol)
        if null.shape[0] == 0:
            termination = "rank_loss"
            break
        if null.shape[0] > 1:
            proj = null.T @ (null @ tau)
            nn = float(np.linalg.norm(proj))
            if measures[-1] > 10.0 * drive.flat_event_tol and nn < 0.9:
                events.append(PathEvent("branch_ambiguity", len(xs) - 1,
                                        {"dimension": int(null.shape[0])}))
                raise BranchAmbiguity(
                    f"tangent dimension {null.shape[0]} at step {step_count}",
                    path("branch_ambiguity"))
            tau_new = proj / nn
        else:
            tau_new = null[0]
        if float(tau_new @ tau) < 0.0:
            tau_new = -tau_new
        tau = tau_new
        chord = np.column_stack([pinv, tau * sys.diam]) if null.shape[0] == 1 else None
        heights_new = sys.heights(x_new)
        crossed = float(heights_new @ heights) < 0.0
        x, heights = x_new, heights_new

        k = len(xs) - 1
        if not flat(k - 1) and (flat(k) or crossed and insert_flat(k)):
            events.append(PathEvent("flat", k, {"measure": measures[k]}))
            flat_events += 1
            if drive.stop_after_flat_events is not None \
                    and flat_events >= drive.stop_after_flat_events:
                termination = "flat_event_target"
                break

        if check_range and not lo <= dihedral_angle(Realization.from_flat(x_new), e) <= hi:
            termination = "range_exit"
            break

        h = min(h * 1.4, drive.max_step)

    return path(termination)
