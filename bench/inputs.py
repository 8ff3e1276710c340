"""Seeded inputs for the benchmark workloads.

Each workload runs a fixed catalogue of shapes.  The catalogue is drawn
once, from CATALOGUE_SEED, with the same well-posedness rules as the test
samplers: type 1 points clear of the half-turn axis, flex dimension one and
a mirror twin that closes; type 2 points with flex dimension one; type 3
triangles scalene with the centroid as the concurrency point.  The run seed
then draws, for every case, a similarity pose (rotation, translation and
uniform scale) that is applied to the builder inputs, so every seed feeds
the program different coordinates while the mix of easy and hard shapes
stays the same.  Per-case cost depends sharply on shape (a flat-refinement
dip can triple it), so shapes drawn afresh from each seed would make runs
with different seeds measure different amounts of work.

The program receives only the generated builder inputs; nothing here
imports the test suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from flexoct import builders, flexion
from flexoct.octahedron import Realization

CATALOGUE_SEED = 20260808
_KINDS = ("type1", "type2", "type3")

# opposite edge pairs whose dihedrals stay equal or supplementary along the
# motion: all six for the half-turn family, two for the mirror-plane family
TYPE1_PAIRS = (("AB", "DE"), ("BC", "EF"), ("CA", "FD"),
               ("AE", "DB"), ("BF", "EC"), ("CD", "FA"))
TYPE2_PAIRS = (("AE", "DB"), ("AB", "DE"))


@dataclass(frozen=True)
class Case:
    """One generated input: the realization handed to the program plus what
    the output checks need to know about it."""

    kind: str
    realization: Realization
    twin: Realization | None = None     # type 1: the rigid mirror assembly
    ceva_residual: float | None = None  # type 3: the builder's closure residual


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _type1_shapes(rng: np.random.Generator, n: int) -> list[tuple[np.ndarray, ...]]:
    out = []
    for _ in range(60 * n):
        pa, pb, pf = rng.uniform(-1.0, 1.0, (3, 3))
        if min(np.linalg.norm(p[:2]) for p in (pa, pb, pf)) < 0.25:
            continue
        try:
            r = builders.build_type1(pa, pb, pf)
            if flexion.flex_dimension(r).flex_dimension != 1:
                continue
            builders.build_type1_mirror(pa, pb, pf)
        except builders.DegenerateInput:
            continue
        out.append((pa, pb, pf))
        if len(out) == n:
            return out
    raise RuntimeError("type 1 catalogue sampler did not converge")


def _type2_shapes(rng: np.random.Generator, n: int) -> list[tuple[np.ndarray, ...]]:
    out = []
    for _ in range(60 * n):
        pc = np.array([rng.uniform(-1, 1), 0.0, rng.uniform(0.4, 1.2)])
        pf = np.array([rng.uniform(-1, 1), 0.0, rng.uniform(-1.2, -0.4)])
        pa = np.array([rng.uniform(0.2, 1.2), rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5)])
        pe = np.array([rng.uniform(-1.2, -0.2), rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5)])
        try:
            r = builders.build_type2(pc, pf, pa, pe)
        except (builders.DegenerateInput, builders.PointsNotOnPlane):
            continue
        if flexion.flex_dimension(r).flex_dimension != 1:
            continue
        out.append((pc, pf, pa, pe))
        if len(out) == n:
            return out
    raise RuntimeError("type 2 catalogue sampler did not converge")


def _type3_shapes(rng: np.random.Generator, n: int) -> list[tuple[np.ndarray, ...]]:
    out = []
    for _ in range(60 * n):
        pa = np.zeros(2)
        pb = np.array([rng.uniform(2.0, 4.0), 0.0])
        pc = np.array([rng.uniform(0.3, 3.0), rng.uniform(0.8, 3.0)])
        sides = sorted(np.linalg.norm(u - v) for u, v in ((pb, pa), (pc, pb), (pa, pc)))
        if sides[1] / sides[0] < 1.02 or sides[2] / sides[1] < 1.02:
            continue
        try:
            builders.build_type3_flat(pa, pb, pc, (pa + pb + pc) / 3.0)
        except (builders.DegenerateInput, builders.DegenerateConcurrency,
                builders.UnboundedIntersection):
            continue
        out.append((pa, pb, pc))
        if len(out) == n:
            return out
    raise RuntimeError("type 3 catalogue sampler did not converge")


def _posed_type1(shape, rng) -> Case:
    rot, shift, scale = _rotation(rng), rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 2.0)
    pa, pb, pf = (scale * rot @ p + shift for p in shape)
    axis = (shift, rot[:, 2])
    r = builders.build_type1(pa, pb, pf, *axis)
    if flexion.flex_dimension(r).flex_dimension != 1:
        raise builders.DegenerateInput("posed realization lost its flex")
    return Case("type1", r, twin=builders.build_type1_mirror(pa, pb, pf, *axis))


def _posed_type2(shape, rng) -> Case:
    rot, shift, scale = _rotation(rng), rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 2.0)
    pc, pf, pa, pe = (scale * rot @ p + shift for p in shape)
    r = builders.build_type2(pc, pf, pa, pe, shift, rot[:, 1])
    if flexion.flex_dimension(r).flex_dimension != 1:
        raise builders.DegenerateInput("posed realization lost its flex")
    return Case("type2", r)


def _posed_type3(shape, rng) -> Case:
    # pose the plane triangle for the builder, then lift the flat figure
    # into a random plane of space
    theta, scale = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.5, 2.0)
    c, s = np.cos(theta), np.sin(theta)
    rot2, shift2 = scale * np.array([[c, -s], [s, c]]), rng.uniform(-1.0, 1.0, 2)
    pa, pb, pc = (rot2 @ p + shift2 for p in shape)
    construction, flat = builders.build_type3_flat(pa, pb, pc, (pa + pb + pc) / 3.0)
    rot, shift = _rotation(rng), rng.uniform(-1.0, 1.0, 3)
    return Case("type3", Realization(flat.points @ rot.T + shift),
                ceva_residual=construction.ceva_residual)


_SHAPES = {"type1": _type1_shapes, "type2": _type2_shapes, "type3": _type3_shapes}
_POSE = {"type1": _posed_type1, "type2": _posed_type2, "type3": _posed_type3}


def make_cases(kind: str, n: int, seed: int) -> list[Case]:
    """The first n catalogue shapes of a family, each in a pose drawn from seed."""
    k = _KINDS.index(kind)
    shapes = _SHAPES[kind](np.random.default_rng([CATALOGUE_SEED, k]), n)
    rng = np.random.default_rng([seed, k])
    cases = []
    for shape in shapes:
        for _ in range(20):
            try:
                cases.append(_POSE[kind](shape, rng))
                break
            except builders.DegenerateInput:
                continue  # rounding in this pose broke a rule; draw another
        else:
            raise RuntimeError(f"no well-posed pose for a {kind} catalogue shape")
    return cases


def digest(cases: list[Case]) -> str:
    """SHA-256 over every realization handed to the program, in case order."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.kind.encode())
        h.update(np.ascontiguousarray(case.realization.points).tobytes())
        if case.twin is not None:
            h.update(np.ascontiguousarray(case.twin.points).tobytes())
    return h.hexdigest()
