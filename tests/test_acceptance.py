"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Sampling is fixed by FLEXOCT_SEED (see conftest).  The flexion
criteria share their paths through module-scoped fixtures.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import (SEED, sample_type1_inputs, sample_type2_inputs,
                      sample_type3_triangles, random_generic_realization)
from flexoct import linkage, verifiers
from flexoct.builders import (build_type1, build_type1_mirror, build_type2,
                              build_type3_flat)
from flexoct.flexion import (DriveSpec, NotFlexible, flex_dimension, flex_path)
from flexoct.linkage import (FaceAngles, TetraCoeffs, planar_fourbar_coeffs,
                             reconstruct_angles, tetra_coeffs, tetra_coeffs_arrays)
from flexoct.octahedron import (EDGE_ORDER, OPPOSITE_EDGES, VERTEX_CYCLES, VERTICES,
                                classify_edge_lengths, edge_lengths,
                                reflection_pairing_residual, vertex_face_angles)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _rng(offset: int = 0):
    return np.random.default_rng(SEED + offset)


# ---------------------------------------------------------------------------
# shared paths


@pytest.fixture(scope="module")
def type1_cases():
    rng = _rng(1)
    inputs = sample_type1_inputs(rng, 20)
    cases = []
    for pa, pb, pf in inputs:
        r = build_type1(pa, pb, pf)
        t0 = time.perf_counter()
        path = flex_path(r, drive=DriveSpec(max_steps=200))
        cases.append(((pa, pb, pf), r, path, time.perf_counter() - t0))
    return cases


@pytest.fixture(scope="module")
def type2_cases():
    rng = _rng(2)
    inputs = sample_type2_inputs(rng, 20)
    cases = []
    for pc, pf, pa, pe in inputs:
        r = build_type2(pc, pf, pa, pe)
        path = flex_path(r, drive=DriveSpec(max_steps=200))
        cases.append(((pc, pf, pa, pe), r, path))
    return cases


@pytest.fixture(scope="module")
def type3_cases():
    rng = _rng(3)
    triangles = sample_type3_triangles(rng, 10)
    cases = []
    for pa, pb, pc in triangles:
        con, r = build_type3_flat(pa, pb, pc, (pa + pb + pc) / 3.0)
        path = flex_path(r, drive=DriveSpec(max_steps=2000, initial_step=0.01,
                                            max_step=0.02,
                                            stop_after_flat_events=2))
        cases.append((con, r, path))
    return cases


def _all_paths(type1_cases, type2_cases, type3_cases):
    return ([c[2] for c in type1_cases] + [c[2] for c in type2_cases]
            + [c[2] for c in type3_cases])


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_discriminant_identity():
    # Angles are sampled 0.25 rad clear of 0 and pi: the identity's value
    # decays like the eighth power of the smallest sine while the left side
    # is a difference of order-one products, so double precision cannot
    # deliver 1e-9 relative accuracy arbitrarily close to the degenerate
    # boundary.
    rng = _rng(10)
    n = 10_000
    t0 = time.perf_counter()
    al, be, ga, de = rng.uniform(0.25, math.pi - 0.25, (4, n))
    a, b, c, d, e = tetra_coeffs_arrays(al, be, ga, de)
    lhs = (c * c - a * e - b * d) ** 2 - 4.0 * a * b * d * e
    rhs = 16.0 * (np.sin(al) * np.sin(be) * np.sin(ga) * np.sin(de)) ** 2
    err = float(np.max(np.abs(lhs - rhs) / rhs))
    elapsed = time.perf_counter() - t0
    report(1, "decomposition discriminant identity over 10000 samples",
           err <= 1e-9 and elapsed < 1.0,
           f"max rel err {err:.2e}, {elapsed:.3f} s")


def test_criterion_02_reconstruction_round_trip():
    rng = _rng(11)
    worst_prop = 0.0
    worst_second = 0.0
    count = 0
    while count < 1000:
        ang = FaceAngles(*rng.uniform(0.05, math.pi - 0.05, 4))
        if linkage.classify(ang, tol=1e-6).tag == linkage.UNICURSAL:
            continue
        count += 1
        scale = rng.uniform(0.1, 10.0)
        co = tetra_coeffs(ang)
        scaled = TetraCoeffs(*(scale * v for v in co.as_tuple()))
        first, second = reconstruct_angles(scaled)
        back = np.array(tetra_coeffs(first).as_tuple())
        target = np.array(scaled.as_tuple())
        lam = back[2] / target[2]
        worst_prop = max(worst_prop, float(np.max(np.abs(back - lam * target))
                                           / np.max(np.abs(target)) / lam))
        flip = (first.alpha, math.pi - first.beta, first.gamma,
                math.pi - first.delta)
        worst_second = max(worst_second, float(np.max(np.abs(
            np.array(second.as_tuple()) - np.array(flip)))))
    report(2, "reconstruction round trip over 1000 coefficient sets",
           worst_prop <= 1e-9 and worst_second <= 1e-9,
           f"proportionality {worst_prop:.2e}, second system {worst_second:.2e}")


def test_criterion_03_type1_flexion(type1_cases):
    worst_dev = 0.0
    worst_range = math.inf
    worst_pair = 0.0
    worst_time = 0.0
    for _, _, path, elapsed in type1_cases:
        worst_time = max(worst_time, elapsed)
        worst_dev = max(worst_dev, float(np.max(path.edge_deviation)))
        for e in EDGE_ORDER:
            series = np.unwrap(path.dihedral_series(e))
            worst_range = min(worst_range, float(series.max() - series.min()))
        for e1, e2 in OPPOSITE_EDGES:
            c1 = np.cos(path.dihedral_series(e1))
            c2 = np.cos(path.dihedral_series(e2))
            worst_pair = max(worst_pair, min(float(np.max(np.abs(c1 - c2))),
                                             float(np.max(np.abs(c1 + c2)))))
    report(3, "type 1 flexion: 20 inputs, 200-step paths",
           worst_dev <= 1e-9 and worst_range >= 1e-3 and worst_pair <= 1e-8
           and worst_time < 10.0,
           f"edge dev {worst_dev:.2e}, min dihedral range {worst_range:.2e} rad, "
           f"pair dev {worst_pair:.2e}, slowest path {worst_time:.2f} s")


def test_criterion_04_type1_negative_control(type1_cases):
    ok = True
    detail = []
    for (pa, pb, pf), r, _, _ in type1_cases:
        rm = build_type1_mirror(pa, pb, pf)
        el = edge_lengths(r)
        elm = edge_lengths(rm)
        if max(abs(elm[e] - el[e]) / el[e] for e in el) > 1e-9:
            ok = False
            detail.append("edge lengths differ")
        rep = flex_dimension(rm, rank_tol=1e-7)
        if rep.flex_dimension != 0:
            ok = False
            detail.append(f"flex dimension {rep.flex_dimension}")
        try:
            flex_path(rm)
            ok = False
            detail.append("mirror assembly flexed")
        except NotFlexible:
            pass
        if not classify_edge_lengths(elm).matches_type1:
            ok = False
            detail.append("type 1 conditions not reported")
    report(4, "type 1 mirror assembly: rigid on all 20 inputs",
           ok, "; ".join(detail) if detail else "flex dimension 0 throughout")


def test_criterion_05_type2_flexion(type2_cases):
    eq_pairs = (("FA", "FD"), ("EF", "BF"), ("CA", "CD"),
                ("BC", "EC"), ("AE", "DB"), ("AB", "DE"))
    mapping = {"A": "D", "D": "A", "B": "E", "E": "B", "C": "C", "F": "F"}
    worst_dev = 0.0
    worst_eq = 0.0
    worst_sym = 0.0
    for _, _, path in type2_cases:
        worst_dev = max(worst_dev, float(np.max(path.edge_deviation)))
        for frame in path.frames:
            el = edge_lengths(frame.realization, check=False)
            scale = max(el.values())
            worst_eq = max(worst_eq, max(abs(el[a] - el[b]) for a, b in eq_pairs)
                           / scale)
            worst_sym = max(worst_sym, reflection_pairing_residual(
                frame.realization, mapping))
    report(5, "type 2 flexion: 20 inputs, 200-step paths",
           worst_dev <= 1e-9 and worst_eq <= 1e-9 and worst_sym <= 1e-8,
           f"edge dev {worst_dev:.2e}, equalities {worst_eq:.2e}, "
           f"mirror symmetry {worst_sym:.2e}")


def test_criterion_06_type3_flat_to_flat(type3_cases):
    ok = True
    detail = []
    worst_ceva = 0.0
    worst_dev = 0.0
    for con, r, path in type3_cases:
        worst_ceva = max(worst_ceva, con.ceva_residual)
        worst_dev = max(worst_dev, float(np.max(path.edge_deviation)))
        flats = path.flat_events()
        if len(flats) < 2:
            ok = False
            detail.append("no second flat event")
        if np.max(path.flat_measure) < 1e-4:
            ok = False
            detail.append("path never left the flat state")
        for v in VERTICES:
            cyc = VERTEX_CYCLES[v]
            ang = vertex_face_angles(r, v, (cyc[0], cyc[1]))
            if linkage.classify(ang, tol=1e-6).tag != linkage.UNICURSAL:
                ok = False
                detail.append(f"vertex {v} not unicursal")
    ok = ok and worst_ceva <= 1e-10 and worst_dev <= 1e-8
    report(6, "type 3 flat construction and flat-to-flat continuation",
           ok, "; ".join(detail) if detail else
           f"ceva residual {worst_ceva:.2e}, edge dev {worst_dev:.2e}")


def test_criterion_07_mannheim_concurrency(type1_cases, type2_cases, type3_cases):
    worst = 0.0
    evaluated = 0
    skipped = 0
    for path in _all_paths(type1_cases, type2_cases, type3_cases):
        for base in ("ABC", "DEF"):
            res = verifiers.mannheim_residuals(path.points, base=base)
            kept = res[~np.isnan(res)]  # nan on flat or near-flat frames: meet point undefined
            skipped += res.size - kept.size
            evaluated += kept.size
            worst = max(worst, float(kept.max(initial=0.0)))
    report(7, "facet-plane concurrency on the opposite facet along all paths",
           worst <= 1e-6 and evaluated > 0,
           f"max residual {worst:.2e} over {evaluated} frame checks, "
           f"{skipped} near-flat skips")


def test_criterion_08_hexagon_constancy(type1_cases, type2_cases, type3_cases):
    worst_side = 0.0
    worst_angle = 0.0
    for path in _all_paths(type1_cases, type2_cases, type3_cases):
        for trace in verifiers.hexagon_traces(path):
            worst_side = max(worst_side, trace.max_side_variation)
            worst_angle = max(worst_angle, trace.max_angle_variation)
    report(8, "four hexagons keep sides and angles along all paths",
           worst_side <= 1e-9 and worst_angle <= 1e-8,
           f"side variation {worst_side:.2e}, angle variation {worst_angle:.2e}")


def test_criterion_09_generic_rigidity():
    rng = _rng(12)
    bad = 0
    for _ in range(100):
        rep = flex_dimension(random_generic_realization(rng))
        if rep.flex_dimension != 0:
            bad += 1
    report(9, "100 generic realizations are first-order rigid",
           bad == 0, f"{bad} flexible")


def test_criterion_10_planar_fourbar_identity():
    rng = _rng(13)
    sides = rng.uniform(0.1, 3.0, (1000, 4))
    worst = 0.0
    for a, b, c, d in sides:
        co = planar_fourbar_coeffs(a, b, c, d)
        lhs = linkage.decomposition_discriminant(co)
        rhs = 256.0 * (a * b * c * d) ** 2
        worst = max(worst, abs(lhs - rhs) / rhs)
    report(10, "planar four-bar discriminant equals 256(abcd)^2 over 1000 sets",
           worst <= 1e-9, f"max rel err {worst:.2e}")


def test_criterion_11_cosine_line_covariance(type1_cases, type2_cases, type3_cases):
    worst_res = 0.0
    worst_agree = 0.0
    for path in _all_paths(type1_cases, type2_cases, type3_cases):
        for v in VERTICES:
            for pair in verifiers.vertex_opposite_pairs(v):
                fit = verifiers.dihedral_cos_line_fit(path, v, pair)
                worst_res = max(worst_res, fit.max_residual)
                worst_agree = max(worst_agree, fit.agreement)
    report(11, "cosine line fits match the closed form at every vertex",
           worst_res <= 1e-8 and worst_agree <= 1e-6,
           f"fit residual {worst_res:.2e}, agreement {worst_agree:.2e}")
