"""Tests for octahedral combinatorics, measurement, and classification."""

import math

import numpy as np
import pytest

from flexoct import builders, linkage
from flexoct.octahedron import (EDGE_DIRECTION, EDGE_FACETS, EDGE_ORDER, FACET_NAMES,
                                OPPOSITE_EDGES, VERTEX_CYCLES, VERTICES,
                                DegenerateFacet, NonAdjacentEdges, Realization,
                                all_dihedrals, canonical_edge, check_facets,
                                classify_edge_lengths, coplanarity_measure,
                                dihedral_angle, dihedral_array, dot_rows,
                                edge_length_array, edge_lengths, face_angle,
                                facet_normal, facet_normals, row_norms,
                                flat_angle_product, reflection_pairing_residual,
                                regular_octahedron, validate, vertex_face_angles,
                                vertex_half_tangents)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestCombinatorics:
    def test_twelve_edges_and_opposites(self):
        assert len(EDGE_ORDER) == 12
        assert len(set(EDGE_ORDER)) == 12
        assert len(OPPOSITE_EDGES) == 6
        covered = {e for pair in OPPOSITE_EDGES for e in pair}
        assert covered == set(EDGE_ORDER)
        # opposite edges share no vertex
        for e1, e2 in OPPOSITE_EDGES:
            assert not set(e1) & set(e2)

    def test_eight_facets(self):
        assert FACET_NAMES == ("ABC", "DEF", "BCD", "CAE", "ABF", "AEF", "BFD", "CDE")

    def test_canonical_edge(self):
        assert canonical_edge("B", "D") == "DB"
        assert canonical_edge("D", "B") == "DB"
        with pytest.raises(ValueError):
            canonical_edge("A", "D")  # opposite vertices, not an edge

    def test_vertex_cycles_span_facets(self):
        for v, cyc in VERTEX_CYCLES.items():
            for i in range(4):
                tri = {v, cyc[i], cyc[(i + 1) % 4]}
                assert any(set(f) == tri for f in FACET_NAMES)


class TestEdgeLengths:
    def test_regular(self):
        el = edge_lengths(regular_octahedron())
        assert all(v == pytest.approx(math.sqrt(2)) for v in el.values())

    def test_isometry_invariance(self, rng):
        r = regular_octahedron()
        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        moved = Realization(r.points @ rot.T + shift)
        el0, el1 = edge_lengths(r), edge_lengths(moved)
        for e in EDGE_ORDER:
            assert el1[e] == pytest.approx(el0[e], abs=1e-12)
        mirrored = Realization(r.points * np.array([-1.0, 1.0, 1.0]))
        el2 = edge_lengths(mirrored)
        for e in EDGE_ORDER:
            assert el2[e] == pytest.approx(el0[e], abs=1e-12)

    def test_type1_opposite_pairs(self, rng):
        from conftest import sample_type1_inputs
        for pa, pb, pf in sample_type1_inputs(rng, 3, require_mirror=False):
            el = edge_lengths(builders.build_type1(pa, pb, pf))
            for e1, e2 in OPPOSITE_EDGES:
                assert abs(el[e1] - el[e2]) <= 1e-12

    def test_degenerate_facet(self):
        r = regular_octahedron()
        pts = r.points.copy()
        pts[2] = 0.5 * (pts[0] + pts[1])  # C collinear with A, B
        with pytest.raises(DegenerateFacet):
            edge_lengths(Realization(pts))


class TestDihedral:
    def test_regular_value(self):
        r = regular_octahedron()
        want = math.acos(-1.0 / 3.0)
        for e in EDGE_ORDER:
            assert abs(dihedral_angle(r, e)) == pytest.approx(want, abs=1e-12)

    def test_reflection_negates(self, rng):
        from conftest import random_generic_realization
        r = random_generic_realization(rng)
        mirrored = Realization(r.points * np.array([1.0, 1.0, -1.0]))
        for e in EDGE_ORDER:
            assert dihedral_angle(mirrored, e) == pytest.approx(
                -dihedral_angle(r, e), abs=1e-9)

    def test_flat_realization(self):
        _, r = builders.build_type3_flat((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
        for e in EDGE_ORDER:
            d = abs(dihedral_angle(r, e))
            assert min(d, math.pi - d) <= 1e-9

    def test_stability_away_from_branch_cut(self, rng):
        from conftest import random_generic_realization
        r = random_generic_realization(rng)
        for e in EDGE_ORDER:
            d0 = dihedral_angle(r, e)
            if min(abs(d0), math.pi - abs(d0)) < 1e-3:
                continue
            perturbed = Realization(r.points + 1e-8 * rng.normal(size=(6, 3)))
            assert abs(dihedral_angle(perturbed, e) - d0) < 1e-6


def scalar_dihedral(r, e):
    """Reference formula, one edge at a time."""
    tail, head = (r[v] for v in EDGE_DIRECTION[e])
    ehat = (head - tail) / math.dist(head, tail)
    w1, w2 = (r[next(v for v in f if v not in e)] - tail for f in EDGE_FACETS[e])
    w1 = w1 - float(w1 @ ehat) * ehat
    w2 = w2 - float(w2 @ ehat) * ehat
    return math.atan2(float(np.cross(w1, w2) @ ehat), float(w1 @ w2))


def scalar_face_angle(r, v, x, y):
    ux, uy = r[x] - r[v], r[y] - r[v]
    return math.acos(float(ux @ uy) / (math.hypot(*ux) * math.hypot(*uy)))


class TestKernel:
    """The batched kernel against scalar reference formulas."""

    def check_frame(self, r, dihedrals, normals, areas, lengths, angles):
        for k, e in enumerate(EDGE_ORDER):
            assert abs(dihedrals[k] - scalar_dihedral(r, e)) <= 1e-14
            assert abs(lengths[k] - math.dist(r[e[0]], r[e[1]])) <= 1e-14
        for k, f in enumerate(FACET_NAMES):
            n = np.cross(r[f[1]] - r[f[0]], r[f[2]] - r[f[0]])
            assert abs(areas[k] - 0.5 * math.hypot(*n)) <= 1e-14
            assert np.max(np.abs(normals[k] - n / math.hypot(*n))) <= 1e-14
        for i, v in enumerate(VERTICES):
            cyc = VERTEX_CYCLES[v]
            for j in range(4):
                want = scalar_face_angle(r, v, cyc[j], cyc[(j + 1) % 4])
                assert abs(angles[i, j] - want) <= 1e-14

    def face_angles(self, p):
        """Angles (..., 6, 4) at each vertex between consecutive cycle neighbors."""
        cyc = np.array([[VERTICES.index(u) for u in VERTEX_CYCLES[v]] for v in VERTICES])
        return face_angle(p, np.arange(6)[:, None], cyc, np.roll(cyc, -1, axis=1))

    def test_single_realizations(self, rng):
        from conftest import random_generic_realization
        for _ in range(20):
            r = random_generic_realization(rng)
            normals, areas = facet_normals(r.points)
            self.check_frame(r, dihedral_array(r.points), normals, areas,
                             edge_length_array(r.points), self.face_angles(r.points))
            d = all_dihedrals(r)
            assert [d[e] for e in EDGE_ORDER] == [dihedral_angle(r, e) for e in EDGE_ORDER]
            assert list(edge_lengths(r).values()) == list(edge_length_array(r.points))
            for k, f in enumerate(FACET_NAMES):
                assert np.array_equal(facet_normal(r, f), normals[k])

    def test_stack(self, rng):
        from conftest import random_generic_realization
        stack = np.stack([random_generic_realization(rng).points for _ in range(7)])
        dihedrals = dihedral_array(stack)
        normals, areas = facet_normals(stack)
        lengths = edge_length_array(stack)
        angles = self.face_angles(stack)
        assert dihedrals.shape == lengths.shape == (7, 12)
        assert normals.shape == (7, 8, 3) and areas.shape == (7, 8)
        assert angles.shape == (7, 6, 4)
        for f, p in enumerate(stack):
            self.check_frame(Realization(p), dihedrals[f], normals[f], areas[f],
                             lengths[f], angles[f])

    def test_row_dots_round_as_vector_dots(self, rng):
        a = rng.normal(size=(50, 19))
        b = rng.normal(size=19)
        assert np.array_equal(dot_rows(a, b), [row @ b for row in a])
        assert np.array_equal(row_norms(a), [np.linalg.norm(row) for row in a])
        stack = rng.normal(size=(4, 6, 3))
        want = [[np.linalg.norm(Realization(p)[e[0]] - Realization(p)[e[1]]) for e in EDGE_ORDER]
                for p in stack]
        assert np.array_equal(edge_length_array(stack), want)

    def test_zero_length_edge(self):
        pts = regular_octahedron().points.copy()
        pts[1] = pts[0]  # B on A
        r = Realization(pts)
        with pytest.raises(DegenerateFacet, match="edge AB has zero length"):
            dihedral_angle(r, "AB")
        with pytest.raises(DegenerateFacet):
            all_dihedrals(r)
        with pytest.raises(DegenerateFacet):
            dihedral_array(np.stack([regular_octahedron().points, pts]))
        # an edge clear of the collapse keeps its dihedral
        assert abs(dihedral_angle(r, "EF")) == pytest.approx(math.acos(-1.0 / 3.0))

    def test_collinear_facet(self):
        pts = np.array([[0, 0, 0], [2, 0, 0], [1, 0, 0],
                        [1, 1, 1], [0.5, -1, 0.5], [1.5, 0.5, -1]], dtype=float)
        r = Realization(pts)  # C on the segment AB
        with pytest.raises(DegenerateFacet, match="facet adjacent to AB"):
            dihedral_angle(r, "AB")
        with pytest.raises(DegenerateFacet):
            all_dihedrals(r)
        with pytest.raises(DegenerateFacet, match="ABC"):
            facet_normal(r, "ABC")
        with pytest.raises(DegenerateFacet, match="ABC"):
            check_facets(r)
        assert math.isfinite(dihedral_angle(r, "EF"))


class TestVertexFaceAngles:
    def test_regular(self):
        r = regular_octahedron()
        ang = vertex_face_angles(r, "A", ("B", "C"))
        assert ang.as_tuple() == pytest.approx((math.pi / 3,) * 4)

    def test_alpha_is_shared_facet_angle(self, rng):
        from conftest import random_generic_realization
        r = random_generic_realization(rng)
        ang = vertex_face_angles(r, "C", ("B", "A"))
        u = r["B"] - r["C"]
        v = r["A"] - r["C"]
        want = math.acos(float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v))))
        assert ang.alpha == pytest.approx(want, abs=1e-12)

    def test_angles_are_facet_angles(self, rng):
        from conftest import random_generic_realization
        r = random_generic_realization(rng)
        for v in VERTICES:
            cyc = VERTEX_CYCLES[v]
            for k in range(4):
                ang = vertex_face_angles(r, v, (cyc[k], cyc[(k + 1) % 4]))
                for value in ang.as_tuple():
                    assert 0.0 < value < math.pi

    def test_nonadjacent_pair_rejected(self):
        r = regular_octahedron()
        with pytest.raises(NonAdjacentEdges):
            vertex_face_angles(r, "A", ("B", "E"))

    def test_measured_halftangents_satisfy_equation(self, rng):
        from conftest import random_generic_realization
        for _ in range(20):
            r = random_generic_realization(rng)
            for v in VERTICES:
                cyc = VERTEX_CYCLES[v]
                pair = (cyc[0], cyc[1])
                ang = vertex_face_angles(r, v, pair)
                t, u = vertex_half_tangents(r, v, pair)
                co = linkage.tetra_coeffs(ang)
                scale = co.scale() * max(1, t * t) * max(1, u * u)
                assert abs(co.residual(t, u)) <= 1e-9 * scale


class TestClassifyEdgeLengths:
    def test_regular_matches_type1(self):
        """All edges equal: every pattern matches, each crossed pairing as a note."""
        rep = classify_edge_lengths(edge_lengths(regular_octahedron()))
        assert rep.matches_type1
        assert any("necessary only" in n for n in rep.notes)
        assert rep.matches_type2 == [("A", "D"), ("B", "E"), ("C", "F")]
        assert [n.split("through ")[1] for n in rep.notes[1:]] == [
            "AD also matches (B<->C)", "AD also matches (B<->F)",
            "BE also matches (A<->C)", "BE also matches (A<->F)",
            "CF also matches (A<->B)", "CF also matches (A<->E)"]

    def test_type2_reports_cf(self, rng):
        from conftest import sample_type2_inputs
        for pc, pf, pa, pe in sample_type2_inputs(rng, 3):
            r = builders.build_type2(pc, pf, pa, pe)
            rep = classify_edge_lengths(edge_lengths(r))
            assert ("C", "F") in rep.matches_type2

    def test_generic_no_matches(self, rng):
        from conftest import random_generic_realization
        rep = classify_edge_lengths(edge_lengths(random_generic_realization(rng)))
        assert not rep.matches_type1
        assert rep.matches_type2 == []

    def test_type3_residual(self):
        _, r = builders.build_type3_flat((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
        rep = classify_edge_lengths(edge_lengths(r), flat=r)
        assert rep.type3_residual <= 1e-10


class TestValidate:
    def test_all_unit(self):
        assert validate({e: 1.0 for e in EDGE_ORDER}) == []

    def test_long_ab(self):
        el = {e: 1.0 for e in EDGE_ORDER}
        el["AB"] = 10.0
        assert validate(el) == ["ABC", "ABF"]

    def test_type3_lengths_valid(self):
        _, r = builders.build_type3_flat((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
        assert validate(edge_lengths(r)) == []


def test_reflection_pairing_residual_symmetric(rng):
    from conftest import sample_type2_inputs
    (pc, pf, pa, pe), = sample_type2_inputs(rng, 1)
    r = builders.build_type2(pc, pf, pa, pe)
    mapping = {"A": "D", "D": "A", "B": "E", "E": "B", "C": "C", "F": "F"}
    assert reflection_pairing_residual(r, mapping) <= 1e-12
    generic = Realization(r.points + rng.normal(scale=0.05, size=(6, 3)))
    assert reflection_pairing_residual(generic, mapping) > 1e-4


def test_flat_angle_product_near_one():
    _, r = builders.build_type3_flat((0, 0), (3.3, 0), (0.8, 2.1), (4.1 / 3, 0.7))
    assert flat_angle_product(r) == pytest.approx(1.0, abs=1e-10)
    assert coplanarity_measure(r) <= 1e-12
