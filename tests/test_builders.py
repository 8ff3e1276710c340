"""Tests for the three construction families and the rigid negative control."""

import math

import numpy as np
import pytest

from flexoct import linkage
from flexoct.builders import (DegenerateConcurrency, DegenerateInput,
                              PointsNotOnPlane, build_type1, build_type1_mirror,
                              build_type2, build_type3_flat)
from flexoct.flexion import flex_dimension
from flexoct.octahedron import (OPPOSITE_EDGES, VERTEX_CYCLES, VERTICES,
                                classify_edge_lengths, coplanarity_measure,
                                edge_lengths, validate, vertex_face_angles)

EXAMPLE_T1 = ((1, 0, 0.5), (0.1, 1, -0.4), (0.7, -0.8, 0.1))


class TestType1:
    def test_half_turn_images(self):
        r = build_type1(*EXAMPLE_T1)
        assert r["D"] == pytest.approx([-1, 0, 0.5])
        assert r["E"] == pytest.approx([-0.1, -1, -0.4])
        assert r["C"] == pytest.approx([-0.7, 0.8, 0.1])

    def test_opposite_edges_equal(self):
        el = edge_lengths(build_type1(*EXAMPLE_T1))
        for e1, e2 in OPPOSITE_EDGES:
            assert abs(el[e1] - el[e2]) <= 1e-12

    def test_diagonals_bisected_by_axis(self):
        r = build_type1(*EXAMPLE_T1)
        axis = np.array([0.0, 0.0, 1.0])
        for v, w in (("A", "D"), ("B", "E"), ("C", "F")):
            diag = r[v] - r[w]
            assert abs(float(diag @ axis)) <= 1e-12       # perpendicular
            mid = 0.5 * (r[v] + r[w])
            assert np.linalg.norm(mid[:2]) <= 1e-12        # midpoint on the axis

    def test_flexible(self, rng):
        from conftest import sample_type1_inputs
        for pa, pb, pf in sample_type1_inputs(rng, 3, require_mirror=False):
            r = build_type1(pa, pb, pf)
            assert flex_dimension(r).flex_dimension >= 1
            assert validate(edge_lengths(r)) == []

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            build_type1((1, 0, 0), (2, 0, 0), (3, 0, 0))

    def test_general_axis(self, rng):
        point = rng.normal(size=3)
        direction = rng.normal(size=3)
        r = build_type1(*EXAMPLE_T1, axis_point=point, axis_direction=direction)
        el = edge_lengths(r)
        for e1, e2 in OPPOSITE_EDGES:
            assert abs(el[e1] - el[e2]) <= 1e-12


class TestType1Mirror:
    def test_same_edge_lengths(self):
        el = edge_lengths(build_type1(*EXAMPLE_T1))
        elm = edge_lengths(build_type1_mirror(*EXAMPLE_T1))
        for e in el:
            assert abs(elm[e] - el[e]) <= 1e-12 * max(1.0, el[e])

    def test_rigid_negative_control(self):
        rm = build_type1_mirror(*EXAMPLE_T1)
        assert flex_dimension(rm).flex_dimension == 0

    def test_still_matches_type1_conditions(self):
        rep = classify_edge_lengths(edge_lengths(build_type1_mirror(*EXAMPLE_T1)))
        assert rep.matches_type1

    def test_batch(self, rng):
        from conftest import sample_type1_inputs
        for pa, pb, pf in sample_type1_inputs(rng, 5):
            el = edge_lengths(build_type1(pa, pb, pf))
            rm = build_type1_mirror(pa, pb, pf)
            elm = edge_lengths(rm)
            assert max(abs(elm[e] - el[e]) / el[e] for e in el) <= 1e-9
            assert flex_dimension(rm).flex_dimension == 0

    def test_reattachment_solver_branch(self):
        """Inputs whose point-symmetric closed form does not exist: the
        mirror is re-closed by a scan over the diagonal length |AD|."""
        from flexoct.builders import _mirror_central
        cases = (
            ((-0.7456, 0.4785, -0.6087), (-0.8762, 0.1968, 0.7915),
             (-0.9461, 0.6103, -0.6197)),
            ((-0.5098, 0.6904, 0.4836), (0.0916, 0.323, 0.3846),
             (0.5621, 0.855, -0.7005)),
            ((-0.3696, 0.4392, -0.9293), (-0.9282, -0.9102, 0.7369),
             (-0.3325, -0.3625, 0.5867)),
        )
        for pa, pb, pf in cases:
            el = edge_lengths(build_type1(pa, pb, pf))
            assert _mirror_central(el) is None
            rm = build_type1_mirror(pa, pb, pf)
            elm = edge_lengths(rm)
            assert max(abs(elm[e] - el[e]) / el[e] for e in el) <= 1e-9
            assert flex_dimension(rm).flex_dimension == 0


class TestType2:
    EXAMPLE = ((0, 0, 1), (0.2, 0, -1), (1, 0.7, 0.3), (-0.9, 0.5, -0.2))

    def test_mirror_images(self):
        r = build_type2(*self.EXAMPLE)
        assert r["D"] == pytest.approx([1, -0.7, 0.3])
        assert r["B"] == pytest.approx([-0.9, -0.5, -0.2])

    def test_equalities(self):
        el = edge_lengths(build_type2(*self.EXAMPLE))
        for e1, e2 in (("FA", "FD"), ("EF", "BF"), ("CA", "CD"),
                       ("BC", "EC"), ("AE", "DB"), ("AB", "DE")):
            assert abs(el[e1] - el[e2]) <= 1e-12

    def test_flexible(self):
        assert flex_dimension(build_type2(*self.EXAMPLE)).flex_dimension >= 1

    def test_points_not_on_plane(self):
        with pytest.raises(PointsNotOnPlane):
            build_type2((0, 0.3, 1), (0.2, 0, -1), (1, 0.7, 0.3), (-0.9, 0.5, -0.2))

    def test_apex_on_plane_rejected(self):
        with pytest.raises(DegenerateInput):
            build_type2((0, 0, 1), (0.2, 0, -1), (1, 0.0, 0.3), (-0.9, 0.5, -0.2))


class TestType3:
    TRIANGLE = ((0.0, 0.0), (4.0, 0.0), (1.0, 2.5))

    def centroid(self):
        return (np.array(self.TRIANGLE[0]) + self.TRIANGLE[1]
                + np.array(self.TRIANGLE[2])) / 3.0

    def test_construction(self):
        con, r = build_type3_flat(*self.TRIANGLE, self.centroid())
        assert con.ceva_residual <= 1e-10
        assert coplanarity_measure(r) <= 1e-12
        assert validate(edge_lengths(r)) == []

    def test_every_vertex_unicursal(self):
        _, r = build_type3_flat(*self.TRIANGLE, self.centroid())
        for v in VERTICES:
            cyc = VERTEX_CYCLES[v]
            ang = vertex_face_angles(r, v, (cyc[0], cyc[1]))
            assert linkage.classify(ang, tol=1e-6).tag == linkage.UNICURSAL

    def test_incenter_degenerate(self):
        a, b, c = (np.array(p, dtype=float) for p in self.TRIANGLE)
        la = np.linalg.norm(b - c)
        lb = np.linalg.norm(c - a)
        lc = np.linalg.norm(a - b)
        incenter = (la * a + lb * b + lc * c) / (la + lb + lc)
        with pytest.raises(DegenerateConcurrency):
            build_type3_flat(*self.TRIANGLE, incenter)

    def test_point_on_bisector_degenerate(self):
        a, b, c = (np.array(p, dtype=float) for p in self.TRIANGLE)
        la = np.linalg.norm(b - c)
        lb = np.linalg.norm(c - a)
        lc = np.linalg.norm(a - b)
        incenter = (la * a + lb * b + lc * c) / (la + lb + lc)
        on_bisector = a + 0.7 * (incenter - a)
        with pytest.raises(DegenerateConcurrency):
            build_type3_flat(*self.TRIANGLE, on_bisector)

    def test_exterior_point_rejected(self):
        with pytest.raises(DegenerateInput):
            build_type3_flat(*self.TRIANGLE, (5.0, 5.0))

    def test_linkage_constants_close(self):
        """The per-vertex one-to-one relations compose consistently: with
        u = k3/t at C and v = t/k2 at B, the product uv reproduces the
        constant at A."""
        con, r = build_type3_flat(*self.TRIANGLE, self.centroid())
        from flexoct.octahedron import flat_angle_product
        assert abs(flat_angle_product(r) - 1.0) <= 1e-10

    def test_batch(self, rng):
        from conftest import sample_type3_triangles
        for pa, pb, pc in sample_type3_triangles(rng, 5):
            con, r = build_type3_flat(pa, pb, pc, (pa + pb + pc) / 3.0)
            assert con.ceva_residual <= 1e-10
            assert coplanarity_measure(r) <= 1e-12
