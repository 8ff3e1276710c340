"""Tests for the theorem checks along realizations and paths."""

import dataclasses
import math

import numpy as np
import pytest

from flexoct.builders import build_type1, build_type2, build_type3_flat
from flexoct.flexion import DriveSpec, flex_path
from flexoct.octahedron import Realization, canonical_edge, regular_octahedron
from flexoct.verifiers import (HEXAGONS, InsufficientFrames, NearParallelPlanes,
                               dihedral_cos_line_fit, hexagon_sides,
                               hexagon_traces, mannheim_point, mannheim_residuals,
                               opposite_dihedral_trace, vertex_opposite_pairs)

EXAMPLE_T1 = ((1, 0, 0.5), (0.1, 1, -0.4), (0.7, -0.8, 0.1))

# the facets across the three sides of each base facet
SIDE_FACETS = {"ABC": ("ABF", "BCD", "CAE"), "DEF": ("CDE", "AEF", "BFD")}


def cramer_meet(r, facets):
    """Common point of three facet planes, by Cramer's rule."""
    normals, offsets = [], []
    for f in facets:
        p, q, s = (np.asarray(r[v], dtype=float) for v in f)
        n = np.cross(q - p, s - p)
        normals.append(n)
        offsets.append(n @ p)
    n1, n2, n3 = normals
    det = n1 @ np.cross(n2, n3)
    return (offsets[0] * np.cross(n2, n3) + offsets[1] * np.cross(n3, n1)
            + offsets[2] * np.cross(n1, n2)) / det


def rows(path, index):
    """The path made of the given rows of path's columns."""
    columns = ("points", "arclength", "dihedrals", "edge_deviation", "flat_measure", "flat")
    return dataclasses.replace(path, events=[],
                               **{c: getattr(path, c)[index] for c in columns})


@pytest.fixture(scope="module")
def type1_path():
    return flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(max_steps=100))


@pytest.fixture(scope="module")
def type2_path():
    r = build_type2((0, 0, 1), (0.2, 0, -1), (1, 0.7, 0.3), (-0.9, 0.5, -0.2))
    return flex_path(r, drive=DriveSpec(max_steps=100))


class TestMannheim:
    def test_flexible_path_concurrency(self, type1_path):
        for frame in type1_path.frames[::5]:
            for base in ("ABC", "DEF"):
                res = mannheim_point(frame.realization, base=base)
                assert res.residual <= 1e-6
                meet = cramer_meet(frame.realization, SIDE_FACETS[base])
                diam = frame.realization.diameter()
                assert np.max(np.abs(res.point - meet)) <= 1e-9 * diam

    def test_batched_residuals_equal_single(self, type1_path):
        """The batched residuals equal mannheim_point's frame by frame, and are
        nan exactly where it raises NearParallelPlanes (the flat frames)."""
        _, r = build_type3_flat((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
        type3_path = flex_path(r, drive=DriveSpec(max_steps=30, initial_step=0.01,
                                                  max_step=0.02))
        for path in (type1_path, type3_path):
            for base in ("ABC", "DEF"):
                batched = mannheim_residuals(path.points, base)
                for p, res in zip(path.points, batched):
                    try:
                        single = mannheim_point(Realization(p), base=base).residual
                    except NearParallelPlanes:
                        single = math.nan
                    assert res == single or math.isnan(res) and math.isnan(single)
        assert np.isnan(mannheim_residuals(type3_path.points)).sum() >= 2

    def test_rigid_realization_reports_without_assertion(self, rng):
        from conftest import random_generic_realization
        res = mannheim_point(random_generic_realization(rng))
        assert res.residual >= 0.0  # generically nonzero, just reported

    def test_near_parallel_planes(self):
        _, r = build_type3_flat((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
        with pytest.raises(NearParallelPlanes):
            mannheim_point(r)  # all facet planes coincide when flat

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError):
            mannheim_point(regular_octahedron(), base="ABD")


class TestOppositeDihedralTrace:
    def test_type1_all_classified(self, type1_path):
        for rel in opposite_dihedral_trace(type1_path):
            assert rel.relation in ("equal", "supplementary")
            assert min(rel.dev_equal, rel.dev_supplementary) <= 1e-8

    def test_type2_pairs(self, type2_path):
        rels = {tuple(sorted(r.pair)): r for r in opposite_dihedral_trace(type2_path)}
        for pair in (("AE", "DB"), ("AB", "DE")):
            rel = rels[tuple(sorted(pair))]
            assert rel.relation in ("equal", "supplementary")
            assert min(rel.dev_equal, rel.dev_supplementary) <= 1e-8

    def test_single_frame_trivial(self, type1_path):
        single = rows(type1_path, [0])
        for rel in opposite_dihedral_trace(single):
            assert rel.relation in ("equal", "supplementary")


class TestHexagons:
    def test_side_lists(self):
        assert hexagon_sides("ABCDEF") == ("AB", "BC", "CD", "DE", "EF", "FA")
        for hexagon in HEXAGONS:
            for i in range(6):
                canonical_edge(hexagon[i], hexagon[(i + 1) % 6])  # all are edges

    def test_constancy_along_path(self, type1_path):
        for trace in hexagon_traces(type1_path):
            assert trace.max_side_variation <= 1e-9
            assert trace.max_angle_variation <= 1e-8

    def test_single_frame_zero(self, type1_path):
        single = rows(type1_path, [0])
        for trace in hexagon_traces(single):
            assert trace.max_side_variation == 0.0
            assert trace.max_angle_variation == 0.0


class TestCosineLineFit:
    def test_fit_matches_analytic(self, type1_path):
        for v in "ABCDEF":
            for pair in vertex_opposite_pairs(v):
                fit = dihedral_cos_line_fit(type1_path, v, pair)
                assert fit.max_residual <= 1e-8
                assert fit.agreement <= 1e-6

    def test_unicursal_vertex_line_shape(self):
        _, r = build_type3_flat((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
        path = flex_path(r, drive=DriveSpec(max_steps=60, initial_step=0.01,
                                            max_step=0.02))
        fit = dihedral_cos_line_fit(path, "A", vertex_opposite_pairs("A")[0])
        assert abs(fit.line.n) <= 1e-6
        assert fit.line.l * fit.line.m < 0.0
        assert abs(abs(fit.line.l) - abs(fit.line.m)) <= 1e-6

    def test_insufficient_frames(self, type1_path):
        short = rows(type1_path, slice(0, 2))
        with pytest.raises(InsufficientFrames):
            dihedral_cos_line_fit(short, "A", ("B", "E"))

    def test_degenerate_flag_on_constant_samples(self, type1_path):
        frozen = rows(type1_path, [0] * 5)
        fit = dihedral_cos_line_fit(frozen, "A", ("B", "E"))
        assert fit.degenerate
