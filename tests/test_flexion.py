"""Tests for rigidity analysis, continuation, and facet crossing detection."""

import dataclasses
import math

import numpy as np
import pytest

from flexoct import flexion
from flexoct.builders import build_type1, build_type1_mirror, build_type2, build_type3_flat
from flexoct.flexion import (BranchAmbiguity, ContinuationStall, DriveSpec,
                             NotFlexible, _common_quadric_zero, _Hinges, _null_vector,
                             _singular_values, facet_crossings, flex_dimension,
                             flex_path, rigidity_matrix)
from flexoct.linkage import tetra_coeffs
from flexoct.octahedron import (EDGE_ORDER, VERTICES, Realization, coplanarity_measure,
                                dihedral_array, edge_length_array, edge_lengths,
                                regular_octahedron, vertex_face_angles,
                                vertex_half_tangents)

EXAMPLE_T1 = ((1, 0, 0.5), (0.1, 1, -0.4), (0.7, -0.8, 0.1))
EXAMPLE_T3 = ((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
TYPE3_DRIVE = DriveSpec(max_steps=2000, initial_step=0.01, max_step=0.02,
                        stop_after_flat_events=2)
# two corrector iterations, steps growing from 0.03, and one halving of the
# step before the floor: EXAMPLE_T1 stalls at its third step
STALL_DRIVE = DriveSpec(max_newton=2, min_step_factor=0.5, initial_step=0.03, max_step=0.3)
COLUMNS = ("points", "arclength", "dihedrals", "edge_deviation", "flat_measure", "flat")


def assert_columns_filled(path, n):
    """Every column of path has n rows and holds finite numbers."""
    for name in COLUMNS:
        column = getattr(path, name)
        assert len(column) == n, name
        assert np.all(np.isfinite(column)), name


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the lstsq and svd calls made through flexion's numpy."""
    calls = {"lstsq": 0, "svd": 0}

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(flexion.np.linalg, name, counted(name))
    return calls


class TestRigidityMatrix:
    def test_regular_rank(self):
        sv = np.linalg.svd(rigidity_matrix(regular_octahedron()), compute_uv=False)
        assert np.sum(sv > 1e-7 * sv[0]) == 12

    def test_trivial_motions_in_null_space(self, rng):
        from conftest import random_generic_realization
        r = random_generic_realization(rng)
        m = rigidity_matrix(r)
        scale = np.max(np.abs(m))
        for k in range(3):
            v = np.zeros((6, 3))
            v[:, k] = 1.0
            assert np.max(np.abs(m @ v.reshape(-1))) <= 1e-10 * scale
        for k in range(3):
            omega = np.zeros(3)
            omega[k] = 1.0
            v = np.cross(omega, r.points)
            assert np.max(np.abs(m @ v.reshape(-1))) <= 1e-10 * scale

    def test_type1_rank_drops(self):
        sv = np.linalg.svd(rigidity_matrix(build_type1(*EXAMPLE_T1)),
                           compute_uv=False)
        assert np.sum(sv > 1e-7 * sv[0]) <= 11


class TestFlexDimension:
    def test_generic_rigid(self, rng):
        from conftest import random_generic_realization
        for _ in range(10):
            rep = flex_dimension(random_generic_realization(rng))
            assert rep.flex_dimension == 0

    def test_type1_flexible(self):
        assert flex_dimension(build_type1(*EXAMPLE_T1)).flex_dimension >= 1

    def test_mirror_rigid(self):
        assert flex_dimension(build_type1_mirror(*EXAMPLE_T1)).flex_dimension == 0

    def test_flat_flagged(self):
        _, r = build_type3_flat((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
        rep = flex_dimension(r)
        assert rep.degenerate_flag
        assert rep.flex_dimension >= 1


class TestDetectFlat:
    """Flat detection: the coplanarity measure against the 1e-8 threshold."""

    def test_planar_configuration(self, rng):
        pts = np.zeros((6, 3))
        pts[:, :2] = rng.uniform(-1, 1, (6, 2))
        measure = coplanarity_measure(Realization(pts))
        assert measure <= 1e-12

    def test_regular_value(self):
        measure = coplanarity_measure(regular_octahedron())
        assert measure > 1e-8
        assert measure == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_builder_flat(self):
        _, r = build_type3_flat((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
        assert coplanarity_measure(r) <= 1e-8


class TestFlexPath:
    def test_type1_path_properties(self):
        r = build_type1(*EXAMPLE_T1)
        path = flex_path(r, drive=DriveSpec(max_steps=120))
        assert np.max(path.edge_deviation) <= 1e-9
        arcs = path.arclength
        assert np.all(np.diff(arcs) > 0)
        for e1, e2 in (("AB", "DE"), ("BF", "EC")):
            c1 = np.cos(path.dihedral_series(e1))
            c2 = np.cos(path.dihedral_series(e2))
            assert min(np.max(np.abs(c1 - c2)), np.max(np.abs(c1 + c2))) <= 1e-8

    def test_all_dihedrals_vary(self):
        r = build_type1(*EXAMPLE_T1)
        path = flex_path(r, drive=DriveSpec(max_steps=120))
        for e in EDGE_ORDER:
            series = np.unwrap(path.dihedral_series(e))
            assert series.max() - series.min() >= 1e-3

    def test_mirror_not_flexible(self):
        with pytest.raises(NotFlexible):
            flex_path(build_type1_mirror(*EXAMPLE_T1))

    def test_type3_reaches_second_flat(self):
        _, r = build_type3_flat(*EXAMPLE_T3)
        path = flex_path(r, drive=TYPE3_DRIVE)
        flats = path.flat_events()
        assert len(flats) == 2
        assert flats[0].frame_index == 0
        assert flats[1].info["measure"] <= 1e-6
        # the path genuinely left the flat state in between
        peak = np.max(path.flat_measure)
        assert peak >= 1e-2
        assert np.max(path.edge_deviation) <= 1e-8

    def test_direction_control(self):
        r = build_type1(*EXAMPLE_T1)
        up = flex_path(r, drive=DriveSpec(max_steps=5, direction=+1))
        down = flex_path(r, drive=DriveSpec(max_steps=5, direction=-1))
        d_up = up.dihedral_series("BC")
        d_down = down.dihedral_series("BC")
        assert d_up[1] > d_up[0]
        assert d_down[1] < d_down[0]

    def test_flat_start_direction_control(self):
        """A flat start leaves the plane on the side drive.direction picks:
        the two directions trace mirror images through the start plane."""
        _, r = build_type3_flat((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
        assert np.all(r.points[:, 2] == 0.0)
        kw = dict(max_steps=8, initial_step=0.01, max_step=0.02)
        up = flex_path(r, drive=DriveSpec(direction=+1, **kw))
        down = flex_path(r, drive=DriveSpec(direction=-1, **kw))
        assert len(up.frames) == len(down.frames) == 9
        d_up = np.diff(np.unwrap(up.dihedral_series("BC")))
        d_down = np.diff(np.unwrap(down.dihedral_series("BC")))
        assert np.all(d_up > 0.0) and np.all(d_down < 0.0)
        p_up = up.points
        mirrored = down.points * [1, 1, -1]
        assert np.max(np.abs(p_up[1:, :, 2])) >= 1e-2  # the path left the plane
        assert np.max(np.abs(mirrored - p_up)) <= 1e-10 * r.diameter()

    def test_range_exit(self):
        r = build_type1(*EXAMPLE_T1)
        d0 = flex_path(r, drive=DriveSpec(max_steps=1)).dihedral_series("BC")[0]
        path = flex_path(r, drive=DriveSpec(
            max_steps=500, dihedral_range=(d0 - 1.0, d0 + 0.2), direction=+1))
        assert path.termination == "range_exit"
        assert path.dihedral_series("BC")[-1] > d0 + 0.2

    def test_pinning_invariance(self):
        """Dihedrals as functions of the driven dihedral do not depend on
        which vertices are pinned, a facet or not, and every frame keeps the
        pin's gauge: its first vertex fixed, its second on the line from the
        first and its third in their plane."""
        r = build_type1(*EXAMPLE_T1)
        p1 = flex_path(r, drive=DriveSpec(max_steps=60, pin=("A", "B", "C")))
        x1 = p1.dihedral_series("BC")
        for pin in (("D", "E", "F"), ("A", "D", "B")):
            p2 = flex_path(r, drive=DriveSpec(max_steps=60, pin=pin))
            x2 = p2.dihedral_series("BC")
            lo = max(x1.min(), x2.min()) + 1e-3
            hi = min(x1.max(), x2.max()) - 1e-3
            assert hi > lo
            for e in ("AB", "CD", "AE"):
                y1 = p1.dihedral_series(e)
                y2 = p2.dihedral_series(e)
                o1 = np.argsort(x1)
                o2 = np.argsort(x2)
                for x in np.linspace(lo, hi, 7):
                    v1 = np.interp(x, x1[o1], y1[o1])
                    v2 = np.interp(x, x2[o2], y2[o2])
                    assert v1 == pytest.approx(v2, abs=1e-5)
            i0, i1, i2 = (VERTICES.index(v) for v in pin)
            p, tol = p2.points, 1e-12 * r.diameter()
            e1 = (p[0, i1] - p[0, i0]) / np.linalg.norm(p[0, i1] - p[0, i0])
            n = np.cross(e1, p[0, i2] - p[0, i0])
            n /= np.linalg.norm(n)
            assert np.max(np.abs(p[:, i0] - p[0, i0])) <= tol
            assert np.max(np.abs(np.cross(p[:, i1] - p[:, i0], e1))) <= tol
            assert np.max(np.abs((p[:, i2] - p[:, i0]) @ n)) <= tol

    def test_repeated_pin_label_refused(self):
        """A pin naming a vertex twice is a named error before any step."""
        with pytest.raises(ValueError, match="three distinct vertex labels"):
            flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(pin=("A", "A", "B")))

    def test_columns_match_per_frame_kernels(self):
        """The batched columns equal the geometry kernel run frame by frame."""
        r = build_type1(*EXAMPLE_T1)
        path = flex_path(r, drive=DriveSpec(max_steps=40))
        assert_columns_filled(path, 41)
        target = edge_length_array(r.points)
        for i, p in enumerate(path.points):
            assert np.array_equal(path.dihedrals[i], dihedral_array(p))
            dev = np.max(np.abs(edge_length_array(p) - target) / target)
            assert path.edge_deviation[i] == dev
            assert path.flat_measure[i] == coplanarity_measure(Realization(p))
        steps = np.linalg.norm(np.diff(path.points, axis=0), axis=(1, 2)) / r.diameter()
        assert np.allclose(np.diff(path.arclength), steps, rtol=1e-12, atol=0.0)
        assert not path.flat.any()

    def test_frames_view(self):
        path = flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(max_steps=5))
        frames = path.frames
        assert len(frames) == 6
        for i in (0, 3, -1):
            frame = frames[i]
            assert np.array_equal(frame.realization.points, path.points[i])
            assert frame.arclength == path.arclength[i]
            assert frame.max_edge_deviation == path.edge_deviation[i]
            assert frame.flat_measure == path.flat_measure[i]
            assert frame.flat == path.flat[i]
        assert [f.arclength for f in frames[1:5:2]] == list(path.arclength[1:5:2])
        assert [f.arclength for f in frames] == list(path.arclength)
        with pytest.raises(IndexError):
            frames[6]
        with pytest.raises(dataclasses.FrozenInstanceError):
            frames[0].flat = True
        with pytest.raises(ValueError):
            frames[0].realization.points[0, 0] = 1.0

    def test_stall_keeps_partial_path(self):
        """A stall after accepted steps raises with the path up to its last
        accepted frame, every column filled."""
        with pytest.raises(ContinuationStall, match="step 2") as err:
            flex_path(build_type1(*EXAMPLE_T1), drive=STALL_DRIVE)
        partial = err.value.partial
        assert partial.termination == "stall"
        assert_columns_filled(partial, 3)
        assert np.all(np.diff(partial.arclength) > 0.0)
        assert np.max(partial.edge_deviation) <= 1e-9

    def test_edge_lengths_honored(self):
        r = build_type2((0, 0, 1), (0.2, 0, -1), (1, 0.7, 0.3), (-0.9, 0.5, -0.2))
        el = edge_lengths(r)
        path = flex_path(r, DriveSpec(max_steps=40))
        last = Realization(path.points[-1])
        got = edge_lengths(last, check=False)
        assert max(abs(got[e] - el[e]) / el[e] for e in el) <= 1e-9


def abc_heights(path) -> np.ndarray:
    """Heights of D, E, F above the plane of A, B, C, one row per frame,
    from the frames' own coordinates."""
    p = path.points
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return np.einsum("fvk,fk->fv", p[:, 3:] - p[:, :1], n)


class TestFlatCrossings:
    """Flat events against the heights of D, E, F above plane ABC: a path
    crosses a flat configuration exactly where they change sign."""

    @staticmethod
    def assert_no_missed_crossing(path):
        h = abc_heights(path)
        events = {ev.frame_index for ev in path.flat_events()}
        for j in np.nonzero(np.einsum("fv,fv->f", h[:-1], h[1:]) < 0.0)[0]:
            assert j in events or j + 1 in events, \
                f"heights change sign between frames {j} and {j + 1} without an event"
        for ev in path.flat_events():
            assert ev.info["measure"] <= path.drive.flat_event_tol
            assert np.max(np.abs(h[ev.frame_index])) <= 1e-12

    def test_example_second_event_is_first_crossing(self):
        _, r = build_type3_flat(*EXAMPLE_T3)
        path = flex_path(r, drive=TYPE3_DRIVE)
        self.assert_no_missed_crossing(path)
        flats = path.flat_events()
        assert [ev.frame_index for ev in flats] == [0, 16]
        h = abc_heights(path)
        assert np.einsum("v,v", h[15], h[17]) < 0.0  # the event lies between them
        arc = path.arclength
        assert arc[15] < arc[16] < arc[17]
        assert abs(abs(path.dihedral_series("BC")[16]) - math.pi) <= 1e-3
        assert abs(path.dihedral_series("AB")[16]) <= 1e-3
        assert path.edge_deviation[16] <= 1e-14

    def test_every_crossing_recorded(self):
        """Without a stop, each sign change of the heights is one event."""
        _, r = build_type3_flat(*EXAMPLE_T3)
        path = flex_path(r, drive=DriveSpec(max_steps=80, initial_step=0.01,
                                            max_step=0.02))
        self.assert_no_missed_crossing(path)
        events = [ev.frame_index for ev in path.flat_events()]
        h = np.delete(abc_heights(path), events, axis=0)
        changes = int(np.sum(np.einsum("fv,fv->f", h[:-1], h[1:]) < 0.0))
        assert changes == 5
        assert events[0] == 0 and len(events) == 1 + changes
        assert path.meta["corrector"]["flat_solves"] == changes

    def test_sampled_shapes(self, rng):
        from conftest import sample_type3_triangles
        for pa, pb, pc in sample_type3_triangles(rng, 3):
            _, r = build_type3_flat(pa, pb, pc, (pa + pb + pc) / 3.0)
            path = flex_path(r, drive=TYPE3_DRIVE)
            assert len(path.flat_events()) == 2
            self.assert_no_missed_crossing(path)

    def test_type1_path_has_no_flat_event(self):
        """A type 1 path meets no flat configuration: no event and no flat
        solve."""
        path = flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(max_steps=100))
        self.assert_no_missed_crossing(path)
        assert path.flat_events() == []
        assert path.meta["corrector"]["flat_solves"] == 0


def memoir_residual(path) -> float:
    """The largest residual over the frames of a path of the memoir's
    relation at C (tracked edges to B and A), B (C, A) and A (B, C), with the
    coefficients of frame 0's face angles and each frame's half-tangents, in
    the form smooth through pi: a t^2 u^2 + b t^2 + 2c t u + d u^2 + e times
    cos^2(phi/2) cos^2(psi/2), over the largest coefficient."""
    worst = 0.0
    for v, pair in (("C", ("B", "A")), ("B", ("C", "A")), ("A", ("B", "C"))):
        co = tetra_coeffs(vertex_face_angles(Realization(path.points[0]), v, pair))
        for p in path.points:
            t, u = vertex_half_tangents(Realization(p), v, pair)
            worst = max(worst, abs(co.residual(t, u)) / ((1.0 + t * t) * (1.0 + u * u))
                        / co.scale())
    return worst


class TestMemoirRelations:
    """Paths against the memoir's own equations at the vertices of facet
    ABC, an oracle that reads no residual of the continuation."""

    @pytest.mark.parametrize("family", ["type1", "type2", "type3"])
    def test_every_frame_satisfies_the_relations(self, rng, family):
        from conftest import (sample_type1_inputs, sample_type2_inputs,
                              sample_type3_triangles)
        if family == "type1":
            starts = [build_type1(*pts) for pts in sample_type1_inputs(rng, 2)]
        elif family == "type2":
            starts = [build_type2(*pts) for pts in sample_type2_inputs(rng, 2)]
        else:
            starts = [build_type3_flat(pa, pb, pc, (pa + pb + pc) / 3.0)[1]
                      for pa, pb, pc in sample_type3_triangles(rng, 2)]
        for r in starts:
            path = flex_path(r, drive=TYPE3_DRIVE if family == "type3"
                             else DriveSpec(max_steps=100))
            assert memoir_residual(path) <= 1e-10

    def test_oracle_sees_a_moved_vertex(self):
        """Moving D by 1e-6 diameters in one frame shows in that frame."""
        path = flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(max_steps=10))
        assert memoir_residual(path) <= 1e-10
        path.points[5, 3] += 1e-6 * np.linalg.norm(np.ptp(path.points[0], axis=0))
        assert memoir_residual(path) >= 1e-8


class TestFacetCrossings:
    def test_regular_empty(self):
        assert facet_crossings(regular_octahedron()) == []

    def test_type1_crossing(self):
        assert facet_crossings(build_type1(*EXAMPLE_T1))

    def test_edge_sharing_excluded(self):
        crossings = facet_crossings(build_type1(*EXAMPLE_T1))
        for f1, f2 in crossings:
            assert len(set(f1) & set(f2)) <= 1

    def test_crossings_along_path(self):
        """The crossing set is computed on every frame of a path, starting
        from the start's own, and never pairs facets that share an edge."""
        r = build_type1(*EXAMPLE_T1)
        path = flex_path(r, drive=DriveSpec(max_steps=60))
        crossings = [facet_crossings(Realization(p)) for p in path.points]
        assert crossings[0] == facet_crossings(r)
        assert all(len(set(f1) & set(f2)) <= 1 for pairs in crossings for f1, f2 in pairs)

    # The expected sets of the coplanar cases below are the pairs whose
    # triangles overlap with positive area, found by exact rational clipping.

    def test_flat_type3_frame(self):
        """DEF and BCD, BCD and ABF, CAE and ABF, and AEF and CDE meet at one
        point only; BCD and AEF, and ABF and CDE, are apart."""
        _, r = build_type3_flat(*EXAMPLE_T3)
        assert facet_crossings(r) == [
            ("ABC", "DEF"), ("ABC", "AEF"), ("ABC", "BFD"), ("ABC", "CDE"), ("DEF", "CAE"),
            ("DEF", "ABF"), ("BCD", "CAE"), ("CAE", "BFD"), ("AEF", "BFD"), ("BFD", "CDE")]

    def test_coplanar_touching_facets(self):
        """With E on side AB, ABC and AEF, and CAE and ABF, meet along the
        segment AE only, and seven more pairs at one point only.  None of them
        crosses, in the plane z = 0 or turned, scaled and moved anywhere."""
        p = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [3, 3, 0], [1, 0, 0], [0, -2, 0]], float)
        want = [("ABC", "DEF"), ("ABC", "BFD"), ("ABC", "CDE"), ("DEF", "BCD"), ("DEF", "ABF")]
        assert facet_crossings(Realization(p)) == want
        rng = np.random.default_rng(3)
        for _ in range(20):
            rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            moved = rng.uniform(0.1, 10.0) * p @ rot.T + rng.normal(size=3)
            assert facet_crossings(Realization(moved)) == want

    def test_overlapping_coplanar_facets(self):
        """DEF is ABC moved by (1, 1): every one of the 16 pairs overlaps."""
        p = np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0], [1, 1, 0], [5, 1, 0], [1, 5, 0]], float)
        assert len(facet_crossings(Realization(p))) == 16


class TestCorrector:
    """The Gauss-Newton corrector in the three hinge angles."""

    def test_step_meets_tolerance_and_arc(self):
        """One corrected step keeps every relative squared-length error
        under the tolerance, and its chord projects onto the tangent at the
        start as h."""
        r = build_type1(*EXAMPLE_T1)
        hinges = _Hinges(r.points, (0, 1, 2), r.diameter())
        zero = (0.0, 0.0, 0.0)
        tau = _null_vector(hinges.evaluate(zero)[1])
        psi, jac, ok = hinges.correct(hinges.advance(zero, tau, 0.02), zero, tau, 0.02,
                                      1e-12, 25)
        assert ok
        assert 2 <= hinges.counts["newton_iterations"] <= 6
        p = hinges.points(np.array([psi]))[0]
        target = edge_length_array(r.points)
        assert np.max(np.abs(edge_length_array(p) ** 2 / target ** 2 - 1.0)) < 1e-12
        chord = (p - hinges.points(np.array([zero]))[0])[hinges.hinged]
        tangents = np.cross(np.cross(hinges.u, hinges.w), hinges.u)  # w at psi = 0
        assert np.einsum("k,kj,kj", tau, chord, tangents) / r.diameter() \
            == pytest.approx(0.02, rel=1e-12)
        assert jac == hinges.evaluate(psi)[1]

    def test_singular_values_and_null_vector(self, rng):
        """The closed-form singular values and null vector of the cyclic
        Jacobian agree with numpy's SVD, for small singular values too."""
        for scale in (1.0, 1e-4, 1e-9):
            a0, b0, a1, b1, a2, b2 = rng.normal(size=6)
            # a null vector v: a_k v_k + b_k v_{k+1} = 0 for rows 0 and 1
            v = rng.normal(size=3)
            b0, b1 = -a0 * v[0] / v[1], -a1 * v[1] / v[2]
            b2 = -(a2 * v[2]) / v[0] + scale
            jac = (a0, b0, a1, b1, a2, b2)
            m = np.array([[a0, b0, 0.0], [0.0, a1, b1], [b2, 0.0, a2]])
            sv = np.linalg.svd(m, compute_uv=False)
            assert np.allclose(_singular_values(jac), sv, rtol=1e-9, atol=1e-15)
            if scale < 1e-6:
                nv = np.array(_null_vector(jac))
                assert abs(abs(nv @ v) / np.linalg.norm(v) - 1.0) <= 1e-12
        assert _singular_values((0.0,) * 6) == (0.0, 0.0, 0.0)

    def test_linalg_calls_per_frame(self, linalg_calls):
        """A path away from flat configurations makes no lstsq call and two
        SVDs: the start's coplanarity measure and the batched one of all
        frames."""
        path = flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(max_steps=100))
        frames = len(path.frames)
        assert frames == 101
        assert linalg_calls["lstsq"] == 0
        assert linalg_calls["svd"] == 2

    def test_flat_search_lstsq_per_frame(self, linalg_calls):
        """A flat crossing costs one closed-form flat solve, not a search of
        corrector probes."""
        _, r = build_type3_flat(*EXAMPLE_T3)
        path = flex_path(r, drive=TYPE3_DRIVE)
        assert len(path.flat_events()) == 2
        assert path.meta["corrector"]["flat_solves"] == 1
        assert linalg_calls["lstsq"] <= 6 * len(path.frames)

    def test_counts_in_meta(self):
        path = flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(max_steps=20))
        counts = path.meta["corrector"]
        assert set(counts) == {"steps", "newton_iterations", "halvings", "flat_solves"}
        assert all(isinstance(v, int) for v in counts.values())
        assert counts["steps"] == 20
        assert counts["newton_iterations"] >= 2 * counts["steps"]
        assert counts["halvings"] == counts["flat_solves"] == 0


class TestFlatStart:
    """The closed-form common zero of the self-stress forms at a flat start."""

    @staticmethod
    def forms_vanishing_at(rng, u, count=3):
        forms = []
        for _ in range(count):
            m = rng.normal(size=(3, 3))
            m = m + m.T
            forms.append(m - (u @ m @ u) * np.outer(u, u))
        return forms

    def test_planted_common_zero(self, rng):
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            sols = _common_quadric_zero(self.forms_vanishing_at(rng, u))
            assert len(sols) == 1
            assert min(np.max(np.abs(sols[0] - u)), np.max(np.abs(sols[0] + u))) <= 1e-12

    def test_no_common_zero(self, rng):
        for _ in range(20):
            u, w = rng.normal(size=(2, 3))
            mats = (self.forms_vanishing_at(rng, u / np.linalg.norm(u), 2)
                    + self.forms_vanishing_at(rng, w / np.linalg.norm(w), 1))
            assert _common_quadric_zero(mats) == []

    def test_rigid_flat_start(self):
        """Moving D, E, F in the plane breaks the concurrency the flat flex
        needs: every out-of-plane direction is a first-order flex, but none
        extends to second order."""
        _, r = build_type3_flat(*EXAMPLE_T3)
        pts = r.points.copy()
        pts[3:, :2] += [[0.05, 0.0], [0.0, 0.05], [-0.05, 0.03]]
        with pytest.raises(NotFlexible, match="no finite flex"):
            flex_path(Realization(pts))

    def test_flat_start_null_dimension_not_three(self):
        """A start within the flat tolerance whose hinge-angle Jacobian keeps
        one direction above the rank tolerance leaves the flat start's
        tangent ambiguous: D lifted by 1e-6 off the plane gives singular
        values 3.5e-5, 5.8e-7 and 0."""
        _, r = build_type3_flat(*EXAMPLE_T3)
        pts = r.points.copy()
        pts[3, 2] += 1e-6
        r = Realization(pts)
        assert flex_path(r, drive=DriveSpec(max_steps=1)).flat[0]  # one null direction
        with pytest.raises(BranchAmbiguity, match="dimension 2 at a flat start") as err:
            flex_path(r, drive=DriveSpec(rank_tol=1e-5))
        partial = err.value.partial
        assert_columns_filled(partial, 1)
        assert np.array_equal(partial.points[0], r.points)
        assert partial.flat[0] and partial.edge_deviation[0] == 0.0
        assert [(ev.kind, ev.frame_index) for ev in partial.events] == [("flat", 0)]

    # the draws of test_flat_type1_starts that admit no finite flex
    RIGID_FLAT_TYPE1 = (0, 1, 8, 15, 16, 18, 22, 25, 31, 33, 37, 40, 44, 46, 53, 56, 59,
                        60, 65, 66, 67, 69, 71, 73, 76)

    def test_flat_type1_starts(self):
        """Flat starts beyond type 3: half-turn figures with A, B and F drawn
        in [-2, 2]^2 at z = 0, built about the x axis (in the plane) and the
        z axis (its normal).  55 of the 80 leave the plane and hold their
        edge lengths for 40 steps; the other 25 have no common zero of their
        self-stress forms and raise NotFlexible."""
        rng = np.random.default_rng(5)
        flexing = []
        for i in range(40):
            pa, pb, pf = (np.r_[rng.uniform(-2, 2, 2), 0.0] for _ in range(3))
            for j, axis in enumerate(((1, 0, 0), (0, 0, 1))):
                r = build_type1(pa, pb, pf, (0, 0, 0), axis)
                try:
                    path = flex_path(r, drive=DriveSpec(max_steps=40))
                except NotFlexible as exc:
                    assert "no finite flex" in str(exc)
                    continue
                flexing.append(2 * i + j)
                assert path.flat[0] and path.meta["corrector"]["steps"] == 40
                assert np.max(path.edge_deviation) <= 5e-13
                assert np.max(path.flat_measure) >= 1e-2
        assert len(flexing) == 55
        assert sorted(set(range(80)) - set(flexing)) == list(self.RIGID_FLAT_TYPE1)

    def test_flat_start_halves_its_first_step(self):
        """Flat starts whose first correction fails at drive.initial_step leave
        the plane at a halved step and reach their second flat event."""
        rng = np.random.default_rng(11)
        draws = []
        for _ in range(40):
            tri = rng.uniform(-2, 2, (3, 2))
            draws.append((tri, rng.dirichlet((2, 2, 2)) @ tri))
        for k in (3, 19, 38):
            tri, point = draws[k]
            _, r = build_type3_flat(*tri, point)
            path = flex_path(r, drive=DriveSpec(stop_after_flat_events=2))
            assert len(path.flat_events()) == 2
            assert np.max(path.edge_deviation) <= 1e-8
            assert np.diff(path.arclength)[0] < 0.02
            TestFlatCrossings.assert_no_missed_crossing(path)

    @pytest.mark.parametrize("direction", [1, -1])
    def test_first_step_is_the_probe(self, monkeypatch, direction):
        """The first step out of a flat start is the corrected point of the
        probe that chose the direction, so no prediction is corrected twice,
        and the driven dihedral leaves in drive.direction."""
        predictions = []
        correct = _Hinges.correct

        def recording(self, psi_pred, *args, **kwargs):
            predictions.append(tuple(psi_pred))
            return correct(self, psi_pred, *args, **kwargs)

        monkeypatch.setattr(_Hinges, "correct", recording)
        _, r = build_type3_flat(*EXAMPLE_T3)
        path = flex_path(r, drive=DriveSpec(max_steps=3, direction=direction))
        assert len(path.frames) == 4
        assert len(set(predictions)) == len(predictions)
        assert math.copysign(1.0, path.dihedral_series("BC")[1]
                             - path.dihedral_series("BC")[0]) == direction
