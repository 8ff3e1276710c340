"""Tests for rigidity analysis, continuation, and facet crossing detection."""

import dataclasses
import math

import numpy as np
import pytest

from flexoct import flexion
from flexoct.builders import build_type1, build_type1_mirror, build_type2, build_type3_flat
from flexoct.flexion import (BranchAmbiguity, ContinuationStall, DriveSpec,
                             NotFlexible, _System, _common_quadric_zero,
                             facet_crossings, flex_dimension, flex_path,
                             rigidity_matrix)
from flexoct.octahedron import (EDGE_ORDER, Realization, coplanarity_measure,
                                dihedral_array, edge_length_array, edge_lengths,
                                regular_octahedron)

EXAMPLE_T1 = ((1, 0, 0.5), (0.1, 1, -0.4), (0.7, -0.8, 0.1))
EXAMPLE_T3 = ((0, 0), (4, 0), (1, 2.5), (5 / 3, 2.5 / 3))
TYPE3_DRIVE = DriveSpec(max_steps=2000, initial_step=0.01, max_step=0.02,
                        stop_after_flat_events=2)
# two corrector iterations, and one halving of the step before the floor:
# EXAMPLE_T1 stalls at its third step
STALL_DRIVE = DriveSpec(max_newton=2, min_step_factor=0.5)
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
        which facet is pinned."""
        r = build_type1(*EXAMPLE_T1)
        p1 = flex_path(r, drive=DriveSpec(max_steps=60, pin=("A", "B", "C")))
        p2 = flex_path(r, drive=DriveSpec(max_steps=60, pin=("D", "E", "F")))
        x1 = p1.dihedral_series("BC")
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
        assert path.meta["corrector"]["flat_probes"] == changes

    def test_sampled_shapes(self, rng):
        from conftest import sample_type3_triangles
        for pa, pb, pc in sample_type3_triangles(rng, 3):
            _, r = build_type3_flat(pa, pb, pc, (pa + pb + pc) / 3.0)
            path = flex_path(r, drive=TYPE3_DRIVE)
            assert len(path.flat_events()) == 2
            self.assert_no_missed_crossing(path)

    def test_flatten(self, rng):
        """The flat solve returns the planar realization with the target
        lengths near its start, to rounding, and fails where none exists."""
        _, r = build_type3_flat(*EXAMPLE_T3)
        sys = _System(r, ("A", "B", "C"))
        x0 = r.flat_vector()
        start = x0 + rng.uniform(-1e-3, 1e-3, 18) * np.repeat([0, 0, 0, 1, 1, 1], 3)
        x, ok = sys.flatten(start, 1e-12, 50)
        assert ok
        assert np.max(np.abs(x - x0)) <= 1e-12 * sys.diam
        # all twelve edges equal: the regular octahedron has no flat realization
        reg = regular_octahedron()
        x, ok = _System(reg, ("A", "B", "C")).flatten(reg.flat_vector(), 1e-12, 50)
        assert not ok
        assert sys.counts["flat_probes"] == 1

    def test_type1_path_has_no_flat_event(self):
        """A type 1 path meets no flat configuration: no event and no flat
        solve."""
        path = flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(max_steps=100))
        self.assert_no_missed_crossing(path)
        assert path.flat_events() == []
        assert path.meta["corrector"]["flat_probes"] == 0


class TestFacetCrossings:
    def test_regular_empty(self):
        assert facet_crossings(regular_octahedron()) == []

    def test_type1_crossing(self):
        assert facet_crossings(build_type1(*EXAMPLE_T1))

    def test_edge_sharing_excluded(self):
        crossings = facet_crossings(build_type1(*EXAMPLE_T1))
        for f1, f2 in crossings:
            assert len(set(f1) & set(f2)) <= 1

    def test_events_along_path(self):
        r = build_type1(*EXAMPLE_T1)
        path = flex_path(r, drive=DriveSpec(max_steps=60, track_facet_crossings=True))
        # the crossing set is recomputed per frame without error
        assert path.frames


class TestCorrector:
    """The chord corrector against damped Gauss-Newton on one step."""

    H = 0.02
    TOL = 1e-12

    @pytest.fixture
    def step(self):
        r = build_type1(*EXAMPLE_T1)
        sys = _System(r, ("A", "B", "C"))
        x = r.flat_vector()
        null, pinv, _ = sys.null_space(x, 1e-7)
        tau = null[0]
        x_pred = x + self.H * sys.diam * tau
        return r, sys, x, tau, x_pred, np.column_stack([pinv, tau * sys.diam])

    def correct(self, sys, x, tau, x_pred, chord):
        return sys.correct(x_pred, x, tau, self.H, self.TOL, 25, chord)

    def test_failed_chord_reproduces_gauss_newton(self, step):
        r, sys, x, tau, x_pred, _ = step
        # the chord inverse of a point five steps along the path
        far = flex_path(r, drive=DriveSpec(max_steps=5)).points[-1]
        null, pinv, _ = sys.null_space(far.reshape(-1), 1e-7)
        chord = np.column_stack([pinv, null[0] * sys.diam])
        x_chord, ok_chord = self.correct(sys, x, tau, x_pred, chord)
        used = dict(sys.counts)
        assert used["chord_steps"] == 0
        assert used["gauss_newton_steps"] == 1
        x_gn, ok_gn = self.correct(sys, x, tau, x_pred, None)
        gn_evals = sys.counts["residual_evals"] - used["residual_evals"]
        # the chord moved off x_pred before it failed (initial residual, at
        # least one halving iteration, the failing one), so Gauss-Newton
        # restarting from its last iterate would end elsewhere
        assert used["residual_evals"] - gn_evals >= 3
        assert ok_chord and ok_gn
        assert np.array_equal(x_chord, x_gn)

    def test_chord_agrees_with_gauss_newton(self, step):
        _, sys, x, tau, x_pred, chord = step
        x_chord, ok = self.correct(sys, x, tau, x_pred, chord)
        assert ok
        assert sys.counts["chord_steps"] == 1
        assert sys.counts["gauss_newton_steps"] == 0
        x_gn, _ = self.correct(sys, x, tau, x_pred, None)
        assert np.max(np.abs(x_chord - x_gn)) <= 1e-10
        lens = edge_length_array(x_chord.reshape(6, 3))
        assert np.max(np.abs(lens ** 2 / sys.targets2 - 1.0)) < self.TOL

    def test_linalg_calls_per_frame(self, linalg_calls):
        path = flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(max_steps=100))
        frames = len(path.frames)
        assert frames == 101
        assert linalg_calls["lstsq"] <= 0.5 * frames
        # per frame one null-space SVD and one in coplanarity_measure, plus
        # the start's rank check and tangent
        assert linalg_calls["svd"] <= 2 * frames + 2

    def test_flat_search_lstsq_per_frame(self, linalg_calls):
        """A flat crossing costs one flat solve, not a search of corrector
        probes."""
        _, r = build_type3_flat(*EXAMPLE_T3)
        path = flex_path(r, drive=TYPE3_DRIVE)
        assert len(path.flat_events()) == 2
        assert path.meta["corrector"]["flat_probes"] == 1
        assert linalg_calls["lstsq"] <= 6 * len(path.frames)

    def test_counts_in_meta(self):
        path = flex_path(build_type1(*EXAMPLE_T1), drive=DriveSpec(max_steps=20))
        counts = path.meta["corrector"]
        assert set(counts) == {"chord_steps", "gauss_newton_steps", "residual_evals",
                               "flat_probes"}
        assert all(isinstance(v, int) for v in counts.values())
        assert counts["chord_steps"] + counts["gauss_newton_steps"] >= 20
        assert counts["flat_probes"] == 0
        assert counts["residual_evals"] > counts["chord_steps"]


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
        """A rank tolerance that counts a fourth direction as null leaves the
        flat start's tangent ambiguous."""
        _, r = build_type3_flat(*EXAMPLE_T3)
        with pytest.raises(BranchAmbiguity, match="dimension 4 at a flat start") as err:
            flex_path(r, drive=DriveSpec(rank_tol=4.4e-3))
        partial = err.value.partial
        assert_columns_filled(partial, 1)
        assert np.array_equal(partial.points[0], r.points)
        assert partial.flat[0] and partial.edge_deviation[0] == 0.0
        assert [(ev.kind, ev.frame_index) for ev in partial.events] == [("flat", 0)]

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
