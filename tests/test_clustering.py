import itertools
import logging
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    _assign_reference,
    _farthest_reference,
    cuts_reference,
    em_pixel_reference,
    histogram_tables_reference,
    kmeans_dp_objective,
    kmeans_pixel_lloyd,
    lloyd_reference,
    nearest_center_loop,
    segment_slice_reference,
)
from conftest import PHANTOM_REP_SLICES, make_slice

import tumorbox.clustering as cl
from tumorbox.clustering import (
    ClusterConfig,
    _exact_partition,
    _histogram,
    _lloyd,
    _starts,
    em_gmm_1d,
    hard_assign,
    kmeans_1d,
    segment_slice,
)
from tumorbox.errors import ValidationError
from tumorbox.volume import Slice, extract_slice


class TestKMeans:
    def test_perfectly_separated(self):
        res = kmeans_1d([0.0, 0.0, 10.0, 10.0], ClusterConfig(k=2))
        assert sorted(res.centroids.tolist()) == [0.0, 10.0]
        assert res.objective == 0.0

    def test_all_equal_is_degenerate(self):
        res = kmeans_1d([3.0, 3.0, 3.0], ClusterConfig(k=2))
        assert res.degenerate
        assert res.objective == 0.0
        assert np.all(res.centroids == 3.0)
        assert np.all(res.assignment == res.assignment[0])

    def test_matches_dp_optimum_on_seeded_instance(self):
        rng = np.random.default_rng(77)
        values = rng.random(12)
        res = kmeans_1d(values, ClusterConfig(k=3, n_restarts=10, seed=5))
        opt = kmeans_dp_objective(values, 3)
        assert res.objective <= opt * (1 + 1e-9) + 1e-12
        assert res.objective >= opt - 1e-9  # never beats the optimum

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=300)
        values = np.abs(values)
        res = kmeans_1d(values, ClusterConfig(k=4))
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_final_assignment_is_lloyd_fixpoint(self):
        rng = np.random.default_rng(13)
        values = rng.random(200)
        res = kmeans_1d(values, ClusterConfig(k=3))
        dist = np.abs(values[:, None] - res.centroids[None, :])
        again = np.argmin(dist, axis=1)
        assert np.array_equal(again, res.assignment)
        for j in range(3):
            members = values[res.assignment == j]
            assert members.size > 0
            assert res.centroids[j] == pytest.approx(members.mean(), abs=1e-12)

    def test_clusters_contiguous_in_sorted_order(self):
        rng = np.random.default_rng(14)
        values = rng.random(150)
        res = kmeans_1d(values, ClusterConfig(k=4))
        order = np.argsort(values, kind="stable")
        labels_sorted = res.assignment[order]
        # each cluster occupies one contiguous run
        changes = np.count_nonzero(np.diff(labels_sorted) != 0)
        assert changes == len(np.unique(labels_sorted)) - 1

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        values = rng.random(80)
        a = kmeans_1d(values, ClusterConfig(k=3, seed=9))
        b = kmeans_1d(values, ClusterConfig(k=3, seed=9))
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignment, b.assignment)

    def test_scaling_leaves_assignments_unchanged(self):
        rng = np.random.default_rng(16)
        values = rng.random(60)
        base = kmeans_1d(values, ClusterConfig(k=3, seed=4))
        for c in (3.0, 0.25):
            scaled = kmeans_1d(values * c, ClusterConfig(k=3, seed=4))
            assert np.array_equal(base.assignment, scaled.assignment)
            assert np.allclose(scaled.centroids, base.centroids * c, rtol=1e-12)

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            kmeans_1d([], ClusterConfig(k=2))

    def test_objective_does_not_depend_on_center_order(self):
        # Restarts often reach one partition under other center indices;
        # the objective must then be the same to the bit, so that the
        # first of them wins and not whichever rounded lowest.
        rng = np.random.default_rng(0)
        hist = _histogram(np.concatenate([rng.normal(0.5, 0.03, 8000), rng.normal(0.9, 0.03, 600)]))
        [(_, start)] = _starts(hist, ClusterConfig(n_restarts=1))
        finals = {_lloyd(hist, list(p), 200, {})[2][-1] for p in itertools.permutations(start.tolist())}
        assert len(finals) == 1


def assert_matches_pixel_lloyd(values, cfg):
    res = kmeans_1d(values, cfg)
    centroids, assign, objective, n_iter, best_restart, degenerate = kmeans_pixel_lloyd(
        values, cfg.k, cfg.seed, cfg.n_restarts, cfg.max_iter
    )
    assert np.array_equal(res.assignment, assign)
    assert (res.n_iter, res.best_restart, res.degenerate) == (n_iter, best_restart, degenerate)
    np.testing.assert_allclose(res.centroids, centroids, rtol=1e-12, atol=0)
    assert res.objective == pytest.approx(objective, rel=1e-12, abs=0)


def heavy_repeat_values(rng):
    """A wide background mode, a bright small mode and sparse outliers:
    about 80 distinct integers over 1720 pixels, so random starts often
    draw one value twice and the empty-cluster repair runs."""
    values = np.concatenate([
        rng.normal(60, 8, 1500).round(),
        rng.normal(110, 4, 200).round(),
        rng.integers(0, 160, 20),
    ])
    rng.shuffle(values)
    return values


class TestKMeansMatchesPixelLloyd:
    """Lloyd over weighted distinct values reproduces Lloyd over every pixel."""

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_integer_values_with_heavy_repeats(self, k):
        rng = np.random.default_rng(300 + k)
        for trial in range(8):
            assert_matches_pixel_lloyd(heavy_repeat_values(rng), ClusterConfig(k=k, seed=trial))

    @pytest.mark.parametrize("case", range(5))
    def test_enhanced_phantom_slices(self, case, phantom_cases, phantom_atlases):
        # Continuous values, ~90% distinct: the prefix sums run over the
        # most values here, so their rounding is largest.
        from tumorbox.preprocess import enhance_contrast, normalize

        _, vol, _ = phantom_cases[case]
        for n in PHANTOM_REP_SLICES:
            data = enhance_contrast(normalize(extract_slice(vol, n)), phantom_atlases[n]).data
            assert_matches_pixel_lloyd(data[data > 0], ClusterConfig())

    @pytest.mark.parametrize("k", [3, 5])
    def test_integer_grid_midpoints_need_no_exact_pass(self, k):
        # Integers on a [0, 1] scale, as a BraTS slice is after normalize:
        # data-point starts put midpoints on values, where the rounding of
        # |x - c| decides, or ties. Lloyd decides those values itself; the
        # exact pass runs only for near-equal centers or an empty cluster,
        # and the fit is still the per-pixel one.
        rng = np.random.default_rng(500 + k)
        reasons, real = [], cl._exact_partition

        def recorded(hist, centers):
            reasons.append(decline_reason(hist.distinct, centers))
            return real(hist, centers)

        with mock.patch.object(cl, "_exact_partition", recorded):
            for trial in range(8):
                assert_matches_pixel_lloyd(heavy_repeat_values(rng) / 160, ClusterConfig(k=k, seed=trial))
        assert None not in reasons

    def test_fewer_distinct_values_than_k(self):
        assert_matches_pixel_lloyd([4.0, 1.0, 4.0, 1.0, 9.0], ClusterConfig(k=5))

    def test_repair_after_duplicate_draws_picks_first_pixel_among_ties(self):
        # Almost every pixel is 5, so random starts draw 5 three times: two
        # clusters come up empty and the repair must choose between 10 and
        # 0, both at distance 5. Pixel order puts 10 first, value order 0.
        # Restarts 1-4 are the four random draws of seed 0.
        values = np.array([10.0, 0.0] + [5.0] * 98)
        cfg = ClusterConfig(k=3, seed=0, n_restarts=5)
        rng = np.random.default_rng(cfg.seed)
        drawn = [values[rng.choice(values.size, size=3, replace=False)] for _ in range(cfg.n_restarts - 1)]
        assert any(np.all(d == 5.0) for d in drawn)
        assert_matches_pixel_lloyd(values, cfg)


@st.composite
def values_and_centers(draw):
    """Sorted distinct values and unsorted centers built to hit the edges of
    the interval assignment: duplicate centers, centers one ulp apart, far
    centers of opposite sign, and values at or a few ulps from midpoints."""
    if draw(st.booleans()):
        base = st.integers(-40, 40).map(float)  # integer data with heavy repeats
    else:
        base = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    values = draw(st.lists(base, min_size=1, max_size=60))
    centers = []
    for _ in range(draw(st.integers(1, 7))):
        how = draw(st.sampled_from(("value", "free", "duplicate", "ulp", "mirror")))
        if centers and how == "duplicate":
            centers.append(draw(st.sampled_from(centers)))
        elif centers and how == "ulp":
            toward = draw(st.sampled_from((-np.inf, np.inf)))
            centers.append(float(np.nextafter(draw(st.sampled_from(centers)), toward)))
        elif centers and how == "mirror":
            # a midpoint near 0 between far centers: |x - c| rounds coarsely there
            centers.append(draw(st.sampled_from((0.0, 0.5, 1.0))) - draw(st.sampled_from(centers)))
        else:
            centers.append(draw(st.sampled_from(values) if how == "value" else base))
    for a, b in zip(centers, centers[1:]):
        mid = 0.5 * (a + b)
        ulps = draw(st.sampled_from(((), (0,), (-1, 1), (-3, -2, 2, 3))))
        values += [mid + u * np.spacing(mid) for u in ulps]
    return np.unique(values), np.array(centers)


def assert_runs(owners, bounds, size):
    """``(owners, bounds)`` are maximal runs covering all ``size`` values."""
    assert bounds[0] == 0 and bounds[-1] == size and len(bounds) == len(owners) + 1
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    assert all(i != j for i, j in zip(owners, owners[1:]))


class Declined(Exception):
    """Raised in place of ``_exact_partition``: the Lloyd iteration declined."""


def ordinary_partition(distinct, centers):
    """The partition one ordinary Lloyd iteration makes from ``centers``
    over the sorted distinct values, as ``(owners, bounds)``; ``None`` where
    the iteration declines to ``_exact_partition``."""

    def declined(hist, centers):
        raise Declined

    with mock.patch.object(cl, "_exact_partition", declined):
        try:
            return _lloyd(_histogram(distinct), list(centers), 1, {})[1]
        except Declined:
            return None


def decline_reason(distinct, centers):
    """Why an ordinary Lloyd iteration may hand ``centers`` to
    ``_exact_partition``: two sorted centers within the rounding window of
    each other, or a center that is nearest to no value. ``None`` when there
    is no such reason: a value at a midpoint is not one, even where its
    ``|x - c|`` ties exactly (see ``exact_tie``)."""
    ranked = sorted(centers)
    tol = 4.0 * math.ulp(max(-distinct[0], distinct[-1], -ranked[0], ranked[-1]))
    if any(hi - lo <= 2.0 * tol for lo, hi in zip(ranked, ranked[1:])):
        return "near-equal centers"
    if len(set(nearest_center_loop(distinct, centers))) < len(centers):
        return "empty cluster"
    return None


def exact_tie(distinct, centers):
    """Whether a value's ``|x - c|`` ties exactly between two neighbouring
    sorted centers, so that the center index decides it."""
    ranked = sorted(centers)
    return any(abs(x - lo) == abs(x - hi) for lo, hi in zip(ranked, ranked[1:]) for x in distinct)


def repaired_reference(hist, centers):
    """The oracle's repair loop: ``_assign_reference`` runs, and while a
    cluster is empty its lowest-index center moves onto
    ``_farthest_reference``. Returns the runs as ``(owners, bounds)``."""
    runs = _assign_reference(hist.xs, centers)
    while len(set(runs[0])) < len(centers):
        centers[min(set(range(len(centers))) - set(runs[0]))] = _farthest_reference(hist, centers, *runs)
        runs = _assign_reference(hist.xs, centers)
    return runs[0], [*runs[1], hist.distinct.size]


class TestIntervalAssignment:
    @settings(max_examples=400, deadline=None)
    @given(values_and_centers())
    def test_matches_brute_force_nearest_with_lower_index_ties(self, case):
        # Every value an ordinary iteration decides, midpoint values and
        # exact ties included, goes to its brute-force nearest center, a tie
        # to the lower index; it declines only for near-equal centers or an
        # empty cluster.
        distinct, centers = case
        runs = ordinary_partition(distinct, centers)
        if runs is None:
            assert decline_reason(distinct, centers.tolist()) is not None
        else:
            owners, bounds = runs
            assert owners == sorted(range(centers.size), key=centers.tolist().__getitem__)
            assert_runs(owners, bounds, distinct.size)
            assert np.repeat(owners, np.diff(bounds)).tolist() == nearest_center_loop(distinct, centers)

    @pytest.mark.parametrize("start, owners, bounds", [
        ([1.0, 3.0], [0, 1], [0, 3, 5]),  # 2 ties and goes to center 0, below it
        ([3.0, 1.0], [1, 0], [0, 2, 5]),  # 2 ties and goes to center 0, above it
    ])
    def test_exact_tie_goes_to_the_lower_center_index(self, start, owners, bounds):
        distinct = np.arange(5.0)
        assert exact_tie(distinct, start) and decline_reason(distinct, start) is None
        assert ordinary_partition(distinct, start) == (owners, bounds)

    def test_exact_pass_runs_only_for_near_equal_centers_or_empty_clusters(self):
        # Data-point starts on an integer grid often put a value exactly at
        # a midpoint. The first iteration from such a start decides the tie
        # itself: the exact pass runs only for the starts with a reason.
        rng = np.random.default_rng(700)
        calls, reasons, ties, real = [], [], 0, cl._exact_partition

        def counted(hist, centers):
            calls.append(decline_reason(hist.distinct, centers))
            return real(hist, centers)

        with mock.patch.object(cl, "_exact_partition", counted):
            for trial in range(8):
                hist = _histogram(heavy_repeat_values(rng) / 160)
                for _, start in _starts(hist, ClusterConfig(seed=trial, n_restarts=9)):
                    reasons.append(decline_reason(hist.distinct, start.tolist()))
                    ties += reasons[-1] is None and exact_tie(hist.distinct, start.tolist())
                    _lloyd(hist, start.tolist(), 1, {})
        assert ties > 0
        assert len(calls) == sum(reason is not None for reason in reasons) > 0
        assert set(calls) <= {"near-equal centers", "empty cluster"}

    @settings(max_examples=400, deadline=None)
    @given(values_and_centers())
    def test_exact_partition_matches_brute_force_nearest(self, case):
        distinct, centers = case
        assume(distinct.size >= centers.size)
        nearest = nearest_center_loop(distinct, centers)
        moved = centers.tolist()
        owners, bounds = _exact_partition(_histogram(distinct), moved)
        assert_runs(owners, bounds, distinct.size)
        assert set(owners) == set(range(centers.size))
        if len(set(nearest)) == centers.size:
            assert moved == centers.tolist()  # no repair
        assert np.repeat(owners, np.diff(bounds)).tolist() == nearest_center_loop(distinct, moved)

    @settings(max_examples=300, deadline=None)
    @given(values_and_centers(), st.integers(0, 2**32 - 1))
    def test_repair_matches_reference_loop(self, case, seed):
        # A duplicate center is never nearest (ties go to the lower index),
        # so a repair is forced; a center one ulp off another often is too.
        # Repeated values in shuffled pixel order make the pixel-order tie
        # rule differ from value order.
        distinct, centers = case
        c = float(centers[0])
        centers = [*centers.tolist(), c, float(np.nextafter(c, np.inf))]
        assume(distinct.size >= len(centers))
        rng = np.random.default_rng(seed)
        pixels = rng.permutation(np.repeat(distinct, rng.integers(1, 4, distinct.size)))
        hist = _histogram(pixels)
        expected = list(centers)
        runs = repaired_reference(hist, expected)
        moved = list(centers)
        assert _exact_partition(hist, moved) == runs
        assert np.array(moved).tobytes() == np.array(expected).tobytes()


def assert_lloyd_matches_reference(hist, starts, max_iter):
    """Every restart of ``_lloyd`` run alone equals ``lloyd_reference`` from
    the same start: centers and trace to the bit, runs and iterations. Run
    as ``kmeans_1d`` runs them, on one table of partitions, a restart either
    does the same or stops where it rejoins an earlier restart's path; the
    reference then converges within ``max_iter`` to the centers and
    objective of an earlier restart. Returns how many restarts stopped."""
    ends, finals, stopped = {}, [], 0
    for start in starts:
        centers, runs, trace, iters = lloyd_reference(hist, list(start), max_iter)
        alone = _lloyd(hist, list(start), max_iter, {})
        assert np.array(alone[0]).tobytes() == np.array(centers).tobytes()
        assert alone[1] == (runs[0], [*runs[1], hist.distinct.size])
        assert np.array(alone[2]).tobytes() == np.array(trace).tobytes()
        assert alone[3] == iters
        shared = _lloyd(hist, list(start), max_iter, ends)
        if shared is None:
            stopped += 1
            assert lloyd_reference(hist, list(start), max_iter + 1)[3] <= max_iter
            assert (sorted(centers), trace[-1]) in finals
        else:
            assert shared == alone
        finals.append((sorted(centers), trace[-1]))
    return stopped


class TestLloydMatchesReference:
    """The cut-list Lloyd loop reproduces the per-run loop it replaced,
    through the exact path, the empty-cluster repair and the rejoin rule."""

    @settings(max_examples=300, deadline=None)
    @given(values_and_centers(), st.integers(1, 30))
    def test_interval_edge_starts(self, case, max_iter):
        distinct, centers = case
        assume(distinct.size >= centers.size)
        # The reversed start reaches the same partitions under other center
        # indices, so it rejoins wherever the first run stayed ordinary.
        assert_lloyd_matches_reference(_histogram(distinct), [centers.tolist(), centers[::-1].tolist()], max_iter)

    @pytest.mark.parametrize("first", ["quantile-spread", "random-from-data"])
    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_integer_values_with_heavy_repeats(self, k, first):
        # The data of TestKMeansMatchesPixelLloyd: random starts draw one
        # value twice (the repair) and integer centers put midpoints on
        # values (the exact path). Eight starts: restarts 0-7, led by the
        # quantile spread, or the random restarts 1-8 alone, so that a
        # random start also builds the rejoin table first.
        rng = np.random.default_rng(300 + k)
        for trial in range(8):
            hist = _histogram(heavy_repeat_values(rng))
            cfg = ClusterConfig(k=k, seed=trial, n_restarts=9)
            starts = _starts(hist, cfg)
            starts = starts[:8] if first == "quantile-spread" else starts[1:]
            assert_lloyd_matches_reference(hist, [c.tolist() for _, c in starts], cfg.max_iter)

    def test_enhanced_phantom_slices_rejoin(self, phantom_cases, phantom_atlases):
        from tumorbox.preprocess import enhance_contrast, normalize

        stopped = 0
        for _, vol, _ in phantom_cases[:2]:
            for n in PHANTOM_REP_SLICES:
                data = enhance_contrast(normalize(extract_slice(vol, n)), phantom_atlases[n]).data
                hist = _histogram(data[data > 0])
                stopped += assert_lloyd_matches_reference(hist, [c.tolist() for _, c in _starts(hist, ClusterConfig())], 200)
        assert stopped > 0


class TestRejoin:
    @staticmethod
    def slices(phantom_cases, phantom_atlases):
        from tumorbox.preprocess import enhance_contrast, normalize

        data = enhance_contrast(normalize(extract_slice(phantom_cases[0][1], 32)), phantom_atlases[32]).data
        values = data[data > 0]
        # continuous values, and the integers a BraTS-style int16 slice holds
        return values, np.rint(values * 1000)

    def test_every_iteration_budget_matches_pixel_lloyd(self, phantom_cases, phantom_atlases):
        # A restart stops at a partition an earlier restart passed through
        # only if it would converge within max_iter. Budgets around the
        # restarts' lengths put that edge between the two restarts' paths:
        # the reference checks every stop, and the fit stays the per-pixel one.
        stopped = 0
        for values in self.slices(phantom_cases, phantom_atlases):
            hist = _histogram(values)
            for max_iter in range(1, 61):
                cfg = ClusterConfig(max_iter=max_iter)
                stopped += assert_lloyd_matches_reference(hist, [c.tolist() for _, c in _starts(hist, cfg)], max_iter)
                res = kmeans_1d(values, cfg)
                _, assign, _, n_iter, best_restart, _ = kmeans_pixel_lloyd(values, cfg.k, cfg.seed, cfg.n_restarts, max_iter)
                assert (res.n_iter, res.best_restart) == (n_iter, best_restart)
                assert np.array_equal(res.assignment, assign)
        assert stopped > 0

    @pytest.mark.parametrize("start, untied", [([1.0, 3.0], [1.0, 3.5]), ([3.0, 1.0], [3.0, 0.5])])
    def test_a_tie_decided_partition_stays_out_of_the_table(self, start, untied):
        # The first iteration decides the tie at 2 by center index, so its
        # partition depends on the indices; the second only confirms it.
        hist = _histogram(np.arange(5.0))
        ends = {}
        _, runs, _, iters = _lloyd(hist, list(start), 10, ends)
        assert (runs, iters) == (ordinary_partition(hist.distinct, start), 2)
        assert ends == {}
        # A start that makes the same partition without a tie enters it.
        assert not exact_tie(hist.distinct, untied)
        assert _lloyd(hist, list(untied), 10, ends)[1] == runs
        assert list(ends) == [tuple(runs[1])]

    def test_rejoined_restarts_run_fewer_iterations(self, phantom_cases, phantom_atlases, monkeypatch):
        # Each Lloyd iteration starts with one interval search from value 0.
        searches, real = [], cl.bisect_left

        def counted(xs, x, lo=0):
            searches.append(lo == 0)
            return real(xs, x, lo)

        values = self.slices(phantom_cases, phantom_atlases)[0]
        hist = _histogram(values)
        reference = [lloyd_reference(hist, c.tolist(), 200) for _, c in _starts(hist, ClusterConfig())]
        monkeypatch.setattr(cl, "bisect_left", counted)
        res = kmeans_1d(hist)
        assert 0 < sum(searches) < sum(fit[3] for fit in reference)
        assert res.objective == min(fit[2][-1] for fit in reference)


@st.composite
def pixels(draw):
    """1-200 pixel values: small integers with heavy repeats, or floats of
    either sign. No -0.0, which np.unique merges into 0.0."""
    if draw(st.booleans()):
        base = st.integers(-20, 20).map(float)
    else:
        base = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    return np.array(draw(st.lists(base, min_size=1, max_size=200))) + 0.0


class TestHistogramStarts:
    @settings(max_examples=400, deadline=None)
    @given(pixels(), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_starts_match_pixel_quantiles_and_draws_to_the_bit(self, values, k, seed):
        cfg = ClusterConfig(k=k, seed=seed, n_restarts=3)
        rng = np.random.default_rng(seed)
        want = [np.quantile(values, (2 * np.arange(1, k + 1) - 1) / (2 * k))]
        want += [values[rng.choice(values.size, size=k, replace=values.size < k)] for _ in range(2)]
        got = _starts(_histogram(values), cfg)
        assert [r for r, _ in got] == [0, 1, 2]
        assert [c.tobytes() for _, c in got] == [c.tobytes() for c in want]

class TestHistogramTables:
    """The histogram's tables are arrays read by index: each entry is the
    Python float or int, to the bit, of the lists they replaced, and one
    binary search per cut gives the cuts of the two-search version."""

    @settings(max_examples=400, deadline=None)
    @given(pixels())
    def test_tables_match_list_construction_to_the_bit(self, values):
        hist = _histogram(values)
        # repr tells 0 from 0.0 and -0.0 from 0.0, and round-trips floats exactly
        for got, want in zip((hist.xs, hist.cum_n, hist.cum_x, hist.cum_xx), histogram_tables_reference(values)):
            assert [repr(v) for v in got] == [repr(v) for v in want]

    @staticmethod
    def assert_matches_unique(values):
        hist = _histogram(values)
        distinct, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        assert hist.distinct.tobytes() == distinct.astype(np.float64).tobytes()
        assert hist.counts.dtype == counts.dtype and np.array_equal(hist.counts, counts)
        assert np.array_equal(hist.inverse, inverse.reshape(-1))
        return hist

    @settings(max_examples=400, deadline=None)
    @given(pixels())
    def test_one_sort_matches_unique(self, values):
        self.assert_matches_unique(values)

    @pytest.mark.parametrize("kind", ["random", "heavy-repeat", "single-value"])
    def test_one_sort_matches_unique_on_slices(self, kind):
        rng = np.random.default_rng(7)
        values = {
            "random": rng.random(5000),
            "heavy-repeat": heavy_repeat_values(rng) / 160,
            "single-value": np.full(300, 0.25),
        }[kind]
        hist = self.assert_matches_unique(values)
        for got, want in zip((hist.xs, hist.cum_n, hist.cum_x, hist.cum_xx), histogram_tables_reference(values)):
            assert [repr(v) for v in got] == [repr(v) for v in want]

    @settings(max_examples=400, deadline=None)
    @given(values_and_centers())
    def test_one_search_cuts_match_two_search_reference(self, case):
        # Where the two-search cuts decide, an ordinary iteration cuts the
        # same; where they decline for a midpoint value, it decides that
        # value by its brute-force nearest center, or declines too.
        distinct, centers = case
        want = cuts_reference(distinct.tolist(), sorted(centers.tolist()))
        runs = ordinary_partition(distinct, centers)
        if want is not None:
            assert runs is not None and runs[1] == want
        elif runs is not None:
            owners, bounds = runs
            assert np.repeat(owners, np.diff(bounds)).tolist() == nearest_center_loop(distinct, centers)


def seeded_mixture(k, seed):
    """Values of the ``seed``-th k-component mixture of
    ``TestEmMatchesReference.test_seeded_random_mixtures``."""
    rng = np.random.default_rng(400 + k)
    for _ in range(seed + 1):
        centers = rng.uniform(0.0, 1.0, k)
        values = np.concatenate([rng.normal(c, rng.uniform(0.01, 0.08), rng.integers(50, 400)) for c in centers])
        rng.shuffle(values)
    return values


class TestEmMatchesReference:
    """EM on the count-weighted (3, m) design of the distinct values
    reproduces the (n, k) per-pixel EM."""

    @staticmethod
    def assert_matches_reference(values, cfg):
        res = em_gmm_1d(values, cfg)
        km = kmeans_1d(values, cfg)
        ref = em_pixel_reference(values, cfg.k, cfg.seed, cfg.n_restarts, cfg.max_iter, cfg.tol,
                                 km.centroids, km.assignment)
        # Runs that converge to one optimum end within rounding of each
        # other; the earliest of them wins (run -1 is the warm start).
        best_ll = ref["trace"][-1]
        ref = next(r for r in ref["runs"] if abs(r["trace"][-1] - best_ll) <= 1e-12 * abs(best_ll))
        assert res.best_restart == ref["restart"]
        assert np.array_equal(hard_assign(res.posteriors), np.argmax(ref["posteriors"], axis=1) + 1)
        assert (res.n_iter, res.converged) == (ref["n_iter"], ref["converged"])
        for got, want in ((res.model.weights, ref["weights"]), (res.model.means, ref["means"]),
                          (res.model.variances, ref["variances"]), (res.log_likelihood_trace, ref["trace"])):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        np.testing.assert_allclose(res.posteriors, ref["posteriors"], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("case", [0, 1])
    def test_phantom_slices(self, case, phantom_cases, phantom_atlases):
        from tumorbox.preprocess import enhance_contrast, normalize

        _, vol, _ = phantom_cases[case]
        for n in PHANTOM_REP_SLICES:
            data = enhance_contrast(normalize(extract_slice(vol, n)), phantom_atlases[n]).data
            self.assert_matches_reference(data[data > 0], ClusterConfig())

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_seeded_random_mixtures(self, k):
        for seed in range(3):
            self.assert_matches_reference(seeded_mixture(k, seed), ClusterConfig(k=k, seed=seed, n_restarts=3))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_rounded_mixtures_with_heavy_repeats(self, k):
        # On a 1/200 grid a few hundred to a thousand pixels share under 150
        # values, so most values weigh several pixels and the counts matter.
        for seed in range(3):
            values = np.rint(seeded_mixture(k, seed) * 200) / 200
            assert np.unique(values).size * 3 < values.size
            self.assert_matches_reference(values, ClusterConfig(k=k, seed=seed, n_restarts=3))

    def test_phantom_slices_on_a_grid(self, phantom_cases, phantom_atlases):
        # Enhanced intensities rounded to 1/1000, the spacing of integer
        # data scaled to [0, 1]: about 200 values under 8,700 pixels.
        from tumorbox.preprocess import enhance_contrast, normalize

        _, vol, _ = phantom_cases[0]
        for n in PHANTOM_REP_SLICES:
            data = enhance_contrast(normalize(extract_slice(vol, n)), phantom_atlases[n]).data
            values = np.rint(data[data > 0] * 1000) / 1000
            assert np.unique(values).size * 20 < values.size
            self.assert_matches_reference(values, ClusterConfig())

    def test_runs_tied_at_one_optimum_go_to_the_earliest(self):
        # The warm start and all three restarts reach one optimum; their
        # final log-likelihoods differ only in the last digits (about 2e-14
        # relative), so the warm start wins, not whichever rounded highest.
        values = seeded_mixture(2, 1)
        cfg = ClusterConfig(k=2, seed=1, n_restarts=3)
        km = kmeans_1d(values, cfg)
        ref = em_pixel_reference(values, 2, 1, 3, cfg.max_iter, cfg.tol, km.centroids, km.assignment)
        lls = np.array([r["trace"][-1] for r in ref["runs"]])
        assert lls.max() - lls.min() <= 1e-12 * abs(lls.max()) and np.unique(lls).size > 1
        assert em_gmm_1d(values, cfg).best_restart == -1


class TestEm:
    def test_k1_closed_form(self):
        res = em_gmm_1d([1.0, 2.0, 3.0], ClusterConfig(k=1))
        assert res.model.means[0] == pytest.approx(2.0, abs=1e-12)
        assert res.model.variances[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.model.weights[0] == 1.0
        assert res.converged

    def test_recovers_separated_gaussians(self):
        rng = np.random.default_rng(100)
        a = rng.normal(0.2, 0.02, 200)
        b = rng.normal(0.8, 0.02, 200)
        values = np.concatenate([a, b])
        res = em_gmm_1d(values, ClusterConfig(k=2, seed=1))
        means = np.sort(res.model.means)
        assert means[0] == pytest.approx(a.mean(), abs=0.01)
        assert means[1] == pytest.approx(b.mean(), abs=0.01)

    def test_log_likelihood_trace_monotone(self):
        rng = np.random.default_rng(101)
        values = np.concatenate([rng.normal(0.3, 0.05, 150), rng.normal(0.7, 0.1, 80)])
        res = em_gmm_1d(values, ClusterConfig(k=3, seed=2))
        trace = np.asarray(res.log_likelihood_trace)
        assert np.all(np.diff(trace) >= -1e-9)

    def test_posterior_rows_sum_to_one(self):
        rng = np.random.default_rng(102)
        values = rng.random(500)
        res = em_gmm_1d(values, ClusterConfig(k=5, seed=3))
        sums = res.posteriors.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(103)
        values = rng.random(300)
        res = em_gmm_1d(values, ClusterConfig(k=4, seed=4))
        assert res.model.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(res.model.weights >= 0)
        assert np.all(res.model.variances >= 1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(104)
        values = rng.random(120)
        a = em_gmm_1d(values, ClusterConfig(k=3, seed=7))
        b = em_gmm_1d(values, ClusterConfig(k=3, seed=7))
        assert np.array_equal(a.posteriors, b.posteriors)
        assert a.model.log_likelihood == b.model.log_likelihood

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            em_gmm_1d([], ClusterConfig(k=2))

    def test_one_fit_builds_one_histogram(self, monkeypatch):
        # The K-means warm start and the restart starts read the fit's table.
        import tumorbox.clustering as cl

        built = []
        real = cl._histogram

        def counted(values):
            built.append(values)
            return real(values)

        monkeypatch.setattr(cl, "_histogram", counted)
        em_gmm_1d(seeded_mixture(3, 0), ClusterConfig(k=3))
        assert len(built) == 1


class TestHardAssign:
    def test_picks_argmax_one_based(self):
        assert hard_assign(np.array([[0.1, 0.9]])).tolist() == [2]

    def test_tie_breaks_low(self):
        assert hard_assign(np.array([[0.5, 0.5]])).tolist() == [1]

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(110)
        raw = rng.random((50, 4))
        posteriors = raw / raw.sum(axis=1, keepdims=True)
        got = hard_assign(posteriors)
        for i in range(posteriors.shape[0]):
            best, best_j = -1.0, -1
            for j in range(posteriors.shape[1]):
                if posteriors[i, j] > best:
                    best, best_j = posteriors[i, j], j
            assert got[i] == best_j + 1

    def test_rejects_unnormalised_rows(self):
        with pytest.raises(ValidationError):
            hard_assign(np.array([[0.2, 0.2]]))


class TestSegmentSlice:
    def test_five_distinct_values_get_ascending_classes(self):
        data = np.array([[0.1, 0.2, 0.3, 0.4, 0.5], [0.0, 0.0, 0.0, 0.0, 0.0]])
        for method in ("em", "kmeans"):
            lm = segment_slice(make_slice(data), method, ClusterConfig(k=5))
            assert lm.labels[1].tolist() == [0, 0, 0, 0, 0]
            assert lm.labels[0].tolist() == [1, 2, 3, 4, 5]

    def test_all_zero_slice_degenerate(self):
        lm = segment_slice(make_slice(np.zeros((4, 4))), "em")
        assert lm.degenerate
        assert np.all(lm.labels == 0)

    def test_label_zero_only_on_background(self):
        rng = np.random.default_rng(120)
        data = rng.random((16, 16))
        data[data < 0.3] = 0.0
        lm = segment_slice(make_slice(data), "kmeans", ClusterConfig(k=5))
        assert np.all((lm.labels == 0) == (data == 0))

    def test_class_means_ascend(self):
        rng = np.random.default_rng(121)
        data = rng.random((20, 20))
        data[data < 0.2] = 0.0
        for method in ("em", "kmeans"):
            lm = segment_slice(make_slice(data), method, ClusterConfig(k=5))
            means = []
            for lab in range(1, 6):
                members = data[lm.labels == lab]
                if members.size:
                    means.append(members.mean())
            assert np.all(np.diff(means) >= 0)

    def test_phantom_tumor_lands_in_class_five(self, phantom_cases, phantom_atlases):
        from tumorbox.preprocess import enhance_contrast, normalize

        spec, vol, gt = phantom_cases[0]
        n = 32
        enhanced = enhance_contrast(normalize(extract_slice(vol, n)), phantom_atlases[n])
        lm = segment_slice(enhanced, "em")
        gt_mask = extract_slice(gt, n).data != 0
        hit = (lm.labels == 5) & gt_mask
        assert hit.sum() >= 0.95 * gt_mask.sum()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            segment_slice(make_slice(np.ones((2, 2))), "ward")

    def test_em_hitting_max_iter_logs_warning_with_slice(self, caplog):
        # The fit reports the unconverged slice; the one warning per case
        # is evaluate.log_unconverged's, so segment_slice logs nothing.
        rng = np.random.default_rng(5)
        spread = rng.random((24, 24)) + 0.05
        modes = rng.normal(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], (24, 24)), 0.02)
        with caplog.at_level(logging.DEBUG):
            capped = segment_slice(make_slice(spread, index=7), "em", ClusterConfig(max_iter=2))
            assert capped.fit["converged"] is False
            assert segment_slice(make_slice(modes, index=7), "em").fit["converged"] is True
        assert caplog.records == []

    def test_em_labels_same_for_any_blas_thread_count(self, tmp_path):
        # The E- and M-steps are BLAS products; the label map must not
        # depend on how many threads BLAS uses (same results for every --jobs).
        script = (
            "import sys, numpy as np\n"
            "from tumorbox.clustering import segment_slice\n"
            "from tumorbox.phantom import PhantomSpec, generate_phantom\n"
            "from tumorbox.preprocess import normalize\n"
            "from tumorbox.volume import extract_slice\n"
            "spec = PhantomSpec(dims=(240, 240, 40), brain_center=(120.0, 120.0, 20.0),\n"
            "                   brain_radii=(93.6, 105.6, 19.0), tumor_center=(130.0, 112.0, 20.0),\n"
            "                   tumor_radius=12.0, seed=11)\n"
            "intensity, _ = generate_phantom(spec)\n"
            "np.save(sys.argv[1], segment_slice(normalize(extract_slice(intensity, 20)), 'em').labels)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", script, str(tmp_path / f"labels{threads}.npy")],
                           env=env, check=True, timeout=300)
        one, two = np.load(tmp_path / "labels1.npy"), np.load(tmp_path / "labels2.npy")
        assert one.shape == (240, 240) and set(np.unique(one)) == {0, 1, 2, 3, 4, 5}
        assert np.array_equal(one, two)


def brats_like(data):
    """A slice's intensities as BraTS stores them: int16, 1000 per unit."""
    return np.rint(data * 1000).astype(np.int16)


class TestSegmentSliceMatchesReference:
    """The value-space label map equals the per-pixel one it replaced:
    labels, fit and degenerate flag, to the bit."""

    @staticmethod
    def assert_matches(slc, method, cfg=None):
        cfg = cfg or ClusterConfig()
        lm = segment_slice(slc, method, cfg)
        labels, fit, degenerate = segment_slice_reference(slc, method, cfg)
        assert lm.labels.dtype == labels.dtype and np.array_equal(lm.labels, labels)
        assert (lm.fit, lm.degenerate) == (fit, degenerate)
        return lm

    @staticmethod
    def enhanced(vol, n, atlases, scale=None):
        from tumorbox.preprocess import enhance_contrast, normalize

        raw = extract_slice(vol, n)
        if scale is not None:
            raw = Slice(data=scale(raw.data), index=n)
        return enhance_contrast(normalize(raw), atlases[n])

    @pytest.mark.parametrize("method", ["em", "kmeans"])
    @pytest.mark.parametrize("case", [0, 1])
    def test_phantom_slices(self, method, case, phantom_cases, phantom_atlases):
        for n in PHANTOM_REP_SLICES:
            self.assert_matches(self.enhanced(phantom_cases[case][1], n, phantom_atlases), method)

    @pytest.mark.parametrize("method", ["em", "kmeans"])
    @pytest.mark.parametrize("case", [2, 3])
    def test_brats_like_int16_slices(self, method, case, phantom_cases, phantom_atlases):
        for n in PHANTOM_REP_SLICES:
            self.assert_matches(self.enhanced(phantom_cases[case][1], n, phantom_atlases, brats_like), method)

    @pytest.mark.parametrize("method", ["em", "kmeans"])
    def test_all_zero_slice(self, method):
        self.assert_matches(make_slice(np.zeros((6, 5))), method)

    @pytest.mark.parametrize("method", ["em", "kmeans"])
    def test_fewer_distinct_values_than_k(self, method):
        data = np.array([[0.2, 0.4, 0.2, 0.0], [0.4, 0.9, 0.0, 0.2]])
        lm = self.assert_matches(make_slice(data), method)
        assert lm.degenerate == (method == "kmeans")

    def test_em_one_ulp_rank_case(self):
        # The slice of TestExtractTumorMap::test_em_with_empty_brightest_class_falls_back_to_class4:
        # an empty component's model mean ranks one ulp above the tumour's.
        from conftest import make_phantom_spec
        from tumorbox.phantom import generate_phantom
        from tumorbox.preprocess import build_atlas, enhance_contrast, normalize

        cases = [generate_phantom(make_phantom_spec(i, base_seed=3015)) for i in range(10)]
        atlas = build_atlas([extract_slice(gt, 30) for _, gt in cases])
        slc = enhance_contrast(normalize(extract_slice(cases[1][0], 30)), atlas)
        lm = self.assert_matches(slc, "em")
        assert not np.any(lm.labels == 5)

    def test_kmeans_classes_meeting_inside_rounding_bound_rank_by_pixel_means(self, monkeypatch):
        # Two classes cut between values one ulp apart. The mean of 31
        # pixels at 0.3 rounds to 0.3000000000000001, above the other
        # class's 0.30000000000000004, so the lower run ranks second.
        import tumorbox.clustering as cl

        calls, real = [], cl._rank_by_mean
        monkeypatch.setattr(cl, "_rank_by_mean", lambda *args: calls.append(1) or real(*args))
        low = 0.3
        high = float(np.nextafter(low, 1.0))
        data = np.array([[low] * 31 + [high] * 24 + [0.0]])
        lm = self.assert_matches(make_slice(data), "kmeans", ClusterConfig(k=2))
        assert calls and not lm.degenerate
        assert lm.labels[0].tolist() == [2] * 31 + [1] * 24 + [0]

    def test_kmeans_interval_ranking_skips_pixel_means(self, phantom_cases, phantom_atlases, monkeypatch):
        import tumorbox.clustering as cl

        calls, real = [], cl._rank_by_mean
        monkeypatch.setattr(cl, "_rank_by_mean", lambda *args: calls.append(1) or real(*args))
        self.assert_matches(self.enhanced(phantom_cases[0][1], 32, phantom_atlases, brats_like), "kmeans")
        assert not calls


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ClusterConfig(k=0)
        with pytest.raises(ValidationError):
            ClusterConfig(tol=0.0)
        with pytest.raises(ValidationError):
            ClusterConfig(n_restarts=0)
