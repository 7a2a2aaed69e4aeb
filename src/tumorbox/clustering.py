"""1-D intensity clustering: Lloyd K-means and Gaussian-mixture EM.

Each fit starts from one histogram of its pixels, built from one sort: the
sorted distinct values, their counts and prefix sums of count,
(x - mean)*count and (x - mean)^2*count, shared by all restarts and, for
EM, by the K-means warm start; its tables are arrays that Lloyd and the
starts read by index. Restart starts are read off it (quantile spread from
the cumulative counts, random starts as drawn pixels). K-means runs on it:
1-D nearest-center cells are intervals, so a
Lloyd step is k - 1 binary-search cuts and its partition is one state,
``(owners, bounds)``: the center of each interval in value order and the
k + 1 cut positions. Each cluster's size, mean and sum of squares are
prefix-sum differences, O(k log m) per iteration for m distinct values.
A value a few ulps from a midpoint is decided by the exact ``|x - c|``
comparison, and an exact tie there by the lower center index. From a
partition, an ordinary step depends on its bounds alone, so a restart that
reaches bounds an earlier restart of the fit passed through, and from which
that restart converged on the ordinary path alone, stops there: it would
end with the same objective and lose the tie. Where two centers (nearly)
coincide or an interval is empty, one exact numpy pass decides every value
and repairs empty clusters. EM fits a
Gaussian mixture to the distinct values weighted by their counts (exact
grouped-data EM): posteriors are (k, m), and each step is one small matrix
product on the design [1, x, x^2].

Both fitters end in value space, with one class per distinct value; the
per-pixel ``assignment`` and ``posteriors`` are built only when read.
``segment_slice`` turns the value classes into a label map whose classes
are ranked by mean intensity, so for k=5 the brightest class is label 5:
each pixel finds its run of equal-class values by comparison with the
run-start values, and one table gives its label.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .volume import Slice

DEFAULT_SEED = 2015

METHOD_EM = "em"
METHOD_KMEANS = "kmeans"

# Lower bound on mixture variances (normalised-intensity units squared, so
# fits expect [0, 1] values); keeps components from collapsing onto repeated
# values.
VARIANCE_FLOOR = 1e-6

# EM restarts whose final log-likelihoods differ by no more than this,
# relative, reached one optimum; the earlier run wins, not rounding noise.
LL_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class ClusterConfig:
    k: int = 5
    max_iter: int = 200
    tol: float = 1e-6  # relative log-likelihood change for EM convergence
    seed: int = DEFAULT_SEED
    n_restarts: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol <= 0:
            raise ValidationError(f"tol must be > 0, got {self.tol}")
        if self.n_restarts < 1:
            raise ValidationError(f"n_restarts must be >= 1, got {self.n_restarts}")


@dataclass(frozen=True)
class GmmModel:
    """Fitted 1-D Gaussian mixture. Components are in fit order, not sorted."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Per-pixel class labels in {0} | {1..k}; 0 marks excluded background.

    Classes are ranked by mean intensity of their pixels, ascending, so for
    k=5 the brightest class carries label 5. ``fit`` summarises the fit that
    produced the labels (scalars and short lists, ``None`` when no pixel
    was clustered). ``brain_pixels`` is the count of labels > 0.
    """

    labels: np.ndarray
    k: int
    brain_pixels: int
    slice_index: int = 0
    degenerate: bool = False
    fit: dict | None = None


class _Histogram(NamedTuple):
    """One fit's pixels as sorted distinct values with prefix sums, so any
    run of values has its pixel count, sum and sum of squares in O(1).

    The sums are of ``x - shift``, with ``shift`` the pixel mean: the sum of
    squares of a tight cluster is then a difference of small numbers, not of
    two large ones that cancel. ``xs`` and the prefix sums are memoryviews
    of arrays: a fit reads only a few of their m entries per iteration, and
    each index gives a Python float or int without one being built per value.
    """

    distinct: np.ndarray  # sorted distinct values
    counts: np.ndarray  # pixels per distinct value
    pixels: np.ndarray  # the values as float64, in pixel order
    xs: memoryview  # distinct, indexed as Python floats
    shift: float
    cum_n: memoryview  # cum_n[j]: pixels below distinct[j]; length m + 1
    cum_x: memoryview  # same for (x - shift) * count
    cum_xx: memoryview  # same for (x - shift)^2 * count

    @property
    def inverse(self) -> np.ndarray:
        """Index into ``distinct`` of each pixel; built on access, as no fit
        needs it."""
        return np.searchsorted(self.distinct, self.pixels)


def _prefix_sums(terms: np.ndarray) -> memoryview:
    """``[0, terms[0], terms[0] + terms[1], ...]`` in ``terms``' dtype."""
    sums = np.zeros(terms.size + 1, dtype=terms.dtype)
    np.cumsum(terms, out=sums[1:])
    return memoryview(sums)


def _histogram(values) -> _Histogram:
    """The histogram of ``values`` from one sort: the distinct values and
    counts are those of ``np.unique(values, return_counts=True)``."""
    pixels = np.asarray(values, dtype=np.float64).reshape(-1)
    if pixels.size == 0:
        raise ValidationError("clustering needs at least one value")
    ordered = np.sort(pixels)
    first = np.empty(ordered.size, dtype=bool)  # first of its value in ``ordered``
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    firsts = np.flatnonzero(first)
    distinct = ordered[firsts]
    counts = np.diff(firsts, append=ordered.size)
    shift = float(distinct @ counts / pixels.size)
    centered = distinct - shift
    mass = centered * counts
    return _Histogram(
        distinct,
        counts,
        pixels,
        memoryview(distinct),
        shift,
        _prefix_sums(counts),
        _prefix_sums(mass),
        _prefix_sums(mass * centered),
    )


@dataclass
class KMeansResult:
    """A K-means fit. ``classes`` holds the cluster of each distinct value of
    ``hist``; ``assignment``, the cluster of each pixel, is built when read."""

    centroids: np.ndarray
    classes: np.ndarray
    hist: _Histogram = field(repr=False)
    objective: float = 0.0
    objective_trace: list[float] = field(default_factory=list)
    n_iter: int = 0
    degenerate: bool = False
    best_restart: int = 0

    @property
    def assignment(self) -> np.ndarray:
        return self.classes[self.hist.inverse]


@dataclass
class EmResult:
    """An EM fit. ``value_posteriors`` is (k, m), a column per distinct value
    of ``hist``, and ``classes`` its argmax per value (see ``hard_assign``);
    ``posteriors``, the (n, k) rows of the pixels, is built when read."""

    model: GmmModel
    value_posteriors: np.ndarray
    classes: np.ndarray
    hist: _Histogram = field(repr=False)
    log_likelihood_trace: list[float] = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False
    best_restart: int = 0

    @property
    def posteriors(self) -> np.ndarray:
        return self.value_posteriors.T[self.hist.inverse]


def _quantile_spread(hist: _Histogram, k: int) -> list[float]:
    """``np.quantile(pixels, (2i - 1) / 2k)`` for i = 1..k, to the bit: the
    same index arithmetic and two-sided lerp, with the order statistics
    read off the cumulative counts instead of a partition of the pixels."""
    xs, cum = hist.xs, hist.cum_n
    n = cum[-1]
    centers = []
    for i in range(1, k + 1):
        pos = (n - 1) * ((2 * i - 1) / (2 * k))
        low = math.floor(pos)
        t = pos - low
        a = xs[bisect_right(cum, low) - 1]
        b = xs[bisect_right(cum, min(low + 1, n - 1)) - 1]
        centers.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return centers


def _starts(hist: _Histogram, cfg: ClusterConfig) -> list[tuple[int, np.ndarray]]:
    """(restart, initial centers) of every restart, drawn from the pixels.

    Restart 0 is the quantile spread: centers at the (2i-1)/(2k) quantiles,
    deterministic and well spread for the unimodal-plus-bump histograms MR
    slices produce. Later restarts draw random pixels from one RNG stream
    seeded per fit.
    """
    pixels = hist.pixels
    n = pixels.size
    rng = np.random.default_rng(cfg.seed)
    starts = [np.array(_quantile_spread(hist, cfg.k))]
    for _ in range(1, cfg.n_restarts):
        starts.append(pixels[rng.choice(n, size=cfg.k, replace=n < cfg.k)])
    return list(enumerate(starts))


def _exact_partition(hist: _Histogram, centers: list) -> tuple[list, list]:
    """The partition an ordinary Lloyd iteration declines, as the same
    ``(owners, bounds)`` runs in value order (a center may own several runs
    here).

    Every distinct value goes to ``argmin(|x - c|)``, ties to the lower
    center index. While a cluster is empty, the lowest-index empty center
    moves onto the value farthest from its assigned center (among ties, the
    one that occurs first in pixel order) and every value is reassigned;
    ``centers`` is updated in place.
    """
    distinct, k = hist.distinct, len(centers)
    while True:
        at = np.array(centers)
        labels = np.argmin(np.abs(distinct[:, None] - at), axis=1)
        empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if not empty.size:
            break
        gap = np.abs(distinct - at[labels])
        tied = distinct[gap == gap.max()]
        far = tied[0] if tied.size == 1 else hist.pixels[np.isin(hist.pixels, tied).argmax()]
        centers[empty[0]] = float(far)
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    return labels[starts].tolist(), [*starts.tolist(), distinct.size]


def _lloyd(hist: _Histogram, centers: list[float], max_iter: int, ends: dict):
    """One Lloyd run over the histogram from the given centers. Returns
    (centroids, final partition, objective trace, iters), the partition as
    ``(owners, bounds)``: the center of each run in value order and the run
    bounds, k runs and k + 1 bounds on an ordinary iteration.

    There are two paths. An ordinary iteration is one pass over the centers
    in value order: 1-D nearest-center cells are the intervals between
    midpoints, so each cut is one binary search, started at the cut before
    it, and the prefix sums at the cut give the interval's new center and
    objective term, summed in value order. The new centers are the interval
    means, so they keep that order; it is sorted afresh only after the
    other path. A value within a few ulps of a midpoint, where rounding of
    ``|x - c|`` decides, goes by that exact comparison, as in
    ``_exact_partition``. Where it ties, the tied values go to the lower
    center index; such an iteration depends on the indices, so it ends as
    the other path does. The iteration declines where two centers are
    equal, out of order or a few ulps apart, or where an interval is empty;
    ``_exact_partition`` then decides every value and repairs empty
    clusters. On the other path the per-run bookkeeping sums the runs.

    ``ends`` maps the bounds of partitions that earlier runs of the fit
    passed through to the iterations they had left to converge, counting
    only partitions that an ordinary iteration without a tie made and after
    which every iteration was such. From such a partition the next one
    depends on the bounds alone, not on which center index owns which
    interval, so a run that reaches one repeats the earlier path to the
    same objective and would lose the strict ``<`` to the earlier run: it
    returns ``None`` there, if it would converge within ``max_iter``. A run
    that converges or rejoins adds its own partitions to ``ends``.
    """
    k = len(centers)
    xs, shift, m = hist.xs, hist.shift, len(hist.xs)
    cum_n, cum_x, cum_xx = hist.cum_n, hist.cum_x, hist.cum_xx
    extent = max(-xs[0], xs[-1])
    search, ulp, inf = bisect_left, math.ulp, math.inf
    prev = None
    trace: list[float] = []
    path = []  # bounds of each iteration's partition
    rare = 0  # the last iteration off the ordinary path
    end = None  # the iteration the run converges at
    owners = sorted(range(k), key=centers.__getitem__)
    nexts = [*owners[1:], k]  # the center of the next interval, k past the last
    ranked = [centers[j] for j in owners]
    for iterations in range(1, max_iter + 1):
        tol = 4.0 * ulp(max(extent, -ranked[0], ranked[-1]))
        bounds, moved, terms, following = [0], [0.0] * k, [], []
        a, n_a, x_a, xx_a = 0, 0, 0.0, 0.0
        # The last interval ends at an infinite midpoint, so its cut is m.
        for j, nxt, lo, hi in zip(owners, nexts, ranked, [*ranked[1:], inf]):
            if hi - lo <= 2.0 * tol:
                break
            mid = 0.5 * (lo + hi)
            b = search(xs, mid - tol, a)
            if b < m and xs[b] <= mid + tol:
                # Values within tol of the midpoint go by the exact
                # comparison, which is monotone in x: first those strictly
                # nearer lo, then those tied, then those nearer hi. The tied
                # ones go to the lower center index, so this iteration
                # depends on the indices and is off the ordinary path.
                edge, x = mid + tol, xs[b]
                while abs(x - lo) < abs(x - hi):
                    b += 1
                    if b == m or (x := xs[b]) > edge:
                        break
                else:
                    if abs(x - lo) == abs(x - hi):
                        rare = iterations
                        while j < nxt and abs(x - lo) == abs(x - hi):
                            b += 1
                            if b == m or (x := xs[b]) > edge:
                                break
            if b <= a:
                break
            n_b, x_b, xx_b = cum_n[b], cum_x[b], cum_xx[b]
            s1 = x_b - x_a
            mean = s1 / (n_b - n_a)  # of x - shift
            moved[j] = center = shift + mean
            following.append(center)
            terms.append(xx_b - xx_a - s1 * mean)
            bounds.append(b)
            a, n_a, x_a, xx_a = b, n_b, x_b, xx_b
        if len(bounds) <= k:  # an interval declined
            rare = iterations
            owners, bounds = _exact_partition(hist, centers)
        if (owners, bounds) == prev:
            end = iterations
            break
        key = tuple(bounds)
        # An unknown partition counts max_iter iterations left: never in budget.
        if iterations + ends.get(key, max_iter) <= max_iter:
            end = iterations + ends[key]
            break
        path.append(key)
        prev = owners, bounds
        if rare == iterations:
            size, s1, s2 = [0] * k, [0.0] * k, [0.0] * k
            for j, a, b in zip(owners, bounds, bounds[1:]):
                size[j] += cum_n[b] - cum_n[a]
                s1[j] += cum_x[b] - cum_x[a]
                s2[j] += cum_xx[b] - cum_xx[a]
            means = [s / n for s, n in zip(s1, size)]  # of x - shift
            centers = [shift + c for c in means]
            trace.append(sum(s2[j] - s1[j] * means[j] for j in dict.fromkeys(owners)))
            owners = sorted(range(k), key=centers.__getitem__)
            nexts = [*owners[1:], k]
            ranked = [centers[j] for j in owners]
            continue
        centers, ranked = moved, following
        # Summed in value order, so restarts that reach one partition under
        # other center indices get the same objective and the first keeps it.
        trace.append(sum(terms))
    if end is not None:
        for t in range(rare + 1, len(path) + 1):
            ends.setdefault(path[t - 1], end - t)
        if end > iterations:
            return None  # rejoined an earlier run's path
    return centers, prev, trace, iterations


def kmeans_1d(values, cfg: ClusterConfig | None = None) -> KMeansResult:
    """Best-of-restarts Lloyd K-means on 1-D data.

    Restart 0 starts from the quantile spread, and further restarts draw
    random data points (see ``_starts``). Starts are read off the histogram
    exactly as if drawn from the pixels; Lloyd then runs on the distinct
    values weighted by their counts, which gives the per-pixel result at a
    cost per iteration that grows with the log of the number of distinct
    values. A restart that rejoins an earlier restart's path stops
    there (see ``_lloyd``); the earlier one keeps the win. With fewer
    distinct values than k the distinct values become centroids, the
    remainder are duplicates, and the result is flagged degenerate.
    The result holds the cluster of each distinct value, the final runs
    (see ``KMeansResult``). ``values`` may also be a ready ``_Histogram``.
    Values are expected on the pipeline's normalised [0, 1] scale, as
    ``em_gmm_1d`` needs them.
    """
    cfg = cfg or ClusterConfig()
    hist = values if isinstance(values, _Histogram) else _histogram(values)
    distinct = hist.distinct
    if distinct.size < cfg.k:
        centroids = np.concatenate(
            [distinct, np.full(cfg.k - distinct.size, distinct[-1])]
        )
        return KMeansResult(
            centroids=centroids,
            classes=np.arange(distinct.size),  # value i sits on centroid i; duplicates lose ties
            hist=hist,
            objective=0.0,
            objective_trace=[0.0],
            n_iter=0,
            degenerate=True,
        )

    best = None
    ends: dict = {}
    for restart, centers0 in _starts(hist, cfg):
        fit = _lloyd(hist, centers0.tolist(), cfg.max_iter, ends)
        if fit is not None and (best is None or fit[2][-1] < best[3][-1]):
            best = restart, *fit
    restart, centroids, (owners, bounds), trace, iterations = best
    return KMeansResult(
        centroids=np.array(centroids),
        classes=np.repeat(owners, np.diff(bounds)),
        hist=hist,
        objective=trace[-1],
        objective_trace=trace,
        n_iter=iterations,
        degenerate=False,
        best_restart=restart,
    )


def _em_run(design: np.ndarray, counts: np.ndarray, weights0, means0, variances0, max_iter: int, tol: float):
    """One EM run on the (3, m) design [1, x, x^2] of the distinct values,
    each weighted by its pixel count, from the given start; posteriors are
    (k, m). The start arrays are only read, so runs may share them."""
    n = counts.sum()
    weighted = design * counts
    weights, means = weights0, means0
    variances = np.maximum(variances0, VARIANCE_FLOOR)

    trace: list[float] = []
    for it in range(max_iter + 1):
        # E-step: row j of ``coef @ design`` is log(w_j * N(x | mu_j, var_j));
        # with components along rows the per-value max and sum are k
        # elementwise passes.
        inv2 = -0.5 / variances
        const = means * means * inv2 - 0.5 * np.log(2.0 * np.pi * variances) + np.log(weights)
        posteriors = np.column_stack((const, -2.0 * means * inv2, inv2)) @ design
        top = posteriors.max(axis=0)
        posteriors -= top
        np.exp(posteriors, out=posteriors)
        denom = posteriors.sum(axis=0)
        posteriors /= denom
        ll = float(counts @ (top + np.log(denom)))
        prev = trace[-1] if trace else -np.inf
        trace.append(ll)
        # After max_iter M-steps the last E-step only syncs the posteriors
        # with the final parameters; it does not count as convergence.
        converged = it < max_iter and np.isfinite(prev) and abs(ll - prev) <= tol * max(1.0, abs(prev))
        if converged or it == max_iter:
            break
        # M-step: per-component weighted sums of r, r*x and r*x^2 in one product.
        resp_sums, first, second = (posteriors @ weighted.T).T
        safe = np.maximum(resp_sums, 1e-12)
        weights = resp_sums / n
        new_means = first / safe
        new_vars = second / safe - new_means * new_means
        means = np.where(resp_sums > 1e-12, new_means, means)
        variances = np.where(resp_sums > 1e-12, new_vars, variances)
        variances = np.maximum(variances, VARIANCE_FLOOR)

    model = GmmModel(weights=weights, means=means, variances=variances, log_likelihood=ll)
    return model, posteriors, trace, bool(converged)


def em_gmm_1d(values, cfg: ClusterConfig | None = None) -> EmResult:
    """Fit a k-component 1-D Gaussian mixture by EM, best restart wins.

    Runs whose final log-likelihoods agree within ``LL_TIE_RTOL`` are tied
    and the earlier one wins: the K-means warm start (restart -1), then
    restarts 0, 1, ... The log-likelihood is non-decreasing over iterations
    (up to the variance floor, which binds when a component collapses onto
    one repeated value, such as enhanced intensities clipped at 1.0);
    posterior rows always sum to one. Every k, k=1 included, goes
    through the same runs, all on one histogram of the values: EM over the
    distinct values weighted by their counts is EM over the pixels.
    ``values`` may also be a ready ``_Histogram``.

    Values are expected on the pipeline's normalised [0, 1] scale:
    ``VARIANCE_FLOOR`` is in those units, and the E-step expands
    log N(x | mu, var) into const + b*x + a*x^2, which cancels badly for a
    floored component at large |x|. On raw intensities (|x| near 1000) such
    a component loses about 1e-4 of log-density per pixel to rounding.
    """
    cfg = cfg or ClusterConfig()
    hist = values if isinstance(values, _Histogram) else _histogram(values)
    distinct, counts = hist.distinct, hist.counts
    n = hist.cum_n[-1]

    # Warm start from the K-means partition under the same config. Quantile
    # or random means routinely merge a small far-out intensity mode (e.g. a
    # bright tumor class) into a wide component and EM cannot split it
    # afterwards; seeding means, weights and variances per K-means cluster
    # avoids that local optimum. Counted as restart -1; best likelihood
    # still decides.
    km = kmeans_1d(hist, cfg)
    assign = km.classes
    safe = np.maximum(np.bincount(assign, weights=counts, minlength=cfg.k), 1.0)
    km_weights = safe / n
    km_vars = np.bincount(assign, weights=counts * (distinct - km.centroids[assign]) ** 2, minlength=cfg.k) / safe
    flat = np.full(cfg.k, 1.0 / cfg.k)
    spread = np.full(cfg.k, hist.cum_xx[-1] / n)
    starts = [(-1, km_weights / km_weights.sum(), km.centroids, km_vars)]
    starts += [(restart, flat, means0, spread) for restart, means0 in _starts(hist, cfg)]

    design = np.stack((np.ones_like(distinct), distinct, distinct * distinct))
    best = None
    for restart, weights0, means0, variances0 in starts:
        run = _em_run(design, counts, weights0, means0, variances0, cfg.max_iter, cfg.tol)
        ll = run[0].log_likelihood
        if best is None or ll - best[1].log_likelihood > LL_TIE_RTOL * abs(best[1].log_likelihood):
            best = restart, *run
    restart, model, posteriors, trace, converged = best
    return EmResult(
        model=model,
        value_posteriors=posteriors,
        classes=hard_assign(posteriors.T) - 1,
        hist=hist,
        log_likelihood_trace=trace,
        n_iter=len(trace),
        converged=converged,
        best_restart=restart,
    )


def hard_assign(posteriors) -> np.ndarray:
    """Map posterior rows to 1-based component labels by argmax.

    Ties break toward the lower component index.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 2:
        raise ValidationError("posteriors must be a 2-D array")
    sums = posteriors.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValidationError("posterior rows must sum to 1")
    return np.argmax(posteriors, axis=1) + 1


def _rank_by_mean(raw_labels: np.ndarray, values: np.ndarray, k: int, fallback_means: np.ndarray) -> np.ndarray:
    """Relabel clusters 1..k so empirical mean intensity ascends with label.

    Empty clusters are placed by the model/centroid mean, which cannot break
    the ordering invariant since they have no pixels. One stable sort by
    label lines each class's pixels up in pixel order, so each mean is the
    one ``np.mean`` gives on that class's pixels, to the bit: means that tie
    within rounding (an EM component duplicated by an empty one) keep their
    order.
    """
    by_label = np.argsort(raw_labels.astype(np.min_scalar_type(k)), kind="stable")
    ends = np.cumsum(np.bincount(raw_labels, minlength=k))
    keys = fallback_means.astype(np.float64).copy()
    for j, members in enumerate(np.split(values[by_label], ends[:-1])):
        if members.size:
            keys[j] = members.mean()
    order = np.argsort(keys, kind="stable")
    rank = np.empty(k, dtype=np.int32)
    rank[order] = np.arange(1, k + 1)
    return rank


def _ranked_by_interval(hist: _Histogram, firsts: np.ndarray, k: int, dtype) -> bool:
    """Whether K-means classes whose runs start at value indices ``firsts``
    are ranked by ``_rank_by_mean`` in run order, whatever the rounding of
    the per-pixel means in ``np.mean``'s result type for ``dtype``.

    K-means never leaves a class empty, so k runs are one run per class.
    Each run's values then lie below the next run's, and where the gap
    between the two neighbouring values at every cut exceeds the largest
    rounding of two neighbouring class means, 2 * n * u * max|x| for n
    pixels and unit roundoff u, the computed means ascend in run order too.
    """
    if firsts.size != k:
        return False
    xs = hist.distinct
    bound = hist.cum_n[-1] * np.finfo(np.result_type(dtype, 1.0)).eps * max(abs(xs[0]), abs(xs[-1]))
    return bool(np.all(xs[firsts[1:]] - xs[firsts[1:] - 1] > bound))


def _run_index(data: np.ndarray, brain: np.ndarray, run_starts: list) -> np.ndarray:
    """For each pixel, how many of the ascending ``run_starts`` it reaches:
    i + 1 for a pixel in run i, 0 for one outside ``brain``. The first run
    starts at the smallest brain value, so the brain mask is the pixels
    that reach it."""
    index = brain.astype(np.min_scalar_type(len(run_starts)))
    reached = np.empty(data.shape, dtype=bool)
    for start in run_starts[1:]:
        index += np.greater_equal(data, start, out=reached).view(np.uint8)
    return index


def segment_slice(
    slc: Slice,
    method: str = METHOD_EM,
    cfg: ClusterConfig | None = None,
) -> LabelMap:
    """Cluster a slice's brain, its pixels > 0, into k classes ranked by
    brightness.

    The zero background is left out (label 0), so it cannot take one of the
    k classes. An all-zero slice yields an all-zero map flagged degenerate.
    Intensities are expected on the pipeline's normalised [0, 1] scale (see
    ``em_gmm_1d``).

    The fit gives each distinct value a class; in value order the classes form
    runs, and each pixel is placed in its run by comparison with the
    run-start values (pixels left out lie below them all). K-means classes
    that are k runs with a clear gap at every cut rank in run order, which
    is the per-pixel mean order (see ``_ranked_by_interval``); other fits
    are ranked by those means.
    """
    cfg = cfg or ClusterConfig()
    if method not in (METHOD_EM, METHOD_KMEANS):
        raise ValidationError(f"unknown segmentation method: {method!r}")

    data = slc.data
    mask = data > 0
    values = data[mask]
    if values.size == 0:
        labels = np.zeros(data.shape, dtype=np.int32)
        return LabelMap(labels=labels, k=cfg.k, slice_index=slc.index, degenerate=True, brain_pixels=0)
    hist = _histogram(values)

    if method == METHOD_KMEANS:
        result = kmeans_1d(hist, cfg)
        fallback_means = result.centroids
        degenerate = result.degenerate
        fit = {
            "centroids": result.centroids.tolist(),
            "objective": result.objective,
            "objective_trace": result.objective_trace,
            "n_iter": result.n_iter,
            "degenerate": result.degenerate,
        }
    else:
        result = em_gmm_1d(hist, cfg)
        fallback_means = result.model.means
        degenerate = False
        model = result.model
        fit = {
            "weights": model.weights.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
            "log_likelihood": model.log_likelihood,
            "log_likelihood_trace": result.log_likelihood_trace,
            "n_iter": result.n_iter,
            "converged": result.converged,
        }
    fit.update(method=method, best_restart=result.best_restart)

    classes = result.classes
    firsts = np.flatnonzero(np.diff(classes, prepend=-1))  # value index where each run starts
    run = _run_index(data, mask, hist.distinct[firsts].tolist())
    if method == METHOD_KMEANS and _ranked_by_interval(hist, firsts, cfg.k, values.dtype):
        labels = run.astype(np.int32)
    else:
        owners = classes[firsts]
        rank = _rank_by_mean(owners[run[mask] - 1], values, cfg.k, fallback_means)
        table = np.zeros(firsts.size + 1, dtype=np.int32)
        table[1:] = rank[owners]
        labels = table[run]
    return LabelMap(
        labels=labels, k=cfg.k, slice_index=slc.index, degenerate=degenerate, fit=fit, brain_pixels=values.size
    )
