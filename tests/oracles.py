"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, recursion-free flood fill, exhaustive enumeration) and shares no code
with the package under test.
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np


def normalize_loop(data: np.ndarray) -> np.ndarray:
    lo = data.min()
    hi = data.max()
    out = np.zeros(data.shape, dtype=np.float64)
    if hi == lo:
        return out
    for i in range(data.shape[0]):
        for j in range(data.shape[1]):
            out[i, j] = (data[i, j] - lo) / (hi - lo)
    return out


def binarize_loop(data: np.ndarray) -> np.ndarray:
    out = np.zeros(data.shape, dtype=np.uint8)
    for i in range(data.shape[0]):
        for j in range(data.shape[1]):
            out[i, j] = 1 if data[i, j] != 0 else 0
    return out


def cumulative_loop(volume_data: np.ndarray) -> np.ndarray:
    depth, height, width = volume_data.shape
    out = np.zeros((height, width), dtype=np.uint8)
    for i in range(height):
        for j in range(width):
            total = 0
            for k in range(depth):
                total += 1 if volume_data[k, i, j] != 0 else 0
            out[i, j] = 1 if total > 0 else 0
    return out


def atlas_counts_loop(gt_slices: list[np.ndarray]) -> np.ndarray:
    height, width = gt_slices[0].shape
    counts = np.zeros((height, width), dtype=np.int32)
    for i in range(height):
        for j in range(width):
            c = 0
            for s in gt_slices:
                if s[i, j] != 0:
                    c += 1
            counts[i, j] = c
    return counts


def brain_mean_loop(data: np.ndarray) -> float:
    total = 0.0
    count = 0
    for i in range(data.shape[0]):
        for j in range(data.shape[1]):
            if data[i, j] > 0:
                total += data[i, j]
                count += 1
    return total / count if count else 0.0


def enhance_loop(data, counts, min_count, gain_up, gain_down):
    threshold = brain_mean_loop(data)
    out = np.zeros(data.shape, dtype=np.float64)
    for i in range(data.shape[0]):
        for j in range(data.shape[1]):
            v = data[i, j]
            if v == 0:
                out[i, j] = 0.0
            elif counts[i, j] >= min_count and v > threshold:
                out[i, j] = v * gain_up
            else:
                out[i, j] = v * gain_down
            out[i, j] = min(max(out[i, j], 0.0), 1.0)
    return out


def kmeans_dp_objective(values, k: int) -> float:
    """Globally optimal k-means SSE via dynamic programming.

    Optimal 1-D clusters are contiguous in sorted order, so partition the
    sorted values into k runs minimising the summed within-run SSE.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = xs.size
    pre = np.concatenate([[0.0], np.cumsum(xs)])
    pre2 = np.concatenate([[0.0], np.cumsum(xs * xs)])

    def run_sse(i, j):  # xs[i:j]
        m = j - i
        s = pre[j] - pre[i]
        return (pre2[j] - pre2[i]) - s * s / m

    best = np.full((k + 1, n + 1), np.inf)
    best[0, 0] = 0.0
    for kk in range(1, k + 1):
        for j in range(kk, n + 1):
            best[kk, j] = min(
                best[kk - 1, i] + run_sse(i, j) for i in range(kk - 1, j)
            )
    return float(best[k, n])


def flood_fill_components(mask: np.ndarray, connectivity: int) -> set[frozenset]:
    """Stack-based flood fill; returns the set of pixel sets."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if connectivity == 8:
        offsets += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    seen = np.zeros_like(mask)
    groups = set()
    for i in range(height):
        for j in range(width):
            if not mask[i, j] or seen[i, j]:
                continue
            stack = [(i, j)]
            seen[i, j] = True
            pixels = []
            while stack:
                r, c = stack.pop()
                pixels.append((r, c))
                for dr, dc in offsets:
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < height and 0 <= nc < width and mask[nr, nc] and not seen[nr, nc]:
                        seen[nr, nc] = True
                        stack.append((nr, nc))
            groups.add(frozenset(pixels))
    return groups


def components_reference(mask: np.ndarray, connectivity: int) -> list:
    """Every component at once, largest first, ties by topmost-leftmost
    pixel: (pixels as an (area, 2) row-major array, centroid as the pixel
    mean)."""
    groups = sorted((sorted(g) for g in flood_fill_components(mask, connectivity)), key=lambda g: (-len(g), g[0]))
    return [
        (np.array(g, dtype=np.int64), tuple(np.array(g, dtype=np.float64).mean(axis=0).tolist()))
        for g in groups
    ]


def row_runs_loop(mask: np.ndarray):
    """(rows, starts, stops) of the horizontal runs of set pixels, row by row."""
    runs = []
    for i in range(mask.shape[0]):
        j = 0
        while j < mask.shape[1]:
            if mask[i, j]:
                start = j
                while j < mask.shape[1] and mask[i, j]:
                    j += 1
                runs.append((i, start, j))
            else:
                j += 1
    return tuple(np.array([run[n] for run in runs], dtype=np.intp) for n in range(3))


def run_roots_reference(rows, starts, stops, reach: int, width: int) -> np.ndarray:
    """Union-find over runs, one link at a time: a run joins every run in the
    row above that overlaps it once widened by ``reach`` columns. Each run's
    root is the first run of its component in scan order."""
    # Runs sorted by (row, column) keys; the runs of row r-1 touching run
    # [start, stop) of row r are one contiguous index range.
    stride = width + 2
    start_keys = rows * stride + starts
    stop_keys = rows * stride + stops
    above = (rows - 1) * stride
    lo = np.searchsorted(stop_keys, above + starts - reach, side="right")
    hi = np.searchsorted(start_keys, above + stops + reach, side="left")
    n_links = np.maximum(hi - lo, 0)
    lower = np.repeat(np.arange(rows.size), n_links)
    upper = np.arange(n_links.sum()) + np.repeat(lo - (np.cumsum(n_links) - n_links), n_links)

    parent = list(range(rows.size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(upper.tolist(), lower.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the smaller root so roots stay in scan order
            parent[max(ra, rb)] = min(ra, rb)
    # Every parent index is at most its own, so pointer jumping ends at roots.
    roots = np.array(parent, dtype=np.intp)
    while True:
        jumped = roots[roots]
        if np.array_equal(jumped, roots):
            return roots
        roots = jumped


def bbox_scan(mask: np.ndarray):
    """(row_min, col_min, row_max, col_max) by exhaustive scan, or None."""
    coords = [(i, j) for i in range(mask.shape[0]) for j in range(mask.shape[1]) if mask[i, j]]
    if not coords:
        return None
    rows = [c[0] for c in coords]
    cols = [c[1] for c in coords]
    return (min(rows), min(cols), max(rows), max(cols))


def box_pixel_set(row_min, col_min, row_max, col_max) -> set:
    return {
        (r, c)
        for r in range(row_min, row_max + 1)
        for c in range(col_min, col_max + 1)
    }


def dice_enumerated(box_a, box_b, formula: str) -> float:
    a = box_pixel_set(box_a.row_min, box_a.col_min, box_a.row_max, box_a.col_max)
    b = box_pixel_set(box_b.row_min, box_b.col_min, box_b.row_max, box_b.col_max)
    inter = len(a & b)
    if formula == "standard":
        return 2.0 * inter / (len(a) + len(b))
    return 2.0 * inter / len(a | b)


def kmeans_pixel_lloyd(values, k: int, seed: int, n_restarts: int, max_iter: int, random_first: bool = False):
    """Best-of-restarts Lloyd K-means over every pixel, as the package ran it
    before clustering moved to distinct values.

    Same starts (quantile spread for restart 0 unless ``random_first``, then
    data points drawn from ``default_rng(seed)``), same lower-index tie rule
    and same empty-cluster repair (the pixel farthest from its centroid, the
    first one among ties). Returns (centroids, assignment, objective, n_iter,
    best_restart, degenerate).
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)

    def nearest(centers):
        return np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)

    distinct = np.unique(values)
    if distinct.size < k:
        centers = np.concatenate([distinct, np.full(k - distinct.size, distinct[-1])])
        return centers, nearest(centers), 0.0, 0, 0, True

    rng = np.random.default_rng(seed)
    best = None
    for restart in range(n_restarts):
        if restart == 0 and not random_first:
            qs = (2 * np.arange(1, k + 1) - 1) / (2 * k)
            centers = np.quantile(values, qs)
        else:
            idx = rng.choice(values.size, size=k, replace=values.size < k)
            centers = values[idx].astype(np.float64)
        prev = None
        sse = None
        iterations = 0
        for _ in range(max_iter):
            iterations += 1
            assign = nearest(centers)
            while True:
                occupied = np.bincount(assign, minlength=k) > 0
                if occupied.all():
                    break
                empty = int(np.flatnonzero(~occupied)[0])
                farthest = int(np.argmax(np.abs(values - centers[assign])))
                centers[empty] = values[farthest]
                assign = nearest(centers)
            if prev is not None and np.array_equal(assign, prev):
                break
            centers = np.bincount(assign, weights=values, minlength=k) / np.bincount(assign, minlength=k)
            sse = float(np.sum((values - centers[assign]) ** 2))
            prev = assign
        if best is None or sse < best[2]:
            best = (centers, prev, sse, iterations, restart, False)
    return best


def _assign_reference(distinct, centers):
    """Nearest center of each sorted distinct value, ``argmin(|x - c|)`` with
    ties to the lower center index, as runs in value order (a center owns
    several only on the exact path): lists of run center, start and length.

    1-D nearest-center cells are the intervals between midpoints of the
    sorted centers, so the cuts come from binary search. Where rounding of
    ``|x - c|`` can tie two centers (a value within a few ulps of a midpoint,
    or centers equal or a few ulps apart) every value is decided by that
    exact comparison instead.
    """
    n = len(distinct)
    order = sorted(range(len(centers)), key=centers.__getitem__)
    ranked = [centers[j] for j in order]
    tol = 4.0 * math.ulp(max(-distinct[0], distinct[-1], -ranked[0], ranked[-1]))
    cuts = [0]
    for lo, hi in zip(ranked, ranked[1:]):
        mid = 0.5 * (lo + hi)
        cut = bisect_left(distinct, mid - tol)
        if hi - lo <= 2.0 * tol or bisect_right(distinct, mid + tol, cut) > cut:
            labels = np.argmin(np.abs(np.asarray(distinct)[:, None] - np.asarray(centers)), axis=1)
            starts = np.flatnonzero(np.diff(labels, prepend=-1))
            return labels[starts].tolist(), starts.tolist(), np.diff(starts, append=n).tolist()
        cuts.append(cut)
    cuts.append(n)
    runs = [(j, a, b - a) for j, a, b in zip(order, cuts, cuts[1:]) if b > a]
    return [r[0] for r in runs], [r[1] for r in runs], [r[2] for r in runs]


def cuts_reference(distinct, ranked):
    """``clustering._cuts`` as it was with two binary searches per midpoint:
    each cut searched over all of ``distinct``, and a value within ``tol``
    above the midpoint found by ``bisect_right``. The bounds, or ``None``
    where the exact comparison must decide."""
    tol = 4.0 * math.ulp(max(-distinct[0], distinct[-1], -ranked[0], ranked[-1]))
    cuts = [0]
    for lo, hi in zip(ranked, ranked[1:]):
        mid = 0.5 * (lo + hi)
        cut = bisect_left(distinct, mid - tol)
        if hi - lo <= 2.0 * tol or cut <= cuts[-1] or bisect_right(distinct, mid + tol, cut) > cut:
            return None
        cuts.append(cut)
    cuts.append(len(distinct))
    return cuts if cuts[-2] < cuts[-1] else None


def histogram_tables_reference(values):
    """A fit histogram's ``xs``, ``cum_n``, ``cum_x`` and ``cum_xx`` as the
    Python lists the package built before it kept them as arrays."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    distinct, counts = np.unique(values, return_counts=True)
    shift = float(distinct @ counts / values.size)
    centered = distinct - shift
    mass = centered * counts
    return (
        distinct.tolist(),
        [0, *np.cumsum(counts).tolist()],
        [0.0, *np.cumsum(mass).tolist()],
        [0.0, *np.cumsum(mass * centered).tolist()],
    )


def _farthest_reference(hist, centers, owners, starts, sizes) -> float:
    """The value farthest from its assigned center; among ties, the one
    that occurs first in pixel order.

    ``x - c`` rounds monotonically in x, so over a run it is extreme at the
    run's ends, and the values tied with an end form one stretch there.
    """
    xs = hist.xs
    runs = list(zip(owners, starts, sizes))
    top = max(max(abs(xs[a] - centers[j]), abs(xs[a + m - 1] - centers[j])) for j, a, m in runs)
    tied = []
    for j, a, m in runs:
        def gap(x, c=centers[j]):
            return x - c

        for end in (-top, top):
            tied += range(bisect_left(xs, end, a, a + m, key=gap), bisect_right(xs, end, a, a + m, key=gap))
    if len(tied) == 1:
        return xs[tied[0]]
    pixels = hist.pixels
    return float(pixels[np.flatnonzero(np.isin(pixels, [xs[i] for i in tied]))[0]])


def lloyd_reference(hist, centers: list[float], max_iter: int):
    """One Lloyd run over a ``clustering._histogram`` table from the given
    centers, as the package ran it before an ordinary iteration kept its
    partition as one cut list: every iteration builds the runs triple, tests
    for empty clusters with sets, and sums the objective over the run
    owners in value order. Returns (centroids, runs of the final assignment
    as ``_assign_reference`` gives them, objective trace, iters). Only an
    empty-cluster repair that finds several farthest values scans the
    pixels for the first."""
    k = len(centers)
    cum_n, cum_x, cum_xx = hist.cum_n, hist.cum_x, hist.cum_xx
    prev = None
    trace: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        runs = _assign_reference(hist.xs, centers)
        # Repair empty clusters: move each onto the value currently farthest
        # from its assigned centroid (the earliest in pixel order among
        # ties), then re-assign.
        while len(set(runs[0])) < k:
            centers[min(set(range(k)) - set(runs[0]))] = _farthest_reference(hist, centers, *runs)
            runs = _assign_reference(hist.xs, centers)
        if runs == prev:
            break
        size, s1, s2 = [0] * k, [0.0] * k, [0.0] * k
        for j, a, m in zip(*runs):
            b = a + m
            size[j] += cum_n[b] - cum_n[a]
            s1[j] += cum_x[b] - cum_x[a]
            s2[j] += cum_xx[b] - cum_xx[a]
        means = [s / n for s, n in zip(s1, size)]  # of x - shift
        centers = [hist.shift + c for c in means]
        # Summed in value order, so restarts that reach one partition under
        # other center indices get the same objective and the first keeps it.
        trace.append(sum(s2[j] - s1[j] * means[j] for j in dict.fromkeys(runs[0])))
        prev = runs
    return centers, prev, trace, iterations


def nearest_center_loop(values, centers) -> list[int]:
    """Index of the nearest center for each value; ties go to the lower
    index (a later center must be strictly closer to win)."""
    out = []
    for x in values:
        best = 0
        for j in range(1, len(centers)):
            if abs(x - centers[j]) < abs(x - centers[best]):
                best = j
        out.append(best)
    return out


def em_pixel_reference(values, k: int, seed: int, n_restarts: int, max_iter: int, tol: float,
                       km_centroids, km_assignment, variance_floor: float = 1e-6):
    """Best-of-restarts 1-D Gaussian-mixture EM with an (n, k) posterior
    matrix, as the package ran it before its steps became matrix products on
    a (3, n) design.

    Run -1 starts from the given K-means partition (means at the centroids,
    weights and variances per cluster); restart 0 from the quantile spread,
    later restarts from data points drawn from ``default_rng(seed)``. The
    highest final log-likelihood wins, the earlier run on ties. Returns the
    winner as a dict with restart, weights, means, variances, trace,
    posteriors (n, k), n_iter and converged, plus ``runs``, every run's dict
    in run order.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n = values.size
    squares = values * values

    def e_step(weights, means, variances):
        inv2 = -0.5 / variances
        logp = squares[:, None] * inv2 + values[:, None] * (-2.0 * means * inv2)
        logp += means * means * inv2 - 0.5 * np.log(2.0 * np.pi * variances) + np.log(weights)
        top = logp.max(axis=1)
        dens = np.exp(logp - top[:, None])
        total = dens.sum(axis=1)
        return float(np.sum(top + np.log(total))), dens / total[:, None]

    def run(weights, means, variances):
        trace, ll, converged = [], -np.inf, False
        for _ in range(max_iter):
            ll_new, post = e_step(weights, means, variances)
            trace.append(ll_new)
            if np.isfinite(ll) and abs(ll_new - ll) <= tol * max(1.0, abs(ll)):
                ll, converged = ll_new, True
                break
            ll = ll_new
            resp = post.sum(axis=0)
            safe = np.maximum(resp, 1e-12)
            weights = resp / n
            new_means = (values @ post) / safe
            new_vars = (squares @ post) / safe - new_means * new_means
            means = np.where(resp > 1e-12, new_means, means)
            variances = np.maximum(np.where(resp > 1e-12, new_vars, variances), variance_floor)
        else:
            ll, post = e_step(weights, means, variances)
            trace.append(ll)
        return dict(weights=weights, means=means, variances=variances, trace=trace,
                    posteriors=post, n_iter=len(trace), converged=converged)

    assign = np.asarray(km_assignment)
    centroids = np.asarray(km_centroids, dtype=np.float64)
    counts = np.maximum(np.bincount(assign, minlength=k).astype(np.float64), 1.0)
    weights0 = counts / float(n)
    km_vars = np.bincount(assign, weights=(values - centroids[assign]) ** 2, minlength=k) / counts
    runs = [dict(run(weights0 / weights0.sum(), centroids, np.maximum(km_vars, variance_floor)), restart=-1)]

    rng = np.random.default_rng(seed)
    start_var = np.full(k, max(float(np.var(values)), variance_floor))
    for restart in range(n_restarts):
        if restart == 0:
            means0 = np.quantile(values, (2 * np.arange(1, k + 1) - 1) / (2 * k))
        else:
            means0 = values[rng.choice(n, size=k, replace=n < k)]
        runs.append(dict(run(np.full(k, 1.0 / k), means0, start_var), restart=restart))
    best = runs[0]
    for fit in runs[1:]:
        if fit["trace"][-1] > best["trace"][-1]:
            best = fit
    return dict(best, runs=runs)


def _fit_record(method: str, res) -> dict:
    from tumorbox.clustering import METHOD_KMEANS

    if method == METHOD_KMEANS:
        record = {
            "centroids": res.centroids.tolist(),
            "objective": res.objective,
            "objective_trace": res.objective_trace,
            "n_iter": res.n_iter,
            "degenerate": res.degenerate,
        }
    else:
        record = {
            "weights": res.model.weights.tolist(),
            "means": res.model.means.tolist(),
            "variances": res.model.variances.tolist(),
            "log_likelihood": res.model.log_likelihood,
            "log_likelihood_trace": res.log_likelihood_trace,
            "n_iter": res.n_iter,
            "converged": res.converged,
        }
    return {**record, "method": method, "best_restart": res.best_restart}


def segmentation_fit(slc, method: str, cfg, include_background: bool = False) -> dict:
    """The per-slice fit record, got by clustering the slice afresh.

    This is how ``extract --debug-dir`` built its files before the pipeline
    kept the fit it makes: the same pixel selection, then a second
    ``kmeans_1d``/``em_gmm_1d`` call on those values. Unlike the oracles
    above it calls the package's fitters; it checks that the recorded fit is
    the fit of the slice, not how a fit is computed.
    """
    from tumorbox.clustering import METHOD_KMEANS, em_gmm_1d, kmeans_1d

    data = slc.data
    mask = np.ones(data.shape, dtype=bool) if include_background else data > 0
    values = data[mask]
    if values.size == 0:
        return {"slice_index": slc.index, "empty": True}
    res = (kmeans_1d if method == METHOD_KMEANS else em_gmm_1d)(values, cfg)
    return {"slice_index": slc.index, **_fit_record(method, res)}


def rank_by_mean_reference(raw_labels: np.ndarray, values: np.ndarray, k: int, fallback_means: np.ndarray) -> np.ndarray:
    """Label 1..k of each cluster by ascending mean of its pixels, each mean
    the ``np.mean`` of the cluster's pixels in pixel order; an empty cluster
    keys on its fallback mean, and equal keys keep cluster order."""
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


def segment_slice_reference(slc, method: str, cfg, include_background: bool = False):
    """``clustering.segment_slice`` as it ran before the fits ended in value
    space: ``np.unique`` with the pixel-to-value inverse, the fit's classes
    gathered to the pixels (for EM, its posteriors expanded to (n, k) and
    hard-assigned), and every fit ranked by per-pixel class means. It calls
    the package's fitters; it checks how their result becomes a label map.
    Returns (labels, fit, degenerate).
    """
    from tumorbox.clustering import METHOD_KMEANS, em_gmm_1d, hard_assign, kmeans_1d

    data = slc.data
    mask = np.ones(data.shape, dtype=bool) if include_background else data > 0
    values = data[mask]
    labels = np.zeros(data.shape, dtype=np.int32)
    if values.size == 0:
        return labels, None, True
    _, inverse = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True)
    if method == METHOD_KMEANS:
        res = kmeans_1d(values, cfg)
        raw, fallback_means, degenerate = res.classes[inverse], res.centroids, res.degenerate
    else:
        res = em_gmm_1d(values, cfg)
        raw = hard_assign(res.value_posteriors.T[inverse]) - 1
        fallback_means, degenerate = res.model.means, False
    labels[mask] = rank_by_mean_reference(raw, values, cfg.k, fallback_means)[raw]
    return labels, _fit_record(method, res), degenerate


def normalize_reference(data: np.ndarray) -> np.ndarray:
    """``preprocess.normalize`` as first vectorised: a float64 copy, then
    ``(data - lo) / (hi - lo)``."""
    data = data.astype(np.float64)
    lo, hi = data.min(), data.max()
    if hi == lo:
        return np.zeros_like(data)
    return (data - lo) / (hi - lo)


def enhance_reference(values: np.ndarray, counts: np.ndarray, threshold: float, gain_up: float, gain_down: float):
    """``preprocess.enhance_contrast``'s arithmetic as two full-slice
    ``np.where`` passes and a clip."""
    out = np.where(values > 0, values * gain_down, 0.0)
    out = np.where((counts > 0) & (values > threshold), values * gain_up, out)
    return np.clip(out, 0.0, 1.0)


def disk_mask_reference(shape, center, radius) -> np.ndarray:
    """The safety disk evaluated over the whole grid."""
    rows = np.arange(shape[0], dtype=np.float64)[:, None]
    cols = np.arange(shape[1], dtype=np.float64)[None, :]
    return (rows - center[0]) ** 2 + (cols - center[1]) ** 2 <= radius**2


def volume_check_reference(data: np.ndarray, kind: str):
    """``Volume``'s value checks as first written, over every voxel.

    Intensity: an ``isfinite`` mask, then an ``any(data < 0)`` mask. Labels:
    ``np.unique`` (a sort) and ``np.isin`` against {0..4}. Returns the
    ValidationError message, or None when the data passes.
    """
    if kind == "intensity":
        if not np.all(np.isfinite(data)):
            return "intensity volume contains non-finite values"
        if np.any(data < 0):
            return "intensity volume contains negative values"
        return None
    values = np.unique(data)
    if not np.all(np.isin(values, [0, 1, 2, 3, 4])):
        bad = sorted(set(values.tolist()) - {0, 1, 2, 3, 4})
        return f"label volume contains values outside 0..4: {bad}"
    return None


def generate_phantom_reference(spec):
    """``generate_phantom`` as first written: whole-volume broadcasting.

    A dozen full-volume float64 temporaries, each step over the whole grid.
    Returns the (intensity, label) arrays rather than ``Volume`` objects.
    """
    width, height, depth = (int(v) for v in spec.dims)

    z = np.arange(depth, dtype=np.float64)[:, None, None]
    y = np.arange(height, dtype=np.float64)[None, :, None]
    x = np.arange(width, dtype=np.float64)[None, None, :]

    bx, by, bz = spec.brain_center
    rx, ry, rz = spec.brain_radii
    brain = ((x - bx) / rx) ** 2 + ((y - by) / ry) ** 2 + ((z - bz) / rz) ** 2 <= 1.0

    tx, ty, tz = spec.tumor_center
    tumor = (x - tx) ** 2 + (y - ty) ** 2 + (z - tz) ** 2 <= spec.tumor_radius**2

    values = np.where(brain, spec.tissue_intensity, 0.0)
    values = values + np.where(tumor, spec.tumor_offset, 0.0)
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        values = values + rng.normal(0.0, spec.noise_sigma, size=values.shape)
    values = np.where(brain, np.maximum(values, 0.0), 0.0)
    # Quantise to float32 so MetaImage round trips are exact.
    values = values.astype(np.float32).astype(np.float64)

    return values, tumor.astype(np.int16)
