"""Evaluation protocol: cumulative ground-truth boxes and box Dice scores.

The ground truth for one case is the minimal rectangle around the
projection of its tumor labels over all slices. Predicted boxes from the
pipeline are scored against it with the Dice measure, aggregated per cohort
(HGG / LGG / Phantom).
"""

import csv
import io
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import read_text
from .config import RunConfig
from .errors import (
    ConfigurationError,
    EmptyGroundTruthError,
    FormatError,
    NoTumorDetectedError,
    TumorBoxError,
    ValidationError,
)
from .mha import read_mha
from .pipeline import BBox, PipelineReport, mask_bbox, run_pipeline
from .preprocess import Atlas, build_atlas
from .volume import KIND_LABEL, Slice, Volume, extract_slice

log = logging.getLogger(__name__)

FORMULA_STANDARD = "standard"
FORMULA_PAPER_UNION = "paper-union"
DICE_FORMULAS = (FORMULA_STANDARD, FORMULA_PAPER_UNION)


def binarize_gt(gt_slice: Slice) -> Slice:
    """Binary tumor-presence slice: 1 wherever the label is non-zero."""
    return Slice(data=(gt_slice.data != 0).astype(np.uint8), index=gt_slice.index)


def cumulative_gt(gt_volume: Volume) -> Slice:
    """Project tumor presence over all slices onto one binary plane."""
    present = (gt_volume.data != 0).any(axis=0)
    return Slice(data=present.astype(np.uint8), index=0)


def gt_box(cumulative: Slice) -> BBox:
    """Minimal rectangle around the cumulative ground truth."""
    mask = cumulative.data != 0
    if not mask.any():
        raise EmptyGroundTruthError("ground truth marks no tumor pixels")
    return mask_bbox(mask, margin=0)


def representative_gt_slices(gt: Volume, slices, path) -> dict[int, Slice]:
    """The slices of ground truth ``gt`` (read from ``path``) at each
    representative index; a ground truth shallower than the deepest index
    is a configuration error."""
    if gt.depth < max(slices):
        raise ConfigurationError(
            f"ground truth {path} has depth {gt.depth}, smaller than representative slice {max(slices)}"
        )
    return {n: extract_slice(gt, n) for n in slices}


def _intersection(a: BBox, b: BBox) -> int:
    rows = min(a.row_max, b.row_max) - max(a.row_min, b.row_min) + 1
    cols = min(a.col_max, b.col_max) - max(a.col_min, b.col_min) + 1
    if rows <= 0 or cols <= 0:
        return 0
    return rows * cols


def dice_box(a: BBox, b: BBox, dims: tuple[int, int], formula: str = FORMULA_STANDARD) -> float:
    """Dice overlap of two axis-aligned boxes, in closed form.

    ``dims`` is (width, height) of the underlying image. "standard" is
    2|A∩B| / (|A| + |B|), in [0, 1]; "paper-union" divides by |A∪B| instead,
    which lies in [0, 2] (2 for identical boxes) and is returned unclamped.
    """
    if formula not in DICE_FORMULAS:
        raise ValidationError(f"unknown dice formula: {formula!r}")
    width, height = dims
    for box in (a, b):
        if box.row_max >= height or box.col_max >= width:
            raise ValidationError(f"box {box} exceeds image dims {dims}")
    inter = _intersection(a, b)
    if formula == FORMULA_STANDARD:
        return 2.0 * inter / (a.area + b.area)
    return 2.0 * inter / (a.area + b.area - inter)


@dataclass
class CaseResult:
    case_id: str
    cohort: str
    dice: float
    dice_paper_union: float
    failed: bool
    bbox_pred: BBox | None
    bbox_gt: BBox
    report: PipelineReport
    wall_ms: float = 0.0


@dataclass
class ErrorRecord:
    case_id: str
    cohort: str
    message: str


@dataclass
class CohortResult:
    """Scores for one cohort under one method, in both Dice forms.

    Failed detections are scored 0 and stay in the mean; unreadable cases
    are recorded as errors and excluded from it, but never silently dropped.
    """

    cohort: str
    method: str
    cases: list[CaseResult] = field(default_factory=list)
    errors: list[ErrorRecord] = field(default_factory=list)

    @property
    def dice(self) -> list[float]:
        return [c.dice for c in self.cases]

    @property
    def mean_dice(self) -> float:
        return float(np.mean(self.dice)) if self.cases else 0.0

    @property
    def mean_dice_paper_union(self) -> float:
        return float(np.mean([c.dice_paper_union for c in self.cases])) if self.cases else 0.0

    @property
    def n(self) -> int:
        return len(self.cases)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cases if c.failed)

    def summary_dict(self) -> dict:
        """Scores plus two counts from the held reports: cases that kept the
        union fallback, and EM slices whose winning fit did not converge."""
        reports = [c.report for c in self.cases]
        return {
            "cohort": self.cohort,
            "method": self.method,
            "mean_dice": round(self.mean_dice, 6),
            "mean_dice_paper_union": round(self.mean_dice_paper_union, 6),
            "n": self.n,
            "n_failed": self.n_failed,
            "n_errors": len(self.errors),
            "n_fallback": sum(r.fallback_used for r in reports),
            "n_unconverged": sum(len(r.unconverged_slices()) for r in reports),
        }


def log_unconverged(report: PipelineReport, case: str, max_iter: int) -> None:
    """One WARNING per case naming the slices whose EM fit hit max_iter."""
    slices = report.unconverged_slices()
    if slices:
        log.warning(
            "case %s: EM stopped at max_iter=%d without converging on slice(s) %s",
            case, max_iter, ", ".join(map(str, slices)),
        )


def evaluate_case(
    volume: Volume,
    plane: Slice,
    atlases,
    cfg: RunConfig,
    case_id: str = "",
    cohort: str = "Phantom",
) -> CaseResult:
    """Score one volume against its :func:`cumulative_gt` plane.

    A plane whose shape is not the volume's slice shape raises
    ValidationError before the pipeline runs. A pipeline that detects
    nothing scores 0 with the failure flag set; excluding such cases would
    inflate cohort means invisibly.
    """
    start = time.perf_counter()
    if plane.data.shape != (volume.height, volume.width):
        raise ValidationError(
            f"ground truth plane has shape {plane.data.shape}, "
            f"but the volume's slices have shape {(volume.height, volume.width)}"
        )
    box_gt = gt_box(plane)
    dims = (volume.width, volume.height)
    try:
        result = run_pipeline(
            volume,
            atlases,
            method=cfg.method,
            cluster_cfg=cfg.cluster,
            params=cfg.extract,
        )
        bbox, report = result.bbox, result.report
    except NoTumorDetectedError as exc:
        bbox, report = None, exc.report
    log_unconverged(report, case_id, cfg.cluster.max_iter)
    return CaseResult(
        case_id=case_id,
        cohort=cohort,
        dice=0.0 if bbox is None else dice_box(bbox, box_gt, dims),
        dice_paper_union=0.0 if bbox is None else dice_box(bbox, box_gt, dims, FORMULA_PAPER_UNION),
        failed=bbox is None,
        bbox_pred=bbox,
        bbox_gt=box_gt,
        report=report,
        wall_ms=(time.perf_counter() - start) * 1000,
    )


@dataclass(frozen=True)
class ManifestCase:
    case_id: str
    intensity_path: Path
    gt_path: Path
    cohort: str


def read_manifest(path) -> list[ManifestCase]:
    """Read a case manifest CSV with header intensity_path,gt_path,cohort.

    Relative paths resolve against the manifest's own directory, so a
    generated phantom directory is self-contained. A leading UTF-8 byte-order
    mark is skipped. A case's ID is its intensity file name without a
    trailing ``.mha`` or ``.mhd``. A row with fewer fields than the header is
    rejected, and so are two rows with the same case ID, since results are
    keyed by it.
    """
    path = Path(path)
    base = path.parent
    cases = []
    reader = csv.DictReader(io.StringIO(read_text(path, "manifest"), newline=""))
    required = {"intensity_path", "gt_path", "cohort"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise FormatError(
            f"manifest {path} must have columns intensity_path,gt_path,cohort"
        )
    for row in reader:
        if None in row.values():
            raise FormatError(
                f"manifest {path} line {reader.line_num} has fewer fields than its header "
                f"({','.join(reader.fieldnames)})"
            )
        intensity = Path(row["intensity_path"])
        gt = Path(row["gt_path"])
        case_id = intensity.stem if intensity.suffix in (".mha", ".mhd") else intensity.name
        if any(c.case_id == case_id for c in cases):
            raise FormatError(f"manifest {path} lists case {case_id!r} twice")
        cases.append(
            ManifestCase(
                case_id=case_id,
                intensity_path=intensity if intensity.is_absolute() else base / intensity,
                gt_path=gt if gt.is_absolute() else base / gt,
                cohort=row["cohort"].strip(),
            )
        )
    return cases


def _run_case(i, cases, prepass, totals, atlases, cfg):
    """Case ``i`` of a cohort, scored; a read or pipeline error becomes its
    error row."""
    case = cases[i]
    try:
        if isinstance(prepass[i], Exception):
            raise prepass[i]
        volume = read_mha(case.intensity_path)
        gt_slices, plane = prepass[i]
        case_atlases = atlases
        if cfg.loo:
            case_atlases = {
                n: Atlas(
                    slice_index=n,
                    num_patients=atlas.num_patients - 1,
                    counts=atlas.counts - (gt_slices[n].data != 0),
                )
                for n, atlas in totals.items()
            }
        return evaluate_case(
            volume, plane, case_atlases, cfg, case_id=case.case_id, cohort=case.cohort
        )
    except (TumorBoxError, OSError) as exc:
        log.error("case %s skipped: %s", case.case_id, exc)
        return ErrorRecord(case_id=case.case_id, cohort=case.cohort, message=str(exc))


def _take_cases(counter, state) -> list:
    """(index, outcome) of each case this process takes: the next index off
    the shared ``counter``, until every case is taken."""
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(state[0]):
            return done
        done.append((i, _run_case(i, *state)))


def _worker(counter, state, send):
    """A forked process's cases, sent back in one message. An unexpected
    exception is logged with its traceback and sent instead, after it has
    stopped every process from taking another case."""
    try:
        send.send(_take_cases(counter, state))
    except Exception as exc:
        with counter.get_lock():
            counter.value = len(state[0])
        log.exception("evaluation worker %d failed", os.getpid())
        send.send(exc)


def _run_forked(processes: int, state) -> list:
    """The outcome of every case in manifest order, from ``processes - 1``
    forked workers and this process, each taking the next case off one
    shared counter.

    Fork hands the cohort's state to each worker without pickling it (safe
    as long as the caller runs no other thread, as the CLI does not); only
    the outcomes come back. An exception raised by a case in any process
    reaches the caller, and so does a worker that dies; either way no worker
    is left running.
    """
    import multiprocessing  # only here, so that no other command pays for its import

    fork = multiprocessing.get_context("fork")
    counter = fork.Value("i", 0)
    workers = []
    try:
        for _ in range(processes - 1):
            receive, send = fork.Pipe(duplex=False)
            worker = fork.Process(target=_worker, args=(counter, state, send))
            worker.start()
            send.close()
            workers.append((worker, receive))
        done = _take_cases(counter, state)
        for worker, receive in workers:
            try:
                share = receive.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"evaluation worker {worker.pid} exited with code {worker.exitcode} before sending its cases"
                ) from None
            if isinstance(share, Exception):
                raise share
            done += share
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receive in workers:
            worker.join()
            receive.close()
    outcomes = dict(done)
    return [outcomes[i] for i in range(len(state[0]))]


def evaluate_cohort(cases: list[ManifestCase], atlases, cfg: RunConfig) -> CohortResult:
    """Evaluate the cases of one cohort and aggregate their Dice scores.

    With ``cfg.loo`` the atlases are rebuilt per case from the other cases'
    ground truths (train/test hygiene when the manifest provided the atlas
    data); otherwise ``atlases`` must be supplied. With ``cfg.jobs`` above 1
    the cases run in up to that many processes, this one and forked workers
    (see ``_run_forked``); the results do not depend on ``cfg.jobs``.
    """
    if not cases:
        raise ValidationError("evaluate_cohort needs at least one case")
    cohorts = {c.cohort for c in cases}
    if len(cohorts) != 1:
        raise ValidationError(f"evaluate_cohort expects a single cohort, got {sorted(cohorts)}")
    cohort = cohorts.pop()
    if not cfg.loo and atlases is None:
        raise ValidationError("evaluate_cohort needs atlases unless loo is set")
    if cfg.loo and len(cases) < 2:
        raise ValidationError("leave-one-out needs at least two cases")

    rep = cfg.extract.representative_slices
    # Each ground truth is read once, here, and only planes of it are kept:
    # the cumulative plane scores the case, and under LOO the representative
    # slices build one atlas per slice, from which each case subtracts its
    # own tumor pixels. A read error, or a ground truth that marks no tumor,
    # is kept and becomes that case's error row before its volume is read;
    # an empty ground truth's slices still count in the atlases.
    prepass: list[tuple[dict[int, Slice], Slice] | Exception] = []
    atlas_slices = []
    for case in cases:
        try:
            gt = read_mha(case.gt_path, kind=KIND_LABEL)
        except (TumorBoxError, OSError) as exc:
            prepass.append(exc)
            continue
        gt_slices = representative_gt_slices(gt, rep, case.gt_path) if cfg.loo else {}
        atlas_slices.append(gt_slices)
        plane = cumulative_gt(gt)
        try:
            gt_box(plane)
        except EmptyGroundTruthError as exc:
            prepass.append(exc)
            continue
        prepass.append((gt_slices, plane))
    totals = {n: build_atlas([s[n] for s in atlas_slices]) for n in rep} if cfg.loo and atlas_slices else {}

    state = (cases, prepass, totals, atlases, cfg)
    processes = min(cfg.jobs, len(cases))
    if processes == 1:
        outcomes = [_run_case(i, *state) for i in range(len(cases))]
    else:
        outcomes = _run_forked(processes, state)

    result = CohortResult(cohort=cohort, method=cfg.method)
    for outcome in outcomes:
        if isinstance(outcome, ErrorRecord):
            result.errors.append(outcome)
        else:
            result.cases.append(outcome)
    return result


def evaluate_manifest(cases: list[ManifestCase], atlases, cfg: RunConfig) -> list[CohortResult]:
    """Group manifest cases by cohort and evaluate each group."""
    by_cohort: dict[str, list[ManifestCase]] = {}
    for case in cases:
        by_cohort.setdefault(case.cohort, []).append(case)
    return [evaluate_cohort(group, atlases, cfg) for _, group in sorted(by_cohort.items())]
