"""Command-line front end.

Subcommands: ``atlas build``, ``extract``, ``eval``, ``phantom``, and
``select-slices``. Logs go to stderr, data to stdout or files; primary
outputs are deterministic given identical flags and seed (timing fields
excepted). Exit codes: 0 success, 2 usage/configuration, 3 no tumor
detected in strict mode, 4 I/O or file-format trouble.
"""

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .atomic import atomic_open, read_json_object, write_json
from .config import DEFAULT_SEED, METHODS, RunConfig, build_run_config
from .errors import (
    ConfigurationError,
    EmptyGroundTruthError,
    FormatError,
    NoTumorDetectedError,
    ValidationError,
)
from .evaluate import (
    evaluate_manifest,
    log_unconverged,
    read_manifest,
    representative_gt_slices,
)
from .mha import read_mha, write_mha
from .phantom import PhantomSpec, generate_phantom, save_spec
from .pipeline import REPRESENTATIVE_SLICES, SELECT_MAX_SLICE, SELECT_MIN_SLICE
from .pipeline import run_pipeline, select_representatives
from .preprocess import build_atlas, load_atlas, save_atlas
from .volume import KIND_LABEL

log = logging.getLogger(__name__)

# Brain ellipsoid radii as fractions of the volume dims, matching the rough
# proportions of a skull-stripped BraTS head.
BRAIN_RADII_FRACTIONS = (0.39, 0.44, 0.44)


def _parse_slices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"--slices expects comma-separated integers: {text!r}") from exc


def _resolve_config(args) -> RunConfig:
    file_cfg = read_json_object(args.config, "config file") if getattr(args, "config", None) else None
    flags = {
        "method": getattr(args, "method", None),
        "seed": getattr(args, "seed", None),
        "strict": getattr(args, "strict", None),
        "loo": getattr(args, "loo", None),
        "jobs": getattr(args, "jobs", None),
        "extract.bbox_margin": getattr(args, "margin", None),
    }
    slices = getattr(args, "slices", None)
    if slices is not None:
        flags["extract.representative_slices"] = _parse_slices(slices)
    return build_run_config(file_cfg, flags)


def _atlas_filename(slice_index: int) -> str:
    return f"atlas_slice_{slice_index:03d}.npz"


def _load_atlases(atlas_dir: Path, rep_slices) -> dict:
    atlases = {}
    for n in rep_slices:
        path = atlas_dir / _atlas_filename(n)
        if not path.exists():
            raise ConfigurationError(
                f"missing atlas for representative slice {n}: {path}"
            )
        atlas = load_atlas(path)
        if atlas.slice_index != n:
            raise ConfigurationError(f"atlas file {path} holds slice {atlas.slice_index}, not representative slice {n}")
        atlases[n] = atlas
    return atlases


def _read_cases(manifest) -> list:
    """The manifest's cases; one that lists none is a usage error."""
    cases = read_manifest(manifest)
    if not cases:
        raise ConfigurationError(f"manifest {manifest} lists no cases")
    return cases


def cmd_atlas_build(args) -> int:
    cfg = _resolve_config(args)
    cases = _read_cases(args.manifest)
    rep = cfg.extract.representative_slices
    slices_by_index = {n: [] for n in rep}
    for case in cases:
        gt = read_mha(case.gt_path, kind=KIND_LABEL)
        for n, slc in representative_gt_slices(gt, rep, case.gt_path).items():
            slices_by_index[n].append(slc)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for n in rep:
        atlas = build_atlas(slices_by_index[n])
        path = out_dir / _atlas_filename(n)
        save_atlas(atlas, path)
        summary.append(
            {
                "slice_index": n,
                "num_patients": atlas.num_patients,
                "max_count": int(atlas.counts.max()),
                "path": str(path),
            }
        )
    print(json.dumps({"atlases": summary}, sort_keys=True))
    return 0


def _write_debug(debug_dir, report) -> None:
    """One ``debug_slice_NNN.json`` per slice: the fit the pipeline made."""
    debug_dir = Path(debug_dir)
    debug_dir.mkdir(parents=True, exist_ok=True)
    for s in report.slices:
        fit = {"empty": True} if s.fit is None else s.fit
        payload = {"slice_index": s.slice_index, **fit}
        write_json(debug_dir / f"debug_slice_{s.slice_index:03d}.json", payload)


def cmd_extract(args) -> int:
    cfg = _resolve_config(args)
    atlases = _load_atlases(Path(args.atlas_dir), cfg.extract.representative_slices)
    volume = read_mha(args.volume)

    try:
        result = run_pipeline(
            volume,
            atlases,
            method=cfg.method,
            cluster_cfg=cfg.cluster,
            params=cfg.extract,
        )
        bbox, report, failure = result.bbox, result.report, None
    except NoTumorDetectedError as exc:
        bbox, report, failure = None, exc.report, exc
    log_unconverged(report, args.volume, cfg.cluster.max_iter)

    if args.report:
        write_json(args.report, report.to_dict())
    if args.debug_dir:
        _write_debug(args.debug_dir, report)
    if failure is not None:
        if cfg.strict:
            raise failure  # main logs it and exits 3
        log.warning("no tumor detected in %s: %s", args.volume, failure)
        payload = {"bbox": None, "method": cfg.method, "warning": "no tumor detected"}
    else:
        payload = {"bbox": bbox.to_dict(), "method": cfg.method}
        if report.fallback_used:
            payload["warning"] = "no winning quadrant; kept the union of all maps"
    if args.format == "csv":
        print(",,,," if bbox is None else bbox.to_csv_row())  # five empty fields
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


_CORNERS = ("row_min", "col_min", "row_max", "col_max")


def _box_fields(box) -> list:
    """A box's four corners as CSV fields; four empty fields for no box."""
    return [getattr(box, c) if box else "" for c in _CORNERS]


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    if cfg.loo and args.atlas_dir:
        raise ConfigurationError(
            "--atlas-dir cannot be given with loo, which builds each case's atlases from the other cases"
        )
    if not cfg.loo and not args.atlas_dir:
        raise ConfigurationError("eval needs --atlas-dir unless --loo is given")
    cases = _read_cases(args.manifest)
    atlases = None if cfg.loo else _load_atlases(Path(args.atlas_dir), cfg.extract.representative_slices)

    results = evaluate_manifest(cases, atlases, cfg)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [(
        "case_id", "cohort", "method", "dice", "dice_paper_union", "failed",
        *(f"pred_{c}" for c in _CORNERS), *(f"gt_{c}" for c in _CORNERS), "wall_ms",
    )]
    for cohort_result in results:
        method = cohort_result.method
        rows += [
            (c.case_id, c.cohort, method, f"{c.dice:.6f}", f"{c.dice_paper_union:.6f}", int(c.failed),
             *_box_fields(c.bbox_pred), *_box_fields(c.bbox_gt), f"{c.wall_ms:.0f}")
            for c in cohort_result.cases
        ]
        rows += [(e.case_id, e.cohort, method, "", "", "error", *("",) * 9) for e in cohort_result.errors]
    # csv quotes a cohort or case ID that holds a comma, as read_manifest reads it.
    with atomic_open(out_dir / f"results_{cfg.method}.csv") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    summary = [r.summary_dict() for r in results]
    write_json(out_dir / f"summary_{cfg.method}.json", {"cohorts": summary})
    print(json.dumps({"cohorts": summary}, sort_keys=True))
    return 0


def _phantom_specs(args) -> list[PhantomSpec]:
    """Every case's spec, each checked as it is built."""
    if args.count < 1:
        raise ConfigurationError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:  # the placement draw below would fail with a bare ValueError
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    if args.radius_min > args.radius_max:
        raise ConfigurationError("--radius-min must not exceed --radius-max")
    dims = tuple(args.dims)
    width, height, depth = dims
    brain_center = (width / 2, height / 2, depth / 2)
    brain_radii = (
        BRAIN_RADII_FRACTIONS[0] * width,
        BRAIN_RADII_FRACTIONS[1] * height,
        BRAIN_RADII_FRACTIONS[2] * depth,
    )
    specs = []
    for i in range(args.count):
        placement = np.random.default_rng([args.seed, i])
        specs.append(PhantomSpec(
            dims=dims,
            brain_center=brain_center,
            brain_radii=brain_radii,
            tumor_center=(
                brain_center[0] + placement.uniform(-0.0625, 0.0625) * width,
                brain_center[1] + placement.uniform(-0.0625, 0.0625) * height,
                brain_center[2] + placement.uniform(-0.03, 0.05) * depth,
            ),
            tumor_radius=float(placement.uniform(args.radius_min, args.radius_max)),
            tumor_offset=args.offset,
            tissue_intensity=args.tissue,
            noise_sigma=args.noise_sigma,
            seed=args.seed + i,
        ))
    return specs


def cmd_phantom(args) -> int:
    # A bad spec for any case fails here, before anything is written.
    specs = _phantom_specs(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [("intensity_path", "gt_path", "cohort")]
    for i, spec in enumerate(specs):
        intensity, ground_truth = generate_phantom(spec)
        stem = f"phantom_{i:03d}"
        write_mha(intensity, out_dir / f"{stem}_flair.mha")
        write_mha(ground_truth, out_dir / f"{stem}_gt.mha")
        save_spec(spec, out_dir / f"{stem}_spec.json")
        rows.append((f"{stem}_flair.mha", f"{stem}_gt.mha", "Phantom"))

    with atomic_open(out_dir / "manifest.csv") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(json.dumps({"cases": args.count, "out_dir": str(out_dir)}, sort_keys=True))
    return 0


def cmd_select_slices(args) -> int:
    cases = _read_cases(args.manifest)
    volumes = (read_mha(c.gt_path, kind=KIND_LABEL) for c in cases)
    chosen = select_representatives(
        volumes, count=args.count, min_slice=args.min_slice, max_slice=args.max_slice
    )
    print(json.dumps({"representative_slices": chosen}))
    return 0


_RUN_FLAGS = {
    "--seed": dict(type=int, help=f"RNG seed (default {DEFAULT_SEED})"),
    "--config": dict(help="JSON config file"),
    "--slices": dict(help="comma-separated representative slice indices "
                     f"(default {','.join(map(str, REPRESENTATIVE_SLICES))})"),
}


def _add_common(parser: argparse.ArgumentParser, *run_flags: str) -> None:
    """``-v`` plus the named ``_RUN_FLAGS``: only those the subcommand reads."""
    for flag in run_flags:
        parser.add_argument(flag, default=None, **_RUN_FLAGS[flag])
    parser.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tumorbox",
        description="Locate the smallest 2-D bounding box containing a brain tumor "
        "in a FLAIR MR volume.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_atlas = sub.add_parser("atlas", help="atlas maintenance")
    atlas_sub = p_atlas.add_subparsers(dest="atlas_command", required=True)
    p_build = atlas_sub.add_parser("build", help="build per-slice atlases from training GTs")
    p_build.add_argument("--manifest", required=True, help="CSV of training cases")
    p_build.add_argument("--out-dir", required=True)
    _add_common(p_build, "--config", "--slices")
    p_build.set_defaults(func=cmd_atlas_build)

    p_extract = sub.add_parser("extract", help="extract the tumor bounding box from a volume")
    p_extract.add_argument("--volume", required=True, help="FLAIR .mha volume")
    p_extract.add_argument("--atlas-dir", required=True)
    p_extract.add_argument("--margin", type=int, default=None, help="bounding-box safety margin in pixels")
    p_extract.add_argument(
        "--strict",
        action="store_const",
        const=True,
        default=None,
        help="fail (exit 3) instead of falling back when nothing is detected",
    )
    p_extract.add_argument("--report", default=None, help="write a JSON pipeline report here")
    p_extract.add_argument("--format", choices=["json", "csv"], default="json")
    p_extract.add_argument("--debug-dir", default=None, help="write each slice's clustering fit and traces here")
    p_extract.add_argument("--method", choices=METHODS, default=None)
    _add_common(p_extract, "--seed", "--config", "--slices")
    p_extract.set_defaults(func=cmd_extract)

    p_eval = sub.add_parser("eval", help="evaluate a cohort manifest against ground truth")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--atlas-dir", default=None)
    p_eval.add_argument("--out-dir", required=True)
    p_eval.add_argument(
        "--loo",
        action="store_const",
        const=True,
        default=None,
        help="leave-one-out: rebuild the atlas without the case under test",
    )
    p_eval.add_argument("--jobs", type=int, default=None, help="cases evaluated at once, in this process and forked workers")
    p_eval.add_argument("--margin", type=int, default=None)
    p_eval.add_argument("--method", choices=METHODS, default=None)
    _add_common(p_eval, "--seed", "--config", "--slices")
    p_eval.set_defaults(func=cmd_eval)

    p_phantom = sub.add_parser("phantom", help="generate synthetic phantom cases")
    p_phantom.add_argument("--out-dir", required=True)
    p_phantom.add_argument("--count", type=int, default=1, help="number of cases (default %(default)s)")
    p_phantom.add_argument("--seed", type=int, default=DEFAULT_SEED, help="case i uses seed + i (default %(default)s)")
    p_phantom.add_argument("--dims", type=int, nargs=3, metavar=("W", "H", "D"), default=list(PhantomSpec.dims),
                           help="volume size in voxels (default %(default)s)")
    p_phantom.add_argument("--tissue", type=float, default=PhantomSpec.tissue_intensity,
                           help="brain tissue intensity (default %(default)s)")
    p_phantom.add_argument("--offset", type=float, default=PhantomSpec.tumor_offset,
                           help="tumor intensity above the tissue (default %(default)s)")
    p_phantom.add_argument("--noise-sigma", type=float, default=PhantomSpec.noise_sigma,
                           help="noise standard deviation inside the brain (default %(default)s)")
    p_phantom.add_argument("--radius-min", type=float, default=12.0, help="smallest tumor radius (default %(default)s)")
    p_phantom.add_argument("--radius-max", type=float, default=20.0, help="largest tumor radius (default %(default)s)")
    _add_common(p_phantom)
    p_phantom.set_defaults(func=cmd_phantom)

    p_select = sub.add_parser("select-slices", help="rank slice indices by summed tumor area")
    p_select.add_argument("--manifest", required=True)
    p_select.add_argument("--count", type=int, default=6)
    p_select.add_argument("--min-slice", type=int, default=SELECT_MIN_SLICE)
    p_select.add_argument("--max-slice", type=int, default=SELECT_MAX_SLICE)
    _add_common(p_select)
    p_select.set_defaults(func=cmd_select_slices)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )

    try:
        return args.func(args)
    except (ConfigurationError, ValidationError, EmptyGroundTruthError) as exc:
        log.error("%s", exc)
        return 2
    except NoTumorDetectedError as exc:
        log.error("no tumor detected: %s", exc)
        return 3
    except (FormatError, OSError) as exc:
        log.error("%s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
