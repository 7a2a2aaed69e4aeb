#!/usr/bin/env python3
"""tumorbox benchmark: ms per volume, volumes per second and set-up time on
three workloads, with every returned box checked against recorded references.

    python3 benchmark/run.py --workload phantom128 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs an untraced pass for half the time, replays the same items with spans
recorded, and reports the per-layer metrics and the tracing overhead. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Workloads, metrics and the reference gate are described in README.md.
"""

import os

# One BLAS thread in this process, set before numpy loads: `eval --jobs
# <nproc>` is then the only parallelism and threads never exceed nproc.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import fcntl
import json
import platform
import resource
import shutil
import sys
import types
from pathlib import Path
from statistics import median

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
WORK_DIR = BENCH_DIR / ".work"
SPANS_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {"case_ms.p50": "ms", "cases_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import tumorbox from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "tumorbox" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no tumorbox sources under {src}")
    sys.path.insert(0, str(src))
    import tumorbox
    import tumorbox.cli

    if Path(tumorbox.__file__).resolve().parent != src / "tumorbox":
        raise SystemExit(f"benchmark: imported tumorbox from {tumorbox.__file__}, not {src}")
    m = sys.modules
    return types.SimpleNamespace(
        **{name: m[f"tumorbox.{name}"] for name in (
            "cli", "clustering", "components", "errors", "evaluate", "mha", "phantom",
            "pipeline", "preprocess", "volume",
        )}
    )


def environment(nproc):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_model": cpu,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


def load_references():
    try:
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def save_reference(workload, key, entry):
    """Merge one recorded entry into references.json under a file lock."""
    with open(REFERENCES.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        refs = load_references()
        refs.setdefault(workload, {})[key] = entry
        text = json.dumps(refs, indent=1, sort_keys=True) + "\n"
        tmp = REFERENCES.with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, REFERENCES)


def perturbed(reference):
    """The reference with its first outcome changed, for the self-check."""
    reference = json.loads(json.dumps(reference))
    outcomes = reference["outcomes"]
    key = sorted(outcomes)[0]
    value = outcomes[key]
    outcomes[key] = [value[0] + 1, *value[1:]] if isinstance(value, list) and value else [0, 0, 0, 0]
    return reference


def end_to_end(run, workload, cli_cases):
    latency = run.samples["extract" if workload == "cli-disk" else next(iter(run.samples))]
    if workload == "cli-disk":
        evals = run.samples["eval"]
        done, seconds = len(evals) * cli_cases, sum(ms for _, ms in evals) / 1000.0
    else:
        done, seconds = len(latency), sum(ms for _, ms in latency) / 1000.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "case_ms.p50": (median(ms for _, ms in latency), len(latency)),
        "cases_per_s": (done / seconds, done),
        "setup_s": (median(run.setup_s), len(run.setup_s)),
        "peak_rss_mb": (rss_mb, 1),
    }


def print_metric(name, value, unit, n):
    print(f"metric {name} = {value:.6g} {unit} (n={n})")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="input set is seed %% 16")
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out", action="store_true", help="use the held-out input set instead of seed %% 16")
    p.add_argument("--record", action="store_true", help="run every input once and record its reference outcomes")
    p.add_argument("--perturb-reference", action="store_true", help="self-check: alter one reference outcome")
    p.add_argument("--out", default=None, help="also write the full result as JSON here")
    args = p.parse_args(argv)
    if args.record and args.trace:
        p.error("--record measures nothing; use it with --trace 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    tb = import_program()
    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True))
    key = workloads.set_key(args.seed, args.held_out)
    base = workloads.base_seed(args.seed, args.held_out)
    reference = load_references().get(args.workload, {}).get(key)
    if args.perturb_reference and reference:
        reference = perturbed(reference)
    run = workloads.Run(reference, record=args.record)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    layers = {}
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, tb)
            try:
                session = workloads.open_session(tb, args.workload, run, base, 1, work, nproc)
            finally:
                tracer.unwrap_all()
            done = workloads.timed_cycle(session.items, args.seconds / 2, session.run_item)
            tracing.install(tracer, tb)
            try:
                replay_start = len(tracer.spans)
                replay = [(k, item, session.run_item(k, item)) for k, item, _ in done]
            finally:
                tracer.unwrap_all()
            session.finish(done)
            layers = tracing.layer_metrics(tracer.spans, nproc)
            cases = layers["pipeline.case_ms"][1] or 1
            untraced = sum(ms for *_, ms in done)
            traced = sum(ms for *_, ms in replay)
            layers["trace.overhead_ms_per_case"] = ((traced - untraced) / cases, len(replay))
            layers["trace.overhead_frac"] = ((traced - untraced) / untraced, len(replay))
            layers["trace.spans_per_case"] = ((len(tracer.spans) - replay_start) / cases, len(replay))
            tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            session = workloads.open_session(tb, args.workload, run, base, workloads.SETUP_REPEATS, work, nproc)
            done = workloads.timed_cycle(session.items, args.seconds, session.run_item, full_pass=args.record)
            session.finish(done)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    if args.record:
        save_reference(args.workload, key, run.reference_entry(run.extra["mean_dice"][0]))
        print(f"recorded {args.workload} set {key}: {len(run.outcomes)} outcomes")

    print(f"workload {args.workload} seed {args.seed} input-set {key} inputs {run.inputs_sha256[:16]}")
    if not args.record and reference and reference.get("inputs_sha256") not in (None, run.inputs_sha256):
        run.problems.append("generated inputs differ from the recorded ones for this input set")
    metrics = {}
    if args.trace:
        for name, unit in tracing.LAYER_UNITS.items():
            value, n = layers[name]
            print_metric(name, value, unit, n)
            metrics[name] = {"value": value, "unit": unit}
    else:
        e2e = end_to_end(run, args.workload, workloads.CLI_CASES)
        for name, (value, n) in e2e.items():
            print_metric(name, value, END_TO_END_UNITS[name], n)
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        if args.workload == "cli-disk":
            atlas = [ms / 1000.0 for _, ms in run.samples["atlas"]]
            print_metric("extract_debug_ms.p50", e2e["case_ms.p50"][0], "ms", e2e["case_ms.p50"][1])
            print_metric("eval.cases_per_s", e2e["cases_per_s"][0], "1/s", e2e["cases_per_s"][1])
            print_metric("atlas_build_s", median(atlas), "s", len(atlas))
    for name in ("mean_dice", "eval_mean_dice"):
        if name in run.extra:
            dice, n = run.extra[name]
            print_metric(name.replace("eval_", "eval."), dice, "dice", n)
    print_metric("failed_frac", run.failed / max(run.attempted, 1), "frac", run.attempted)
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not run.problems
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    if args.out:
        full = {"env": env, "workload": args.workload, "seed": args.seed, "input_set": key,
                "seconds": args.seconds, "trace": args.trace, "problems": run.problems,
                "setup_s": run.setup_s, "samples_ms": run.samples, **result}
        Path(args.out).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
