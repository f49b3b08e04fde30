"""trielem benchmark: one closed-loop client calling ``trielem.cli.run``
in-process, one op after another, on a single thread.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run it from the root of a trielem checkout; it imports the package from
``src/``.  Each pass runs the workload's whole op list with the program's
caches cleared first, as every command-line invocation starts.  Passes
repeat until ``--seconds`` is used up, and at least MIN_PASSES times.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run that alternates untraced and traced passes.  Human
readable lines come first; the last line of stdout is one JSON object.
Results, with a host calibration taken before and after, are also written
to ``.perfbench/results/``.  Exit code 1 means a check of the benchmark
itself failed, 2 that the checkout is not usable.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # fewest timed set-ups in an untraced run
MIN_PASSES = 3  # so that a median over passes outvotes one outlier
P90_TAIL = 10  # samples that must lie beyond the 90th percentile
CALIBRATION_LOOPS = 300_000
CALIBRATION_REPEATS = 5
THROTTLE_RATIO = 1.25

# Call counts each workload must make; a traced run that records zero for
# one of them means the tracer lost a call site.
REQUIRED_CALLS = {
    "tables": (
        "cli.run.calls",
        "catalog.parse_expr.calls",
        "linalg.determinant.calls",
        "linalg.signature.calls",
        "linalg.smith_normal_form.calls",
        "linalg.rational_inverse.calls",
        "lattice.discriminant_group.calls",
        "lattice.discriminant_form.calls",
        "lattice.forms_match_opposite.calls",
        "lattice.milgram_holds.calls",
        "classify.verify_pair.calls",
        "classify.table1_rows.calls",
        "cyclotomic.ops",
        "fixed_locus.calls",
    ),
    "gram-info": (
        "cli.run.calls",
        "lattice.lattice_from_dict.calls",
        "linalg.determinant.calls",
        "linalg.signature.calls",
        "linalg.smith_normal_form.calls",
        "lattice.discriminant_group.calls",
        "lattice.discriminant_form.calls",
    ),
    "order3-search": (
        "cli.run.calls",
        "lattice.lattice_from_dict.calls",
        "linalg.signature.calls",
        "linalg.smith_normal_form.calls",
        "lattice.discriminant_group.calls",
        "isometry.short_vectors.calls",
        "isometry.enumerate_isometries.calls",
        "isometry.is_isometry.calls",
        "isometry.order_of.calls",
        "isometry.discriminant_action.calls",
        "isometry.has_order3_trivial_on_A.calls",
    ),
}


class BenchError(Exception):
    """The benchmark itself, not the program, is at fault."""


def import_trielem(root: Path):
    """Import trielem, with its command-line module, afresh from the
    checkout's src/."""
    src = root / "src"
    if not (src / "trielem" / "__init__.py").is_file():
        raise FileNotFoundError(f"no trielem package under {src}")
    for name in [n for n in sys.modules if n == "trielem" or n.startswith("trielem.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    tri = importlib.import_module("trielem")
    importlib.import_module("trielem.cli")
    if not Path(tri.__file__).resolve().is_relative_to(src.resolve()):
        raise FileNotFoundError(f"trielem was imported from {tri.__file__}, not {src}")
    return tri


def setup(root: Path, workload: str, seed: int, workdir: Path):
    """What set-up costs: importing trielem, generating and writing inputs.
    Returns the workload's variants and the seconds this took."""
    start = time.perf_counter()
    tri = import_trielem(root)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    variants = workloads.WORKLOADS[workload](tri, random.Random(seed), root, workdir)
    return variants, time.perf_counter() - start


def calibrate() -> float:
    """Median time of a fixed pure-Python loop; flags a throttled host and
    never scales a metric."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(cli, ops, caches):
    """One cold pass over the op list: (wall seconds, per-op seconds,
    number of wrong ops)."""
    for fn in caches.values():
        fn.cache_clear()
    gc.collect()
    latencies = []
    results = []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            res = cli.run(list(op.argv))
            out = (res.exit_code, res.payload)
        except Exception:  # an uncaught exception is a wrong answer
            out = None
        latencies.append(clock() - t0)
        results.append(out)
    wall = clock() - start
    wrong = sum(1 for op, out in zip(ops, results) if out is None or not op.check(*out))
    return wall, latencies, wrong


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def min_passes(n_ops: int) -> int:
    """At least MIN_PASSES, and enough that the 90th percentile has
    P90_TAIL samples beyond it."""
    return max(MIN_PASSES, math.ceil(P90_TAIL * 10 / n_ops))


def measure(cli, variants, caches, seconds, trace_with=None, resetup=None):
    """Run passes until ``seconds`` is spent; untraced pass k runs variant
    k mod len(variants).  Without a tracer every pass is timed for the
    end-to-end metrics; with one, passes alternate untraced and traced and
    each traced pass yields a snapshot.  ``resetup``, if given, runs and
    returns the time of one more set-up between two passes, so that set-up
    is sampled across the run like the passes are."""
    deadline = time.perf_counter() + seconds
    need = 1 if trace_with else min_passes(len(variants[0]))
    plain, traced, latencies, snapshots, setups = [], [], [], [], []
    wrong = attempted = 0
    while True:
        if resetup is not None and plain:
            setups.append(resetup())
        tracing = trace_with is not None and len(traced) < len(plain)
        # A traced pass reruns the variant of the untraced pass before it.
        ops = variants[(len(plain) - tracing) % len(variants)]
        if tracing:
            trace_with.reset()
            trace_with.install()
            try:
                wall, lat, bad = run_pass(cli, ops, caches)
            finally:
                trace_with.remove()
            snapshots.append({**trace_with.snapshot(), **tracer.cache_metrics(caches)})
            traced.append(wall)
        else:
            wall, lat, bad = run_pass(cli, ops, caches)
            plain.append(wall)
            latencies.extend(lat)
        wrong += bad
        attempted += len(ops)
        if (trace_with is not None and len(traced) < len(plain)) or len(plain) < need:
            continue
        # The next step is one pass, or one untraced-traced pair.
        step = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
        step += statistics.median(setups) if setups else 0.0
        if time.perf_counter() + step > deadline:
            break
    return plain, traced, latencies, snapshots, setups, wrong, attempted


def end_to_end(plain, latencies, setup_times):
    lat = sorted(latencies)
    return {
        "wall_s": (statistics.median(plain), "s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * nearest_rank(lat, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(snapshots, plain, traced, calib):
    out = {}
    for key in snapshots[0]:
        values = [snap[key] for snap in snapshots]
        unit = "s" if key.endswith("_s") else "ratio" if key.endswith("ratio") else "count"
        out[key] = (statistics.median_low(values), unit)
    out["trace.wall_s"] = (statistics.median(traced), "s")
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    out["host.calib_before_s"] = (calib[0], "s")
    out["host.calib_after_s"] = (calib[1], "s")
    return out


def check_coverage(workload, metrics):
    missing = [key for key in REQUIRED_CALLS[workload] if not metrics[key][0]]
    if missing:
        raise BenchError(f"traced run recorded no calls on {workload} for: {', '.join(missing)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    work = root / ".perfbench"
    workdir = work / f"inputs-{args.workload}-{args.seed}"
    try:
        calib_before = calibrate()
        variants, first_setup = setup(root, args.workload, args.seed, workdir)
        modules = tracer.trielem_modules()
        caches = tracer.find_caches(modules)
        trace = tracer.Tracer(modules, caches) if args.trace else None

        def resetup():
            # A fresh import replaces the trielem entries of sys.modules;
            # the passes keep calling the modules imported first.
            return setup(root, args.workload, args.seed, workdir)[1]

        plain, traced, latencies, snapshots, setups, wrong, attempted = measure(
            modules["cli"], variants, caches, args.seconds, trace,
            None if args.trace else resetup,
        )
        setup_times = [first_setup, *setups]
        while not args.trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(resetup())
        calib = (calib_before, calibrate())
        if trace:
            metrics = per_layer(snapshots, plain, traced, calib)
            check_coverage(args.workload, metrics)
        else:
            metrics = end_to_end(plain, latencies, setup_times)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot set up in {root}: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = variants[0]
    repeats = sum(op.repeat for op in ops)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(variants)} variant(s), {repeats / len(ops):.3f} verbatim repeats, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  wrong_frac = {wrong / attempted:.6g} fraction ({wrong} of {attempted} ops)")
    if not args.trace:
        tail = len(latencies) - math.ceil(0.9 * len(latencies))
        print(f"  op latency samples = {len(latencies)} ({tail} beyond p90)")
    throttled = calib[1] > THROTTLE_RATIO * calib[0] or calib[0] > THROTTLE_RATIO * calib[1]
    print(f"  host calibration = {calib[0]:.4f} s before, {calib[1]:.4f} s after"
          f"{' (host speed changed during the run)' if throttled else ''}")

    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        wrong_frac=wrong / attempted,
        repeat_share=repeats / len(ops),
        passes={"untraced_s": plain, "traced_s": traced},
        setups_s=setup_times,
        op_samples=len(latencies),
        calibration_s={"before": calib[0], "after": calib[1], "throttled": throttled},
    )
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
