#!/usr/bin/env python3
"""hsp-sdp benchmark: solve, sweep and verify-catalog cost at desk scale.

Run from the repository root:

    python3 benchmarks/run.py --workload catalog-small --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload branches-large --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --smoke

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(see NOTES.md for both lists and what each workload is for). The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. `--smoke` runs every workload at a tiny size in both
modes and checks that each metric of BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
#: set-up is timed this many times per run, each in a fresh process; the median is reported
SETUP_REPEATS = 8
#: set-up times are scaled to a machine on which `python -c "import numpy"` takes this long
REF_START_S = 0.2
#: workers of the sweep-cli workload, pinned to the CPUs this process may use
SWEEP_WORKERS = 2
SMOKE_SEED = 7
SMOKE_TIMEOUT_S = 170


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (smoke mode)")
    ap.add_argument("--setup-only", action="store_true",
                    help="run the workload's set-up and exit (timed by the parent)")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload tiny, both modes, and check the output")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    return args


def import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "hsp_sdp", "__init__.py")):
        sys.exit(f"error: {SRC}/hsp_sdp not found; run from a full checkout")
    sys.path.insert(0, SRC)
    # single-threaded numerics, for this process and every child it starts
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import hsp_sdp

    if os.path.dirname(os.path.abspath(hsp_sdp.__file__)) != os.path.join(SRC, "hsp_sdp"):
        sys.exit(f"error: hsp_sdp imported from {hsp_sdp.__file__}, not from {SRC}")


def sweep_workers() -> int:
    return max(1, min(SWEEP_WORKERS, len(os.sched_getaffinity(0))))


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def environment(workers: int) -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None)
    except OSError:
        pass
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for entry in sorted(os.listdir(cache_dir)):
            try:
                level, kind, size = (_read(os.path.join(cache_dir, entry, f))
                                     for f in ("level", "type", "size"))
            except OSError:
                continue
            caches[f"L{level}-{kind}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cpu_caches": caches,
        "HSP_SDP_THREADS": workers,
        "platform": platform.platform(),
    }


class Timed(NamedTuple):
    k: int  # pass
    op: object
    start: float  # perf_counter at the op's start
    raw: float | None  # wall seconds, None if the op raised
    outcome: object


def run_op(op, k: int = 0) -> Timed:
    """Prepare, time and check one op; an op that raises counts as failed."""
    from bench_workloads import Outcome

    start = time.perf_counter()
    try:
        state = op.prepare()
        start = time.perf_counter()
        out = op.run(state)
        elapsed = time.perf_counter() - start
        return Timed(k, op, start, elapsed, op.check(state, out))
    except Exception as exc:  # a failing op is recorded, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return Timed(k, op, start, None, Outcome(False, note=f"{type(exc).__name__}: {exc}"))


def run_passes(make_ops, probe, seconds: float, min_ops: int, tracer=None, passes=None):
    """Whole passes until `seconds` elapsed and `min_ops` ran (or `passes` given)."""
    timed: list[Timed] = []
    start = time.perf_counter()
    k = 0
    while True:
        for op in make_ops(k):
            if tracer is not None:
                if not op.traceable:
                    continue
                tracer.begin_op(len(timed))
            probe.sample()
            timed.append(run_op(op, k))
        k += 1
        if passes is not None:
            if k >= passes:
                break
        elif time.perf_counter() - start >= seconds and len(timed) >= min_ops:
            break
    probe.sample(force=True)
    return timed


def scaled(probe, timed) -> list[tuple[Timed, float]]:
    """(op, seconds at reference machine speed) for every op that succeeded."""
    return [(t, t.raw * probe.factor(t.start)) for t in timed if t.outcome.ok]


def repeat_check(wl, timed) -> tuple[int, list]:
    """Re-run the first ops of pass 0; their counts must repeat exactly.

    Returns the number of ops re-run and a note per mismatch."""
    rerun = timed[: wl.repeat_ops]
    mismatches = []
    for t in rerun:
        again = run_op(t.op).outcome
        if again != t.outcome:
            mismatches.append(f"{type(t.op).__name__} seed {t.op.seed}: {t.outcome} then {again}")
    return len(rerun), mismatches


def count_summary(outcomes) -> dict:
    solves = [o for o in outcomes if o.solves == 1 and o.ok]
    if not solves:
        return {}
    n = len(solves)
    return {
        "queries_per_solve": sum(o.queries for o in solves) / n,
        "sim_evals_per_solve": sum(o.sim_evals for o in solves) / n,
        "solver.iterations_per_solve": sum(o.iterations for o in solves) / n,
        "solver.first_try_ratio": sum(o.first_try for o in solves) / n,
        "solves_counted": n,
    }


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any process it started."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def time_setups(args, count: int) -> list[tuple[float, float]]:
    """(raw, scaled) wall seconds of the workload's set-up, each in a fresh process.

    Each set-up is scaled by REF_START_S over the mean time of a reference
    process (`import numpy`) started just before and just after it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    ref_cmd = [sys.executable, "-c", "import numpy"]

    def wall(argv) -> float:
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: {' '.join(argv[1:3])} failed")
        return time.perf_counter() - start

    samples = []
    before = wall(ref_cmd)
    for _ in range(count):
        setup = wall(cmd)
        after = wall(ref_cmd)
        samples.append((setup, setup * REF_START_S / ((before + after) / 2)))
        before = after
    return samples


def p90(times) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]


def end_to_end(args, wl, probe):
    # half the set-up samples before the timed passes and half after, so they
    # see more than one spell of the machine's speed
    reps = 2 if args.tiny else SETUP_REPEATS
    setups = time_setups(args, reps // 2)
    wl.setup()
    timed = run_passes(wl.pass_ops, probe, args.seconds, 1 if args.tiny else wl.min_ops)
    setups += time_setups(args, reps - reps // 2)
    repeated = repeat_check(wl, timed)
    done = scaled(probe, timed)
    if not done:
        return None, timed, repeated, {}
    times = sorted(secs for _, secs in done)
    # median over passes of each pass's throughput, so a slow spell during a
    # few passes moves it less than a mean over the run would
    by_pass: dict = {}
    for t, secs in done:
        by_pass.setdefault(t.k, []).append(secs)
    tail = p90(times)
    raw = sorted(t.raw for t, _ in done)
    metrics = {
        "ops_per_s": (statistics.median(len(d) / sum(d) for d in by_pass.values()), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
    }
    info = {
        "ops_timed": len(times),
        "ops_beyond_p90": sum(1 for t in times if t > tail),
        "passes": timed[-1].k + 1,
        "solves_per_s": sum(t.outcome.solves for t, _ in done) / sum(times),
        "probe_kernel_ms_median": probe.median_ms(),
        "setup_samples_s": [round(scaled, 4) for _, scaled in setups],
        "raw_wall": {"ops_per_s": len(raw) / sum(raw), "op_ms_p50": statistics.median(raw) * 1e3,
                     "op_ms_p90": p90(raw) * 1e3,
                     "setup_s": statistics.median(setup for setup, _ in setups)},
        **count_summary(t.outcome for t in timed if t.k == 0),
    }
    return metrics, timed, repeated, info


def per_layer(args, wl, probe):
    import bench_trace

    tracer = bench_trace.Tracer()
    probe.sample(force=True)
    setup_start = time.perf_counter()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.remove()
    untraced = run_passes(wl.trace_ops, probe, args.seconds / 2, 1)
    passes = untraced[-1].k + 1
    tracer.install()
    try:
        traced = run_passes(wl.trace_ops, probe, 0, 0, tracer=tracer, passes=passes)
    finally:
        tracer.remove()
    repeated = repeat_check(wl, untraced)
    base = sum(secs for t, secs in scaled(probe, untraced) if t.op.traceable)
    with_trace = sum(secs for _, secs in scaled(probe, traced))
    scale = {i: probe.factor(t.start) for i, t in enumerate(traced)}
    scale[bench_trace.SETUP_OP] = probe.factor(setup_start)
    pass0 = {i for i, t in enumerate(traced) if t.k == 0}
    values, absent = bench_trace.layer_metrics(tracer, pass0, scale)
    values["trace.overhead_ratio"] = with_trace / base - 1 if base else 0.0
    extras = wl.layer_extras(scaled(probe, untraced))
    values.update(extras)
    for key in bench_trace.LAYER_UNITS:
        if key.startswith("cli.sweep.") and key not in extras:
            absent[key] = "measured on sweep-cli only"
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"spans-{wl.name}.jsonl.gz"))
    metrics = {k: (values.get(k, 0.0), unit) for k, unit in bench_trace.LAYER_UNITS.items()}
    info = {"passes": passes, "ops_traced": len(traced), "spans": len(tracer.spans),
            "probe_kernel_ms_median": probe.median_ms(), "absent": absent}
    return metrics, untraced + traced, repeated, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    import_program()
    import bench_speed
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(bench_workloads.WORKLOADS)}")
    workers = sweep_workers()
    wl = bench_workloads.WORKLOADS[args.workload](args.seed, args.tiny, workers)
    if args.setup_only:
        wl.setup()
        return 0

    env = environment(workers)
    measure = per_layer if args.trace else end_to_end
    metrics, timed, (rerun, mismatches), info = measure(args, wl, bench_speed.SpeedProbe())
    if metrics is None:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    failures = [t.outcome.note for t in timed if not t.outcome.ok]
    attempted = len(timed) + rerun
    failed = len(failures) + len(mismatches)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for key, value in info.items():
        if key != "absent":
            print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, why in sorted(info.get("absent", {}).items()):
        print(f"  absent {name}: {why}")
    for note in failures[:10] + mismatches[:10]:
        print(f"  FAILED {note}")
    if mismatches:
        print(f"  counts did not repeat on {len(mismatches)} re-run ops")

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "info": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{wl.name}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def smoke() -> int:
    """Every workload, tiny, both modes: each BENCHMARK.json metric is printed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
                   "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace", str(trace),
                   "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    problems.append(f"failed {result['failed']} of {result['attempted']}")
                for metric in spec[key]:
                    got = result["metrics"].get(metric["name"])
                    if got is None:
                        problems.append(f"missing {metric['name']}")
                    elif got["unit"] != metric["unit"]:
                        problems.append(f"{metric['name']} unit {got['unit']} != {metric['unit']}")
            ok &= not problems
            print(f"smoke {wl['name']} trace {trace}: {'ok' if not problems else 'FAIL'}")
            for line in problems:
                print(f"  {line}")
    print("smoke: PASS" if ok else "smoke: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
