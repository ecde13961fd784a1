"""Benchmark runner for fbt: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {sweep,shoot,cli} --seed N
                             --seconds S --trace {0,1}

Run from anywhere; fbt is imported from the `src/` directory next to this
benchmark's directory, never from an installed copy.  Scratch files (cli
configs and artifacts, span dumps, result records) go to `.perfbench-work/`
at the repository root.

--trace 0  set-up, then whole rounds of the seeded task list until S seconds
           have passed; prints the end-to-end metrics, with times scaled to
           a reference host speed (see "host speed" below).
--trace 1  set-up, then the first round (four for cli) untraced and the same
           rounds twice traced; prints the per-layer metrics, a self-time
           table per layer, the tracing overhead, and whether the call counts
           of the two traced passes repeat exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 unless fbt cannot be imported.
README.md in this directory describes the workloads and the metrics.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 3
MIN_ROUNDS = 2
ROUNDS_BUILT = {"sweep": 16, "shoot": 16, "cli": 12}
# cli rounds cycle through 0-3 conjugate instants; trace a whole cycle
TRACE_ROUNDS = {"sweep": 1, "shoot": 1, "cli": 4}
END_TO_END_UNITS = {"wall_s": "s", "task_s.p50": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _import_fbt():
    """Import fbt from SRC; None if it is missing or resolves elsewhere."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [SRC, HERE]
    try:
        import fbt
    except ImportError as exc:
        print(f"perfbench: cannot import fbt from {SRC}: {exc}", file=sys.stderr)
        return None
    if os.path.commonpath([os.path.abspath(fbt.__file__), SRC]) != SRC:
        print(f"perfbench: fbt resolved to {fbt.__file__}, not under {SRC}",
              file=sys.stderr)
        return None
    return fbt


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    """{library: thread count} for every OpenBLAS this process has loaded."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return out
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment():
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = _blas_threads()
    return {
        "nproc": nproc,
        "blas_threads": blas,
        "blas_threads_within_nproc": all(n <= nproc for n in blas.values()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# host speed
#
# The shared 2-vCPU host this benchmark was written on changes speed by up to
# a third within minutes: a fixed pure-Python loop timed in 10 s windows over
# one minute ranged from 0.080 to 0.113 s per pass.  Every timed interval is
# therefore bracketed by runs of a fixed reference kernel and scaled to the
# kernel's nominal speed; the unscaled times are reported and recorded too.
# Of three kernels tried on eight sweep runs (interpreted arithmetic, 2x2
# numpy solves, a small solve_ivp problem), interpreted arithmetic tracked
# fbt best: it cut the spread of wall_s over the runs from 0.12 to 0.07,
# while the other two widened it.

REF_ITERATIONS = 100_000
# the kernel's time on that host in a quiet period: scaled times are seconds
# at that speed
REF_NOMINAL_S = 0.010


def reference_s():
    """Time of one pass of a fixed kernel of interpreted integer arithmetic,
    the kind of work that dominates fbt's hot paths; it calls no library."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += (i * i) % 7 + i // 3
    return time.perf_counter() - start


# kernel samples this close to a task also count towards its speed: the host
# drifts over tens of seconds, while single samples jitter by 10-20 %
REF_WINDOW_S = 2.0


def scaled(raw_s, ref_before, ref_after):
    return raw_s * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


# ---------------------------------------------------------------------------
# running tasks


class Runner:
    """Runs tasks one after another, timing `work` and checking its outputs.

    run_rounds() adds a record per task: its raw time and the reference time
    taken just before it; close() takes the last reference and adds the
    scaled time "s" to every record."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.exit_codes = []
        self.digests = []
        self.records = []

    def run(self, task, task_id):
        """Raw seconds spent in task.work(); failures are counted."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                out = task.work()
            else:
                out = self.tracer.run_task(task_id, task.work)
            elapsed = time.perf_counter() - start
            if isinstance(out, int):  # cli exit code
                self.exit_codes.append(out)
            digest = task.check(out)
        except Exception as exc:  # a failed task is counted, not fatal
            elapsed = time.perf_counter() - start
            self.failed += 1
            self.failures.append(f"{task.kind} {task.inputs}: "
                                 f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return elapsed
        if digest is not None:
            self.digests.append((task_id, digest))
        return elapsed

    def close(self):
        """Scale each task by the median kernel time over the samples taken
        just before and after it and within REF_WINDOW_S of it."""
        at = time.perf_counter()
        samples = [(rec["start"], rec["ref_s"]) for rec in self.records]
        samples.append((at, reference_s()))
        for i, rec in enumerate(self.records):
            lo = rec["start"] - REF_WINDOW_S
            hi = rec["start"] + rec["raw_s"] + REF_WINDOW_S
            near = [ref for k, (t, ref) in enumerate(samples)
                    if k in (i, i + 1) or lo <= t <= hi]
            rec["s"] = rec["raw_s"] * REF_NOMINAL_S / statistics.median(near)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def run_rounds(runner, rounds, first, count):
    for r in range(first, first + count):
        for i, task in enumerate(rounds[r % len(rounds)]):
            ref = reference_s()
            task_id = f"r{r}.{i}.{task.kind}"
            start = time.perf_counter()
            raw = runner.run(task, task_id)
            runner.records.append({"id": task_id, "round": r, "kind": task.kind,
                                   "start": start, "raw_s": raw, "ref_s": ref})


def set_up(workload, seed, run_dir, import_s):
    """Build the seeded task list and run the warm-up task, SETUP_REPEATS
    times.  Returns the task list, setup_s (import time plus the median
    repetition, scaled) and the raw durations."""
    import workloads

    refs = [reference_s()]
    raw = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rounds, warmup = workloads.build(workload, seed, ROUNDS_BUILT[workload],
                                         run_dir)
        warm = Runner()
        warm.run(warmup, "warmup")
        raw.append(time.perf_counter() - start)
        refs.append(reference_s())
        if warm.failed:
            raise RuntimeError(f"warm-up task failed: {warm.failures}")
    reps = [scaled(t, refs[k], refs[k + 1]) for k, t in enumerate(raw)]
    setup_s = import_s * REF_NOMINAL_S / refs[0] + statistics.median(reps)
    return rounds, setup_s, {"import_s": import_s, "repeats_s": raw,
                             "refs_s": refs}


def percentile(values, q):
    """q-th percentile by the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def round_sums(records, key):
    sums = {}
    for rec in records:
        sums[rec["round"]] = sums.get(rec["round"], 0.0) + rec[key]
    return list(sums.values())


def measure(rounds, seconds):
    runner = Runner()
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        run_rounds(runner, rounds, r, 1)
        r += 1
    runner.close()
    recs = runner.records
    task_s = [rec["s"] for rec in recs]
    kinds = {}
    for rec in recs:
        kinds.setdefault(rec["kind"], []).append(rec["s"])
    report = {
        "rounds": r,
        "tasks": len(recs),
        "measured_s": time.perf_counter() - start,
        "per_kind_p50_s": {k: statistics.median(v) for k, v in kinds.items()},
        "raw_wall_s": statistics.fmean(round_sums(recs, "raw_s")),
        "raw_task_s.p50": statistics.median(rec["raw_s"] for rec in recs),
    }
    # the highest percentile with at least ten tasks beyond it, p90 at most
    q = min(90, int(100 * (1 - 10 / len(recs)))) if len(recs) >= 20 else 0
    if q >= 50:
        report["tail"] = (f"task_s.p{q}", percentile(task_s, q))
    metrics = {
        "wall_s": statistics.fmean(round_sums(recs, "s")),
        "task_s.p50": statistics.median(task_s),
    }
    return runner, metrics, report


def trace(rounds, n_rounds):
    import tracing

    runner = Runner()
    run_rounds(runner, rounds, 0, n_rounds)
    runner.close()
    untraced = sum(rec["s"] for rec in runner.records)
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        traced = Runner(tracer)
        tracer.install()
        try:
            run_rounds(traced, rounds, 0, n_rounds)
        finally:
            tracer.uninstall()
        traced.close()
        runner.merge(traced)
        passes.append((tracer, traced, sum(rec["s"] for rec in traced.records)))
    layers = [tracing.layer_metrics(t, tr.exit_codes) for t, tr, _ in passes]
    calls = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in layers]
    metrics = dict(layers[0])
    metrics["trace.overhead_s"] = statistics.fmean(t for _, _, t in passes) - untraced
    report = {
        "rounds": n_rounds,
        "untraced_wall_s": untraced,
        "traced_wall_s": [t for _, _, t in passes],
        "calls_repeat": calls[0] == calls[1],
        "calls_differing": sorted(k for k in calls[0] if calls[0][k] != calls[1][k]),
        "self_time_s": tracing.self_time_table(passes[0][0]),
        "digests_repeat": passes[0][1].digests == passes[1][1].digests,
    }
    return runner, metrics, report, passes[0][0]


def _unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".dof_max"):
        return "dof"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "shoot", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_fbt() is None:
        return 2
    import_s = time.perf_counter() - PROCESS_T0

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    run_dir = os.path.join(WORK, run_id)
    os.makedirs(run_dir, exist_ok=True)
    try:
        rounds, setup_s, setup_rec = set_up(args.workload, args.seed, run_dir,
                                            import_s)
        if args.trace:
            runner, metrics, report, tracer = trace(rounds,
                                                    TRACE_ROUNDS[args.workload])
            tracer.write(os.path.join(WORK, run_id + "-spans.json"))
        else:
            runner, metrics, report = measure(rounds, args.seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "setup": setup_rec,
        "attempted": runner.attempted, "failed": runner.failed,
        "error_ratio": runner.failed / runner.attempted,
        "failures": runner.failures,
        "report": report,
        "tasks": runner.records,
        "artifact_digests": runner.digests,
        "metrics": metrics,
    }
    with open(os.path.join(WORK, run_id + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
        fh.write("\n")
    print_report(record)

    correct = runner.failed == 0 and (not args.trace or report["calls_repeat"])
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


def print_report(rec):
    env = rec["environment"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}")
    print("environment " + json.dumps(env, sort_keys=True))
    setup = rec["setup"]
    print(f"set-up (raw): import {setup['import_s']:.3f} s, repeats "
          + ", ".join(f"{s:.3f}" for s in setup["repeats_s"]) + " s; reference "
          + ", ".join(f"{1e3 * s:.2f}" for s in setup["refs_s"])
          + f" ms (nominal {1e3 * REF_NOMINAL_S:.1f} ms)")
    print(f"tasks attempted {rec['attempted']}, failed {rec['failed']}, "
          f"error_ratio {rec['error_ratio']:.4g}")
    for line in rec["failures"]:
        print("  FAILED " + line)
    rep = rec["report"]
    if rec["trace"]:
        print(f"tracing overhead over {rep['rounds']} round(s): traced "
              + ", ".join(f"{t:.3f}" for t in rep["traced_wall_s"])
              + f" s vs untraced {rep['untraced_wall_s']:.3f} s "
              f"(+{rec['metrics']['trace.overhead_s']:.3f} s)")
        print(f"*.calls repeat exactly across the two traced passes: "
              f"{rep['calls_repeat']} {rep['calls_differing'] or ''}")
        print(f"cli artifact digests repeat across passes: {rep['digests_repeat']}")
        print("self time per layer (first traced pass):")
        total = sum(rep["self_time_s"].values())
        for layer, s in sorted(rep["self_time_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:8s} {s:9.4f} s  {100 * s / total:5.1f} %")
        print("per-layer metrics:")
        for k, v in rec["metrics"].items():
            print(f"  {k:36s} {v:.6g} {_unit(k)}")
    else:
        print(f"rounds {rep['rounds']}, tasks {rep['tasks']}, "
              f"measured {rep['measured_s']:.2f} s; unscaled wall_s "
              f"{rep['raw_wall_s']:.4f} s, task_s.p50 {rep['raw_task_s.p50']:.4f} s")
        for kind, t in rep["per_kind_p50_s"].items():
            print(f"  {kind:18s} p50 {t:.4f} s")
        if "tail" in rep:
            name, value = rep["tail"]
            print(f"{name} {value:.4f} s over {rep['tasks']} tasks")
        for k, v in rec["metrics"].items():
            n = f" (n={rep['tasks']})" if k == "task_s.p50" else ""
            print(f"{k} {v:.6g} {_unit(k)}{n}")
    if rec["artifact_digests"]:
        first = rec["artifact_digests"][:12]
        h = hashlib.sha256("".join(d for _, d in first).encode()).hexdigest()
        print(f"cli artifact digest, first round ({len(first)} tasks): {h}")


if __name__ == "__main__":
    sys.exit(main())
