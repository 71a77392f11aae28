"""liemat benchmark: one closed-loop client runs a workload's job list
pass after pass, each job starting when the previous one has finished.

    python3 perfbench/run.py --workload {closure,chain,recovery} \
        --seed N --seconds S --trace {0,1}

Prints every metric by name with its unit, then, as the last line of
stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer
ones from ``tracing.py``.  Every job's output is checked (``jobs.py``) and
its digest compared with ``golden.json``; any miss makes the exit code 1.
A run record and, when tracing, the spans are written under
``perfbench/out/``.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("closure", "chain", "recovery")
MIN_PASSES = 3
SETUP_REPEATS = 3
END_TO_END = (("pass_s.p50", "s"), ("job_s.geomean", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# Calibrated seconds: a measured interval times REF_S / r, where r is the
# time of _reference() measured next to the interval.  On the shared
# machines this benchmark runs on, CPU speed swings by up to 2x within
# seconds; the ratio to a fixed pure-Python kernel cancels most of that,
# while a change to liemat moves it in full.  Wall seconds are recorded too.
REF_S = 0.0025


def _reference():
    """Calibration kernel: Fraction arithmetic and an integer matrix product
    in plain Python, the same kind of work liemat does, but none of its code."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    rows = [tuple((i * j + 1) % 97 for j in range(24)) for i in range(24)]
    cols = list(zip(*rows))
    return acc, [[sum(map(int.__mul__, r, c)) % 97 for c in cols] for r in rows]


def _ref_time() -> float:
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - start)
    return best


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library():
    """Import liemat from this checkout's src/, or exit with status 1."""
    if not (SRC / "liemat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no liemat sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import liemat

    if Path(liemat.__file__).resolve().parent != SRC / "liemat":
        sys.exit(f"perfbench: imported liemat from {liemat.__file__}, not from {SRC}")


def _timed_import() -> tuple[float, float]:
    """Import liemat afresh, as a new process would; return the wall and
    calibrated seconds it took."""
    for name in [m for m in sys.modules if m == "liemat" or m.startswith("liemat.")]:
        del sys.modules[name]
    ref_before = _ref_time()
    start = time.perf_counter()
    importlib.import_module("liemat.cli")  # the package and the CLI the recovery jobs drive
    wall = time.perf_counter() - start
    return wall, wall * 2 * REF_S / (ref_before + _ref_time())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """Checks each job output and counts the jobs whose outcome differs
    from the expected one."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, job, output, error):
        self.attempted += 1
        problem, text = error, ""
        if error is None:
            try:
                problem, text = job.check(output)
            except Exception as exc:  # malformed output is a failed job too
                problem = f"check raised {type(exc).__name__}: {exc}"
        digest = _digest(text)
        if problem is None and self.golden.get(job.name) != digest:
            problem = f"digest {digest} differs from the golden {self.golden.get(job.name)}"
        if self.digests.setdefault(job.name, digest) != digest:
            problem = problem or "output differs from an earlier pass"
        if problem:
            self.failed += 1
            self.problems.append(f"{job.name}: {problem}")


def _run_pass(job_list, checker, tracer=None) -> tuple[list[float], list[float]]:
    """Run every job once; return each job's wall and calibrated seconds.
    The output checks run after the pass, untimed."""
    gc.collect()
    wall, cal, results = [], [], []
    ref_before = _ref_time()
    for index, job in enumerate(job_list):
        if tracer is not None:
            tracer.start_job(index)
        start = time.perf_counter()
        try:
            output, error = job.run(), None
        except Exception as exc:  # a raising job is a failed job, not a crash
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        wall.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_job()
        ref_after = _ref_time()
        cal.append(wall[-1] * 2 * REF_S / (ref_before + ref_after))
        ref_before = ref_after
        results.append((output, error))
    for job, (output, error) in zip(job_list, results):
        checker.check(job, output, error)
    return wall, cal


def _git_describe():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _per_layer_unit(name: str) -> str:
    if name.endswith(("self_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_library()
    imports = [_timed_import() for _ in range(SETUP_REPEATS)]
    import jobs  # after the last import, so jobs and tracing see the same classes

    golden = json.loads((HERE / "golden.json").read_text())
    golden = golden.get(args.workload, {}).get(jobs.instance_key(args.workload, args.seed), {})
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        builds, builds_cal = [], []
        for _ in range(SETUP_REPEATS):
            ref_before = _ref_time()
            start = time.perf_counter()
            job_list = jobs.build(args.workload, args.seed, workdir)
            builds.append(time.perf_counter() - start)
            builds_cal.append(builds[-1] * 2 * REF_S / (ref_before + _ref_time()))
        setup = {
            "setup_s": (statistics.median(c for _w, c in imports) + statistics.median(builds_cal), "s"),
            "setup_s.wall": (statistics.median(w for w, _c in imports) + statistics.median(builds), "s"),
        }
        checker = Checker(golden)
        if args.trace:
            metrics, record = _traced(job_list, checker, args)
        else:
            metrics, record = _untraced(job_list, checker, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra = {}
    if not args.trace:
        metrics.update(setup)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        extra = {name: value for name, value in metrics.items() if name.endswith(".wall")}
        metrics = {name: metrics[name] for name, _unit in END_TO_END}
    error_rate = checker.failed / checker.attempted
    record.update(
        workload=args.workload,
        seed=args.seed,
        instance=jobs.instance_key(args.workload, args.seed),
        seconds=args.seconds,
        trace=args.trace,
        git_describe=_git_describe(),
        python=sys.version,
        nproc=os.cpu_count(),
        cpus_available=len(os.sched_getaffinity(0)),
        setup_builds_s=builds,
        setup_builds_cal_s=builds_cal,
        import_s=[w for w, _c in imports],
        import_cal_s=[c for _w, c in imports],
        attempted=checker.attempted,
        failed=checker.failed,
        error_rate=error_rate,
        problems=checker.problems,
        digests=checker.digests,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in {**metrics, **extra}.items()},
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload:9} {name:34} {shown} {unit}")
    print(f"{args.workload:9} {'error_rate':34} {error_rate:.6g} fraction")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _job_medians(job_list, pass_times):
    return {job.name: statistics.median(t[i] for t in pass_times) for i, job in enumerate(job_list)}


def _pass_metrics(job_list, pass_times, suffix=""):
    medians = _job_medians(job_list, pass_times).values()
    return {
        "pass_s.p50" + suffix: (statistics.median(sum(t) for t in pass_times), "s"),
        "job_s.geomean" + suffix: (math.exp(statistics.fmean(math.log(m) for m in medians)), "s"),
    }


def _pass_record(job_list, passes, key):
    """Every pass time, wall and calibrated, and the per-job medians."""
    wall, cal = [p[0] for p in passes], [p[1] for p in passes]
    return {
        f"{key}_count": len(passes),
        f"{key}_s": [sum(t) for t in cal],
        f"{key}_wall_s": [sum(t) for t in wall],
        f"{key}_job_median_s": _job_medians(job_list, cal),
        f"{key}_job_median_wall_s": _job_medians(job_list, wall),
        "tail_note": "no tail percentile is reported"
        + (": with fewer than 20 passes no percentile above the median has ten samples beyond it"
           if len(passes) < 20 else ""),
    }


def _untraced(job_list, checker, args):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(job_list, checker))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + sum(passes[-1][0]) > args.seconds:
            break
    metrics = _pass_metrics(job_list, [p[1] for p in passes])
    metrics.update(_pass_metrics(job_list, [p[0] for p in passes], ".wall"))
    return metrics, _pass_record(job_list, passes, "pass")


def _traced(job_list, checker, args):
    from tracing import Tracer

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(_run_pass(job_list, checker))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(_run_pass(job_list, checker, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed + sum(plain[-1][0]) + sum(traced[-1][0]) > args.seconds:
            break
    per_pass = [tracer.metrics() for tracer in tracers]
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    OUT.mkdir(exist_ok=True)
    with open(spans_path, "w") as spans_out:
        for index, tracer in enumerate(tracers):
            tracer.write_spans(spans_out, index)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        value = values[0] if isinstance(values[0], int) else statistics.median(values)
        metrics[name] = (value, _per_layer_unit(name))
    overhead = statistics.median(sum(p[1]) for p in traced) / statistics.median(sum(p[1]) for p in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    record = _pass_record(job_list, plain, "untraced_pass")
    record.update(_pass_record(job_list, traced, "traced_pass"))
    record["per_pass_layers"] = per_pass
    record["counts_repeat"] = all(
        m[k] == per_pass[0][k] for m in per_pass for k in m if isinstance(m[k], int)
    )
    record["spans_file"] = spans_path.name
    return metrics, record


if __name__ == "__main__":
    sys.exit(main())
