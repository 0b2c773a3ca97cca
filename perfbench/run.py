"""Benchmark of the gbh-fdr command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload mc_campaign --seed 0 --seconds 25 --trace 0

Workloads: mc_campaign, audit, adjust_table, bound_grid (see workloads.py).

--trace 0 runs the workload's CLI jobs as subprocesses in a closed loop (one
job at a time, one client) for about --seconds, timing one `gbh-fdr --help`
before each round as the set-up cost.  It reports the end-to-end metrics: the
mean wall time of a round of jobs, the mean set-up time and the peak RSS.

--trace 1 runs the per-layer timings in-process (layers.py), then the
workload's jobs twice through `cli.main`: once plain and once with spans
around the calls between layers (tracing.py).  It reports the per-layer
metrics, and never end-to-end numbers.

Every job's output is checked; a job that fails a check counts in `failed`.
Human-readable metric lines go to stdout, and the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  A fuller
results file with provenance, quartiles and input digests is written to
perfbench/results/, and the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_REPEATS = 7
JOB_TIMEOUT_S = 120
# A job's peak memory must stay under this share of the machine's memory.
RSS_SHARE_LIMIT = 0.25

# The metrics the last line carries without --trace; every other metric is
# printed and written to the results file only.
END_TO_END = ("round_s", "setup_s", "peak_rss_mb")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_subprocess(job: workloads.Job) -> workloads.JobRun:
    if job.output is not None:
        Path(job.output).unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "gbh_fdr.cli", *job.argv], cwd=ROOT,
                              env=cli_env(), capture_output=True, timeout=JOB_TIMEOUT_S)
        code, stdout = done.returncode, done.stdout
    except subprocess.TimeoutExpired as exc:
        code, stdout = -1, exc.stdout or b""
    wall = time.perf_counter() - start
    return workloads.JobRun(job, wall, code, stdout, _primary(job, stdout))


def run_in_process(job: workloads.Job, main) -> workloads.JobRun:
    if job.output is not None:
        Path(job.output).unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(list(job.argv))
        wall = time.perf_counter() - start
    stdout = out.getvalue().encode("utf-8")
    return workloads.JobRun(job, wall, code, stdout, _primary(job, stdout))


def _primary(job: workloads.Job, stdout: bytes) -> bytes:
    if job.output is None:
        return stdout
    path = Path(job.output)
    return path.read_bytes() if path.is_file() else b""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def failures(workload, runs: dict, reference: dict, frozen: dict) -> dict:
    """Job name -> list of failed checks, for one pass over the jobs.

    reference: job name -> digest of an earlier pass (None for the first);
    frozen: job name -> digest pinned at the default seed (None at other seeds).
    """
    bad = defaultdict(list)
    for name, run in runs.items():
        if run.exit_code != 0:
            bad[name].append(f"exit code {run.exit_code}")
    if not bad:
        try:
            for name, message in workload.check(runs):
                bad[name].append(message)
        except Exception as exc:  # a malformed output fails every job of the pass
            for name in runs:
                bad[name].append(f"output check raised {exc!r}")
    for name, run in runs.items():
        digest = sha256(run.primary)
        if reference is not None and digest != reference[name]:
            bad[name].append("output differs from the first pass")
        if frozen is not None and digest != frozen.get(name):
            bad[name].append("output differs from the digest frozen at the default seed")
    return dict(bad)


def summary(unit: str, better: str, samples: list, value: float = None) -> dict:
    """The reported value (the median unless given) with the samples' spread."""
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else samples * 3)
    median = statistics.median(samples)
    return {"value": median if value is None else value, "unit": unit, "better": better,
            "n": len(samples), "median": median, "q1": q1, "q3": q3, "samples": samples}


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {"nproc": os.cpu_count(), "threads_used": workloads.safe_threads(),
            "cpu_model": cpu, "python": platform.python_version(), **versions,
            "memory_mb": memory_mb(),
            "git_commit": commit, "workload_seed": seed}


def measure_end_to_end(workload, seconds: float, frozen: dict) -> tuple:
    """Rounds of the workload's jobs, each after one timed `--help`, until the
    next round would overrun `seconds` (at least one round).  Then more `--help`
    runs if fewer than SETUP_REPEATS were made.  The set-up runs are not
    counted in `seconds`; spread this way they sample the same stretch of
    machine time as the rounds do."""
    setup, setup_bad = [], 0
    help_job = workloads.Job("help", ("--help",))

    def time_setup():
        nonlocal setup_bad
        run = run_subprocess(help_job)
        setup.append(run.wall_s)
        setup_bad += run.exit_code != 0 or not run.stdout.startswith(b"usage: gbh-fdr")

    samples, bad_by_round, reference = defaultdict(list), [], None
    spent = 0.0
    while True:
        time_setup()
        round_start = time.perf_counter()
        runs = {job.name: run_subprocess(job) for job in workload.jobs}
        bad = failures(workload, runs, reference, frozen)
        bad_by_round.append(bad)
        if reference is None:
            reference = {name: sha256(run.primary) for name, run in runs.items()}
        samples["round_s"].append(sum(run.wall_s for run in runs.values()))
        if not bad:
            for name, value in workload.metrics(runs).items():
                samples[name].append(value)
        took = time.perf_counter() - round_start
        spent += took
        if spent + took > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        time_setup()

    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(bad_by_round) * len(workload.jobs)
    failed = sum(len(bad) for bad in bad_by_round)
    checks = {
        "help_runs_ok": setup_bad == 0,
        # A child's max RSS includes the parent's at spawn, so the parent
        # must stay smaller than the jobs for the figure to be the job's.
        "peak_rss_is_a_job": own_rss < peak_rss,
        "peak_rss_under_limit": peak_rss < RSS_SHARE_LIMIT * memory_mb(),
    }
    # On a shared host the CPU speed can switch between levels every few
    # seconds.  The median of a few samples then jumps between those levels,
    # while their mean (total time over samples) moves less between runs.
    rounds = samples["round_s"]
    metrics = {
        "round_s": summary("s", "lower", rounds, statistics.fmean(rounds)),
        "setup_s": summary("s", "lower", setup, statistics.fmean(setup)),
        "peak_rss_mb": summary("MiB", "lower", [peak_rss]),
        "failed_jobs_ratio": summary("ratio", "lower", [failed / attempted]),
    }
    for name, values in samples.items():
        if name in workloads.NAMED_METRICS:
            metrics[name] = summary(*workloads.NAMED_METRICS[name], values,
                                    statistics.fmean(values))
    details = {"rounds": len(bad_by_round), "failures": bad_by_round, "job_sha256": reference,
               "parent_rss_mb": own_rss}
    return metrics, attempted, failed, checks, details


def memory_mb() -> float:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def measure_layers(workload, seed: int, frozen: dict) -> tuple:
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import tracing
    from gbh_fdr import cli

    metrics = {}
    for name, (unit, samples) in layers.measure(seed, workloads.safe_threads()).items():
        metrics[name] = summary(unit, "lower", samples)
    metrics["cli.import_s"] = summary("s", "lower", layers.import_seconds(cli_env(), ROOT))

    plain = {job.name: run_in_process(job, cli.main) for job in workload.jobs}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        main = tracer.wrap("cli.main", "cli", cli.main)
        traced = {job.name: run_in_process(job, main) for job in workload.jobs}
    finally:
        tracer.uninstall()

    reference = {name: sha256(run.primary) for name, run in plain.items()}
    bad = [failures(workload, plain, None, frozen),
           failures(workload, traced, reference, frozen)]
    plain_s = sum(run.wall_s for run in plain.values())
    traced_s = sum(run.wall_s for run in traced.values())
    metrics["cli.main.s"] = summary("s", "lower", [plain_s])
    by_command = defaultdict(float)
    for run in plain.values():
        by_command[run.job.argv[0]] += run.wall_s
    extra = {f"cli.main.{command}.s": summary("s", "lower", [value])
             for command, value in by_command.items()}

    totals = tracer.layer_totals()
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = summary("s", "lower", [totals["self_s"][layer]])
        metrics[f"{layer}.calls"] = summary("count", "lower", [totals["calls"][layer]])
    metrics["trace_overhead_ratio"] = summary("ratio", "lower", [traced_s / plain_s])
    checks = {f"{layer}.calls == {count}": totals["calls"][layer] == count
              for layer, count in workload.expected_calls.items()}
    tracer.write(RESULTS / f"spans-{workload.name}.csv")
    attempted = 2 * len(workload.jobs)
    failed = sum(len(b) for b in bad)
    details = {"failures": bad, "job_sha256": reference, "spans": len(tracer.spans),
               "per_command": extra}
    return metrics, attempted, failed, checks, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gbh_fdr" / "cli.py").is_file():
        print(f"error: no gbh_fdr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    frozen = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload] \
        if args.seed == workloads.DEFAULT_SEED else None

    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, work)
        inputs = {name: {"seed": args.seed, "sha256": sha256(path.read_bytes())}
                  for name, path in workload.inputs.items()}
        if args.trace:
            metrics, attempted, failed, checks, details = \
                measure_layers(workload, args.seed, frozen)
        else:
            metrics, attempted, failed, checks, details = \
                measure_end_to_end(workload, args.seconds, frozen)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0 and all(checks.values())
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed), "inputs": inputs,
              "jobs": {job.name: list(job.argv) for job in workload.jobs}, "correct": correct,
              "attempted": attempted, "failed": failed, "checks": checks,
              "metrics": metrics, **details}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for name, m in {**metrics, **details.get("per_command", {})}.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(n {m['n']}, median {m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, "
              f"{m['better']} is better)")
    for name, ok in checks.items():
        print(f"{args.workload} check {name}: {'ok' if ok else 'FAILED'}")
    print(f"{args.workload} failed_jobs = {failed} of {attempted}")

    reported = metrics if args.trace else END_TO_END
    result = {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
              for name in reported}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
