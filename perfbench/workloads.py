"""The benchmark's workloads: generated inputs, CLI jobs, output checks and
the named throughput metrics each workload reports.

A workload is a list of jobs.  A job is one `gbh-fdr` invocation; its
primary output is either its stdout or the file it writes with `--out`.
Every input a job sees is derived from the workload seed, so one seed always
gives the same argument lists and the same input files.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# The benchmark seed whose outputs are pinned in digests.json.  Program seeds
# are offset from the package's own default (20260822), so at this seed every
# job uses the shipped seed.
DEFAULT_SEED = 0
PROGRAM_SEED_BASE = 20260822

SHIPPED_CONFIG = "scripts/all_null_gbh1.cfg"

ADJUST_ROWS = 200_000
ADJUST_GROUPS = 50
BOUND_POINTS = 5
CURVE_LAMBDAS = "0.01:0.5:0.01"
CURVE_RHOS = "0.0005:0.344:0.0005"
CURVE_POINTS = 50 * 688
MC_C_REPS = 2000


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple                   # arguments after the program name
    output: Optional[str] = None  # primary output file; None means stdout


@dataclass
class JobRun:
    """What one execution of a job produced."""

    job: Job
    wall_s: float
    exit_code: int
    stdout: bytes
    primary: bytes


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    inputs: dict                  # generated file name -> path; its sha256 is recorded
    check: Callable               # dict job name -> JobRun  ->  list of (job name, message)
    metrics: Callable             # dict job name -> JobRun  ->  dict metric -> value
    # Expected trace counts for one round: layer -> number of counted calls.
    expected_calls: dict


# name -> (unit, better); the throughput metrics a round of each workload yields.
NAMED_METRICS = {
    "mc_reps_per_s": ("1/s", "higher"),
    "mc_reps_per_s_nproc": ("1/s", "higher"),
    "mc_pvalues_per_s_m2000": ("1/s", "higher"),
    "audit_s": ("s", "lower"),
    "adjust_rows_per_s": ("1/s", "higher"),
    "bound_s": ("s", "lower"),
    "curve_points_per_s": ("1/s", "higher"),
}


def program_seed(seed: int) -> int:
    return PROGRAM_SEED_BASE + seed


def safe_threads() -> int:
    """Worker threads for the many-thread campaign: the CPUs this process may
    use, never more than os.cpu_count()."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(usable, os.cpu_count() or 1))


def _json(run: JobRun):
    return json.loads(run.stdout.decode("utf-8"))


# --- mc_campaign -------------------------------------------------------------

def _mc_campaign(seed: int, work: Path) -> Workload:
    s = str(program_seed(seed))
    shipped = ("simulate", "--config", SHIPPED_CONFIG, "--seed", s)
    jobs = (
        Job("mc_A", shipped + ("--threads", "1")),
        Job("mc_B", shipped + ("--threads", str(safe_threads()))),
        Job("mc_C", ("simulate", "--m", "2000", "--group-sizes", "500,500,500,500",
                     "--nonnull-counts", "50,50,50,50", "--effect-mu", "3.0",
                     "--procedure", "gbh1", "--replications", str(MC_C_REPS),
                     "--seed", s, "--threads", "1")),
    )

    def check(runs):
        bad = []
        if runs["mc_B"].stdout != runs["mc_A"].stdout:
            bad.append(("mc_B", "output differs from the one-thread run"))
        for name, run in runs.items():
            out = _json(run)
            if out["replications_run"] != out["config"]["replications"]:
                bad.append((name, "replications_run differs from the configured count"))
            # The paper's claim: the MC FDR estimate stays under the ceiling.
            if not out["fdr_hat"] <= out["bound_value"] + 4.0 * out["fdr_se"]:
                bad.append((name, f"fdr_hat {out['fdr_hat']} above bound {out['bound_value']}"))
        if _json(runs["mc_C"])["power_hat"] is None:
            bad.append(("mc_C", "no power estimate for a campaign with alternatives"))
        return bad

    def metrics(runs):
        def reps(name):
            return _json(runs[name])["replications_run"]
        return {
            "mc_reps_per_s": reps("mc_A") / runs["mc_A"].wall_s,
            "mc_reps_per_s_nproc": reps("mc_B") / runs["mc_B"].wall_s,
            "mc_pvalues_per_s_m2000": reps("mc_C") * 2000 / runs["mc_C"].wall_s,
        }

    return Workload("mc_campaign", jobs, {}, check, metrics,
                    {"cli": 3, "simulator": 3, "bound": 3,
                     "procedures": 2 * 20000 + MC_C_REPS})


# --- audit -------------------------------------------------------------------

def _audit(seed: int, work: Path) -> Workload:
    out = str(work / "verify.json")
    jobs = (Job("audit", ("verify", "--section", "all", "--seed", str(program_seed(seed)),
                          "--out", out), out),)

    def check(runs):
        bad = []
        reports = json.loads(runs["audit"].primary.decode("utf-8"))
        for section in ("m_bound", "mvt_identity"):
            found = [r for r in reports if r["section"] == section]
            if not found or not all(r["max_violation"] > 0 for r in found):
                bad.append(("audit", f"documented finding in {section} not reported"))
            if f"section {section}:" not in runs["audit"].stdout.decode("utf-8"):
                bad.append(("audit", f"no summary line for {section}"))
        return bad

    def metrics(runs):
        return {"audit_s": runs["audit"].wall_s}

    # Three rejection-expectation checks, one gbh1 call per replication each.
    return Workload("audit", jobs, {}, check, metrics,
                    {"cli": 1, "verify": 4, "procedures": 3 * 20000})


# --- adjust_table ------------------------------------------------------------

def write_pvalue_table(path: Path, seed: int) -> None:
    """CSV with id, group and pvalue columns.  Nulls are uniform; alternatives
    are u**8, which piles them up near 0.  Each group gets its own share of
    alternatives.  Labels first appear in a shuffled order, so the procedure's
    first-appearance grouping differs from sorted label order."""
    rng = random.Random(seed)
    names = [f"grp{j:02d}" for j in range(ADJUST_GROUPS)]
    rng.shuffle(names)
    alt_share = [rng.uniform(0.0, 0.3) for _ in names]
    lines = ["id,group,pvalue"]
    for i in range(ADJUST_ROWS):
        j = i if i < ADJUST_GROUPS else rng.randrange(ADJUST_GROUPS)
        u = rng.random()
        p = u ** 8 if rng.random() < alt_share[j] else u
        lines.append(f"{i},{names[j]},{p!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _adjust_table(seed: int, work: Path) -> Workload:
    table = work / "pvalues.csv"
    write_pvalue_table(table, seed)
    first, second = str(work / "adjusted.csv"), str(work / "readjusted.csv")
    jobs = (
        Job("adjust", ("adjust", "--procedure", "gbh1", "--input", str(table),
                       "--out", first), first),
        # Reading its own output makes adjust drop and re-append its columns.
        Job("adjust_rerun", ("adjust", "--procedure", "gbh1", "--input", first,
                             "--out", second), second),
    )

    def check(runs):
        bad = []
        out = runs["adjust"].primary
        if runs["adjust_rerun"].primary != out:
            bad.append(("adjust_rerun", "re-run did not reproduce its input"))
        lines = out.decode("utf-8").split("\n")
        if lines[0] != "id,group,pvalue,weighted_pvalue,rejected" \
                or len(lines) != ADJUST_ROWS + 2 or lines[-1] != "":
            bad.append(("adjust", "unexpected header or row count"))
        elif not 0 < sum(line.endswith(",true") for line in lines) < ADJUST_ROWS:
            bad.append(("adjust", "rejected none or all of the rows"))
        return bad

    def metrics(runs):
        wall = runs["adjust"].wall_s + runs["adjust_rerun"].wall_s
        return {"adjust_rows_per_s": 2 * ADJUST_ROWS / wall}

    return Workload("adjust_table", jobs, {"pvalues.csv": table}, check, metrics,
                    {"cli": 2, "procedures": 2, "simulator": 0})


# --- bound_grid --------------------------------------------------------------

def _bound_grid(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for k in range(BOUND_POINTS):
        lam = round(rng.uniform(0.01, 0.5), 4)
        rho = round(rng.uniform(0.001, 0.34), 4)
        alpha = round(rng.uniform(0.01, 0.2), 4)
        jobs.append(Job(f"bound_{k}", ("bound", "--lambda", repr(lam), "--rho", repr(rho),
                                       "--alpha", repr(alpha), "--aform")))
    curve = str(work / "curve.csv")
    jobs.append(Job("curve", ("curve", "--lambdas", CURVE_LAMBDAS, "--rhos", CURVE_RHOS,
                              "--alpha", repr(round(rng.uniform(0.01, 0.2), 4)),
                              "--out", curve), curve))

    def check(runs):
        bad = []
        for k in range(BOUND_POINTS):
            out = _json(runs[f"bound_{k}"])
            rho_total, a_total = out["rho_form"]["total"], out["a_form"]["total"]
            if not out["in_theorem_domain"] or abs(rho_total - a_total) > 1e-9 * abs(rho_total):
                bad.append((f"bound_{k}", "parameterizations disagree or point out of domain"))
        rows = runs["curve"].primary.decode("utf-8").count("\n") - 1
        if rows != CURVE_POINTS or f"wrote {CURVE_POINTS} rows" not in \
                runs["curve"].stdout.decode("utf-8"):
            bad.append(("curve", f"expected {CURVE_POINTS} rows, got {rows}"))
        return bad

    def metrics(runs):
        return {
            "bound_s": statistics.median(runs[f"bound_{k}"].wall_s for k in range(BOUND_POINTS)),
            "curve_points_per_s": CURVE_POINTS / runs["curve"].wall_s,
        }

    return Workload("bound_grid", tuple(jobs), {}, check, metrics,
                    {"cli": BOUND_POINTS + 1, "bound": 2 * BOUND_POINTS + CURVE_POINTS,
                     "simulator": 0, "procedures": 0})


BUILDERS = {
    "mc_campaign": _mc_campaign,
    "audit": _audit,
    "adjust_table": _adjust_table,
    "bound_grid": _bound_grid,
}
