"""End-to-end tests of the command-line front end.

Every test drives main(argv) in-process and checks the exit-code contract
(0 success, 1 asserted-audit failure, 2 input/domain error, 3 I/O error),
byte determinism of primary outputs, and fixed JSON/CSV shapes.
"""

import ast
import contextlib
import csv
import errno
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import resource
import select
import socket
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import pytest

import gbh_fdr
from gbh_fdr import SimConfig, check_rejection_expectation, cli, simulator, verify
from gbh_fdr.cli import EXIT_INPUT, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAIL, LOG_HEADER, main
from gbh_fdr.simulator import PROCEDURES


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _fresh_python(*args, timeout=120, **popen):
    """A fresh interpreter on this package's sources, which has loaded none of
    the modules that the test process holds; popen goes to subprocess.run."""
    src = str(Path(gbh_fdr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, **popen)

# ---------------------------------------------------------------------------
# exit-code constants

def test_exit_code_contract_values():
    assert (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_INPUT, EXIT_IO) == (0, 1, 2, 3)

def test_no_arguments_is_input_error(capsys):
    rc, _, _ = run_cli(capsys)
    assert rc == EXIT_INPUT

def test_unknown_subcommand_is_input_error(capsys):
    rc, _, _ = run_cli(capsys, "frobnicate")
    assert rc == EXIT_INPUT


# ---------------------------------------------------------------------------
# bound

def test_bound_json_shape_and_limit_ratio(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--lambda", "0.5",
                         "--rho", "0.000001", "--alpha", "0.05")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert list(payload) == ["lambda", "rho", "alpha", "in_theorem_domain",
                             "rho_form", "ratio"]
    assert payload["in_theorem_domain"] is True
    assert list(payload["rho_form"]) == ["terms", "total"]
    assert len(payload["rho_form"]["terms"]) == 7
    assert payload["ratio"] == pytest.approx(2.013, abs=5e-3)
    assert payload["ratio"] == pytest.approx(2.0153877248832144, rel=1e-12)
    assert payload["rho_form"]["total"] == pytest.approx(
        0.05 * payload["ratio"], rel=1e-12)

def test_bound_aform_flag_adds_matching_breakdown(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--lambda", "0.3", "--rho", "0.2",
                         "--alpha", "0.05", "--aform")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert list(payload)[-1] == "a_form"
    assert payload["a_form"]["total"] == pytest.approx(
        payload["rho_form"]["total"], rel=1e-12)
    for t_rho, t_a in zip(payload["rho_form"]["terms"], payload["a_form"]["terms"]):
        assert t_a == pytest.approx(t_rho, rel=1e-12)

def test_bound_lambda_out_of_domain_exits_2(capsys):
    rc, out, err = run_cli(capsys, "bound", "--lambda", "0.6",
                           "--rho", "0.1", "--alpha", "0.05")
    assert rc == EXIT_INPUT
    assert out == ""
    assert "error:" in err and "lambda" in err

def test_bound_force_marks_out_of_domain(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--lambda", "0.6", "--rho", "0.1",
                         "--alpha", "0.05", "--force")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["in_theorem_domain"] is False
    assert payload["rho_form"]["total"] > 0.0

@pytest.mark.parametrize("extra", [(), ("--aform",)])
def test_bound_force_lambda_one_exits_2_without_traceback(capsys, extra):
    rc, out, err = run_cli(capsys, "bound", "--force", "--lambda", "1", "--rho", "0.2",
                           "--alpha", "0.05", *extra)
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == "error: lambda=1.0 outside (0, 1)\n"

def test_bound_rho_above_cap_exits_2_despite_force(capsys):
    rc, _, err = run_cli(capsys, "bound", "--lambda", "0.5", "--rho", "0.35",
                         "--alpha", "0.05", "--force")
    assert rc == EXIT_INPUT
    assert "rho" in err

def test_bound_moderate_correlation_ratio_under_ten(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--lambda", "0.05",
                         "--rho", "0.149", "--alpha", "0.05")
    assert rc == EXIT_OK
    assert json.loads(out)["ratio"] < 10.0

def test_bound_missing_required_flag_exits_2(capsys):
    rc, _, _ = run_cli(capsys, "bound", "--lambda", "0.5", "--rho", "0.1")
    assert rc == EXIT_INPUT

def test_bound_byte_determinism(capsys):
    argv = ("bound", "--lambda", "0.25", "--rho", "0.15", "--alpha", "0.1", "--aform")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


# ---------------------------------------------------------------------------
# curve

def test_curve_default_grid_shape_and_order(capsys, tmp_path):
    out_path = tmp_path / "curves.csv"
    rc, out, _ = run_cli(capsys, "curve", "--out", str(out_path))
    assert rc == EXIT_OK
    assert f"wrote 670 rows to {out_path}" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "lambda,rho,bound,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 670
    lams = [float(r[0]) for r in rows]
    rhos = [float(r[1]) for r in rows]
    assert sorted(set(lams)) == pytest.approx([0.05 * k for k in range(1, 11)])
    assert len(set(rhos)) == 67
    # lambda-major ordering with rho ascending inside each block
    for block in range(10):
        seg = rows[67 * block: 67 * (block + 1)]
        assert len({r[0] for r in seg}) == 1
        seg_rhos = [float(r[1]) for r in seg]
        assert seg_rhos == sorted(seg_rhos)
    # ratio column is bound / alpha at the default alpha
    for r in rows[::97]:
        assert float(r[3]) == pytest.approx(float(r[2]) / 0.05, rel=1e-12)

def test_curve_byte_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "curve", "--lambdas", "0.1,0.5", "--rhos", "0.05:0.3:0.05",
            "--out", str(a))
    run_cli(capsys, "curve", "--lambdas", "0.1,0.5", "--rhos", "0.05:0.3:0.05",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()

def test_curve_single_point(capsys, tmp_path):
    out_path = tmp_path / "one.csv"
    rc, out, _ = run_cli(capsys, "curve", "--lambdas", "0.5", "--rhos", "0.1",
                         "--out", str(out_path))
    assert rc == EXIT_OK
    assert "wrote 1 rows" in out
    assert len(out_path.read_text().splitlines()) == 2

def test_curve_rho_grid_past_cap_lists_offenders(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "curve", "--rhos", "0.33:0.36:0.01",
                         "--out", str(tmp_path / "x.csv"))
    assert rc == EXIT_INPUT
    assert "0.35" in err and "0.36" in err
    assert "0.33" not in err.replace("0.336", "")   # in-domain values not listed
    assert not (tmp_path / "x.csv").exists()

def test_curve_unsorted_rho_list_is_sorted_in_output(capsys, tmp_path):
    out_path = tmp_path / "sorted.csv"
    run_cli(capsys, "curve", "--lambdas", "0.5", "--rhos", "0.3,0.1,0.2",
            "--out", str(out_path))
    rhos = [float(line.split(",")[1])
            for line in out_path.read_text().splitlines()[1:]]
    assert rhos == [0.1, 0.2, 0.3]

def test_curve_unwritable_path_exits_3(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "curve", "--lambdas", "0.5", "--rhos", "0.1",
                         "--out", str(tmp_path / "no_such_dir" / "x.csv"))
    assert rc == EXIT_IO
    assert "i/o error" in err

def test_curve_bad_grid_spec_exits_2(capsys, tmp_path):
    rc, _, _ = run_cli(capsys, "curve", "--lambdas", "0.5:0.1:0.1",
                       "--out", str(tmp_path / "x.csv"))
    assert rc == EXIT_INPUT

@pytest.mark.parametrize("spec, reason", [
    ("0:inf:0.1", "needs a finite start, stop and step"),
    ("-inf:0.2:0.1", "needs a finite start, stop and step"),
    ("0.1:0.2:nan", "needs a finite start, stop and step"),
    ("nan:0.2:0.1", "needs a finite start, stop and step"),
    ("0.1:0.2:inf", "needs a finite start, stop and step"),
    ("0:0.34:1e-12", "has more than 100000 points"),
    ("0:1:5e-324", "has more than 100000 points"),
    ("-1e308:1e308:1", "has more than 100000 points"),   # stop - start overflows
    ("0.3:0.1:0.01", "has an empty range"),
    ("0.1:0.2:0", "has an empty range"),
    ("0.1:0.2", "must be start:stop:step or comma list"),
    ("0:1:0.1:2", "must be start:stop:step or comma list"),
])
def test_curve_hostile_grid_spec_exits_2_quoting_it(capsys, tmp_path, spec, reason):
    # Every error leads with the flag.  The non-finite and over-large ranges
    # would loop, overflow or try to build a huge list if the checks ran after
    # the range is built.
    rc, out, err = run_cli(capsys, "curve", "--lambdas", "0.5", f"--rhos={spec}",
                           "--out", str(tmp_path / "x.csv"))
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == f"error: --rhos {spec!r} {reason}\n"
    assert not (tmp_path / "x.csv").exists()

@pytest.mark.parametrize("flag, spec, bad", [("--lambdas", "x", "x"),
                                             ("--rhos", "0.1:0.2:x", "x"),
                                             ("--rhos", "0.1,,abc", "abc")])
def test_curve_non_number_in_grid_names_flag_and_spec(capsys, tmp_path, flag, spec, bad):
    grids = {"--lambdas": "0.5", "--rhos": "0.1", flag: spec}
    rc, out, err = run_cli(capsys, "curve", *(f"{f}={v}" for f, v in grids.items()),
                           "--out", str(tmp_path / "x.csv"))
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == f"error: {flag} {spec!r}: {bad!r} is not a number\n"
    assert not (tmp_path / "x.csv").exists()

@pytest.mark.parametrize("flag, spec, shown", [("--lambdas", ",", "','"),
                                               ("--rhos", " ", "''"),
                                               ("--rhos", " , ,", "', ,'")])
def test_curve_empty_grid_exits_2_naming_the_flag(capsys, tmp_path, flag, spec, shown):
    grids = {"--lambdas": "0.5", "--rhos": "0.1", flag: spec}
    rc, out, err = run_cli(capsys, "curve", *(f"{f}={v}" for f, v in grids.items()),
                           "--out", str(tmp_path / "x.csv"))
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == f"error: {flag} {shown}: no values\n"
    assert not (tmp_path / "x.csv").exists()

def test_grid_point_cap_is_exact(monkeypatch):
    assert cli.GRID_MAX_POINTS == 100_000
    assert len(cli._grid("0:9999.9:0.1", "--rhos")) == 100_000
    monkeypatch.setattr(cli, "GRID_MAX_POINTS", 11)
    assert cli._grid("0:1:0.1", "--rhos") == [round(0.1 * i, 12) for i in range(11)]
    with pytest.raises(ValueError, match="has more than 11 points"):
        cli._grid("0:1.1:0.1", "--rhos")
    with pytest.raises(ValueError, match="has more than 11 points"):
        cli._grid("0:1.05:0.1", "--rhos")     # rounds to 12 points

@pytest.mark.parametrize("spec, values", [
    ("1e-14:1e-13:1e-14", ",".join(f"{i}e-14" for i in range(1, 10)) + ",1e-13"),
    ("1e-13:1e-12:1e-13", ",".join(f"{i}e-13" for i in range(1, 10)) + ",1e-12"),
    ("0.1:0.1000000000002:5e-14",
     "0.1,0.10000000000005,0.1000000000001,0.10000000000015,0.1000000000002"),
], ids=["1e-14", "1e-13", "near-0.1"])
def test_a_fine_step_keeps_every_point_of_its_range(spec, values):
    # Each point is start + i*step in exact decimals, so a step far below
    # 1e-12 keeps its points apart and off 0.0.
    grid = cli._grid(spec, "--rhos")
    assert grid == cli._grid(values, "--rhos")
    assert len(set(grid)) == len(grid) == values.count(",") + 1

def test_a_fine_step_curve_writes_one_row_per_point(capsys, tmp_path):
    out_path = tmp_path / "c.csv"
    rc, _, err = run_cli(capsys, "curve", "--lambdas", "1e-14:1e-13:1e-14", "--rhos", "0.1",
                         "--out", str(out_path))
    assert (rc, err) == (EXIT_OK, "")
    listed = tmp_path / "listed.csv"
    run_cli(capsys, "curve", "--lambdas", ",".join(f"{i}e-14" for i in range(1, 11)),
            "--rhos", "0.1", "--out", str(listed))
    assert out_path.read_bytes() == listed.read_bytes()
    assert out_path.read_bytes().count(b"\n") == 1 + 10

def test_curve_grid_total_is_capped_before_evaluation(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "GRID_MAX_POINTS", 11)
    out_path = tmp_path / "c.csv"
    rc, _, _ = run_cli(capsys, "curve", "--lambdas", "0.5", "--rhos", "0.01:0.11:0.01",
                       "--out", str(out_path))
    assert rc == EXIT_OK
    assert len(out_path.read_text().splitlines()) == 1 + 11
    out_path.unlink()
    # each range is within the cap, their product is not
    evaluated = []
    monkeypatch.setattr(cli, "fdr_bound", lambda *a, **k: evaluated.append(a))
    rc, out, err = run_cli(capsys, "curve", "--lambdas", "0.1,0.5", "--rhos",
                           "0.01:0.06:0.01", "--out", str(out_path))
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == "error: --lambdas x --rhos is 2 x 6 points, more than 11\n"
    assert evaluated == [] and not out_path.exists()

# sha256 of the file curve writes, frozen when every line was still joined in
# memory before one write: streaming the rows must not move a byte.
@pytest.mark.parametrize("argv, digest", [
    ((), "7b094a351bd4356b964afcda264f79e959b46d12a69b048755bbedde2a06a2b9"),
    # the benchmark's 50 x 688 grid at its seed-0 alpha; the same digest is
    # pinned in perfbench/digests.json
    (("--lambdas", "0.01:0.5:0.01", "--rhos", "0.0005:0.344:0.0005", "--alpha", "0.0576"),
     "917474f3efb0e366488692badf973a42fa69103981a7e252fe92a0329227a353"),
    (("--lambdas", "0.5,0.05,0.25", "--rhos", "0.3,0.1,0.2,0.001,0.34,0.1"),
     "c9db711a5d652a9387eab2c8ef8577629ed93aeb6c5c01db61e226453e27d586"),
], ids=["default", "bound_grid", "unsorted"])
def test_curve_bytes_are_frozen(capsys, tmp_path, argv, digest):
    out_path = tmp_path / "c.csv"
    rc, out, err = run_cli(capsys, "curve", *argv, "--out", str(out_path))
    rows = out_path.read_bytes().count(b"\n") - 1
    assert (rc, out, err) == (EXIT_OK, f"wrote {rows} rows to {out_path}\n", "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

def test_curve_memory_does_not_grow_with_the_grid(tmp_path):
    # Rows go out a chunk at a time: eight times the points may not take
    # half a MiB more at the traced peak (holding every line took 6.7 more).
    def traced_peak(rhos):
        tracemalloc.start()
        try:
            assert main(["curve", "--lambdas", "0.01:0.5:0.01", "--rhos", rhos,
                         "--out", str(tmp_path / "c.csv")]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = traced_peak("0.0025:0.25:0.0025")   # 50 x 100 points
    large = traced_peak("0.0004:0.32:0.0004")   # 50 x 800 points
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 1 + 40_000
    assert large - small < 0.5 * 2 ** 20

@pytest.mark.parametrize("argv, err", [
    (("bound", "--lambda", "0.7", "--rho", "0.1", "--alpha", "0.05"),
     "error: lambda=0.7 outside (0, 0.5] (pass --force to explore lambda > 1/2)\n"),
    # alpha, then rho, then lambda, as the bound checks them
    (("bound", "--lambda", "0.7", "--rho", "0.5", "--alpha", "0.05"),
     "error: rho=0.5 outside (0, 0.344247); the bound's integrals are finite only "
     "below the cubic root\n"),
    (("bound", "--lambda", "0.7", "--rho", "0.5", "--alpha", "1.5"),
     "error: alpha=1.5 outside (0, 1)\n"),
    (("curve", "--lambdas", "0.3,0.7", "--rhos", "0.1"),
     "error: lambda=0.7 outside (0, 0.5]\n"),
    (("curve", "--lambdas", "0.3,nan,0.7", "--rhos", "0.1"),
     "error: lambda=nan outside (0, 0.5]\n"),
], ids=["bound", "bound-rho-first", "bound-alpha-first", "curve", "curve-nan"])
def test_a_refused_lambda_names_the_commands_own_override(capsys, tmp_path, argv, err):
    # bound's override is --force; curve has none to name.
    extra = ("--out", str(tmp_path / "c.csv")) if argv[0] == "curve" else ()
    assert run_cli(capsys, *argv, *extra) == (EXIT_INPUT, "", err)
    assert not (tmp_path / "c.csv").exists()

@pytest.mark.parametrize("command", ["bound", "curve", "simulate"])
def test_a_subnormal_alpha_is_refused_or_runs_without_a_bound(capsys, tmp_path, command):
    # The bound refuses it; a campaign, which asks in_theorem_domain and so
    # applies the same rule, attaches no bound instead of failing after its loop.
    args = {"bound": ("--lambda", "0.5", "--rho", "0.1"),
            "curve": ("--lambdas", "0.1", "--rhos", "0.1", "--out", str(tmp_path / "c.csv")),
            "simulate": ("--m", "20", "--group-sizes", "10,10", "--nonnull-counts", "2,0",
                         "--replications", "20")}
    rc, out, err = run_cli(capsys, command, *args[command], "--alpha", "1e-320")
    if command == "simulate":
        assert (rc, err) == (EXIT_OK, "")
        assert json.loads(out)["bound_value"] is None
    else:
        assert (rc, out, err) == (EXIT_INPUT, "", "error: alpha=1e-320 is below the smallest "
                                                  "normal float 2.2250738585072014e-308\n")
        assert not (tmp_path / "c.csv").exists()

def test_curve_writes_the_rows_of_bound_curve(capsys, tmp_path):
    out_path = tmp_path / "c.csv"
    rc, _, _ = run_cli(capsys, "curve", "--lambdas", "0.05,0.3,0.5",
                       "--rhos", "0.2,0.01,0.3,0.2", "--alpha", "0.1", "--out", str(out_path))
    assert rc == EXIT_OK
    rows = gbh_fdr.bound_curve([0.05, 0.3, 0.5], [0.2, 0.01, 0.3, 0.2], 0.1)
    assert len(rows) == 12
    assert out_path.read_text().splitlines()[1:] == [",".join(map(repr, r)) for r in rows]

@pytest.mark.parametrize("lams, rhos, alpha", [
    ([0.1, 0.5], [0.1, 0.35, 0.2, 0.4], 0.05),
    ([0.1, 0.7, 0.5], [0.2, 0.1], 0.05),
    ([0.1, 0.5], [0.2, 0.1], 1.5),
], ids=["rho", "lambda", "alpha"])
def test_curve_and_bound_curve_refuse_a_grid_alike(capsys, tmp_path, lams, rhos, alpha):
    with pytest.raises(gbh_fdr.DomainError) as refused:
        gbh_fdr.bound_curve(lams, rhos, alpha)
    rc, out, err = run_cli(capsys, "curve", "--lambdas", ",".join(map(repr, lams)),
                           "--rhos", ",".join(map(repr, rhos)), "--alpha", repr(alpha),
                           "--out", str(tmp_path / "c.csv"))
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: {refused.value}\n")
    assert not (tmp_path / "c.csv").exists()


# ---------------------------------------------------------------------------
# simulate

SIM_ARGS = ("simulate", "--m", "20", "--group-sizes", "10,10",
            "--nonnull-counts", "0,0", "--rho", "0.1", "--replications", "300",
            "--seed", "9")

def test_simulate_json_shape_and_key_order(capsys):
    rc, out, _ = run_cli(capsys, *SIM_ARGS)
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert list(payload) == ["config", "config_source", "defaults_note",
                             "replications_run", "fdr_hat", "fdr_se",
                             "power_hat", "power_se", "bound_value"]
    assert list(payload["config"]) == ["m", "group_sizes", "nonnull_counts",
                                       "effect_mu", "rho", "lambda", "alpha",
                                       "procedure", "replications", "seed"]
    assert payload["config_source"] == "builtin-defaults"
    assert payload["config"]["m"] == 20
    assert payload["replications_run"] == 300
    assert payload["power_hat"] is None          # all-null campaign
    assert payload["bound_value"] is not None    # in the guarantee domain

def test_simulate_thread_count_does_not_change_output(capsys):
    _, out1, _ = run_cli(capsys, *SIM_ARGS, "--threads", "1")
    _, out4, _ = run_cli(capsys, *SIM_ARGS, "--threads", "4")
    assert out1 == out4

def test_simulate_repeat_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, *SIM_ARGS)
    _, out2, _ = run_cli(capsys, *SIM_ARGS)
    assert out1 == out2

def test_simulate_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text(
        "# desk-scale campaign\n"
        "m = 20\n"
        "group_sizes = 10,10\n"
        "nonnull_counts = 0,0\n"
        "rho = 0.15\n"
        "lambda = 0.5\n"
        "replications = 200\n"
        "seed = 5\n")
    rc, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                         "--rho", "0.25")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["config_source"] == str(cfg)
    assert payload["config"]["rho"] == 0.25      # flag wins over file
    assert payload["config"]["m"] == 20          # file wins over defaults
    assert payload["config"]["replications"] == 200

@pytest.mark.parametrize("file_text, flags, expect", [
    # a file m that fits only the flags' groups
    ("m = 100\n", ("--group-sizes", "50,50", "--nonnull-counts", "0,0"),
     {"m": 100, "group_sizes": [50, 50]}),
    # a file rho out of range, replaced by a flag
    ("rho = 1.5\n", ("--rho", "0.1"), {"rho": 0.1}),
])
def test_simulate_merges_file_and_flags_before_validating(capsys, tmp_path, file_text,
                                                          flags, expect):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(file_text)
    rc, out, err = run_cli(capsys, "simulate", "--config", str(cfg), *flags,
                           "--replications", "50")
    assert (rc, err) == (EXIT_OK, "")
    config = json.loads(out)["config"]
    assert {k: config[k] for k in expect} == expect

@pytest.mark.parametrize("file_text, flags, message", [
    ("m = 100\n", (), "group_sizes sum to 200, expected m=100"),
    ("rho = 1.5\n", ("--m", "20", "--group-sizes", "10,10", "--nonnull-counts", "0,0"),
     "rho=1.5 outside [0, 1)"),
])
def test_simulate_file_invalid_on_its_own_still_exits_2(capsys, tmp_path, file_text,
                                                        flags, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(file_text)
    rc, out, err = run_cli(capsys, "simulate", "--config", str(cfg), *flags)
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == f"error: {message}\n"

def test_simulate_bad_flag_value_over_a_file_names_the_flag(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("group_sizes = 10,10\nrho = 1.5\n")
    for flag, value in (("--group-sizes", "10,x"), ("--rho", "fast")):
        rc, out, err = run_cli(capsys, "simulate", "--config", str(cfg), flag, value)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: {flag}: bad value {value!r}")

def test_simulate_bad_config_key_exits_2_with_location(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m = 20\nwibble = 3\n")
    rc, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert rc == EXIT_INPUT
    assert re.search(r"bad\.cfg:2", err)

def test_simulate_inconsistent_sizes_exit_2(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--m", "20",
                         "--group-sizes", "10,5")
    assert rc == EXIT_INPUT
    assert "error:" in err

def test_simulate_log_appends_with_single_header(capsys, tmp_path):
    log = tmp_path / "runs.csv"
    run_cli(capsys, *SIM_ARGS, "--log", str(log))
    run_cli(capsys, *SIM_ARGS, "--log", str(log))
    lines = log.read_text().splitlines()
    assert lines[0] == LOG_HEADER
    assert len(lines) == 3
    assert lines[1] == lines[2]                  # same seed, same summary
    fields = lines[1].split(",")
    assert len(fields) == len(LOG_HEADER.split(","))
    assert fields[0] == "gbh1"
    assert fields[8] == fields[9] == ""          # power columns empty when null

def test_simulate_out_of_domain_rho_has_null_bound(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--m", "20",
                         "--group-sizes", "10,10", "--nonnull-counts", "0,0",
                         "--rho", "0.0", "--procedure", "bh",
                         "--replications", "100", "--seed", "3")
    assert rc == EXIT_OK
    assert json.loads(out)["bound_value"] is None


def without_source(out: str) -> dict:
    payload = json.loads(out)
    del payload["config_source"]
    return payload

@pytest.mark.parametrize("flag, value", [("--group-sizes", "10,x"),
                                         ("--nonnull-counts", "0,,y"),
                                         ("--effect-mu", "big"),
                                         ("--m", "2e1"),
                                         ("--seed", "1.5"),
                                         ("--rho", "fast")])
def test_simulate_bad_flag_value_names_the_flag(capsys, flag, value):
    args = list(SIM_ARGS)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    rc, out, err = run_cli(capsys, *args)
    assert rc == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: {flag}: bad value {value!r}")

@pytest.mark.parametrize("key, value", [("group_sizes", "10,10,"),
                                        ("nonnull_counts", "2, 0,"),
                                        ("effect_mu", "1.5,2.5"),
                                        ("effect_mu", " 3.0 ,"),
                                        ("procedure", " storey ")])
def test_simulate_flags_share_the_config_file_grammar(capsys, tmp_path, key, value):
    base = ("m = 20\ngroup_sizes = 10,10\nnonnull_counts = 1,1\n"
            "replications = 200\nseed = 4\n")
    plain, with_key = tmp_path / "base.cfg", tmp_path / "with_key.cfg"
    plain.write_text(base)
    with_key.write_text(base + f"{key} = {value}\n")
    rc_file, out_file, _ = run_cli(capsys, "simulate", "--config", str(with_key))
    flag = "--" + key.replace("_", "-")
    rc_flag, out_flag, _ = run_cli(capsys, "simulate", "--config", str(plain),
                                   f"{flag}={value}")
    assert rc_file == rc_flag == EXIT_OK
    assert without_source(out_flag) == without_source(out_file)

def test_simulate_per_group_effect_mu_flag(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--m", "20", "--group-sizes", "10,10",
                         "--nonnull-counts", "2,2", "--effect-mu", "1.5,2.5",
                         "--replications", "50", "--seed", "3")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["config"]["effect_mu"] == [1.5, 2.5]
    assert payload["power_hat"] is not None

@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1.5,inf", "nan,2.0"])
def test_simulate_non_finite_effect_mu_exits_2(capsys, tmp_path, value):
    args = ("--m", "20", "--group-sizes", "10,10", "--nonnull-counts", "1,1",
            "--replications", "20")
    rc, out, err = run_cli(capsys, "simulate", *args, f"--effect-mu={value}")
    assert (rc, out) == (EXIT_INPUT, "")
    assert "effect_mu" in err
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(f"effect_mu = {value}\n")
    rc, out, err = run_cli(capsys, "simulate", "--config", str(cfg), *args)
    assert (rc, out) == (EXIT_INPUT, "")
    assert "effect_mu" in err

@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_simulate_config_not_utf8_names_path_and_line(capsys, tmp_path, ending):
    cfg = tmp_path / "latin1.cfg"
    lines = ["# campaign", "m = 20", "group_sizes = 10,10", "seed = 5 # caf\xe9"]
    cfg.write_bytes(ending.join(lines).encode("latin-1") + b"\n")
    rc, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert (rc, out) == (EXIT_INPUT, "")
    assert f"{cfg}:4: byte 0xe9 is not UTF-8" in err
    assert "Traceback" not in err

def test_adjust_input_that_never_ends_is_refused():
    # /dev/zero is one line of NULs, one field that csv.reader refuses, and
    # the read stops a little past it.  Should it not stop, the address-space
    # cap, set for the child only, ends the run instead of the machine.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = _fresh_python("-m", "gbh_fdr.cli", "adjust", "--input", "/dev/zero",
                         timeout=60, preexec_fn=cap)
    assert (done.returncode, done.stdout) == (EXIT_INPUT, "")
    assert done.stderr == (f"error: /dev/zero:1: field larger than field limit "
                           f"({csv.field_size_limit()})\n")

def test_simulate_config_past_its_size_cap_is_refused(capsys, tmp_path):
    # /dev/zero never ends: without the cap it is read until memory runs out.
    done = _fresh_python("-m", "gbh_fdr.cli", "simulate", "--config", "/dev/zero", timeout=60)
    assert (done.returncode, done.stdout) == (EXIT_INPUT, "")
    assert done.stderr == f"error: /dev/zero:1: more than {cli.CONFIG_MAX_BYTES} bytes\n"
    # A file of exactly the cap is read; one byte more is refused at the line
    # that crosses it, unless an earlier line holds an error.
    cfg = tmp_path / "padded.cfg"
    head = b"m = 20\ngroup_sizes = 10,10\nnonnull_counts = 0,0\nreplications = 20\n"
    padding = b"#" * 99 + b"\n"
    body = head + padding * ((cli.CONFIG_MAX_BYTES - len(head)) // 100)
    body += b"#" * (cli.CONFIG_MAX_BYTES - len(body) - 1) + b"\n"
    assert len(body) == cli.CONFIG_MAX_BYTES
    cfg.write_bytes(body)
    assert run_cli(capsys, "simulate", "--config", str(cfg))[0] == EXIT_OK
    cfg.write_bytes(body + b"\n")
    line = body.count(b"\n") + 1
    assert run_cli(capsys, "simulate", "--config", str(cfg)) == (
        EXIT_INPUT, "", f"error: {cfg}:{line}: more than {cli.CONFIG_MAX_BYTES} bytes\n")
    cfg.write_bytes(b"m = abc\n" + body)
    rc, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert (rc, err.startswith(f"error: {cfg}:1: bad value for 'm'")) == (EXIT_INPUT, True)

@pytest.mark.parametrize("data, err", [
    (b"m=abc\nrho=0.\xe91\n",
     ":1: bad value for 'm': invalid literal for int() with base 10: 'abc'"),
    (b"m=20\nrho=0.\xe91\nm=abc\n", ":2: byte 0xe9 is not UTF-8"),
], ids=["bad value, then a bad byte", "bad byte, then a bad value"])
def test_simulate_config_reports_errors_in_file_order(capsys, tmp_path, data, err):
    cfg = tmp_path / "campaign.cfg"
    cfg.write_bytes(data)
    assert run_cli(capsys, "simulate", "--config", str(cfg)) == (EXIT_INPUT, "",
                                                                 f"error: {cfg}{err}\n")

def test_simulate_config_skips_a_leading_byte_order_mark(capsys, tmp_path):
    cfg = tmp_path / "campaign.cfg"
    text = "m = 20\ngroup_sizes = 10,10\nnonnull_counts = 0,0\nreplications = 40\n"
    cfg.write_bytes(text.encode("utf-8"))
    want = run_cli(capsys, "simulate", "--config", str(cfg))
    assert want[0] == EXIT_OK
    cfg.write_bytes("\ufeff".encode("utf-8") + text.encode("utf-8"))
    assert run_cli(capsys, "simulate", "--config", str(cfg)) == want
    cfg.write_bytes("\ufeff".encode("utf-8") + b"m = 20\nseed = 5 # caf\xe9\n")
    rc, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: {cfg}:2: byte 0xe9 is not UTF-8\n")


# ---------------------------------------------------------------------------
# adjust

def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)

WORKED = "pvalue,group\n0.01,a\n0.2,a\n0.6,a\n0.9,a\n"

def test_adjust_worked_example_to_stdout(capsys, tmp_path):
    path = write_csv(tmp_path, "in.csv", WORKED)
    rc, out, _ = run_cli(capsys, "adjust", "--input", path,
                         "--lambda", "0.5", "--alpha", "0.1")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "pvalue,group,weighted_pvalue,rejected"
    got = [line.split(",") for line in lines[1:]]
    # single group: two of four p-values fall at or below 1/2, so the shared
    # weight is (4-2+1)*2 / (4*0.5*2) = 1.5
    expected_weighted = [repr(p * 1.5) for p in (0.01, 0.2, 0.6, 0.9)]
    assert [r[2] for r in got] == expected_weighted
    assert [r[3] for r in got] == ["true", "false", "false", "false"]

def test_adjust_all_pvalues_one_rejects_nothing(capsys, tmp_path):
    path = write_csv(tmp_path, "ones.csv", "pvalue,group\n1,a\n1,a\n1,b\n")
    for proc in ("gbh1", "storey", "bh"):
        rc, out, _ = run_cli(capsys, "adjust", "--input", path,
                             "--procedure", proc)
        assert rc == EXIT_OK
        decisions = [line.split(",")[-1] for line in out.splitlines()[1:]]
        assert decisions == ["false", "false", "false"]

def test_adjust_degenerate_group_reads_inf_false(capsys, tmp_path):
    path = write_csv(tmp_path, "mix.csv",
                     "pvalue,group\n0.01,a\n0.3,a\n0.7,b\n0.8,b\n")
    rc, out, _ = run_cli(capsys, "adjust", "--input", path,
                         "--lambda", "0.5", "--alpha", "0.1")
    assert rc == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for r in rows:
        if r[1] == "b":
            assert r[2] == "inf" and r[3] == "false"
        else:
            assert math.isfinite(float(r[2]))

def test_adjust_out_flag_writes_file_quietly(capsys, tmp_path):
    path = write_csv(tmp_path, "in.csv", WORKED)
    out_path = tmp_path / "decisions.csv"
    rc, out, _ = run_cli(capsys, "adjust", "--input", path,
                         "--lambda", "0.5", "--alpha", "0.1",
                         "--out", str(out_path))
    assert rc == EXIT_OK
    assert out == ""
    assert out_path.read_text().splitlines()[0] == \
        "pvalue,group,weighted_pvalue,rejected"

def test_adjust_idempotent_on_own_output(capsys, tmp_path):
    path = write_csv(tmp_path, "in.csv", WORKED)
    first, second = tmp_path / "once.csv", tmp_path / "twice.csv"
    run_cli(capsys, "adjust", "--input", path, "--lambda", "0.5",
            "--alpha", "0.1", "--out", str(first))
    run_cli(capsys, "adjust", "--input", str(first), "--lambda", "0.5",
            "--alpha", "0.1", "--out", str(second))
    assert first.read_bytes() == second.read_bytes()

def test_adjust_missing_group_column_under_grouped_procedure(capsys, tmp_path):
    path = write_csv(tmp_path, "plain.csv", "pvalue\n0.01\n0.9\n")
    rc, _, err = run_cli(capsys, "adjust", "--input", path)
    assert rc == EXIT_INPUT
    assert ":1:" in err and "group" in err

def test_adjust_ungrouped_procedures_accept_plain_table(capsys, tmp_path):
    path = write_csv(tmp_path, "plain.csv", "pvalue\n0.01\n0.6\n0.9\n")
    for proc in ("storey", "bh"):
        rc, out, _ = run_cli(capsys, "adjust", "--input", path,
                             "--procedure", proc, "--alpha", "0.1")
        assert rc == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[-1] for r in rows] == ["true", "false", "false"]

def test_adjust_malformed_rows_cite_line_numbers(capsys, tmp_path):
    short_row = write_csv(tmp_path, "short.csv",
                          "pvalue,group\n0.4,a\n0.5\n")
    rc, _, err = run_cli(capsys, "adjust", "--input", short_row)
    assert rc == EXIT_INPUT
    assert ":3:" in err and "expected 2 fields" in err

    bad_number = write_csv(tmp_path, "badnum.csv",
                           "pvalue,group\nmany,a\n")
    rc, _, err = run_cli(capsys, "adjust", "--input", bad_number)
    assert rc == EXIT_INPUT
    assert ":2:" in err and "bad pvalue" in err

    out_of_range = write_csv(tmp_path, "range.csv",
                             "pvalue,group\n0.2,a\n1.5,a\n")
    rc, _, err = run_cli(capsys, "adjust", "--input", out_of_range)
    assert rc == EXIT_INPUT
    assert ":3:" in err and "outside" in err

    nan_row = write_csv(tmp_path, "nan.csv", "pvalue,group\nnan,a\n")
    rc, _, err = run_cli(capsys, "adjust", "--input", nan_row)
    assert rc == EXIT_INPUT
    assert ":2:" in err

@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_adjust_errors_name_the_physical_line_after_a_multiline_field(capsys, tmp_path,
                                                                       ending):
    # The quoted label spans lines 2-3, so the bad p-value sits on line 5.
    rows = ["pvalue,group", '0.1,"a', 'b"', "0.2,a", "x,a"]
    path = write_csv(tmp_path, "multi.csv", ending.join(rows) + ending)
    rc, out, err = run_cli(capsys, "adjust", "--input", path)
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == f"error: {path}:5: bad pvalue 'x'\n"

    rows[-1] = "0.3"
    path = write_csv(tmp_path, "short.csv", ending.join(rows) + ending)
    rc, _, err = run_cli(capsys, "adjust", "--input", path)
    assert err == f"error: {path}:5: expected 2 fields, got 1\n"

    rows[-1] = "0.3,b"
    path = write_csv(tmp_path, "ok.csv", ending.join(rows) + ending)
    rc, out, _ = run_cli(capsys, "adjust", "--input", path)
    assert rc == EXIT_OK
    assert out.splitlines()[1] == '0.1,"a' and out.splitlines()[2].startswith('b",')

@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_adjust_not_utf8_names_path_and_line(capsys, tmp_path, ending):
    path = tmp_path / "latin1.csv"
    rows = ["pvalue,group", "0.01,a", "0.2,a", '0.5,"caf\xe9"', "0.9,b"]
    path.write_bytes(ending.join(rows).encode("latin-1") + ending.encode())
    rc, out, err = run_cli(capsys, "adjust", "--input", str(path))
    assert (rc, out) == (EXIT_INPUT, "")
    assert f"{path}:4: byte 0xe9 is not UTF-8" in err

def test_adjust_empty_and_headerless_inputs(capsys, tmp_path):
    empty = write_csv(tmp_path, "empty.csv", "")
    rc, _, err = run_cli(capsys, "adjust", "--input", empty)
    assert rc == EXIT_INPUT
    assert ":1:" in err

    header_only = write_csv(tmp_path, "header.csv", "pvalue,group\n")
    rc, _, err = run_cli(capsys, "adjust", "--input", header_only)
    assert rc == EXIT_INPUT
    assert "no data rows" in err

def test_adjust_missing_input_file_exits_3(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "adjust", "--input",
                         str(tmp_path / "absent.csv"))
    assert rc == EXIT_IO
    assert "i/o error" in err

def test_adjust_blank_lines_ignored(capsys, tmp_path):
    path = write_csv(tmp_path, "blank.csv",
                     "pvalue,group\n0.01,a\n\n0.2,a\n0.6,a\n0.9,a\n\n")
    rc, out, _ = run_cli(capsys, "adjust", "--input", path,
                         "--lambda", "0.5", "--alpha", "0.1")
    assert rc == EXIT_OK
    assert len(out.splitlines()) == 5


# ---------------------------------------------------------------------------
# input files: each is read once, so a pipe or FIFO serves as well as a file

def _run_on_a_file_then_a_fifo(capsys, path, data, argv):
    """main(argv) with data in a regular file at path, then with path a FIFO
    that a writer thread fills with data once: (exit code, stdout, stderr) of
    each run, and whether the FIFO run was still blocked after 10 s."""
    path.write_bytes(data)
    want = run_cli(capsys, *argv)
    path.unlink()
    os.mkfifo(path)

    def write():
        with contextlib.suppress(OSError), open(path, "wb") as fh:
            fh.write(data)

    codes = []
    writer = threading.Thread(target=write, daemon=True)
    run = threading.Thread(target=lambda: codes.append(main(list(argv))), daemon=True)
    writer.start()
    run.start()
    run.join(timeout=10)
    hung = run.is_alive()
    if hung:  # waiting in a second open for a writer that has gone: release it
        with contextlib.suppress(OSError):
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        run.join(timeout=10)
    if writer.is_alive():  # the FIFO was never opened for reading
        os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    captured = capsys.readouterr()
    return want, (*codes, captured.out, captured.err), hung

FIFO_TABLES = {
    "plain": b"id,group,pvalue\n1,a,0.01\n2,a,0.5\n3,b,0.03\n",
    "quoted": b'id,group,pvalue\n1,a,0.01\n2,"a",0.5\n3,b,0.03\n',
    "crlf": b"id,group,pvalue\r\n1,a,0.01\r\n2,a,0.5\r\n3,b,0.03\r\n",
    "bad row": b"id,group,pvalue\n1,a,0.01\n2,a,x\n3,b,0.03\n",
    "bad byte": b"id,group,pvalue\n1,a,0.01\n2,\xe9,0.5\n3,b,0.03\n",
}

@pytest.mark.parametrize("table", FIFO_TABLES)
def test_adjust_reads_a_fifo_as_it_reads_a_file(capsys, tmp_path, table):
    path = tmp_path / "in.csv"
    want, got, hung = _run_on_a_file_then_a_fifo(capsys, path, FIFO_TABLES[table],
                                                 ["adjust", "--input", str(path)])
    assert not hung
    assert got == want
    assert want[0] == (EXIT_OK if "bad" not in table else EXIT_INPUT)

@pytest.mark.parametrize("data, err", [
    (b"m = 20\ngroup_sizes = 10,10\nnonnull_counts = 0,0\nreplications = 40\n", ""),
    (b"m = 20\nseed = 5 # caf\xe9\n", "error: {}:2: byte 0xe9 is not UTF-8\n"),
], ids=["good", "bad byte"])
def test_simulate_reads_a_fifo_config_as_it_reads_a_file(capsys, tmp_path, data, err):
    path = tmp_path / "campaign.cfg"
    want, got, hung = _run_on_a_file_then_a_fifo(capsys, path, data,
                                                 ["simulate", "--config", str(path)])
    assert not hung
    assert got == want
    assert want[2] == err.format(path)


# ---------------------------------------------------------------------------
# output paths: a bad one is refused before the work, and nothing is created

CAMPAIGN_CFG = Path(__file__).resolve().parent.parent / "scripts" / "all_null_gbh1.cfg"

def _trap_the_work(monkeypatch):
    def trap(*args, **kwargs):
        raise AssertionError("the work started before the output path was checked")
    for module, name in [(cli, "run_mc"), (cli, "fdr_bound"), (cli, "_read_pvalue_table"),
                         (verify, "run_integrals_section"), (verify, "run_m_bound_section"),
                         (verify, "run_mvt_section"), (verify, "run_lemmas_section")]:
        monkeypatch.setattr(module, name, trap)

@pytest.mark.parametrize("destination", ["missing directory", "directory", "file as directory",
                                         "name too long", "symlink loop", "dangling symlink",
                                         "socket"])
@pytest.mark.parametrize("argv", [
    ("simulate", "--config", str(CAMPAIGN_CFG), "--log"),
    ("verify", "--section", "all", "--reps", "400", "--out"),
    ("curve", "--lambdas", "0.5", "--rhos", "0.1", "--out"),
    ("adjust", "--input", "absent.csv", "--out"),
], ids=["simulate", "verify", "curve", "adjust"])
def test_a_bad_output_path_exits_3_before_the_work(capsys, monkeypatch, tmp_path, argv,
                                                   destination):
    (tmp_path / "a_file").write_text("kept\n")
    (tmp_path / "loop").symlink_to("loop")
    (tmp_path / "dangling").symlink_to(tmp_path / "no_such_dir" / "out")
    monkeypatch.chdir(tmp_path)  # a socket's path must fit in sun_path
    with socket.socket(socket.AF_UNIX) as bound:  # its file outlives it
        bound.bind("sock")
    path = {"missing directory": tmp_path / "no_such_dir" / "out",
            "directory": tmp_path,
            "file as directory": tmp_path / "a_file" / "out",
            "name too long": tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)),
            "symlink loop": tmp_path / "loop",
            "dangling symlink": tmp_path / "dangling",
            "socket": tmp_path / "sock"}[destination]
    with pytest.raises(OSError) as opened:
        open(path, "w")
    _trap_the_work(monkeypatch)
    rc, out, err = run_cli(capsys, *argv, str(path))
    assert (rc, out, err) == (EXIT_IO, "", f"i/o error: {opened.value}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "dangling", "loop", "sock"]
    assert (tmp_path / "a_file").read_text() == "kept\n"

@pytest.mark.parametrize("exists", [True, False], ids=["file", "new file"])
def test_an_unwritable_output_path_exits_3_before_the_work(capsys, monkeypatch, tmp_path,
                                                           exists):
    # A faked os.open stands in for the permission bits, which do not stop root.
    path = tmp_path / "out.json"
    if exists:
        path.write_text("kept\n")

    def refuse(name, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)

    _trap_the_work(monkeypatch)
    monkeypatch.setattr(os, "open", refuse)
    rc, out, err = run_cli(capsys, "verify", "--section", "lemmas", "--out", str(path))
    assert (rc, out) == (EXIT_IO, "")
    assert err == f"i/o error: [Errno 13] Permission denied: '{path}'\n"
    assert path.exists() is exists

def test_a_symlink_to_a_new_file_passes_and_creates_nothing(capsys, tmp_path):
    link = tmp_path / "link.csv"
    link.symlink_to("target.csv")
    cli._check_destination(str(link))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv"]
    rc, _, _ = run_cli(capsys, "curve", "--lambdas", "0.5", "--rhos", "0.1", "--out", str(link))
    assert rc == EXIT_OK
    assert (tmp_path / "target.csv").read_text().startswith("lambda,rho,bound,ratio\n")

@pytest.mark.parametrize("exists", [True, False], ids=["file", "new file"])
def test_an_output_path_is_untouched_by_a_run_that_exits_2(capsys, tmp_path, exists):
    # The bad lambda is refused by the bound's curve_points, after the
    # destination check and before the file is opened.
    path = tmp_path / "curve.csv"
    if exists:
        path.write_text("kept\n")
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
    rc, out, err = run_cli(capsys, "curve", "--lambdas", "1.5", "--rhos", "0.1",
                           "--out", str(path))
    assert (rc, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ")
    if exists:
        assert path.read_text() == "kept\n"
        assert path.stat().st_mtime_ns == 1_000_000_000
    else:
        assert not path.exists()

# A curve's refused rho, lambda or alpha: the exit code and message of
# bound.curve_points, which refuses the whole grid before the open.
CURVE_REFUSALS = {
    "rho": (("--rhos", "0.1,0.35"), "error: rho grid outside (0, 0.344247): 0.35\n"),
    "lambda": (("--lambdas", "0.1,0.7"), "error: lambda=0.7 outside (0, 0.5]\n"),
    "alpha": (("--alpha", "1.5"), "error: alpha=1.5 outside (0, 1)\n"),
}

@pytest.mark.parametrize("destination", ["file", "new file", "fifo", "fifo with a reader"])
@pytest.mark.parametrize("refused", CURVE_REFUSALS)
def test_a_refused_curve_never_opens_its_output(capsys, tmp_path, refused, destination):
    grid, message = CURVE_REFUSALS[refused]
    path, reader = tmp_path / "out", None
    if destination == "file":
        path.write_text("kept\n")
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
    elif destination.startswith("fifo"):
        os.mkfifo(path)
        if destination == "fifo with a reader":
            reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    codes = []
    run = threading.Thread(target=lambda: codes.append(main(["curve", *grid, "--out", str(path)])),
                           daemon=True)
    try:
        run.start()
        run.join(timeout=10)
        if run.is_alive():  # blocked opening a FIFO with no reader: release it
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            run.join(timeout=10)
        # a writer that opened and closed the FIFO would leave the reader at EOF
        assert reader is None or select.select([reader], [], [], 0)[0] == []
    finally:
        if reader is not None:
            os.close(reader)
    captured = capsys.readouterr()
    assert (codes, captured.out, captured.err) == ([EXIT_INPUT], "", message)
    if destination == "file":
        assert path.read_text() == "kept\n"
        assert path.stat().st_mtime_ns == 1_000_000_000
    assert path.exists() is (destination != "new file")

@pytest.mark.parametrize("refused", CURVE_REFUSALS)
def test_a_bad_output_path_outranks_a_refused_curve(capsys, tmp_path, refused):
    grid, _ = CURVE_REFUSALS[refused]
    path = tmp_path / "no_such_dir" / "out"
    rc, out, err = run_cli(capsys, "curve", *grid, "--out", str(path))
    assert (rc, out) == (EXIT_IO, "")
    assert err == f"i/o error: [Errno 2] No such file or directory: '{path}'\n"

def test_a_fifo_with_no_reader_passes_without_blocking(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    checked = threading.Thread(target=cli._check_destination, args=(str(fifo),), daemon=True)
    checked.start()
    checked.join(timeout=10)
    if checked.is_alive():  # a blocking open: attach a reader to release it
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    assert not checked.is_alive()

def test_a_fifo_with_a_waiting_reader_passes_unopened(tmp_path):
    # A writer that opens and closes the FIFO leaves the reader at EOF, which
    # select reports as readable; a reader no writer has reached is not.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        cli._check_destination(str(fifo))
        assert select.select([reader], [], [], 0)[0] == []
    finally:
        os.close(reader)

def _read_to_eof(reader):
    """Read a FIFO up to its first EOF, as `cat` would."""
    received = b""
    try:
        while select.select([reader], [], [], 10)[0]:
            chunk = os.read(reader, 65536)
            if not chunk:
                break
            received += chunk
    finally:
        os.close(reader)
    return received.decode("utf-8")

@pytest.mark.parametrize("reader_first", [True, False], ids=["reader waits first",
                                                           "reader attaches late"])
def test_a_fifo_receives_the_curve_whichever_end_opens_first(capsys, monkeypatch, tmp_path,
                                                             reader_first):
    # The writer pauses after its check, so the reader sees what the check
    # left: a reader at EOF then, as `cat` would be, stops reading.
    fifo, plain = tmp_path / "fifo", tmp_path / "plain.csv"
    os.mkfifo(fifo)
    argv = ["curve", "--lambdas", "0.5", "--rhos", "0.1,0.2", "--out"]
    assert run_cli(capsys, *argv, str(plain))[0] == EXIT_OK
    checked, proceed, check = threading.Event(), threading.Event(), cli._check_destination

    def check_then_pause(path):
        check(path)
        checked.set()
        proceed.wait(timeout=10)

    monkeypatch.setattr(cli, "_check_destination", check_then_pause)
    if reader_first:
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    codes = []
    writer = threading.Thread(target=lambda: codes.append(main(argv + [str(fifo)])),
                              daemon=True)
    writer.start()
    assert checked.wait(timeout=10)
    if not reader_first:
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    at_eof = select.select([reader], [], [], 0)[0] and not os.read(reader, 1)
    proceed.set()
    if at_eof:
        os.close(reader)
        received = ""
    else:
        received = _read_to_eof(reader)
    writer.join(timeout=10)
    if writer.is_alive():  # blocked in open with no reader: attach one and leave
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    assert codes == [EXIT_OK]
    assert received == plain.read_text()

def test_simulate_log_appends_to_an_existing_file(capsys, tmp_path):
    log, fresh = tmp_path / "runs.csv", tmp_path / "fresh.csv"
    log.write_text("kept\n")
    assert run_cli(capsys, *SIM_ARGS, "--log", str(log))[0] == EXIT_OK
    run_cli(capsys, *SIM_ARGS, "--log", str(fresh))
    assert log.read_text() == "kept\n" + fresh.read_text().splitlines(keepends=True)[1]


# ---------------------------------------------------------------------------
# verify

def test_verify_integrals_clean_pass(capsys):
    rc, out, err = run_cli(capsys, "verify", "--section", "integrals")
    assert rc == EXIT_OK
    assert err == ""
    m = re.match(r"section integrals: 42 points, max violation (-[\d.e-]+)\n", out)
    assert m, out
    assert float(m.group(1)) < 0.0
    assert "VIOLATIONS REPORTED" not in out

def test_verify_m_bound_reports_finding_but_exits_0(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--section", "m_bound")
    assert rc == EXIT_OK
    assert out.startswith("section m_bound: 54 points, max violation ")
    assert "(VIOLATIONS REPORTED)" in out

def test_verify_mvt_reports_nonzero_residuals(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--section", "mvt")
    assert rc == EXIT_OK
    m = re.match(r"section mvt_identity: 54 points, max violation ([\d.e-]+)", out)
    assert m, out
    assert float(m.group(1)) == pytest.approx(0.19824239885847705, rel=1e-9)
    assert "(VIOLATIONS REPORTED)" in out

def test_verify_out_json_payload(capsys, tmp_path):
    report = tmp_path / "audit.json"
    rc, _, _ = run_cli(capsys, "verify", "--section", "m_bound",
                       "--out", str(report))
    assert rc == EXIT_OK
    payload = json.loads(report.read_text())
    assert isinstance(payload, list) and len(payload) == 1
    entry = payload[0]
    assert list(entry) == ["section", "grid", "observed", "claimed",
                           "max_violation", "stderr", "notes"]
    assert entry["section"] == "m_bound"
    assert [0.2, 2.0] in entry["grid"]
    i = entry["grid"].index([0.2, 2.0])
    assert entry["observed"][i] == pytest.approx(8.218400306417955, rel=1e-9)
    assert entry["max_violation"] == pytest.approx(3135.433689372135, rel=1e-6)

def test_verify_lemmas_quick_run_deterministic(capsys):
    argv = ("verify", "--section", "lemmas", "--reps", "300", "--seed", "7")
    rc, out1, _ = run_cli(capsys, *argv)
    assert rc == EXIT_OK
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    lines = out1.splitlines()
    assert len(lines) == 7
    assert sum(l.startswith("section lemma_expect_rejections:") for l in lines) == 3
    assert sum(l.startswith("section lemma_expect_loo:") for l in lines) == 4

def test_verify_all_covers_every_section(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--section", "all",
                         "--reps", "200")
    assert rc == EXIT_OK
    for name in ("section integrals:", "section m_bound:", "section mvt_identity:",
                 "section lemma_expect_rejections:", "section lemma_expect_loo:"):
        assert name in out

def test_simulate_one_replication_exits_2_naming_the_count(capsys, monkeypatch, tmp_path):
    def trap(*args, **kwargs):
        raise AssertionError("a replication was drawn before the count was refused")
    monkeypatch.setattr(simulator, "_sample_block", trap)
    log = tmp_path / "campaigns.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # no numpy RuntimeWarning either
        rc, out, err = run_cli(capsys, "simulate", "--m", "20", "--group-sizes", "10,10",
                               "--nonnull-counts", "0,0", "--replications", "1",
                               "--log", str(log))
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == ("error: a Monte Carlo standard error needs at least 2 "
                   "replications, got 1\n")
    assert not log.exists()

def test_verify_lemmas_one_replication_exits_2_naming_the_count(capsys, tmp_path):
    report = tmp_path / "audit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # no numpy RuntimeWarning either
        rc, out, err = run_cli(capsys, "verify", "--section", "lemmas", "--reps", "1",
                               "--out", str(report))
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == ("error: a Monte Carlo standard error needs at least 2 "
                   "replications, got 1\n")
    assert not report.exists()

# Sizes past the element budget are refused before anything is allocated:
# the engine's draws are replaced by a trap, so a missed check fails here
# instead of filling memory.

def _no_draws(monkeypatch):
    def trap(*args, **kwargs):
        raise AssertionError("an over-budget size reached the sampler")
    monkeypatch.setattr(simulator, "_block_uniforms", trap)
    monkeypatch.setattr(verify, "stream_uniforms", trap)

@pytest.mark.parametrize("flags, message", [
    (["--replications", "16777217"], "replications=16777217 exceeds 16777216 array elements"),
    (["--replications", "1000000000000"],
     "replications=1000000000000 exceeds 16777216 array elements"),
    (["--m", "16777216"], "m=16777216: m + 1 exceeds 16777216 array elements"),
    (["--m", "1000000000000", "--group-sizes", "1000000000000", "--nonnull-counts", "0"],
     "m=1000000000000: m + 1 exceeds 16777216 array elements"),
])
def test_simulate_over_the_element_budget_exits_2(capsys, monkeypatch, tmp_path, flags,
                                                 message):
    _no_draws(monkeypatch)
    log = tmp_path / "campaigns.csv"
    rc, out, err = run_cli(capsys, "simulate", *flags, "--log", str(log))
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: {message}\n")
    assert not log.exists()

@pytest.mark.parametrize("reps, message", [
    ("1000000000000", "replications=1000000000000 exceeds 16777216 array elements"),
    ("16777217", "replications=16777217 exceeds 16777216 array elements"),
    ("838861", "replications x m = 838861 x 20 exceeds 16777216 array elements"),
])
def test_verify_lemmas_over_the_element_budget_exits_2(capsys, monkeypatch, tmp_path, reps,
                                                       message):
    _no_draws(monkeypatch)
    report = tmp_path / "audit.json"
    rc, out, err = run_cli(capsys, "verify", "--section", "lemmas", "--reps", reps,
                           "--out", str(report))
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: {message}\n")
    assert not report.exists()

@pytest.mark.parametrize("reps, message", [
    ("1000000", "replications x m = 1000000 x 20 exceeds 16777216 array elements"),
    ("16777217", "replications=16777217 exceeds 16777216 array elements"),
], ids=["matrix", "replications"])
def test_verify_all_refuses_an_over_budget_size_before_any_section(capsys, monkeypatch,
                                                                  tmp_path, reps, message):
    _no_draws(monkeypatch)
    def trap():
        raise AssertionError("a section ran before the lemmas size was checked")
    for name in ("run_integrals_section", "run_m_bound_section", "run_mvt_section"):
        monkeypatch.setattr(verify, name, trap)
    report = tmp_path / "audit.json"
    rc, out, err = run_cli(capsys, "verify", "--section", "all", "--reps", reps,
                           "--out", str(report))
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: {message}\n")
    assert not report.exists()

def test_verify_all_one_replication_exits_2_before_any_section(capsys, monkeypatch, tmp_path):
    def trap():
        raise AssertionError("a section ran before the lemmas section refused the size")
    for name in ("run_integrals_section", "run_m_bound_section", "run_mvt_section"):
        monkeypatch.setattr(verify, name, trap)
    report = tmp_path / "audit.json"
    rc, out, err = run_cli(capsys, "verify", "--section", "all", "--reps", "1",
                           "--out", str(report))
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == ("error: a Monte Carlo standard error needs at least 2 "
                   "replications, got 1\n")
    assert not report.exists()

def test_verify_all_runs_lemmas_first_and_prints_in_canonical_order(capsys, monkeypatch):
    ran = []
    def recorded(name, runner):
        def run(*args, **kwargs):
            ran.append(name)
            return runner(*args, **kwargs)
        return run
    for name in ("integrals", "m_bound", "mvt", "lemmas"):
        runner = f"run_{name}_section"
        monkeypatch.setattr(verify, runner, recorded(name, getattr(verify, runner)))
    rc, out, _ = run_cli(capsys, "verify", "--section", "all", "--reps", "200")
    assert rc == EXIT_OK
    assert ran == ["lemmas", "integrals", "m_bound", "mvt"]
    shown = [line.split(":", 1)[0] for line in out.splitlines()]
    assert shown == ["section integrals", "section m_bound", "section mvt_identity",
                     *["section lemma_expect_rejections"] * 3,
                     *["section lemma_expect_loo"] * 4]

# A size within the budget can still be more than the machine holds: that is
# exit 2 with one line, as for any other size, never a traceback.

@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 128. MiB for an array with shape (838860, 20) and data type float64",
     "error: out of memory: Unable to allocate 128. MiB for an array with shape (838860, 20) "
     "and data type float64\n"),
    ("", "error: out of memory\n"),
], ids=["numpy's message", "no message"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_memory_error_exits_2_with_one_line(capsys, monkeypatch, tmp_path, command, message,
                                            shown):
    def short_of_memory(*args, **kwargs):
        raise MemoryError(message)
    written = tmp_path / "written"
    if command == "simulate":
        monkeypatch.setattr(cli, "run_mc", short_of_memory)
        argv = ["simulate", "--replications", "2", "--log", str(written)]
    else:
        monkeypatch.setattr(verify, "run_lemmas_section", short_of_memory)
        argv = ["verify", "--section", "lemmas", "--out", str(written)]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (EXIT_INPUT, "", shown)
    assert not written.exists()

def test_verify_requires_section_flag(capsys):
    rc, _, _ = run_cli(capsys, "verify")
    assert rc == EXIT_INPUT

def test_verify_rejects_unknown_section(capsys):
    rc, _, _ = run_cli(capsys, "verify", "--section", "everything")
    assert rc == EXIT_INPUT

@pytest.mark.parametrize("argv, choices", [
    (("adjust", "--input", "x.csv", "--procedure"), PROCEDURES),
    (("verify", "--section"), (*cli._SECTION_RUNNERS, "all")),
])
def test_choices_come_from_their_tables(capsys, argv, choices):
    assert len(choices) >= 3
    for value in choices:
        assert getattr(cli.build_parser().parse_args([*argv, value]), argv[-1][2:]) == value
    rc, _, err = run_cli(capsys, *argv, "frobnicate")
    assert rc == EXIT_INPUT
    listed = err.rsplit("choose from", 1)[1]
    assert re.findall(r"\w+", listed) == list(choices)

def test_verify_defaults_are_the_simulation_defaults(capsys, monkeypatch):
    # The flags' defaults are the section's own, which are SimConfig's: an
    # absent flag passes nothing, and a given one passes its value.
    assert (simulator.SimConfig.seed, simulator.SimConfig.replications) == (20260822, 20000)
    lemmas, called = verify.run_lemmas_section, []

    def record(*args, **kwargs):
        bound = inspect.signature(lemmas).bind(*args, **kwargs)
        bound.apply_defaults()
        called.append(dict(bound.arguments))
        return verify.SectionResult(reports=[])
    monkeypatch.setattr(verify, "run_lemmas_section", record)
    for flags in ((), ("--seed", "7", "--reps", "300")):
        rc, _, _ = run_cli(capsys, "verify", "--section", "lemmas", *flags)
        assert rc == EXIT_OK
    assert called == [{"seed": 20260822, "replications": 20000},
                      {"seed": 7, "replications": 300}]

# sha256 of the bytes `verify --section all --reps 400 --seed 7 --out` writes:
# a change to an audit kernel that moves one bit of any report changes it
VERIFY_ALL_400_SHA256 = "19ba2c5810b7e356f91c53f050a252d164f1ee6b986f98a664914541de7db4f9"

def test_verify_all_report_bytes_are_pinned(capsys, tmp_path):
    report = tmp_path / "audit.json"
    rc, _, _ = run_cli(capsys, "verify", "--section", "all", "--reps", "400",
                       "--seed", "7", "--out", str(report))
    assert rc == EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_ALL_400_SHA256


# ---------------------------------------------------------------------------
# start-up imports

IMPORT_PROBE = r"""
import contextlib, io, sys

def report(step, rc):
    no_scipy = not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
    print(step, rc, "no scipy" if no_scipy else "scipy", "scipy.special" in sys.modules)

from gbh_fdr import cli
report("import", 0)
tmp = sys.argv[1]
with open(tmp + "/p.csv", "w") as fh:
    fh.write("pvalue,group\n0.01,a\n0.2,a\n0.6,b\n")
runs = [
    ["--help"],
    ["bound", "--lambda", "0.5", "--rho", "0.1", "--alpha", "0.05", "--aform"],
    ["curve", "--lambdas", "0.1,0.5", "--rhos", "0.05:0.1:0.05", "--out", tmp + "/c.csv"],
    ["adjust", "--input", tmp + "/p.csv"],
    ["simulate", "--m", "20", "--group-sizes", "10,10", "--nonnull-counts", "0,0",
     "--rho", "0.1", "--replications", "20"],
    ["verify", "--section", "integrals"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    report(argv[0], rc)
"""

def test_scalar_subcommands_never_import_scipy(tmp_path):
    # A fresh interpreter: the test process itself has scipy loaded already.
    src = str(Path(gbh_fdr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "import 0 no scipy False",
        "--help 0 no scipy False",
        "bound 0 no scipy False",
        "curve 0 no scipy False",
        "adjust 0 no scipy False",
        "simulate 0 no scipy False",
        # the audit's quadrature does load it, so the checks above are not vacuous
        "verify 0 scipy True",
    ]


LOAD_PROBE = r"""
import contextlib, io, sys

from gbh_fdr import cli
tmp = sys.argv[1]
with open(tmp + "/p.csv", "w") as fh:
    fh.write("pvalue,group\n0.01,a\n0.2,a\n0.6,b\n")
runs = [
    ["--help"],
    ["adjust", "--help"],
    ["bound", "--lambda", "0.5", "--alpha", "0.05"],
    ["bound", "--lambda", "0.5", "--rho", "0.1", "--alpha", "0.05", "--aform"],
    ["curve", "--lambdas", "0.1,0.5", "--rhos", "0.05:0.1:0.05", "--out", tmp + "/c.csv"],
    ["adjust", "--input", tmp + "/p.csv"],
    ["simulate", "--m", "20", "--group-sizes", "10,10", "--nonnull-counts", "0,0",
     "--rho", "0.1", "--replications", "20"],
    ["verify", "--section", "integrals"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    loaded = sorted(m[8:] for m in sys.modules if m.startswith("gbh_fdr."))
    print(" ".join(argv[:2]), rc, "numpy" in sys.modules, *loaded)
"""

def test_each_start_up_loads_only_what_its_subcommand_calls(tmp_path):
    # The runs share one interpreter, in this order, so each line also holds
    # what every run before it loaded.
    done = _fresh_python("-c", LOAD_PROBE, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "--help 0 False cli",
        "adjust --help 0 False cli",
        "bound --lambda 2 False cli",  # a usage error: --rho is missing
        "bound --lambda 0 True bound cli normal",
        "curve --lambdas 0 True bound cli normal",
        "adjust --input 0 True bound cli normal procedures",
        "simulate --m 0 True bound cli normal procedures simulator",
        # the audit loads every module, so the checks above are not vacuous
        "verify --section 0 True bound cli normal procedures simulator verify",
    ]
    # The benchmark's set-up run: `python -m gbh_fdr.cli --help` loads no numpy.
    done = _fresh_python("-X", "importtime", "-m", "gbh_fdr.cli", "--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: gbh-fdr")
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert "gbh_fdr" in imported and not {"numpy", "gbh_fdr.bound"} & imported

ROOT_PROBE = r"""
import importlib, sys

import gbh_fdr
print("numpy" in sys.modules)
homes = {}
for name in gbh_fdr.__all__:
    obj = getattr(gbh_fdr, name)
    home = importlib.import_module(obj.__module__)
    if getattr(home, name) is not obj:
        homes[name] = obj.__module__
print(homes)
print(not {"__all__", *gbh_fdr.__all__} - set(dir(gbh_fdr)))
namespace = {}
exec("from gbh_fdr import *", namespace)
print(sorted(set(gbh_fdr.__all__) - set(namespace)))
try:
    gbh_fdr.no_such_name
except AttributeError as exc:
    print(exc)
"""

def test_package_root_loads_each_name_on_first_access():
    # In a fresh interpreter, so each name is reached through the module's
    # __getattr__ and not through a cached global.
    done = _fresh_python("-c", ROOT_PROBE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "False",  # import gbh_fdr loads no numpy
        "{}",  # each name is the object its defining module holds
        "True",  # dir() lists __all__ and each public name
        "[]",  # import * binds every name
        "module 'gbh_fdr' has no attribute 'no_such_name'",
    ]


# ---------------------------------------------------------------------------
# the benchmark's tracer

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing

TRACED_PROBE = r"""
import contextlib, importlib.util, io, sys

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from gbh_fdr import cli
tracer = tracing.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[2:])
tracer.uninstall()
print(rc, tracer.layer_totals()["calls"]["bound"])
"""

@pytest.mark.parametrize("argv, calls", [
    (("bound", "--lambda", "0.5", "--rho", "0.1", "--alpha", "0.05"), 1),
    (("curve", "--lambdas", "0.1,0.5", "--rhos", "0.05,0.1,0.2", "--out", "{tmp}/c.csv"), 6),
], ids=["bound", "curve"])
def test_a_patch_made_before_the_first_command_counts_every_call(tmp_path, argv, calls):
    # main binds the names its subcommand reads, and never over a patch: the
    # tracer's wrappers, put on the module before any command ran, stay.
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    done = _fresh_python("-c", TRACED_PROBE, str(TRACING), *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"0 {calls}\n"

def test_benchmark_tracer_patches_and_restores_every_name(capsys):
    # perfbench/tracing.py patches names where the package looks them up;
    # a rename or a dropped import there breaks `perfbench/run.py --trace 1`.
    tracing = _load_tracing()
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _ in tracing.PATCHES}
    verify_mod = cli.verify_mod
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, attr), fn in originals.items():
            assert getattr(importlib.import_module(mod), attr) is not fn, f"{mod}.{attr}"
        assert sorted(vars(cli.verify_mod)) == sorted(tracing.VERIFY_SECTIONS)
        rc, _, _ = run_cli(capsys, "bound", "--lambda", "0.5", "--rho", "0.1",
                           "--alpha", "0.05")
    finally:
        tracer.uninstall()
    assert rc == EXIT_OK
    assert tracer.layer_totals()["calls"]["bound"] == 1
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, f"{mod}.{attr}"
    assert cli.verify_mod is verify_mod

# verify imports phi only so that the tracer has a verify.phi to patch;
# ROADMAP item 5 drops the patch and the import together.
UNREAD_PATCHED_NAMES = {("gbh_fdr.verify", "phi")}

def test_every_patched_name_is_read_by_its_module():
    # A patched name that its module no longer reads outside its import
    # counts nothing: a call moved out from under the tracer's patch, which
    # would move the benchmark's pinned call counts.
    unread = set()
    for mod, name, _ in _load_tracing().PATCHES:
        tree = ast.parse(inspect.getsource(importlib.import_module(mod)))
        if not any(isinstance(node, ast.Name) and node.id == name
                   and isinstance(node.ctx, ast.Load) for node in ast.walk(tree)):
            unread.add((mod, name))
    assert unread - UNREAD_PATCHED_NAMES == set()

def test_benchmark_outputs_at_seed_0_match_their_frozen_digests(capsys, monkeypatch, tmp_path):
    # The benchmark's seed-0 jobs, built by perfbench/workloads.py and run in
    # process, must write the bytes that perfbench/digests.json pins.  mc_B
    # repeats mc_A with more threads, and the curve job's digest is checked
    # by test_curve_bytes_are_frozen.
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  TRACING.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    frozen = json.loads((TRACING.parent / "digests.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(TRACING.parent.parent)  # mc_A names its config relative to the root
    checked = []
    for name in ("mc_campaign", "adjust_table", "bound_grid"):
        for job in workloads.BUILDERS[name](workloads.DEFAULT_SEED, tmp_path).jobs:
            if job.name in ("mc_B", "curve"):
                continue
            rc, out, _ = run_cli(capsys, *job.argv)
            primary = out.encode("utf-8") if job.output is None else Path(job.output).read_bytes()
            assert rc == EXIT_OK, job.name
            assert hashlib.sha256(primary).hexdigest() == frozen[name][job.name], job.name
            checked.append(job.name)
    assert checked == ["mc_A", "mc_C", "adjust", "adjust_rerun",
                       *(f"bound_{k}" for k in range(workloads.BOUND_POINTS))]

def _curve(tmp_path):
    return main(["curve", "--lambdas", "0.1,0.5", "--rhos", "0.05,0.1,0.2",
                 "--out", str(tmp_path / "c.csv")])

def _adjust(tmp_path):
    path = write_csv(tmp_path, "in.csv", "pvalue,group\n0.01,a\n0.2,b\n0.6,a\n")
    return main(["adjust", "--input", path, "--lambda", "0.5", "--alpha", "0.1"])

def _audit_loop(tmp_path):
    return check_rejection_expectation(SimConfig(
        m=20, group_sizes=(10, 10), nonnull_counts=(0, 0), rho=0.2, replications=5), 0.0, 0.01)

def _simulate(procedure):
    return lambda tmp_path: main(["simulate", "--m", "20", "--group-sizes", "10,10",
                                  "--nonnull-counts", "2,0", "--replications", "7",
                                  "--procedure", procedure])

@pytest.mark.parametrize("run, calls", [
    *((_simulate(p), {"procedures": 7, "simulator": 1, "bound": 1}) for p in PROCEDURES),
    (_audit_loop, {"procedures": 5}),
    (_adjust, {"procedures": 1}),
    (_curve, {"bound": 6}),
], ids=[*(f"simulate-{p}" for p in PROCEDURES), "audit_loop", "adjust", "curve"])
def test_benchmark_tracer_counts_the_pinned_calls(capsys, tmp_path, run, calls):
    # `perfbench/run.py --trace 1` refuses a round whose counted calls move:
    # one procedure call per replication or adjusted table, one run_mc per
    # simulate, one bound per campaign or curve point.
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        run(tmp_path)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    totals = tracer.layer_totals()["calls"]
    assert {layer: totals[layer] for layer in calls} == calls

LAYERS = TRACING.parent / "layers.py"
LAYER_MODULES = ("normal", "procedures", "simulator", "bound", "verify")

def _attribute_chain(node) -> list:
    """['procedures', 'GroupedPValues', 'from_labels'] for that attribute
    chain, or [] when the chain does not start at a plain name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else []

def test_benchmark_layer_timings_call_the_package_as_it_is():
    # perfbench/layers.py calls into the package's modules directly; a renamed
    # name or a dropped parameter there breaks `perfbench/run.py --trace 1`.
    # Every chain it reads must resolve, and every call must bind its
    # positional count and keyword names to the callee's signature.
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    called = set()
    for node in ast.walk(tree):
        chain = _attribute_chain(node.func if isinstance(node, ast.Call) else node)
        if not (chain and chain[0] in LAYER_MODULES):
            continue
        name, obj = ".".join(chain), importlib.import_module(f"gbh_fdr.{chain[0]}")
        for attr in chain[1:]:
            assert hasattr(obj, attr), f"perfbench/layers.py:{node.lineno}: {name}"
            obj = getattr(obj, attr)
        if isinstance(node, ast.Call):
            assert not any(isinstance(a, ast.Starred) for a in node.args), name
            assert all(k.arg is not None for k in node.keywords), name
            try:
                inspect.signature(obj).bind(*node.args, **{k.arg: None for k in node.keywords})
            except TypeError as exc:
                raise AssertionError(f"perfbench/layers.py:{node.lineno}: {name}: {exc}")
            called.add(name)
    assert {"simulator.run_mc", "verify.run_lemmas_section", "procedures.gbh1",
            "procedures.GroupedPValues.from_labels", "simulator.SimConfig"} <= called

def test_cli_imports_no_private_name_from_the_package():
    # The CLI reaches the package through public names only; perfbench's
    # tracer swaps cli.verify_mod for a namespace of the four section runners,
    # so a private name taken from verify would slip past it.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("gbh_fdr"))
               for alias in node.names if alias.name.startswith("_")]
    # The names it imports on first use, as well as those it imports at once.
    private += [f"{module}.{attr}" for module, attr in cli._ENGINE.values()
                if (attr or "").startswith("_")]
    assert private == []

def test_package_modules_use_every_name_they_import():
    # The unused-import check.  A name in a module's __all__ counts as used,
    # and so does a name that perfbench/tracing.py patches in that module: the
    # tracer looks it up there even when the module no longer calls it.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unused = []
    for path in sorted(Path(gbh_fdr.__file__).resolve().parent.glob("*.py")):
        module = "gbh_fdr" if path.stem == "__init__" else f"gbh_fdr.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(attr for mod, attr, _ in tracing.PATCHES if mod == module)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [f"{module}.{name}" for name in names if name not in used]
    assert unused == []

def test_only_the_cli_reads_or_writes_files():
    # The command line's formats live in cli: no other package module may
    # import a file, text or argument-parsing module, or call the builtin open.
    io_modules = {"os", "io", "csv", "json", "argparse"}
    found = []
    for path in sorted(Path(gbh_fdr.__file__).resolve().parent.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.stem}: import {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] in io_modules]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").split(".")[0] in io_modules:
                    found.append(f"{path.stem}: from {node.module} import")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "open"):
                found.append(f"{path.stem}:{node.lineno}: open()")
    assert found == []
