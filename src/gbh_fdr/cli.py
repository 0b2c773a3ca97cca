"""Command-line front end.

Subcommands: bound, curve, simulate, adjust, verify.  Exit codes:
0 success, 1 an asserted verification failed, 2 bad input or out-of-domain
arguments, 3 I/O failure.  All numeric output uses shortest round-trip
decimals (Python repr) and fixed key/column order, so identical invocations
produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from itertools import compress, islice, repeat

import numpy as np

from .bound import (BoundInput, check_rho_grid, fdr_bound, fdr_bound_aform,
                    in_theorem_domain)
from .procedures import GroupedPValues, bh_step_up, gbh1, storey
from .simulator import (CONFIG_FLAGS, DEFAULTS_SOURCE, PROCEDURES, SimConfig,
                        append_log, config_with_updates, flag_updates,
                        load_config_file, open_utf8, run_mc, summary_json_dict)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_IO = 3

# The most points one start:stop:step range, or one curve grid of lambdas x
# rhos, may hold.  It is checked before the points are built or evaluated, so
# a mistyped step exits 2 instead of filling memory.
GRID_MAX_POINTS = 100_000


def _grid(spec: str, name: str = "grid spec") -> list:
    """Parse '0.05:0.5:0.05' (inclusive range) or '0.1,0.2,0.3'.  name, the
    flag the spec came from, leads the error for a value that is not a number
    and for a list with no values."""
    spec = spec.strip()

    def number(v: str) -> float:
        try:
            return float(v)
        except ValueError:
            raise ValueError(f"{name} {spec!r}: {v.strip()!r} is not a number") from None

    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec {spec!r} must be start:stop:step or comma list")
        start, stop, step = (number(v) for v in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid spec {spec!r} needs a finite start, stop and step")
        if step <= 0 or stop < start:
            raise ValueError(f"grid spec {spec!r} has an empty range")
        span = (stop - start) / step  # inf when stop - start overflows
        if not span < GRID_MAX_POINTS - 0.5:  # round(span) + 1 points
            raise ValueError(f"grid spec {spec!r} has more than {GRID_MAX_POINTS} points")
        n = int(round(span))
        vals = [round(start + i * step, 12) for i in range(n + 1)]
        return [v for v in vals if v <= stop + 1e-12]
    vals = [number(v) for v in spec.split(",") if v.strip() != ""]
    if not vals:
        raise ValueError(f"{name} {spec!r}: no values")
    return vals


def _breakdown_dict(bd) -> dict:
    return {"terms": list(bd.terms), "total": bd.total}


def cmd_bound(args) -> int:
    inp = BoundInput(lam=args.lam, rho=args.rho, alpha=args.alpha)
    bd = fdr_bound(inp, allow_out_of_domain=args.force)
    out = {
        "lambda": args.lam,
        "rho": args.rho,
        "alpha": args.alpha,
        "in_theorem_domain": in_theorem_domain(args.lam, args.rho, args.alpha),
        "rho_form": _breakdown_dict(bd),
        "ratio": bd.total / args.alpha,
    }
    if args.aform:
        out["a_form"] = _breakdown_dict(fdr_bound_aform(inp, allow_out_of_domain=args.force))
    print(json.dumps(out))
    return EXIT_OK


def cmd_curve(args) -> int:
    lams = _grid(args.lambdas, "--lambdas")
    rhos = _grid(args.rhos, "--rhos")
    if len(lams) * len(rhos) > GRID_MAX_POINTS:
        raise ValueError(f"--lambdas x --rhos is {len(lams)} x {len(rhos)} points, "
                         f"more than {GRID_MAX_POINTS}")
    check_rho_grid(rhos)
    lines = ["lambda,rho,bound,ratio"]
    for lam in lams:
        for rho in sorted(rhos):
            bd = fdr_bound(BoundInput(lam=lam, rho=rho, alpha=args.alpha))
            lines.append(f"{lam!r},{rho!r},{bd.total!r},{bd.total / args.alpha!r}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    # Merged before validation: a file value that a flag replaces is never checked.
    file_updates = load_config_file(args.config) if args.config is not None else {}
    config = config_with_updates(SimConfig(), {**file_updates, **flag_updates(vars(args))})
    source = DEFAULTS_SOURCE if args.config is None else str(args.config)
    summary = run_mc(config)
    print(json.dumps(summary_json_dict(summary, config_source=source)))
    if args.log is not None:
        append_log(summary, args.log)
    return EXIT_OK


def _read_csv_rows(fh, path, need_group: bool) -> tuple:
    """(header, rows, pvalues, labels) by csv.reader over the open file fh:
    the reference reading, and the one that reports errors.  Errors carry
    1-based physical line numbers."""
    reader = csv.reader(fh)
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: empty input")
        cols = [h.strip() for h in header]
        if "pvalue" not in cols:
            raise ValueError(f"{path}:1: missing required column 'pvalue'")
        if need_group and "group" not in cols:
            raise ValueError(f"{path}:1: the grouped procedure needs a 'group' column")
        p_idx = cols.index("pvalue")
        g_idx = cols.index("group") if "group" in cols else None
        rows, pvals, labels = [], [], []
        for row in reader:
            # The physical line the record ends on: a quoted field may span lines.
            lineno = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(cols):
                raise ValueError(f"{path}:{lineno}: expected {len(cols)} fields, got {len(row)}")
            try:
                p = float(row[p_idx])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad pvalue {row[p_idx]!r}")
            if math.isnan(p) or not (0.0 <= p <= 1.0):
                raise ValueError(f"{path}:{lineno}: pvalue {p} outside [0, 1]")
            pvals.append(p)
            labels.append(row[g_idx].strip() if g_idx is not None else "all")
            rows.append(row)
    except csv.Error as exc:  # an over-long field, or a NUL before Python 3.11
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return cols, rows, pvals, labels


def _split_columns(text: str, need_group: bool):
    """(header, columns, pvalues, labels) of a table that csv.reader would
    split at every comma, read column by column; None when it might not
    (a quote, a carriage return or a NUL in the text, or a line longer than
    a field may be) or when _read_csv_rows would report an error."""
    if not text or '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    cols = [h.strip() for h in header]
    if "pvalue" not in cols or (need_group and "group" not in cols):
        return None
    # A row of only whitespace and commas is blank and skipped, as in _read_csv_rows.
    body = lines[1:]
    rows = list(compress(body, map(str.strip, map(str.replace, body, repeat(","), repeat("")))))
    if not rows or set(map(str.count, rows, repeat(","))) != {len(header) - 1}:
        return None
    # Each name is dropped as soon as it is spent, so that the line strings,
    # the joined text and the flat field list are never all held at once.
    n, fields = len(rows), ",".join(rows)
    del lines, body, rows
    fields = fields.split(",")
    columns = [fields[j::len(header)] for j in range(len(header))]
    del fields
    try:
        p = np.fromiter(map(float, columns[cols.index("pvalue")]), dtype=float, count=n)
    except ValueError:
        return None
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails both
        return None
    labels = (list(map(str.strip, columns[cols.index("group")])) if "group" in cols
              else ["all"] * n)
    return cols, columns, p, labels


def _read_pvalue_table(path, need_group: bool) -> tuple:
    """(header, columns, pvalues, labels, unquoted) from a CSV with a pvalue
    column and, when needed, a group column.  columns holds each column's
    fields as read; unquoted says that none of them needs quoting on output.
    A leading byte-order mark is skipped.  Errors carry 1-based physical line
    numbers."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            table = _split_columns(fh.read(), need_group)
    except UnicodeDecodeError:
        table = None  # csv.reader reports a bad row before a later bad byte
    if table is not None:
        return (*table, True)
    # Streamed from the file, so that only the rows are held in memory.
    with open_utf8(path, newline="") as fh:
        cols, rows, pvals, labels = _read_csv_rows(fh, path, need_group)
    return cols, list(zip(*rows)), np.asarray(pvals), labels, False


# Rows per write of an unquoted table: the output is never held whole, and
# joined rows written a chunk at a time take about a fifth less of a
# 200k-row adjust than csv.writer's per-row writes.
_WRITE_CHUNK_ROWS = 4096


def _write_table(fh, header: list, rows, unquoted: bool) -> None:
    """header, then rows, as CSV lines ending in \\n.  With unquoted, no field
    holds a comma, quote, \\r or \\n and every row has two or more fields, so
    csv.writer would write each row as its fields joined by commas."""
    if not unquoted:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    fh.write(",".join(header) + "\n")
    lines = map(",".join, rows)
    while chunk := list(islice(lines, _WRITE_CHUNK_ROWS)):
        chunk.append("")
        fh.write("\n".join(chunk))


def cmd_adjust(args) -> int:
    need_group = args.procedure == "gbh1"
    cols, columns, p, labels, unquoted = _read_pvalue_table(args.input, need_group)
    if args.procedure == "gbh1":
        gp = GroupedPValues.from_labels(p, labels)
        res = gbh1(gp, args.lam, args.alpha)
    elif args.procedure == "storey":
        res = storey(p, args.lam, args.alpha)
    else:
        res = bh_step_up(p, args.alpha)
    rejected = np.zeros(p.size, dtype=bool)
    rejected[np.asarray(res.rejected, dtype=np.intp)] = True
    keep = [i for i, c in enumerate(cols) if c not in ("weighted_pvalue", "rejected")]
    out_cols = [cols[i] for i in keep] + ["weighted_pvalue", "rejected"]
    rows = zip(*(columns[j] for j in keep), map(repr, res.weighted_pvalues.tolist()),
               map(("false", "true").__getitem__, rejected.tolist()))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_table(fh, out_cols, rows, unquoted)
    else:
        _write_table(sys.stdout, out_cols, rows, unquoted)
    return EXIT_OK


_SECTION_RUNNERS = {
    "integrals": lambda args: verify_mod.run_integrals_section(),
    "m_bound": lambda args: verify_mod.run_m_bound_section(),
    "mvt": lambda args: verify_mod.run_mvt_section(),
    "lemmas": lambda args: verify_mod.run_lemmas_section(seed=args.seed,
                                                         replications=args.reps),
}


def cmd_verify(args) -> int:
    sections = list(_SECTION_RUNNERS) if args.section == "all" else [args.section]
    results = [_SECTION_RUNNERS[name](args) for name in sections]
    for sec in results:
        for rep in sec.reports:
            flag = " (VIOLATIONS REPORTED)" if rep.max_violation > 0 else ""
            print(f"section {rep.section}: {len(rep.grid)} points, "
                  f"max violation {rep.max_violation!r}{flag}")
        for msg in sec.failures:
            print(f"ASSERTED FAILURE: {msg}", file=sys.stderr)
    if args.out is not None:
        payload = [dataclasses.asdict(rep) for sec in results for rep in sec.reports]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload) + "\n")
    return EXIT_OK if all(sec.asserted_pass for sec in results) else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gbh-fdr",
                                 description="grouped adaptive multiple testing, its "
                                             "closed-form FDR bound, and audits")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate the FDR bound at one point")
    b.add_argument("--lambda", dest="lam", type=float, required=True)
    b.add_argument("--rho", type=float, required=True)
    b.add_argument("--alpha", type=float, required=True)
    b.add_argument("--aform", action="store_true",
                   help="also print the a-parameterized evaluation")
    b.add_argument("--force", action="store_true",
                   help="allow lambda in (1/2, 1) outside the guarantee domain")
    b.set_defaults(fn=cmd_bound)

    c = sub.add_parser("curve", help="export bound curves over a (lambda, rho) grid as CSV")
    c.add_argument("--lambdas", default="0.05:0.5:0.05",
                   help="comma list or start:stop:step (default the 10 standard levels)")
    c.add_argument("--rhos", default="0.005:0.335:0.005",
                   help="comma list or start:stop:step (default 0.005..0.335)")
    c.add_argument("--alpha", type=float, default=0.05)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_curve)

    s = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    s.add_argument("--config", default=None, help="flat key=value config file")
    for flag, field in CONFIG_FLAGS:
        # Raw strings: flag_updates parses them with the config-file grammar.
        s.add_argument(flag, dest=field, default=None)
    s.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; replications run in one thread")
    s.add_argument("--log", default=None, help="append a CSV summary line to this file")
    s.set_defaults(fn=cmd_simulate)

    a = sub.add_parser("adjust", help="weight and test a CSV of p-values")
    a.add_argument("--input", required=True, help="CSV with a pvalue column "
                                                  "(plus group for the grouped procedure)")
    a.add_argument("--lambda", dest="lam", type=float, default=0.5)
    a.add_argument("--alpha", type=float, default=0.05)
    a.add_argument("--procedure", choices=PROCEDURES, default="gbh1")
    a.add_argument("--out", default=None, help="write CSV here instead of stdout")
    a.set_defaults(fn=cmd_adjust)

    v = sub.add_parser("verify", help="run numerical audits")
    v.add_argument("--section", choices=(*_SECTION_RUNNERS, "all"), required=True)
    v.add_argument("--seed", type=int, default=20260822)
    v.add_argument("--reps", type=int, default=20000,
                   help="Monte Carlo replications for the lemmas section")
    v.add_argument("--out", default=None, help="write the JSON reports here")
    v.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the input-error code.
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:  # DomainError and ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
