"""Command-line front end.

Subcommands: bound, curve, simulate, adjust, verify.  Every format they read
or write lives here, from simulate's config grammar to the verify JSON, and
the other modules only compute.  Exit codes:
0 success, 1 an asserted verification failed, 2 bad input, out-of-domain
arguments or too little memory for the sizes asked, 3 I/O failure.  All
numeric output uses shortest round-trip decimals (Python repr) and fixed
key/column order, so identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib
import json
import math
import os
import re
import stat
import sys
from itertools import compress, islice, repeat

from . import PROCEDURES, ConfigError

# Where each engine name that the subcommands read comes from: (module,
# attribute), None for the module itself.  None is imported with this module:
# main binds those of the subcommand's module (its parser's engine default),
# and __getattr__ any name read from outside, so --help loads no numpy.
# Functions that callers may reach without main import numpy themselves.
_ENGINE = {name: (module, name) for module, names in (
    (".bound", "BoundInput check_point curve_points fdr_bound fdr_bound_aform in_theorem_domain"),
    (".procedures", "GroupedPValues bh_step_up gbh1 storey"),
    (".simulator", "SimConfig config_with_updates run_mc")) for name in names.split()}
_ENGINE["verify_mod"] = (".verify", None)


def __getattr__(name: str):
    """An engine name, imported on first access and kept as a global."""
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _ENGINE[name]
    module = importlib.import_module(module, __package__)
    globals()[name] = module if attr is None else getattr(module, attr)
    return globals()[name]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_IO = 3

# The most points one start:stop:step range, or one curve grid of lambdas x
# rhos, may hold.  It is checked before the points are built or evaluated, so
# a mistyped step exits 2 instead of filling memory.
GRID_MAX_POINTS = 100_000

# The longest config file read, far above any real one: a file past it, such
# as /dev/zero, is refused instead of read until memory runs out.
CONFIG_MAX_BYTES = 65536

# Label attached to JSON output when a campaign ran on the built-in desk
# defaults; those defaults are this package's choices, not derived values.
DEFAULTS_SOURCE = "builtin-defaults"


def _grid(spec: str, name: str) -> list:
    """Parse '0.05:0.5:0.05' (inclusive range) or '0.1,0.2,0.3'.  name, the
    flag the spec came from, leads every error.  A range holds each
    start + i*step up to stop, computed exactly in decimal on the shortest
    digits of start, stop and step, and rounded to float once."""
    spec = spec.strip()

    def number(v: str) -> float:
        try:
            return float(v)
        except ValueError:
            raise ValueError(f"{name} {spec!r}: {v.strip()!r} is not a number") from None

    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"{name} {spec!r} must be start:stop:step or comma list")
        start, stop, step = (number(v) for v in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"{name} {spec!r} needs a finite start, stop and step")
        if step <= 0 or stop < start:
            raise ValueError(f"{name} {spec!r} has an empty range")
        span = (stop - start) / step  # inf when stop - start overflows
        if not span < GRID_MAX_POINTS - 0.5:  # round(span) + 1 points
            raise ValueError(f"{name} {spec!r} has more than {GRID_MAX_POINTS} points")
        import decimal
        # At MAX_PREC no sum of these short decimals is rounded.
        with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC)):
            start, stop, step = (decimal.Decimal(repr(v)) for v in (start, stop, step))
            vals = (start + i * step for i in range(int(round(span)) + 1))
            return [float(v) for v in vals if v <= stop]
    vals = [number(v) for v in spec.split(",") if v.strip() != ""]
    if not vals:
        raise ValueError(f"{name} {spec!r}: no values")
    return vals


def _check_destination(path) -> None:
    """Raise the OSError that opening path for writing would raise, leaving
    nothing behind: a bad output path then ends a command before its work.
    The OS answers.  A new path is created and removed at once; an existing
    one is opened for writing without truncation; a dangling symlink is
    checked at its target, which open would create.  A FIFO passes unopened:
    the probe's close would hand a reader waiting in open an EOF, and the
    late open waits for a reader itself.  None, for stdout, passes."""
    if path is None:
        return
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        pass
    else:
        os.unlink(path)
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:  # a symlink to a missing file
        try:
            _check_destination(os.path.join(os.path.dirname(path), os.readlink(path)))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        return
    if not stat.S_ISFIFO(mode):
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))


def cmd_bound(args) -> int:
    check_point(args.lam, args.rho, args.alpha, allow_out_of_domain=args.force,
                override="--force")
    inp = BoundInput(lam=args.lam, rho=args.rho, alpha=args.alpha)
    bd = fdr_bound(inp, allow_out_of_domain=args.force)
    out = {
        "lambda": args.lam,
        "rho": args.rho,
        "alpha": args.alpha,
        "in_theorem_domain": in_theorem_domain(args.lam, args.rho, args.alpha),
        "rho_form": dataclasses.asdict(bd),
        "ratio": bd.total / args.alpha,
    }
    if args.aform:
        out["a_form"] = dataclasses.asdict(fdr_bound_aform(inp, allow_out_of_domain=args.force))
    print(json.dumps(out))
    return EXIT_OK


def cmd_curve(args) -> int:
    lams = _grid(args.lambdas, "--lambdas")
    rhos = _grid(args.rhos, "--rhos")
    if len(lams) * len(rhos) > GRID_MAX_POINTS:
        raise ValueError(f"--lambdas x --rhos is {len(lams)} x {len(rhos)} points, "
                         f"more than {GRID_MAX_POINTS}")
    _check_destination(args.out)
    points = curve_points(lams, rhos, args.alpha)  # a bad grid is refused before the open

    def rows():
        for lam, rho in points:
            total = fdr_bound(BoundInput(lam=lam, rho=rho, alpha=args.alpha)).total
            yield repr(lam), repr(rho), repr(total), repr(total / args.alpha)

    with open(args.out, "w", encoding="utf-8") as fh:
        _write_table(fh, ["lambda", "rho", "bound", "ratio"], rows(), unquoted=True)
    print(f"wrote {len(lams) * len(rhos)} rows to {args.out}")
    return EXIT_OK


# --- flat key=value config files ------------------------------------------

def _int_list(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(",") if v.strip() != "")


def _float_or_list(raw: str):
    parts = [v for v in raw.split(",") if v.strip() != ""]
    return float(parts[0]) if len(parts) == 1 else tuple(float(v) for v in parts)


# key -> (SimConfig field, parser), in the JSON summary's order.  Parsers get
# the value already stripped; list parsers skip empty items.
_CONFIG_KEYS = {
    "m": ("m", int),
    "group_sizes": ("group_sizes", _int_list),
    "nonnull_counts": ("nonnull_counts", _int_list),
    "effect_mu": ("effect_mu", _float_or_list),
    "rho": ("rho", float),
    "lambda": ("lam", float),
    "alpha": ("alpha", float),
    "procedure": ("procedure", str),
    "replications": ("replications", int),
    "seed": ("seed", int),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# (flag, field) per config key: the command line spells each key as a flag.
CONFIG_FLAGS = tuple((_flag(key), field) for key, (field, _) in _CONFIG_KEYS.items())


def flag_updates(values: dict) -> dict:
    """Field updates from raw flag strings keyed by field name (None: flag
    not given), parsed with the config-file grammar."""
    updates = {}
    for key, (field, parse) in _CONFIG_KEYS.items():
        raw = values.get(field)
        if raw is not None:
            try:
                updates[field] = parse(raw.strip())
            except ValueError as exc:
                raise ConfigError(f"{_flag(key)}: bad value {raw!r}: {exc}") from exc
    return updates


# A line and its end (\n, \r\n or \r), as a file opened with newline="" reads
# it.  The readers' lines and an error's line number both come from it.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _read_utf8(path, limit: int = -1) -> tuple:
    """(text, error): path read once, up to one byte past limit if there is
    one, and decoded as UTF-8, a leading byte-order mark skipped.  error is
    None, or the ConfigError naming the path:line of the first byte that is
    not UTF-8 or past limit; text then holds only the lines before its line."""
    with open(path, "rb") as fh:
        data = fh.read(limit + 1 if limit >= 0 else -1)
    problem = None
    if len(data) > limit >= 0:  # cut at a line end, which is never inside a character
        data = data[:max(data.rfind(b"\n", 0, limit), data.rfind(b"\r", 0, limit)) + 1]
        problem = f"more than {limit} bytes"
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:  # utf-8-sig's offset would leave out the mark
        text = data[:exc.start].decode("utf-8").removeprefix("\ufeff")
        problem = f"byte 0x{data[exc.start]:02x} is not UTF-8"
    if problem is None:
        return text, None
    text = text[:max(text.rfind("\n"), text.rfind("\r")) + 1]
    return text, ConfigError(f"{path}:{len(_LINE.findall(text)) + 1}: {problem}")


def _lines(text: str, error):
    """The lines of text, then error raised if there is one: a reader meets
    a bad byte only after every line before it."""
    yield from map(re.Match.group, _LINE.finditer(text))
    if error is not None:
        raise error


def load_config_file(path) -> dict:
    """Parse a flat key=value file ('#' starts a comment) into field updates."""
    updates = {}
    for lineno, line in enumerate(_lines(*_read_utf8(path, CONFIG_MAX_BYTES)), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        field, parse = _CONFIG_KEYS[key]
        try:
            updates[field] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return updates


# --- serialization ---------------------------------------------------------

def summary_json_dict(summary, config_source: str = DEFAULTS_SOURCE) -> dict:
    """A SimSummary as a fixed-key-order JSON dict; floats keep full repr precision."""
    return {
        "config": {key: getattr(summary.config, field) for key, (field, _) in _CONFIG_KEYS.items()},
        "config_source": config_source,
        "defaults_note": "default campaign settings are this package's desk-scale choices",
        "replications_run": summary.replications_run,
        "fdr_hat": summary.fdr_hat,
        "fdr_se": summary.fdr_se,
        "power_hat": summary.power_hat,
        "power_se": summary.power_se,
        "bound_value": summary.bound_value,
    }


LOG_HEADER = "procedure,m,rho,lambda,alpha,reps,fdr_hat,fdr_se,power_hat,power_se,bound"


def log_csv_line(summary) -> str:
    cfg = summary.config
    opt = lambda v: "" if v is None else repr(v)
    return ",".join([
        cfg.procedure, str(cfg.m), repr(cfg.rho), repr(cfg.lam), repr(cfg.alpha),
        str(summary.replications_run), repr(summary.fdr_hat), repr(summary.fdr_se),
        opt(summary.power_hat), opt(summary.power_se), opt(summary.bound_value),
    ])


def append_log(summary, path) -> None:
    """Append one campaign line, writing the header first on a fresh file."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(LOG_HEADER + "\n")
        fh.write(log_csv_line(summary) + "\n")


def cmd_simulate(args) -> int:
    # Merged before validation: a file value that a flag replaces is never checked.
    file_updates = load_config_file(args.config) if args.config is not None else {}
    config = config_with_updates(SimConfig(), {**file_updates, **flag_updates(vars(args))})
    source = DEFAULTS_SOURCE if args.config is None else str(args.config)
    _check_destination(args.log)
    summary = run_mc(config)
    print(json.dumps(summary_json_dict(summary, config_source=source)))
    if args.log is not None:
        append_log(summary, args.log)
    return EXIT_OK


def _read_csv_rows(lines, path, need_group: bool) -> tuple:
    """(header, rows, pvalues) by csv.reader over lines, as _lines gives
    them: the reference reading, and the one that reports errors, in file
    order.  Errors carry 1-based physical line numbers."""
    reader = csv.reader(lines)
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
        rows, pvals = [], []
        for row in reader:
            # The physical line the record ends on: a quoted field may span lines.
            lineno = reader.line_num
            if not "".join(row).strip():  # blank: no fields, or only whitespace
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
            rows.append(row)
    except csv.Error as exc:  # an over-long field, or a NUL before Python 3.11
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return cols, rows, pvals


def _split_columns(text: str, need_group: bool):
    """(header, columns, pvalues) of a table that csv.reader would split at
    every comma, read column by column; None when it might not (a quote, a
    carriage return or a NUL in the text, or a line longer than a field may
    be) or when _read_csv_rows would report an error."""
    import numpy as np
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
    return cols, columns, p


def _read_pvalue_table(path, need_group: bool) -> tuple:
    """(header, columns, pvalues, unquoted) from a CSV with a pvalue column
    and, when needed, a group column.  columns holds each column's fields as
    read; unquoted says that none of them needs quoting on output.  The file
    is read once (a pipe serves), a leading byte-order mark skipped; a table
    the columnar path declines goes through csv.reader over the decoded text.
    Errors come in file order, with 1-based physical line numbers."""
    import numpy as np
    text, error = _read_utf8(path)
    if error is None and (table := _split_columns(text, need_group)) is not None:
        return (*table, True)
    cols, rows, pvals = _read_csv_rows(_lines(text, error), path, need_group)
    return cols, list(zip(*rows)), np.asarray(pvals), False


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
    _check_destination(args.out)
    need_group = args.procedure == "gbh1"
    cols, columns, p, unquoted = _read_pvalue_table(args.input, need_group)
    if args.procedure == "gbh1":
        labels = list(map(str.strip, columns[cols.index("group")]))
        res = gbh1(GroupedPValues.from_labels(p, labels), args.lam, args.alpha)
    elif args.procedure == "storey":
        res = storey(p, args.lam, args.alpha)
    else:
        res = bh_step_up(p, args.alpha)
    rejected = ["false"] * len(p)
    for i in res.rejected:
        rejected[i] = "true"
    keep = [i for i, c in enumerate(cols) if c not in ("weighted_pvalue", "rejected")]
    out_cols = [cols[i] for i in keep] + ["weighted_pvalue", "rejected"]
    rows = zip(*(columns[j] for j in keep), map(repr, res.weighted_pvalues.tolist()), rejected)
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
    # Only the flags given are passed: the section's own defaults are SimConfig's.
    "lemmas": lambda args: verify_mod.run_lemmas_section(
        **{key: value for key, value in vars(args).items() if key in ("seed", "replications")}),
}


def cmd_verify(args) -> int:
    _check_destination(args.out)
    sections = list(_SECTION_RUNNERS) if args.section == "all" else [args.section]
    # lemmas runs first: a size it refuses ends the run before any other section's work
    ran = {name: _SECTION_RUNNERS[name](args) for name in sorted(sections, key="lemmas".__ne__)}
    results = [ran[name] for name in sections]
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
    b.set_defaults(fn=cmd_bound, engine=".bound")

    c = sub.add_parser("curve", help="export bound curves over a (lambda, rho) grid as CSV")
    c.add_argument("--lambdas", default="0.05:0.5:0.05",
                   help="comma list or start:stop:step (default the 10 standard levels)")
    c.add_argument("--rhos", default="0.005:0.335:0.005",
                   help="comma list or start:stop:step (default 0.005..0.335)")
    c.add_argument("--alpha", type=float, default=0.05)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_curve, engine=".bound")

    s = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    s.add_argument("--config", default=None, help="flat key=value config file")
    for flag, field in CONFIG_FLAGS:
        # Raw strings: flag_updates parses them with the config-file grammar.
        s.add_argument(flag, dest=field, default=None)
    s.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; replications run in one thread")
    s.add_argument("--log", default=None, help="append a CSV summary line to this file")
    s.set_defaults(fn=cmd_simulate, engine=".simulator")

    a = sub.add_parser("adjust", help="weight and test a CSV of p-values")
    a.add_argument("--input", required=True, help="CSV with a pvalue column "
                                                  "(plus group for the grouped procedure)")
    a.add_argument("--lambda", dest="lam", type=float, default=0.5)
    a.add_argument("--alpha", type=float, default=0.05)
    a.add_argument("--procedure", choices=PROCEDURES, default="gbh1")
    a.add_argument("--out", default=None, help="write CSV here instead of stdout")
    a.set_defaults(fn=cmd_adjust, engine=".procedures")

    v = sub.add_parser("verify", help="run numerical audits")
    v.add_argument("--section", choices=(*_SECTION_RUNNERS, "all"), required=True)
    v.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    v.add_argument("--reps", type=int, default=argparse.SUPPRESS, dest="replications",
                   metavar="REPS", help="Monte Carlo replications for the lemmas section")
    v.add_argument("--out", default=None, help="write the JSON reports here")
    v.set_defaults(fn=cmd_verify, engine=".verify")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the input-error code.
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    for name, (module, _) in _ENGINE.items():  # a name bound already, as by a patch, stays
        if module == args.engine and name not in globals():
            __getattr__(name)
    try:
        return args.fn(args)
    except ValueError as exc:  # DomainError and ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # a size within the budget, on a machine short of memory
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
