"""Differential tests of `adjust`'s columnar reader and joined-row writer.

Tables that csv.reader would split at every comma are read column by column
and written with one ",".join per row; everything else goes through
csv.reader, over the text of the file read once, and csv.writer.  The
row-by-row reader and writer that `adjust` used before are kept below as the
oracle, and every table generated here must give the same exit code, stdout,
stderr and --out bytes through main().
"""

import contextlib
import csv
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbh_fdr import cli
from gbh_fdr.cli import EXIT_INPUT, EXIT_OK, main
from gbh_fdr.procedures import GroupedPValues, bh_step_up, gbh1, storey
from gbh_fdr.simulator import ConfigError

LIMIT = csv.field_size_limit()


# ---------------------------------------------------------------------------
# oracle: the row-by-row reader and writer

def oracle_lines(fh, path):
    """The lines of fh, opened with errors="surrogateescape": a byte that is
    not UTF-8 reads as an escape in U+DC80..U+DCFF, and the first one met
    ends the lines, naming its path:line."""
    for lineno, line in enumerate(fh, start=1):
        bad = re.search("[\udc80-\udcff]", line)
        if bad:
            raise ConfigError(f"{path}:{lineno}: byte 0x{ord(bad[0]) - 0xdc00:02x} is not UTF-8")
        yield line


def oracle_read(path, need_group: bool) -> tuple:
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(oracle_lines(fh, path))
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
                lineno = reader.line_num
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(cols):
                    raise ValueError(f"{path}:{lineno}: expected {len(cols)} fields, "
                                     f"got {len(row)}")
                try:
                    p = float(row[p_idx])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad pvalue {row[p_idx]!r}")
                if math.isnan(p) or not (0.0 <= p <= 1.0):
                    raise ValueError(f"{path}:{lineno}: pvalue {p} outside [0, 1]")
                pvals.append(p)
                labels.append(row[g_idx].strip() if g_idx is not None else "all")
                rows.append(row)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        if not rows:
            raise ValueError(f"{path}: no data rows")
    return cols, rows, pvals, labels


def oracle_adjust_text(path, procedure, lam, alpha) -> str:
    cols, rows, pvals, labels = oracle_read(path, procedure == "gbh1")
    p = np.asarray(pvals)
    if procedure == "gbh1":
        res = gbh1(GroupedPValues.from_labels(p, labels), lam, alpha)
    elif procedure == "storey":
        res = storey(p, lam, alpha)
    else:
        res = bh_step_up(p, alpha)
    rejected = set(res.rejected)
    keep = [i for i, c in enumerate(cols) if c not in ("weighted_pvalue", "rejected")]
    out_cols = [cols[i] for i in keep] + ["weighted_pvalue", "rejected"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(out_cols)
    for i, row in enumerate(rows):
        writer.writerow([row[j] for j in keep]
                        + [repr(float(res.weighted_pvalues[i])),
                           "true" if i in rejected else "false"])
    return buf.getvalue()


def oracle_run(path, procedure, lam, alpha, out) -> tuple:
    """(exit code, stdout, stderr, --out bytes or None), as main() gives them."""
    try:
        text = oracle_adjust_text(path, procedure, lam, alpha)
    except ValueError as exc:  # ConfigError, from oracle_lines, is one
        return EXIT_INPUT, "", f"error: {exc}\n", None
    if out is None:
        return EXIT_OK, text, "", None
    return EXIT_OK, "", "", text.encode("utf-8")


def cli_run(path, procedure, lam, alpha, out) -> tuple:
    argv = ["adjust", "--input", path, "--procedure", procedure,
            "--lambda", repr(lam), "--alpha", repr(alpha)]
    if out is not None:
        argv += ["--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    written = None
    if out is not None and os.path.exists(out):
        with open(out, "rb") as fh:
            written = fh.read()
        os.remove(out)
    return rc, stdout.getvalue(), stderr.getvalue(), written


# ---------------------------------------------------------------------------
# generated tables

SAFE_PVALUES = ["0", "1", "0.01", "0.2", "0.75", "1e-320", "-0.0", " 0.5 ", "0.0_1"]
BAD_PVALUES = ["1_0", "nan", "inf", "-inf", "1.5", "-0.1", "", " ", "x", "0.5\n", 'x"']
SAFE_LABELS = ["a", "b", "c", "", " a", "b ", " ", "\xe9", "\u3000"]
BAD_LABELS = ["a,b", 'q"t', "x\ny", "r\rs", "\x00", ",", '"']
HEADERS = ["pvalue", "group", " pvalue ", "group\t", "id", "weighted_pvalue",
           "rejected", ""]
BAD_HEADERS = ["p,value", 'gr"p', "id\r"]
BLANKS = ["", "  ", ",", ",,", " ,\t,", "\u3000"]


@st.composite
def tables(draw) -> str:
    """CSV text: a header, then data rows, blank rows and rows with a wrong
    field count.  A drawn share of the fields comes from the hostile pools,
    which need quoting or fail to parse; none does in about half of the
    tables, which csv.reader would split at every comma.  Fields are quoted
    when they must be and sometimes when not; some tables break that rule."""
    hostile = draw(st.sampled_from([0, 0, 1, 4]))  # in 20 fields

    def pick(safe: list, bad: list) -> str:
        return draw(st.sampled_from(bad if draw(st.integers(0, 19)) < hostile else safe))

    extra = [pick(HEADERS, BAD_HEADERS) for _ in range(draw(st.integers(0, 3)))]
    header = ["pvalue"] if draw(st.integers(0, 19)) else []
    header += ["group"] if draw(st.integers(0, 9)) else []
    header = draw(st.permutations(header + extra)) if header + extra else [""]
    records = [header]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            records.append(None)  # blank
            continue
        width = len(header) if kind > hostile else draw(st.integers(1, len(header) + 2))
        records.append([
            pick(SAFE_PVALUES + [repr(draw(st.floats(0.0, 1.0)))], BAD_PVALUES)
            if h.strip() == "pvalue" else pick(SAFE_LABELS, BAD_LABELS)
            for h in (header + [""] * width)[:width]])
    if hostile and draw(st.integers(0, 4)) == 0 and records[-1]:
        records[-1][-1] = "g" * (LIMIT + 1)  # over the csv field size limit
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"])) if hostile else "\n"

    def field(f: str) -> str:
        needs = any(c in f for c in ',"\r\n')
        if draw(st.integers(0, 9)) < (9 if needs else hostile):
            return '"' + f.replace('"', '""') + '"'
        return f

    lines = [draw(st.sampled_from(BLANKS)) if rec is None else ",".join(map(field, rec))
             for rec in records]
    return ending.join(lines) + (ending if draw(st.booleans()) else "")


RUNS = [("gbh1", 0.5, 0.2), ("storey", 0.5, 0.2), ("bh", 0.5, 0.05), ("gbh1", 1.5, 0.2)]


def assert_same(path, procedure, lam, alpha, out=None) -> tuple:
    got = cli_run(path, procedure, lam, alpha, out)
    assert got == oracle_run(path, procedure, lam, alpha, out), (procedure, lam, alpha)
    return got


@settings(max_examples=300, deadline=None)
@given(text=tables(), with_out=st.booleans())
def test_adjust_matches_the_row_by_row_oracle(text, with_out):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for procedure, lam, alpha in RUNS:
            rc, stdout, _, _ = assert_same(path, procedure, lam, alpha)
            if with_out:
                assert_same(path, procedure, lam, alpha, os.path.join(tmp, "out.csv"))
            if rc == EXIT_OK:
                # A re-run on the tool's own output.
                again = os.path.join(tmp, f"{procedure}.csv")
                with open(again, "w", encoding="utf-8", newline="") as fh:
                    fh.write(stdout)
                assert_same(again, procedure, lam, alpha)


# ---------------------------------------------------------------------------
# the line rule: one pattern splits the text for the readers and numbers the
# line of a bad byte

LINE_TEXT = st.text(st.one_of(st.sampled_from("a,\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                              st.characters()))


@settings(max_examples=500, deadline=None)
@given(text=LINE_TEXT)
def test_the_line_rule_splits_as_a_file_opened_with_newline_empty(text):
    assert cli._LINE.findall(text) == io.StringIO(text, newline="").readlines()


# ---------------------------------------------------------------------------
# which tables take the columnar path

@pytest.mark.parametrize("text", [
    "pvalue,group\n0.01,a\n0.2,b\n",
    "pvalue,group\n0.01,a\n0.2,b",                          # no final line end
    "pvalue\n0.01\n0.2\n",                                   # one final line end
    " pvalue ,group,pvalue\n 0.5 ,,x\n1e-320, a ,y\n-0.0,a,z\n0.0_1,b,w\n",
    "id,pvalue\n1,0.5\n2,1\n",                               # no group column
    "pvalue,group\n0.5," + "g" * (LIMIT - 4) + "\n",         # a line at the limit
])
def test_unquoted_tables_are_read_by_column(text):
    assert cli._split_columns(text, need_group=False) is not None


@pytest.mark.parametrize("text", [
    "",
    "\npvalue\n0.5\n",                                       # blank header
    "group\n0.5\n",                                          # no pvalue column
    'pvalue,group\n0.5,"a"\n',
    "pvalue,group\r\n0.5,a\r\n",
    "pvalue,group\r0.5,a\r",
    "pvalue,group\n0.5,a\x00\n",
    "pvalue,group\n0.5,a,\n",                                # a wrong field count
    "pvalue,group\n0.5\n",
    "pvalue,group\n,\n\n",                                   # no data rows
    "pvalue,group\n\n0.01,a\n  \n,\n\t, \n0.2,b\n\n",       # blank rows
    "pvalue,group\nx,a\n",
    "pvalue,group\nnan,a\n",
    "pvalue,group\ninf,a\n",
    "pvalue,group\n1_0,a\n",
    "pvalue,group\n-0.1,a\n",
    "pvalue,group\n0.5," + "g" * (LIMIT - 3) + "\n",         # a line past the limit
])
def test_doubtful_tables_fall_back_to_csv_reader(text):
    assert cli._split_columns(text, need_group=True) is None


def test_grouped_procedure_without_group_column_falls_back():
    assert cli._split_columns("pvalue\n0.5\n", need_group=True) is None
    assert cli._split_columns("pvalue\n0.5\n", need_group=False) is not None


# ---------------------------------------------------------------------------
# errors

@pytest.mark.parametrize("field", ["g" * (LIMIT + 1), '"' + "g" * (LIMIT + 1) + '"'])
def test_adjust_over_long_field_exits_2_naming_the_line(capsys, tmp_path, field):
    path = tmp_path / "long.csv"
    path.write_text(f"pvalue,group\n0.5,a\n0.5,{field}\n0.5,b\n")
    rc = main(["adjust", "--input", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (EXIT_INPUT, "")
    assert captured.err == f"error: {path}:3: field larger than field limit ({LIMIT})\n"


@pytest.mark.parametrize("text, flags", [
    ("pvalue,group\n0.1,a\nx,a\n", []),
    ('pvalue,group\n0.1,"a"\nx,a\n', []),
    ("pvalue,group\n0.1,a\n0.2,b\n", ["--lambda", "1.5"]),
    ("pvalue,group\n0.1,a\n0.2,b\n", ["--procedure", "bh", "--alpha", "1"]),
])
def test_adjust_error_writes_no_out_file(capsys, tmp_path, text, flags):
    path = tmp_path / "in.csv"
    path.write_text(text)
    out = tmp_path / "out.csv"
    rc = main(["adjust", "--input", str(path), "--out", str(out), *flags])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


FILLER = b"".join(b"a,0.%d\n" % i for i in range(3000))  # past csv.reader's first read


@pytest.mark.parametrize("data, err", [
    (b"group,pvalue\na,zz\n" + FILLER + b"a,0.5\xff\n", ":2: bad pvalue 'zz'"),
    (b"group,pvalue\na,0.5\n\xff,0.1\n" + FILLER + b"a,zz\n", ":3: byte 0xff is not UTF-8"),
    (b"group,pvalue\n" + FILLER + b"\xe9,0.1\n", ":3002: byte 0xe9 is not UTF-8"),
    (b"group,pvalue\na,zz\na,0.\xff5\n", ":2: bad pvalue 'zz'"),
    (b"id,group,pvalue\n1,a,notanumber\n2,a,0.5\n3,a,0.\xff5\n", ":2: bad pvalue 'notanumber'"),
    (b'group,pvalue\n"a",0.5\na,1.5\n\xff,0.1\n', ":3: pvalue 1.5 outside [0, 1]"),
], ids=["bad row, then a late bad byte", "bad byte, then a late bad row", "late bad byte",
        "bad row, then a bad byte", "bad row, then a bad byte three columns",
        "quoted, bad row, then a bad byte"])
def test_adjust_reports_a_bad_row_or_byte_in_file_order(tmp_path, data, err):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    for procedure, lam, alpha in RUNS[:3]:
        rc, stdout, stderr, _ = assert_same(str(path), procedure, lam, alpha)
        assert (rc, stdout, stderr) == (EXIT_INPUT, "", f"error: {path}{err}\n")


# ---------------------------------------------------------------------------
# a leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write it

BOM = "\ufeff".encode("utf-8")


@pytest.mark.parametrize("text, unquoted", [
    ("pvalue,group\n0.01,a\n0.2,b\n0.03,a\n", True),
    ('pvalue,group\n0.01,"a"\r\n0.2,b\r\n0.03,a\r\n', False),
    ("id,group,pvalue\n1,a,0.01\n2,b,0.2\n3,a,0.03\n", True),
    ("pvalue,group\n0.01,\ufeffa\n0.2,b\n", True),   # a later mark is text
], ids=["pvalue first", "quoted", "pvalue last", "mark inside a label"])
def test_adjust_skips_a_leading_byte_order_mark(tmp_path, text, unquoted):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(BOM + text.encode("utf-8"))
    assert cli._read_pvalue_table(str(marked), need_group=True)[3] is unquoted
    for procedure, lam, alpha in RUNS[:3]:
        for out in (None, str(tmp_path / "out.csv")):
            want = assert_same(str(plain), procedure, lam, alpha, out)
            assert want[0] == EXIT_OK
            assert assert_same(str(marked), procedure, lam, alpha, out) == want
    assert ("\ufeff" in cli_run(str(marked), "bh", 0.5, 0.05, None)[1]) == ("\ufeff" in text)


@pytest.mark.parametrize("data, err", [
    (b"", ":1: empty input"),
    (b"\xffpvalue,group\n0.01,a\n", ":1: byte 0xff is not UTF-8"),
    (b"pvalue,group\n0.01,a\n0.2,\xff\n", ":3: byte 0xff is not UTF-8"),
    (b'pvalue,group\n0.01,"a"\n0.2,\xff\n', ":3: byte 0xff is not UTF-8"),
    (b"group,pvalue\n" + FILLER + b"\xe9,0.1\n", ":3002: byte 0xe9 is not UTF-8"),
], ids=["mark only", "bad first byte", "bad byte", "bad byte, quoted", "late bad byte"])
def test_adjust_names_the_line_after_a_byte_order_mark(tmp_path, data, err):
    path = tmp_path / "in.csv"
    path.write_bytes(BOM + data)
    for procedure, lam, alpha in RUNS[:3]:
        rc, stdout, stderr, _ = assert_same(str(path), procedure, lam, alpha)
        assert (rc, stdout, stderr) == (EXIT_INPUT, "", f"error: {path}{err}\n")


# ---------------------------------------------------------------------------
# a field too long for csv.reader ends the read a little past its limit

CAP = 4 * LIMIT  # bytes that hold more characters than a field may


@pytest.mark.parametrize("head, chars, err", [
    (b"pvalue,group\n0.5,a\n0.5,", "g", ":3: field larger"),
    (BOM, "\U0001f600", ":1: field larger"),
    (b"pvalue,group\n0.5,a\n0.5,", "g\U0001f600", ":3: field larger"),
    (b"pvalue,group\n0.5,a\nx,b\n0.5,", "\xe9", ":3: bad pvalue 'x'"),
    (b"pvalue\n0.5\n", "\u3000", ":3: field larger"),
    (b"pvalue,group\n0.5,a\n0.5,\xff", "g", ":3: byte 0xff is not UTF-8"),
], ids=["ascii", "after a mark", "cut inside a character", "bad row first", "no comma",
        "bad byte first"])
def test_a_field_four_times_the_limit_ends_the_read(tmp_path, head, chars, err):
    data = head + chars.encode() * (2 * CAP // len(chars.encode())) + b"\n0.5,\xff\nx,a\n"
    path = tmp_path / "long.csv"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        read = cli._read_to_field_limit(fh)
    assert data.startswith(read) and CAP < len(read) < len(data)
    for procedure, lam, alpha in RUNS[1:3]:
        rc, stdout, stderr, _ = assert_same(str(path), procedure, lam, alpha)
        assert (rc, stdout) == (EXIT_INPUT, "") and stderr.startswith(f"error: {path}{err}")


@pytest.mark.parametrize("data", [
    b'pvalue,group\n"0.5",a\n0.5,' + b"g" * (2 * CAP),    # a quote read: never cut
    b"pvalue,group\n" + b"0.5,a\n" * (CAP // 3),           # short lines only
    b"pvalue,group\n0.5," + b"g" * CAP + b"\n",            # ends before the cut
])
def test_other_input_is_read_to_its_end(data):
    assert cli._read_to_field_limit(io.BytesIO(data)) == data
