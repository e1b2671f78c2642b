"""The package's small text formats: `key = value` files for params and
train configs, CSV tables, and CSV rows written a block at a time."""

from __future__ import annotations

import csv
import re
import sys

from .errors import ValidationError

# the decimal integer literals int() reads, underscores included
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


def parse_kv_text(text: str) -> dict[str, float | int]:
    """Parse `key = value` lines into a dict of floats, except that an
    integer a float cannot hold exactly is kept as an int.

    Blank lines and lines starting with '#' are skipped.  Raises
    ValidationError on any line that is not of that shape or whose
    value is not numeric, or is an integer of more digits than int()
    reads (sys.get_int_max_str_digits()).
    """
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"line {lineno}: empty key")
        if key in out:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = float(value)
        except ValueError:
            raise ValidationError(
                f"line {lineno}: value for {key!r} is not a number: {value!r}"
            ) from None
        try:
            integral = int(value)
        except ValueError:
            if not _INTEGER.fullmatch(value):
                continue
            # an integer longer than int() reads: int() refuses it because
            # converting it takes time quadratic in its length
            raise ValidationError(
                f"line {lineno}: value for {key!r} has more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        if integral != out[key]:
            out[key] = integral
    return out


def read_text(path) -> str:
    """The text of a UTF-8 file; ValidationError when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def read_kv_file(path) -> dict[str, float | int]:
    return parse_kv_text(read_text(path))


def write_kv_file(path, items: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in items.items():
            fh.write(f"{key} = {float(value)!r}\n")


def write_csv(path, header, rows) -> None:
    """Write header and then rows as a CSV table: csv.writer's quoting,
    LF line ends, and each field as its str(), for a float its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


#: Rows write_rows formats at once, so the text it holds stays bounded.
BLOCK_ROWS = 4096


def write_rows(fh, n: int, row: list) -> None:
    """Write n rows to fh, BLOCK_ROWS at a time.

    row lists the parts of one row: a string is repeated on every row,
    and a function fields(lo, hi) gives that part's strings for rows lo
    to hi - 1.  A block is one parts list, filled a column at a time by
    slice assignment, and one join.
    """
    width = len(row)
    columns = [(i, part) for i, part in enumerate(row) if not isinstance(part, str)]
    parts = row * min(n, BLOCK_ROWS)
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        del parts[(hi - lo) * width :]
        for i, fields in columns:
            parts[i::width] = fields(lo, hi)
        fh.write("".join(parts))


def repr_fields(column):
    """The fields(lo, hi) of write_rows for a 1-D array, one repr each."""
    return lambda lo, hi: map(repr, column[lo:hi].tolist())
