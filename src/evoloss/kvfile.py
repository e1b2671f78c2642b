"""Tiny `key = value` text format used for params and train configs."""

from __future__ import annotations

from .errors import ValidationError


def parse_kv_text(text: str) -> dict[str, float]:
    """Parse `key = value` lines into a dict of floats.

    Blank lines and lines starting with '#' are skipped.  Raises
    ValidationError on any line that is not of that shape or whose
    value is not numeric.
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
    return out


def read_text(path) -> str:
    """The text of a UTF-8 file; ValidationError when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def read_kv_file(path) -> dict[str, float]:
    return parse_kv_text(read_text(path))


def write_kv_file(path, items: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items.items():
            fh.write(f"{key} = {float(value)!r}\n")
