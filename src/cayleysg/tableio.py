"""Plain text multiplication tables.

Format: '#' starts a comment (whole line or trailing), blank lines are
skipped, the first data line is the order n, the next n data lines hold n
entries each (1-based element indices), and an optional final data line
'names: a b c ...' attaches display names.  The order and the entries are
ASCII decimal numerals: no sign and no other script's digits.
"""

from __future__ import annotations

from .core import MulTable, MalformedTableError, make_table


class TableParseError(ValueError):
    """The text is not a well-formed table file."""


def parse_natural(field: str) -> int:
    """The value of an ASCII numeral [0-9]+; ValueError for anything else,
    such as a sign, an underscore or a digit of another script, all of
    which int() accepts."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError("not an ASCII decimal numeral: %r" % field)
    return int(field)


def parse_entries(fields, n: int) -> list[int]:
    """0-based values of ASCII numerals in 1..n; ValueError names the first bad one."""
    values = []
    for field in fields:
        try:
            value = parse_natural(field)
        except ValueError:
            raise ValueError("non-integer entry %r" % field)
        if not 1 <= value <= n:
            raise ValueError("entry %d out of range 1..%d" % (value, n))
        values.append(value - 1)
    return values


def parse_table(text: str) -> MulTable:
    """Parse a table file; raises TableParseError for malformed input and
    NotAssociativeError (from make_table) for a well-formed table of a
    non-associative operation."""
    data = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            data.append(line)
    if not data:
        raise TableParseError("no table data")
    try:
        n = parse_natural(data[0])
    except ValueError:
        raise TableParseError("first data line must be the order, got %r" % data[0])
    if n < 1:
        raise TableParseError("order must be positive, got %d" % n)
    if len(data) < n + 1:
        raise TableParseError("expected %d rows, found %d" % (n, len(data) - 1))
    rows = []
    for idx, line in enumerate(data[1 : n + 1]):
        fields = line.split()
        if len(fields) != n:
            raise TableParseError(
                "row %d has %d entries, expected %d" % (idx + 1, len(fields), n)
            )
        try:
            rows.append(parse_entries(fields, n))
        except ValueError as err:
            raise TableParseError("%s in row %d" % (err, idx + 1))
    names = None
    extra = data[n + 1 :]
    if extra:
        if len(extra) > 1 or not extra[0].startswith("names:"):
            raise TableParseError("unexpected trailing data: %r" % extra[0])
        names = extra[0][len("names:") :].split()
    try:
        return make_table(rows, names)
    except MalformedTableError as err:
        raise TableParseError(str(err))


def format_table(S: MulTable) -> str:
    """Render a table in the file format; parse_table inverts this."""
    lines = [str(S.order)]
    width = len(str(S.order))
    for row in S.rows:
        lines.append(" ".join(str(v + 1).rjust(width) for v in row))
    if S.names is not None:
        lines.append("names: " + " ".join(S.names))
    return "\n".join(lines) + "\n"


def _shifted(value):
    """The value with every element index, however nested, made 1-based:
    the one rule for indices in JSON output."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        return {key: _shifted(item) for key, item in value.items()}
    return [_shifted(item) for item in value]
