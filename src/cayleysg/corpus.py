"""Small multiplication tables: exhaustive streams, canonical forms, dumps.

generate_tables fills the n x n table cell by cell, pruning with every
associativity instance that reads the cell just filled and whose four
lookups are already determined; complete tables are therefore associative
by construction (and revalidated anyway).
Deduplication keeps a table iff it equals its own canonical form, so each
isomorphism (or isomorphism-or-antiisomorphism) class is emitted exactly
once without storing the stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import DEDUP_MODES, MalformedTableError, MulTable, _check_cap, _check_size, make_table
from .tableio import parse_entries, parse_natural

# Full enumeration is only sane for tiny orders; canonical forms go a bit
# further since they only pay n! per call.
ENUMERATION_CAP = 4
CANONICAL_CAP = 6


@dataclass(frozen=True)
class CorpusSpec:
    """What to stream: the order and the deduplication mode."""

    order: int
    dedup: str = "labeled"


def _flat(rows):
    return tuple(v for row in rows for v in row)


def canonical_form(rows, mode: str = "up_to_iso") -> bytes:
    """Least serialization of the table over all relabelings; with mode
    'up_to_iso_anti' the transpose participates too, so mutually
    antiisomorphic tables share their form.  Order above 6 raises
    SizeCapError ('labeled' skips the search and never does).
    """
    if mode not in DEDUP_MODES:
        raise ValueError("unknown dedup mode %r" % mode)
    if hasattr(rows, "rows"):
        rows = rows.rows
    n = len(rows)
    if mode == "labeled":
        return _serialize(n, _flat(rows))
    _check_cap(n, CANONICAL_CAP)
    variants = (rows, tuple(zip(*rows))) if mode == "up_to_iso_anti" else (rows,)
    # renaming x to p[x] puts p[t[a][b]] at cell (p[a], p[b]); q inverts p
    best = min(
        tuple([p[t[a][b]] for a in q for b in q])
        for t in variants
        for p in itertools.permutations(range(n))
        for q in [sorted(range(n), key=p.__getitem__)]
    )
    return _serialize(n, best)


def _serialize(n, flat):
    return ("%d:" % n + ",".join(map(str, flat))).encode("ascii")


def generate_tables(spec: CorpusSpec):
    """Stream every associative table of the given order as MulTables.

    Cells are filled in row-major order, each with 0..n-1 in turn, so the
    labeled stream is in lexicographic order of the flattened table.  With
    dedup 'up_to_iso' or 'up_to_iso_anti' only canonical representatives
    are yielded.
    """
    n = _check_size("order", spec.order, ENUMERATION_CAP)
    if spec.dedup not in DEDUP_MODES:
        raise ValueError("unknown dedup mode %r" % spec.dedup)
    cells = [(i, j) for i in range(n) for j in range(n)]

    grid = [[-1] * n for _ in range(n)]
    # Filling cell (i, j) can only complete a triple that reads it as a*b,
    # b*c, (a*b)*c or a*(b*c), so one with a == i or c == j; every other
    # determined triple was checked when its own last cell was filled.
    triples = list(itertools.product(range(n), repeat=3))
    touching = [[(a, b, c) for a, b, c in triples if a == i or c == j] for i, j in cells]

    def consistent(depth):
        for a, b, c in touching[depth]:
            ab = grid[a][b]
            if ab < 0:
                continue
            bc = grid[b][c]
            if bc < 0:
                continue
            left = grid[ab][c]
            right = grid[a][bc]
            if left >= 0 and right >= 0 and left != right:
                return False
        return True

    def fill(depth):
        if depth == len(cells):
            yield make_table(grid)
            return
        i, j = cells[depth]
        for v in range(n):
            grid[i][j] = v
            if consistent(depth):
                yield from fill(depth + 1)
        grid[i][j] = -1

    stream = fill(0)
    if spec.dedup == "labeled":
        yield from stream
        return
    for table in stream:
        if canonical_form(table.rows, spec.dedup) == _serialize(n, _flat(table.rows)):
            yield table


def dump_line(S: MulTable) -> str:
    """One-line form of a table: order and rows (1-based), ';' separated."""
    parts = [str(S.order)]
    parts.extend(" ".join(str(v + 1) for v in row) for row in S.rows)
    return ";".join(parts)


def load_dump_line(line: str) -> MulTable:
    """Inverse of dump_line; the declared order must equal the row count
    and every entry must be an ASCII numeral, as in a table file."""
    order, *parts = line.strip().split(";")
    try:
        declared = parse_natural(order) == len(parts) > 0
    except ValueError:
        declared = False
    if not declared:
        raise MalformedTableError(
            "declared order %r but got %d rows" % (order, len(parts))
        )
    try:
        rows = [parse_entries(part.split(), len(parts)) for part in parts]
    except ValueError as err:
        raise MalformedTableError(str(err))
    return make_table(rows)

