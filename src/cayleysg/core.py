"""Multiplication tables of finite semigroups, named families and products.

Elements are always the indices 0..n-1; optional names are display labels
only.  Everything downstream (Green's relations, machines, enumeration)
works on plain tuples of ints, so tables are cheap to hash and compare.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

# Constructors refuse to build tables larger than this.
SIZE_CAP = 64
DEFAULT_BUDGET = 10_000
WORK_CAP = 200_000

# How corpus.generate_tables and canonical_form tell tables apart: by their
# labeled rows, up to isomorphism, or up to isomorphism and anti-isomorphism.
DEDUP_MODES = ("labeled", "up_to_iso", "up_to_iso_anti")


class MalformedTableError(ValueError):
    """The rows do not form a square table with entries in 0..n-1."""


class NotAssociativeError(ValueError):
    """The table fails associativity; ``triple`` holds a failing (a, b, c)."""

    def __init__(self, triple):
        a, b, c = triple
        self.triple = (a, b, c)
        super().__init__(
            "not associative: (a*b)*c != a*(b*c) for a=%d, b=%d, c=%d (1-based)"
            % (a + 1, b + 1, c + 1)
        )


class SizeCapError(ValueError):
    """A constructor would exceed the size cap."""


class ClosureCapError(ValueError):
    """Section closure passed the cap, which is only a resource limit: sections
    keep word length, so a length-k word has at most |S|**k residual words."""

    def __init__(self, count):
        self.count = count
        super().__init__("section closure exceeded %d words" % count)


class StateCapError(ValueError):
    """The behavior graph grew past its state cap."""

    def __init__(self, count):
        self.count = count
        super().__init__("behavior graph exceeded %d states" % count)


class WorkCapError(ValueError):
    """The requested sweep is larger than the configured work cap."""


class UnknownFamilyError(ValueError):
    """No built-in family with the requested name."""


@dataclass(frozen=True)
class MulTable:
    """A finite semigroup given by its multiplication table.

    rows[a][b] is the product a*b.  Instances are built through make_table
    (or the constructors below), which validate shape and associativity.
    """

    rows: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.rows)

    def mul(self, a: int, b: int) -> int:
        _check_elements("element", (a, b), len(self.rows))
        return self.rows[a][b]


def _check_elements(name, values, n):
    """The one rule for element indices: each an int, not a bool (which
    would read as 0 or 1), in 0..n-1.  One call checks a whole word."""
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise ValueError("%s %r out of range 0..%d" % (name, v, n - 1))
    return values


def _check_int(name, value):
    """The rule for lengths, budgets and caps: an int, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s must be an int, not %r" % (name, value))
    return value


def _check_cap(n, cap):
    """The one size-cap rule: an order above cap (None: no cap) raises; a
    cap that is not an int or is a bool raises ValueError."""
    if cap is not None and n > _check_int("cap", cap):
        raise SizeCapError("order %d exceeds cap %d" % (n, cap))


def _check_size(name, value, cap=None):
    """The one rule for orders and lengths: an int, not a bool, at least 1
    and at most cap."""
    if _check_int(name, value) < 1:
        raise ValueError("%s must be positive" % name)
    _check_cap(value, cap)
    return value


def word_total(letters: int, length: int) -> int:
    """The number of words of length 1..length over the given number of
    letters, sum of letters**l, in closed form."""
    return length if letters == 1 else letters * (letters**length - 1) // (letters - 1)


def _check_words(letters: int, length: int, work_cap: int) -> None:
    """The one work-cap rule: raise WorkCapError if the words of length
    1..length over the given number of letters are more than work_cap.  Over
    two or more letters the lengths up to the cap's bit length plus one
    already pass it, so the count never runs further."""
    _check_int("work_cap", work_cap)
    if letters > 1:
        length = min(length, work_cap.bit_length() + 1)
    total = word_total(letters, length)
    if total > work_cap:
        raise WorkCapError("%d words exceed the work cap %d" % (total, work_cap))


def _check_shape(rows):
    n = len(rows)
    if n == 0:
        raise MalformedTableError("empty table")
    for row in rows:
        if len(row) != n:
            raise MalformedTableError(
                "expected %d entries per row, got %d" % (n, len(row))
            )
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise MalformedTableError("entry %r out of range 0..%d" % (v, n - 1))


def _picker(positions):
    """The map row -> tuple(row[k] for k in positions), one C call."""
    if len(positions) == 1:
        (k,) = positions
        return lambda row: (row[k],)
    return itemgetter(*positions)


def associativity_failure(rows):
    """The first triple (a, b, c) with (a*b)*c != a*(b*c), or None if
    associative.  The picker of row b turns row a into the row of a*(b*-),
    compared whole with row a*b; only a mismatch is scanned for its c."""
    rows = [tuple(row) for row in rows]
    pickers = [_picker(row) for row in rows]
    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            a_bc = pickers[b](row_a)
            if a_bc != rows[ab]:
                c = next(c for c, (x, y) in enumerate(zip(rows[ab], a_bc)) if x != y)
                return (a, b, c)
    return None


def check_associativity(rows) -> bool:
    """True iff rows is the table of an associative operation.

    Raises MalformedTableError if rows is not a square table over 0..n-1,
    so a malformed table is never reported as merely non-associative.
    """
    _check_shape(rows)
    return associativity_failure(rows) is None


def make_table(rows, names=None, cap: int | None = SIZE_CAP) -> MulTable:
    """Validate rows (shape, cap), names (non-empty, no whitespace, no '#',
    so that format_table's names line parses back) and associativity."""
    _check_shape(rows)
    _check_cap(len(rows), cap)
    if names is not None:
        names = tuple(str(x) for x in names)
        if len(names) != len(rows):
            raise MalformedTableError("name count does not match table order")
        for name in names:
            if name.split() != [name] or "#" in name:
                raise MalformedTableError("bad name %r" % name)
    fail = associativity_failure(rows)
    if fail is not None:
        raise NotAssociativeError(fail)
    return MulTable(tuple(tuple(row) for row in rows), names)


def direct_product(S: MulTable, T: MulTable, cap: int | None = SIZE_CAP) -> MulTable:
    """Componentwise product; the pair (a, b) gets index a*T.order + b.

    Names are paired when both factors are named, otherwise dropped.
    """
    m, k = S.order, T.order
    _check_cap(m * k, cap)
    rows = tuple(
        tuple(S.rows[a][c] * k + T.rows[b][d] for c in range(m) for d in range(k))
        for a in range(m)
        for b in range(k)
    )
    names = None
    if S.names is not None and T.names is not None:
        names = tuple(
            "(%s,%s)" % (S.names[a], T.names[b]) for a in range(m) for b in range(k)
        )
    return MulTable(rows, names)


def left_zero(n: int) -> MulTable:
    """a*b = a."""
    _check_size("order", n, SIZE_CAP)
    return MulTable(tuple(tuple(a for _ in range(n)) for a in range(n)))


def right_zero(n: int) -> MulTable:
    """a*b = b."""
    _check_size("order", n, SIZE_CAP)
    return MulTable(tuple(tuple(range(n)) for _ in range(n)))


def null(n: int) -> MulTable:
    """Every product equals the zero element 0."""
    _check_size("order", n, SIZE_CAP)
    return MulTable(tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def cyclic_group(n: int) -> MulTable:
    """Addition mod n; 0 is the identity."""
    _check_size("order", n, SIZE_CAP)
    return MulTable(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def symmetric_group(n: int) -> MulTable:
    """All permutations of 0..n-1 in lexicographic order, composed so that
    (p*q)(x) = p(q(x)); the identity permutation gets index 0."""
    _check_size("order", n, SIZE_CAP)  # n <= n!: no factorial of a huge n
    _check_cap(math.factorial(n), SIZE_CAP)
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    rows = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
    )
    return MulTable(rows)


def rectangular_band(p: int, q: int) -> MulTable:
    """(x, y) * (x', y') = (x, y') on p*q pairs, pair (x, y) at index x*q + y."""
    _check_size("order", p)
    _check_size("order", q)
    _check_cap(p * q, SIZE_CAP)
    rows = tuple(
        tuple(x * q + y2 for _ in range(p) for y2 in range(q))
        for x in range(p)
        for _ in range(q)
    )
    return MulTable(rows)


def example_ijkf() -> MulTable:
    """A 4-element semigroup with elements named i, j, k, f.

    Its rows for i, j and f coincide while k's row differs, which makes it
    the smallest interesting input for the machine enumeration: the machine
    states collapse to a 2-element left zero semigroup.
    """
    rows = (
        (0, 1, 2, 0),
        (0, 1, 2, 0),
        (0, 1, 2, 1),
        (0, 1, 2, 0),
    )
    table = MulTable(rows, ("i", "j", "k", "f"))
    assert associativity_failure(table.rows) is None
    return table


_FAMILIES = {
    "left_zero": left_zero,
    "right_zero": right_zero,
    "null": null,
    "cyclic_group": cyclic_group,
    "symmetric_group": symmetric_group,
    "rectangular_band": rectangular_band,
    "example_ijkf": example_ijkf,
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def named_family(name: str, *params: int) -> MulTable:
    """Construct a built-in family, e.g. named_family('cyclic_group', 6)."""
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise UnknownFamilyError(
            "unknown family %r (known: %s)" % (name, ", ".join(family_names()))
        ) from None
    return builder(*params)
