"""Green's relations, the minimal ideal, and the inflation tests.

All computations go through principal ideals of the table: aS^1 is row a
with a, S^1a is column a with a, and S^1aS^1 is the union of the right
ideals over S^1a.  For finite semigroups the D relation coincides with the
two-sided ideal relation J, which is what is computed here; tests check it
against the join of R and L independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import MulTable, _check_cap, _check_elements

# brute_force_inflation searches all partitions; keep it tiny.
BRUTE_FORCE_CAP = 6


@dataclass(frozen=True)
class GreenData:
    """Per-element R, L, H and D class ids, numbered by first occurrence,
    and the members of the minimal ideal in increasing order."""

    r_class: tuple[int, ...]
    l_class: tuple[int, ...]
    h_class: tuple[int, ...]
    d_class: tuple[int, ...]
    minimal_ideal: tuple[int, ...]

    def h_class_of(self, a: int) -> tuple[int, ...]:
        _check_elements("element", (a,), len(self.h_class))
        mine = self.h_class[a]
        return tuple(x for x, h in enumerate(self.h_class) if h == mine)


def _number(keys):
    ids: dict = {}
    return tuple(ids.setdefault(k, len(ids)) for k in keys)


def _one_sided_ideals(rows):
    """The principal right and left ideals aS^1 and S^1a of every a: row a
    and column a of the table, each with a added."""
    right = [frozenset((a, *row)) for a, row in enumerate(rows)]
    left = [frozenset((a, *column)) for a, column in enumerate(zip(*rows))]
    return right, left


def green_relations(S: MulTable) -> GreenData:
    rows = S.rows
    right, left = _one_sided_ideals(rows)
    r_class = _number(right)
    l_class = _number(left)
    # S^1aS^1 is the union of the right ideals bS^1 over b in S^1a: formed
    # once per L-class, over one b per R-class
    unions = [
        frozenset().union(*{r_class[b]: right[b] for b in ideal}.values())
        for ideal in dict(zip(l_class, left)).values()
    ]
    two_sided = [unions[l] for l in l_class]
    h_class = _number(tuple(zip(r_class, l_class)))
    d_class = _number(two_sided)

    # The product of all elements lies in every two-sided ideal, so its own
    # principal ideal is the minimal ideal.
    z = 0
    for a in range(1, S.order):
        z = rows[z][a]
    minimal_ideal = tuple(sorted(two_sided[z]))
    bottom = tuple(a for a, d in enumerate(d_class) if d == d_class[z])
    if minimal_ideal != bottom:
        raise RuntimeError("the minimal ideal is not the D-class of %d" % z)
    return GreenData(r_class, l_class, h_class, d_class, minimal_ideal)


def is_h_trivial(S: MulTable) -> bool:
    """True iff every H-class is a singleton."""
    return len(set(zip(*_one_sided_ideals(S.rows)))) == S.order


@dataclass(frozen=True)
class InflationWitness:
    """A partition of the elements over a right zero set of targets.

    classes[i] lists the elements retracting onto targets[i]; each target
    belongs to its own class, and every product a*b equals the target of b.
    """

    targets: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


def inflation_of_right_zero(S: MulTable):
    """Decide whether S is a right zero semigroup inflated by null classes.

    Equivalent closed form: all rows of the table coincide (products depend
    only on the right factor, via a map phi) and phi is idempotent.  The
    rows alone decide it: in an associative table whose rows all equal phi,
    (a*b)*c = phi[c] and a*(b*c) = phi[phi[c]], so phi is idempotent.
    Returns (flag, InflationWitness or None).
    """
    rows = S.rows
    n = S.order
    phi = rows[0]
    for a in range(1, n):
        if rows[a] != phi:
            return False, None
    targets = tuple(sorted(set(phi)))
    classes = tuple(
        tuple(b for b in range(n) if phi[b] == t) for t in targets
    )
    return True, InflationWitness(targets, classes)


def brute_force_inflation(S: MulTable) -> bool:
    """Test-time oracle: search directly for a right zero subsemigroup T and
    an assignment of every element to a class over T such that each product
    a*b lands on the target of b.  Independent of inflation_of_right_zero;
    order above BRUTE_FORCE_CAP raises SizeCapError.
    """
    n = S.order
    _check_cap(n, BRUTE_FORCE_CAP)
    rows = S.rows
    elements = range(n)
    for size in range(1, n + 1):
        for targets in itertools.combinations(elements, size):
            if any(rows[a][b] != b for a in targets for b in targets):
                continue
            rest = [b for b in elements if b not in targets]
            for assigned in itertools.product(targets, repeat=len(rest)):
                phi = {t: t for t in targets}
                phi.update(zip(rest, assigned))
                if all(rows[a][b] == phi[b] for a in elements for b in elements):
                    return True
    return False
