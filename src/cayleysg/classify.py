"""Structural classification of the semigroup generated by a Cayley machine.

Everything is decided from the multiplication table of S alone, through
characterizations of the generated semigroup C(S):

  * C(S) is trivial iff it is a group iff S is an inflation of a right zero
    semigroup by null classes,
  * C(S) is finite iff S is H-trivial,
  * C(S) is free iff the minimal ideal K of S is a single R-class, every
    H-class inside K is non-singleton, and some k in K satisfies
    s*k*t = s*t for all s, t; the rank is then the size of an H-class of K,
  * C(S) is a right zero semigroup iff a*b*c = a*c for all a, b, c,
  * C(S) is a left zero semigroup iff the products S*S fill the minimal
    ideal and that ideal is a right zero semigroup.

The engine module rechecks these answers by brute enumeration in the test
suite and in the verify command; the two routes are kept independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import WORK_CAP, MulTable, _check_elements, _check_size, _check_words, word_total
from .green import GreenData, green_relations, inflation_of_right_zero
from .tableio import _shifted


@dataclass(frozen=True)
class ClassificationReport:
    """Answers about C(S), with witnesses as plain data (0-based indices).
    green holds the Green's relations of S the answers were read from; it
    is not part of the report's value or of its JSON."""

    is_trivial: bool
    is_group: bool
    is_finite: bool
    is_free: bool
    free_rank: int | None
    is_left_zero: bool
    is_right_zero: bool
    witnesses: dict
    notes: str
    green: GreenData = field(compare=False, repr=False)


def classify(S: MulTable) -> ClassificationReport:
    rows = S.rows
    green = green_relations(S)
    witnesses: dict = {"minimal_ideal": green.minimal_ideal}
    notes = []

    inflation, inflation_witness = inflation_of_right_zero(S)
    if inflation:
        witnesses["inflation"] = dict(vars(inflation_witness))

    finite = max(green.h_class) + 1 == S.order

    kernel = green.minimal_ideal
    # K is one D-class, so its H-classes all have one size (Green's lemma)
    kernel_h = green.h_class_of(kernel[0])
    connector = None
    if len({green.r_class[a] for a in kernel}) == 1 and len(kernel_h) > 1:
        # s*k*t = s*t for all s, t says that row s*k is row s
        connector = next(
            (k for k in kernel if all(rows[row[k]] == row for row in rows)), None
        )
    is_free = connector is not None
    free_rank = len(kernel_h) if is_free else None
    if is_free:
        witnesses["free"] = {"connector": connector, "h_class": kernel_h}

    # a*b*c = a*c for all a, b, c says that every row a*b is row a
    is_right_zero = all(rows[ab] == row for row in rows for ab in row)

    is_left_zero = set().union(*rows) == set(kernel) and all(
        rows[a][b] == b for a in kernel for b in kernel
    )

    if not finite:
        h_class, stabilizer = _infinite_witness(S, green)
        witnesses["infinite"] = {"h_class": h_class, "stabilizer": stabilizer}

    if len(kernel) == 1:
        notes.append(
            "minimal ideal is a single idempotent; a singleton is a group and"
            " a left and right zero semigroup at once"
        )
    if inflation:
        notes.append(
            "trivial: the single element counts as a group and as a left and"
            " right zero semigroup at once"
        )

    return ClassificationReport(
        is_trivial=inflation,
        is_group=inflation,
        is_finite=finite,
        is_free=is_free,
        free_rank=free_rank,
        is_left_zero=is_left_zero,
        is_right_zero=is_right_zero,
        witnesses=witnesses,
        notes="; ".join(notes),
        green=green,
    )


def infinite_witness(S: MulTable):
    """A non-singleton H-class H and the elements t with t*H inside H.

    Returns (h_class, stabilizer) for the first non-singleton H-class in
    element order, or None when S is H-trivial.  When C(S) is infinite the
    one-letter machines of stabilizer elements are where a free pair of
    transformations is found.
    """
    return _infinite_witness(S, green_relations(S))


def _infinite_witness(S: MulTable, green):
    rows = S.rows
    n = S.order
    for a in range(n):
        h_class = green.h_class_of(a)
        if len(h_class) > 1:
            inside = set(h_class)
            stabilizer = tuple(
                t for t in range(n) if all(rows[t][h] in inside for h in h_class)
            )
            return h_class, stabilizer
    return None


def free_pair_check(
    S: MulTable, u: int, v: int, max_len: int = 4, work_cap: int = WORK_CAP
) -> bool:
    """Check that the transformations of u and v satisfy no relation among
    words of length up to max_len, i.e. all 2**l words of each length l
    name distinct transformations and no two lengths collide.

    The two generators must already be distinct as transformations (raises
    ValueError otherwise).  True is evidence of freeness up to the window,
    not a proof; False exhibits a genuine relation.  Raises WorkCapError
    when the words, sum of 2**l for l = 1..max_len, are more than work_cap.
    """
    from .engine import word_counts

    _check_elements("letter", (u, v), S.order)
    _check_size("max_len", max_len)
    _check_words(2, max_len, work_cap)
    # a finite closure stops the counts, a relation at the next length
    for length, count in zip(range(1, max_len + 1), word_counts(S, (u, v))):
        if count < word_total(2, length):
            if length == 1:
                raise ValueError("the two generators coincide as transformations")
            return False
    return True


def report_to_json(report: ClassificationReport) -> dict:
    """JSON-ready dict of every field but green, with 1-based element
    indices throughout."""
    payload = dict(vars(report), witnesses=_shifted(report.witnesses))
    del payload["green"]
    return payload
