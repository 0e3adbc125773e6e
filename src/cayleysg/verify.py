"""Cross-checking the classifier against brute enumeration.

For every table in a corpus this runs classify() and enumerate_semigroup()
and demands that the two routes agree: triviality, being a group, being
finite, and the left and right zero shapes are all recomputed directly on
the enumerated semigroup, freeness is rechecked by counting distinct
transformations per word length, and the inflation test is checked against
its witness.  Any disagreement is reported; a clean run is evidence that
the closed-form characterizations and the machine engine implement the
same semantics.  Every closed C(S) is also checked to be H-trivial, which
the paper leaves open; a counterexample is reported as a disagreement.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .classify import classify, free_pair_check
from .corpus import ENUMERATION_CAP, CorpusSpec, dump_line, generate_tables
from .core import (
    DEFAULT_BUDGET,
    WORK_CAP,
    MulTable,
    _check_elements,
    _check_size,
    _check_words,
    word_total,
)
from .engine import Closed, count_distinct_words, enumerate_semigroup
from .green import is_h_trivial
from .tableio import _shifted


@dataclass(frozen=True)
class VerifyReport:
    max_order: int
    budget: int
    free_len: int
    dedup: str
    tables_checked: int
    checks_passed: int
    disagreements: tuple[dict, ...]
    inconclusive: tuple[dict, ...]
    elapsed_seconds: float

    def to_json(self) -> dict:
        return dict(
            vars(self),
            disagreements=list(self.disagreements),
            inconclusive=list(self.inconclusive),
        )


def check_table(S: MulTable, budget: int = DEFAULT_BUDGET, free_len: int = 4):
    """All engine cross-checks for one table.

    Returns (passed, disagreements, inconclusive): lists of dicts saying what
    went wrong, and which free pair search found no witness.
    """
    _check_size("free_len", free_len)
    report = classify(S)
    result = enumerate_semigroup(S, budget)
    closed = isinstance(result, Closed)
    rows = result.cayley if closed else ()
    # a finite semigroup is a group iff it is left and right cancellative:
    # every row and every column of its table is a permutation
    group = closed and all(len(set(line)) == len(rows) for line in (*rows, *zip(*rows)))

    # (name, ok, details), in the order disagreements are reported
    checks = [
        ("finite", report.is_finite == closed, ""),
        ("trivial", report.is_trivial == (closed and len(result.elements) == 1), ""),
        ("group", report.is_group == group, ""),
    ]
    if closed:
        checks.append(("closed_h_trivial", is_h_trivial(MulTable(rows)), ""))
    # in a left (right) zero semigroup row a is all a (the identity row)
    left = closed and all(set(row) == {a} for a, row in enumerate(rows))
    right = closed and set(rows) == {tuple(range(len(rows)))}
    checks.append(("left_zero", report.is_left_zero == left, ""))
    checks.append(("right_zero", report.is_right_zero == right, ""))

    if report.is_free:
        expected = word_total(report.free_rank, free_len)
        got = count_distinct_words(S, free_len)
        details = "expected %d distinct words up to length %d, engine found %d"
        checks.append(("free_counts", got == expected, details % (expected, free_len, got)))

    # every row of an inflation maps b to the target of b's class
    inflation = report.witnesses.get("inflation")
    if inflation is None:  # then two different rows refute it
        ok = len(set(S.rows)) > 1
    else:
        try:
            targets, classes = inflation["targets"], inflation["classes"]
            target_of = {b: t for t, members in zip(targets, classes) for b in members}
            ok = (
                sorted(itertools.chain(*classes)) == list(range(S.order))
                and len(targets) == len(classes)
                and all(t in members for t, members in zip(targets, classes))
                and set(S.rows) == {tuple(map(target_of.get, range(S.order)))}
            )
        except (KeyError, TypeError):
            ok = False
    checks.append(("inflation", ok, ""))

    green = report.green
    products = all(
        green.r_class[ab] == green.r_class[a] and green.l_class[ab] == green.l_class[b]
        for a, row in enumerate(S.rows)
        for b, ab in enumerate(row)
        if green.d_class[a] == green.d_class[b] == green.d_class[ab]
    )
    checks.append(("d_class_products", products, ""))

    line = dump_line(S)
    inconclusive = []
    witness = report.witnesses.get("infinite")
    if not report.is_finite:
        try:
            h_class, stabilizer = witness["h_class"], witness["stabilizer"]
            _check_elements("element", (*h_class, *stabilizer), S.order)
        except (KeyError, TypeError, ValueError):
            given = "no" if witness is None else "a malformed"
            checks.append(("infinite_witness", False, "classify gave %s infinite witness" % given))
        else:
            checks.append(("infinite_witness", len(h_class) > 1 and len(stabilizer) > 0, ""))
            # membership depends on the row alone, so the first element of S
            # with a stabilizer row is the first stabilizer element with it
            reps = [t for t in stabilizer if S.rows.index(S.rows[t]) == t]
            pairs = itertools.combinations(reps, 2)
            if not any(free_pair_check(S, u, v, free_len) for u, v in pairs):
                inconclusive.append(
                    {
                        "table": line,
                        "h_class": _shifted(h_class),
                        "stabilizer": _shifted(stabilizer),
                        "details": "no generator pair of the stabilizer passed the"
                        " free pair check at length %d" % free_len,
                    }
                )

    disagreements = [
        {"table": line, "check": name, "details": details}
        for name, ok, details in checks
        if not ok
    ]
    return len(checks) - len(disagreements), disagreements, inconclusive


def run_verify(
    max_order: int,
    budget: int = DEFAULT_BUDGET,
    free_len: int = 4,
    dedup: str = "up_to_iso_anti",
    progress=None,
) -> VerifyReport:
    """Check every table of order 1..max_order (one per dedup class); a
    max_order or free_len that is not an int or is below 1, a max_order
    above the corpus cap, or a free_len the work cap cannot serve raises
    first (check_table rejects a budget that is not an int)."""
    _check_size("max_order", max_order, ENUMERATION_CAP)
    _check_size("free_len", free_len)
    if max_order >= 2:  # cyclic_group(max_order) is in the corpus and free
        _check_words(max_order, free_len, WORK_CAP)
    start = time.perf_counter()
    tables_checked = checks_passed = 0
    disagreements, inconclusive = [], []
    for order in range(1, max_order + 1):
        for S in generate_tables(CorpusSpec(order, dedup)):
            passed, bad, open_ended = check_table(S, budget, free_len)
            tables_checked += 1
            checks_passed += passed
            disagreements.extend(bad)
            inconclusive.extend(open_ended)
            if progress is not None:
                progress(order, tables_checked)
    return VerifyReport(
        max_order=max_order,
        budget=budget,
        free_len=free_len,
        dedup=dedup,
        tables_checked=tables_checked,
        checks_passed=checks_passed,
        disagreements=tuple(disagreements),
        inconclusive=tuple(inconclusive),
        elapsed_seconds=round(time.perf_counter() - start, 3),
    )
