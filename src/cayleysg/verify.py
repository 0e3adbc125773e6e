"""Cross-checking the classifier against brute enumeration.

For every table in a corpus this runs classify() and enumerate_semigroup()
and demands that the two routes agree: triviality, being a group, being
finite, and the left and right zero shapes are all recomputed directly on
the enumerated semigroup, freeness is rechecked by counting distinct
transformations per word length, and the inflation test is rechecked by
brute force search.  Any disagreement is reported; a clean run is evidence
that the closed-form characterizations and the machine engine implement
the same semantics.  Every closed C(S) is also checked to be H-trivial,
which the paper leaves open; a counterexample is reported as a disagreement.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .classify import classify, free_pair_check
from .corpus import ENUMERATION_CAP, CorpusSpec, dump_line, generate_tables
from .engine import (
    DEFAULT_BUDGET,
    WORK_CAP,
    Closed,
    _check_words,
    count_distinct_words,
    enumerate_semigroup,
    word_total,
)
from .green import brute_force_inflation, group_identity, is_h_trivial
from .core import MulTable, SizeCapError


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
        return {
            "max_order": self.max_order,
            "budget": self.budget,
            "free_len": self.free_len,
            "dedup": self.dedup,
            "tables_checked": self.tables_checked,
            "checks_passed": self.checks_passed,
            "disagreements": list(self.disagreements),
            "inconclusive": list(self.inconclusive),
            "elapsed_seconds": self.elapsed_seconds,
        }


def check_table(S: MulTable, budget: int = DEFAULT_BUDGET, free_len: int = 4):
    """All engine cross-checks for one table.

    Returns (passed, disagreements, inconclusive) where disagreements and
    inconclusive are lists of dicts describing what went wrong or what
    could not be decided (a free pair search that found no witness).
    """
    line = dump_line(S)
    disagreements = []
    inconclusive = []
    passed = 0

    def check(name, ok, details=""):
        nonlocal passed
        if ok:
            passed += 1
        else:
            disagreements.append({"table": line, "check": name, "details": details})

    report = classify(S)
    result = enumerate_semigroup(S, budget)
    closed = isinstance(result, Closed)

    check("finite", report.is_finite == closed)

    engine_trivial = closed and len(result.elements) == 1
    check("trivial", report.is_trivial == engine_trivial)

    engine_group = closed and group_identity(result.cayley, range(len(result.cayley))) is not None
    check("group", report.is_group == engine_group)

    if closed:
        rows = result.cayley
        size = len(rows)
        engine_left = all(rows[a][b] == a for a in range(size) for b in range(size))
        engine_right = all(rows[a][b] == b for a in range(size) for b in range(size))
        check("closed_h_trivial", is_h_trivial(MulTable(rows)))
    else:
        engine_left = engine_right = False
    check("left_zero", report.is_left_zero == engine_left)
    check("right_zero", report.is_right_zero == engine_right)

    if report.is_free:
        rank = report.free_rank
        expected = word_total(rank, free_len)
        got = count_distinct_words(S, free_len)
        check(
            "free_counts",
            got == expected,
            "expected %d distinct words up to length %d, engine found %d"
            % (expected, free_len, got),
        )

    check(
        "inflation_bruteforce",
        ("inflation" in report.witnesses) == brute_force_inflation(S),
    )

    green = report.green
    table = S.rows
    ok = True
    for a in range(S.order):
        for b in range(S.order):
            ab = table[a][b]
            if green.d_class[a] == green.d_class[b] == green.d_class[ab]:
                if (
                    green.r_class[ab] != green.r_class[a]
                    or green.l_class[ab] != green.l_class[b]
                ):
                    ok = False
    check("d_class_products", ok)

    if not report.is_finite:
        h_class = report.witnesses["infinite"]["h_class"]
        stabilizer = report.witnesses["infinite"]["stabilizer"]
        check("infinite_witness", len(h_class) > 1 and len(stabilizer) > 0)
        reps = []
        seen_rows = set()
        for t in stabilizer:
            if table[t] not in seen_rows:
                seen_rows.add(table[t])
                reps.append(t)
        found = False
        for u, v in itertools.combinations(reps, 2):
            if free_pair_check(S, u, v, free_len):
                found = True
                break
        if not found:
            inconclusive.append(
                {
                    "table": line,
                    "h_class": [h + 1 for h in h_class],
                    "stabilizer": [t + 1 for t in stabilizer],
                    "details": "no generator pair of the stabilizer passed the"
                    " free pair check at length %d" % free_len,
                }
            )

    return passed, disagreements, inconclusive


def run_verify(
    max_order: int,
    budget: int = DEFAULT_BUDGET,
    free_len: int = 4,
    dedup: str = "up_to_iso_anti",
    progress=None,
) -> VerifyReport:
    """Check every table of order 1..max_order (one per dedup class); an
    order above the corpus cap or below 1, free_len below 1, or a free_len
    the work cap cannot serve raises first."""
    if max_order > ENUMERATION_CAP:
        raise SizeCapError("order %d exceeds cap %d" % (max_order, ENUMERATION_CAP))
    if max_order < 1 or free_len < 1:
        raise ValueError("max_order and free_len must be positive")
    if max_order >= 2:  # cyclic_group(max_order) is in the corpus and free
        _check_words(max_order, free_len, WORK_CAP)
    start = time.perf_counter()
    tables_checked = 0
    checks_passed = 0
    disagreements: list = []
    inconclusive: list = []
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
