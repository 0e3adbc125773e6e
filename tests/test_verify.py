from __future__ import annotations

import dataclasses
import functools
import importlib

import pytest

import cayleysg.verify as verify
from cayleysg import (
    Closed,
    CorpusSpec,
    SizeCapError,
    WorkCapError,
    cyclic_group,
    direct_product,
    dump_line,
    example_ijkf,
    generate_tables,
    left_zero,
    null,
    right_zero,
    run_verify,
)
from cayleysg.verify import check_table


def test_clean_run_through_order_3():
    report = run_verify(3, budget=10_000, free_len=4)
    assert report.tables_checked == 23
    assert report.checks_passed == 188
    assert report.disagreements == ()
    assert report.inconclusive == ()


def test_labeled_dedup_checks_every_table():
    report = run_verify(2, dedup="labeled")
    assert report.tables_checked == 9


def test_check_table_counts_for_finite_input():
    # finite, trivial, group, closed H-trivial, left/right zero, inflation,
    # D-class products
    passed, disagreements, inconclusive = check_table(left_zero(2))
    assert passed == 8
    assert disagreements == []
    assert inconclusive == []


def test_check_table_counts_for_infinite_input():
    # adds the free word count and infinite witness checks
    passed, disagreements, inconclusive = check_table(cyclic_group(2))
    assert passed == 9
    assert disagreements == []
    assert inconclusive == []


def test_check_table_checks_the_inflation_by_its_witness_above_order_6():
    # order 8: the inflation check runs at every order, so it passes here
    S = direct_product(left_zero(2), right_zero(4))
    assert check_table(S) == (8, [], [])


# products of order 7-12, finite and infinite, and whether each is an inflation
PRODUCTS = {
    "right_zero(3) x null(3)": (direct_product(right_zero(3), null(3)), True),
    "null(2) x right_zero(4)": (direct_product(null(2), right_zero(4)), True),
    "null(3) x null(4)": (direct_product(null(3), null(4)), True),
    "right_zero(2)^2 x null(3)": (
        direct_product(direct_product(right_zero(2), right_zero(2)), null(3)),
        True,
    ),
    "left_zero(3) x null(3)": (direct_product(left_zero(3), null(3)), False),
    "example_ijkf() x null(3)": (direct_product(example_ijkf(), null(3)), False),
    "cyclic_group(2) x null(4)": (direct_product(cyclic_group(2), null(4)), False),
    "cyclic_group(2) x left_zero(2) x null(2)": (
        direct_product(direct_product(cyclic_group(2), left_zero(2)), null(2)),
        False,
    ),
}


@pytest.mark.parametrize("S, inflation", PRODUCTS.values(), ids=list(PRODUCTS))
def test_check_table_agrees_on_products_of_order_7_to_12(S, inflation):
    assert 7 <= S.order <= 12
    assert ("inflation" in verify.classify(S).witnesses) == inflation
    _, disagreements, inconclusive = check_table(S)
    assert disagreements == []
    assert inconclusive == []


def _with_inflation_witness(monkeypatch, S, witness):
    """Patch classify to give S's report with this inflation witness, or
    with none when witness is None."""
    report = verify.classify(S)
    witnesses = {k: v for k, v in report.witnesses.items() if k != "inflation"}
    if witness is not None:
        witnesses["inflation"] = witness
    lying = dataclasses.replace(report, witnesses=witnesses)
    monkeypatch.setattr(verify, "classify", lambda _: lying)


# an inflation of order 9: every row is 0 0 0 3 3 3 6 6 6 (0-based)
INFLATION = direct_product(right_zero(3), null(3))
WRONG_WITNESSES = {
    "a member dropped": ((0, 3, 6), ((0, 1), (3, 4, 5), (6, 7, 8))),
    "a member in two classes": ((0, 3, 6), ((0, 1, 2, 3), (3, 4, 5), (6, 7, 8))),
    "a target outside its class": ((0, 0, 3, 6), ((0, 1), (2,), (3, 4, 5), (6, 7, 8))),
    "an empty class": ((0, 0, 3, 6), ((0, 1, 2), (), (3, 4, 5), (6, 7, 8))),
    "a target with no class": ((0, 3, 6, 7), ((0, 1, 2), (3, 4, 5), (6, 7, 8))),
    "integer classes": ((0, 3, 6), (0, 3, 6)),
}


@pytest.mark.parametrize(
    "targets, classes", WRONG_WITNESSES.values(), ids=list(WRONG_WITNESSES)
)
def test_check_table_reports_a_wrong_inflation_witness(monkeypatch, targets, classes):
    _with_inflation_witness(monkeypatch, INFLATION, {"targets": targets, "classes": classes})
    passed, disagreements, inconclusive = check_table(INFLATION)
    assert passed == 7
    assert disagreements == [
        {"table": dump_line(INFLATION), "check": "inflation", "details": ""}
    ]
    assert inconclusive == []


@pytest.mark.parametrize(
    "S, witness, checks",
    [
        (INFLATION, None, 8),
        (cyclic_group(2), {"targets": (0,), "classes": ((0, 1),)}, 9),
        (INFLATION, {"targets": (0,)}, 8),
    ],
    ids=["missing", "made up", "without classes"],
)
def test_check_table_reports_a_missing_or_made_up_inflation_witness(
    monkeypatch, S, witness, checks
):
    # INFLATION's rows are all equal; the two rows of Z2 differ
    _with_inflation_witness(monkeypatch, S, witness)
    passed, disagreements, _ = check_table(S)
    assert passed == checks - 1
    assert disagreements == [{"table": dump_line(S), "check": "inflation", "details": ""}]


def _weakened(**fields):
    """A classify that computes each named field as fields[name](S, report)
    from S and its true report, and keeps the rest of the report."""

    def mutant(S, report):
        changed = {name: field(S, report) for name, field in fields.items()}
        return dataclasses.replace(report, **changed)

    return mutant


def _kernel_h(report):
    """An H-class of the minimal ideal K; K is one D-class, so all its
    H-classes have this size."""
    return report.green.h_class_of(report.green.minimal_ideal[0])


def _has_connector(S, report):
    """Some k in K satisfies s*k*t = s*t for all s, t."""
    rows = S.rows
    return any(all(rows[row[k]] == row for row in rows) for k in report.green.minimal_ideal)


def _one_r_class(report):
    return len({report.green.r_class[a] for a in report.green.minimal_ideal}) == 1


def _drop_last_inflation_member(S, report):
    witnesses = dict(report.witnesses)
    if "inflation" in witnesses:
        *kept, last = witnesses["inflation"]["classes"]
        witnesses["inflation"] = dict(witnesses["inflation"], classes=(*kept, last[:-1]))
    return witnesses


# classify with one characterization weakened, and one wrong inflation witness
MUTANTS = {
    "finite := R-trivial": _weakened(is_finite=lambda S, r: len(set(r.green.r_class)) == S.order),
    "finite := L-trivial": _weakened(is_finite=lambda S, r: len(set(r.green.l_class)) == S.order),
    "free without the connector": _weakened(
        is_free=lambda S, r: _one_r_class(r) and len(_kernel_h(r)) > 1,
        free_rank=lambda S, r: len(_kernel_h(r)),
    ),
    "free without K one R-class": _weakened(
        is_free=lambda S, r: len(_kernel_h(r)) > 1 and _has_connector(S, r),
        free_rank=lambda S, r: len(_kernel_h(r)),
    ),
    "free rank := |K|": _weakened(free_rank=lambda S, r: len(r.green.minimal_ideal)),
    "left zero without S*S = K": _weakened(
        is_left_zero=lambda S, r: all(
            S.rows[a][b] == b for a in r.green.minimal_ideal for b in r.green.minimal_ideal
        )
    ),
    "left zero without K right zero": _weakened(
        is_left_zero=lambda S, r: set().union(*S.rows) == set(r.green.minimal_ideal)
    ),
    "right zero := abc = ac for a in K": _weakened(
        is_right_zero=lambda S, r: all(
            S.rows[ab] == S.rows[a] for a in r.green.minimal_ideal for ab in S.rows[a]
        )
    ),
    "trivial and group := |K| = 1": _weakened(
        is_trivial=lambda S, r: len(r.green.minimal_ideal) == 1,
        is_group=lambda S, r: len(r.green.minimal_ideal) == 1,
    ),
    "inflation witness without its last member": _weakened(
        witnesses=_drop_last_inflation_member
    ),
}


def test_every_weakened_classify_is_reported_as_a_disagreement(monkeypatch):
    # budget 100 is exact at order <= 4, where the largest finite C(S) has 10
    # elements; each table is enumerated once and shared by every mutant
    tables = [S for n in range(1, 5) for S in generate_tables(CorpusSpec(n, "up_to_iso"))]
    assert len(tables) == 218
    monkeypatch.setattr(verify, "enumerate_semigroup", functools.cache(verify.enumerate_semigroup))
    classify = verify.classify

    def tables_catching(mutant):
        monkeypatch.setattr(verify, "classify", lambda S: mutant(S, classify(S)))
        return sum(bool(check_table(S, budget=100)[1]) for S in tables)

    assert tables_catching(lambda S, report: report) == 0
    caught = {name: tables_catching(mutant) for name, mutant in MUTANTS.items()}
    assert all(caught.values()), caught


def test_check_table_reports_a_lying_classifier(monkeypatch):
    S = left_zero(2)
    lying = dataclasses.replace(verify.classify(S), is_trivial=True)
    monkeypatch.setattr(verify, "classify", lambda _: lying)
    _, disagreements, _ = check_table(S)
    assert any(item["check"] == "trivial" for item in disagreements)


def test_check_table_reports_every_lie_in_check_order(monkeypatch):
    S = left_zero(2)
    lying = dataclasses.replace(
        verify.classify(S), is_trivial=True, is_group=True, is_left_zero=True
    )
    monkeypatch.setattr(verify, "classify", lambda _: lying)
    passed, disagreements, inconclusive = check_table(S)
    assert passed == 5
    assert [item["check"] for item in disagreements] == ["trivial", "group", "left_zero"]
    assert inconclusive == []


def test_check_table_reports_an_infinite_claim_without_its_witness(monkeypatch):
    # left_zero(2) has a finite C(S), so its report holds no infinite witness
    S = left_zero(2)
    lying = dataclasses.replace(verify.classify(S), is_finite=False)
    monkeypatch.setattr(verify, "classify", lambda _: lying)
    passed, disagreements, inconclusive = check_table(S)
    assert passed == 7
    assert [item["check"] for item in disagreements] == ["finite", "infinite_witness"]
    assert disagreements[1]["details"] == "classify gave no infinite witness"
    assert inconclusive == []


@pytest.mark.parametrize(
    "witness",
    [{"h_class": (0, 1)}, {"h_class": (0, 1), "stabilizer": (0, 0)}],
    ids=["without its stabilizer", "with a repeated stabilizer element"],
)
def test_check_table_reports_a_malformed_infinite_witness(monkeypatch, witness):
    S = cyclic_group(2)
    report = verify.classify(S)
    lying = dataclasses.replace(report, witnesses=dict(report.witnesses, infinite=witness))
    monkeypatch.setattr(verify, "classify", lambda _: lying)
    monkeypatch.setattr(verify, "free_pair_check", None)  # no pair search runs
    passed, disagreements, inconclusive = check_table(S)
    assert passed == 8
    assert disagreements == [
        {
            "table": "2;1 2;2 1",
            "check": "infinite_witness",
            "details": "classify gave a malformed infinite witness",
        }
    ]
    assert inconclusive == []


def test_check_table_reports_a_wrong_free_rank_with_its_counts(monkeypatch):
    S = cyclic_group(2)
    lying = dataclasses.replace(verify.classify(S), free_rank=3)
    monkeypatch.setattr(verify, "classify", lambda _: lying)
    passed, disagreements, inconclusive = check_table(S)
    assert passed == 8
    assert disagreements == [
        {
            "table": "2;1 2;2 1",
            "check": "free_counts",
            "details": "expected 120 distinct words up to length 4, engine found 30",
        }
    ]
    assert inconclusive == []


def test_check_table_tries_one_stabilizer_element_per_row(monkeypatch):
    # rows 1 = 2 and 3 = 4: only the first element of each row is paired
    S = direct_product(cyclic_group(2), right_zero(2))
    tried = []
    monkeypatch.setattr(
        verify, "free_pair_check", lambda S, u, v, n: tried.append((u, v)) or False
    )
    passed, disagreements, inconclusive = check_table(S)
    assert tried == [(0, 2)]
    assert (passed, disagreements) == (9, [])
    assert inconclusive == [
        {
            "table": "4;1 2 3 4;1 2 3 4;3 4 1 2;3 4 1 2",
            "h_class": [1, 3],
            "stabilizer": [1, 2, 3, 4],
            "details": "no generator pair of the stabilizer passed the free pair"
            " check at length 4",
        }
    ]


def test_check_table_reports_a_closed_semigroup_that_is_not_h_trivial(monkeypatch):
    # Z2 is one H-class, so a Closed result with its table is a counterexample
    z2 = cyclic_group(2)
    fake = Closed(elements=(), cayley=z2.rows, generator_map=(0, 1))
    monkeypatch.setattr(verify, "enumerate_semigroup", lambda S, budget: fake)
    _, disagreements, _ = check_table(left_zero(2))
    assert any(item["check"] == "closed_h_trivial" for item in disagreements)


def test_check_table_computes_green_relations_once(monkeypatch):
    green = importlib.import_module("cayleysg.green")
    calls = []

    def counted(S):
        calls.append(S)
        return green.green_relations(S)

    for name in ("cayleysg.classify", "cayleysg.verify"):
        module = importlib.import_module(name)
        if hasattr(module, "green_relations"):
            monkeypatch.setattr(module, "green_relations", counted)
    for S in (left_zero(2), cyclic_group(2), example_ijkf()):
        calls.clear()
        check_table(S)
        assert calls == [S]


def test_report_round_trips_to_json():
    report = run_verify(1)
    payload = report.to_json()
    assert payload["max_order"] == 1
    assert payload["tables_checked"] == 1
    assert payload["disagreements"] == []
    assert payload["inconclusive"] == []
    assert set(payload) == {
        "max_order",
        "budget",
        "free_len",
        "dedup",
        "tables_checked",
        "checks_passed",
        "disagreements",
        "inconclusive",
        "elapsed_seconds",
    }


def test_run_verify_rejects_an_order_above_the_cap_before_any_table(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "check_table", lambda S, *args: seen.append(S) or (0, [], []))
    with pytest.raises(SizeCapError):
        run_verify(5)
    assert seen == []


def test_run_verify_rejects_a_free_len_above_the_work_cap_before_any_table(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "check_table", lambda S, *args: seen.append(S) or (0, [], []))
    with pytest.raises(WorkCapError):
        run_verify(4, free_len=9)
    assert seen == []


def test_check_table_rejects_a_bool_budget_or_free_len():
    # C(left_zero(2)) is finite and not free, so no inner call reads free_len
    for S in (cyclic_group(2), left_zero(2)):
        for budget, free_len in [(True, 4), (100, True), (100, 0), (100, -1)]:
            with pytest.raises(ValueError):
                check_table(S, budget, free_len)


def test_run_verify_rejects_a_bool_order_budget_or_free_len():
    for args in [(True,), (1, True), (1, 100, True), (2, 100, "x")]:
        with pytest.raises(ValueError):
            run_verify(*args)


def test_run_verify_rejects_non_positive_order_and_free_len():
    with pytest.raises(ValueError):
        run_verify(0)
    with pytest.raises(ValueError):
        run_verify(1, free_len=0)
