from __future__ import annotations

import dataclasses
import importlib

import pytest

import cayleysg.verify as verify
from cayleysg import (
    Closed,
    SizeCapError,
    WorkCapError,
    cyclic_group,
    direct_product,
    example_ijkf,
    left_zero,
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


def test_check_table_reports_the_inflation_check_as_not_run_above_its_cap():
    # order 8 is above BRUTE_FORCE_CAP: the check is inconclusive, not passed
    S = direct_product(left_zero(2), right_zero(4))
    passed, disagreements, inconclusive = check_table(S)
    assert passed == 7
    assert disagreements == []
    assert inconclusive == [
        {
            "table": verify.dump_line(S),
            "check": "inflation_bruteforce",
            "details": "not run above order 6",
        }
    ]


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


def test_progress_callback_sees_every_table():
    seen = []
    run_verify(2, progress=lambda order, count: seen.append((order, count)))
    assert seen[0] == (1, 1)
    assert seen[-1][1] == len(seen)


def test_run_verify_rejects_an_order_above_the_cap_before_any_table():
    seen = []
    with pytest.raises(SizeCapError):
        run_verify(5, progress=lambda order, count: seen.append((order, count)))
    assert seen == []


def test_run_verify_rejects_a_free_len_above_the_work_cap_before_any_table():
    seen = []
    with pytest.raises(WorkCapError):
        run_verify(
            4, free_len=9, progress=lambda order, count: seen.append((order, count))
        )
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
