from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import cayleysg as c


def test_shape_predicates_match_the_engine_above_order_4(product16):
    # the closed C(S) is a left (right) zero semigroup iff every product
    # a*b is a (b)
    for S in (
        product16,
        c.direct_product(c.example_ijkf(), c.right_zero(3)),
        c.rectangular_band(2, 3),
    ):
        report = c.classify(S)
        result = c.enumerate_semigroup(S)
        assert isinstance(result, c.Closed)
        rows = result.cayley
        cells = [(a, b) for a in range(len(rows)) for b in range(len(rows))]
        assert report.is_left_zero == all(rows[a][b] == a for a, b in cells)
        assert report.is_right_zero == all(rows[a][b] == b for a, b in cells)


def test_example_ijkf_report():
    report = c.classify(c.example_ijkf())
    assert not report.is_trivial
    assert not report.is_group
    assert report.is_finite
    assert not report.is_free
    assert report.free_rank is None
    assert report.is_left_zero
    assert not report.is_right_zero
    assert report.witnesses["minimal_ideal"] == (0, 1, 2)


def test_right_zero_report_is_trivial():
    report = c.classify(c.right_zero(3))
    assert report.is_trivial and report.is_group and report.is_finite
    # the one-point machine semigroup is a left and right zero semigroup too
    assert report.is_left_zero and report.is_right_zero
    assert not report.is_free
    witness = report.witnesses["inflation"]
    assert witness["targets"] == (0, 1, 2)
    assert witness["classes"] == ((0,), (1,), (2,))
    assert "trivial" in report.notes


def test_null_report_is_trivial():
    report = c.classify(c.null(4))
    assert report.is_trivial
    assert report.witnesses["inflation"]["targets"] == (0,)
    assert report.witnesses["minimal_ideal"] == (0,)
    assert "singleton" in report.notes or "right_zero" in report.notes


def test_left_zero_report():
    report = c.classify(c.left_zero(3))
    assert not report.is_trivial
    assert report.is_finite
    # the machine semigroup is right zero on 3 elements, not left zero
    assert report.is_right_zero
    assert not report.is_left_zero
    assert not report.is_free


def test_rectangular_band_report():
    report = c.classify(c.rectangular_band(2, 3))
    assert report.is_finite and report.is_right_zero
    assert not report.is_trivial and not report.is_left_zero


def test_semilattice_report():
    report = c.classify(c.make_table([[0, 0], [0, 1]]))
    assert report.is_finite
    assert not report.is_trivial
    assert not report.is_left_zero and not report.is_right_zero
    assert not report.is_free


def test_group_reports_are_free_of_group_rank():
    for S, rank in [
        (c.cyclic_group(2), 2),
        (c.cyclic_group(3), 3),
        (c.cyclic_group(5), 5),
        (c.symmetric_group(3), 6),
    ]:
        report = c.classify(S)
        assert not report.is_finite
        assert report.is_free
        assert report.free_rank == rank
        assert not report.is_trivial
        free = report.witnesses["free"]
        assert len(free["h_class"]) == rank


def test_trivial_group_is_not_free():
    report = c.classify(c.cyclic_group(1))
    assert report.is_trivial and report.is_finite and not report.is_free


def test_right_group_is_free():
    S = c.direct_product(c.cyclic_group(2), c.right_zero(2))
    report = c.classify(S)
    assert not report.is_finite
    assert report.is_free
    assert report.free_rank == 2
    # engine agreement: free of rank 2 grows as 2 + 4 + 8 + 16
    assert c.count_distinct_words(S, 4) == 30


def test_free_connector_witness_property(named_tables):
    for S in named_tables:
        report = c.classify(S)
        if not report.is_free:
            continue
        k = report.witnesses["free"]["connector"]
        n = S.order
        assert all(
            S.rows[S.rows[s][k]][t] == S.rows[s][t]
            for s in range(n)
            for t in range(n)
        )


def test_infinite_witness_cases():
    assert c.infinite_witness(c.example_ijkf()) is None
    h_class, stabilizer = c.infinite_witness(c.cyclic_group(2))
    assert h_class == (0, 1) and stabilizer == (0, 1)
    S = c.direct_product(c.cyclic_group(2), c.right_zero(2))
    h_class, stabilizer = c.infinite_witness(S)
    assert len(h_class) == 2
    inside = set(h_class)
    for t in stabilizer:
        assert all(S.rows[t][h] in inside for h in h_class)


def test_infinite_witness_stabilizer_is_maximal(small_tables):
    for S in small_tables[::10]:
        witness = c.infinite_witness(S)
        if witness is None:
            continue
        h_class, stabilizer = witness
        inside = set(h_class)
        expected = tuple(
            t
            for t in range(S.order)
            if all(S.rows[t][h] in inside for h in h_class)
        )
        assert stabilizer == expected


def test_free_pair_check_cases():
    z2 = c.cyclic_group(2)
    assert c.free_pair_check(z2, 0, 1, 5)
    S = c.example_ijkf()
    # j and k name different transformations but collide by length 2
    assert not c.free_pair_check(S, 1, 2, 3)
    with pytest.raises(ValueError):
        c.free_pair_check(S, 0, 1)  # equal transformations
    with pytest.raises(ValueError):
        c.free_pair_check(c.right_zero(2), 0, 1)
    with pytest.raises(ValueError):
        c.free_pair_check(z2, 0, 2)
    with pytest.raises(c.WorkCapError):
        c.free_pair_check(z2, 0, 1, 30)
    # 2 + 4 + ... + 2**17 = 262 142 words are more than engine.WORK_CAP
    with pytest.raises(c.WorkCapError):
        c.free_pair_check(S, 1, 2, 17)


def test_free_pair_check_caps_the_words_it_compares():
    # lengths 1..3 over two letters are 2 + 4 + 8 = 14 words
    assert c.free_pair_check(c.cyclic_group(2), 0, 1, 3, work_cap=14)
    with pytest.raises(c.WorkCapError) as err:
        c.free_pair_check(c.cyclic_group(2), 0, 1, 3, work_cap=13)
    assert str(err.value) == "14 words exceed the work cap 13"
    with pytest.raises(c.WorkCapError) as same:
        c.count_distinct_words(c.cyclic_group(2), 3, work_cap=13)
    assert str(same.value) == str(err.value)


def test_free_pair_check_is_false_when_the_closure_is_finite():
    # the search ends at the first length that adds nothing; that is a relation
    S = c.example_ijkf()
    assert c.free_pair_check(S, 1, 2, 3) is False
    assert c.free_pair_check(S, 1, 2, 4) is False
    semilattice = c.make_table([[0, 0], [0, 1]])
    assert c.free_pair_check(semilattice, 0, 1, 2) is False


def test_free_pair_check_rejects_a_non_positive_length():
    with pytest.raises(ValueError):
        c.free_pair_check(c.cyclic_group(2), 0, 1, 0)


def test_free_pair_check_rejects_a_bool_length_or_cap():
    # True would read as the length 1
    for max_len, work_cap in [(True, 100), (3, True), (3, None)]:
        with pytest.raises(ValueError):
            c.free_pair_check(c.cyclic_group(2), 0, 1, max_len, work_cap=work_cap)


def test_free_pair_check_matches_distinct_word_counts():
    # over {u, v} alone, freeness up to L means 2 + 4 + ... + 2**L words
    z3 = c.cyclic_group(3)
    assert c.free_pair_check(z3, 1, 2, 4)
    assert c.free_pair_check(z3, 0, 1, 4)


def test_report_invariants(small_tables):
    for S in small_tables:
        report = c.classify(S)
        assert report.is_trivial == report.is_group
        if report.is_trivial:
            assert report.is_finite
        if report.is_free:
            assert not report.is_finite
            assert report.free_rank >= 2
        else:
            assert report.free_rank is None
        if report.is_left_zero or report.is_right_zero:
            assert report.is_finite
        if not report.is_finite:
            assert "infinite" in report.witnesses


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reports_are_deterministic(data):
    pool = [
        c.example_ijkf(),
        c.cyclic_group(3),
        c.left_zero(2),
        c.null(2),
        c.rectangular_band(2, 2),
    ]
    S = data.draw(st.sampled_from(pool))
    assert c.classify(S) == c.classify(S)


def test_report_to_json_shape():
    report = c.classify(c.example_ijkf())
    payload = c.report_to_json(report)
    assert list(payload) == [
        "is_trivial",
        "is_group",
        "is_finite",
        "is_free",
        "free_rank",
        "is_left_zero",
        "is_right_zero",
        "witnesses",
        "notes",
    ]
    assert payload["witnesses"]["minimal_ideal"] == [1, 2, 3]
    json.dumps(payload)  # must be serializable as-is


def test_report_to_json_shifts_all_witnesses():
    payload = c.report_to_json(c.classify(c.cyclic_group(2)))
    assert payload["witnesses"]["infinite"] == {
        "h_class": [1, 2],
        "stabilizer": [1, 2],
    }
    assert payload["witnesses"]["free"]["h_class"] == [1, 2]
    payload = c.report_to_json(c.classify(c.null(2)))
    assert payload["witnesses"]["inflation"] == {
        "targets": [1],
        "classes": [[1, 2]],
    }
