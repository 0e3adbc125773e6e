from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import cayleysg as c
import oracles

# Counts of associative tables, frozen from the naive filter in oracles.py
# (tests below recompute them from scratch: the naive filter for orders
# 1..3 and the column-major fill for orders 1..4).
LABELED_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492}
ISO_COUNTS = {1: 1, 2: 5, 3: 24}
ANTI_COUNTS = {1: 1, 2: 4, 3: 18}


def count(order, dedup):
    return sum(1 for _ in c.generate_tables(c.CorpusSpec(order, dedup)))


def test_labeled_counts_match_naive_oracle():
    for n in (1, 2, 3):
        assert len(oracles.all_tables(n)) == LABELED_COUNTS[n]
        assert count(n, "labeled") == LABELED_COUNTS[n]


def test_labeled_streams_exactly_the_oracle_tables():
    for n in (2, 3):
        streamed = {S.rows for S in c.generate_tables(c.CorpusSpec(n, "labeled"))}
        assert streamed == set(oracles.all_tables(n))


def test_fill_orders_agree():
    # the row-major stream against the oracle's column-major fill, which
    # shares no pruning rule with it: the same tables, none repeated
    for n in (1, 2, 3, 4):
        row = [S.rows for S in c.generate_tables(c.CorpusSpec(n, "labeled"))]
        col = oracles.column_major_tables(n)
        assert len(set(row)) == len(row) == len(col) == len(set(col)) == LABELED_COUNTS[n]
        assert set(row) == set(col)


def test_dedup_counts_frozen():
    for n in (1, 2, 3):
        assert count(n, "up_to_iso") == ISO_COUNTS[n]
        assert count(n, "up_to_iso_anti") == ANTI_COUNTS[n]


def test_dedup_orbits_cover_labeled_tables():
    # summing orbit sizes of the representatives recovers the labeled count
    for n in (2, 3):
        perms = list(itertools.permutations(range(n)))
        for mode, expected in (("up_to_iso", LABELED_COUNTS[n]),):
            total = 0
            for S in c.generate_tables(c.CorpusSpec(n, mode)):
                orbit = {_relabel(S.rows, p) for p in perms}
                total += len(orbit)
            assert total == expected
        total = 0
        for S in c.generate_tables(c.CorpusSpec(n, "up_to_iso_anti")):
            orbit = {_relabel(S.rows, p) for p in perms}
            orbit |= {_relabel(_transpose(S.rows), p) for p in perms}
            total += len(orbit)
        assert total == LABELED_COUNTS[n]


def _relabel(rows, perm):
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[rows[a][b]]
    return tuple(tuple(r) for r in out)


def _transpose(rows):
    n = len(rows)
    return tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))


def test_dedup_reps_are_canonical_and_associative():
    for n in (2, 3):
        for mode in ("up_to_iso", "up_to_iso_anti"):
            for S in c.generate_tables(c.CorpusSpec(n, mode)):
                assert oracles.is_associative(S.rows)
                assert c.canonical_form(S.rows, mode) == c.canonical_form(
                    S.rows, "labeled"
                )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_form_is_relabeling_invariant(data):
    pool = [
        c.cyclic_group(3),
        c.left_zero(3),
        c.example_ijkf(),
        c.rectangular_band(2, 2),
    ]
    S = data.draw(st.sampled_from(pool))
    perm = tuple(data.draw(st.permutations(range(S.order))))
    relabeled = _relabel(S.rows, perm)
    for mode in ("up_to_iso", "up_to_iso_anti"):
        assert c.canonical_form(S.rows, mode) == c.canonical_form(relabeled, mode)


def test_canonical_form_modes_differ_on_one_sided_zeros():
    lz, rz = c.left_zero(2), c.right_zero(2)
    assert c.canonical_form(lz.rows, "up_to_iso") != c.canonical_form(
        rz.rows, "up_to_iso"
    )
    assert c.canonical_form(lz.rows, "up_to_iso_anti") == c.canonical_form(
        rz.rows, "up_to_iso_anti"
    )


def test_canonical_form_accepts_multable_and_validates():
    S = c.cyclic_group(2)
    assert c.canonical_form(S) == c.canonical_form(S.rows)
    with pytest.raises(ValueError):
        c.canonical_form(S.rows, "weird")
    with pytest.raises(c.SizeCapError):
        c.canonical_form(c.left_zero(7).rows)
    for mode in ("labeled", "up_to_iso", "up_to_iso_anti"):
        assert c.canonical_form([], mode) == b"0:"


def test_generate_tables_validation():
    with pytest.raises(c.SizeCapError):
        next(c.generate_tables(c.CorpusSpec(5, "labeled")))
    with pytest.raises(ValueError):
        next(c.generate_tables(c.CorpusSpec(0, "labeled")))
    for order in (True, 2.0):  # True would stream the order-1 tables
        with pytest.raises(ValueError):
            next(c.generate_tables(c.CorpusSpec(order)))
    with pytest.raises(ValueError):
        next(c.generate_tables(c.CorpusSpec(2, "weird")))


def test_dump_line_round_trip():
    S = c.example_ijkf()
    line = c.dump_line(S)
    assert line == "4;1 2 3 1;1 2 3 1;1 2 3 2;1 2 3 1"
    assert c.load_dump_line(line).rows == S.rows


@pytest.mark.parametrize(
    "line", ["1;1;1 1", "2;1 2", "0;", "-1;1", "x;1", ";1", "2", "\u0662;1 2;2 1"]
)
def test_load_dump_line_rejects_wrong_row_count_or_order(line):
    with pytest.raises(c.MalformedTableError, match="order"):
        c.load_dump_line(line)


@pytest.mark.parametrize(
    "line", ["2;1 x;2 1", "1;1.5", "2;1 2;2 one", "2;1 2;2 \u0661", "2;+1 2;2 1"]
)
def test_load_dump_line_rejects_non_integer_entries(line):
    with pytest.raises(c.MalformedTableError, match="non-integer"):
        c.load_dump_line(line)


@pytest.mark.parametrize(
    "line, entry",
    [("2;1 3;1 1", "entry 3 out of range 1..2"), ("2;0 1;1 1", "entry 0 out of range 1..2")],
)
def test_load_dump_line_reports_an_out_of_range_entry_as_written(line, entry):
    with pytest.raises(c.MalformedTableError, match=entry):
        c.load_dump_line(line)


def test_find_isomorphism_positive_and_negative():
    z3 = c.cyclic_group(3)
    shuffled = _relabel(z3.rows, (2, 0, 1))
    perm = oracles.find_isomorphism(z3.rows, shuffled)
    assert perm is not None
    for a in range(3):
        for b in range(3):
            assert shuffled[perm[a]][perm[b]] == perm[z3.rows[a][b]]

    assert oracles.find_isomorphism(c.left_zero(2).rows, c.right_zero(2).rows) is None

    klein = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert oracles.find_isomorphism(c.cyclic_group(4).rows, klein) is None
    assert (
        oracles.find_isomorphism(c.cyclic_group(4).rows, c.cyclic_group(3).rows)
        is None
    )
