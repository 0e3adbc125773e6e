"""End to end acceptance checks.

Each test prints its own pass/fail line (visible with pytest -s or -v via
the test name) and enforces the runtime bound it was specified with.  The
checks deliberately pit independent routes against each other: closed-form
classification against brute enumeration, generated corpora against naive
filtering, direct products against their factors.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import contextmanager

import pytest

import cayleysg as c
import oracles
from cayleysg.cli import main


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("criterion %d: FAIL  %s" % (number, description), file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(
        "criterion %d: PASS  %s (%.2fs)" % (number, description, elapsed),
        file=sys.stderr,
    )
    assert elapsed < limit_seconds, "criterion %d exceeded %ss" % (
        number,
        limit_seconds,
    )


@pytest.fixture(scope="module")
def order3_tables():
    return [c.make_table(rows) for rows in oracles.all_tables(3)]


@pytest.fixture(scope="module")
def order3_enumerations(order3_tables):
    return [c.enumerate_semigroup(S, 10_000) for S in order3_tables]


def test_criterion_01_example_enumerates_and_classifies_via_cli(capsys):
    with criterion(1, "CLI enumerate and classify on the 4-element example", 1.0):
        code = main(["enumerate", "family:example_ijkf", "--budget", "50"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Closed"
        assert payload["element_count"] == 2
        # uv = u everywhere: the left zero semigroup on 2 points
        assert payload["cayley"] == [[1, 1], [2, 2]]

        code = main(["classify", "family:example_ijkf"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["is_left_zero"] is True
        assert payload["is_trivial"] is False
        assert payload["is_finite"] is True
        assert payload["is_free"] is False


def test_criterion_02_left_zero_machines_are_right_zero():
    with criterion(2, "left zero inputs give right zero machine semigroups", 1.0):
        for n in range(1, 6):
            result = c.enumerate_semigroup(c.left_zero(n), 10_000)
            assert isinstance(result, c.Closed)
            assert len(result.elements) == n
            assert all(
                result.cayley[a][b] == b for a in range(n) for b in range(n)
            )


def test_criterion_03_right_zero_machines_are_trivial():
    with criterion(3, "right zero inputs give one-element machine semigroups", 1.0):
        for n in range(1, 6):
            result = c.enumerate_semigroup(c.right_zero(n), 10_000)
            assert isinstance(result, c.Closed)
            assert len(result.elements) == 1


def test_criterion_04_groups_generate_free_semigroups():
    with criterion(4, "group inputs show free growth and free rank |G|", 30.0):
        cases = [
            (c.cyclic_group(2), 5, 62),
            (c.cyclic_group(3), 4, 120),
            (c.symmetric_group(3), 3, 258),
        ]
        for S, max_len, expected in cases:
            assert c.count_distinct_words(S, max_len) == expected
            report = c.classify(S)
            assert report.is_free and report.free_rank == S.order


def test_criterion_05_triviality_three_ways(order3_tables, order3_enumerations):
    with criterion(
        5, "inflation test == brute force == one-element enumeration (order 3)", 60.0
    ):
        assert len(order3_tables) == 113
        for S, result in zip(order3_tables, order3_enumerations):
            closed_form, _ = c.inflation_of_right_zero(S)
            brute = c.brute_force_inflation(S)
            engine = isinstance(result, c.Closed) and len(result.elements) == 1
            assert closed_form == brute == engine


def test_criterion_06_finiteness_and_infinite_witnesses(
    order3_tables, order3_enumerations
):
    with criterion(
        6, "H-triviality matches enumeration; free pairs found when infinite", 300.0
    ):
        for S, result in zip(order3_tables, order3_enumerations):
            report = c.classify(S)
            assert report.is_finite == isinstance(result, c.Closed)
            if report.is_finite:
                continue
            h_class, stabilizer = c.infinite_witness(S)
            assert len(h_class) > 1
            reps = []
            seen_rows = set()
            for t in stabilizer:
                if S.rows[t] not in seen_rows:
                    seen_rows.add(S.rows[t])
                    reps.append(t)
            assert any(
                c.free_pair_check(S, u, v, 4)
                for u, v in itertools.combinations(reps, 2)
            )


def test_criterion_07_shape_predicates_match_engine(
    order3_tables, order3_enumerations
):
    with criterion(
        7, "free / right zero / left zero predicates match the engine", 300.0
    ):
        pairs = []
        for n in (1, 2):
            for rows in oracles.all_tables(n):
                S = c.make_table(rows)
                pairs.append((S, c.enumerate_semigroup(S, 10_000)))
        pairs.extend(zip(order3_tables, order3_enumerations))
        assert len(pairs) == 122
        for S, result in pairs:
            report = c.classify(S)
            if isinstance(result, c.Closed):
                rows = result.cayley
                size = len(rows)
                cells = [
                    (a, b) for a in range(size) for b in range(size)
                ]
                engine_right = all(rows[a][b] == b for a, b in cells)
                engine_left = all(rows[a][b] == a for a, b in cells)
            else:
                engine_right = engine_left = False
            assert report.is_right_zero == engine_right
            assert report.is_left_zero == engine_left
            if report.is_free:
                rank = len(set(S.rows))
                assert report.free_rank == rank
                expected = sum(rank**length for length in range(1, 5))
                assert c.count_distinct_words(S, 4) == expected


def test_criterion_08_right_zero_factors_change_nothing(order3_tables):
    with criterion(
        8, "adjoining right zero factors preserves the machine semigroup", 300.0
    ):
        checked = 0
        for S in order3_tables:
            base = c.enumerate_semigroup(S, 10_000)
            for m in (1, 2):
                product = c.direct_product(S, c.right_zero(m))
                lifted = c.enumerate_semigroup(product, 10_000)
                if isinstance(base, c.Closed) and isinstance(lifted, c.Closed):
                    assert len(base.elements) == len(lifted.elements)
                    assert (
                        oracles.find_isomorphism(base.cayley, lifted.cayley) is not None
                    )
                    checked += 1
                else:
                    # the two sides must run out of budget together
                    assert isinstance(base, c.Exceeded) == isinstance(
                        lifted, c.Exceeded
                    )
        assert checked > 100


def test_criterion_09_d_class_products_across_sampled_corpus():
    with criterion(9, "D-class product containment on 500+ tables", 300.0):
        tables = []
        for n in (1, 2, 3):
            tables.extend(
                c.make_table(rows) for rows in oracles.all_tables(n)
            )
        stream = c.generate_tables(c.CorpusSpec(4, "labeled"))
        tables.extend(itertools.islice(stream, 500))
        assert len(tables) >= 500
        for S in tables:
            g = c.green_relations(S)
            for a in range(S.order):
                for b in range(S.order):
                    ab = S.rows[a][b]
                    if g.d_class[a] == g.d_class[b] == g.d_class[ab]:
                        assert g.r_class[ab] == g.r_class[a]
                        assert g.l_class[ab] == g.l_class[b]


def test_criterion_10_corpus_counts_and_cross_orders():
    with criterion(10, "corpus counts 1, 8, 113, 3492 from independent fills", 300.0):
        for n, expected in ((1, 1), (2, 8), (3, 113)):
            assert len(oracles.all_tables(n)) == expected
            assert (
                sum(1 for _ in c.generate_tables(c.CorpusSpec(n, "labeled")))
                == expected
            )
        row_major = sum(
            1 for _ in c.generate_tables(c.CorpusSpec(4, "labeled"))
        )
        column_major = sum(
            1
            for _ in c.generate_tables(c.CorpusSpec(4, "labeled"), "column_major")
        )
        assert row_major == column_major == 3492
