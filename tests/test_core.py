from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cayleysg as c
import oracles

Z2 = ((0, 1), (1, 0))
NON_ASSOC = ((1, 0), (0, 0))  # 0*(0*1) = 1 but (0*0)*1 = 0


def test_all_lists_no_submodules():
    assert c.__all__
    assert not [
        name for name in c.__all__ if isinstance(getattr(c, name), types.ModuleType)
    ]


def test_check_associativity_accepts_group_table():
    assert c.check_associativity(Z2)


def test_check_associativity_rejects_counterexample():
    assert not c.check_associativity(NON_ASSOC)
    assert not oracles.is_associative(NON_ASSOC)


def test_associativity_failure_is_the_first_triple_of_a_literal_scan():
    # whole rows are compared first and only a mismatch is scanned for its
    # c, so the triple must still be the first failing (a, b, c)
    rng = random.Random(0)
    for n in range(1, 6):
        for _ in range(200):
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            literal = next(
                (
                    (a, b, x)
                    for a in range(n)
                    for b in range(n)
                    for x in range(n)
                    if rows[rows[a][b]][x] != rows[a][rows[b][x]]
                ),
                None,
            )
            assert c.associativity_failure(rows) == literal
            assert (literal is None) == oracles.is_associative(rows)


def test_check_associativity_agrees_with_oracle_on_all_order2_grids():
    for flat in itertools.product(range(2), repeat=4):
        rows = (flat[:2], flat[2:])
        assert c.check_associativity(rows) == oracles.is_associative(rows)


@pytest.mark.parametrize(
    "rows",
    [
        (),
        ((0,), (0,)),
        ((0, 1), (1,)),
        ((0, 2), (1, 0)),
        ((0, -1), (1, 0)),
        ((0, True), (1, 0)),
    ],
)
def test_malformed_tables_raise_not_return_false(rows):
    with pytest.raises(c.MalformedTableError):
        c.check_associativity(rows)


def test_make_table_reports_first_failing_triple():
    with pytest.raises(c.NotAssociativeError) as err:
        c.make_table(NON_ASSOC)
    assert err.value.triple == (0, 0, 1)
    assert "a=1, b=1, c=2" in str(err.value)


def test_make_table_enforces_cap():
    big = [[0] * 65 for _ in range(65)]
    with pytest.raises(c.SizeCapError):
        c.make_table(big)
    assert c.make_table(big, cap=None).order == 65
    # a cap follows the int rule: not a bool (True would read as 1), not a float
    for cap in ("x", True, 2.0):
        with pytest.raises(ValueError, match="cap must be an int"):
            c.make_table([[0]], cap=cap)


def test_make_table_rejects_wrong_name_count():
    with pytest.raises(c.MalformedTableError):
        c.make_table(Z2, names=["e"])


@pytest.mark.parametrize("bad", ["a b", "", "a#b"])
def test_make_table_rejects_a_name_the_names_line_cannot_carry(bad):
    # format_table would write each of these into a line parse_table rejects
    with pytest.raises(c.MalformedTableError, match="bad name"):
        c.make_table(Z2, names=[bad, "g"])
    # the names are checked before associativity
    with pytest.raises(c.MalformedTableError, match="bad name"):
        c.make_table(NON_ASSOC, names=["e", bad])


def test_left_zero_right_zero_null_rows():
    assert c.left_zero(3).rows == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    assert c.right_zero(3).rows == ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    assert c.null(3).rows == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_cyclic_group_is_addition_mod_n():
    S = c.cyclic_group(4)
    assert S.rows[1][3] == 0
    assert S.rows[2][3] == 1
    assert all(S.rows[0][x] == x and S.rows[x][0] == x for x in range(4))


def test_symmetric_group_structure():
    S = c.symmetric_group(3)
    assert S.order == 6
    # lexicographically first permutation is the identity
    assert all(S.rows[0][x] == x and S.rows[x][0] == x for x in range(6))
    assert oracles.is_associative(S.rows)
    # every element has an inverse through the identity 0
    for x in range(6):
        assert any(S.rows[x][y] == 0 and S.rows[y][x] == 0 for y in range(6))
    # not abelian
    assert any(S.rows[a][b] != S.rows[b][a] for a in range(6) for b in range(6))


def test_rectangular_band_products():
    S = c.rectangular_band(2, 3)
    assert S.order == 6
    for x1, y1, x2, y2 in itertools.product(range(2), range(3), range(2), range(3)):
        assert S.rows[x1 * 3 + y1][x2 * 3 + y2] == x1 * 3 + y2


def test_example_ijkf_table_and_names():
    S = c.example_ijkf()
    assert S.rows == ((0, 1, 2, 0), (0, 1, 2, 0), (0, 1, 2, 1), (0, 1, 2, 0))
    assert S.names == ("i", "j", "k", "f")
    assert oracles.is_associative(S.rows)


def test_all_families_build_associative_tables():
    cases = [
        ("left_zero", (4,)),
        ("right_zero", (4,)),
        ("null", (4,)),
        ("cyclic_group", (5,)),
        ("symmetric_group", (3,)),
        ("rectangular_band", (2, 3)),
        ("example_ijkf", ()),
    ]
    for name, params in cases:
        S = c.named_family(name, *params)
        assert oracles.is_associative(S.rows)


def test_named_family_unknown_name():
    with pytest.raises(c.UnknownFamilyError):
        c.named_family("dihedral", 3)


def test_family_caps_and_bad_orders():
    with pytest.raises(c.SizeCapError):
        c.left_zero(65)
    with pytest.raises(c.SizeCapError):
        c.symmetric_group(5)  # 120 states
    with pytest.raises(ValueError):
        c.cyclic_group(0)
    with pytest.raises(ValueError):
        c.rectangular_band(0, 3)
    # True would read as the order 1 and 2.0 would reach range() or factorial()
    families = ("left_zero", "right_zero", "null", "cyclic_group", "symmetric_group")
    for order in (True, 2.0):
        for name in families:
            with pytest.raises(ValueError):
                c.named_family(name, order)
        for sides in ((order, 2), (2, order)):
            with pytest.raises(ValueError):
                c.rectangular_band(*sides)


def test_symmetric_group_checks_the_cap_before_building_permutations(monkeypatch):
    def refuse(*args):
        raise AssertionError("permutations built past the cap")

    monkeypatch.setattr(c.core.itertools, "permutations", refuse)
    for n in (6, 12, 20, 10**30):
        with pytest.raises(c.SizeCapError):
            c.symmetric_group(n)


def test_direct_product_indexing_and_names():
    S = c.make_table(Z2, names=["e", "g"])
    T = c.make_table(((0, 1), (0, 1)), names=["r", "s"])  # right zero
    P = c.direct_product(S, T)
    assert P.order == 4
    for a, b, x, y in itertools.product(range(2), repeat=4):
        assert P.rows[a * 2 + b][x * 2 + y] == S.rows[a][x] * 2 + T.rows[b][y]
    assert P.names == ("(e,r)", "(e,s)", "(g,r)", "(g,s)")
    assert oracles.is_associative(P.rows)
    unnamed = c.direct_product(S, c.right_zero(2))
    assert unnamed.names is None


@pytest.mark.parametrize(
    "a, b", [(-1, 0), (0, -1), (3, 0), (0, 3), (True, 1), (1, False), (1.0, 0)]
)
def test_mul_follows_the_letter_rule(a, b):
    # -1 would wrap to the last row and True would read as 1
    S = c.cyclic_group(3)
    with pytest.raises(ValueError):
        S.mul(a, b)
    assert [S.mul(x, y) for x in range(3) for y in range(3)] == [0, 1, 2, 1, 2, 0, 2, 0, 1]


def test_direct_product_cap():
    with pytest.raises(c.SizeCapError):
        c.direct_product(c.cyclic_group(9), c.cyclic_group(8))
    for cap in ("x", True, 2.0):
        with pytest.raises(ValueError, match="cap must be an int"):
            c.direct_product(c.cyclic_group(2), c.cyclic_group(2), cap=cap)


def test_direct_product_associative_up_to_isomorphism():
    A, B, C = c.cyclic_group(2), c.left_zero(2), c.right_zero(2)
    left = c.direct_product(c.direct_product(A, B), C)
    right = c.direct_product(A, c.direct_product(B, C))
    assert oracles.find_isomorphism(left.rows, right.rows) is not None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_direct_product_rows_match_components(data):
    pool = [c.cyclic_group(2), c.left_zero(2), c.right_zero(3), c.null(2)]
    S = data.draw(st.sampled_from(pool))
    T = data.draw(st.sampled_from(pool))
    P = c.direct_product(S, T)
    a = data.draw(st.integers(0, S.order - 1))
    b = data.draw(st.integers(0, T.order - 1))
    x = data.draw(st.integers(0, S.order - 1))
    y = data.draw(st.integers(0, T.order - 1))
    k = T.order
    assert P.rows[a * k + b][x * k + y] == S.rows[a][x] * k + T.rows[b][y]


def test_import_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import cayleysg, sys; assert 'numpy' not in sys.modules",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
