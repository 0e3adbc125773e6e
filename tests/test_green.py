from __future__ import annotations

import pytest

import cayleysg as c
import oracles


def test_green_classes_match_mutual_membership_oracle(small_tables):
    for S in small_tables:
        g = c.green_relations(S)
        r, l, h, d = oracles.mutual_membership_green(S.rows)
        assert oracles.classes_to_pairs(g.r_class) == r
        assert oracles.classes_to_pairs(g.l_class) == l
        assert oracles.classes_to_pairs(g.h_class) == h
        assert oracles.classes_to_pairs(g.d_class) == d


def closed_wide_64():
    """The order-64 closed-wide product with the largest L-classes (8)."""
    classes = c.generate_tables(c.CorpusSpec(4, "up_to_iso_anti"))
    finite = [S for S in classes if c.is_h_trivial(S)]
    return c.direct_product(c.direct_product(finite[33], finite[66]), finite[22])


@pytest.mark.parametrize(
    "table",
    [
        "product16",
        "cyclic_group_64",
        "rectangular_band_8_8",
        "left_zero_64",
        "closed_wide_64",
    ],
)
def test_green_classes_match_the_oracle_on_large_tables(table, request):
    # green_relations forms S^1aS^1 once per L-class, over one right ideal
    # per R-class: the order-64 tables have L- or R-classes of 8 to 64
    # elements
    S = {
        "product16": lambda: request.getfixturevalue("product16"),
        "cyclic_group_64": lambda: c.cyclic_group(64),
        "rectangular_band_8_8": lambda: c.rectangular_band(8, 8),
        "left_zero_64": lambda: c.left_zero(64),
        "closed_wide_64": closed_wide_64,
    }[table]()
    g = c.green_relations(S)
    r, l, h, d = oracles.mutual_membership_green(S.rows)
    assert oracles.classes_to_pairs(g.r_class) == r
    assert oracles.classes_to_pairs(g.l_class) == l
    assert oracles.classes_to_pairs(g.h_class) == h
    assert oracles.classes_to_pairs(g.d_class) == d


def test_minimal_ideal_matches_intersection_oracle(small_tables):
    for S in small_tables:
        g = c.green_relations(S)
        assert set(g.minimal_ideal) == oracles.kernel(S.rows)


def test_minimal_ideal_is_a_least_d_class(small_tables):
    for S in small_tables:
        g = c.green_relations(S)
        bottom = g.d_class[g.minimal_ideal[0]]
        members = tuple(a for a, d in enumerate(g.d_class) if d == bottom)
        assert members == g.minimal_ideal


def test_minimal_ideal_invariant_rejects_a_non_associative_table():
    # the product of all elements is 0, whose ideal {0, 1} is not its D-class
    broken = c.MulTable(((0, 0, 0), (0, 0, 0), (1, 2, 0)))
    with pytest.raises(RuntimeError, match="minimal ideal"):
        c.green_relations(broken)


@pytest.mark.parametrize("a", [-1, 4, True, 1.0])
def test_h_class_of_follows_the_letter_rule(a):
    # -1 would name the last element's class and True element 1's
    green = c.green_relations(c.rectangular_band(2, 2))
    with pytest.raises(ValueError):
        green.h_class_of(a)
    assert [green.h_class_of(x) for x in range(4)] == [(0,), (1,), (2,), (3,)]


def test_minimal_ideal_is_closed(small_tables):
    for S in small_tables:
        ideal = set(c.green_relations(S).minimal_ideal)
        for a in ideal:
            for b in ideal:
                assert S.rows[a][b] in ideal


def test_example_ijkf_green_structure():
    S = c.example_ijkf()
    g = c.green_relations(S)
    # i, j, k generate each other on the right; f sits above on its own
    assert g.r_class == (0, 0, 0, 1)
    # all L-classes are singletons, so H is trivial
    assert len(set(g.l_class)) == 4
    assert len(set(g.h_class)) == 4
    assert g.minimal_ideal == (0, 1, 2)
    assert len(set(g.d_class)) == 2


def test_right_zero_green_structure():
    g = c.green_relations(c.right_zero(3))
    assert len(set(g.r_class)) == 1
    assert len(set(g.l_class)) == 3
    assert g.minimal_ideal == (0, 1, 2)


def test_group_green_structure():
    g = c.green_relations(c.cyclic_group(4))
    assert len(set(g.h_class)) == 1
    assert g.minimal_ideal == (0, 1, 2, 3)


def test_is_h_trivial_cases():
    assert c.is_h_trivial(c.example_ijkf())
    assert c.is_h_trivial(c.left_zero(4))
    assert c.is_h_trivial(c.rectangular_band(2, 3))
    assert not c.is_h_trivial(c.cyclic_group(2))
    assert not c.is_h_trivial(c.symmetric_group(3))
    assert not c.is_h_trivial(c.direct_product(c.cyclic_group(2), c.right_zero(2)))
    assert c.is_h_trivial(c.cyclic_group(1))


def test_subset_shape_frozen_cases():
    S = c.example_ijkf()
    assert oracles.subset_shape(S, (0, 1, 2)) == "right_zero"
    assert oracles.subset_shape(c.left_zero(3), range(3)) == "left_zero"
    assert oracles.subset_shape(c.cyclic_group(4), range(4)) == "group"
    assert oracles.subset_shape(c.null(3), range(3)) == "null"
    assert (
        oracles.subset_shape(c.rectangular_band(2, 2), range(4))
        == "rectangular_band"
    )
    semilattice = c.make_table([[0, 0], [0, 1]])
    assert oracles.subset_shape(semilattice, (0, 1)) == "other"


def test_subset_shape_singleton_convention():
    S = c.cyclic_group(4)
    assert oracles.subset_shape(S, (0,)) == "right_zero"
    assert oracles.subset_shape(c.null(3), (0,)) == "right_zero"


def test_subset_shape_prefers_specific_tags():
    # a right zero semigroup is also a rectangular band; the specific tag wins
    assert oracles.subset_shape(c.right_zero(3), range(3)) == "right_zero"
    assert oracles.subset_shape(c.left_zero(3), range(3)) == "left_zero"


def test_subset_shape_rejects_non_closed():
    S = c.cyclic_group(4)
    with pytest.raises(oracles.NotClosedError) as err:
        oracles.subset_shape(S, (1, 2))
    assert err.value.pair == (1, 2) and err.value.product == 3
    with pytest.raises(ValueError):
        oracles.subset_shape(S, ())
    with pytest.raises(ValueError):
        oracles.subset_shape(S, (0, 7))


def test_subset_shape_group_on_subgroup():
    S = c.symmetric_group(3)
    g = c.green_relations(S)
    assert oracles.subset_shape(S, g.minimal_ideal) == "group"


def test_inflation_frozen_cases():
    ok, witness = c.inflation_of_right_zero(c.right_zero(3))
    assert ok and witness.targets == (0, 1, 2)
    assert witness.classes == ((0,), (1,), (2,))

    ok, witness = c.inflation_of_right_zero(c.null(3))
    assert ok and witness.targets == (0,) and witness.classes == ((0, 1, 2),)

    assert c.inflation_of_right_zero(c.cyclic_group(2)) == (False, None)
    assert c.inflation_of_right_zero(c.example_ijkf()) == (False, None)
    assert c.inflation_of_right_zero(c.make_table([[0, 0], [0, 1]])) == (False, None)


def test_inflation_with_fat_classes():
    # targets {0, 1} with 2 and 3 hanging off them: every product is phi(b)
    rows = [[0, 1, 0, 1]] * 4
    S = c.make_table(rows)
    ok, witness = c.inflation_of_right_zero(S)
    assert ok
    assert witness.targets == (0, 1)
    assert witness.classes == ((0, 2), (1, 3))
    assert c.brute_force_inflation(S)


def test_inflation_witness_reconstructs_the_table(small_tables):
    for S in small_tables:
        ok, witness = c.inflation_of_right_zero(S)
        if not ok:
            continue
        target_of = {}
        for t, members in zip(witness.targets, witness.classes):
            for b in members:
                target_of[b] = t
        assert sorted(target_of) == list(range(S.order))
        for a in range(S.order):
            for b in range(S.order):
                assert S.rows[a][b] == target_of[b]
        # the targets really form a right zero subsemigroup
        assert oracles.subset_shape(S, witness.targets) == "right_zero"


def test_inflation_agrees_with_brute_force(small_tables):
    for S in small_tables:
        if S.order > 6:
            continue
        ok, _ = c.inflation_of_right_zero(S)
        assert ok == c.brute_force_inflation(S)


def test_brute_force_inflation_cap():
    with pytest.raises(c.SizeCapError):
        c.brute_force_inflation(c.left_zero(7))


def test_d_class_products_stay_in_r_and_l_classes(small_tables):
    # when a, b and a*b share a D-class, a*b lies in R(a) intersect L(b)
    for S in small_tables:
        g = c.green_relations(S)
        for a in range(S.order):
            for b in range(S.order):
                ab = S.rows[a][b]
                if g.d_class[a] == g.d_class[b] == g.d_class[ab]:
                    assert g.r_class[ab] == g.r_class[a]
                    assert g.l_class[ab] == g.l_class[b]
