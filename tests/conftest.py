from __future__ import annotations

import pytest

import cayleysg as c
import oracles


def named_pool():
    """A spread of built-in tables used by many property tests."""
    return [
        c.named_family("example_ijkf"),
        c.left_zero(1),
        c.left_zero(3),
        c.right_zero(3),
        c.null(3),
        c.cyclic_group(2),
        c.cyclic_group(3),
        c.cyclic_group(4),
        c.symmetric_group(3),
        c.rectangular_band(2, 2),
        c.rectangular_band(2, 3),
        c.make_table([[0, 0], [0, 1]]),  # two-element semilattice
        c.direct_product(c.cyclic_group(2), c.right_zero(2)),
    ]


@pytest.fixture(scope="session")
def named_tables():
    return named_pool()


@pytest.fixture(scope="session")
def tables2():
    """All order-2 tables, straight from the naive oracle."""
    return [c.make_table(rows) for rows in oracles.all_tables(2)]


@pytest.fixture(scope="session")
def tables3():
    """All order-3 tables, straight from the naive oracle."""
    return [c.make_table(rows) for rows in oracles.all_tables(3)]


@pytest.fixture(scope="session")
def product16():
    """The direct product of two H-trivial order-4 tables of the corpus.
    Its C(S) closes at 16 elements; its 16 rows are distinct, but only 8 of
    its columns are."""
    return c.direct_product(
        c.load_dump_line("4;1 1 1 1;1 2 1 2;3 3 3 3;3 4 3 4"),
        c.load_dump_line("4;1 1 1 1;1 2 2 2;1 2 3 2;1 2 2 4"),
    )


@pytest.fixture(scope="session")
def small_tables(tables2, tables3, named_tables):
    return [c.left_zero(1)] + tables2 + tables3 + named_tables
