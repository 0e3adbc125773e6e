from __future__ import annotations

import pytest

import answers


def test_order_3_answers_match_the_frozen_digests():
    # the small slice of tests/answers.py, without the budget-10 000 runs
    computed = answers.digests(("small",), skip=("enumerate_10000",))
    assert len(computed) == 7
    assert answers.mismatches(computed) == []


def test_long_group_words_match_the_frozen_digest():
    # words of length 4-8 over groups, whose refinement is discrete
    computed = answers.digests(("groups",))
    assert list(computed) == ["groups/canonicalize_long"]
    assert answers.mismatches(computed) == []


@pytest.mark.parametrize("group", ["enumerate", "green", "count_distinct_words"])
def test_order_4_and_closed_wide_answers_match_the_frozen_digests(group):
    # the large slice covers the 126 order-4 classes and the 13 closed-wide
    # products, whose repeated rows each search composes once
    computed = answers.digests(("large",), skip=tuple(set(answers.GROUPS) - {group}))
    assert list(computed) == ["large/%s" % group]
    assert answers.mismatches(computed) == []
