from __future__ import annotations

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
