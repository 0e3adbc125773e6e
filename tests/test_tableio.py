from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cayleysg as c
from cayleysg.cli import main

EXAMPLE = """# the four element example
4
1 2 3 1
1 2 3 1   # row for k's neighbour
1 2 3 2
1 2 3 1

names: i j k f
"""


def test_parse_with_comments_blanks_and_names():
    S = c.parse_table(EXAMPLE)
    assert S.rows == c.example_ijkf().rows
    assert S.names == ("i", "j", "k", "f")


def test_format_golden():
    assert c.format_table(c.right_zero(2)) == "2\n1 2\n1 2\n"
    assert (
        c.format_table(c.example_ijkf())
        == "4\n1 2 3 1\n1 2 3 1\n1 2 3 2\n1 2 3 1\nnames: i j k f\n"
    )


def test_round_trip(small_tables):
    for S in small_tables:
        again = c.parse_table(c.format_table(S))
        assert again.rows == S.rows
        assert again.names == S.names


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_survives_decoration(data):
    pool = [c.example_ijkf(), c.cyclic_group(3), c.left_zero(2)]
    S = data.draw(st.sampled_from(pool))
    text = c.format_table(S)
    lines = text.splitlines()
    decorated = []
    for line in lines:
        if data.draw(st.booleans()):
            decorated.append("")
        decorated.append(line + data.draw(st.sampled_from(["", "  # noise"])))
    assert c.parse_table("\n".join(decorated)).rows == S.rows


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only comments\n",
        "x\n1\n",
        "0\n",
        "2\n1 2\n",
        "2\n1 2 1\n1 2\n",
        "2\n1 x\n1 2\n",
        "2\n1 3\n1 2\n",
        "2\n1 0\n1 2\n",
        "2\n1 2\n1 2\nnames: a\n",
        "2\n2 1\n1 1\nnames: a\n",  # names are checked before associativity
        "2\n1 2\n1 2\nsurprise\n",
        "2\n1 2\n1 2\n1 2\n",
        "2\n1 2\n2 \u0661\n",  # an Arabic-Indic digit one
        "2\n+1 2\n2 1\n",
        "\u0662\n1 2\n2 1\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(c.TableParseError):
        c.parse_table(text)


def test_parse_distinguishes_associativity_failure():
    # well-formed but not associative: a different error type than parsing
    text = "2\n2 1\n1 1\n"
    with pytest.raises(c.NotAssociativeError):
        c.parse_table(text)


def test_parse_indices_are_one_based():
    S = c.parse_table("2\n2 1\n1 2\n")
    assert S.rows == ((1, 0), (0, 1))


# Numerals int() would read as well as plain ones.  Half the texts have
# the declared shape and entries in range, so that the fuzz also reaches
# well-formed tables, associative or not.
TOKENS = ["0", "4", "01", "+1", "-1", "\u0661", "x", "1.5", "# c", "names: a"]


@st.composite
def table_like_text(draw):
    n = draw(st.integers(1, 3))
    entry = st.sampled_from([str(k) for k in range(1, n + 1)])
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    lines = [str(n)] + [" ".join(r) for r in draw(rows)]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(lines)))
            lines[i:i + draw(st.integers(0, 1))] = [draw(st.sampled_from(TOKENS))]
    return "\n".join(lines)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(st.text(), table_like_text()))
def test_any_text_fails_only_with_documented_errors_and_exit_codes(tmp_path, text):
    documented = (c.TableParseError, c.MalformedTableError, c.NotAssociativeError)
    for parse, source in ((c.parse_table, text), (c.load_dump_line, text.replace("\n", ";"))):
        try:
            parse(source)
        except documented:
            pass
    path = tmp_path / "table.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["classify", str(path)]) in (0, 2, 3)
