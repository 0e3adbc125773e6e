"""The README's examples, run as they are written.

The expected text is read from README.md itself, so an edit of the README
that changes an output, or a change of the code that moves one, fails here.
"""

from __future__ import annotations

import io
import json
import re
import shlex
from pathlib import Path

import pytest

import cayleysg as c
from cayleysg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def shell_examples():
    """(command, stdin, expected output lines) for each '$ ' line of the
    README; a leading printf '...' | gives the command's stdin."""
    examples = []
    for _, body in BLOCKS:
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, *expected = chunk.rstrip("\n").split("\n")
            stdin = None
            piped = re.fullmatch(r"printf '(.*)' \| (.*)", command)
            if piped:
                stdin, command = piped[1].replace("\\n", "\n"), piped[2]
            examples.append((command, stdin, expected))
    return examples


EXAMPLES = shell_examples()


def test_the_readme_shows_the_unabridged_cli_examples():
    commands = {command for command, _, _ in EXAMPLES}
    assert {
        "cayleysg act family:cyclic_group:2 --word 2,2 --prefix 1,2,1",
        "cayleysg growth family:cyclic_group:2 --max-len 4",
        "cayleysg machine family:cyclic_group:2",
        "cayleysg verify --max-order 3 --out report.json",
    } <= commands


@pytest.mark.parametrize(
    "command, stdin, expected", EXAMPLES, ids=[command for command, _, _ in EXAMPLES]
)
def test_a_readme_cli_example_prints_what_it_shows(
    command, stdin, expected, capsys, monkeypatch, tmp_path
):
    monkeypatch.chdir(tmp_path)  # verify --out writes its report here
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    program, *argv = shlex.split(command)
    assert program == "cayleysg"
    assert main(argv) == 0
    out = capsys.readouterr().out
    if expected[0] != "{":
        assert out.splitlines() == expected
        return
    # JSON is shown abridged and compacted: each member line it shows,
    # with '...' for the members left out, is one member of the document
    document = json.loads(out)
    assert expected[-1] == "}"
    for line in expected[1:-1]:
        if line.strip() != "...":
            member = json.loads("{%s}" % line.strip().rstrip(","))
            for key, value in member.items():
                assert document[key] == value, line


TOUR = "".join(body for language, body in BLOCKS if language == "python")


def stated(source):
    """The comment on the library tour's line of code source."""
    for line in TOUR.splitlines():
        code, _, comment = line.partition("#")
        if code.strip() == source:
            return comment.strip()
    raise AssertionError("no tour line %r" % source)


def test_the_readme_library_tour_runs_and_states_its_values():
    tour: dict = {}
    exec(TOUR, tour)
    S = tour["S"]
    assert stated("c.is_h_trivial(S)").startswith("%r:" % c.is_h_trivial(S))
    result = c.enumerate_semigroup(S, 100)
    assert not result.capped
    assert stated("c.enumerate_semigroup(S, 100)").startswith(
        "Exceeded(count_reached=%d):" % result.count_reached
    )
    assert stated("c.count_distinct_words(S, 4)").startswith(
        "%d = " % c.count_distinct_words(S, 4)
    )
    assert eval(stated("r = c.classify(S)"), {"r": tour["r"]}) is True
    tables = 'tables = list(c.generate_tables(c.CorpusSpec(3, "labeled")))'
    assert stated(tables) == "all %d" % len(tour["tables"])
