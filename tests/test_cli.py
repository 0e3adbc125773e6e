from __future__ import annotations

import importlib
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import cayleysg as c
from cayleysg.cli import load_input, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_family(capsys):
    code, out, _ = run(capsys, "classify", "family:example_ijkf")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_left_zero"] is True
    assert payload["is_trivial"] is False
    assert payload["is_finite"] is True
    assert payload["witnesses"]["minimal_ideal"] == [1, 2, 3]


def test_classify_from_file(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(c.format_table(c.right_zero(3)))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out)["is_trivial"] is True


def test_classify_family_with_params(capsys):
    code, out, _ = run(capsys, "classify", "family:cyclic_group:3")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_free"] is True and payload["free_rank"] == 3

    code, out, _ = run(capsys, "classify", "family:rectangular_band:2,3")
    assert code == 0
    assert json.loads(out)["is_right_zero"] is True


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 9\n1 2\n")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "out of range" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "classify", "no-such-file.txt")
    assert code == 2
    assert "cannot read" in err


def test_unknown_family_exit_code(capsys):
    code, _, err = run(capsys, "classify", "family:octonions")
    assert code == 2
    assert "unknown family" in err


def test_bad_family_params_exit_code(capsys):
    code, _, err = run(capsys, "classify", "family:cyclic_group:x")
    assert code == 2
    code, _, err = run(capsys, "classify", "family:cyclic_group:1,2,3")
    assert code == 2
    code, _, err = run(capsys, "classify", "family:cyclic_group:\u0663")
    assert code == 2
    code, _, err = run(capsys, "classify", "family:cyclic_group:3:4")
    assert code == 2
    assert "bad family reference" in err


def test_associativity_error_exit_code_and_triple(capsys, tmp_path):
    path = tmp_path / "nonassoc.txt"
    path.write_text("2\n2 1\n1 1\n")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 3
    assert "a=1, b=1, c=2" in err


def test_machine_dot_output(capsys, tmp_path):
    out_path = tmp_path / "m.dot"
    code, _, _ = run(capsys, "machine", "family:left_zero:1", "--dot", str(out_path))
    assert code == 0
    assert out_path.read_text() == (
        'digraph mealy {\n'
        '  rankdir=LR;\n'
        '  node [shape=circle];\n'
        '  s0 [label="1"];\n'
        '  s0 -> s0 [label="1|1"];\n'
        '}\n'
    )


def test_machine_dot_stdout_and_stability(capsys):
    code, first, _ = run(capsys, "machine", "family:example_ijkf")
    assert code == 0
    code, second, _ = run(capsys, "machine", "family:example_ijkf")
    assert first == second
    assert '"f|j"' in first


def test_enumerate_closed_payload(capsys):
    code, out, _ = run(capsys, "enumerate", "family:example_ijkf", "--budget", "50")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "status": "Closed",
        "element_count": 2,
        "cayley": [[1, 1], [2, 2]],
        "generator_map": [1, 1, 2, 1],
    }


def test_enumerate_exceeded_payload(capsys):
    code, out, _ = run(capsys, "enumerate", "family:cyclic_group:2", "--budget", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"status": "Exceeded", "count_reached": 101, "capped": False}


def test_enumerate_exceeded_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "enumerate", "family:cyclic_group:2", "--budget", "20")
    assert code == 0
    assert out == '{\n  "status": "Exceeded",\n  "count_reached": 21,\n  "capped": false\n}\n'


def test_enumerate_budget_too_small(capsys):
    code, _, err = run(capsys, "enumerate", "family:cyclic_group:3", "--budget", "2")
    assert code == 2
    assert "budget" in err


def test_enumerate_budget_may_be_below_the_order(capsys):
    # rectangular_band(8, 8) has order 64 but 8 distinct rows
    code, out, _ = run(capsys, "enumerate", "family:rectangular_band:8,8", "--budget", "10")
    assert code == 0
    payload = json.loads(out)
    assert (payload["status"], payload["element_count"]) == ("Closed", 8)


def test_act_output_is_one_based(capsys, tmp_path):
    path = tmp_path / "rz3.txt"
    path.write_text(c.format_table(c.right_zero(3)))
    code, out, _ = run(capsys, "act", str(path), "--word", "2", "--prefix", "3,1,2")
    assert code == 0
    assert out == "3,1,2\n"


def test_act_empty_prefix(capsys):
    code, out, _ = run(capsys, "act", "family:cyclic_group:2", "--word", "2", "--prefix", "")
    assert code == 0
    assert out == "\n"


def test_act_validation(capsys):
    code, _, err = run(capsys, "act", "family:cyclic_group:2", "--word", "9", "--prefix", "1")
    assert code == 2
    assert "word entries must lie in 1..2, got '9'" in err
    code, _, err = run(capsys, "act", "family:cyclic_group:2", "--word", "", "--prefix", "1")
    assert code == 2
    code, _, err = run(capsys, "act", "family:cyclic_group:2", "--word", "0", "--prefix", "1")
    assert code == 2
    assert "word entries must lie in 1..2, got '0'" in err
    code, _, err = run(capsys, "act", "family:cyclic_group:2", "--word", "1", "--prefix", "1,3")
    assert code == 2
    assert "prefix entries must lie in 1..2, got '1,3'" in err
    # only ASCII numerals: int() would read these as 2 and 1
    code, _, err = run(capsys, "act", "family:cyclic_group:2", "--word", "\u0662", "--prefix", "1")
    assert code == 2
    code, _, err = run(capsys, "act", "family:cyclic_group:2", "--word", "2", "--prefix", "+1")
    assert code == 2


def test_verify_clean_run(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["disagreements"] == []
    assert payload["inconclusive"] == []
    assert payload["tables_checked"] == 5


def test_verify_stdout_is_pinned_apart_from_the_elapsed_time(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "2")
    assert code == 0
    assert re.sub(r'\n  "elapsed_seconds": [0-9.e-]+', "", out) == (
        "{\n"
        '  "max_order": 2,\n'
        '  "budget": 10000,\n'
        '  "free_len": 4,\n'
        '  "dedup": "up_to_iso_anti",\n'
        '  "tables_checked": 5,\n'
        '  "checks_passed": 41,\n'
        '  "disagreements": [],\n'
        '  "inconclusive": [],\n'
        "}\n"
    )


def test_verify_report_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--max-order", "1", "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["tables_checked"] == 1
    assert "checked 1 tables" in out


def test_an_explicit_dash_writes_what_the_default_writes(capsys):
    # '-' is the default of --dot and --out: stdout, and no verify summary
    def without_elapsed(out):
        return re.sub(r'\n  "elapsed_seconds": [0-9.e-]+', "", out)

    for argv, option in [
        (["machine", "family:left_zero:2"], "--dot"),
        (["corpus", "--order", "2"], "--out"),
        (["verify", "--max-order", "1"], "--out"),
    ]:
        code, default, _ = run(capsys, *argv)
        assert code == 0
        code, dash, _ = run(capsys, *argv, option, "-")
        assert code == 0
        assert without_elapsed(dash) == without_elapsed(default), argv
        assert not re.search(r"^checked \d+ tables", dash, re.M)


def test_growth_profile_matches_free_reference(capsys):
    code, out, _ = run(capsys, "growth", "family:cyclic_group:2", "--max-len", "4")
    assert code == 0
    assert out.splitlines()[-1].split() == ["4", "30", "16", "30"]


def test_growth_profile_stops_at_the_work_cap(capsys):
    code, out, _ = run(
        capsys,
        "growth",
        "family:symmetric_group:3",
        "--max-len",
        "12",
        "--work-cap",
        "1000",
    )
    assert code == 0
    assert "stopped at length 4" in out


def test_growth_profile_of_a_finite_closure_prints_every_length(capsys):
    code, out, _ = run(capsys, "growth", "family:left_zero:2", "--max-len", "4")
    assert code == 0
    assert [line.split() for line in out.splitlines()[2:]] == [
        ["1", "2", "2", "2"],
        ["2", "2", "0", "6"],
        ["3", "2", "0", "14"],
        ["4", "2", "0", "30"],
    ]


def test_growth_profile_of_one_letter_takes_constant_time_per_length(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "growth", "family:null:1", "--max-len", "20000")
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 20_002
    assert lines[-1].split() == ["20000", "1", "0", "20000"]
    assert elapsed < 10.0


def test_growth_profile_builds_one_behavior_graph(capsys, monkeypatch):
    engine = importlib.import_module("cayleysg.engine")
    built = []

    class Counted(engine.BehaviorGraph):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "BehaviorGraph", Counted)
    code, out, _ = run(
        capsys,
        "growth",
        "family:cyclic_group:3",
        "--max-len",
        "9",
        "--work-cap",
        "100000",
    )
    assert code == 0
    assert out.splitlines()[-1].split() == ["9", "29523", "19683", "29523"]
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-order", "0"],
        ["verify", "--max-order", "5"],
        ["growth", "family:cyclic_group:2", "--work-cap", "-5"],
        ["growth", "family:cyclic_group:2", "--max-len", "0"],
        ["growth", "family:cyclic_group:2", "--work-cap", "0"],
    ],
)
def test_out_of_range_lengths_orders_and_caps_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# each command line runs with the value 1; int() also reads each bad
# numeral below as 1
INTEGER_OPTIONS = {
    "--budget": ["enumerate", "family:left_zero:1", "--budget"],
    "--max-len": ["growth", "family:left_zero:1", "--max-len"],
    "--work-cap": ["growth", "family:left_zero:1", "--work-cap"],
    "--max-order": ["verify", "--max-order"],
    "--free-len": ["verify", "--max-order", "1", "--free-len"],
    "--order": ["corpus", "--order"],
}


@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integer_options_take_ascii_numerals_only(capsys, option):
    argv = INTEGER_OPTIONS[option]
    assert run(capsys, *argv, "1")[0] == 0
    for raw in ("+1", "١", "0_1"):
        code, out, err = run(capsys, *argv, raw)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and option in err and repr(raw) in err


def test_a_free_length_past_the_work_cap_exits_5(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "4", "--free-len", "9")
    assert code == 5
    assert out == ""
    assert err.startswith("error:") and "work cap" in err


@pytest.mark.parametrize("free_len", ["20000", "1000000000"])
def test_a_free_length_far_past_the_work_cap_exits_5(capsys, free_len):
    # the word count is not built past the cap, nor printed with 6000 digits
    code, out, err = run(capsys, "verify", "--max-order", "2", "--free-len", free_len)
    assert code == 5
    assert out == ""
    assert err == "error: 1048574 words exceed the work cap 200000\n"


@pytest.mark.parametrize(
    "error", [c.StateCapError(60), c.ClosureCapError(10), c.WorkCapError("cap")]
)
def test_resource_limits_exit_5(capsys, monkeypatch, error):
    engine = importlib.import_module("cayleysg.engine")

    def hit_the_limit(*args, **kwargs):
        raise error

    monkeypatch.setattr(engine, "enumerate_semigroup", hit_the_limit)
    code, out, err = run(capsys, "enumerate", "family:cyclic_group:2")
    assert code == 5
    assert out == ""
    assert err == "error: %s\n" % error


def test_a_capped_enumeration_exits_0_with_its_answer(capsys, monkeypatch):
    # enumerate reports a state-cap stop in its payload, not as exit 5
    engine = importlib.import_module("cayleysg.engine")
    capped = c.Exceeded(7, capped=True)
    monkeypatch.setattr(engine, "enumerate_semigroup", lambda *args, **kwargs: capped)
    code, out, err = run(capsys, "enumerate", "family:cyclic_group:2")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"status": "Exceeded", "count_reached": 7, "capped": True}


@pytest.mark.parametrize(
    "argv",
    [
        ["machine", "family:left_zero:2", "--dot"],
        ["corpus", "--order", "1", "--out"],
        ["verify", "--max-order", "1", "--out"],
    ],
)
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    path = str(tmp_path / "missing" / "out.txt")
    code, out, err = run(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write %r:" % path)


def test_growth_profile_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "growth", "family:nosuch")
    assert code == 2
    assert "error:" in err


def test_corpus_dump(capsys):
    code, out, _ = run(capsys, "corpus", "--order", "2", "--dedup", "labeled")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert lines[0] == "2;1 1;1 1"
    assert all(c.load_dump_line(line).order == 2 for line in lines)


def test_act_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2\n1 2\n2 1\n"))
    code, out, _ = run(capsys, "act", "-", "--word", "2", "--prefix", "1,1,1")
    assert code == 0
    assert out == "2,2,2\n"


# letters and family parameters: mostly small numerals, then numerals of
# every size and the non-numerals the CLI must refuse
NUMERAL = st.one_of(
    st.integers(0, 70).map(str),
    st.integers(0, 10**40).map(str),
    st.sampled_from(["", "+1", "-1", " 2", "1.5", "x", "\u0661", "9" * 5000]),
)
NUMERALS = st.one_of(
    st.lists(st.integers(1, 4).map(str), min_size=1, max_size=4).map(",".join),
    st.lists(NUMERAL, max_size=4).map(",".join),
    st.text(max_size=8),
)
FAMILY_TOKEN = st.one_of(
    st.builds("family:{}:{}".format, st.sampled_from(c.family_names()), st.integers(1, 5)),
    st.builds(
        "family:{}{}".format,
        st.one_of(st.sampled_from(c.family_names()), st.text(max_size=8)),
        st.one_of(st.just(""), NUMERALS.map(":".__add__), st.text(max_size=8)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(FAMILY_TOKEN, NUMERALS, NUMERALS)
def test_family_tokens_and_act_letters_fail_only_with_documented_errors_and_exit_codes(
    token, word, prefix
):
    try:
        assert isinstance(load_input(token), c.MulTable)
    except (c.TableParseError, c.UnknownFamilyError, c.SizeCapError):
        pass
    except ValueError as err:
        assert type(err) is ValueError and str(err) == "order must be positive"
    argv = ["act", token, "--word=" + word, "--prefix=" + prefix]
    assert main(argv) in (0, 2, 3)
