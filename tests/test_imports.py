"""What `import cayleysg` and each subcommand load, and the package's lazy
names.

The module checks run in fresh interpreters: in this process earlier tests
have already imported every module, so sys.modules here tells nothing.
"""

from __future__ import annotations

import importlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayleysg as c
from cayleysg.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("core", "tableio", "green", "machine", "engine", "classify", "corpus", "verify")
# what `act` and `enumerate` must not load
UNUSED_BY_ACT = {"cayleysg." + m for m in ("classify", "green", "corpus", "verify", "machine")}
# the subcommands that compose machines, and so the only ones that load engine
COMPOSING = ("enumerate", "act", "growth", "verify")


def fresh(*args):
    """Run python with args in a new interpreter that imports cayleysg from src."""
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def imported(importtime_log: str) -> set:
    """The modules a `python -X importtime` run reports on stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:")
    }


def test_import_cayleysg_loads_only_core_and_tableio():
    proc = fresh("-X", "importtime", "-c", "import cayleysg")
    assert proc.returncode == 0, proc.stderr
    loaded = {m for m in imported(proc.stderr) if m.startswith("cayleysg")}
    assert loaded == {"cayleysg", "cayleysg.core", "cayleysg.tableio"}


COMMANDS = [
    ["classify", "family:example_ijkf"],
    ["machine", "family:cyclic_group:3"],
    ["enumerate", "family:rectangular_band:2,2"],
    ["act", "family:cyclic_group:3", "--word", "2,3", "--prefix", "1,2,3"],
    ["growth", "family:cyclic_group:2", "--max-len", "3"],
    ["verify", "--max-order", "1", "--out", "REPORT"],
    ["corpus", "--order", "1"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_each_subcommand_in_a_fresh_process(argv, capsys, tmp_path):
    argv = [str(tmp_path / "report.json") if arg == "REPORT" else arg for arg in argv]
    code = main(argv)
    expected = capsys.readouterr().out
    proc = fresh("-X", "importtime", "-m", "cayleysg.cli", *argv)
    assert (proc.returncode, code) == (0, 0), proc.stderr[-2000:]
    assert proc.stdout == expected
    loaded = imported(proc.stderr)
    assert {"cayleysg.core", "cayleysg.tableio"} <= loaded
    assert ("cayleysg.engine" in loaded) == (argv[0] in COMPOSING)
    if argv[0] in ("act", "enumerate"):
        assert not loaded & UNUSED_BY_ACT


def test_classify_leaves_the_engine_unloaded_in_a_fresh_process():
    script = "\n".join(
        [
            "import sys, cayleysg",
            "report = cayleysg.classify(cayleysg.example_ijkf())",
            "assert report.is_finite and not report.is_free",
            "assert 'cayleysg.classify' in sys.modules",
            "assert 'cayleysg.engine' not in sys.modules",
        ]
    )
    proc = fresh("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_2_without_a_traceback(unbuffered):
    # 120 KB of Graphviz text in one write, more than a pipe holds, so the
    # writer is still writing when the reader goes; under PYTHONUNBUFFERED
    # that write comes back short instead of failing
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "cayleysg.cli", "machine", "family:cyclic_group:64"],
        env={**env, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(1) == b"d"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_a_closed_stdout_keeps_a_nonzero_code():
    # the handler's output waits in the stdout buffer until main flushes it,
    # after the reader has gone and the handler has returned 4
    script = "\n".join(
        [
            "import sys, cayleysg.cli as cli",
            "def disagree(args):",
            "    print('report')",
            "    sys.stdin.read()",
            "    return cli.DISAGREEMENT",
            "cli.cmd_act = disagree",
            "sys.exit(cli.main(['act', 'family:cyclic_group:3', '--word', '1', '--prefix', '1']))",
        ]
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env={**env, "PYTHONPATH": str(SRC)},
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        proc.stdout.close()
        proc.stdin.close()
        assert proc.wait(timeout=60) == 4
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_every_public_name_is_its_defining_module_attribute():
    modules = [importlib.import_module("cayleysg." + m) for m in MODULES]
    assert len(set(c.__all__)) == len(c.__all__)
    assert set(c.__all__) <= set(dir(c))
    for name in c.__all__:
        value = getattr(c, name)
        holders = [m for m in modules if hasattr(m, name)]
        assert holders, name
        assert all(getattr(m, name) is value for m in holders), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        c.no_such_name
    # public in its own module, not in the package
    assert not hasattr(c, "DEFAULT_BUDGET")
    assert c.core.itertools is itertools


def test_a_submodule_resolves_by_name_in_a_fresh_process():
    script = "\n".join(
        [
            "import sys, cayleysg",
            "assert cayleysg.engine is sys.modules['cayleysg.engine']",
            "assert cayleysg.corpus.ENUMERATION_CAP >= 1",
            "assert callable(cayleysg.act)",
            "assert 'verify' in dir(cayleysg) and 'sys' not in dir(cayleysg)",
        ]
    )
    proc = fresh("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_a_name_first_read_during_a_patch_keeps_the_original():
    script = "\n".join(
        [
            "import cayleysg, cayleysg.engine as engine",
            "original = engine.act",
            "engine.act = lambda *args: None",
            "first = cayleysg.act",
            "engine.act = original",
            "assert first is original and cayleysg.act is original",
            # a submodule named like a function does not hide the function
            "import cayleysg.verify",
            "assert cayleysg.classify is cayleysg.verify.classify",
            "assert callable(cayleysg.classify)",
        ]
    )
    proc = fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
