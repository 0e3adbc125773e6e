from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_aperiodicity_spotcheck_finds_nothing():
    proc = run_script("aperiodicity_spotcheck.py", "--max-order", "2")
    assert proc.returncode == 0
    assert "every closed enumeration was H-trivial" in proc.stdout


def test_growth_profile_matches_free_reference():
    proc = run_script(
        "growth_profile.py", "family:cyclic_group:2", "--max-len", "4"
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].split() == ["4", "30", "16", "30"]


def test_growth_profile_stops_at_the_work_cap():
    proc = run_script(
        "growth_profile.py",
        "family:symmetric_group:3",
        "--max-len",
        "12",
        "--work-cap",
        "1000",
    )
    assert proc.returncode == 0
    assert "stopped at length 4" in proc.stdout


def test_growth_profile_rejects_unknown_family():
    proc = run_script("growth_profile.py", "family:nosuch")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
