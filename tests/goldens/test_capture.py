"""Tests for the golden-capture script's argument handling.

The captures themselves are exercised by CI's golden-drift job (regenerate
and diff) and read back by tier-1 (``test_session.py``,
``test_scheduler.py::TestFifoGoldens``); here we only pin the ``--filter``
contract: named subsets are selectable and unknown names fail fast with
the usual argparse exit-2, before any golden is (re)written.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
REPO = HERE.parent.parent


def run_capture(*args):
    env = {"PYTHONPATH": str(REPO / "src")}
    if sys.flags.dont_write_bytecode:  # the child writes no .pyc either
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, str(HERE / "capture.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )


class TestCaptureFilter:
    def test_unknown_filter_rejected_before_writing(self):
        before = {
            path.name: path.stat().st_mtime_ns
            for path in HERE.glob("*.json")
        }
        proc = run_capture("--filter", "bogus")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr
        after = {
            path.name: path.stat().st_mtime_ns
            for path in HERE.glob("*.json")
        }
        assert after == before  # nothing regenerated

    def test_help_names_the_golden_families(self):
        proc = run_capture("--help")
        assert proc.returncode == 0
        assert "fleet" in proc.stdout and "solve" in proc.stdout
