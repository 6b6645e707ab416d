"""Run every ``python -m repro`` command that README's ``bash`` blocks show.

Each command line (``\\`` continuations joined) must exit 0, or 2 where
its trailing comment says ``exits 2`` (a documented configuration
error). The commands run in order, in one fresh temporary directory, so
a file one command writes (``trace generate --out trace.jsonl``) is
there for the next, and nothing lands in the checkout. ``PYTHONPATH``
points at this checkout's ``src/``, and ``REPRO_CACHE_DIR`` is dropped so
no command reads a shared result cache.

Usage, from the repository root::

    python tools/check_readme_commands.py
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PREFIX = ("python", "-m", "repro")
_EXITS_2 = re.compile(r"\bexits? 2\b")


def bash_lines(text: str) -> list[str]:
    """The logical lines of every fenced ``bash`` block, continuations joined."""
    lines: list[str] = []
    in_block = False
    pending = ""
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("```"):
            in_block = not in_block and stripped == "```bash"
            pending = ""
            continue
        if not in_block:
            continue
        if raw.rstrip().endswith("\\"):
            pending += raw.rstrip()[:-1].strip() + " "
            continue
        lines.append(pending + stripped)
        pending = ""
    return lines


def readme_commands(text: str) -> list[tuple[list[str], int]]:
    """``(argv after python -m repro, expected exit status)`` per command."""
    commands = []
    for line in bash_lines(text):
        argv = shlex.split(line, comments=True)
        if tuple(argv[:3]) != PREFIX:
            continue
        comment = line.partition(" #")[2]
        commands.append((argv[3:], 2 if _EXITS_2.search(comment) else 0))
    return commands


def main() -> int:
    commands = readme_commands(README.read_text())
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for command, expected in commands:
            shown = shlex.join([*PREFIX, *command])
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "repro", *command], cwd=workdir, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            seconds = time.perf_counter() - start
            ok = done.returncode == expected
            print(f"{'ok' if ok else 'FAIL'} exit {done.returncode} "
                  f"(want {expected}) {seconds:5.1f}s  {shown}")
            if not ok:
                failed += 1
                print(done.stderr, file=sys.stderr)
    print(f"{len(commands) - failed}/{len(commands)} README commands as documented")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
