"""README's command extractor, ``tools/check_readme_commands.py``.

Tier-1 checks only that it finds every ``python -m repro`` command and
joins ``\\`` continuations; running the commands is CI's
``readme-commands`` job.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "check_readme_commands", ROOT / "tools" / "check_readme_commands.py"
)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

SAMPLE = """\
Some prose naming `python -m repro info`, which is not a command line.

```bash
pip install -e .
python -m repro fleet --requests 4 \\
    --tenant "t0:rate=0.1,n=4" \\
    -n 8            # a trailing comment
# python -m repro commented out
python -m repro solve --device nope   # exits 2: unknown device
```

```python
python -m repro not-bash
```

```
python -m repro no-language
```

```bash
python -m repro devices
```
"""


def test_joins_continuations_and_drops_comments():
    assert checker.readme_commands(SAMPLE) == [
        (["fleet", "--requests", "4", "--tenant", "t0:rate=0.1,n=4", "-n", "8"], 0),
        (["solve", "--device", "nope"], 2),
        (["devices"], 0),
    ]


def test_finds_every_readme_command():
    text = (ROOT / "README.md").read_text()
    commands = checker.readme_commands(text)
    # Independently: the lines that open a command inside a bash block.
    starts, in_block = 0, False
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = not in_block and line.strip() == "```bash"
        elif in_block and line.startswith("python -m repro"):
            starts += 1
    assert len(commands) == starts >= 20
    for argv, expected in commands:
        assert expected in (0, 2)
        assert not any(arg in ("\\", "#") or arg.endswith("\\") for arg in argv)
