"""No test-only API under ``src/``.

Every function, class and method defined under ``src/repro`` must be used
outside its own definitions: in ``src/``, ``run_all_experiments.py``,
``examples/`` or ``benchmarks/``. Tests do not count, so a definition that
only tests call fails here unless ``KEEP`` names it with a reason.

A use is a Python name token (comments and docstrings do not count) or a
string literal equal to the name (``getattr`` lookups, the perf harness's
entry-point table). Exports (``import`` lines, ``__all__``) count as uses:
an exported name is public API.

Matching is by bare name, not by owner: the definitions and uses of every
same-named function, class or method are pooled. A name used nowhere but
defined twice is found, but a test-only method that shares its name with
a used one elsewhere hides behind it.
"""

import ast
import io
import tokenize
from collections import Counter
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Definitions only tests use, kept on purpose: name -> reason.
KEEP = {
    "accounted": "LatencyBreakdown identity: the server tests assert it equals total",
    "arrival_signalled": "read-only observer the fleet-kernel invariant tests need",
    "claims_of": "read-only KVLedger observer the ledger property tests need",
    "dominates": "Pareto predicate the frontier tests assert the reported frontier with",
    "evictable_blocks": "read-only PagedKVCache observer the cache property tests need",
    "free_bytes": "read-only KVLedger observer the ledger property tests need",
    "is_resident": "read-only PagedKVCache observer the cache property tests need",
    "logical_resident_bytes": "read-only KVLedger observer the ledger property tests need",
    "resident_bytes": "read-only KVLedger observer the ledger property tests need",
    "resident_segment_count": "read-only PagedKVCache observer the cache property tests need",
    "ridge_intensity": "roofline observer: the roofline tests check compute_bound against it",
    "timeline": "the fault schedule as data: the fault determinism tests compare it",
}


def _definitions(body) -> list[str]:
    """Names of the functions and classes in a module or class body.

    A name appears once per token its own definitions spell: the ``def``
    or ``class`` line, and a ``@name.setter`` / ``@name.deleter``
    decorator, which names the property it extends.
    """
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Attribute)
                    and isinstance(decorator.value, ast.Name)
                    and decorator.value.id == node.name
                ):
                    names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names.extend(_definitions(node.body))
    return names


def _uses(path: Path) -> Counter:
    """Name tokens, plus string literals that are identifiers, of one file."""
    counts: Counter = Counter()
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type == tokenize.NAME:
            counts[token.string] += 1
        elif token.type == tokenize.STRING:
            try:
                value = ast.literal_eval(token.string)
            except (ValueError, SyntaxError):
                continue  # an f-string is no literal
            if isinstance(value, str) and value.isidentifier():
                counts[value] += 1
    return counts


def scan() -> tuple[Counter, Counter]:
    """``(definitions, uses)`` of every name defined under ``src/repro``."""
    defined: Counter = Counter()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        defined.update(_definitions(ast.parse(path.read_text()).body))
    callers = [
        *(ROOT / "src").rglob("*.py"),
        ROOT / "run_all_experiments.py",
        *(ROOT / "examples").rglob("*.py"),
        *(ROOT / "benchmarks").rglob("*.py"),
    ]
    used: Counter = Counter()
    for path in callers:
        used.update(_uses(path))
    return defined, used


@cache
def unused_definitions() -> tuple[str, ...]:
    """Names whose only uses are their own definitions (dunders excepted)."""
    defined, used = scan()
    return tuple(sorted(
        name for name, count in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
        and used[name] <= count
    ))


def test_every_definition_has_a_caller_outside_tests():
    unused = set(unused_definitions())
    assert sorted(unused - KEEP.keys()) == [], (
        "defined under src/ but used only by tests: delete it with its test, "
        "or give it a KEEP entry with a reason"
    )


def test_keep_names_only_what_the_scan_finds():
    """A KEEP entry whose name gained a caller, or lost its definition, goes."""
    assert sorted(KEEP.keys() - set(unused_definitions())) == []


def test_a_use_is_a_name_token_or_an_identifier_literal(tmp_path):
    source = tmp_path / "caller.py"
    source.write_text(
        '"""Docstring naming in_docstring."""\n'
        "# in_comment()\n"
        "value = called(getattr(obj, 'looked_up'))\n"
        "label = f'{formatted}'\n"
        "text = 'two words'\n"
    )
    uses = _uses(source)
    assert uses["called"] == uses["getattr"] == uses["looked_up"] == 1
    for absent in ("in_docstring", "in_comment", "two words"):
        assert uses[absent] == 0


def test_definitions_include_methods_of_nested_classes():
    body = ast.parse(
        "def top(): pass\n"
        "class Outer:\n"
        "    def method(self): pass\n"
        "    class Inner:\n"
        "        async def deep(self): pass\n"
        "value = 1\n"
    ).body
    assert _definitions(body) == ["top", "Outer", "method", "Inner", "deep"]


def test_a_property_setter_is_no_use_of_its_property(tmp_path):
    source = tmp_path / "settable.py"
    source.write_text(
        "class Box:\n"
        "    @property\n"
        "    def size(self): return self._size\n"
        "    @size.setter\n"
        "    def size(self, value): self._size = value\n"
    )
    defined = Counter(_definitions(ast.parse(source.read_text()).body))
    assert defined["size"] == _uses(source)["size"] == 3
