"""No test-only API under ``src/``.

Every function, class and method defined under ``src/repro`` must be used
outside its own definitions: in ``src/``, ``run_all_experiments.py``,
``examples/`` or ``benchmarks/``. Tests do not count, so a definition that
only tests call fails here unless ``KEEP`` names it with a reason.

A use is a Python name token (comments and docstrings do not count) or a
string literal equal to the name (``getattr`` lookups, the perf harness's
entry-point table). The names in an f-string's ``{...}`` fields count too,
on every Python version: 3.12 tokenizes them, 3.11 returns the f-string as
one token, so it is parsed. Exports do not count: a name in an ``import``
or ``from ... import`` statement, or in an ``__all__`` assignment, is used
only where it is called, read or looked up.

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

import pytest

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
    "resident_of": "read-only KVLedger observer: one owner's device bytes, for the ledger tests",
    "resident_segment_count": "read-only PagedKVCache observer the cache property tests need",
    "ridge_intensity": "roofline observer: the roofline tests check compute_bound against it",
    "swapped_of": "read-only KVLedger observer: one owner's host-swapped bytes, for the ledger tests",
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


def _export_lines(tree: ast.Module) -> set[int]:
    """Lines of the file's ``import`` statements and ``__all__`` assignments."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _field_names(node: ast.AST):
    """Names, attributes and identifier literals of an f-string's fields.

    The literal text between the fields is skipped, as 3.12's tokenizer
    skips it (``FSTRING_MIDDLE``), also in an f-string nested in a field.
    """
    if isinstance(node, ast.JoinedStr):
        for part in node.values:
            if isinstance(part, ast.FormattedValue):
                yield from _field_names(part.value)
                if part.format_spec is not None:
                    yield from _field_names(part.format_spec)
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.keyword, ast.arg)) and node.arg is not None:
        yield node.arg
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.isidentifier():
            yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _field_names(child)


def _uses(path: Path) -> Counter:
    """Name tokens, plus string literals that are identifiers, of one file.

    Tokens on the lines of an export (:func:`_export_lines`) are skipped.
    """
    source = path.read_text()
    exports = _export_lines(ast.parse(source))
    counts: Counter = Counter()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.start[0] in exports:
            continue
        if token.type == tokenize.NAME:
            counts[token.string] += 1
        elif token.type == tokenize.STRING:
            try:
                value = ast.literal_eval(token.string)
            except (ValueError, SyntaxError):
                # An f-string before 3.12: one token, fields included.
                counts.update(_field_names(ast.parse(token.string, mode="eval").body))
                continue
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
        "label = f'{formatted} plain {obj.field!r:>{width}}'\n"
        "text = 'two words'\n"
    )
    uses = _uses(source)
    assert uses["called"] == uses["getattr"] == uses["looked_up"] == 1
    assert uses["formatted"] == uses["field"] == uses["width"] == 1
    for absent in ("in_docstring", "in_comment", "two words", "plain"):
        assert uses[absent] == 0


@pytest.mark.parametrize("expression, name, count", [
    pytest.param("f'{value!r}'", "value", 1, id="conversion"),
    pytest.param("f'{value:width}'", "width", 0, id="literal-format-spec"),
    pytest.param("f'{value=}'", "value", 1, id="self-documenting"),
    pytest.param("f'{call(key=arg)}'", "key", 1, id="keyword-argument"),
    pytest.param("f'{table[\"looked_up\"]}'", "looked_up", 1, id="identifier-key"),
    pytest.param("f'{table[\"two words\"]}'", "two", 0, id="non-identifier-key"),
    pytest.param("f\"{f'{inner}'}\"", "inner", 1, id="nested"),
    pytest.param("rf'{raw}'", "raw", 1, id="raw-prefix"),
    pytest.param("F'{upper}'", "upper", 1, id="uppercase-prefix"),
    pytest.param("f'''{\nmultiline\n}'''", "multiline", 1, id="triple-quoted"),
    pytest.param("f'{a}' f'{second}'", "second", 1, id="implicit-concatenation"),
    pytest.param("'text' f'{after}'", "after", 1, id="after-a-plain-string"),
])
def test_an_f_string_field_counts_as_3_12_tokenizes_it(
    tmp_path, expression, name, count
):
    source = tmp_path / "caller.py"
    source.write_text(f"label = {expression}\n")
    assert _uses(source)[name] == count


@pytest.mark.parametrize("source, name", [
    pytest.param("__all__: list[str] = ['annotated']\n", "annotated", id="annotated-all"),
    pytest.param("import package.dotted\n", "dotted", id="dotted-import"),
    pytest.param("from . import relative\n", "relative", id="relative-import"),
    pytest.param("import module as alias\n", "alias", id="import-alias"),
    pytest.param(
        "from package import (\n    first,\n    second as renamed,\n)\n",
        "renamed", id="parenthesised-alias",
    ),
])
def test_every_export_form_is_no_use(tmp_path, source, name):
    path = tmp_path / "package.py"
    path.write_text(source)
    assert _uses(path)[name] == 0


def test_only_all_is_an_export_list(tmp_path):
    source = tmp_path / "package.py"
    source.write_text("NAMES = ['listed']\nobj.__all__ = ['attribute']\n")
    uses = _uses(source)
    assert uses["listed"] == uses["attribute"] == 1


def test_an_export_is_no_use(tmp_path):
    source = tmp_path / "package.py"
    source.write_text(
        "import exported_module\n"
        "from repro.a import (\n"
        "    exported,\n"
        "    also_exported,\n"
        ")\n"
        "__all__ = [\n"
        "    'exported',\n"
        "]\n"
        "__all__ += ['also_exported']\n"
        "def user():\n"
        "    from repro.b import called\n"
        "    return called()\n"
    )
    uses = _uses(source)
    assert uses["called"] == 1
    for absent in ("exported_module", "exported", "also_exported"):
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
