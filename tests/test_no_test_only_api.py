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

The same callers are scanned for write-only fields: every annotated field
of a class body and every ``self.<name> =`` in an ``__init__`` under
``src/repro`` must be loaded as an attribute (``obj.name`` read, an
f-string's fields included) or named by a string literal somewhere, else
``KEEP_FIELDS`` names it with a reason. A keyword argument, an assignment
and an augmented assignment (``obj.name += 1``) only write. Fields pool
by bare name too, so a field written and never read hides behind a read
of a same-named attribute of another class (a fleet request's
``request_id``, a session trace's ``head_starts`` count, a cache's
``evicted_segments``).
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
    "ChildStepPlan": "the named form of a speculative planner's return, which tests' planners build; the session's planner returns the same fields as a plain tuple",
    "accounted": "LatencyBreakdown identity: the server tests assert it equals total",
    "claims_of": "read-only KVLedger observer the ledger property tests need",
    "dominates": "Pareto predicate the frontier tests assert the reported frontier with",
    "evictable_blocks": "read-only PagedKVCache observer the cache property tests need",
    "final_score": "ReasoningPath observer: the session and the searches read its expression inline per beam",
    "free_bytes": "read-only KVLedger observer the ledger property tests need",
    "is_resident": "read-only PagedKVCache observer the cache property tests need",
    "logical_resident_bytes": "read-only KVLedger observer the ledger property tests need",
    "resident_bytes": "read-only KVLedger observer the ledger property tests need",
    "resident_of": "read-only KVLedger observer: one owner's device bytes, for the ledger tests",
    "resident_segment_count": "read-only PagedKVCache observer the cache property tests need",
    "ridge_intensity": "roofline observer: the roofline tests check compute_bound against it",
    "swapped_of": "read-only KVLedger observer: one owner's host-swapped bytes, for the ledger tests",
    "timeline": "the fault schedule as data: the fault determinism tests compare it",
    "total_tokens": "ReasoningPath observer: the session reads its expression inline per beam; the equivalence tests compare paths by it",
}

#: Fields only tests read, kept on purpose: name -> reason.
KEEP_FIELDS = {
    "allocated_tokens": "CacheStats total: the cache property tests check it against the event trace's allocations",
    "evicted_tokens": "CacheStats total: the cache property tests check it against the event trace's evictions",
    "built": "stream_counts: the step-table tests count streams built per solve (ROADMAP 11)",
    "collected": "SolveOutcome and ReferenceTrace: the equivalence tests compare the served and the reference search's finished paths",
    "est_offload_overhead": "AllocationPlan: the allocator tests check an offloading plan prices its swap",
    "child_lineage": "ChildStepPlan field the round unpacks by position; tests' planners build plans by name",
    "parent_leaf_segment": "ChildStepPlan field the round unpacks by position; tests' planners build plans by name",
    "segment_id": "ChildStepPlan field the round's fill hands to the cache by position; tests' planners build plans by name",
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
    used: Counter = Counter()
    for path in _callers():
        used.update(_uses(path))
    return defined, used


def _callers() -> list[Path]:
    """Every file whose uses count: tests do not."""
    return [
        *(ROOT / "src").rglob("*.py"),
        ROOT / "run_all_experiments.py",
        *(ROOT / "examples").rglob("*.py"),
        *(ROOT / "benchmarks").rglob("*.py"),
    ]


@cache
def unused_definitions() -> tuple[str, ...]:
    """Names whose only uses are their own definitions (dunders excepted)."""
    defined, used = scan()
    return tuple(sorted(
        name for name, count in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
        and used[name] <= count
    ))


def _fields(tree: ast.Module) -> list[str]:
    """Annotated class-body fields and ``self.<name>`` targets of an
    ``__init__``'s assignments, in every class of a module."""
    names = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.append(node.target.id)
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign):
                        targets = list(sub.targets)
                    elif isinstance(sub, ast.AnnAssign):
                        targets = [sub.target]
                    else:
                        continue
                    while targets:
                        target = targets.pop()
                        if isinstance(target, (ast.Tuple, ast.List)):
                            targets.extend(target.elts)
                        elif (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            names.append(target.attr)
    return names


def _loads(path: Path) -> Counter:
    """Attribute reads, plus string literals that are identifiers, of one
    file. An f-string's literal text and the lines of an export
    (:func:`_export_lines`) are skipped."""
    tree = ast.parse(path.read_text())
    exports = _export_lines(tree)
    text = {
        id(part)
        for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
        for part in node.values if isinstance(part, ast.Constant)
    }
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in exports:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in text and node.value.isidentifier()
        ):
            counts[node.value] += 1
    return counts


@cache
def write_only_fields() -> tuple[str, ...]:
    """Fields defined under ``src/repro`` that no caller reads."""
    defined: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        defined.update(_fields(ast.parse(path.read_text())))
    read: Counter = Counter()
    for path in _callers():
        read.update(_loads(path))
    return tuple(sorted(name for name in defined if not read[name]))


def test_every_definition_has_a_caller_outside_tests():
    unused = set(unused_definitions())
    assert sorted(unused - KEEP.keys()) == [], (
        "defined under src/ but used only by tests: delete it with its test, "
        "or give it a KEEP entry with a reason"
    )


def test_keep_names_only_what_the_scan_finds():
    """A KEEP entry whose name gained a caller, or lost its definition, goes."""
    assert sorted(KEEP.keys() - set(unused_definitions())) == []


def test_every_field_is_read_outside_tests():
    unread = set(write_only_fields())
    assert sorted(unread - KEEP_FIELDS.keys()) == [], (
        "a field under src/ that only its writers and tests touch: delete "
        "it, or give it a KEEP_FIELDS entry with a reason"
    )


def test_keep_fields_names_only_what_the_scan_finds():
    """A KEEP_FIELDS entry whose field gained a reader, or went, goes."""
    assert sorted(KEEP_FIELDS.keys() - set(write_only_fields())) == []


def test_a_read_is_an_attribute_load_or_an_identifier_literal(tmp_path):
    source = tmp_path / "reader.py"
    source.write_text(
        '"""Docstring naming in_docstring."""\n'
        "obj.written = 1\n"
        "obj.counted += 1\n"
        "Record(keyword=2)\n"
        "value = obj.read + getattr(obj, 'looked_up')\n"
        "label = f'{obj.formatted} literal_text'\n"
    )
    reads = _loads(source)
    assert reads["read"] == reads["looked_up"] == reads["formatted"] == 1
    for absent in ("written", "counted", "keyword", "literal_text", "in_docstring"):
        assert reads[absent] == 0


def test_fields_are_annotations_and_init_assignments():
    tree = ast.parse(
        "class Record:\n"
        "    annotated: int\n"
        "    plain = 0\n"
        "    def __init__(self):\n"
        "        self.first = self.chained = 0\n"
        "        self.left, (self.right, local) = 1, (2, 3)\n"
        "        self.typed: int = 4\n"
        "    def later(self):\n"
        "        self.outside = 5\n"
    )
    assert sorted(_fields(tree)) == [
        "annotated", "chained", "first", "left", "right", "typed",
    ]


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
