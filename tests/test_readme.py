"""README's references.  Each ``(README, "<name>")`` citation in the package
names a heading of README or one of its bold ``**<name>.**`` items, and
README names no private function or class of the package: a private
mechanism is described once, in its docstring.  Each ``tests/<file>.py``
that README cites exists, and each ``tests/<file>.py::<name>`` is defined
there."""

import ast
import os
import re

import exqip
from exqip import fileio

TESTS = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(TESTS, os.pardir, "README.md")
PACKAGE = os.path.dirname(os.path.abspath(exqip.__file__))


def package_sources() -> dict:
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    return sources


def readme_prose() -> str:
    """README without its fenced code blocks, whose comments are no headings."""
    with open(README, encoding="utf-8") as fh:
        return re.sub(r"^```.*?^```$", "", fh.read(), flags=re.M | re.S)


def readme_parts() -> set:
    text = readme_prose()
    parts = set(re.findall(r"^#+ (.+)$", text, flags=re.M)) | set(re.findall(r"\*\*(.+?)\.\*\*", text))
    # Markdown's escapes, as in "The ε\* step", are not part of the name.
    return {re.sub(r"\\(.)", r"\1", part) for part in parts}


def test_citations_name_parts_of_the_readme():
    parts = readme_parts()
    cited = {
        (module, " ".join(name.split()))
        for module, text in package_sources().items()
        for name in re.findall(r'\(README, "([^"]+)"\)', text)
    }
    assert len(cited) >= 5
    assert sorted(c for c in cited if c[1] not in parts) == []


def test_readme_names_no_private_function():
    private = {
        node.name
        for text in package_sources().values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    assert len(private) >= 50
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    assert sorted(n for n in private if re.search(rf"(?<!\w){re.escape(n)}(?!\w)", text)) == []


def test_cited_tests_are_defined():
    with open(README, encoding="utf-8") as fh:
        cited = set(re.findall(r"tests/(\w+\.py)(?:::\s*(\w+))?", fh.read()))
    assert len({file for file, _ in cited}) >= 11
    missing = []
    for file, name in sorted(cited):
        path = os.path.join(TESTS, file)
        if not os.path.isfile(path):
            missing.append(file)
        elif name:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            if name not in defined:
                missing.append(f"{file}::{name}")
    assert missing == []


def test_object_kinds_table_is_the_kind_classes():
    """README's "Object kinds" table lists the kinds of ``fileio.KINDS`` in
    order, and each row's file and comb signatures are its class's layout,
    with ``d1`` written ``d_1``."""
    section = readme_prose().split("### Object kinds", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \| (`[^`]+`|the same) \|", section, flags=re.M)
    assert [kind for kind, _, _ in rows] == list(fileio.KINDS)
    for kind, file_sig, comb_sig in rows:
        cls = fileio.KINDS[kind]
        assert cls.kind == kind
        if cls.layout is None:
            assert (file_sig, comb_sig) == ("[d_0, ..., d_{2N-1}]", "the same"), kind
        else:
            slots = [re.sub(r"^d(\d)$", r"d_\1", str(slot)) for slot in cls.layout]
            names = [slot for slot, given in zip(slots, cls.layout) if isinstance(given, str)]
            assert file_sig == f"[{', '.join(names)}]", kind
            assert comb_sig == f"`({', '.join(slots)})`", kind
