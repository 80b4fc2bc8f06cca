"""Rules checked over the source tree itself rather than over its behaviour."""
import ast
import json
import re
from dataclasses import fields
from pathlib import Path

import heatseg
from heatseg.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heatseg"
# a hook names its target in a string such as "SegModel.forward"
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def public_definitions(tree):
    """Names of the module-level functions and of the methods of module-level
    classes; a leading underscore (dunders included) marks a name private."""
    for node in tree.body:
        for d in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                yield d.name


def referenced_names(tree):
    """Every name a module loads, reads as an attribute, imports or spells as
    a dotted string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def test_no_public_definition_is_used_only_by_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    used = set(heatseg.__all__)
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{path.name}: {name}"
        for path in modules
        for name in public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used
    ]
    # a helper that only tests call is deleted, not kept for them
    assert unused == []


def test_readme_config_table_matches_the_schema():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    keys = [key.strip().strip("`") for key, _ in rows]
    # one row per key, in schema order, each with the schema's default
    assert keys == [f.name for f in fields(RunConfig)]
    defaults = RunConfig().to_dict()
    assert {k: json.loads(d) for k, (_, d) in zip(keys, rows)} == defaults
