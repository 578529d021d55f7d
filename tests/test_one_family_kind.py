"""One family kind.

`mirror.py` defines one family class, `Family`; `WpsFamily` and
`ProductFamily` are functions that build it.  No module of the library
calls `isinstance` with a family class, so no code runs per family kind:
`verify_family` chooses its route by its arguments.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "toricres")
FAMILY_NAMES = {"Family", "WpsFamily", "ProductFamily"}


def _read(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return fh.read()


def _named(node):
    """The names a class argument of isinstance spells, tuples included."""
    for expr in node.elts if isinstance(node, ast.Tuple) else [node]:
        if isinstance(expr, ast.Name):
            yield expr.id
        elif isinstance(expr, ast.Attribute):
            yield expr.attr


def family_isinstance_calls(source, filename="<source>"):
    """(filename, line) of each isinstance call that names a family class."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and FAMILY_NAMES.intersection(_named(node.args[1]))):
            found.append((filename, node.lineno))
    return found


def test_mirror_defines_one_family_class():
    tree = ast.parse(_read("mirror.py"))
    classes = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    assert classes == ["Family"]
    functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert {"WpsFamily", "ProductFamily"} <= functions


def test_no_module_asks_isinstance_of_a_family_class():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            found += family_isinstance_calls(_read(name), name)
    assert found == []


def test_the_guard_sees_isinstance_on_a_family_class():
    refused = [
        "isinstance(fam, WpsFamily)\n",
        "isinstance(fam, (int, mirror.ProductFamily))\n",
        "if isinstance(fam, Family):\n    pass\n",
    ]
    allowed = [
        "isinstance(spec, RationalFunctionSpec)\n",
        "isinstance(x, (int, str))\n",
        "Family(factors, parts)\n",
        "fam.p == 1\n",
    ]
    for source in refused:
        assert len(family_isinstance_calls(source)) == 1, source
    for source in allowed:
        assert family_isinstance_calls(source) == [], source
