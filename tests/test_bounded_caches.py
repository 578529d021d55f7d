"""Every cache in the library is bounded.

An unbounded `functools.cache` or `lru_cache(maxsize=None)` on a function
that takes arguments keeps every distinct call's result for the life of
the process.  Such a decorator is allowed only on a function of no
arguments, whose cache holds one entry by construction (`cli.build_parser`);
an `lru_cache` must have an int literal maxsize or the default.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "toricres")


def _functools_names(tree):
    """(names bound to the functools module, {local name: functools name})
    for cache and lru_cache."""
    modules, direct = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            direct.update((a.asname or a.name, a.name) for a in node.names
                          if a.name in ("cache", "lru_cache"))
    return modules, direct


def _which(expr, modules, direct):
    """Which of cache and lru_cache a decorator's callee is, or None."""
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id in modules and expr.attr in ("cache", "lru_cache"):
            return expr.attr
    if isinstance(expr, ast.Name):
        return direct.get(expr.id)
    return None


def _unbounded(decorator, modules, direct):
    if isinstance(decorator, ast.Call):
        if _which(decorator.func, modules, direct) != "lru_cache":
            return False
        sizes = decorator.args[:1] + [k.value for k in decorator.keywords
                                      if k.arg == "maxsize"]
        return not all(isinstance(s, ast.Constant) and type(s.value) is int
                       for s in sizes)
    return _which(decorator, modules, direct) == "cache"


def unbounded_caches(source, filename="<source>"):
    """(filename, line, function) for each function that takes arguments
    and carries an unbounded cache decorator."""
    tree = ast.parse(source, filename)
    modules, direct = _functools_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs
                or a.kwarg):
            continue
        if any(_unbounded(d, modules, direct) for d in node.decorator_list):
            found.append((filename, node.lineno, node.name))
    return found


def test_library_caches_are_bounded():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path, encoding="utf-8") as fh:
                found += unbounded_caches(fh.read(), name)
    assert found == []


def test_the_guard_tells_bounded_from_unbounded():
    refused = [
        "import functools\n@functools.cache\ndef f(x):\n    pass\n",
        "import functools as ft\n@ft.cache\ndef f(*xs):\n    pass\n",
        "from functools import cache\n@cache\ndef f(*, x):\n    pass\n",
        "import functools\n@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n    pass\n",
        "from functools import lru_cache as lc\n@lc(None)\n"
        "def f(x):\n    pass\n",
        "import functools\nSIZE = None\n@functools.lru_cache(SIZE)\n"
        "def f(x):\n    pass\n",
        "import functools\nclass C:\n    @functools.cache\n"
        "    def m(self):\n        pass\n",
    ]
    allowed = [
        "import functools\n@functools.cache\ndef f():\n    pass\n",
        "import functools\n@functools.lru_cache(maxsize=8)\n"
        "def f(x):\n    pass\n",
        "import functools\n@functools.lru_cache\ndef f(x):\n    pass\n",
        "from functools import lru_cache\n@lru_cache(16)\n"
        "def f(x):\n    pass\n",
        "import functools\n@functools.wraps(print)\ndef f(x):\n    pass\n",
    ]
    for source in refused:
        assert len(unbounded_caches(source)) == 1, source
    for source in allowed:
        assert unbounded_caches(source) == [], source
